"""polyres benchmark: one workload per process, closed loop, single client.

Run from the repository root:

    python3 bench/run.py --workload train_dense --seed 0 --seconds 20 --trace 0

Workloads: train_dense, train_conv, eval_multicrop, build_deep (see
``workloads.py`` for why each exists). The benchmark imports ``polyres``
from ``src/`` of the checkout it sits in and fails without printing a
result when that is missing.

``--trace 0`` sets up the workload several times (median set-up time),
then repeats the workload's operation for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` alternates untraced stretches with stretches
under the span tracer, half the time each, and prints the per-layer
metrics plus ``trace.overhead_frac``. Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it is a report with the environment record,
the metrics under their per-workload names, tail percentiles (or why they
were dropped) and every correctness check. The same report is written to
``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its raw spans (set-up and the first operations) to
``bench/out/<workload>-seed<seed>-spans.json``.

An operation fails when it raises, when its output check fails, or when
numpy reports an overflow or invalid value while it runs. Failures are
counted, never fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # fixed, at most nproc, so runs do not compete with themselves
SETUPS = 5  # set-ups per untraced run; setup_s is their median
TRACE_ROUNDS = 3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def import_package():
    """Import polyres from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import polyres

    if Path(polyres.__file__).resolve().parent != (src / "polyres").resolve():
        raise SystemExit(f"polyres imported from {polyres.__file__}, not {src}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # not a git checkout: report no one else's commit
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "batch": 32,
        "precision": "f32",
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "load": "closed loop, 1 client",
    }


class Runner:
    """Times the workload's operation in a closed loop and counts failures."""

    def __init__(self, wl, np):
        self.wl = wl
        self.np = np
        self.fp_errors = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gate_zeros = 0
        self.gate_total = 0

    def _on_fp_error(self, kind, flag):
        self.fp_errors += 1

    def run(self, seconds: float, tracer=None) -> list[float]:
        from tracer import dead_nodes

        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.begin_op()
            before = self.fp_errors
            try:
                with self.np.errstate(over="call", invalid="call", call=self._on_fp_error):
                    t0 = time.perf_counter()
                    try:
                        result = self.wl.op()
                    finally:
                        times.append(time.perf_counter() - t0)
                ok = self.wl.check(result) and self.fp_errors == before
            except Exception:
                ok = False
                if len(self.errors) < 3:
                    self.errors.append(traceback.format_exc())
            self.attempted += 1
            self.failed += not ok
            gates = getattr(self.wl, "gates", None)
            if gates:
                self.gate_zeros += sum(v == 0.0 for g in gates.values() for v in g)
                self.gate_total += sum(len(g) for g in gates.values())
            if tracer is not None:
                tracer.end_op(dead_nodes(self.wl.model.graph, gates))
        return times

    def finish_checks(self) -> list[dict]:
        checks = [
            {"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in self.wl.run_checks()
        ]
        self.attempted += len(checks)
        self.failed += sum(not c["ok"] for c in checks)
        return checks


def percentile_or_reason(values: list[float], q: int):
    """The q-th percentile, or None with the reason it was dropped.

    It is kept only if at least ten samples lie beyond it and it repeats
    within a tenth: the q-th percentiles of the first and second half of
    the run (in time order) differ by at most 10% of the whole run's."""
    beyond = math.floor(len(values) * (100 - q) / 100)
    note = f"{beyond} samples beyond p{q} of {len(values)}"
    if beyond < 10:
        return None, note + " (need 10): dropped"

    def pct(xs):
        return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]

    whole = pct(values)
    half = len(values) // 2
    drift = abs(pct(values[:half]) - pct(values[half:])) / whole
    note += f"; halves differ by {drift:.3f}"
    if drift > 0.1:
        return None, note + " (need <= 0.1): dropped"
    return whole, note


def end_to_end(args, workloads, np):
    setup_times = []
    for _ in range(SETUPS):
        wl = workloads.WORKLOADS[args.workload]()
        t0 = time.perf_counter()
        wl.setup(args.seed, OUT)
        setup_times.append(time.perf_counter() - t0)
    runner = Runner(wl, np)
    times = runner.run(args.seconds)
    checks = runner.finish_checks()
    ms = [t * 1e3 for t in times]
    p50 = statistics.median(ms)
    p90, p90_note = percentile_or_reason(ms, 90)
    items_per_s = wl.items * len(times) / sum(times)
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_frac = 1.0 - runner.failed / runner.attempted
    metrics = {
        "items_per_s": {"value": items_per_s, "unit": "items/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        "ok_frac": {"value": ok_frac, "unit": "frac"},
    }
    named = {
        "train": {"train_samples_per_s": items_per_s, "train_step_ms_p50": p50,
                  "train_step_ms_p90": p90},
        "eval": {"eval_images_per_s": items_per_s, "eval_pass_ms_p50": p50},
        "build": {"build_ms_p50": p50, "build_ms_p90": p90},
    }[wl.kind]
    named.update(setup_s=setup_s, peak_rss_mb=rss_mb,
                 failed_frac=runner.failed / runner.attempted)
    report = {
        "named_metrics": named,
        "samples": len(times),
        "p90": p90_note,
        "setup_runs_s": setup_times,
    }
    return runner, checks, metrics, report


def per_layer(args, workloads, np):
    from tracer import Tracer, layer_metrics, span_cost

    cost_s = span_cost()
    tracer = Tracer()
    tracer.install()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, OUT)
    tracer.uninstall()
    tracer.register(wl.model)
    runner = Runner(wl, np)
    # Alternate untraced and traced stretches so drift over the run does
    # not masquerade as tracing overhead.
    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        plain += runner.run(args.seconds / (2 * TRACE_ROUNDS))
        tracer.install()
        try:
            traced += runner.run(args.seconds / (2 * TRACE_ROUNDS), tracer)
        finally:
            tracer.uninstall()
    checks = runner.finish_checks()
    extra = {
        "gate_zeros": runner.gate_zeros,
        "gate_total": runner.gate_total,
        "overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "span_cost_s": cost_s,
    }
    dispatch_spans = sum(tracer.ops[k][3] for k in ("engine.forward", "engine.backward"))
    report = {"untraced_ops": len(plain), "traced_ops": len(traced),
              "unpatched": tracer.unpatched, "span_cost_us": cost_s * 1e6,
              "dispatch_correction_ms": cost_s * dispatch_spans / max(1, tracer.n_ops) * 1e3}
    if args.workload == "train_dense":
        try:
            cmp = workloads.cascade_comparison(args.seed, reps=20)
            extra.update(cmp)
            agree, detail = cmp["agree"], f"max abs logit diff {cmp['max_abs_diff']:.3g}"
        except Exception:
            cmp, agree, detail = None, False, traceback.format_exc()
        report["cascade_comparison"] = cmp
        runner.attempted += 1
        runner.failed += not agree
        checks.append({"name": "cascaded_matches_naive", "ok": agree, "detail": detail})
    layers = layer_metrics(tracer, wl, extra)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": tracer.kept,
    }))
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return runner, checks, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_package()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    runner, checks, metrics, report = measure(args, workloads, np)
    correct = runner.failed == 0
    report.update(env=environment(args, np), checks=checks, errors=runner.errors)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1)
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
