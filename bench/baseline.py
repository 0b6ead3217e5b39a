"""Run the benchmark over several seeds and summarise its spread.

Run from the repository root:

    python3 bench/baseline.py --runs 10            # every workload
    python3 bench/baseline.py --runs 5 --workloads eval_multicrop
    python3 bench/baseline.py --runs 10 --write     # also write bench/BASELINE.json

For each workload it runs ``bench/run.py --trace 0`` once per seed, one
process at a time, and reports each end-to-end metric's median, quartiles
and spread (interquartile range over the median, from
``statistics.quantiles(values, n=4)``) next to a third of the metric's
bound in ``BENCHMARK.json``. With ``--write`` it also makes one traced run
per workload and records the per-layer metrics, so the file is the baseline
later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def summarise(values: list[float], better: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
        "better": better,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    out = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "named_metrics": [r["report"]["named_metrics"] for r in runs],
            "metrics": {},
        }
        print(f"{workload}: correct={entry['correct']} "
              f"failed {entry['failed']}/{entry['attempted']}")
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs], m["better"])
            s["unit"] = m["unit"]
            entry["metrics"][m["name"]] = s
            ok = s["spread"] < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<12} median {s['median']:<12.6g} {m['unit']:<8} "
                  f"spread {s['spread']:.4f} (bound/3 {m['bound'] / 3:.4f})"
                  f"{'' if ok else '  NOT STEADY'}")
        if args.write:
            traced = run_once(workload, args.first_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
            entry["env"] = traced["report"]["env"]
        out["workloads"][workload] = entry
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
