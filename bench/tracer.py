"""Span tracer installed from outside the package.

The traced run replaces public functions of ``polyres`` (by name, in the
module namespaces that call them) and the ``forward``/``backward`` methods
of every ``engine.Op`` subclass (at class level) with thin wrappers that
record spans. A span is ``(name, start, end, parent, extra)``; spans of one
benchmark operation (a training step, an eval pass or a build) share that
operation's id. Spans are kept in memory while the operation runs and
reduced to inclusive and self times when it ends, so memory stays bounded;
the raw spans of set-up and of the first few operations are kept for the
trace file written at exit. Nothing in ``src/`` is changed.

A wrapper's own work before its child's start and after its end lands in
the parent's self time. ``span_cost`` measures that share per child span
on a no-op method, and the self times reported are net of it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# Families whose metrics count only the outermost call (load_checkpoint
# lowers and parses again internally; those nested calls belong to load).
BUILD_FAMILY = ("builder.", "cost.", "dsl.")

# (span name, defining module, attribute, namespaces to patch). A function
# imported by name into another module is patched there too, so calls made
# from inside the package are seen. bilinear_resize and hflip are patched
# only where evaluation calls them, not where augmentation does.
FUNCTIONS = [
    ("engine.forward", "polyres.engine", "forward",
     ("polyres.engine", "polyres.builder", "polyres.training")),
    ("engine.backward", "polyres.engine", "backward",
     ("polyres.engine", "polyres.training")),
    ("engine.loss", "polyres.engine", "softmax_cross_entropy",
     ("polyres.engine", "polyres.training")),
    ("training.rmsprop", "polyres.training", "rmsprop_step", ("polyres.training",)),
    ("training.gates", "polyres.training", "sample_gates", ("polyres.training",)),
    ("training.gates", "polyres.training", "gate_node_map", ("polyres.training",)),
    ("data.augment", "polyres.data", "augment", ("polyres.data", "polyres.training")),
    ("data.synth", "polyres.data", "synth_dataset", ("polyres.data",)),
    ("data.resize", "polyres.data", "bilinear_resize", ("polyres.evaluation",)),
    ("data.resize", "polyres.data", "hflip", ("polyres.evaluation",)),
    ("evaluation.multicrop", "polyres.evaluation", "multicrop_eval", ("polyres.evaluation",)),
    ("evaluation.pool", "polyres.evaluation", "topk_pool", ("polyres.evaluation",)),
    ("evaluation.pool", "polyres.engine", "softmax", ("polyres.evaluation",)),
    ("builder.lower", "polyres.builder", "lower", ("polyres.builder", "polyres.cost")),
    ("builder.save", "polyres.builder", "save_checkpoint",
     ("polyres.builder", "polyres.training")),
    ("builder.load", "polyres.builder", "load_checkpoint", ("polyres.builder",)),
    ("cost.count_macs", "polyres.cost", "count_macs", ("polyres.cost",)),
    ("dsl.parse", "polyres.dsl", "parse_network", ("polyres.dsl", "polyres.builder")),
]

KEEP_OPS = 3  # operations whose raw spans go into the trace file
PROBE_REPS, PROBE_SPANS = 7, 2000  # span_cost: tries, no-op calls per try


def _all_op_classes(engine):
    out, todo = [], [engine.Op]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


class Tracer:
    """Records spans through wrappers; ``install``/``uninstall`` toggle them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1  # -1 while setting up
        self.node_of: dict[int, tuple[int, str]] = {}  # id(op) -> (node, stage)
        # key -> [inclusive s, self s, calls, child spans]
        self.setup = defaultdict(lambda: [0.0, 0.0, 0, 0])
        self.ops = defaultdict(lambda: [0.0, 0.0, 0, 0])
        self.n_ops = 0
        self.kept: list = []
        self.unpatched: list[str] = []
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def _record(self, name, fn, args, kwargs, extra):
        spans = self.spans
        i = len(spans)
        spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            spans[i] = (name, t0, t1, parent, extra)

    def _wrap_function(self, name, fn):
        if name == "engine.forward":
            @functools.wraps(fn)
            def wrapper(graph, params, x, *args, **kwargs):
                return self._record(
                    name, fn, (graph, params, x) + args, kwargs, x.shape[0]
                )
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._record(name, fn, args, kwargs, None)
        return wrapper

    def _wrap_method(self, suffix, fn):
        node_of = self.node_of

        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            name = f"op.{type(op).__name__}.{suffix}"
            return self._record(name, fn, (op,) + args, kwargs, node_of.get(id(op)))
        return wrapper

    def install(self) -> None:
        """Patch every target. A target the package no longer has in that
        place is skipped and listed in ``unpatched``; its metrics read 0."""
        if self._saved:
            return
        self.unpatched = []
        targets = [
            (name, sys.modules[home], attr, [sys.modules[ns] for ns in namespaces])
            for name, home, attr, namespaces in FUNCTIONS
        ]
        builder = sys.modules["polyres.builder"]
        targets.append(("evaluation.logits", builder.Model, "logits", [builder.Model]))
        for name, home, attr, owners in targets:
            original = home.__dict__.get(attr)
            wrapper = original and self._wrap_function(name, original)
            for owner in owners:
                if original is None or owner.__dict__.get(attr) is not original:
                    self.unpatched.append(f"{owner.__name__}.{attr}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for cls in _all_op_classes(sys.modules["polyres.engine"]):
            for attr, suffix in (("forward", "fwd"), ("backward", "bwd")):
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._saved.append((cls, attr, original))
                    setattr(cls, attr, self._wrap_method(suffix, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- bookkeeping ------------------------------------------------------

    def register(self, model) -> None:
        """Map each node's op object to (node index, stage) for attribution."""
        for node in model.graph.nodes:
            self.node_of[id(node.op)] = (node.idx, stage_of(node.segment))

    def begin_op(self) -> None:
        if self.op_id == -1:  # set-up spans are still pending
            self._reduce(self.setup, None)
        self.op_id = self.n_ops

    def end_op(self, dead: set[int] | frozenset = frozenset()) -> None:
        self._reduce(self.ops, dead)
        self.n_ops += 1

    def _reduce(self, acc, dead) -> None:
        spans, self.spans = self.spans, []
        if self.op_id < KEEP_OPS:
            self.kept.extend((s[0], s[1], s[2], s[3], self.op_id) for s in spans)
        child = [0.0] * len(spans)
        n_child = [0] * len(spans)
        in_build = [False] * len(spans)
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            dur = t1 - t0
            if parent >= 0:
                child[parent] += dur
                n_child[parent] += 1
                in_build[i] = in_build[parent] or spans[parent][0].startswith(BUILD_FAMILY)
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            a = acc[name]
            a[0] += dur
            a[1] += own
            a[2] += 1
            a[3] += n_child[i]
            if name.startswith(BUILD_FAMILY) and not in_build[i]:
                b = acc[name + "@outer"]
                b[0] += dur
                b[2] += 1
            if name.startswith("op.") and extra is not None:
                node, stage = extra
                b = acc[f"seg.{stage}.{name.rsplit('.', 1)[1]}"]
                b[1] += own
                if dead and node in dead:
                    acc["dropped"][1] += own
            elif name == "engine.forward":
                acc["samples"][2] += extra


class _Probe:
    def noop(self):
        return None


def span_cost() -> float:
    """Seconds one wrapped child call adds to its parent's self time.

    A parent span calls a no-op method ``PROBE_SPANS`` times through the
    method wrapper; its self time minus the same loop with the plain
    method, per call, is the cost. Median of ``PROBE_REPS`` tries."""
    probe, target, plain_noop = Tracer(), _Probe(), _Probe.noop

    def loop():
        for _ in range(PROBE_SPANS):
            target.noop()

    costs = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        loop()
        plain = time.perf_counter() - t0
        probe.spans = []
        _Probe.noop = probe._wrap_method("fwd", plain_noop)
        try:
            probe._record("probe", loop, (), {}, None)
        finally:
            _Probe.noop = plain_noop
        _, p0, p1, _, _ = probe.spans[0]
        own = (p1 - p0) - sum(t1 - t0 for _, t0, t1, _, _ in probe.spans[1:])
        costs.append((own - plain) / PROBE_SPANS)
    return statistics.median(costs)


def stage_of(segment: str) -> str:
    """Graph segment tag -> reported stage: 'A.3' -> 'A', 'A->B' -> 'A-B'."""
    if "->" in segment:
        return segment.replace("->", "-")
    return segment.split(".", 1)[0]


def dead_nodes(graph, gates) -> set[int]:
    """Nodes whose every consumer path is gated to zero for this gate map."""
    if not gates:
        return set()
    live = [False] * len(graph.nodes)
    live[graph.output] = True
    for node in reversed(graph.nodes):
        if not live[node.idx]:
            continue
        gate = gates.get(node.idx)
        for j, i in enumerate(node.inputs):
            if gate is None or gate[j] != 0.0:
                live[i] = True
    return {n.idx for n in graph.nodes if not live[n.idx]}


OP_CLASSES = (
    "Dense", "Conv2D", "StridedConvDownsample", "ChannelNorm", "ReLU",
    "Add", "GatedSum", "ScalarScale", "GlobalAvgPool", "Flatten",
)
STAGES = ("stem", "A", "B", "C", "A-B", "B-C", "head")
BUILD_METRICS = (
    ("builder.lower_ms", "builder.lower"),
    ("builder.save_ms", "builder.save"),
    ("builder.load_ms", "builder.load"),
    ("cost.count_macs_ms", "cost.count_macs"),
    ("dsl.parse_ms", "dsl.parse"),
)


def layer_metrics(tracer: Tracer, wl, extra: dict) -> dict[str, tuple[float, str]]:
    """Reduce the traced run to named per-layer metrics with units.

    Engine, training, data and evaluation figures are per benchmark
    operation (step, pass or build). Builder, cost and dsl figures are the
    mean outermost call, taken from the operations when they run there and
    from set-up otherwise. ``calls`` counts forward calls per operation.
    Self times (``col=1``) are net of ``extra["span_cost_s"]`` per child
    span. Metrics a workload does not exercise read 0.
    """
    o, n = tracer.ops, max(1, tracer.n_ops)
    cost_s = extra["span_cost_s"]

    def per_op_ms(key, col=0):
        if key not in o:
            return 0.0
        value = o[key][col] - (cost_s * o[key][3] if col == 1 else 0.0)
        return value / n * 1e3

    def per_op_calls(key):
        return o[key][2] / n if key in o else 0.0

    def per_call_ms(key):
        for acc in (tracer.ops, tracer.setup):
            a = acc.get(key + "@outer")
            if a and a[2]:
                return a[0] / a[2] * 1e3
        return 0.0

    m: dict[str, tuple[float, str]] = {
        "engine.fwd_ms": (per_op_ms("engine.forward"), "ms"),
        "engine.bwd_ms": (per_op_ms("engine.backward"), "ms"),
        "engine.dispatch_ms": (
            per_op_ms("engine.forward", 1) + per_op_ms("engine.backward", 1), "ms"
        ),
        "engine.loss_ms": (per_op_ms("engine.loss"), "ms"),
    }
    for cls in OP_CLASSES:
        m[f"engine.op.{cls}.fwd_ms"] = (per_op_ms(f"op.{cls}.fwd"), "ms")
        m[f"engine.op.{cls}.bwd_ms"] = (per_op_ms(f"op.{cls}.bwd"), "ms")
        m[f"engine.op.{cls}.calls"] = (per_op_calls(f"op.{cls}.fwd"), "count")
    samples = per_op_calls("samples")
    stage_macs = {stage_of(k): v["macs"] for k, v in wl.cost.stage_totals().items()}
    for stage in STAGES:
        fwd = per_op_ms(f"seg.{stage}.fwd", 1)
        macs = stage_macs.get(stage, 0) * samples
        m[f"engine.seg.{stage}.fwd_ms"] = (fwd, "ms")
        m[f"engine.seg.{stage}.bwd_ms"] = (per_op_ms(f"seg.{stage}.bwd", 1), "ms")
        m[f"engine.seg.{stage}.macs"] = (float(macs), "MAC")
        m[f"engine.seg.{stage}.gmac_per_s"] = (macs / fwd / 1e6 if fwd else 0.0, "GMAC/s")
    gate_total = extra.get("gate_total", 0)
    m.update({
        "engine.dropped_path_frac": (
            extra.get("gate_zeros", 0) / gate_total if gate_total else 0.0, "frac"
        ),
        "engine.dropped_path_ms": (per_op_ms("dropped", 1), "ms"),
        "training.rmsprop_ms": (per_op_ms("training.rmsprop"), "ms"),
        "training.gates_ms": (per_op_ms("training.gates"), "ms"),
        "data.augment_ms": (per_op_ms("data.augment"), "ms"),
        "data.resize_ms": (per_op_ms("data.resize"), "ms"),
        "data.resize_calls": (per_op_calls("data.resize"), "count"),
        "data.synth_ms": (
            tracer.setup["data.synth"][0] / tracer.setup["data.synth"][2] * 1e3
            if "data.synth" in tracer.setup else 0.0,
            "ms",
        ),
        "evaluation.logits_calls": (per_op_calls("evaluation.logits"), "count"),
        "evaluation.logits_ms": (per_op_ms("evaluation.logits"), "ms"),
        "evaluation.pool_ms": (per_op_ms("evaluation.pool"), "ms"),
        "evaluation.crop_ms": (
            per_op_ms("evaluation.multicrop", 1) + per_op_ms("data.resize"), "ms"
        ),
    })
    for name, key in BUILD_METRICS:
        m[name] = (per_call_ms(key), "ms")
    m["builder.ckpt_bytes"] = (float(wl.ckpt_bytes), "bytes")
    m["cost.macs_per_sample"] = (float(wl.cost.macs), "MAC")
    m["builder.cascaded_over_naive_step"] = (extra.get("step_ratio", 0.0), "ratio")
    m["cost.cascaded_over_naive_block_apps"] = (extra.get("block_apps_ratio", 0.0), "ratio")
    m["trace.overhead_frac"] = (extra["overhead_frac"], "frac")
    return m
