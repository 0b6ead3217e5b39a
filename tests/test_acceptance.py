"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Each test pins its tolerance explicitly and asserts its
stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from polyres.algebra import (
    ModuleKind,
    block_applications,
    cascade,
    drop_paths,
    expand_module,
    expand_symbolic,
    format_expr,
)
from polyres.builder import (
    ConvBlock,
    DenseBlock,
    deepen_interleave,
    lower,
    upgrade,
)
from polyres.cost import count_macs, count_params
from polyres.data import AugmentConfig, augment, sample_crop_box, synth_dataset
from polyres.dsl import PRESET_NAMES, parse_network, preset, render_network
from polyres.engine import (
    ChannelNorm,
    ComputationGraph,
    Conv2D,
    Dense,
    Flatten,
    GatedSum,
    GlobalAvgPool,
    GraphNode,
    InputOp,
    ParamStore,
    ReLU,
    StridedConvDownsample,
    backward,
    finite_diff_grad,
    forward,
    init_tensors,
    softmax_cross_entropy,
)
from polyres.evaluation import (
    PoolingConfig,
    multicrop_eval,
    single_crop_eval,
    topk_error,
    topk_pool,
)
from polyres.training import (
    OptimizerHP,
    gate_probabilities,
    lr_at,
    sample_gates,
    train,
)

ALL_FAMILIES = ("poly", "mpoly", "way")


def report(number: int, title: str, started: float, budget_s: float | None = None):
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {number:>2}: PASS  {title}  ({elapsed:.2f}s)"
    print(line)
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def test_01_rewrite_soundness():
    started = time.perf_counter()
    kinds = [ModuleKind.ir()]
    kinds += [ModuleKind(f, k) for f in ALL_FAMILIES for k in (1, 2, 3, 4)]
    for kind in kinds:
        for beta in (1.0, 0.3):
            expr = expand_module(kind, beta)
            assert expand_symbolic(cascade(expr)) == expand_symbolic(expr), (
                kind.token, beta,
            )
    report(1, "rewrite soundness (k<=4, beta in {1, 0.3}, exact multisets)", started, 1.0)


def test_02_numeric_equivalence_naive_vs_cascaded():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 1, 8, 8))
    for token in ("poly-2", "poly-3", "mpoly-2", "mpoly-3"):
        config = parse_network(f"A: {token}", input_size=8, classes=4, base_width=8)
        kw = dict(beta=0.3, seed=7, precision="f64", input_channels=1)
        cascaded = lower(config, DenseBlock(8, 16), memoize=True, **kw)
        naive = lower(config, DenseBlock(8, 16), memoize=False, **kw)
        yc = cascaded.logits(x)
        yn = naive.logits(x)
        rel = np.abs(yc - yn).max() / np.abs(yn).max()
        assert rel < 1e-9, (token, rel)
    report(2, "naive vs cascaded forward within 1e-9 rel (f64, 100 inputs)", started, 5.0)


def test_03_cost_identities():
    started = time.perf_counter()
    # Block applications: naive poly-2 = 3 vs cascaded = 2.
    poly2 = expand_module(ModuleKind.poly(2))
    assert block_applications(poly2) == 3
    assert block_applications(poly2, memoize=True) == 2

    # Parameter identities per module.
    model = lower(
        parse_network("A: ir -> poly-3 -> mpoly-3", input_size=8, base_width=4),
        DenseBlock(4, 8), input_channels=1,
    )
    rows = count_params(model).module_rows()
    assert rows[0].params == rows[1].params  # poly-3 == ir
    assert rows[2].params == 3 * rows[1].params  # mpoly-3 == 3x poly-3

    # Width doubling (input channels included) exactly quadruples conv MACs;
    # the classifier head is excluded (its class count does not scale).
    cfg1 = parse_network("A: ir; B: ir", input_size=16, base_width=4)
    cfg2 = parse_network("A: ir; B: ir", input_size=16, base_width=8)
    m1 = lower(cfg1, ConvBlock(4, 2), input_channels=2)
    m2 = lower(cfg2, ConvBlock(8, 2), input_channels=4)
    conv1 = sum(r.macs for r in count_macs(m1).rows if r.stage != "head")
    conv2 = sum(r.macs for r in count_macs(m2).rows if r.stage != "head")
    assert conv2 == 4 * conv1
    report(3, "cost identities (2/3 apps, param ratios, k^2 MAC scaling; exact)", started)


def _gradcheck_graph(graph, params, x, labels):
    out, tape = forward(graph, params, x, "train")
    _, dlogits = softmax_cross_entropy(out.data, labels)
    analytic = backward(tape, dlogits)

    def loss_fn(p):
        y, _ = forward(graph, p, x, "train")
        return softmax_cross_entropy(y.data, labels)[0]

    numeric = finite_diff_grad(loss_fn, params, h=1e-6)
    worst = 0.0
    for key, name, a in analytic.flat_items():
        f = numeric.get(key, name)
        # Scale floored at 1e-4: h=1e-6 central differences carry ~1e-10
        # absolute noise, so smaller tensors are below the oracle's own
        # resolution (e.g. biases absorbed by a downstream normalization).
        scale = max(np.abs(a).max(), np.abs(f).max(), 1e-4)
        worst = max(worst, float(np.abs(a - f).max() / scale))
    return worst


def _primitive_chain_graph():
    """One graph that routes through every primitive kind."""
    nodes = []

    def add(op, inputs, key=None):
        nodes.append(GraphNode(len(nodes), op, tuple(inputs), param_key=key, label=op.name))
        return len(nodes) - 1

    x = add(InputOp(), [])
    c = add(Conv2D(3, 2, 4), [x], "conv3")
    c = add(ChannelNorm(4), [c], "norm")
    c = add(ReLU(), [c])
    c1 = add(Conv2D(1, 4, 4), [c], "conv1")
    c2 = add(GatedSum(0.3), [c1, c])
    c = add(ReLU(), [c, c2])
    g = add(GatedSum(), [c, c1])
    d = add(StridedConvDownsample(4, 4), [g], "down")
    p = add(GlobalAvgPool(), [d])
    f = add(Flatten(), [p])
    add(Dense(4, 3), [f], "fc")
    return ComputationGraph(nodes, (2, 8, 8))


def _jittered_params(bindings, rng):
    """An f64 store of each ``(key, op)``'s tensors: drawn in turn as
    lowering draws them, each op's then jittered by up to 0.2."""
    specs = [(key, op.param_specs()) for key, op in bindings]
    params = ParamStore.allocate(
        (key, spec.name, spec.shape, np.float64) for key, own in specs for spec in own
    )
    for key, own in specs:
        values = [(params.get(key, spec.name), spec) for spec in own]
        init_tensors(values, rng)
        for value, _ in values:
            value += rng.uniform(-0.2, 0.2, size=value.shape)
    return params


def test_04_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)

    # Every primitive in one chain.
    graph = _primitive_chain_graph()
    params = _jittered_params([(n.param_key, n.op) for n in graph.nodes if n.param_key], rng)
    x = rng.standard_normal((3, 2, 8, 8))
    labels = rng.integers(0, 3, 3)
    worst = _gradcheck_graph(graph, params, x, labels)
    assert worst <= 1e-5, f"primitive chain gradcheck {worst}"

    # Every module kind with k <= 3, both block families.
    kinds = ["ir"] + [f"{fam}-{k}" if fam != "way" else f"{k}-way"
                      for fam in ("poly", "mpoly", "way") for k in (2, 3)]
    for arch in (DenseBlock(4, 8), ConvBlock(4, 2)):
        for token in kinds:
            config = parse_network(f"A: {token}", input_size=8, classes=3, base_width=4)
            model = lower(config, arch, beta=0.3, seed=1, precision="f64", input_channels=1)
            for _, _, value in model.params.flat_items(trainable_only=True):
                value += rng.uniform(-0.1, 0.1, size=value.shape)
            xb = rng.standard_normal((2, 1, 8, 8))
            lb = rng.integers(0, 3, 2)
            worst = _gradcheck_graph(model.graph, model.params, xb, lb)
            assert worst <= 1e-5, f"{arch.tag} {token} gradcheck {worst}"

    # Shared-parameter accumulation: with a loss linear in the gated paths,
    # the shared block's gradient decomposes exactly into per-occurrence
    # contributions, each matching finite differences.
    nodes = []

    def add(op, inputs, key=None):
        nodes.append(GraphNode(len(nodes), op, tuple(inputs), param_key=key, label=op.name))
        return len(nodes) - 1

    xn = add(InputOp(), [])
    f1 = add(Dense(5, 5), [xn], "F")
    f2 = add(Dense(5, 5), [f1], "F")
    add(GatedSum(), [f1, f2])
    graph2 = ComputationGraph(nodes, (5,))
    params2 = _jittered_params([("F", Dense(5, 5))], rng)
    x2 = rng.standard_normal((4, 5))
    c = rng.standard_normal((4, 5))

    def grad_at(gates):
        _, tape = forward(graph2, params2, x2, "train", gates={3: gates})
        return backward(tape, c)

    def fd_at(gates):
        def loss(p):
            y, _ = forward(graph2, p, x2, "train", gates={3: gates})
            return float((y.data * c).sum())

        return finite_diff_grad(loss, params2, h=1e-6)

    both, only1, only2 = grad_at((1, 1)), grad_at((1, 0)), grad_at((0, 1))
    for name in ("w", "b"):
        combined = only1.get("F", name) + only2.get("F", name)
        assert np.allclose(both.get("F", name), combined, atol=1e-12)
        fd = fd_at((1, 1)).get("F", name)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(both.get("F", name) - fd).max() / scale <= 1e-5
    report(4, "backward vs central differences <= 1e-5 (all primitives, k<=3, sharing)", started, 60.0)


def test_05_stochastic_paths():
    started = time.perf_counter()
    # The two reference drop transformations, exactly.
    mpoly3 = expand_module(ModuleKind.mpoly(3))
    assert format_expr(drop_paths(mpoly3, (0, 1, 0))) == "I + GF"
    kway3 = expand_module(ModuleKind.kway(3))
    assert format_expr(drop_paths(kway3, (0, 1, 1))) == "I + G + H"

    # Linear probability ramp.
    assert gate_probabilities(5, 0.25) == [0.0, 0.0625, 0.125, 0.1875, 0.25]

    # Monte Carlo expectation identity over 1e5 gate draws: the mean gated
    # module pre-activation equals x + beta * sum((1-p) * path_i(x)).
    beta = 0.3
    model = lower(
        parse_network("A: 3-way", input_size=8, classes=3, base_width=4),
        DenseBlock(4, 8), beta=beta, seed=3, precision="f64", input_channels=1,
    )
    # A batch of 4: train-mode norm maps a batch of 1 to zeros, which
    # would make every path and the module input 0.
    x = np.random.default_rng(5).standard_normal((4, 1, 8, 8))
    site = model.modules[0]
    values = {}
    for node in model.graph.nodes:
        if isinstance(node.op, InputOp):
            values[node.idx] = x
            continue
        ins = [values[i] for i in node.inputs]
        group = model.params.group(node.param_key) if node.param_key else None
        out, _ = node.op.forward(ins, group, "train")
        values[node.idx] = out
    paths = np.stack([values[i] for i in model.graph.nodes[site.gate_node].inputs])
    (out_node,) = (n for n in model.graph.nodes if site.gate_node in n.inputs)
    x_mod = values[out_node.inputs[0]]
    assert paths.any() and x_mod.any()
    want = np.maximum(x_mod + beta * paths.sum(axis=0), 0)  # every gate at 1
    assert np.allclose(values[out_node.idx], want, rtol=0, atol=1e-12)

    p = 0.25
    n_draws = 100_000
    rng = np.random.default_rng(11)
    acc = np.zeros_like(x_mod)
    for _ in range(n_draws):
        bits = np.array(sample_gates(model, [p], rng)[0], dtype=np.float64)
        acc += x_mod + beta * np.tensordot(bits, paths, axes=1)
    mc_mean = acc / n_draws
    analytic = x_mod + beta * (1.0 - p) * paths.sum(axis=0)
    sigma = beta * np.sqrt(p * (1.0 - p) * (paths**2).sum(axis=0) / n_draws)
    assert np.all(np.abs(mc_mean - analytic) <= 3.0 * sigma + 1e-12)
    report(5, "stochastic paths (drop rewrites exact, ramp exact, MC within 3 sigma)", started, 30.0)


def test_06_schedule_fidelity():
    started = time.perf_counter()
    hp = OptimizerHP.paper_schedule()
    assert lr_at(0, hp) == 0.45
    assert lr_at(160_000, hp) == 0.45 * 0.1
    assert lr_at(320_000, hp) == 0.45 * 0.1**2
    assert lr_at(480_000, hp) == 0.45 * 0.1**3
    distinct = {lr_at(it, hp) for it in range(0, 560_000, 100)}
    assert len(distinct) == 4  # base rate plus exactly three decays
    report(6, "learning-rate schedule 0.45 -> 0.045 -> 0.0045 -> 0.00045 (exact)", started)


def test_07_surgery():
    started = time.perf_counter()
    src = lower(
        parse_network("A: ir -> ir; B: ir", input_size=8, classes=3, base_width=4),
        DenseBlock(4, 8), beta=0.3, seed=5, precision="f64", input_channels=1,
    )
    x = np.random.default_rng(2).standard_normal((6, 1, 8, 8))

    # Upgrade to non-shared targets with zero_last: bitwise retention plus
    # function preservation within 1e-9.
    target = parse_network("A: mpoly-2 -> 2-way; B: mpoly-3", input_size=8, classes=3, base_width=4)
    up = upgrade(src, target, zero_last=True, seed=6)
    for site in src.modules:
        for key in site.block_keys:
            for name, value in src.params.group(key).items():
                assert np.array_equal(up.params.group(key)[name], value)
    assert np.abs(src.logits(x) - up.logits(x)).max() < 1e-9

    # Interleaved deepening: originals bitwise, function preserved.
    deep = deepen_interleave(src, [2, 1], zero_last=True, seed=7)
    assert len(deep.modules) == 6
    assert np.array_equal(deep.params.get("A.0.F", "w1"), src.params.get("A.0.F", "w1"))
    assert np.array_equal(deep.params.get("A.2.F", "w1"), src.params.get("A.1.F", "w1"))
    assert np.abs(src.logits(x) - deep.logits(x)).max() < 1e-9
    report(7, "surgery retains params bitwise; zero_last preserves outputs < 1e-9", started, 10.0)


def test_08_augmentation_constraints():
    started = time.perf_counter()
    cfg = AugmentConfig()  # the reference constraints
    rng = np.random.default_rng(7)
    area = 32 * 32
    for _ in range(10_000):
        _, _, ch, cw = sample_crop_box(32, 32, cfg, rng)
        fraction = ch * cw / area
        aspect = cw / ch
        assert 0.08 <= fraction <= 1.0
        assert 3 / 4 <= aspect <= 4 / 3

    img = np.random.default_rng(3).standard_normal((3, 32, 32))
    identity_cfg = AugmentConfig(
        area_min=1.0, area_max=1.0, aspect_min=1.0, aspect_max=1.0,
        out_size=32, flip_prob=0.0,
    )
    assert np.array_equal(augment(img, identity_cfg, np.random.default_rng(0)), img)
    report(8, "augmentation constraints hold over 1e4 draws; degenerate identity", started, 10.0)


def test_09_pooling():
    started = time.perf_counter()
    assert topk_pool(np.array([[0.9], [0.5], [0.8], [0.1]]), 0.5)[0] == pytest.approx(0.85)
    assert max(1, math.ceil(0.3 * 36)) == 11
    scores = np.random.default_rng(0).random((36, 5))
    assert np.allclose(topk_pool(scores, 1.0), scores.mean(axis=0))

    dataset = synth_dataset(40, 4, 16, seed=3)
    model = lower(
        parse_network("A: ir", input_size=16, classes=4, base_width=4),
        ConvBlock(4, 2), beta=0.3, seed=0, precision="f32",
    )
    collapse = multicrop_eval(
        model, dataset, PoolingConfig(scales=(1.0,), crops_per_scale=1, top_fraction=1.0)
    )
    top1, top5 = single_crop_eval(model, dataset)
    assert collapse.top1 == top1 and collapse.top5 == top5
    report(9, "top-fraction pooling (0.85 hand value, k=11, mean at 1.0, collapse)", started)


def test_10_training_smoke_and_ordering():
    started = time.perf_counter()
    dataset = synth_dataset(512, 4, 32, seed=0)
    hp = OptimizerHP.desk(2000)

    def run(network, seed):
        config = parse_network(network, classes=4)
        model = lower(config, DenseBlock(16, 32), beta=0.3, seed=seed, precision="f32")
        model, history = train(model, dataset, hp, eval_every=1000, seed=seed)
        xtr, ytr = dataset.subset(dataset.train_indices)
        train_top1 = topk_error(model.logits(xtr.astype(np.float32)), ytr, 1)
        return train_top1, history.records[-1].top1

    # Smoke: the baseline reaches <= 5% train top-1 inside the budget.
    smoke_train_err, baseline_val_0 = run("IR 1-2-1", seed=0)
    assert smoke_train_err <= 0.05, f"train error {smoke_train_err}"

    # Ordering echo: the poly-2 variant is non-inferior on validation error
    # (within 2 percentage points) averaged over 3 seeds.
    baseline_vals = [baseline_val_0]
    poly_vals = []
    for seed in (0, 1, 2):
        if seed != 0:
            baseline_vals.append(run("IR 1-2-1", seed)[1])
        poly_vals.append(run("A: poly-2; B: (poly-2) x 2; C: poly-2", seed)[1])
    assert np.mean(poly_vals) <= np.mean(baseline_vals) + 0.02, (
        baseline_vals, poly_vals,
    )
    report(10, "training smoke <= 5% train error; poly-2 non-inferior within 2pp", started, 600.0)


def test_11_dsl():
    started = time.perf_counter()
    for name in PRESET_NAMES:
        config = preset(name)
        assert parse_network(render_network(config)) == config

    from test_dsl import CORPUS

    assert len(CORPUS) == 50
    for text in CORPUS:
        parsed = parse_network(text)
        assert parse_network(render_network(parsed)) == parsed

    config = parse_network("(3-way -> mpoly-3 -> poly-3) x 4".join(["B: ", ""]))
    tokens = [m.token for m in config.stages[0].modules]
    assert tokens == ["3-way", "mpoly-3", "poly-3"] * 4
    report(11, "DSL presets, 50-case render fixpoint, mixed-group order (exact)", started)
