"""Lowering, parameter sharing, model surgery, checkpoints."""

import gc
import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from polyres import builder
from polyres.algebra import ModuleKind, block_applications, expand_module, module_monomials
from polyres.builder import (
    ConvBlock,
    DenseBlock,
    deepen_interleave,
    load_checkpoint,
    lower,
    parse_arch,
    save_checkpoint,
    upgrade,
)
from polyres import engine
from polyres.dsl import PRESET_NAMES, parse_network, preset
from polyres.engine import (
    DTYPES,
    Dense,
    EngineError,
    GatedSum,
    InputOp,
    ReLU,
    backward,
    forward,
    read_tensor,
    softmax_cross_entropy,
    tensor_parts,
)

DENSE = DenseBlock(4, 8)
CONV = ConvBlock(4, 2)
KINDS = ("ir", "poly-2", "poly-3", "mpoly-2", "mpoly-3", "2-way", "3-way")
LAST_LAYER = {DENSE: ("w2", "b2"), CONV: ("w3", "b3")}
ARCHS_AND_MEMOIZE = [(DENSE, True), (DENSE, False), (CONV, True), (CONV, False)]


def tiny(text, arch=DENSE, beta=0.3, seed=0, **kw):
    config = parse_network(text, input_size=8, classes=3, base_width=4)
    kw.setdefault("precision", "f64")
    kw.setdefault("input_channels", 1)
    return lower(config, arch, beta=beta, seed=seed, **kw)


def batch(n=4, seed=0, size=8, channels=1):
    return np.random.default_rng(seed).standard_normal((n, channels, size, size))


class TestLowering:
    def test_baseline_preset_has_twelve_modules(self):
        config = preset("ir-3-6-3")
        model = lower(config, DenseBlock(16, 32))
        assert len(model.modules) == 12

    def test_dense_block_parameter_count(self):
        model = tiny("A: ir")
        group = model.params.group("A.0.F")
        assert sum(v.size for v in group.values()) == 4 * 8 + 8 + 8 * 4 + 4  # 76

    def test_poly2_graph_evaluates_the_block_twice(self):
        model = tiny("A: poly-2")
        assert model.modules[0].block_apps == 2
        dense_nodes = [
            n for n in model.graph.nodes
            if isinstance(n.op, Dense) and n.param_key == "A.0.F"
        ]
        assert len(dense_nodes) == 4  # two layers per application

    def test_memoization_counts(self):
        tokens = ["ir"] + [f"{f}-{k}" for f in ("poly", "mpoly") for k in range(1, 5)]
        for token in tokens + [f"{k}-way" for k in range(1, 5)]:
            kind = ModuleKind.from_token(token)
            k = kind.order
            memoized = tiny(f"A: {token}")
            naive = tiny(f"A: {token}", memoize=False)
            assert memoized.modules[0].block_apps == k, token
            expected_naive = k if kind.family == "way" else k * (k + 1) // 2
            assert naive.modules[0].block_apps == expected_naive, token
            expr = expand_module(kind)
            assert naive.modules[0].block_apps == block_applications(expr), token
            assert memoized.modules[0].block_apps == block_applications(expr, memoize=True), token

    def test_naive_and_cascaded_graphs_share_parameters(self):
        a = tiny("A: mpoly-2", seed=3)
        b = tiny("A: mpoly-2", seed=3, memoize=False)
        assert a.params.equal(b.params)

    @pytest.mark.parametrize("arch", [DENSE, CONV], ids=["dense", "conv"])
    @pytest.mark.parametrize("kind", ["poly-2", "poly-3", "mpoly-2", "mpoly-3", "3-way"])
    def test_naive_vs_cascaded_forward_equivalence(self, arch, kind):
        memoized = tiny(f"A: {kind}", arch=arch, seed=5)
        naive = tiny(f"A: {kind}", arch=arch, seed=5, memoize=False)
        x = batch(6, seed=11)
        ym = memoized.logits(x)
        yn = naive.logits(x)
        rel = np.abs(ym - yn).max() / max(np.abs(yn).max(), 1e-12)
        assert rel < 1e-9

    def test_shared_parameters_affect_both_occurrences(self):
        model = tiny("A: poly-2", seed=2)
        x = batch(3, seed=4)
        base = model.logits(x)
        # Perturb the shared block: both the first- and second-order path
        # must respond; removing the second path shows its contribution.
        model.params.get("A.0.F", "w1")[:] += 0.05
        moved = model.logits(x)
        assert np.abs(moved - base).max() > 1e-6
        site = model.modules[0]
        one_path, _ = model.forward(x, mode="train", gates={site.gate_node: (1.0, 0.0)})
        both, _ = model.forward(x, mode="train", gates={site.gate_node: (1.0, 1.0)})
        assert np.abs(one_path.data - both.data).max() > 1e-9

    def test_residual_zero_path_reduces_to_relu_of_input(self):
        # Zeroing the block's output layer makes every module a pass-through
        # of its (already non-negative) input.
        model = tiny("A: ir", beta=0.3)
        for name in ("w2", "b2"):
            model.params.get("A.0.F", name)[:] = 0.0
        x = batch(2, seed=7)
        with_block = model.logits(x)
        # Rebuild without the module: stem + head only, same parameters.
        stemless = tiny("A: ir", beta=0.3)
        for key in ("stem.fc", "stem.norm", "head.fc"):
            for name, value in model.params.group(key).items():
                stemless.params.group(key)[name][...] = value
        for name in ("w2", "b2"):
            stemless.params.get("A.0.F", name)[:] = 0.0
        assert np.array_equal(with_block, stemless.logits(x))

    def test_scaled_residual_arithmetic(self):
        # A module whose residual branch emits all ones adds exactly beta.
        model = tiny("A: ir", beta=0.3)
        for name in ("w1", "w2", "b1"):
            model.params.get("A.0.F", name)[:] = 0.0
        model.params.get("A.0.F", "b2")[:] = 1.0
        x = batch(2, seed=8)
        site = model.modules[0]
        (out_node,) = (n for n in model.graph.nodes if site.gate_node in n.inputs)
        values = {}
        for node in model.graph.nodes[: out_node.idx + 1]:
            if isinstance(node.op, InputOp):
                values[node.idx] = x
                continue
            ins = [values[i] for i in node.inputs]
            group = model.params.group(node.param_key) if node.param_key else None
            out, _ = node.op.forward(ins, group, "eval")
            values[node.idx] = out
        stem_relu = model.graph.nodes[out_node.inputs[0]]
        assert stem_relu.segment == "stem" and isinstance(stem_relu.op, ReLU)
        module_input = values[stem_relu.idx]
        assert np.allclose(values[out_node.idx], module_input + 0.3)

    def test_beta_one_emits_no_scale_node(self):
        # Every module output is two nodes whatever beta; at beta = 1 the
        # gated sum does not scale.
        plain, scaled = tiny("A: ir -> 2-way", beta=1.0), tiny("A: ir -> 2-way", beta=0.3)
        assert len(plain.graph.nodes) == len(scaled.graph.nodes)
        betas = [n.op.beta for n in plain.graph.nodes if isinstance(n.op, GatedSum)]
        assert betas == [1.0, 1.0]

    @pytest.mark.parametrize("arch", [DENSE, CONV], ids=["dense", "conv"])
    def test_each_module_output_is_a_gated_sum_then_a_residual_relu(self, arch):
        model = tiny("A: " + " -> ".join(KINDS), arch=arch, beta=0.3)
        for site in model.modules:
            gated = model.graph.nodes[site.gate_node]
            readers = [n for n in model.graph.nodes if site.gate_node in n.inputs]
            assert isinstance(gated.op, GatedSum) and gated.op.beta == 0.3
            assert len(gated.inputs) == site.n_paths
            assert len(readers) == 1 and isinstance(readers[0].op, ReLU)
            x, branch = readers[0].inputs
            assert branch == site.gate_node
            # x feeds the module's first block applications too
            assert any(x in model.graph.nodes[i].inputs for i in range(x + 1, site.gate_node))

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            tiny("A: ir", beta=0.0)
        with pytest.raises(ValueError):
            tiny("A: ir", beta=1.0001)

    def test_gradients_accumulate_across_shared_occurrences(self):
        model = tiny("A: poly-2", seed=9)
        x = batch(4, seed=10)
        labels = np.array([0, 1, 2, 0])
        out, tape = forward(model.graph, model.params, x, "train")
        _, dlogits = softmax_cross_entropy(out.data, labels)
        full = backward(tape, dlogits)
        site = model.modules[0]
        partials = []
        for gates in ((1.0, 0.0), (0.0, 1.0)):
            _, tape_g = forward(
                model.graph, model.params, x, "train", gates={site.gate_node: gates}
            )
            partials.append(backward(tape_g, dlogits))
        # Path-gated losses differ, so the gradients cannot literally add up;
        # instead check the structural fact: the shared block receives
        # nonzero gradient from each occurrence alone.
        for p in partials:
            assert np.abs(p.get("A.0.F", "w1")).max() > 0
        assert np.abs(full.get("A.0.F", "w1")).max() > 0

    def test_arch_parsing_round_trip(self):
        assert parse_arch("dense:4,8") == DenseBlock(4, 8)
        assert parse_arch("conv:16,4") == ConvBlock(16, 4)
        assert parse_arch(DenseBlock(3, 7).descriptor) == DenseBlock(3, 7)
        with pytest.raises(ValueError):
            parse_arch("tree:1,2")
        with pytest.raises(ValueError):
            parse_arch("dense:1")


def reference_emit_module(gb, arch, x, width, stage, idx_in_stage, kind, beta, memoize):
    """Frozen copy of the original per-module emission, in which every module
    is built from scratch: same nodes, sites and spec order."""
    segment = f"{stage}.{idx_in_stage}"
    monomials = module_monomials(kind)
    letters = []
    for mono in monomials:
        for b in mono:
            if b.share_key not in letters:
                letters.append(b.share_key)
    keys = {c: f"{segment}.{c}" for c in letters}

    block_apps = 0
    memo = {(): x}
    path_nodes = []
    for mono in monomials:
        seq = tuple(b.share_key for b in reversed(mono))  # application order
        if memoize:
            for n in range(1, len(seq) + 1):
                prefix = seq[:n]
                if prefix not in memo:
                    memo[prefix] = arch.emit(
                        gb, memo[seq[: n - 1]], width, keys[seq[n - 1]], segment
                    )
                    block_apps += 1
            path_nodes.append(memo[seq])
        else:
            node = x
            for c in seq:
                node = arch.emit(gb, node, width, keys[c], segment)
                block_apps += 1
            path_nodes.append(node)

    gate_node = gb.add(GatedSum(beta), path_nodes, segment=segment, label=f"{segment}/paths")
    out = gb.add(ReLU(), [x, gate_node], segment=segment)
    gb.modules.append(
        builder.ModuleSite(
            stage=stage,
            index_in_stage=idx_in_stage,
            kind=kind,
            gate_node=gate_node,
            n_paths=len(monomials),
            block_keys=tuple(keys[c] for c in letters),
            block_apps=block_apps,
            segment=segment,
        )
    )
    return out


def emission(model, specs):
    """Every node (index, op class and attributes, inputs, key, label,
    segment), every module site and every spec in binding order."""
    nodes = [
        (n.idx, type(n.op), vars(n.op), n.inputs, n.param_key, n.label, n.segment)
        for n in model.graph.nodes
    ]
    return nodes, model.modules, list(specs.items())


class TestStamping:
    """Lowering stamps every module from one template per kind and width;
    the graph is the one that emitting every module from scratch builds."""

    @staticmethod
    def config(name):
        if name in PRESET_NAMES:
            return preset(name, classes=3, input_size=8, base_width=4)
        # Stages of one width, as a checkpoint's widths may make them, share
        # templates across stages.
        config = parse_network(name, classes=3, input_size=8, base_width=4)
        return replace(config, stages=tuple(replace(s, width=4) for s in config.stages))

    @pytest.mark.parametrize("memoize", [True, False], ids=["memo", "naive"])
    @pytest.mark.parametrize("arch", [DENSE, CONV], ids=["dense", "conv"])
    @pytest.mark.parametrize("name", PRESET_NAMES + ("A: (poly-2) x 2; B: poly-2 -> mpoly-3",))
    def test_stamped_graph_equals_the_emitted_one(self, name, arch, memoize, monkeypatch):
        config = self.config(name)
        args = (config, arch, 0.3, 5, "f32", memoize, 1)
        stamped = builder._allocate(*args)
        widths = {s.name: s.width for s in config.stages}

        def emit(gb, template, x, stage, j):
            kind = template.modules[0].kind
            return reference_emit_module(gb, arch, x, widths[stage], stage, j, kind, 0.3, memoize)

        with monkeypatch.context() as m:
            # Every module is emitted from scratch, by the copy, where it is stamped.
            m.setattr(builder._GraphBuilder, "stamp", emit)
            emitted = builder._allocate(*args)
        assert emission(*stamped) == emission(*emitted)
        ops = [id(n.op) for n in stamped[0].graph.nodes]
        assert len(set(ops)) == len(ops), "two nodes share an op"

    def test_repeated_modules_are_stamped(self, monkeypatch):
        templates, stamps = [], []
        make, stamp = builder._module_template, builder._GraphBuilder.stamp
        monkeypatch.setattr(
            builder, "_module_template", lambda *a: templates.append(a[1:3]) or make(*a)
        )
        monkeypatch.setattr(
            builder._GraphBuilder, "stamp",
            lambda gb, t, x, stage, j: stamps.append((stage, j)) or stamp(gb, t, x, stage, j),
        )
        lower(preset("very-deep-polynet", classes=3, input_size=8, base_width=4), CONV)
        # Five distinct (kind, width) pairs among forty modules.
        assert len(templates) == len(set(templates)) == 5 and len(stamps) == 40

    def test_no_template_outlives_lowering_or_loading(self, tmp_path):
        model = tiny("A: (poly-2) x 3; B: (2-way) x 2", arch=CONV)
        save_checkpoint(model, tmp_path / "m.ckpt")
        load_checkpoint(tmp_path / "m.ckpt")
        gc.collect()
        assert not any(isinstance(o, builder._GraphBuilder) for o in gc.get_objects())


def _he(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def _reference_block(arch, width, rng, dtype):
    """Reference block init: He fan-in weights and zero biases, layer by layer."""
    if isinstance(arch, DenseBlock):
        h = arch.hidden_at(width)
        return {"w1": _he(rng, (width, h), width, dtype), "b1": np.zeros(h, dtype),
                "w2": _he(rng, (h, width), h, dtype), "b2": np.zeros(width, dtype)}
    m = arch.mid_at(width)
    return {"w1": _he(rng, (m, width, 1, 1), width, dtype), "b1": np.zeros(m, dtype),
            "w2": _he(rng, (m, m, 3, 3), 9 * m, dtype), "b2": np.zeros(m, dtype),
            "w3": _he(rng, (width, m, 1, 1), m, dtype), "b3": np.zeros(width, dtype)}


def _reference_params(config, arch, seed, precision, channels):
    """Frozen reference for lowering's parameter init: stem, then each module
    drawing all its letters' blocks up front (letters in first-use order over
    the monomials), transitions after each stage, then the head."""
    dtype = DTYPES[precision]
    rng = np.random.default_rng(seed)
    conv = isinstance(arch, ConvBlock)

    def affine(shape, fan_in, c_out):
        return {"w": _he(rng, shape, fan_in, dtype), "b": np.zeros(c_out, dtype)}

    def norm(c):
        fills = {"gamma": 1, "beta": 0, "running_mean": 0, "running_var": 1}
        return {name: np.full(c, fill, dtype) for name, fill in fills.items()}

    out, stages = {}, config.stages
    w0, size = stages[0].width, config.input_size
    if conv:
        out["stem.conv"] = affine((w0, channels, 3, 3), 9 * channels, w0)
        out["stem.norm"] = norm(w0)
        out["stem.down"] = affine((w0, w0, 3, 3), 9 * w0, w0)
    else:
        n_in = channels * size * size
        out["stem.fc"] = affine((n_in, w0), n_in, w0)
        out["stem.norm"] = norm(w0)
    for i, stage in enumerate(stages):
        for j, kind in enumerate(stage.modules):
            letters = dict.fromkeys(b.share_key for mono in module_monomials(kind) for b in mono)
            for c in letters:
                out[f"{stage.name}.{j}.{c}"] = _reference_block(arch, stage.width, rng, dtype)
        if i + 1 < len(stages):
            w, nw = stage.width, stages[i + 1].width
            key = f"trans.{stage.name}-{stages[i + 1].name}"
            if conv:
                out[f"{key}.conv"] = affine((nw, w, 3, 3), 9 * w, nw)
            else:
                out[f"{key}.fc"] = affine((w, nw), w, nw)
            out[f"{key}.norm"] = norm(nw)
    last = stages[-1].width
    out["head.fc"] = affine((last, config.classes), last, config.classes)
    return [(k, n, v) for k, group in out.items() for n, v in group.items()]


class TestParameterInit:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("arch", [DENSE, CONV], ids=["dense", "conv"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_lowering_matches_the_eager_reference_bitwise(self, kind, arch, memoize, precision):
        config = parse_network(
            f"A: {kind} -> ir -> {kind}; B: {kind}", input_size=8, classes=3, base_width=4
        )
        model = lower(config, arch, beta=0.3, seed=11, precision=precision,
                      memoize=memoize, input_channels=2)
        got = list(model.params.flat_items())
        want = _reference_params(config, arch, 11, precision, 2)
        assert [(k, n) for k, n, _ in got] == [(k, n) for k, n, _ in want]
        for (key, name, a), (_, _, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, f"{key}/{name}"
            assert a.tobytes() == b.tobytes(), f"{key}/{name}"


def params_digest(models) -> str:
    """sha256 over key, name, dtype, shape and bytes of every tensor."""
    h = hashlib.sha256()
    for model in models:
        for key, name, value in model.params.flat_items():
            h.update(f"{key}/{name}:{value.dtype.str}:{value.shape};".encode())
            h.update(value.tobytes())
    return h.hexdigest()


# Digests of the parameters that lowering and surgery produced before
# lowering drew its He weights in blocks; a change to the draw order or count
# changes them.
PINNED_PRESET_DIGESTS = {
    "ir-3-6-3": "ceb7b7652eada26fcf1c1101ba2dde8caa4381d6b0ec01fa3f606ed086f15df4",
    "ir-6-12-6": "358678a15a465a7c074c78eb976afcf6a4040eee41c1cf4bcb0dee03866418e0",
    "ir-5-10-5": "14d55424c94bb0474b0094f4b6788cc3bb6869d7a0f0f9f24c89a39b5f241838",
    "ir-20-56-20": "c1284c31244c753e26261d4c946242c8a8e04f9965e67b3deddf67a4f2f875b6",
    "mixed-b-6-12-6": "c6918f2d21d50db3f313219255a61e2f82086bbcbca35ee94216665222ac444e",
    "very-deep-polynet": "d3db1f08318b4006c69f328d8fc2e89ad8652577e3eae54da4e9eacd9fc413bd",
}
PINNED_SURGERY_DIGEST = "983e06a8cc1ea7c66a19aa281bc56c160fae7de9409467689476bfbe5f55fe38"


class TestPinnedInit:
    @pytest.mark.parametrize("draw_block", [None, 97], ids=["default_block", "block_97"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_lowered_presets_hash_to_the_pinned_digest(self, name, draw_block, monkeypatch):
        # A 97-scalar block splits the draws inside and across tensors'
        # boundaries; the values must not depend on where blocks end.
        if draw_block is not None:
            monkeypatch.setattr(engine, "_DRAW_BLOCK", draw_block)
        config = preset(name, classes=3, input_size=8, base_width=4)
        models = [
            lower(config, arch, beta=0.3, seed=5, precision=precision,
                  memoize=memoize, input_channels=1)
            for arch in (DENSE, CONV)
            for precision in ("f32", "f64")
            for memoize in (True, False)
        ]
        assert params_digest(models) == PINNED_PRESET_DIGESTS[name]

    def test_surgery_hashes_to_the_pinned_digest(self):
        source = parse_network("A: ir -> 2-way; B: ir", classes=3, input_size=8, base_width=4)
        target = parse_network(
            "A: 3-way -> mpoly-3; B: 2-way", classes=3, input_size=8, base_width=4
        )
        models = []
        for arch in (DENSE, CONV):
            for precision in ("f32", "f64"):
                src = lower(source, arch, beta=0.3, seed=5, precision=precision, input_channels=1)
                for zero_last in (False, True):
                    models.append(upgrade(src, target, zero_last=zero_last, seed=6))
                    models.append(deepen_interleave(src, [3, 1], zero_last=zero_last, seed=7))
        assert params_digest(models) == PINNED_SURGERY_DIGEST


@pytest.mark.parametrize("arch", [DENSE, CONV], ids=["dense", "conv"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_each_group_holds_exactly_what_its_nodes_declare(name, arch):
    # Ops own their tensor names: the specs of the nodes bound to a key,
    # taken together, are the group, each name at one shape.
    config = preset(name, classes=3, input_size=8, base_width=4)
    model = lower(config, arch, beta=0.3, seed=5, input_channels=1)
    declared = {}
    for node in model.graph.nodes:
        if node.param_key is not None:
            specs = {(spec.name, spec.shape) for spec in node.op.param_specs()}
            declared.setdefault(node.param_key, set()).update(specs)
    held = {
        key: {(name, value.shape) for name, value in model.params.group(key).items()}
        for key in model.params.keys()
    }
    assert declared == held


def assert_only_last_layers_zeroed(zeroed, plain, new_keys, last_layer):
    """``zeroed`` equals ``plain`` except that the last-layer tensors of the
    blocks in ``new_keys`` are zero (and the weights were not zero before)."""
    assert list(zeroed.params.keys()) == list(plain.params.keys())
    hits = 0
    for key, name, value in zeroed.params.flat_items():
        ref = plain.params.get(key, name)
        if key in new_keys and name in last_layer:
            assert not value.any(), f"{key}/{name}"
            assert name.startswith("b") or ref.any(), f"{key}/{name}"
            hits += 1
        else:
            assert np.array_equal(value, ref), f"{key}/{name}"
    assert new_keys and hits == len(new_keys) * len(last_layer)


class TestUpgrade:
    def test_first_order_block_retained_new_block_fresh(self):
        src = tiny("A: ir -> ir", seed=1)
        target = parse_network("A: mpoly-2 -> ir", input_size=8, classes=3, base_width=4)
        up = upgrade(src, target, seed=2)
        assert np.array_equal(
            up.params.get("A.0.F", "w1"), src.params.get("A.0.F", "w1")
        )
        assert "A.0.G" in set(up.params.keys())
        assert "A.0.G" not in set(src.params.keys())

    def test_noop_target_is_bitwise_identical(self):
        src = tiny("A: ir -> poly-2", seed=4)
        up = upgrade(src, src.meta.config, seed=99)
        assert up.params.equal(src.params)

    @pytest.mark.parametrize("kind", ["mpoly-2", "mpoly-3", "2-way", "3-way"])
    def test_zero_last_preserves_the_function(self, kind):
        target = parse_network(
            f"A: {kind} -> {kind}", input_size=8, classes=3, base_width=4
        )
        for arch, memoize in ARCHS_AND_MEMOIZE:
            src = tiny("A: ir -> ir", arch=arch, seed=5, memoize=memoize)
            up = upgrade(src, target, zero_last=True, seed=6)
            x = batch(5, seed=12)
            assert np.abs(src.logits(x) - up.logits(x)).max() < 1e-9
            # Biases start at zero, so zeroing a block's first layer would
            # also keep the function; only the new last layers may change.
            plain = upgrade(src, target, zero_last=False, seed=6)
            new_keys = {k for m in up.modules for k in m.block_keys} - set(src.params.keys())
            assert_only_last_layers_zeroed(up, plain, new_keys, LAST_LAYER[arch])

    def test_zero_last_rejected_for_poly_targets(self):
        src = tiny("A: ir", seed=5)
        target = parse_network("A: poly-2", input_size=8, classes=3, base_width=4)
        with pytest.raises(ValueError):
            upgrade(src, target, zero_last=True)
        upgrade(src, target, zero_last=False)  # fine without zero_last

    def test_poly_upgrade_copies_the_shared_block(self):
        src = tiny("A: ir", seed=7)
        target = parse_network("A: poly-3", input_size=8, classes=3, base_width=4)
        up = upgrade(src, target, seed=8)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(
                up.params.get("A.0.F", name), src.params.get("A.0.F", name)
            )

    def test_structural_mismatch_rejected(self):
        src = tiny("A: ir -> ir", seed=1)
        for bad in ("A: ir", "A: ir -> ir -> ir", "A: ir; B: ir"):
            target = parse_network(bad, input_size=8, classes=3, base_width=4)
            with pytest.raises(ValueError):
                upgrade(src, target)

    def test_non_block_parameters_survive(self):
        src = tiny("A: ir", seed=3)
        target = parse_network("A: 2-way", input_size=8, classes=3, base_width=4)
        up = upgrade(src, target, seed=4)
        for key in ("stem.fc", "stem.norm", "head.fc"):
            for name, value in src.params.group(key).items():
                assert np.array_equal(up.params.group(key)[name], value)


class TestDeepenInterleave:
    def test_three_plus_three_alternates(self):
        src = tiny("A: ir -> ir -> ir", seed=1)
        deep = deepen_interleave(src, [3], seed=2)
        assert len(deep.modules) == 6
        # Originals land at even positions: old,new,old,new,old,new.
        for old_idx, new_idx in ((0, 0), (1, 2), (2, 4)):
            assert np.array_equal(
                deep.params.get(f"A.{new_idx}.F", "w1"),
                src.params.get(f"A.{old_idx}.F", "w1"),
            )

    def test_zero_insertions_keep_the_model(self):
        src = tiny("A: ir -> ir; B: poly-2", seed=3)
        deep = deepen_interleave(src, [0, 0], seed=9)
        assert deep.params.equal(src.params)

    def test_more_new_than_gaps_round_robins(self):
        src = tiny("A: ir -> ir", seed=4)
        deep = deepen_interleave(src, [5], seed=5)
        assert len(deep.modules) == 7
        # 5 over 2 gaps: first gap 3, second 2.
        assert np.array_equal(
            deep.params.get("A.0.F", "w1"), src.params.get("A.0.F", "w1")
        )
        assert np.array_equal(
            deep.params.get("A.4.F", "w1"), src.params.get("A.1.F", "w1")
        )

    def test_zero_last_preserves_function(self):
        for arch, memoize in ARCHS_AND_MEMOIZE:
            src = tiny("A: ir -> ir; B: 2-way", arch=arch, seed=6, memoize=memoize)
            deep = deepen_interleave(src, [2, 1], zero_last=True, seed=7)
            x = batch(5, seed=13)
            assert np.abs(src.logits(x) - deep.logits(x)).max() < 1e-9
            plain = deepen_interleave(src, [2, 1], zero_last=False, seed=7)
            # One new unit lands after each original in A, one after B.0.
            new_keys = {
                k for m in deep.modules if m.segment in ("A.1", "A.3", "B.1")
                for k in m.block_keys
            }
            assert_only_last_layers_zeroed(deep, plain, new_keys, LAST_LAYER[arch])

    def test_new_units_copy_the_preceding_kind(self):
        src = tiny("A: poly-2 -> 2-way", seed=8)
        deep = deepen_interleave(src, [2], seed=9)
        assert [m.kind.token for m in deep.modules] == [
            "poly-2", "poly-2", "2-way", "2-way"
        ]


def split_checkpoint(buf: bytes) -> tuple[dict, list[bytes]]:
    """The manifest and the bytes of each tensor of a checkpoint file."""
    (blob_len,) = struct.unpack_from("<q", buf, 8)
    offset, chunks = 16 + blob_len, []
    while offset < len(buf):
        _, end = read_tensor(buf, offset)
        chunks.append(buf[offset:end])
        offset = end
    return json.loads(buf[16 : 16 + blob_len]), chunks


def join_checkpoint(manifest, chunks, blob: bytes | None = None) -> bytes:
    blob = json.dumps(manifest).encode("utf-8") if blob is None else blob
    return b"PRESCKPT" + struct.pack("<q", len(blob)) + blob + b"".join(chunks)


class TestCheckpointMutants:
    """Seeded one-byte mutants and truncations of a valid checkpoint: every
    load fails with an EngineError that names the path, or loads a model
    whose tensors are all finite."""

    def test_each_mutant_fails_naming_the_path_or_loads_finite(self, tmp_path):
        model = tiny("A: poly-2 -> 2-way; B: mpoly-2", arch=CONV, precision="f32")
        save_checkpoint(model, tmp_path / "model.ckpt")
        buf = (tmp_path / "model.ckpt").read_bytes()
        (blob_len,) = struct.unpack_from("<q", buf, 8)
        tensors_start = 16 + blob_len
        path = tmp_path / "mutant.ckpt"
        rng = np.random.default_rng(0)
        failed = loaded = 0
        for _ in range(600):
            mutant = bytearray(buf)
            kind = rng.integers(3)
            if kind == 0:  # one manifest byte, printable
                mutant[rng.integers(16, tensors_start)] = rng.integers(32, 127)
            elif kind == 1:
                del mutant[rng.integers(len(buf)):]
            else:  # one byte of the tensor region
                mutant[rng.integers(tensors_start, len(buf))] = rng.integers(256)
            path.write_bytes(mutant)
            try:
                back = load_checkpoint(path)
            except EngineError as e:
                assert str(e).startswith(f"{path}: "), str(e)
                failed += 1
            else:
                assert back.params.first_non_finite() is None
                loaded += 1
        assert failed > 300 and loaded > 50


class TestCheckpoints:
    def test_round_trip_params_and_meta(self, tmp_path):
        model = tiny("A: poly-2 -> 2-way", seed=11, beta=0.3)
        model.meta.iteration = 1234
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.params.equal(model.params)
        assert back.meta.iteration == 1234
        assert back.meta.config_text == model.meta.config_text
        assert back.meta.beta == model.meta.beta
        x = batch(3, seed=14)
        assert np.array_equal(model.logits(x), back.logits(x))

    def test_rejects_non_checkpoint_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(EngineError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [10, 40, -5])
    def test_truncated_checkpoint_names_the_path(self, tmp_path, cut):
        # Cuts inside the manifest length, the manifest, and the last tensor.
        model = tiny("A: poly-2 -> 2-way", seed=11, beta=0.3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(EngineError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        if cut < 0:
            key, name, _ = list(model.params.flat_items())[-1]
            assert f"tensor {key}/{name}" in str(err.value)

    def test_checkpoint_tensor_at_another_precision_is_rejected(self, tmp_path):
        model = tiny("A: poly-2 -> 2-way", seed=11, precision="f32")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        buf = path.read_bytes()
        (blob_len,) = struct.unpack_from("<q", buf, 8)
        parts = [tensor_parts(v.astype(np.float64)) for _, _, v in model.params.flat_items()]
        path.write_bytes(buf[: 16 + blob_len] + b"".join(b"".join(p) for p in parts))
        with pytest.raises(EngineError) as err:
            load_checkpoint(path)
        key, name, _ = next(model.params.flat_items())
        assert str(path) in str(err.value)
        assert f"precision mismatch for {key}/{name}: f64 tensor under an f32 manifest" in str(err.value)

    def test_checkpoint_with_trailing_bytes_is_rejected(self, tmp_path):
        model = tiny("A: poly-2 -> 2-way", seed=11, beta=0.3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(EngineError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert "4 trailing bytes" in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["w", "running_var"])
    def test_a_non_finite_tensor_is_rejected_and_named(self, tmp_path, name, value):
        model = tiny("A: poly-2 -> 2-way", seed=11, beta=0.3)
        key = [k for k, n, _ in model.params.flat_items() if n == name][-1]
        model.params.get(key, name).flat[-1] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(EngineError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: tensor {key}/{name} holds a non-finite value"

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("arch", [DENSE, CONV], ids=["dense", "conv"])
    def test_saved_bytes_are_format_1(self, tmp_path, arch, precision):
        model = tiny("A: poly-2 -> 2-way; B: mpoly-3", arch=arch, seed=11, precision=precision)
        model.meta.iteration = 77
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        manifest = {
            "format": 1,
            "config": model.meta.config_text,
            "input_size": 8,
            "classes": 3,
            "widths": [4, 8],
            "arch": arch.descriptor,
            "beta": 0.3,
            "seed": 11,
            "precision": precision,
            "memoize": True,
            "input_channels": 1,
            "iteration": 77,
            "params": [[key, name] for key, name, _ in model.params.flat_items()],
        }
        # Format 1 spelled out here, independent of the engine's writer.
        chunks = [
            struct.pack(f"<q{v.ndim}qq", v.ndim, *v.shape, 8 * v.itemsize)
            + v.astype(f"<f{v.itemsize}").tobytes()
            for _, _, v in model.params.flat_items()
        ]
        reference = join_checkpoint(manifest, chunks)
        assert path.read_bytes() == reference
        ref_path = tmp_path / "reference.ckpt"
        ref_path.write_bytes(reference)
        back = load_checkpoint(ref_path)
        assert back.params.equal(model.params)
        assert back.meta.iteration == 77
        x = batch(3, seed=14)
        assert np.array_equal(back.logits(x), model.logits(x))

    def test_deep_preset_checkpoint_size_is_unchanged(self, tmp_path):
        config = preset("very-deep-polynet", classes=4, input_size=32)
        model = lower(config, ConvBlock(16, 4), beta=0.3, seed=11, precision="f32")
        path = tmp_path / "deep.ckpt"
        save_checkpoint(model, path)
        assert path.stat().st_size == 555_599

    def _rewritten(self, tmp_path, edit=None, blob=None):
        """A saved checkpoint whose manifest and tensor bytes went through
        ``edit(manifest, chunks)``, or whose manifest bytes are ``blob``."""
        model = tiny("A: poly-2 -> 2-way", seed=11, beta=0.3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        manifest, chunks = split_checkpoint(path.read_bytes())
        if edit is not None:
            edit(manifest, chunks)
        path.write_bytes(join_checkpoint(manifest, chunks, blob))
        return path

    def _load_error(self, path) -> str:
        with pytest.raises(EngineError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        return str(err.value)

    def test_manifest_omitting_a_tensor_is_rejected(self, tmp_path):
        def drop_last(manifest, chunks):
            manifest["params"].pop()
            chunks.pop()

        assert "omits tensor head.fc/b" in self._load_error(self._rewritten(tmp_path, drop_last))

    def test_manifest_listing_a_tensor_twice_is_rejected(self, tmp_path):
        def repeat_first(manifest, chunks):
            manifest["params"].insert(1, manifest["params"][0])
            chunks.insert(1, chunks[0])

        key, name = "stem.fc", "w"
        message = self._load_error(self._rewritten(tmp_path, repeat_first))
        assert f"lists tensor {key}/{name} twice" in message

    def test_manifest_listing_an_unknown_tensor_is_rejected(self, tmp_path):
        def add_extra(manifest, chunks):
            manifest["params"].append(["head.fc", "w9"])
            chunks.append(chunks[-1])

        message = self._load_error(self._rewritten(tmp_path, add_extra))
        assert "lists tensor head.fc/w9 that the model does not have" in message

    def test_manifest_that_is_not_json_is_rejected(self, tmp_path):
        message = self._load_error(self._rewritten(tmp_path, blob=b'{"format": 1,'))
        assert "manifest is not UTF-8 JSON" in message

    def test_manifest_that_is_not_utf8_is_rejected(self, tmp_path):
        message = self._load_error(self._rewritten(tmp_path, blob=b'{"format": "\xff"}'))
        assert "manifest is not UTF-8 JSON" in message

    def test_manifest_missing_a_field_names_it(self, tmp_path):
        message = self._load_error(
            self._rewritten(tmp_path, lambda manifest, _: manifest.pop("arch"))
        )
        assert "manifest field 'arch' is missing" in message

    def test_unknown_format_is_rejected(self, tmp_path):
        message = self._load_error(
            self._rewritten(tmp_path, lambda manifest, _: manifest.update(format=99))
        )
        assert "manifest field 'format' is 99" in message

    def test_manifest_field_of_the_wrong_type_names_it(self, tmp_path):
        message = self._load_error(
            self._rewritten(tmp_path, lambda manifest, _: manifest.update(seed="11"))
        )
        assert "manifest field 'seed' has the wrong type: '11'" in message
        message = self._load_error(
            self._rewritten(tmp_path, lambda manifest, _: manifest.update(iteration=True))
        )
        assert "manifest field 'iteration' has the wrong type: True" in message

    @pytest.mark.parametrize(
        "field,value,why",
        [
            ("input_channels", 0, "must be at least 1, got 0"),
            ("classes", 0, "must be at least 1, got 0"),
            ("input_size", 0, "must be at least 1, got 0"),
            ("widths", [0], "stage 'A' width must be positive"),
            ("widths", [2.5], "stage 'A' width must be an integer, got 2.5"),
            ("widths", [True], "stage 'A' width must be an integer, got True"),
            ("iteration", -4, "must be at least 0, got -4"),
        ],
    )
    def test_manifest_size_below_one_names_the_field(self, tmp_path, field, value, why):
        message = self._load_error(
            self._rewritten(tmp_path, lambda manifest, _: manifest.update({field: value}))
        )
        assert f"manifest field {field!r}: {why}" in message

    def test_tensor_of_another_shape_is_rejected(self, tmp_path):
        def transpose_first(manifest, chunks):
            w, _ = read_tensor(chunks[0])
            chunks[0] = b"".join(tensor_parts(w.T))

        message = self._load_error(self._rewritten(tmp_path, transpose_first))
        assert "checkpoint shape mismatch for stem.fc/w" in message
