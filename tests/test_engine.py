"""Tensor engine: primitives, reverse-mode gradients, serialization."""

import weakref

import numpy as np
import pytest

from polyres.builder import ConvBlock, lower
from polyres.dsl import parse_network
from polyres.engine import (
    NORM_EPS,
    Add,
    ChannelNorm,
    ComputationGraph,
    Conv2D,
    Dense,
    EngineError,
    Flatten,
    GatedSum,
    GlobalAvgPool,
    GraphNode,
    InputOp,
    NumericError,
    Op,
    ParamStore,
    ReLU,
    ScalarScale,
    ShapeError,
    StridedConvDownsample,
    Tensor,
    backward,
    finite_diff_grad,
    forward,
    softmax,
    softmax_cross_entropy,
)

RNG = np.random.default_rng(12345)


def single_op_graph(op, input_shape, key=None):
    nodes = [GraphNode(0, InputOp(), ())]
    nodes.append(GraphNode(1, op, (0,), param_key=key, label=op.name))
    return ComputationGraph(nodes, input_shape)


def params_for(op, key, rng):
    store = ParamStore()
    if hasattr(op, "init_params"):
        for name, value in op.init_params(rng, np.float64).items():
            store.add(key, name, value)
            # Jitter so relu-style kinks and zero biases stay generic.
            value += rng.uniform(-0.2, 0.2, size=value.shape)
    return store


def scalar_loss(y):
    return float((np.sin(y) + 0.5 * y * y).sum())


def scalar_loss_grad(y):
    return np.cos(y) + y


def check_graph_gradients(graph, params, x, label, rtol=1e-6):
    """Backward vs central differences for a whole graph, for both the
    parameters and the input."""
    out, tape = forward(graph, params, x, "train")
    grads, dx = backward(tape, scalar_loss_grad(out.data), return_input_grad=True)

    def loss_fn(p):
        y, _ = forward(graph, p, x, "train")
        return scalar_loss(y.data)

    if params.n_scalars():
        numeric = finite_diff_grad(loss_fn, params, h=1e-6)
        for pkey, name, a in grads.flat_items():
            f = numeric.get(pkey, name)
            scale = max(np.abs(a).max(), np.abs(f).max(), 1e-12)
            assert np.abs(a - f).max() / scale < rtol, f"{label}/{pkey}/{name}"

    # Input gradient against finite differences on a few random entries.
    flat = x.reshape(-1)
    dx_flat = dx.reshape(-1)
    h = 1e-6
    for i in np.random.default_rng(3).choice(flat.size, size=min(12, flat.size), replace=False):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn(params)
        flat[i] = orig - h
        down = loss_fn(params)
        flat[i] = orig
        fd = (up - down) / (2 * h)
        assert abs(dx_flat[i] - fd) <= 1e-6 * max(1.0, abs(fd)), f"{label} input grad"


def check_op_gradients(op, input_shape, key="p", rtol=1e-6):
    """Backward vs central differences for one primitive."""
    rng = np.random.default_rng(7)
    graph = single_op_graph(op, input_shape[1:], key if hasattr(op, "init_params") else None)
    params = params_for(op, key, rng)
    x = rng.standard_normal(input_shape) + 0.1
    check_graph_gradients(graph, params, x, op.name, rtol)


def conv_reference(x, w, b, stride, pad):
    """Convolution as a direct sum over output pixels and kernel taps."""
    n, _, h, wd = x.shape
    c_out, _, k, _ = w.shape
    hout = (h + 2 * pad - k) // stride + 1
    wout = (wd + 2 * pad - k) // stride + 1
    y = np.zeros((n, c_out, hout, wout))
    for i in range(hout):
        for j in range(wout):
            for di in range(k):
                for dj in range(k):
                    r, c = i * stride + di - pad, j * stride + dj - pad
                    if 0 <= r < h and 0 <= c < wd:
                        y[:, :, i, j] += x[:, :, r, c] @ w[:, :, di, dj].T
    return y + b[None, :, None, None]


class TestPrimitiveGradients:
    def test_dense(self):
        check_op_gradients(Dense(6, 4), (3, 6))

    def test_conv_1x1(self):
        check_op_gradients(Conv2D(1, 3, 5), (2, 3, 6, 6))

    def test_conv_3x3(self):
        check_op_gradients(Conv2D(3, 3, 4), (2, 3, 6, 6))

    def test_strided_downsample(self):
        check_op_gradients(StridedConvDownsample(3, 4), (2, 3, 8, 8))

    @pytest.mark.parametrize("hw", [(7, 7), (7, 5), (6, 9)])
    def test_strided_downsample_odd_and_non_square(self, hw):
        check_op_gradients(StridedConvDownsample(3, 4), (2, 3, *hw))

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_conv_non_square(self, kernel):
        check_op_gradients(Conv2D(kernel, 3, 4), (2, 3, 7, 5))

    def test_relu(self):
        check_op_gradients(ReLU(), (4, 9))

    def test_scalar_scale(self):
        check_op_gradients(ScalarScale(0.3), (4, 5))

    def test_channel_norm_2d(self):
        check_op_gradients(ChannelNorm(5), (6, 5))

    def test_channel_norm_4d(self):
        check_op_gradients(ChannelNorm(3), (4, 3, 5, 5))

    def test_global_avg_pool(self):
        check_op_gradients(GlobalAvgPool(), (3, 4, 5, 5))

    def test_flatten(self):
        check_op_gradients(Flatten(), (3, 2, 4, 4))

    def test_add_and_gated_sum(self):
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((3, 4)) for _ in range(3)]
        nodes = [GraphNode(0, InputOp(), ())]
        # Fan the input through three scales, then merge.
        for i, beta in enumerate((1.0, 0.5, 0.25)):
            nodes.append(GraphNode(1 + i, ScalarScale(beta), (0,)))
        nodes.append(GraphNode(4, Add(), (1, 2, 3)))
        graph = ComputationGraph(nodes, (4,))
        x = xs[0]
        out, tape = forward(graph, ParamStore(), x, "train")
        assert np.allclose(out.data, 1.75 * x)
        _, dx = backward(tape, np.ones_like(x), return_input_grad=True)
        assert np.allclose(dx, 1.75)

    def test_softmax_cross_entropy_gradient(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        _, analytic = softmax_cross_entropy(logits, labels)
        h = 1e-6
        flat = logits.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = softmax_cross_entropy(logits, labels)
            flat[i] = orig - h
            down, _ = softmax_cross_entropy(logits, labels)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            assert abs(analytic.reshape(-1)[i] - fd) < 1e-8


class TestConvReference:
    """Conv kernels against a direct loop-sum reference at f64."""

    @pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("hw", [(6, 6), (7, 7), (7, 5), (4, 9)])
    def test_forward_matches_loop_sum(self, kernel, stride, hw):
        rng = np.random.default_rng(11)
        op = Conv2D(kernel, 3, 5, stride=stride)
        params = params_for(op, "c", rng)
        x = rng.standard_normal((2, 3, *hw))
        graph = single_op_graph(op, x.shape[1:], key="c")
        out, _ = forward(graph, params, x, "train")
        w, b = params.get("c", "w"), params.get("c", "b")
        want = conv_reference(x, w, b, stride, kernel // 2)
        assert out.shape == want.shape
        assert np.abs(out.data - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_conv_input_feeding_other_nodes(self):
        # Each 1x1 conv's input also feeds an Add, so a conv that saves a
        # view of its input must neither write to it nor be corrupted by
        # later nodes: y = v + conv(v), v = x + conv(x).
        rng = np.random.default_rng(13)
        c1, c2 = Conv2D(1, 3, 3), Conv2D(1, 3, 3)
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, c1, (0,), param_key="c1"),
            GraphNode(2, Add(), (0, 1)),
            GraphNode(3, c2, (2,), param_key="c2"),
            GraphNode(4, Add(), (2, 3)),
        ]
        graph = ComputationGraph(nodes, (3, 5, 7))
        params = ParamStore()
        for key, op in (("c1", c1), ("c2", c2)):
            for name, value in params_for(op, key, rng).group(key).items():
                params.add(key, name, value)
        x = rng.standard_normal((2, 3, 5, 7))
        x_before = x.copy()
        out, tape = forward(graph, params, x, "train")
        backward(tape, scalar_loss_grad(out.data), return_input_grad=True)
        assert np.array_equal(x, x_before)
        v = x + conv_reference(x, params.get("c1", "w"), params.get("c1", "b"), 1, 0)
        want = v + conv_reference(v, params.get("c2", "w"), params.get("c2", "b"), 1, 0)
        assert np.abs(out.data - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        check_graph_gradients(graph, params, x, "conv fan-out")


class TestStemInputGradient:
    """A conv that reads only the graph input skips its input gradient
    unless the caller asks for it; parameter gradients do not change."""

    @staticmethod
    def stem_graph():
        rng = np.random.default_rng(17)
        stem, down = Conv2D(3, 3, 4), StridedConvDownsample(4, 4)
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, stem, (0,), param_key="stem"),
            GraphNode(2, ReLU(), (1,)),
            GraphNode(3, down, (2,), param_key="down"),
            GraphNode(4, GlobalAvgPool(), (3,)),
        ]
        params = ParamStore()
        for key, op in (("stem", stem), ("down", down)):
            for name, value in params_for(op, key, rng).group(key).items():
                params.add(key, name, value)
        return ComputationGraph(nodes, (3, 7, 6)), params, rng.standard_normal((2, 3, 7, 6))

    def test_parameter_gradients_are_bitwise_unchanged(self, monkeypatch):
        import polyres.engine as engine

        graph, params, x = self.stem_graph()
        out, tape = forward(graph, params, x, "train")
        upstream = scalar_loss_grad(out.data)
        calls = []
        col2im = engine._col2im
        monkeypatch.setattr(engine, "_col2im", lambda *a: calls.append(1) or col2im(*a))
        skipped = backward(tape, upstream)
        assert len(calls) == 1  # only the strided conv's; the stem's is skipped
        full, dx = backward(tape, upstream, return_input_grad=True)
        assert len(calls) == 3 and dx.shape == x.shape
        assert [(k, n) for k, n, _ in skipped.flat_items()] == [
            (k, n) for k, n, _ in full.flat_items()
        ]
        for key, name, value in full.flat_items():
            assert np.array_equal(skipped.get(key, name), value), f"{key}/{name}"

    def test_requested_input_gradient_matches_finite_differences(self):
        graph, params, x = self.stem_graph()
        check_graph_gradients(graph, params, x, "stem")

    @staticmethod
    def dense_stem_graph():
        rng = np.random.default_rng(19)
        stem, head = Dense(3 * 4 * 2, 5), Dense(5, 3)
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, Flatten(), (0,)),
            GraphNode(2, stem, (1,), param_key="stem"),
            GraphNode(3, ReLU(), (2,)),
            GraphNode(4, head, (3,), param_key="head"),
        ]
        params = ParamStore()
        for key, op in (("stem", stem), ("head", head)):
            for name, value in params_for(op, key, rng).group(key).items():
                params.add(key, name, value)
        return ComputationGraph(nodes, (3, 4, 2)), params, rng.standard_normal((2, 3, 4, 2))

    def test_dense_stem_behind_flatten_skips_its_input_gradient(self, monkeypatch):
        graph, params, x = self.dense_stem_graph()
        out, tape = forward(graph, params, x, "train")
        upstream = scalar_loss_grad(out.data)
        calls = []
        unflatten = Flatten.backward
        monkeypatch.setattr(
            Flatten, "backward", lambda *a, **k: calls.append(1) or unflatten(*a, **k)
        )
        skipped = backward(tape, upstream)
        assert calls == []  # the stem Dense handed Flatten no gradient
        full, dx = backward(tape, upstream, return_input_grad=True)
        assert calls == [1] and dx.shape == x.shape
        assert [(k, n) for k, n, _ in skipped.flat_items()] == [
            (k, n) for k, n, _ in full.flat_items()
        ]
        for key, name, value in full.flat_items():
            assert np.array_equal(skipped.get(key, name), value), f"{key}/{name}"

    def test_dense_stem_input_gradient_matches_finite_differences(self):
        graph, params, x = self.dense_stem_graph()
        check_graph_gradients(graph, params, x, "dense stem")


class TestGatedSum:
    def build(self, n):
        nodes = [GraphNode(0, InputOp(), ())]
        for i in range(n):
            nodes.append(GraphNode(1 + i, ScalarScale(float(i + 1)), (0,)))
        nodes.append(GraphNode(n + 1, GatedSum(), tuple(range(1, n + 1))))
        return ComputationGraph(nodes, (3,))

    def test_default_gates_are_a_plain_sum(self):
        graph = self.build(3)
        x = np.ones((2, 3))
        out, _ = forward(graph, ParamStore(), x, "train")
        assert np.array_equal(out.data, 6.0 * x)

    def test_gate_values_scale_paths(self):
        graph = self.build(3)
        x = np.ones((2, 3))
        out, _ = forward(graph, ParamStore(), x, "train", gates={4: (1.0, 0.0, 0.5)})
        assert np.allclose(out.data, (1.0 + 0.0 + 1.5) * x)

    def test_eval_mode_ignores_gates(self):
        graph = self.build(2)
        x = np.ones((1, 3))
        gated, _ = forward(graph, ParamStore(), x, "eval", gates={3: (0.0, 0.0)})
        plain, _ = forward(graph, ParamStore(), x, "eval")
        assert np.array_equal(gated.data, plain.data)

    def test_eval_gates_opt_in(self):
        graph = self.build(2)
        x = np.ones((1, 3))
        out, _ = forward(
            graph, ParamStore(), x, "eval", gates={3: (0.5, 0.5)}, allow_eval_gates=True
        )
        assert np.allclose(out.data, 1.5 * x)

    def test_gradient_respects_gates(self):
        graph = self.build(2)
        x = np.ones((1, 3))
        _, tape = forward(graph, ParamStore(), x, "train", gates={3: (1.0, 0.0)})
        _, dx = backward(tape, np.ones((1, 3)), return_input_grad=True)
        assert np.allclose(dx, 1.0)  # only the first path (scale 1) flows

    def test_gate_length_mismatch(self):
        graph = self.build(2)
        with pytest.raises(ShapeError):
            forward(graph, ParamStore(), np.ones((1, 3)), "train", gates={3: (1.0,)})


class TestChannelNorm:
    def test_running_stats_converge_to_batch_stats(self):
        op = ChannelNorm(4)
        params = ParamStore()
        for name, value in op.init_params(np.random.default_rng(0), np.float64).items():
            params.add("n", name, value)
        graph = single_op_graph(op, (4,), key="n")
        mean_true = np.array([1.0, -2.0, 0.5, 3.0])
        std_true = np.array([0.5, 2.0, 1.0, 0.1])
        # Stationary input: after N batches the exponential averages land on
        # the batch statistics within 1e-3.
        x = mean_true + std_true * np.random.default_rng(5).standard_normal((256, 4))
        for _ in range(1000):
            forward(graph, params, x, "train")
        assert np.abs(params.get("n", "running_mean") - x.mean(0)).max() < 1e-3
        assert np.abs(params.get("n", "running_var") - x.var(0)).max() < 1e-3

    def test_eval_uses_running_stats(self):
        op = ChannelNorm(3)
        params = ParamStore()
        for name, value in op.init_params(np.random.default_rng(0), np.float64).items():
            params.add("n", name, value)
        params.get("n", "running_mean")[:] = [1.0, 2.0, 3.0]
        params.get("n", "running_var")[:] = [4.0, 4.0, 4.0]
        graph = single_op_graph(op, (3,), key="n")
        x = np.array([[1.0, 2.0, 3.0]])
        out, _ = forward(graph, params, x, "eval")
        assert np.abs(out.data).max() < 1e-9

    @pytest.mark.parametrize("shape", [(6, 3), (2, 3, 4, 5)])
    def test_eval_scale_and_shift_matches_the_normalize_then_affine_formula(self, shape):
        rng = np.random.default_rng(8)
        op = ChannelNorm(3)
        params = ParamStore()
        for name, value in op.init_params(rng, np.float64).items():
            params.add("n", name, value + rng.uniform(0.1, 2.0, size=value.shape))
        before = params.clone()
        graph = single_op_graph(op, shape[1:], key="n")
        x = rng.standard_normal(shape) * 3.0 + 1.0
        out, _ = forward(graph, params, x, "eval")
        view = (1, 3) + (1,) * (len(shape) - 2)
        g = params.group("n")
        xhat = (x - g["running_mean"].reshape(view)) / np.sqrt(
            g["running_var"].reshape(view) + NORM_EPS
        )
        want = g["gamma"].reshape(view) * xhat + g["beta"].reshape(view)
        assert np.abs(out.data - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert params.equal(before)  # eval leaves the running stats alone

    def test_backward_rejects_eval_tape(self):
        op = ChannelNorm(3)
        params = ParamStore()
        for name, value in op.init_params(np.random.default_rng(0), np.float64).items():
            params.add("n", name, value)
        graph = single_op_graph(op, (3,), key="n")
        _, tape = forward(graph, params, np.ones((2, 3)), "eval")
        with pytest.raises(EngineError):
            backward(tape, np.ones((2, 3)))


class TestExecution:
    def test_determinism_bitwise(self):
        rng = np.random.default_rng(0)
        op = Dense(5, 3)
        params = params_for(op, "d", np.random.default_rng(4))
        graph = single_op_graph(op, (5,), key="d")
        x = rng.standard_normal((4, 5))
        a, _ = forward(graph, params, x, "train")
        b, _ = forward(graph, params, x, "train")
        assert np.array_equal(a.data, b.data)

    def test_shape_error_names_the_node(self):
        # Graph declares a (7,) input but the node wants 5 features, so the
        # failure surfaces at the node with its label attached, at every
        # call: a failed check is not remembered as a pass.
        graph = single_op_graph(Dense(5, 3), (7,), key="d")
        params = params_for(Dense(5, 3), "d", np.random.default_rng(0))
        for _ in range(2):
            with pytest.raises(ShapeError) as err:
                forward(graph, params, np.ones((2, 7)), "train")
            assert "dense" in str(err.value)
            assert "node 1" in str(err.value)

    def test_shapes_are_checked_once_per_graph(self):
        calls = {}

        def counted(op):
            rule = op.infer_shape

            def infer_shape(*args):
                calls[op.name] = calls.get(op.name, 0) + 1
                return rule(*args)

            op.infer_shape = infer_shape
            return op

        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, counted(Dense(3, 4)), (0,), param_key="d"),
            GraphNode(2, counted(ReLU()), (1,)),
        ]
        graph = ComputationGraph(nodes, (3,))
        params = params_for(Dense(3, 4), "d", np.random.default_rng(0))
        for batch in (2, 5):
            forward(graph, params, np.ones((batch, 3)), "train")
        assert calls == {"dense": 1, "relu": 1}

    def test_node_reading_a_later_node_is_rejected(self):
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, ReLU(), (2,)),
            GraphNode(2, ReLU(), (0,)),
        ]
        graph = ComputationGraph(nodes, (3,))
        with pytest.raises(EngineError) as err:
            forward(graph, ParamStore(), np.ones((1, 3)), "train")
        assert "node 1" in str(err.value)

    def test_missing_parameter_key(self):
        graph = single_op_graph(Dense(5, 3), (5,), key="nope")
        with pytest.raises(EngineError):
            forward(graph, ParamStore(), np.ones((2, 5)), "train")

    def test_debug_tripwire_names_the_node(self):
        op = ScalarScale(float("inf"))
        graph = single_op_graph(op, (3,))
        with pytest.raises(NumericError) as err:
            forward(graph, ParamStore(), np.ones((1, 3)), "train", check_finite=True)
        assert "scale" in str(err.value)

    def test_finite_check_holds_for_one_call(self):
        graph = single_op_graph(ScalarScale(float("inf")), (3,))
        with pytest.raises(NumericError) as err:
            forward(graph, ParamStore(), np.ones((1, 3)), "train", check_finite=True)
        assert "node 1 (scale)" in str(err.value)
        out, _ = forward(graph, ParamStore(), np.ones((1, 3)), "train")
        assert np.isinf(out.data).all()

    def test_shared_key_gradients_accumulate(self):
        # One parameter group used by two graph nodes: y = w*(x) + w*(2x).
        op1, op2 = Dense(3, 3), Dense(3, 3)
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, Dense(3, 3), (0,), param_key="shared"),
            GraphNode(2, ScalarScale(2.0), (0,)),
            GraphNode(3, Dense(3, 3), (2,), param_key="shared"),
            GraphNode(4, Add(), (1, 3)),
        ]
        graph = ComputationGraph(nodes, (3,))
        params = params_for(op1, "shared", np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((4, 3))
        out, tape = forward(graph, params, x, "train")
        grads = backward(tape, np.ones_like(out.data))
        expected_w = x.T @ np.ones((4, 3)) + (2 * x).T @ np.ones((4, 3))
        assert np.allclose(grads.get("shared", "w"), expected_w)

    def test_finite_diff_requires_f64(self):
        params = ParamStore()
        params.add("p", "w", np.ones(3, dtype=np.float32))
        with pytest.raises(EngineError):
            finite_diff_grad(lambda p: 0.0, params)

    def test_finite_diff_hand_example(self):
        params = ParamStore()
        params.add("p", "w", np.array([3.0]))
        grads = finite_diff_grad(lambda p: float(p.get("p", "w")[0] ** 2), params, h=1e-6)
        assert abs(grads.get("p", "w")[0] - 6.0) < 1e-6

    def test_finite_diff_constant_loss(self):
        params = ParamStore()
        params.add("p", "w", np.arange(4.0))
        grads = finite_diff_grad(lambda p: 1.25, params)
        assert np.array_equal(grads.get("p", "w"), np.zeros(4))


class _Probe(Op):
    """Sums its inputs plus one into a fresh array, and logs, before it
    computes, which outputs of the probes before it are still alive."""

    name = "probe"

    def __init__(self, log):
        self.log = log

    def infer_shape(self, in_shapes):
        return in_shapes[0]

    def forward(self, inputs, params, mode, gates=None):
        self.log["alive"].append([ref() is not None for ref in self.log["refs"]])
        out = sum(inputs) + 1.0
        self.log["refs"].append(weakref.ref(out))
        return out, ("context", out)


class TestLiveness:
    # Node 4 has no reader; node 6 is the output.
    READS = {1: (0,), 2: (1,), 3: (1, 2), 4: (2,), 5: (3,), 6: (2, 5)}

    def probe_graph(self):
        log = {"alive": [], "refs": []}
        nodes = [GraphNode(0, InputOp(), ())]
        nodes += [GraphNode(i, _Probe(log), ins) for i, ins in self.READS.items()]
        return ComputationGraph(nodes, (3,)), log

    def test_eval_tape_holds_no_contexts(self):
        graph, _ = self.probe_graph()
        out, tape = forward(graph, ParamStore(), np.ones((2, 3)), "eval")
        assert tape.saved == []
        with pytest.raises(EngineError):
            backward(tape, np.ones_like(out.data))
        _, tape = forward(graph, ParamStore(), np.ones((2, 3)), "train")
        assert sum(ctx is not None for ctx in tape.saved) == len(self.READS)

    def test_eval_values_are_released_after_their_last_reader(self):
        graph, log = self.probe_graph()
        out, _ = forward(graph, ParamStore(), np.ones((2, 3)), "eval")
        last_reader = {j: max((n for n, ins in self.READS.items() if j in ins), default=j)
                       for j in self.READS}
        # Probe k logs probes 1..k-1: probe j's output is alive while some
        # node at or after k still reads it.
        for k, alive in zip(self.READS, log["alive"]):
            assert alive == [last_reader[j] >= k for j in range(1, k)], f"node {k}"
        assert [ref() is not None for ref in log["refs"]] == [False] * 5 + [True]
        assert log["refs"][-1]() is out.data
        assert np.array_equal(out.data, np.full((2, 3), 11.0))


class TestTensorSerialization:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_round_trip(self, precision):
        dtype = np.float32 if precision == "f32" else np.float64
        data = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(dtype)
        t = Tensor(data)
        back = Tensor.from_bytes(t.to_bytes())
        assert back.precision == precision
        assert np.array_equal(back.data, data)

    def test_header_layout_is_little_endian(self):
        t = Tensor(np.zeros((2, 5), dtype=np.float64))
        buf = t.to_bytes()
        assert int.from_bytes(buf[0:8], "little") == 2  # rank
        assert int.from_bytes(buf[8:16], "little") == 2
        assert int.from_bytes(buf[16:24], "little") == 5
        assert int.from_bytes(buf[24:32], "little") == 64  # precision tag

    def test_file_round_trip(self, tmp_path):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "x.tns"
        t.save(path)
        assert np.array_equal(Tensor.load(path).data, t.data)

    def test_truncated_buffer_raises_engine_error(self):
        buf = Tensor(np.arange(6.0).reshape(2, 3)).to_bytes()
        for cut in range(len(buf)):
            with pytest.raises(EngineError):
                Tensor.from_bytes(buf[:cut])

    def test_from_bytes_leaves_trailing_bytes_to_the_caller(self):
        t = Tensor(np.arange(3.0))
        back = Tensor.from_bytes(t.to_bytes() + b"\0" * 8)
        assert np.array_equal(back.data, t.data)

    def test_load_rejects_truncated_and_trailing_files(self, tmp_path):
        buf = Tensor(np.arange(6.0)).to_bytes()
        path = tmp_path / "x.tns"
        for bad, word in ((buf[:-3], "truncated"), (buf + b"\0", "trailing")):
            path.write_bytes(bad)
            with pytest.raises(EngineError) as err:
                Tensor.load(path)
            assert str(path) in str(err.value)
            assert word in str(err.value)

    def test_softmax_is_normalized(self):
        logits = np.random.default_rng(0).standard_normal((4, 6)) * 30
        p = softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)


class TestConcurrency:
    @staticmethod
    def dense_op():
        rng = np.random.default_rng(0)
        op = Dense(6, 4)
        params = params_for(op, "d", np.random.default_rng(1))
        return lambda: (single_op_graph(op, (6,), key="d"), params), [
            rng.standard_normal((8, 6)) for _ in range(16)
        ]

    @staticmethod
    def conv_network():
        # Channel norms, branches and values with several readers.
        config = parse_network("IR 1-2-1", classes=4, input_size=16)

        def build():
            model = lower(config, ConvBlock(16, 4), seed=3, precision="f64")
            return model.graph, model.params

        rng = np.random.default_rng(2)
        return build, [rng.standard_normal((2, 3, 16, 16)) for _ in range(8)]

    @pytest.mark.parametrize("case", ["dense_op", "conv_network"])
    def test_concurrent_eval_forwards_agree(self, case):
        # Eval-mode execution is read-only, so parallel forward passes over
        # one model must reproduce the sequential results exactly. The
        # threads run a twin that has never run, so its first forwards
        # build the graph's shape and last-use tables concurrently.
        from concurrent.futures import ThreadPoolExecutor

        build, batches = getattr(self, case)()
        graph, params = build()
        expected = [forward(graph, params, x, "eval")[0].data for x in batches]
        graph, params = build()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda x: forward(graph, params, x, "eval")[0].data, batches)
            )
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)
