"""Tensor engine: primitives, reverse-mode gradients, the tensor file format."""

import re
import struct
import weakref

import numpy as np
import pytest

from polyres.builder import ConvBlock, lower
from polyres.dsl import parse_network
from polyres.engine import (
    NORM_EPS,
    NORM_MOMENTUM,
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
    ParamOp,
    ParamStore,
    ReLU,
    ShapeError,
    StridedConvDownsample,
    Tape,
    backward,
    finite_diff_grad,
    forward,
    init_tensors,
    read_tensor,
    softmax,
    softmax_cross_entropy,
    tensor_header,
    tensor_parts,
)

RNG = np.random.default_rng(12345)


def single_op_graph(op, input_shape, key=None):
    nodes = [GraphNode(0, InputOp(), ())]
    nodes.append(GraphNode(1, op, (0,), param_key=key, label=op.name))
    return ComputationGraph(nodes, input_shape)


def params_for(bindings, rng, jitter=0.2):
    """An f64 store of each ``(key, op)``'s tensors. Each op's tensors are
    drawn in turn with ``init_tensors``, as lowering draws them, then
    jittered by up to ``jitter`` so relu-style kinks and zero biases stay
    generic."""
    specs = [(key, op.param_specs()) for key, op in bindings]
    store = ParamStore.allocate(
        (key, spec.name, spec.shape, np.float64) for key, own in specs for spec in own
    )
    for key, own in specs:
        values = [(store.get(key, spec.name), spec) for spec in own]
        init_tensors(values, rng)
        if jitter:
            for value, _ in values:
                value += rng.uniform(-jitter, jitter, size=value.shape)
    return store


def store_of(*entries):
    """A store holding a copy of each ``(key, name, array)`` entry."""
    store = ParamStore.allocate((key, name, v.shape, v.dtype) for key, name, v in entries)
    for key, name, value in entries:
        store.get(key, name)[...] = value
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

    if any(params.flat_items(trainable_only=True)):
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
    bindings = [(key, op)] if isinstance(op, ParamOp) else []
    graph = single_op_graph(op, input_shape[1:], key if bindings else None)
    params = params_for(bindings, rng)
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


def im2col_reference(x, k, stride, pad):
    """Columns (n, c*k*k, hout*wout), one pixel at a time: entry (c, i, j)
    of output pixel (oy, ox) is x[:, c, stride*oy + i - pad, stride*ox + j -
    pad], or 0 outside the input."""
    n, c, h, wd = x.shape
    hout = (h + 2 * pad - k) // stride + 1
    wout = (wd + 2 * pad - k) // stride + 1
    cols = np.zeros((n, c, k, k, hout, wout))
    for i in range(hout):
        for j in range(wout):
            for di in range(k):
                for dj in range(k):
                    r, q = i * stride + di - pad, j * stride + dj - pad
                    if 0 <= r < h and 0 <= q < wd:
                        cols[:, :, di, dj, i, j] = x[:, :, r, q]
    return cols.reshape(n, c * k * k, hout * wout)


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

    def test_scaled_gated_sum(self):
        check_op_gradients(GatedSum(0.3), (4, 5))

    def test_channel_norm_2d(self):
        check_op_gradients(ChannelNorm(5), (6, 5))

    def test_channel_norm_4d(self):
        check_op_gradients(ChannelNorm(3), (4, 3, 5, 5))

    def test_global_avg_pool(self):
        check_op_gradients(GlobalAvgPool(), (3, 4, 5, 5))

    def test_flatten(self):
        check_op_gradients(Flatten(), (3, 2, 4, 4))

    def test_relu_of_a_sum_and_scaled_gated_sums(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        nodes = [GraphNode(0, InputOp(), ())]
        # Fan the input through three scales, then merge.
        for i, beta in enumerate((1.0, 0.5, 0.25)):
            nodes.append(GraphNode(1 + i, GatedSum(beta), (0,)))
        nodes.append(GraphNode(4, ReLU(), (1, 2, 3)))
        graph = ComputationGraph(nodes, (4,))
        out, tape = forward(graph, ParamStore(), x, "train")
        assert np.allclose(out.data, np.maximum(1.75 * x, 0))
        _, dx = backward(tape, np.ones_like(x), return_input_grad=True)
        assert np.allclose(dx, 1.75 * (x > 0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_module_output_matches_the_four_op_spelling(self, dtype):
        # GatedSum(beta) -> ReLU(x, gated) does the float operations of a
        # plain gated sum, then a beta scale, then a residual add, then a
        # relu, in that order, forward and backward.
        rng = np.random.default_rng(4)
        x, p1, p2, g = (rng.standard_normal((3, 5)).astype(dtype) for _ in range(4))
        beta, gates = 0.3, (1.0, 0.5)
        summed = np.zeros_like(p1)
        summed += p1
        summed += 0.5 * p2
        residual = x.copy()
        residual += beta * summed
        y = np.maximum(residual, 0)
        mask = g * (y > 0)
        scaled = beta * mask

        gated, gctx = GatedSum(beta).forward([p1, p2], None, "train", gates)
        out, rctx = ReLU().forward([x, gated], None, "train")
        dx, dgated = ReLU().backward(g, rctx, None)
        dp1, dp2 = GatedSum(beta).backward(dgated, gctx, None)
        assert np.array_equal(out, y) and out.dtype == dtype
        assert np.array_equal(dx, mask) and dx is dgated
        assert np.array_equal(dp1, scaled) and np.array_equal(dp2, scaled * 0.5)

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


class TestSizeChecks:
    """Bad layer sizes fail at construction, naming the argument."""

    @pytest.mark.parametrize(
        "op,args,kwargs,arg",
        [
            (Conv2D, (3, 3, 4), {"stride": 0}, "stride"),
            (Conv2D, (3, 3, 4), {"stride": -1}, "stride"),
            (Conv2D, (3, 0, 4), {}, "c_in"),
            (Conv2D, (3, 3, 0), {}, "c_out"),
            (StridedConvDownsample, (0, 4), {}, "c_in"),
            (Dense, (0, 4), {}, "d_in"),
            (Dense, (4, 0), {}, "d_out"),
            (Dense, (4, 2.5), {}, "d_out"),
        ],
        ids=["stride-0", "stride-neg", "c_in-0", "c_out-0", "down-c_in-0", "d_in-0", "d_out-0",
             "d_out-float"],
    )
    def test_bad_size_is_rejected_at_construction(self, op, args, kwargs, arg):
        with pytest.raises(EngineError, match=rf"\b{arg} must be a positive integer"):
            op(*args, **kwargs)

    def test_good_sizes_construct(self):
        assert Conv2D(3, 3, 4, stride=np.int64(2)).stride == 2
        assert Dense(np.int64(3), 1).d_in == 3


class TestConvReference:
    """Conv kernels against a direct loop-sum reference at f64."""

    @pytest.mark.parametrize("kernel,stride", [(1, 1), (1, 2), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("hw", [(6, 6), (7, 7), (7, 5), (4, 9)])
    def test_forward_matches_loop_sum(self, kernel, stride, hw):
        rng = np.random.default_rng(11)
        op = Conv2D(kernel, 3, 5, stride=stride)
        params = params_for([("c", op)], rng)
        x = rng.standard_normal((2, 3, *hw))
        graph = single_op_graph(op, x.shape[1:], key="c")
        out, _ = forward(graph, params, x, "train")
        w, b = params.get("c", "w"), params.get("c", "b")
        want = conv_reference(x, w, b, stride, kernel // 2)
        assert out.data.shape == want.shape
        assert np.abs(out.data - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("op", [Conv2D(3, 3, 5), StridedConvDownsample(3, 5)])
    @pytest.mark.parametrize("hw", [(7, 6), (7, 7), (5, 9), (8, 8)])
    def test_input_gradient_equals_col2im_of_the_columns_gradient(self, op, hw):
        """The per-tap input gradient against the im2col adjoint:
        dcols = w^T g, scatter-added onto a zero-bordered grid."""
        rng = np.random.default_rng(23)
        params = params_for([("c", op)], rng)
        n, (h, wd) = 3, hw
        x = rng.standard_normal((n, 3, h, wd))
        graph = single_op_graph(op, x.shape[1:], key="c")
        out, tape = forward(graph, params, x, "train")
        g = rng.standard_normal(out.data.shape)
        _, dx = backward(tape, g, return_input_grad=True)

        k, s, pad = 3, op.stride, 1
        hout, wout = out.data.shape[2:]
        w = params.get("c", "w")
        dcols = w.reshape(5, -1).T @ g.reshape(n, 5, -1)
        grid = np.zeros((n, 3, h + 2 * pad, wd + 2 * pad))
        dc = dcols.reshape(n, 3, k, k, hout, wout)
        for i in range(k):
            for j in range(k):
                grid[:, :, i : i + s * hout : s, j : j + s * wout : s] += dc[:, :, i, j]
        want = grid[:, :, pad : pad + h, pad : pad + wd]
        # The reference is the adjoint of im2col: <im2col(x), dcols> = <x, want>.
        cols = im2col_reference(x, k, s, pad)
        assert abs((cols * dcols).sum() - (x * want).sum()) < 1e-10 * np.abs(x * want).sum()
        assert np.array_equal(dx, want)
        assert dx.flags.c_contiguous

    def test_conv_input_feeding_other_nodes(self):
        # Each 1x1 conv's input also feeds a residual relu, so a conv that
        # saves a view of its input must neither write to it nor be corrupted
        # by later nodes: y = relu(v + conv(v)), v = relu(x + conv(x)).
        rng = np.random.default_rng(13)
        c1, c2 = Conv2D(1, 3, 3), Conv2D(1, 3, 3)
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, c1, (0,), param_key="c1"),
            GraphNode(2, ReLU(), (0, 1)),
            GraphNode(3, c2, (2,), param_key="c2"),
            GraphNode(4, ReLU(), (2, 3)),
        ]
        graph = ComputationGraph(nodes, (3, 5, 7))
        params = params_for([("c1", c1), ("c2", c2)], rng)
        x = rng.standard_normal((2, 3, 5, 7))
        x_before = x.copy()
        out, tape = forward(graph, params, x, "train")
        backward(tape, scalar_loss_grad(out.data), return_input_grad=True)
        assert np.array_equal(x, x_before)
        v = np.maximum(x + conv_reference(x, params.get("c1", "w"), params.get("c1", "b"), 1, 0), 0)
        want = np.maximum(v + conv_reference(v, params.get("c2", "w"), params.get("c2", "b"), 1, 0), 0)
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
        params = params_for([("stem", stem), ("down", down)], rng)
        return ComputationGraph(nodes, (3, 7, 6)), params, rng.standard_normal((2, 3, 7, 6))

    def test_parameter_gradients_are_bitwise_unchanged(self, monkeypatch):
        import polyres.engine as engine

        graph, params, x = self.stem_graph()
        out, tape = forward(graph, params, x, "train")
        upstream = scalar_loss_grad(out.data)
        calls = []
        input_grad = engine._conv_input_grad
        monkeypatch.setattr(
            engine, "_conv_input_grad", lambda *a: calls.append(1) or input_grad(*a)
        )
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
        params = params_for([("stem", stem), ("head", head)], rng)
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
            nodes.append(GraphNode(1 + i, GatedSum(float(i + 1)), (0,)))
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

    def test_eval_mode_applies_gates(self):
        graph = self.build(2)
        x = np.ones((1, 3))
        out, _ = forward(graph, ParamStore(), x, "eval", gates={3: (0.5, 0.5)})
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
        params = params_for([("n", op)], np.random.default_rng(0), jitter=0)
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
        params = params_for([("n", op)], np.random.default_rng(0), jitter=0)
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
        params = params_for([("n", op)], rng, jitter=0)
        for _, _, value in params.flat_items():
            value += rng.uniform(0.1, 2.0, size=value.shape)
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

    @pytest.mark.parametrize("shape", [(6, 3), (4, 3, 5, 7)])
    def test_train_pass_matches_the_three_term_formula(self, shape):
        """Statistics as means over (0, 2, 3) and the three-term backward,
        against the per-pixel sums and the folded backward."""
        rng = np.random.default_rng(29)
        op = ChannelNorm(3)
        params = params_for([("n", op)], rng)
        before = params.clone()
        graph = single_op_graph(op, shape[1:], key="n")
        x = rng.standard_normal(shape) * 2.0 + 0.5
        g = rng.standard_normal(shape)
        out, tape = forward(graph, params, x, "train")
        grads, dx = backward(tape, g, return_input_grad=True)

        axes = (0,) if len(shape) == 2 else (0, 2, 3)
        view = (1, 3) + (1,) * (len(shape) - 2)
        gamma, beta = before.get("n", "gamma"), before.get("n", "beta")
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + NORM_EPS)
        xhat = (x - mu.reshape(view)) * inv_std.reshape(view)
        assert np.array_equal(out.data, gamma.reshape(view) * xhat + beta.reshape(view))
        for name, stat in (("running_mean", mu), ("running_var", var)):
            want = before.get("n", name) * NORM_MOMENTUM + (1.0 - NORM_MOMENTUM) * stat
            assert np.array_equal(params.get("n", name), want), name
        assert np.array_equal(grads.get("n", "gamma"), (g * xhat).sum(axis=axes))
        assert np.array_equal(grads.get("n", "beta"), g.sum(axis=axes))
        dxhat = g * gamma.reshape(view)
        want = (
            dxhat
            - dxhat.mean(axis=axes).reshape(view)
            - xhat * (dxhat * xhat).mean(axis=axes).reshape(view)
        ) * inv_std.reshape(view)
        assert dx.shape == shape
        assert np.abs(dx - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_backward_rejects_eval_tape(self):
        op = ChannelNorm(3)
        params = params_for([("n", op)], np.random.default_rng(0), jitter=0)
        graph = single_op_graph(op, (3,), key="n")
        _, tape = forward(graph, params, np.ones((2, 3)), "eval")
        with pytest.raises(EngineError):
            backward(tape, np.ones((2, 3)))


class TestExecution:
    def test_determinism_bitwise(self):
        rng = np.random.default_rng(0)
        op = Dense(5, 3)
        params = params_for([("d", op)], np.random.default_rng(4))
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
        params = params_for([("d", Dense(5, 3))], np.random.default_rng(0))
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
        params = params_for([("d", Dense(3, 4))], np.random.default_rng(0))
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
        op = GatedSum(float("inf"))
        graph = single_op_graph(op, (3,))
        with pytest.raises(NumericError) as err:
            forward(graph, ParamStore(), np.ones((1, 3)), "train", check_finite=True)
        assert "gated_sum" in str(err.value)

    def test_finite_check_holds_for_one_call(self):
        graph = single_op_graph(GatedSum(float("inf")), (3,))
        with pytest.raises(NumericError) as err:
            forward(graph, ParamStore(), np.ones((1, 3)), "train", check_finite=True)
        assert "node 1 (gated_sum)" in str(err.value)
        out, _ = forward(graph, ParamStore(), np.ones((1, 3)), "train")
        assert np.isinf(out.data).all()

    def test_shared_key_gradients_accumulate(self):
        # y = dense(x) + dense(2x) on one key: node 3 adds c2 into the zeroed
        # twin first, then node 1 adds c1, so the gradient is (0 + c2) + c1.
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, Dense(3, 3), (0,), param_key="shared"),
            GraphNode(2, GatedSum(2.0), (0,)),
            GraphNode(3, Dense(3, 3), (2,), param_key="shared"),
            GraphNode(4, GatedSum(), (1, 3)),
        ]
        graph = ComputationGraph(nodes, (3,))
        params = params_for([("shared", Dense(3, 3))], np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        out, tape = forward(graph, params, x, "train")
        g = rng.standard_normal(out.data.shape)
        grads = backward(tape, g)
        for name, c1, c2 in (
            ("w", x.T @ g, (2.0 * x).T @ g),
            ("b", g.sum(axis=0), g.sum(axis=0)),
        ):
            want = np.zeros_like(c1)
            want += c2
            want += c1
            assert np.array_equal(grads.get("shared", name), want), name

    def test_graph_nodes_keep_their_fields_and_defaults(self):
        op = ReLU()
        node = GraphNode(3, op, (1, 2), "k", "relu.1", "A.0")
        assert node == GraphNode(
            idx=3, op=op, inputs=(1, 2), param_key="k", label="relu.1", segment="A.0"
        )
        plain = GraphNode(0, op, ())
        assert (plain.param_key, plain.label, plain.segment) == (None, "", "")
        assert plain.where == "node 0 (relu)" and node.where == "node 3 (relu.1)"
        with pytest.raises(AttributeError):
            node.idx = 4

    def test_finite_diff_requires_f64(self):
        params = store_of(("p", "w", np.ones(3, dtype=np.float32)))
        with pytest.raises(EngineError):
            finite_diff_grad(lambda p: 0.0, params)

    def test_finite_diff_hand_example(self):
        params = store_of(("p", "w", np.array([3.0])))
        grads = finite_diff_grad(lambda p: float(p.get("p", "w")[0] ** 2), params, h=1e-6)
        assert abs(grads.get("p", "w")[0] - 6.0) < 1e-6

    def test_finite_diff_equals_a_per_tensor_loop_bitwise(self):
        rng = np.random.default_rng(8)
        bindings = [("a", Dense(3, 4)), ("n", ChannelNorm(4)), ("b", Dense(4, 2))]
        nodes = [GraphNode(0, InputOp(), ())]
        for i, (key, op) in enumerate(bindings, 1):
            nodes.append(GraphNode(i, op, (i - 1,), param_key=key))
        graph = ComputationGraph(nodes, (3,))
        params = params_for(bindings, rng)
        x = rng.standard_normal((5, 3))

        def loss_fn(p):
            return scalar_loss(forward(graph, p, x, "train")[0].data)

        h, want = 1e-6, {}
        for key, name, value in params.flat_items(trainable_only=True):
            flat, g = value.reshape(-1), np.zeros(value.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn(params)
                flat[i] = orig - h
                down = loss_fn(params)
                flat[i] = orig
                g[i] = (up - down) / (2.0 * h)
            want[key, name] = g.reshape(value.shape)
        got = finite_diff_grad(loss_fn, params, h)
        assert [(k, n) for k, n, _ in got.flat_items()] == list(want)
        for key, name, value in got.flat_items():
            assert np.array_equal(value, want[key, name]), f"{key}/{name}"

    def test_finite_diff_constant_loss(self):
        params = store_of(("p", "w", np.arange(4.0)))
        grads = finite_diff_grad(lambda p: 1.25, params)
        assert np.array_equal(grads.get("p", "w"), np.zeros(4))


class TestGradientGroups:
    """Ops add their parameter gradients into the group they are handed and
    return only the list of input gradients."""

    @pytest.mark.parametrize(
        "op,shape",
        [
            (Dense(4, 3, suffix="2"), (5, 4)),
            (Conv2D(1, 3, 4), (2, 3, 5, 5)),
            (Conv2D(3, 3, 4, suffix="1"), (2, 3, 5, 6)),
            (StridedConvDownsample(3, 4), (2, 3, 7, 7)),
            (ChannelNorm(4), (6, 4)),
            (ChannelNorm(3), (2, 3, 4, 4)),
        ],
    )
    def test_parameter_ops_add_into_a_prefilled_group(self, op, shape):
        rng = np.random.default_rng(41)
        params = params_for([("p", op)], rng)
        x = rng.standard_normal(shape)
        y, ctx = op.forward([x], params.group("p"), "train")
        g = rng.standard_normal(y.shape)
        zero = params.zeros_like()
        want = op.backward(g, ctx, zero.group("p"))
        filled = params.zeros_like()
        for _, _, view in filled.flat_items():
            view[...] = rng.standard_normal(view.shape)
        before = filled.clone()
        got = op.backward(g, ctx, filled.group("p"))
        assert type(got) is list and len(got) == 1
        assert np.array_equal(got[0], want[0]) and got[0].shape == shape
        for name in filled.group("p"):
            added = before.get("p", name) + zero.get("p", name)
            assert zero.get("p", name).any(), name
            assert np.array_equal(filled.get("p", name), added), name

    @pytest.mark.parametrize(
        "op,saved,n_inputs",
        [
            (Flatten(), (2, 3, 1, 1), 1),
            (ReLU(), (np.ones((2, 3)), 1), 1),
            (ReLU(), (np.ones((2, 3)), 3), 3),
            (GatedSum(), (1.0, 0.5), 2),
            (GatedSum(0.5), (1.0,), 1),
            (GlobalAvgPool(), (2, 3, 2, 2), 1),
        ],
    )
    def test_ops_without_parameters_return_only_input_gradients(self, op, saved, n_inputs):
        got = op.backward(np.ones((2, 3)), saved, None)
        assert type(got) is list and len(got) == n_inputs


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

    def test_train_values_no_context_holds_are_released(self):
        """A conv output read only by a norm is dead before the next conv
        runs, while the pass and its tape go on, and the tape still gives
        the gradients of a forward that kept every value (with ReLU saving
        the sum of its inputs: the mask y > 0 equals sum > 0)."""
        rng = np.random.default_rng(31)
        outputs, alive = [], []

        def recorded(cls):
            class Recorded(cls):
                def forward(self, *args, **kwargs):
                    alive.append([ref() is not None for ref in outputs])
                    out, ctx = super().forward(*args, **kwargs)
                    outputs.append(weakref.ref(out))
                    return out, ctx
            return Recorded

        ops = {
            1: (recorded(Conv2D)(3, 3, 4), (0,), "c"), 2: (ChannelNorm(4), (1,), "n"),
            3: (ReLU(), (2,), None), 4: (Conv2D(1, 4, 4), (3,), "p"),
            5: (ReLU(), (3, 4), None), 6: (recorded(StridedConvDownsample)(4, 4), (5,), "d"),
            7: (GlobalAvgPool(), (6,), None), 8: (Dense(4, 3), (7,), "h"),
        }
        nodes = [GraphNode(0, InputOp(), ())]
        nodes += [GraphNode(i, op, ins, param_key=key) for i, (op, ins, key) in ops.items()]
        params = params_for([(key, op) for op, _, key in ops.values() if key], rng)
        graph = ComputationGraph(nodes, (3, 7, 6))
        x = rng.standard_normal((2, 3, 7, 6))
        kept = params.clone()

        out, tape = forward(graph, params, x, "train")
        assert alive == [[], [False]]
        assert [ref() for ref in outputs] == [None, None]

        values, saved = [x], [None]
        for node in nodes[1:]:
            group = kept.group(node.param_key) if node.param_key else None
            ins = [values[i] for i in node.inputs]
            y, ctx = node.op.forward(ins, group, "train")
            values.append(y)
            saved.append((sum(ins[1:], ins[0]), len(ins)) if isinstance(node.op, ReLU) else ctx)
        assert outputs[2]() is values[1]
        assert np.array_equal(out.data, values[-1])

        g = rng.standard_normal(out.data.shape)
        grads, dx = backward(tape, g, return_input_grad=True)
        want, want_dx = backward(Tape("train", graph, kept, saved), g, return_input_grad=True)
        assert grads.equal(want) and np.array_equal(dx, want_dx)
        assert params.equal(kept)


class TestConvContexts:
    """A conv's train context keeps its input and weight, never columns."""

    def test_contexts_hold_the_input_itself_and_no_columns(self):
        model = lower(parse_network("IR 1-2-1", classes=3, input_size=12), ConvBlock(8, 2),
                      precision="f64")
        x = np.random.default_rng(5).standard_normal((2, *model.graph.input_shape))
        _, tape = forward(model.graph, model.params, x, "train")
        convs = [n for n in model.graph.nodes if isinstance(n.op, Conv2D) and not n.op.pointwise]
        assert {type(n.op) for n in convs} == {Conv2D, StridedConvDownsample}
        for node in convs:
            (src,) = node.inputs
            # The input is the graph input or a ReLU output, which ReLU's
            # own context already holds.
            if isinstance(model.graph.nodes[src].op, InputOp):
                held = x
            else:
                assert isinstance(model.graph.nodes[src].op, ReLU)
                held = tape.saved[src][0]
            ctx = tape.saved[node.idx]
            assert len(ctx) == 2 and ctx[0] is held, node.where
            assert ctx[1] is model.params.get(node.param_key, node.op.w_name), node.where

    def test_train_tape_holds_less_than_the_pass_outputs(self):
        """The distinct non-parameter bytes a conv model's train tape holds
        are at most the bytes of all node outputs of that pass."""
        model = lower(parse_network("IR 1-2-1", classes=4, input_size=32), ConvBlock(16, 4),
                      precision="f32")
        x = np.random.default_rng(6).standard_normal((32, 3, 32, 32)).astype(np.float32)
        _, tape = forward(model.graph, model.params, x, "train")

        def root(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        params = {id(root(v)) for _, _, v in model.params.flat_items()}
        held, todo = {}, list(tape.saved)
        while todo:
            item = todo.pop()
            if isinstance(item, np.ndarray) and id(root(item)) not in params:
                held[id(root(item))] = root(item)
            elif isinstance(item, (tuple, list)):
                todo.extend(item)
        outputs = sum(np.prod(s) for s in model.graph.infer_shapes()) * 32 * x.itemsize
        assert sum(a.nbytes for a in held.values()) <= outputs


class TestConvBlocks:
    """A non-pointwise conv walks its batch in blocks whose columns fit
    ``_COLUMN_BUDGET``; the block size changes no result bit and bounds the
    conv's transient memory."""

    @staticmethod
    def column_bytes(op, shape, itemsize):
        """One sample's im2col columns: c_in * k*k * hout * Q elements, Q
        the phase planes' row pitch."""
        _, c, h, w = shape
        k, s, pad = op.kernel, op.stride, op.pad
        hout, pitch = (h + 2 * pad - k) // s + 1, -(-(w + 2 * pad) // s)
        return c * k * k * hout * pitch * itemsize

    @staticmethod
    def run(op, x, g):
        """Forward output, and (dw, db, dx) with the input gradient asked
        for and (dw, db) without it, all as bytes."""
        graph = single_op_graph(op, x.shape[1:], key="c")
        params = params_for([("c", op)], np.random.default_rng(31))
        params = store_of(*[(k, n, v.astype(x.dtype)) for k, n, v in params.flat_items()])
        out, tape = forward(graph, params, x, "train")
        full, dx = backward(tape, g, return_input_grad=True)
        skipped = backward(tape, g)
        assert dx.shape == x.shape and dx.dtype == x.dtype
        return [out.data.tobytes(), dx.tobytes()] + [
            store.get("c", name).tobytes()
            for store in (full, skipped) for name in (op.w_name, op.b_name)
        ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(7, 5), (9, 9), (6, 11)])
    @pytest.mark.parametrize(
        "op", [Conv2D(3, 3, 5), Conv2D(3, 3, 5, stride=3), StridedConvDownsample(3, 5)],
        ids=["stride1", "stride3", "downsample"],
    )
    def test_block_splits_are_bitwise_equal(self, monkeypatch, op, hw, dtype):
        import polyres.engine as engine

        rng = np.random.default_rng(37)
        x = rng.standard_normal((7, 3, *hw)).astype(dtype)
        hout, wout = op.infer_shape([x.shape])[2:]
        g = rng.standard_normal((7, 5, hout, wout)).astype(dtype)
        sample = self.column_bytes(op, x.shape, x.itemsize)
        results = {}
        for per_block, sizes in [(7, [7]), (3, [3, 3, 1]), (1, [1] * 7)]:
            monkeypatch.setattr(engine, "_COLUMN_BUDGET", per_block * sample)
            assert [len(range(7)[b]) for b in op._blocks(x)] == sizes
            results[per_block] = self.run(op, x, g)
        assert results[3] == results[7]
        assert results[1] == results[7]

    def test_transients_do_not_grow_with_the_batch(self):
        """tracemalloc peak of one StridedConvDownsample(16, 16) forward and
        backward at 32 px, f32, less its output and gradients: batch 64
        holds under 1 MiB more than batch 8 (a whole batch's columns would
        be about 9 MiB more)."""
        import tracemalloc

        op = StridedConvDownsample(16, 16)
        params = store_of(*[
            ("c", spec.name, np.full(spec.shape, 0.01, np.float32)) for spec in op.param_specs()
        ])
        transient = {}
        for n in (8, 64):
            rng = np.random.default_rng(n)
            x = rng.standard_normal((n, 16, 32, 32)).astype(np.float32)
            g = rng.standard_normal((n, 16, 16, 16)).astype(np.float32)
            grads = params.zeros_like()
            op.forward([x], params.group("c"), "train")  # warm-up
            tracemalloc.start()
            try:
                y, ctx = op.forward([x], params.group("c"), "train")
                (dx,) = op.backward(g, ctx, grads.group("c"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transient[n] = peak - y.nbytes - dx.nbytes
        assert transient[64] - transient[8] < 1 << 20, transient


class TestArena:
    STATS = ("running_mean", "running_var")

    @staticmethod
    def conv_params():
        config = parse_network("A: ir -> 2-way", classes=3, input_size=8, base_width=4)
        return lower(config, ConvBlock(4, 2), precision="f64").params

    def test_lowering_returns_a_store_packed_in_flat_order(self):
        params = self.conv_params()
        entries = list(params.flat_items())
        arena = params.arena()
        assert list(params.flat_items()) == entries  # no repack: the same arrays
        trainable = [v for k, n, v in entries if n not in self.STATS]
        assert np.array_equal(arena, np.concatenate([v.ravel() for v in trainable]))
        for key, name, value in entries:
            assert value.base is arena.base, f"{key}/{name}"
            assert np.shares_memory(value, arena) == (name not in self.STATS), f"{key}/{name}"

    def test_allocate_packs_without_values(self):
        store = ParamStore.allocate([
            ("a", "w", (2, 3), np.float32), ("a", "running_var", (3,), np.float32),
            ("b", "w", (4,), np.float32), ("a", "b", (3,), np.float32),
        ])
        assert [(k, n, v.shape, v.dtype) for k, n, v in store.flat_items()] == [
            ("a", "w", (2, 3), np.float32), ("a", "running_var", (3,), np.float32),
            ("a", "b", (3,), np.float32), ("b", "w", (4,), np.float32),
        ]
        arena = store.arena()
        assert arena.size == 13 and arena.dtype == np.float32 and arena.base.size == 16
        assert np.shares_memory(store.get("a", "b"), arena)
        assert store.get("a", "running_var").base is arena.base
        assert not np.shares_memory(store.get("a", "running_var"), arena)
        with pytest.raises(EngineError, match="duplicate parameter a/w"):
            ParamStore.allocate([("a", "w", (1,), np.float32)] * 2)

    def test_allocate_rejects_two_dtypes(self):
        message = "^a parameter store holds one dtype, got float32, float64$"
        with pytest.raises(EngineError, match=message):
            ParamStore.allocate([("a", "w", (2,), np.float64), ("b", "w", (1,), np.float32)])

    def test_one_buffer_in_insertion_order_statistics_last(self):
        store = store_of(
            ("a", "w", np.ones(2)),
            ("a", "running_mean", np.full(2, 5.0)),
            ("a", "b", np.zeros(3)),
            ("c", "w", np.full(2, 2.0)),
        )
        assert np.array_equal(store.arena(), [1, 1, 0, 0, 0, 2, 2])
        assert np.array_equal(store.arena().base, [1, 1, 0, 0, 0, 2, 2, 5, 5])
        assert not np.shares_memory(store.get("a", "running_mean"), store.arena())

    def test_clone_holds_the_statistics_in_its_own_buffer(self):
        params = self.conv_params()
        twin = params.clone()
        assert twin.equal(params) and twin.layout() is params.layout()
        arena = twin.arena()
        assert not np.shares_memory(arena.base, params.arena().base)
        for key, name, value in twin.flat_items():
            assert value.base is arena.base, f"{key}/{name}"
            assert np.shares_memory(value, arena) == (name not in self.STATS), f"{key}/{name}"

    def test_zeros_like_holds_no_statistics(self):
        params = self.conv_params()
        trainable = [(k, n, v.shape) for k, n, v in params.flat_items(trainable_only=True)]
        zeros = params.zeros_like()
        assert [(k, n, v.shape) for k, n, v in zeros.flat_items()] == trainable
        assert zeros.layout() is params.layout()
        assert zeros.arena().base.size == params.arena().size and not zeros.arena().any()
        full = params.zeros_like(trainable_only=False)
        names = [(k, n) for k, n, _ in params.flat_items()]
        assert [(k, n) for k, n, _ in full.flat_items()] == names
        assert not full.arena().base.any()

    def test_first_non_finite_finds_a_nan_in_a_clones_running_variance(self):
        params = self.conv_params()
        twin = params.clone()
        assert twin.first_non_finite() is None
        twin.get("stem.norm", "running_var")[1] = np.nan
        assert twin.first_non_finite() == ("stem.norm", "running_var")
        assert params.first_non_finite() is None

    def test_backward_returns_a_new_zeroed_twin_per_call(self):
        # Node 1 reaches no output, so its tensors get zero gradients.
        rng = np.random.default_rng(5)
        nodes = [
            GraphNode(0, InputOp(), ()),
            GraphNode(1, Dense(3, 2), (0,), param_key="dead"),
            GraphNode(2, Dense(3, 2), (0,), param_key="live"),
        ]
        graph = ComputationGraph(nodes, (3,))
        params = params_for([("live", Dense(3, 2)), ("dead", Dense(3, 2))], rng)
        out, tape = forward(graph, params, rng.standard_normal((4, 3)), "train")
        first = backward(tape, np.ones_like(out.data))
        kept = first.get("live", "w")
        snapshot = kept.copy()
        second = backward(tape, 2 * np.ones_like(out.data))
        assert np.array_equal(kept, snapshot)  # a later call leaves earlier stores alone
        assert np.array_equal(second.get("live", "w"), 2 * snapshot)
        for grads in (first, second):
            assert grads.layout() is params.layout()
            assert not np.shares_memory(grads.get("live", "w"), params.get("live", "w"))
            for name in ("w", "b"):
                assert not grads.get("dead", name).any()
        assert not np.shares_memory(first.get("live", "w"), second.get("live", "w"))

    def test_groups_are_read_only_and_in_place_writes_reach_forward(self):
        op = Dense(3, 2)
        params = params_for([("d", op)], np.random.default_rng(0))
        for store in (params, params.clone(), params.zeros_like()):
            with pytest.raises(TypeError):
                store.group("d")["w"] = np.zeros((3, 2))
        params.group("d")["w"][...] = 0.0
        params.group("d")["b"][...] = 1.5
        out, _ = forward(single_op_graph(op, (3,), key="d"), params, np.ones((1, 3)), "eval")
        assert np.array_equal(out.data, np.full((1, 2), 1.5))

    def test_equal_compares_dtype_and_shape(self):
        def one(dtype, shape=(3,)):
            return store_of(("k", "w", np.ones(shape, dtype=dtype)))

        assert one(np.float32).equal(one(np.float32))
        assert not one(np.float32).equal(one(np.float64))
        assert not one(np.float64).equal(one(np.float32))
        assert not one(np.float64).equal(one(np.float64, (1, 3)))


class TestTensorFormat:
    @staticmethod
    def encode(a):
        return b"".join(tensor_parts(a))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, dtype):
        data = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(dtype)
        buf = self.encode(data)
        back, end = read_tensor(buf)
        assert back.dtype == dtype
        assert np.array_equal(back, data)
        assert end == len(buf)

    def test_f32_bytes_are_pinned(self):
        image = (np.arange(12, dtype=np.float32) - 5.5).reshape(3, 2, 2) / 4
        # Rank 3, extents (3, 2, 2), tag 32, then the values -1.375 to 1.375 in f32.
        expected = bytes.fromhex(
            "0300000000000000" "0300000000000000" "0200000000000000" "0200000000000000"
            "2000000000000000"
            "0000b0bf000090bf000060bf000020bf0000c0be000000be"
            "0000003e0000c03e0000203f0000603f0000903f0000b03f"
        )
        assert self.encode(image) == expected

    def test_header_layout_is_little_endian(self):
        buf = self.encode(np.zeros((2, 5), dtype=np.float64))
        assert int.from_bytes(buf[0:8], "little") == 2  # rank
        assert int.from_bytes(buf[8:16], "little") == 2
        assert int.from_bytes(buf[16:24], "little") == 5
        assert int.from_bytes(buf[24:32], "little") == 64  # precision tag
        assert len(buf) == 32 + 10 * 8

    def test_writer_takes_any_layout_and_rejects_other_dtypes(self):
        a = np.arange(12.0).reshape(3, 4)
        header, data = tensor_parts(a.T)
        assert header == tensor_header((4, 3), np.float64)
        assert data.flags.c_contiguous and np.array_equal(data, a.T)
        with pytest.raises(EngineError, match="f32 and f64"):
            tensor_parts(np.zeros(3, np.int64))

    def test_reader_returns_a_read_only_view_at_an_offset(self):
        a, b = np.arange(3.0), np.arange(4.0, dtype=np.float32).reshape(2, 2)
        first = self.encode(a)
        buf = first + self.encode(b)
        back, end = read_tensor(buf, len(first))
        assert np.array_equal(back, b) and end == len(buf)
        assert not back.flags.writeable

    def test_truncated_buffer_raises_engine_error(self):
        buf = self.encode(np.arange(6.0).reshape(2, 3))
        for cut in range(len(buf)):
            with pytest.raises(EngineError):
                read_tensor(buf[:cut])
            with pytest.raises(EngineError):
                read_tensor(b"pad" + buf[:cut], 3)

    @pytest.mark.parametrize(
        "header,message",
        [
            (struct.pack("<q", -1), "rank -1"),
            (struct.pack("<qqq", 1, 2, 16), "bad precision tag 16"),
            (struct.pack("<qqq", 1, -2, 32), "bad tensor extents (-2,)"),
        ],
    )
    def test_bad_header_raises_engine_error(self, header, message):
        with pytest.raises(EngineError, match=re.escape(message)):
            read_tensor(header + bytes(64))

    def test_reader_leaves_trailing_bytes_to_the_caller(self):
        buf = self.encode(np.arange(3.0))
        back, end = read_tensor(buf + b"\0" * 8)
        assert np.array_equal(back, np.arange(3.0))
        assert end == len(buf)

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
        params = params_for([("d", op)], np.random.default_rng(1))
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
