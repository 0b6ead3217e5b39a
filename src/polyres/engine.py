"""Dense tensor type, primitive kernels, and reverse-mode differentiation.

The engine executes small static computation graphs: a list of nodes in
topological order, each applying one primitive to earlier node outputs.
Parameters live in a :class:`ParamStore` keyed by share key, so two graph
nodes that reference the same key share (and co-train) the same tensors.

Everything is numpy underneath. Images are laid out (batch, channel, height,
width); vectors are (batch, feature). 64-bit precision is used by oracle and
equivalence tests, 32-bit by training.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal, Sequence

import numpy as np

from .algebra import ModuleKind

__all__ = [
    "EngineError",
    "ShapeError",
    "NumericError",
    "Precision",
    "DTYPES",
    "Tensor",
    "ParamStore",
    "GraphNode",
    "ModuleSite",
    "ComputationGraph",
    "Tape",
    "forward",
    "backward",
    "finite_diff_grad",
    "softmax",
    "softmax_cross_entropy",
    "InputOp",
    "Flatten",
    "Dense",
    "Conv2D",
    "StridedConvDownsample",
    "ReLU",
    "Add",
    "GatedSum",
    "ScalarScale",
    "ChannelNorm",
    "GlobalAvgPool",
]

Precision = Literal["f32", "f64"]
DTYPES: dict[str, np.dtype] = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}

# Numerical-stability epsilon used inside ChannelNorm (unrelated to the
# optimizer's epsilon).
NORM_EPS = 1e-5
NORM_MOMENTUM = 0.9

_STATE_NAMES = frozenset({"running_mean", "running_var"})


class EngineError(RuntimeError):
    pass


class ShapeError(EngineError):
    pass


class NumericError(EngineError):
    pass


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


def _as_array(x, dtype=None) -> np.ndarray:
    a = x.data if isinstance(x, Tensor) else np.asarray(x)
    if dtype is not None:
        a = np.ascontiguousarray(a, dtype=dtype)
    return a


@dataclass(frozen=True)
class Tensor:
    """A dense n-dimensional array with selectable element precision."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.dtype not in (DTYPES["f32"], DTYPES["f64"]):
            object.__setattr__(
                self, "data", np.ascontiguousarray(self.data, dtype=DTYPES["f64"])
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def precision(self) -> Precision:
        return "f32" if self.data.dtype == DTYPES["f32"] else "f64"

    def to_bytes(self) -> bytes:
        """Little-endian binary: rank, extents (int64 each), precision tag
        (int64, 32 or 64), then row-major data."""
        a = np.ascontiguousarray(self.data)
        bits = 32 if a.dtype == DTYPES["f32"] else 64
        header = struct.pack(
            f"<q{a.ndim}qq", a.ndim, *a.shape, bits
        )
        return header + a.astype(f"<f{bits // 8}", copy=False).tobytes(order="C")

    @classmethod
    def from_bytes(cls, buf) -> "Tensor":
        """Parse the tensor at the start of ``buf`` (bytes or a memoryview).
        Bytes after it are left to the caller; a buffer shorter than the
        header or than the data the header declares raises EngineError."""
        if len(buf) < 8:
            raise EngineError(f"truncated tensor header: buffer has {len(buf)} bytes")
        (rank,) = struct.unpack_from("<q", buf, 0)
        offset = 8 * (rank + 2)
        if rank < 0 or len(buf) < offset:
            raise EngineError(
                f"truncated tensor header: rank {rank}, buffer has {len(buf)} bytes"
            )
        extents = struct.unpack_from(f"<{rank}q", buf, 8)
        (bits,) = struct.unpack_from("<q", buf, 8 + 8 * rank)
        if bits not in (32, 64):
            raise EngineError(f"bad precision tag {bits}")
        if any(e < 0 for e in extents):
            raise EngineError(f"bad tensor extents {extents}")
        count = math.prod(extents)
        end = offset + count * (bits // 8)
        if len(buf) < end:
            raise EngineError(
                f"truncated tensor: shape {extents} at f{bits} needs {end} bytes, "
                f"buffer has {len(buf)}"
            )
        data = np.frombuffer(buf, dtype=f"<f{bits // 8}", count=count, offset=offset)
        dtype = DTYPES["f32"] if bits == 32 else DTYPES["f64"]
        return cls(data.reshape(extents).astype(dtype, copy=True))

    def byte_length(self) -> int:
        return 8 * (self.data.ndim + 2) + self.data.nbytes

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Tensor":
        """Read a file holding exactly one tensor."""
        with open(path, "rb") as fh:
            buf = fh.read()
        try:
            tensor = cls.from_bytes(buf)
        except EngineError as e:
            raise EngineError(f"{path}: {e}") from None
        if tensor.byte_length() != len(buf):
            raise EngineError(
                f"{path}: {len(buf) - tensor.byte_length()} trailing bytes after the tensor"
            )
        return tensor


# ---------------------------------------------------------------------------
# Parameter store
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered map share_key -> {tensor name -> ndarray}.

    Iteration order is insertion order, which is fixed by construction, so
    flattened views (used by the optimizer and the finite-difference oracle)
    are deterministic. ``running_mean``/``running_var`` are state, not
    trainable parameters.
    """

    def __init__(self):
        self._groups: dict[str, dict[str, np.ndarray]] = {}

    def add(self, key: str, name: str, value: np.ndarray) -> None:
        group = self._groups.setdefault(key, {})
        if name in group:
            raise EngineError(f"duplicate parameter {key}/{name}")
        group[name] = value

    def get(self, key: str, name: str) -> np.ndarray:
        try:
            return self._groups[key][name]
        except KeyError:
            raise EngineError(f"missing parameter {key}/{name}") from None

    def set(self, key: str, name: str, value: np.ndarray) -> None:
        self._groups.setdefault(key, {})[name] = value

    def group(self, key: str) -> dict[str, np.ndarray]:
        try:
            return self._groups[key]
        except KeyError:
            raise EngineError(f"missing parameter group {key!r}") from None

    def has_group(self, key: str) -> bool:
        return key in self._groups

    def keys(self) -> Iterator[str]:
        return iter(self._groups)

    def items(self) -> Iterator[tuple[str, dict[str, np.ndarray]]]:
        return iter(self._groups.items())

    def flat_items(
        self, trainable_only: bool = False
    ) -> Iterator[tuple[str, str, np.ndarray]]:
        for key, group in self._groups.items():
            for name, value in group.items():
                if trainable_only and name in _STATE_NAMES:
                    continue
                yield key, name, value

    def n_scalars(self, trainable_only: bool = True) -> int:
        return sum(v.size for _, _, v in self.flat_items(trainable_only))

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for key, name, value in self.flat_items():
            out.add(key, name, value.copy())
        return out

    def zeros_like(self, trainable_only: bool = True) -> "ParamStore":
        out = ParamStore()
        for key, name, value in self.flat_items(trainable_only):
            out.add(key, name, np.zeros_like(value))
        return out

    def equal(self, other: "ParamStore") -> bool:
        mine = {(k, n): v for k, n, v in self.flat_items()}
        theirs = {(k, n): v for k, n, v in other.flat_items()}
        if mine.keys() != theirs.keys():
            return False
        return all(np.array_equal(mine[k], theirs[k]) for k in mine)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class Op:
    """A primitive kernel: a shape rule, a forward, and a backward."""

    name = "op"

    def infer_shape(self, in_shapes: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, inputs, params, mode, gates=None):
        """Return (output array, saved context for backward)."""
        raise NotImplementedError

    def backward(self, grad, saved, input_grads=True):
        """Return (per-input gradients, param-name -> gradient or None).

        With ``input_grads`` False nobody reads the input gradients, and an
        op may skip them and return None in their place."""
        raise NotImplementedError

    def macs(self, in_shapes, out_shape) -> int:
        """Multiply-accumulate count for these shapes (elementwise ops are
        costed as zero)."""
        return 0

    def __repr__(self):
        return self.name


class InputOp(Op):
    name = "input"

    def infer_shape(self, in_shapes):
        raise EngineError("input node has no shape rule")


class Flatten(Op):
    """Collapse all non-batch axes into one feature axis."""

    name = "flatten"

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        return (s[0], int(np.prod(s[1:])))

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad, saved, input_grads=True):
        return [grad.reshape(saved)], None


class Dense(Op):
    """Affine map on (batch, feature) tensors: y = x @ w + b."""

    name = "dense"

    def __init__(self, d_in: int, d_out: int):
        self.d_in = d_in
        self.d_out = d_out

    def init_params(self, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
        std = np.sqrt(2.0 / self.d_in)
        return {
            "w": (rng.standard_normal((self.d_in, self.d_out)) * std).astype(dtype),
            "b": np.zeros(self.d_out, dtype=dtype),
        }

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) != 2 or s[1] != self.d_in:
            raise ShapeError(f"dense expects (batch, {self.d_in}), got {s}")
        return (s[0], self.d_out)

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        return x @ params["w"] + params["b"], (x, params["w"])

    def backward(self, grad, saved, input_grads=True):
        x, w = saved
        dx = grad @ w.T if input_grads else None
        return [dx], {"w": x.T @ grad, "b": grad.sum(axis=0)}

    def macs(self, in_shapes, out_shape):
        return in_shapes[0][0] * self.d_in * self.d_out


def _conv_geometry(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Lower (b, c, h, w) to columns (b, c*k*k, hout*wout): one copy of the
    input into a zero-bordered buffer, then one strided copy per kernel tap."""
    b, c, h, w = x.shape
    hout, wout = _conv_geometry(h, w, k, stride, pad)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    cols = np.empty((b, c, k, k, hout, wout), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[
                :, :, i : i + stride * hout : stride, j : j + stride * wout : stride
            ]
    return cols.reshape(b, c * k * k, hout * wout)


def _col2im(
    dcols: np.ndarray, x_shape, k: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add the columns back onto the
    (bordered) input grid and return its interior."""
    b, c, h, w = x_shape
    hout, wout = _conv_geometry(h, w, k, stride, pad)
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    dc = dcols.reshape(b, c, k, k, hout, wout)
    for i in range(k):
        for j in range(k):
            dxp[
                :, :, i : i + stride * hout : stride, j : j + stride * wout : stride
            ] += dc[:, :, i, j]
    return dxp[:, :, pad : pad + h, pad : pad + w]


class Conv2D(Op):
    """2D convolution, same padding at stride 1 (kernel 1x1 or 3x3).

    Every conv is a batched GEMM of the (c_out, c_in*k*k) weight matrix with
    a (batch, c_in*k*k, pixels) column tensor. A 1x1 stride-1 conv uses the
    input itself, reshaped to (batch, c_in, h*w), as its columns: no copy,
    so the saved view aliases the input and nothing may write to it. Other
    convs build the columns with im2col from a zero-bordered copy of the
    input. Backward is two more GEMMs, dw = sum_b g_b cols_b^T and
    dcols = w^T g, then col2im (or a reshape, for 1x1 stride 1).
    """

    name = "conv2d"

    def __init__(self, kernel: int, c_in: int, c_out: int, stride: int = 1):
        if kernel not in (1, 3):
            raise EngineError(f"unsupported kernel size {kernel}")
        self.kernel = kernel
        self.c_in = c_in
        self.c_out = c_out
        self.stride = stride
        self.pad = kernel // 2
        self.pointwise = kernel == 1 and stride == 1

    def init_params(self, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
        fan_in = self.kernel * self.kernel * self.c_in
        std = np.sqrt(2.0 / fan_in)
        shape = (self.c_out, self.c_in, self.kernel, self.kernel)
        return {
            "w": (rng.standard_normal(shape) * std).astype(dtype),
            "b": np.zeros(self.c_out, dtype=dtype),
        }

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) != 4 or s[1] != self.c_in:
            raise ShapeError(f"conv expects (batch, {self.c_in}, h, w), got {s}")
        hout, wout = _conv_geometry(s[2], s[3], self.kernel, self.stride, self.pad)
        return (s[0], self.c_out, hout, wout)

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        w, b = params["w"], params["b"]
        n, _, h, wd = x.shape
        hout, wout = _conv_geometry(h, wd, self.kernel, self.stride, self.pad)
        if self.pointwise:
            cols = x.reshape(n, self.c_in, h * wd)
        else:
            cols = _im2col(x, self.kernel, self.stride, self.pad)
        y = (w.reshape(self.c_out, -1) @ cols).reshape(n, self.c_out, hout, wout)
        y += b[None, :, None, None]
        return y, (x.shape, w, cols)

    def backward(self, grad, saved, input_grads=True):
        x_shape, w, cols = saved
        g2 = grad.reshape(grad.shape[0], self.c_out, -1)
        dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = grad.sum(axis=(0, 2, 3))
        if not input_grads:
            return [None], {"w": dw, "b": db}
        dcols = w.reshape(self.c_out, -1).T @ g2
        if self.pointwise:
            dx = dcols.reshape(x_shape)
        else:
            dx = _col2im(dcols, x_shape, self.kernel, self.stride, self.pad)
        return [dx], {"w": dw, "b": db}

    def macs(self, in_shapes, out_shape):
        b, _, hout, wout = out_shape
        return b * hout * wout * self.kernel * self.kernel * self.c_in * self.c_out


class StridedConvDownsample(Conv2D):
    """3x3 stride-2 convolution used at the stem and stage transitions."""

    name = "strided_downsample"

    def __init__(self, c_in: int, c_out: int):
        super().__init__(kernel=3, c_in=c_in, c_out=c_out, stride=2)


class ReLU(Op):
    name = "relu"

    def infer_shape(self, in_shapes):
        return in_shapes[0]

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        y = np.maximum(x, 0)
        return y, x

    def backward(self, grad, saved, input_grads=True):
        return [grad * (saved > 0)], None


class Add(Op):
    """Elementwise sum of any number of same-shaped inputs."""

    name = "add"

    def infer_shape(self, in_shapes):
        if len(set(in_shapes)) != 1:
            raise ShapeError(f"add inputs disagree: {in_shapes}")
        return in_shapes[0]

    def forward(self, inputs, params, mode, gates=None):
        out = inputs[0].copy()
        for x in inputs[1:]:
            out += x
        return out, len(inputs)

    def backward(self, grad, saved, input_grads=True):
        return [grad] * saved, None


class GatedSum(Op):
    """Sum of monomial-path outputs with per-path scalar gates.

    Gate values are supplied at call time (one scalar per input); absent
    gates default to all-ones, which makes the op a plain sum. Dropping a
    path is gating it to zero.
    """

    name = "gated_sum"

    def infer_shape(self, in_shapes):
        if len(set(in_shapes)) != 1:
            raise ShapeError(f"gated sum inputs disagree: {in_shapes}")
        return in_shapes[0]

    def forward(self, inputs, params, mode, gates=None):
        if gates is None:
            g = (1.0,) * len(inputs)
        else:
            g = tuple(float(v) for v in gates)
            if len(g) != len(inputs):
                raise ShapeError(f"gate vector length {len(g)} != {len(inputs)}")
        out = np.zeros_like(inputs[0])
        for gi, x in zip(g, inputs):
            if gi != 0.0:
                out += gi * x if gi != 1.0 else x
        return out, g

    def backward(self, grad, saved, input_grads=True):
        return [grad * gi if gi != 1.0 else grad for gi in saved], None


class ScalarScale(Op):
    """Multiply by a fixed scalar (the residual dampening factor)."""

    name = "scale"

    def __init__(self, beta: float):
        self.beta = float(beta)

    def infer_shape(self, in_shapes):
        return in_shapes[0]

    def forward(self, inputs, params, mode, gates=None):
        return self.beta * inputs[0], None

    def backward(self, grad, saved, input_grads=True):
        return [self.beta * grad], None


class ChannelNorm(Op):
    """Per-channel standardization with a learned affine.

    Train mode normalizes with batch statistics and folds them into running
    stats (momentum 0.9, mutated in place on the ParamStore); eval mode uses
    the running stats, folded with the affine into one per-channel scale and
    shift. Channel axis is axis 1 for both (batch, feature) and
    (batch, channel, h, w) layouts.
    """

    name = "channel_norm"

    def __init__(self, channels: int):
        self.channels = channels

    def init_params(self, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
        return {
            "gamma": np.ones(self.channels, dtype=dtype),
            "beta": np.zeros(self.channels, dtype=dtype),
            "running_mean": np.zeros(self.channels, dtype=dtype),
            "running_var": np.ones(self.channels, dtype=dtype),
        }

    def _axes_and_view(self, ndim: int):
        if ndim == 2:
            return (0,), (1, self.channels)
        if ndim == 4:
            return (0, 2, 3), (1, self.channels, 1, 1)
        raise ShapeError(f"channel norm expects rank 2 or 4, got rank {ndim}")

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) not in (2, 4) or s[1] != self.channels:
            raise ShapeError(f"channel norm expects {self.channels} channels, got {s}")
        return s

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        axes, view = self._axes_and_view(x.ndim)
        gamma, beta = params["gamma"], params["beta"]
        rm, rv = params["running_mean"], params["running_var"]
        if mode != "train":
            # Running stats and the affine fold into one per-channel scale
            # and shift; nothing is saved, as no backward reads an eval pass.
            scale = gamma / np.sqrt(rv + NORM_EPS)
            shift = beta - rm * scale
            y = x * scale.reshape(view)
            y += shift.reshape(view)
            return y, None
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        rm *= NORM_MOMENTUM
        rm += (1.0 - NORM_MOMENTUM) * mu
        rv *= NORM_MOMENTUM
        rv += (1.0 - NORM_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + NORM_EPS)
        xhat = (x - mu.reshape(view)) * inv_std.reshape(view)
        y = gamma.reshape(view) * xhat + beta.reshape(view)
        return y, (xhat, inv_std, gamma, axes, view)

    def backward(self, grad, saved, input_grads=True):
        xhat, inv_std, gamma, axes, view = saved
        dgamma = (grad * xhat).sum(axis=axes)
        dbeta = grad.sum(axis=axes)
        dxhat = grad * gamma.reshape(view)
        # Batch-statistics chain rule, written against xhat.
        dx = (
            dxhat
            - dxhat.mean(axis=axes).reshape(view)
            - xhat * (dxhat * xhat).mean(axis=axes).reshape(view)
        ) * inv_std.reshape(view)
        return [dx], {"gamma": dgamma, "beta": dbeta}


class GlobalAvgPool(Op):
    """(batch, channel, h, w) -> (batch, channel) spatial mean."""

    name = "global_avg_pool"

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) != 4:
            raise ShapeError(f"global pool expects rank 4, got {s}")
        return (s[0], s[1])

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, grad, saved, input_grads=True):
        b, c, h, w = saved
        dx = np.broadcast_to(grad[:, :, None, None], saved) / (h * w)
        return [np.ascontiguousarray(dx)], None


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphNode:
    idx: int
    op: Op
    inputs: tuple[int, ...]
    param_key: str | None = None
    label: str = ""
    segment: str = ""  # cost-attribution tag: stem / <stage>.<i> / transition / head
    # Maps the op's local tensor names to names inside the share-key group,
    # so several ops can store their tensors under one shared key.
    param_names: dict[str, str] | None = None

    def resolve_params(self, params: "ParamStore") -> dict[str, np.ndarray] | None:
        if self.param_key is None:
            return None
        group = params.group(self.param_key)
        if self.param_names is None:
            return group
        return {local: group[stored] for local, stored in self.param_names.items()}

    def stored_name(self, local: str) -> str:
        if self.param_names is None:
            return local
        return self.param_names[local]

    @property
    def where(self) -> str:
        """``node <idx> (<label>)``: how errors about this node name it."""
        return f"node {self.idx} ({self.label or self.op.name})"


@dataclass(frozen=True)
class ModuleSite:
    """Metadata for one residual module inside a lowered graph."""

    stage: str
    index_in_stage: int
    global_index: int
    kind: ModuleKind
    gate_node: int
    n_paths: int
    block_keys: tuple[str, ...]
    block_apps: int
    segment: str


def _cache_field(default):
    return field(default=default, init=False, repr=False, compare=False)


@dataclass
class ComputationGraph:
    """Nodes in topological order; the last one is the output. Building a
    graph checks nothing: :meth:`infer_shapes` checks it at its first run
    or costing and keeps the result, so its nodes must not change after."""

    nodes: list[GraphNode]
    input_shape: tuple[int, ...]  # per-sample shape, batch excluded
    modules: list[ModuleSite] = field(default_factory=list)
    _shapes: tuple[tuple[int, ...], ...] | None = _cache_field(None)
    # Per node: the values it is the last reader of (never the output).
    _frees: tuple[tuple[int, ...], ...] = _cache_field(())
    # Per node: whether backward reads its input gradients, that is whether
    # a trainable node sits at or above one of its inputs.
    _grad_read: tuple[bool, ...] = _cache_field(())

    @property
    def output(self) -> int:
        return self.nodes[-1].idx

    def infer_shapes(
        self, input_shape: Sequence[int] | None = None
    ) -> tuple[tuple[int, ...], ...]:
        """Check the graph and return each node's output shape for one
        sample of ``input_shape`` (default: the graph's own input).

        The only shape pass; :func:`forward` and the cost counters use it.
        A node reading itself or a later node raises EngineError, an op
        whose shape rule rejects its inputs ShapeError; both name the node.
        The result at the graph's own input shape is cached, together with
        the last-use and gradient-read tables that :func:`forward` and
        :func:`backward` follow; a failure is not, so it is raised again at
        every call.
        """
        input_shape = self.input_shape if input_shape is None else tuple(input_shape)
        own = input_shape == self.input_shape
        if own and self._shapes is not None:
            return self._shapes
        shapes: list[tuple[int, ...]] = []
        n = len(self.nodes)
        last_use = list(range(n))
        grad_read = [False] * n
        trainable_above = [False] * n
        for node in self.nodes:
            idx = node.idx
            for i in node.inputs:
                if i >= idx:
                    raise EngineError(f"{node.where} reads a later node {i}")
                last_use[i] = idx
                grad_read[idx] = grad_read[idx] or trainable_above[i]
            trainable_above[idx] = grad_read[idx] or node.param_key is not None
            if isinstance(node.op, InputOp):
                shapes.append((1, *input_shape))
                continue
            try:
                shapes.append(node.op.infer_shape([shapes[i] for i in node.inputs]))
            except ShapeError as e:
                raise ShapeError(f"{node.where}: {e}") from None
        if own:
            frees: list[list[int]] = [[] for _ in self.nodes]
            for i, last in enumerate(last_use):
                if i != self.output:
                    frees[last].append(i)
            self._frees = tuple(map(tuple, frees))
            self._grad_read = tuple(grad_read)
            # Set last: concurrent first forwards read the tables once this is set.
            self._shapes = tuple(shapes)
        return tuple(shapes)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Tape:
    """Per-node context recorded by a train-mode forward pass, consumed by
    backward. An eval-mode tape records no context."""

    mode: str
    graph: ComputationGraph
    saved: list
    input_array: np.ndarray


def forward(
    graph: ComputationGraph,
    params: ParamStore,
    x,
    mode: str = "train",
    gates: dict[int, Sequence[float]] | None = None,
    allow_eval_gates: bool = False,
    *,
    check_finite: bool = False,
) -> tuple[Tensor, Tape]:
    """Evaluate the graph in topological order.

    ``gates`` maps gate-node index -> per-path multipliers for this call.
    Eval mode uses running norm statistics and ignores gates (unless
    ``allow_eval_gates`` opts into deterministic eval-time path scaling).
    Wiring and shapes are checked once per graph, by
    :meth:`ComputationGraph.infer_shapes`. With ``check_finite`` the first
    node whose output holds a NaN or Inf raises NumericError naming it.

    Train mode records every node's context on the tape. Eval mode records
    none and drops each value right after its last reader has run, so an
    eval pass holds only the values a later node still reads.
    """
    if mode not in ("train", "eval"):
        raise EngineError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = _as_array(x)
    if x.shape[1:] != graph.input_shape:
        raise ShapeError(
            f"input shape {x.shape[1:]} != graph input {graph.input_shape}"
        )
    graph.infer_shapes()
    train = mode == "train"
    if not train and not allow_eval_gates:
        gates = None
    values: list[np.ndarray] = [None] * len(graph.nodes)
    saved: list = [None] * len(graph.nodes) if train else []
    for node, frees in zip(graph.nodes, graph._frees):
        if isinstance(node.op, InputOp):
            values[node.idx] = x
            continue
        ins = [values[i] for i in node.inputs]
        group = node.resolve_params(params)
        gate_vec = gates.get(node.idx) if gates else None
        try:
            out, ctx = node.op.forward(ins, group, mode, gates=gate_vec)
        except ShapeError as e:
            raise ShapeError(f"{node.where}: {e}") from None
        if check_finite and not np.all(np.isfinite(out)):
            raise NumericError(f"non-finite output at {node.where}")
        values[node.idx] = out
        if train:
            saved[node.idx] = ctx
        else:
            # Release the context and the values read for the last time
            # (this one too, if nothing reads it) before the next op allocates.
            del out, ctx
            for i in frees:
                values[i] = None
    return Tensor(values[graph.output]), Tape(mode, graph, saved, x)


def backward(
    tape: Tape, upstream, return_input_grad: bool = False
) -> ParamStore | tuple[ParamStore, np.ndarray]:
    """Reverse the tape, accumulating gradients per trainable parameter.

    Share keys referenced by several nodes receive the sum of all occurrence
    contributions. The tape must come from a train-mode forward. Unless
    ``return_input_grad`` is set, a node with no trainable node at or above
    any of its inputs (the stem conv, or the dense stem behind ``Flatten``)
    skips its input gradient.
    """
    if tape.mode != "train":
        raise EngineError("backward requires a train-mode tape")
    graph = tape.graph
    upstream = _as_array(upstream)
    node_grads: dict[int, np.ndarray] = {graph.output: upstream}
    grads = ParamStore()
    input_grad: np.ndarray | None = None
    for node in reversed(graph.nodes):
        g = node_grads.pop(node.idx, None)
        if g is None:
            continue
        if isinstance(node.op, InputOp):
            input_grad = g
            continue
        need = return_input_grad or graph._grad_read[node.idx]
        in_grads, p_grads = node.op.backward(g, tape.saved[node.idx], input_grads=need)
        for i, gi in zip(node.inputs, in_grads if need else ()):
            if i in node_grads:
                node_grads[i] = node_grads[i] + gi
            else:
                node_grads[i] = gi
        if p_grads:
            for local, pg in p_grads.items():
                name = node.stored_name(local)
                if grads.has_group(node.param_key) and name in grads.group(node.param_key):
                    grads.group(node.param_key)[name] += pg
                else:
                    grads.set(node.param_key, name, pg)
    if return_input_grad:
        return grads, input_grad
    return grads


# ---------------------------------------------------------------------------
# Loss and the finite-difference oracle
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient wrt logits."""
    logits = _as_array(logits)
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(b), labels].mean()
    dlogits = np.exp(log_probs)
    dlogits[np.arange(b), labels] -= 1.0
    return float(loss), dlogits / b


def finite_diff_grad(
    loss_fn: Callable[[ParamStore], float], params: ParamStore, h: float = 1e-6
) -> ParamStore:
    """Central-difference gradient of a deterministic loss, per scalar.

    Independent of the backward pass by construction; requires 64-bit
    parameters.
    """
    for key, name, value in params.flat_items(trainable_only=True):
        if value.dtype != DTYPES["f64"]:
            raise EngineError(
                f"finite differences need f64 parameters ({key}/{name} is {value.dtype})"
            )
    grads = params.zeros_like(trainable_only=True)
    for key, name, value in params.flat_items(trainable_only=True):
        g = grads.get(key, name)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
    return grads
