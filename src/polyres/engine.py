"""Tensor file format, primitive kernels, and reverse-mode differentiation.

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
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EngineError",
    "ShapeError",
    "NumericError",
    "Precision",
    "DTYPES",
    "Tensor",
    "tensor_header",
    "tensor_parts",
    "read_tensor",
    "ParamStore",
    "ParamSpec",
    "init_tensors",
    "GraphNode",
    "ComputationGraph",
    "Tape",
    "forward",
    "backward",
    "finite_diff_grad",
    "softmax",
    "softmax_cross_entropy",
    "ParamOp",
    "InputOp",
    "Flatten",
    "Dense",
    "Conv2D",
    "StridedConvDownsample",
    "ReLU",
    "GatedSum",
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

# Where a tensor sits in a ParamStore: (key, name, shape, dtype, span of the
# store's buffer).
_Slot = tuple[str, str, tuple[int, ...], np.dtype, slice]


class EngineError(RuntimeError):
    pass


class ShapeError(EngineError):
    pass


class NumericError(EngineError):
    pass


# ---------------------------------------------------------------------------
# Tensor file format
# ---------------------------------------------------------------------------


def tensor_header(shape: tuple[int, ...], dtype) -> bytes:
    """The header of the binary tensor format for an array of this shape and
    dtype (f32 or f64): rank, extents and precision tag (32 or 64), each a
    little-endian int64."""
    return struct.pack(f"<q{len(shape)}qq", len(shape), *shape, 8 * np.dtype(dtype).itemsize)


def tensor_parts(a: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The binary tensor format of f32 or f64 array ``a`` in two parts: its
    header and its row-major data as a contiguous little-endian array. The
    encoding is the header's bytes followed by the data's."""
    if a.dtype.kind != "f" or a.itemsize not in (4, 8):
        raise EngineError(f"only f32 and f64 tensors can be written, got {a.dtype}")
    return tensor_header(a.shape, a.dtype), np.ascontiguousarray(a, f"<f{a.itemsize}")


def read_tensor(buf, offset: int = 0) -> tuple[np.ndarray, int]:
    """The tensor encoded at ``offset`` of ``buf`` (bytes or a memoryview),
    as a read-only array view into ``buf``, and the offset just past it.
    Bytes after it are left to the caller; bytes too few for the header or
    for the data the header declares, or a header that is not one raise
    EngineError."""
    have = len(buf) - offset
    if have < 8:
        raise EngineError(f"truncated tensor header: buffer has {have} bytes")
    (rank,) = struct.unpack_from("<q", buf, offset)
    start = offset + 8 * (rank + 2)
    if rank < 0 or len(buf) < start:
        raise EngineError(f"truncated tensor header: rank {rank}, buffer has {have} bytes")
    extents = struct.unpack_from(f"<{rank}q", buf, offset + 8)
    (bits,) = struct.unpack_from("<q", buf, start - 8)
    if bits not in (32, 64):
        raise EngineError(f"bad precision tag {bits}")
    if any(e < 0 for e in extents):
        raise EngineError(f"bad tensor extents {extents}")
    count = math.prod(extents)
    end = start + count * (bits // 8)
    if len(buf) < end:
        raise EngineError(
            f"truncated tensor: shape {extents} at f{bits} needs {end - offset} bytes, "
            f"buffer has {have}"
        )
    data = np.frombuffer(buf, f"<f{bits // 8}", count, start).reshape(extents)
    data.flags.writeable = False
    return data, end


@dataclass(frozen=True)
class Tensor:
    """The output of :func:`forward`: the graph output array."""

    data: np.ndarray


# ---------------------------------------------------------------------------
# Parameter store
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered map share_key -> {tensor name -> ndarray}.

    Iteration order is the order of the entries the store was allocated
    with, so flattened views (used by the optimizer and the
    finite-difference oracle) are deterministic. ``running_mean``/
    ``running_var`` are state, not trainable parameters.

    A store comes from :meth:`allocate` (as in ``lower`` and
    ``load_checkpoint``) or is a twin of one (:meth:`clone`,
    :meth:`zeros_like`); ``ParamStore()`` is the empty store of a graph
    without parameters. Every tensor is a view into one buffer of one
    dtype: the trainable tensors first, in ``flat_items(trainable_only=True)``
    order (the arena), then the running statistics. A twin binds the same
    entry table, shared layout included, to a new buffer, with one view per
    entry that buffer holds: ``zeros_like`` is the arena alone, ``clone`` a
    full copy. Views are set once and never rebound: groups are read-only
    mappings, and writes go through the views in place, so they stay the
    tensors that :func:`forward` reads, also while other threads read the
    store. Tensor names are the ones each op declares in its
    ``param_specs``.
    """

    def __init__(self):
        self._groups: dict[str, Mapping[str, np.ndarray]] = {}
        self._layout: tuple[_Slot, ...] = ()  # the trainable tensors, in arena order
        self._table: tuple[tuple[str, tuple[_Slot, ...]], ...] = ()  # per group, its slots
        self._buffer = self._arena = np.empty(0)
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def allocate(
        cls, entries: Iterable[tuple[str, str, tuple[int, ...], np.dtype]]
    ) -> "ParamStore":
        """A store of uninitialised tensors, one per ``(key, name, shape,
        dtype)`` entry: groups in the order their key first appears, tensors
        in entry order within a group. Every entry must have the same dtype.
        The one place a layout is made: one pass groups the entries, one
        places them."""
        groups: dict[str, dict[str, tuple[tuple[int, ...], int]]] = {}
        dtypes = set()
        n_arena = 0
        for key, name, shape, dtype in entries:
            group = groups.get(key)
            if group is None:
                group = groups[key] = {}
            elif name in group:
                raise EngineError(f"duplicate parameter {key}/{name}")
            size = math.prod(shape)
            group[name] = (shape, size)
            dtypes.add(dtype)
            if name not in _STATE_NAMES:
                n_arena += size
        dtypes = {np.dtype(d) for d in dtypes}
        if len(dtypes) > 1:
            names = ", ".join(sorted(map(str, dtypes)))
            raise EngineError(f"a parameter store holds one dtype, got {names}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        # The next free offset of the arena and of the running statistics,
        # which follow it.
        ends = [0, n_arena]
        layout, table = [], []
        for key, group in groups.items():
            slots = []
            for name, (shape, size) in group.items():
                part = name in _STATE_NAMES
                span = slice(ends[part], ends[part] + size)
                ends[part] = span.stop
                slots.append((key, name, shape, dtype, span))
                if not part:
                    layout.append(slots[-1])
            table.append((key, tuple(slots)))
        store = cls()
        store._layout, store._table = tuple(layout), tuple(table)
        return store._twin(np.empty(ends[1], dtype))

    def get(self, key: str, name: str) -> np.ndarray:
        try:
            return self._groups[key][name]
        except KeyError:
            raise EngineError(f"missing parameter {key}/{name}") from None

    def group(self, key: str) -> Mapping[str, np.ndarray]:
        try:
            return self._groups[key]
        except KeyError:
            raise EngineError(f"missing parameter group {key!r}") from None

    def keys(self) -> Iterator[str]:
        return iter(self._groups)

    def flat_items(
        self, trainable_only: bool = False
    ) -> Iterator[tuple[str, str, np.ndarray]]:
        for key, group in self._groups.items():
            for name, value in group.items():
                if trainable_only and name in _STATE_NAMES:
                    continue
                yield key, name, value

    def layout(self) -> tuple[_Slot, ...]:
        """``(key, name, shape, dtype, span)`` of each trainable tensor, in
        arena order."""
        return self._layout

    def arena(self) -> np.ndarray:
        """The head of the buffer that holds every trainable tensor."""
        return self._arena

    def _twin(self, buffer: np.ndarray) -> "ParamStore":
        """This store's entry table bound to ``buffer``, one view per entry
        that the buffer holds, made in one pass over the table."""
        out = ParamStore()
        out._layout, out._table, out._buffer = self._layout, self._table, buffer
        out._arena = buffer[: self._layout[-1][4].stop if self._layout else 0]
        size = buffer.size
        groups = (
            (key, {n: buffer[s].reshape(shape) for _, n, shape, _, s in slots if s.stop <= size})
            for key, slots in self._table
        )
        out._groups = {key: MappingProxyType(group) for key, group in groups if group}
        return out

    def clone(self) -> "ParamStore":
        return self._twin(self._buffer.copy())

    def zeros_like(self, trainable_only: bool = True) -> "ParamStore":
        return self._twin(np.zeros_like(self._arena if trainable_only else self._buffer))

    def scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Two work arrays of at least ``size`` elements of the store's
        dtype, made at the first call and kept by the store, so a blocked
        in-place update (RMSProp, on its state store) allocates nothing
        after its first step."""
        if self._scratch is None or self._scratch[0].size < size:
            dtype = self._buffer.dtype
            self._scratch = (np.empty(size, dtype), np.empty(size, dtype))
        return self._scratch

    def first_non_finite(self) -> tuple[str, str] | None:
        """``(key, name)`` of the first tensor holding a NaN or Inf, or None.
        One scan of the store's buffer; the tensors are searched one by one
        only when it fails."""
        if np.isfinite(self._buffer).all():
            return None
        return next((k, n) for k, n, v in self.flat_items() if not np.isfinite(v).all())

    def equal(self, other: "ParamStore") -> bool:
        """Whether both stores hold the same tensors: names, dtypes, shapes
        and values."""
        mine = {(k, n): v for k, n, v in self.flat_items()}
        theirs = {(k, n): v for k, n, v in other.flat_items()}
        if mine.keys() != theirs.keys():
            return False
        return all(
            mine[k].dtype == theirs[k].dtype and np.array_equal(mine[k], theirs[k])
            for k in mine
        )


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class Op:
    """A primitive kernel: a shape rule, a forward, and a backward.

    No kernel writes into an array it did not allocate, except the gradient
    group its backward is handed: inputs, gradients and saved contexts may be
    shared (ReLU.backward hands one gradient array to every input, and a
    conv's context holds its input array)."""

    name = "op"

    def infer_shape(self, in_shapes: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, inputs, params, mode, gates=None):
        """Return (output array, saved context for backward)."""
        raise NotImplementedError

    def backward(self, grad, saved, grads, input_grads=True):
        """Add the parameter gradients into ``grads``, the node's group of the
        step's gradient store (None without a share key), never assigning its
        views, as nodes sharing a key add into the same ones; return the list
        of per-input gradients. With ``input_grads`` False nobody reads those,
        and an op may skip them and return None in their place."""
        raise NotImplementedError

    def macs(self, in_shapes, out_shape) -> int:
        """Multiply-accumulate count for these shapes (elementwise ops are
        costed as zero)."""
        return 0

    def __repr__(self):
        return self.name


class ParamSpec(NamedTuple):
    """One tensor that a parameter op binds: its name, its shape and its
    initial value, either He fan-in (a standard normal draw times ``std``)
    or the constant ``fill``."""

    name: str
    shape: tuple[int, ...]
    std: float | None = None
    fill: float = 0.0


# Most scalars one initialization draw covers: 64 KiB of f64, below the size
# at which the allocator maps fresh pages for each draw. A larger tensor is
# drawn on its own.
_DRAW_BLOCK = 1 << 13


def init_tensors(bindings: Sequence[tuple[np.ndarray, ParamSpec]], rng: np.random.Generator) -> None:
    """Write each spec's initial value into its array, in place.

    He tensors take consecutive ``rng.standard_normal`` values in the order
    given, drawn a block of tensors at a time; each block is scaled by its
    std in f64 and cast on assignment, so the values equal one draw per
    tensor, bitwise."""
    he = []
    for value, spec in bindings:
        if spec.std is None:
            value.fill(spec.fill)
        else:
            he.append((value, spec.std))
    i = 0
    while i < len(he):
        j, n = i + 1, he[i][0].size
        while j < len(he) and n + he[j][0].size <= _DRAW_BLOCK:
            n += he[j][0].size
            j += 1
        draw, start = rng.standard_normal(n), 0
        for value, std in he[i:j]:
            part = draw[start : start + value.size]
            part *= std
            value[...] = part.reshape(value.shape)
            start += value.size
        i = j


class ParamOp(Op):
    """An op that binds tensors. It declares them; lowering allocates them in
    its model's arena and initializes them there with :func:`init_tensors`."""

    def param_specs(self) -> tuple[ParamSpec, ...]:
        raise NotImplementedError


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

    def backward(self, grad, saved, grads, input_grads=True):
        return [grad.reshape(saved)]


_INTEGERS = (int, np.integer)


def _check_sizes(op: str, **sizes) -> None:
    for name, value in sizes.items():
        if not isinstance(value, _INTEGERS) or value < 1:
            raise EngineError(f"{op} {name} must be a positive integer, got {value!r}")


class Dense(ParamOp):
    """Affine map on (batch, feature) tensors: y = x @ w + b. The tensors are
    named ``w<suffix>`` and ``b<suffix>``, so several layers can keep theirs
    under one share key."""

    name = "dense"

    def __init__(self, d_in: int, d_out: int, suffix: str = ""):
        _check_sizes("dense", d_in=d_in, d_out=d_out)
        self.d_in = d_in
        self.d_out = d_out
        self.w_name, self.b_name = "w" + suffix, "b" + suffix

    def param_specs(self):
        return (
            ParamSpec(self.w_name, (self.d_in, self.d_out), std=math.sqrt(2.0 / self.d_in)),
            ParamSpec(self.b_name, (self.d_out,)),
        )

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) != 2 or s[1] != self.d_in:
            raise ShapeError(f"dense expects (batch, {self.d_in}), got {s}")
        return (s[0], self.d_out)

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        w = params[self.w_name]
        return x @ w + params[self.b_name], (x, w)

    def backward(self, grad, saved, grads, input_grads=True):
        x, w = saved
        grads[self.w_name][...] += x.T @ grad
        grads[self.b_name][...] += grad.sum(axis=0)
        return [grad @ w.T if input_grads else None]

    def macs(self, in_shapes, out_shape):
        return in_shapes[0][0] * self.d_in * self.d_out


def _conv_geometry(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def _phase_planes(x_shape, dtype, k: int, stride: int, pad: int):
    """Zeroed phase planes (s*s, n, c, R*Q + (k-1)//s) of the zero-bordered
    input xp, s the stride: plane ``a*s + b`` holds ``xp[s*r + a, s*q + b]``
    at ``r*Q + q``, for R = ceil((h + 2*pad) / s) rows of pitch Q =
    ceil((w + 2*pad) / s). Returns, as views of the planes, per kernel tap
    (row-major) the (n, c, hout*Q) slice whose element ``oy*Q + ox`` the tap
    reads for output pixel (oy, ox), and per phase the view of its pixels
    inside the input, with their index into the input."""
    n, c, h, w = x_shape
    s, rows, q = stride, -(-(h + 2 * pad) // stride), -(-(w + 2 * pad) // stride)
    planes = np.zeros((s * s, n, c, rows * q + (k - 1) // s), dtype)
    span = _conv_geometry(h, w, k, s, pad)[0] * q
    offsets = [(i // s * q + j // s, i % s * s + j % s) for i in range(k) for j in range(k)]
    taps = [planes[p, ..., off : off + span] for off, p in offsets]
    grid = planes[..., : rows * q].reshape(s, s, n, c, rows, q)
    # Per phase and axis: the plane indices that hold input pixels, and those
    # pixels' input indices; input index y sits at plane index (y + pad) // s.
    spans = [
        [(slice((y + pad) // s, (y + pad) // s + (size - y + s - 1) // s), slice(y, size, s))
         for y in [(a - pad) % s for a in range(s)]]
        for size in (h, w)
    ]
    views = [(grid[a, b, ..., rh, rw], (..., yh, yw))
             for a, (rh, yh) in enumerate(spans[0]) for b, (rw, yw) in enumerate(spans[1])]
    return taps, views


def _conv_input_grad(g2: np.ndarray, w: np.ndarray, x_shape, stride: int, pad: int) -> np.ndarray:
    """Input gradient from the row-pitched output gradient ``g2`` (n, c_out,
    hout*Q), zero in its pad columns: per kernel tap one GEMM ``w[:, :, i,
    j]^T g`` into a reused work array, added onto the tap's slice of zeroed
    phase planes, in tap order. The planes' interior is the input gradient."""
    c, k = x_shape[1], w.shape[-1]
    w_taps = w.transpose(2, 3, 1, 0).reshape(k * k, c, -1).copy()  # (k*k, c_in, c_out)
    taps, views = _phase_planes(x_shape, g2.dtype, k, stride, pad)
    work = np.empty_like(taps[0])
    for w_tap, tap in zip(w_taps, taps):
        np.matmul(w_tap, g2, out=work)
        tap += work
    dx = np.empty(x_shape, dtype=g2.dtype)
    for view, index in views:
        dx[index] = view
    return dx


class Conv2D(ParamOp):
    """2D convolution, same padding at stride 1 (kernel 1x1 or 3x3). Its
    context is its input and weight.

    A 1x1 stride-1 conv is a batched GEMM of the (c_out, c_in) weight with
    the input itself reshaped to (batch, c_in, h*w): no copy, so nothing may
    write to the input. Other convs copy the input into zero-bordered phase
    planes of one row pitch Q (:func:`_phase_planes`), where a kernel tap is
    one contiguous slice. Forward stacks the tap slices into columns for one
    GEMM and crops the Q - wout pad columns off its output. Backward builds
    the planes again, pitches the output gradient with zero pad columns and
    takes dw per tap with one batched GEMM against the tap's slice; see
    :func:`_conv_input_grad` for dx. Tensors are named as for :class:`Dense`.
    """

    name = "conv2d"

    def __init__(self, kernel: int, c_in: int, c_out: int, stride: int = 1, suffix: str = ""):
        if kernel not in (1, 3):
            raise EngineError(f"unsupported kernel size {kernel}")
        _check_sizes("conv", c_in=c_in, c_out=c_out, stride=stride)
        self.kernel = kernel
        self.c_in = c_in
        self.c_out = c_out
        self.stride = stride
        self.pad = kernel // 2
        self.pointwise = kernel == 1 and stride == 1
        self.w_name, self.b_name = "w" + suffix, "b" + suffix

    def param_specs(self):
        fan_in = self.kernel * self.kernel * self.c_in
        return (
            ParamSpec(
                self.w_name, (self.c_out, self.c_in, self.kernel, self.kernel),
                std=math.sqrt(2.0 / fan_in),
            ),
            ParamSpec(self.b_name, (self.c_out,)),
        )

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) != 4 or s[1] != self.c_in:
            raise ShapeError(f"conv expects (batch, {self.c_in}, h, w), got {s}")
        hout, wout = _conv_geometry(s[2], s[3], self.kernel, self.stride, self.pad)
        return (s[0], self.c_out, hout, wout)

    def _input_taps(self, x):
        taps, views = _phase_planes(x.shape, x.dtype, self.kernel, self.stride, self.pad)
        for view, index in views:
            view[...] = x[index]  # the one copy of x
        return taps

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        w, b = params[self.w_name], params[self.b_name][None, :, None, None]
        n, w2 = x.shape[0], w.reshape(self.c_out, -1)
        hout, wout = _conv_geometry(*x.shape[2:], self.kernel, self.stride, self.pad)
        if self.pointwise:
            y = (w2 @ x.reshape(n, self.c_in, -1)).reshape(n, self.c_out, hout, wout)
        else:
            taps = self._input_taps(x)
            cols = np.empty((n, self.c_in, len(taps), taps[0].shape[-1]), dtype=x.dtype)
            for t, tap in enumerate(taps):
                cols[:, :, t] = tap
            del taps
            y = (w2 @ cols.reshape(n, -1, cols.shape[-1])).reshape(n, self.c_out, hout, -1)
            del cols
            y = y[..., :wout].copy()  # one copy crops the pad columns
        y += b
        return y, (x, w)

    def backward(self, grad, saved, grads, input_grads=True):
        x, w = saved
        n, _, hout, wout = grad.shape
        if self.pointwise:
            g2 = grad.reshape(n, self.c_out, -1)
            dw = np.matmul(g2, x.reshape(n, self.c_in, -1).transpose(0, 2, 1)).sum(axis=0)
        else:
            taps = self._input_taps(x)
            g2 = np.zeros((n, self.c_out, hout, taps[0].shape[-1] // hout), dtype=grad.dtype)
            g2[..., :wout] = grad
            g2 = g2.reshape(n, self.c_out, -1)
            dw = np.empty((self.c_out, self.c_in, len(taps)), dtype=grad.dtype)
            for t, tap in enumerate(taps):
                dw[:, :, t] = np.matmul(g2, tap.transpose(0, 2, 1)).sum(axis=0)
            del taps, tap  # frees the planes before the input gradient makes its own
        grads[self.w_name][...] += dw.reshape(w.shape)
        grads[self.b_name][...] += grad.sum(axis=(0, 2, 3))
        if not input_grads:
            return [None]
        if self.pointwise:
            return [(w.reshape(self.c_out, -1).T @ g2).reshape(x.shape)]
        return [_conv_input_grad(g2, w, x.shape, self.stride, self.pad)]

    def macs(self, in_shapes, out_shape):
        b, _, hout, wout = out_shape
        return b * hout * wout * self.kernel * self.kernel * self.c_in * self.c_out


class StridedConvDownsample(Conv2D):
    """3x3 stride-2 convolution used at the stem and stage transitions."""

    name = "strided_downsample"

    def __init__(self, c_in: int, c_out: int):
        super().__init__(kernel=3, c_in=c_in, c_out=c_out, stride=2)


class ReLU(Op):
    """Rectified sum of any number of same-shaped inputs: ``relu(x)``, or
    ``relu(x + branch)`` at a module output."""

    name = "relu"

    def infer_shape(self, in_shapes):
        if len(set(in_shapes)) != 1:
            raise ShapeError(f"relu inputs disagree: {in_shapes}")
        return in_shapes[0]

    def forward(self, inputs, params, mode, gates=None):
        y = np.maximum(sum(inputs[1:], inputs[0]), 0)
        # y > 0 exactly where the sum is > 0, so the inputs need not be kept
        return y, (y, len(inputs))

    def backward(self, grad, saved, grads, input_grads=True):
        y, n = saved
        return [grad * (y > 0)] * n


class GatedSum(Op):
    """Residual branch of a module: ``beta`` times the sum of its
    monomial-path outputs, each scaled by a per-path gate.

    Gate values are supplied at call time (one scalar per input); absent
    gates default to all-ones, which makes the op a plain sum. Dropping a
    path is gating it to zero.
    """

    name = "gated_sum"

    def __init__(self, beta: float = 1.0):
        self.beta = float(beta)

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
        if self.beta != 1.0:
            out *= self.beta
        return out, g

    def backward(self, grad, saved, grads, input_grads=True):
        if self.beta != 1.0:
            grad = self.beta * grad
        return [grad * gi if gi != 1.0 else grad for gi in saved]


class ChannelNorm(ParamOp):
    """Per-channel standardization with a learned affine.

    Train mode normalizes with batch statistics and folds them into running
    stats (momentum 0.9, mutated in place on the ParamStore); eval mode uses
    the running stats, folded with the affine into one per-channel scale and
    shift. Both (batch, feature) and (batch, channel, h, w) inputs are
    handled as a (batch, channel, pixels) view, with one pixel for the
    first; batch statistics are sums over the pixels, then over the batch.
    """

    name = "channel_norm"

    def __init__(self, channels: int):
        self.channels = channels

    def param_specs(self):
        c = (self.channels,)
        return (
            ParamSpec("gamma", c, fill=1.0),
            ParamSpec("beta", c),
            ParamSpec("running_mean", c),
            ParamSpec("running_var", c, fill=1.0),
        )

    def infer_shape(self, in_shapes):
        (s,) = in_shapes
        if len(s) not in (2, 4) or s[1] != self.channels:
            raise ShapeError(f"channel norm expects {self.channels} channels, got {s}")
        return s

    def forward(self, inputs, params, mode, gates=None):
        (x,) = inputs
        gamma, beta = params["gamma"], params["beta"]
        rm, rv = params["running_mean"], params["running_var"]
        x3 = x.reshape(x.shape[0], self.channels, -1)
        if mode != "train":
            # Running stats and the affine fold into one per-channel scale
            # and shift; nothing is saved, as no backward reads an eval pass.
            scale = gamma / np.sqrt(rv + NORM_EPS)
            shift = beta - rm * scale
            y = x3 * scale[:, None]
            y += shift[:, None]
            return y.reshape(x.shape), None
        n = x3.shape[0] * x3.shape[2]
        mu = x3.sum(axis=2).sum(axis=0) / n
        xhat = x3 - mu[:, None]
        y = np.multiply(xhat, xhat)
        var = y.sum(axis=2).sum(axis=0) / n
        rm *= NORM_MOMENTUM
        rm += (1.0 - NORM_MOMENTUM) * mu
        rv *= NORM_MOMENTUM
        rv += (1.0 - NORM_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + NORM_EPS)
        xhat *= inv_std[:, None]
        np.multiply(xhat, gamma[:, None], out=y)
        y += beta[:, None]
        return y.reshape(x.shape), (xhat, inv_std, gamma)

    def backward(self, grad, saved, grads, input_grads=True):
        xhat, inv_std, gamma = saved
        g3 = grad.reshape(xhat.shape)
        n = xhat.shape[0] * xhat.shape[2]
        dbeta = g3.sum(axis=2).sum(axis=0)
        dx = np.multiply(g3, xhat)
        dgamma = dx.sum(axis=2).sum(axis=0)
        # Folded batch-statistics chain rule:
        # dx = gamma * inv_std * (g - dbeta/n - xhat * dgamma/n).
        np.multiply(xhat, (dgamma / n)[:, None], out=dx)
        np.subtract(g3, dx, out=dx)
        dx -= (dbeta / n)[:, None]
        dx *= (gamma * inv_std)[:, None]
        grads["gamma"][...] += dgamma
        grads["beta"][...] += dbeta
        return [dx.reshape(grad.shape)]


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

    def backward(self, grad, saved, grads, input_grads=True):
        b, c, h, w = saved
        dx = np.broadcast_to(grad[:, :, None, None], saved) / (h * w)
        return [np.ascontiguousarray(dx)]


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


class GraphNode(NamedTuple):
    idx: int
    op: Op
    inputs: tuple[int, ...]
    param_key: str | None = None
    label: str = ""
    segment: str = ""  # cost-attribution tag: stem / <stage>.<i> / transition / head

    @property
    def where(self) -> str:
        """``node <idx> (<label>)``: how errors about this node name it."""
        return f"node {self.idx} ({self.label or self.op.name})"


def _cache_field(default):
    return field(default=default, init=False, repr=False, compare=False)


@dataclass
class ComputationGraph:
    """Nodes in topological order; the last one is the output. Building a
    graph checks nothing: :meth:`infer_shapes` checks it at its first run
    or costing and keeps the result, so its nodes must not change after."""

    nodes: list[GraphNode]
    input_shape: tuple[int, ...]  # per-sample shape, batch excluded
    _shapes: tuple[tuple[int, ...], ...] | None = _cache_field(None)
    # Per node: the values it is the last reader of (never the output).
    _frees: tuple[tuple[int, ...], ...] = _cache_field(())
    # Per node: whether backward reads its input gradients, that is whether
    # a trainable node sits at or above one of its inputs.
    _grad_read: tuple[bool, ...] = _cache_field(())

    @property
    def output(self) -> int:
        return self.nodes[-1].idx

    def infer_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Check the graph and return each node's output shape for one
        sample of its input.

        The only shape pass; :func:`forward` and the cost counters use it.
        A node reading itself or a later node raises EngineError, an op
        whose shape rule rejects its inputs ShapeError; both name the node.
        The result is cached, together with the last-use and gradient-read
        tables that :func:`forward` and :func:`backward` follow; a failure
        is not, so it is raised again at every call.
        """
        if self._shapes is not None:
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
                shapes.append((1, *self.input_shape))
                continue
            try:
                shapes.append(node.op.infer_shape([shapes[i] for i in node.inputs]))
            except ShapeError as e:
                raise ShapeError(f"{node.where}: {e}") from None
        frees: list[list[int]] = [[] for _ in self.nodes]
        for i, last in enumerate(last_use):
            if i != self.output:
                frees[last].append(i)
        self._frees = tuple(map(tuple, frees))
        self._grad_read = tuple(grad_read)
        # Set last: concurrent first forwards read the tables once this is set.
        self._shapes = tuple(shapes)
        return self._shapes


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Tape:
    """Per-node context recorded by a train-mode forward pass, consumed by
    backward, and the parameters the pass read. An eval-mode tape records
    no context."""

    mode: str
    graph: ComputationGraph
    params: ParamStore
    saved: list


def forward(
    graph: ComputationGraph,
    params: ParamStore,
    x,
    mode: str = "train",
    gates: dict[int, Sequence[float]] | None = None,
    *,
    check_finite: bool = False,
) -> tuple[Tensor, Tape]:
    """Evaluate the graph in topological order.

    ``gates`` maps gate-node index -> per-path multipliers for this call,
    in either mode. Eval mode uses running norm statistics.
    Wiring and shapes are checked once per graph, by
    :meth:`ComputationGraph.infer_shapes`. With ``check_finite`` the first
    node whose output holds a NaN or Inf raises NumericError naming it.

    Both modes drop each value right after its last reader has run. Train
    mode records every node's context on the tape, which keeps exactly the
    arrays backward reads; a value no context holds is released, so a train
    pass holds only those and the values a later node still reads. Eval mode
    records no context.
    """
    if mode not in ("train", "eval"):
        raise EngineError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x)
    if x.shape[1:] != graph.input_shape:
        raise ShapeError(
            f"input shape {x.shape[1:]} != graph input {graph.input_shape}"
        )
    graph.infer_shapes()
    train = mode == "train"
    values: list[np.ndarray] = [None] * len(graph.nodes)
    saved: list = [None] * len(graph.nodes) if train else []
    for node, frees in zip(graph.nodes, graph._frees):
        if isinstance(node.op, InputOp):
            values[node.idx] = x
            continue
        ins = [values[i] for i in node.inputs]
        group = None if node.param_key is None else params.group(node.param_key)
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
        # Release the values read for the last time (this one too, if nothing
        # reads it) before the next op allocates; contexts keep what backward reads.
        del out, ctx
        for i in frees:
            values[i] = None
    return Tensor(values[graph.output]), Tape(mode, graph, params, saved)


def backward(
    tape: Tape, upstream, return_input_grad: bool = False
) -> ParamStore | tuple[ParamStore, np.ndarray]:
    """Reverse the tape, accumulating gradients per trainable parameter.

    The gradients are a new zeroed twin of the parameters' layout (see
    :class:`ParamStore`). Each node's op adds its parameter gradients into
    its key's group of the twin, so a tensor no node reached keeps a zero
    gradient, and share keys referenced by several nodes receive the sum of
    all occurrence contributions, in reverse node order. The tape must come
    from a train-mode forward. Unless
    ``return_input_grad`` is set, a node with no trainable node at or above
    any of its inputs (the stem conv, or the dense stem behind ``Flatten``)
    skips its input gradient.
    """
    if tape.mode != "train":
        raise EngineError("backward requires a train-mode tape")
    graph = tape.graph
    upstream = np.asarray(upstream)
    node_grads: dict[int, np.ndarray] = {graph.output: upstream}
    grads = tape.params.zeros_like(trainable_only=True)
    input_grad: np.ndarray | None = None
    for node in reversed(graph.nodes):
        g = node_grads.pop(node.idx, None)
        if g is None:
            continue
        if isinstance(node.op, InputOp):
            input_grad = g
            continue
        need = return_input_grad or graph._grad_read[node.idx]
        group = None if node.param_key is None else grads.group(node.param_key)
        in_grads = node.op.backward(g, tape.saved[node.idx], group, input_grads=need)
        for i, gi in zip(node.inputs, in_grads if need else ()):
            if i in node_grads:
                node_grads[i] = node_grads[i] + gi
            else:
                node_grads[i] = gi
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
    logits = np.asarray(logits)
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

    The scalars are perturbed one at a time in arena order, which is
    ``flat_items(trainable_only=True)`` order. Independent of the backward
    pass by construction; requires 64-bit parameters.
    """
    flat = params.arena()
    if flat.dtype != DTYPES["f64"]:
        raise EngineError(f"finite differences need f64 parameters, not {flat.dtype}")
    grads = params.zeros_like(trainable_only=True)
    gflat = grads.arena()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn(params)
        flat[i] = orig - h
        down = loss_fn(params)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grads
