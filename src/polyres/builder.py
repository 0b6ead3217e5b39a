"""Lower architecture configs into executable models.

Lowering turns each module kind into its cascaded graph (each distinct
first-applied prefix evaluated once), wires stem / stage transitions / head
around the stages, and initializes a ParamStore whose share keys realize the
parameter sharing demanded by the module algebra. Model surgery (module
upgrades and interleaved deepening) re-lowers and retains matching
parameters bitwise.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algebra import ModuleKind, module_monomials
from .dsl import NetworkConfig, StageConfig, parse_network, render_network
from .engine import (
    DTYPES,
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
    ModuleSite,
    Op,
    ParamStore,
    Precision,
    ReLU,
    ScalarScale,
    StridedConvDownsample,
    Tensor,
    forward,
)

__all__ = [
    "BlockArch",
    "DenseBlock",
    "ConvBlock",
    "parse_arch",
    "Model",
    "ModelMeta",
    "lower",
    "upgrade",
    "deepen_interleave",
    "save_checkpoint",
    "load_checkpoint",
]


# ---------------------------------------------------------------------------
# Block architectures (stand-in shape-preserving residual blocks)
# ---------------------------------------------------------------------------


class BlockArch:
    """A residual block template. Input and output shapes match so block
    composition is well-typed; instantiated blocks adopt the stage width and
    keep this template's internal proportions."""

    tag = "block"

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def last_layer_names(self) -> tuple[str, ...]:
        """Stored names of the final linear layer (used by zero_last)."""
        raise NotImplementedError

    def make_params(self, width: int, rng, dtype) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def emit(self, gb: "_GraphBuilder", x: int, width: int, key: str, segment: str) -> int:
        raise NotImplementedError


def _he(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


@dataclass(frozen=True)
class DenseBlock(BlockArch):
    """Two-layer perceptron block: x -> w2 @ relu(w1 @ x)."""

    dim: int
    hidden: int

    tag = "dense"

    @property
    def descriptor(self) -> str:
        return f"dense:{self.dim},{self.hidden}"

    def hidden_at(self, width: int) -> int:
        return max(1, round(width * self.hidden / self.dim))

    def last_layer_names(self) -> tuple[str, ...]:
        return ("w2", "b2")

    def make_params(self, width, rng, dtype):
        h = self.hidden_at(width)
        return {
            "w1": _he(rng, (width, h), width, dtype),
            "b1": np.zeros(h, dtype=dtype),
            "w2": _he(rng, (h, width), h, dtype),
            "b2": np.zeros(width, dtype=dtype),
        }

    def emit(self, gb, x, width, key, segment):
        h = self.hidden_at(width)
        n = gb.add(Dense(width, h), [x], key, segment, {"w": "w1", "b": "b1"})
        n = gb.add(ReLU(), [n], segment=segment)
        return gb.add(Dense(h, width), [n], key, segment, {"w": "w2", "b": "b2"})


@dataclass(frozen=True)
class ConvBlock(BlockArch):
    """Bottleneck conv block: 1x1 reduce, relu, 3x3, relu, 1x1 restore."""

    channels: int
    reduction: int

    tag = "conv"

    @property
    def descriptor(self) -> str:
        return f"conv:{self.channels},{self.reduction}"

    def mid_at(self, width: int) -> int:
        return max(1, round(width / self.reduction))

    def last_layer_names(self) -> tuple[str, ...]:
        return ("w3", "b3")

    def make_params(self, width, rng, dtype):
        m = self.mid_at(width)
        return {
            "w1": _he(rng, (m, width, 1, 1), width, dtype),
            "b1": np.zeros(m, dtype=dtype),
            "w2": _he(rng, (m, m, 3, 3), 9 * m, dtype),
            "b2": np.zeros(m, dtype=dtype),
            "w3": _he(rng, (width, m, 1, 1), m, dtype),
            "b3": np.zeros(width, dtype=dtype),
        }

    def emit(self, gb, x, width, key, segment):
        m = self.mid_at(width)
        n = gb.add(Conv2D(1, width, m), [x], key, segment, {"w": "w1", "b": "b1"})
        n = gb.add(ReLU(), [n], segment=segment)
        n = gb.add(Conv2D(3, m, m), [n], key, segment, {"w": "w2", "b": "b2"})
        n = gb.add(ReLU(), [n], segment=segment)
        return gb.add(Conv2D(1, m, width), [n], key, segment, {"w": "w3", "b": "b3"})


def parse_arch(text: str) -> BlockArch:
    """Parse a block descriptor like ``dense:4,8`` or ``conv:16,4``."""
    try:
        tag, args = text.split(":", 1)
        a, b = (int(v) for v in args.split(","))
    except ValueError:
        raise ValueError(f"bad block descriptor {text!r}; expected tag:a,b") from None
    if tag == "dense":
        return DenseBlock(a, b)
    if tag == "conv":
        return ConvBlock(a, b)
    raise ValueError(f"unknown block tag {tag!r}")


# ---------------------------------------------------------------------------
# Graph builder
# ---------------------------------------------------------------------------


class _GraphBuilder:
    def __init__(self, input_shape: tuple[int, ...], params: ParamStore, rng, dtype):
        self.nodes: list[GraphNode] = []
        self.modules: list[ModuleSite] = []
        self.input_shape = input_shape
        self.params = params
        self.rng = rng
        self.dtype = dtype
        self.add(InputOp(), [], segment="input")

    def add(
        self,
        op: Op,
        inputs: Sequence[int],
        key: str | None = None,
        segment: str = "",
        param_names: dict[str, str] | None = None,
        label: str = "",
    ) -> int:
        # Parameters are created lazily at the first node that uses a key, so
        # initialization draws follow graph-emission order deterministically.
        if key is not None and not self.params.has_group(key) and hasattr(op, "init_params"):
            for local, value in op.init_params(self.rng, self.dtype).items():
                stored = (param_names or {}).get(local, local)
                self.params.add(key, stored, value)
        idx = len(self.nodes)
        self.nodes.append(
            GraphNode(
                idx=idx,
                op=op,
                inputs=tuple(inputs),
                param_key=key,
                label=label or f"{segment}/{op.name}",
                segment=segment,
                param_names=param_names,
            )
        )
        return idx

    def graph(self) -> ComputationGraph:
        return ComputationGraph(self.nodes, self.input_shape, self.modules)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class ModelMeta:
    config: NetworkConfig
    arch: BlockArch
    beta: float
    seed: int
    precision: Precision
    memoize: bool
    input_channels: int
    iteration: int = 0

    @property
    def config_text(self) -> str:
        return render_network(self.config)


@dataclass
class Model:
    graph: ComputationGraph
    params: ParamStore
    meta: ModelMeta

    @property
    def modules(self) -> list[ModuleSite]:
        return self.graph.modules

    def forward(self, x, mode: str = "eval", gates=None, allow_eval_gates: bool = False):
        return forward(self.graph, self.params, x, mode, gates, allow_eval_gates)

    def logits(self, x, mode: str = "eval") -> np.ndarray:
        out, _ = self.forward(x, mode)
        return out.data

    def clone(self) -> "Model":
        return Model(self.graph, self.params.clone(), replace(self.meta))


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _emit_module(
    gb: _GraphBuilder,
    arch: BlockArch,
    x: int,
    width: int,
    stage: str,
    idx_in_stage: int,
    global_idx: int,
    kind: ModuleKind,
    beta: float,
    memoize: bool,
) -> int:
    segment = f"{stage}.{idx_in_stage}"
    monomials = module_monomials(kind)
    letters: list[str] = []
    for mono in monomials:
        for b in mono:
            if b.share_key not in letters:
                letters.append(b.share_key)
    keys = {c: f"{segment}.{c}" for c in letters}
    for c in letters:
        for name, value in arch.make_params(width, gb.rng, gb.dtype).items():
            gb.params.add(keys[c], name, value)

    block_apps = 0
    memo: dict[tuple[str, ...], int] = {(): x}
    path_nodes: list[int] = []
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

    gate_node = gb.add(GatedSum(), path_nodes, segment=segment, label=f"{segment}/paths")
    branch = gate_node
    if beta != 1.0:
        branch = gb.add(ScalarScale(beta), [branch], segment=segment)
    out = gb.add(Add(), [x, branch], segment=segment)
    out = gb.add(ReLU(), [out], segment=segment)
    gb.modules.append(
        ModuleSite(
            stage=stage,
            index_in_stage=idx_in_stage,
            global_index=global_idx,
            kind=kind,
            gate_node=gate_node,
            n_paths=len(monomials),
            block_keys=tuple(keys[c] for c in letters),
            block_apps=block_apps,
            segment=segment,
        )
    )
    return out


def lower(
    config: NetworkConfig,
    arch: BlockArch,
    beta: float = 1.0,
    seed: int = 0,
    precision: Precision = "f32",
    memoize: bool = True,
    input_channels: int = 3,
) -> Model:
    """Build an executable model from a config and a block template.

    The graph is the cascaded (prefix-memoized) form of every module unless
    ``memoize=False``, which lowers the naive polynomial instead (same
    parameters, more block applications; used by equivalence checks).
    Parameters are He fan-in initialized from ``seed``. The pipeline is
    stem -> stages with stride-2 transitions -> pooled classifier head;
    dense blocks get a flattened-vector pipeline of the same shape.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    dtype = DTYPES[precision]
    rng = np.random.default_rng(seed)
    size = config.input_size
    conv = isinstance(arch, ConvBlock)
    params = ParamStore()
    gb = _GraphBuilder((input_channels, size, size), params, rng, dtype)

    widths = [s.width for s in config.stages]
    w0 = widths[0]
    if conv:
        x = gb.add(Conv2D(3, input_channels, w0), [0], "stem.conv", "stem")
        x = gb.add(ChannelNorm(w0), [x], "stem.norm", "stem")
        x = gb.add(ReLU(), [x], segment="stem")
        x = gb.add(StridedConvDownsample(w0, w0), [x], "stem.down", "stem")
        x = gb.add(ReLU(), [x], segment="stem")
    else:
        x = gb.add(Flatten(), [0], segment="stem")
        x = gb.add(Dense(input_channels * size * size, w0), [x], "stem.fc", "stem")
        x = gb.add(ChannelNorm(w0), [x], "stem.norm", "stem")
        x = gb.add(ReLU(), [x], segment="stem")

    global_idx = 0
    for i, stage in enumerate(config.stages):
        for j, kind in enumerate(stage.modules):
            x = _emit_module(
                gb, arch, x, stage.width, stage.name, j, global_idx, kind, beta, memoize
            )
            global_idx += 1
        if i + 1 < len(config.stages):
            nxt = config.stages[i + 1]
            key = f"trans.{stage.name}-{nxt.name}"
            seg = f"{stage.name}->{nxt.name}"
            if conv:
                x = gb.add(
                    StridedConvDownsample(stage.width, nxt.width), [x], f"{key}.conv", seg
                )
            else:
                x = gb.add(Dense(stage.width, nxt.width), [x], f"{key}.fc", seg)
            x = gb.add(ChannelNorm(nxt.width), [x], f"{key}.norm", seg)
            x = gb.add(ReLU(), [x], segment=seg)

    if conv:
        x = gb.add(GlobalAvgPool(), [x], segment="head")
    gb.add(Dense(widths[-1], config.classes), [x], "head.fc", "head")

    meta = ModelMeta(
        config=config, arch=arch, beta=beta, seed=seed, precision=precision,
        memoize=memoize, input_channels=input_channels,
    )
    return Model(graph=gb.graph(), params=params, meta=meta)


# ---------------------------------------------------------------------------
# Surgery
# ---------------------------------------------------------------------------


def _copy_group(dst: ParamStore, src: ParamStore, dst_key: str, src_key: str) -> None:
    dgroup, sgroup = dst.group(dst_key), src.group(src_key)
    if dgroup.keys() != sgroup.keys():
        raise EngineError(f"parameter group mismatch {src_key} -> {dst_key}")
    for name, value in sgroup.items():
        if dgroup[name].shape != value.shape:
            raise EngineError(f"shape mismatch for {dst_key}/{name}")
        dgroup[name] = value.copy()


def _zero_last_layer(params: ParamStore, key: str, arch: BlockArch) -> None:
    group = params.group(key)
    for name in arch.last_layer_names():
        group[name] = np.zeros_like(group[name])


def upgrade(
    model: Model, target: NetworkConfig, zero_last: bool = False, seed: int = 0
) -> Model:
    """Replace module kinds in place, retaining every matching block.

    The target must differ from the source config only by module-kind
    substitutions at matching positions. Blocks whose letter exists at the
    same position in the source keep its parameters bitwise (the first-order
    block F always does); newly inserted blocks are freshly initialized from
    ``seed``. With ``zero_last`` each new block's final linear layer is
    zeroed so the new paths contribute nothing at insertion time; that is
    rejected for shared-parameter (poly) targets, where the "new" paths
    reuse the retained block.
    """
    src_cfg = model.meta.config
    if len(target.stages) != len(src_cfg.stages):
        raise ValueError("upgrade target has a different stage count")
    for s, t in zip(src_cfg.stages, target.stages):
        if s.name != t.name or len(s.modules) != len(t.modules) or s.width != t.width:
            raise ValueError(
                f"upgrade target stage {t.name!r} is not position-compatible"
            )
    if target.input_size != src_cfg.input_size or target.classes != src_cfg.classes:
        raise ValueError("upgrade cannot change input size or class count")
    if zero_last:
        for s, t in zip(src_cfg.stages, target.stages):
            for src_kind, tgt_kind in zip(s.modules, t.modules):
                if tgt_kind.family == "poly" and tgt_kind.order > 1 and tgt_kind != src_kind:
                    raise ValueError(
                        "zero_last is undefined for shared-parameter poly targets: "
                        "zeroing the shared block would erase the retained one"
                    )

    out = lower(
        target, model.meta.arch, model.meta.beta, seed,
        model.meta.precision, model.meta.memoize, model.meta.input_channels,
    )
    src_modules = {(m.stage, m.index_in_stage): m for m in model.modules}
    new_block_keys: list[str] = []
    for site in out.modules:
        src_site = src_modules[(site.stage, site.index_in_stage)]
        retained = set(src_site.block_keys)
        for key in site.block_keys:
            if key in retained:
                _copy_group(out.params, model.params, key, key)
            else:
                new_block_keys.append(key)
    for key in _non_block_keys(model):
        _copy_group(out.params, model.params, key, key)
    if zero_last:
        for key in new_block_keys:
            _zero_last_layer(out.params, key, model.meta.arch)
    return out


def _non_block_keys(model: Model) -> list[str]:
    block_keys = {k for m in model.modules for k in m.block_keys}
    return [k for k in model.params.keys() if k not in block_keys]


def deepen_interleave(
    model: Model,
    per_stage_new: Sequence[int],
    zero_last: bool = False,
    seed: int = 0,
) -> Model:
    """Insert freshly initialized units between a stage's existing units.

    New units are spread as evenly as possible over the gaps following each
    original unit, ties toward earlier gaps, and each copies the kind of the
    unit it follows. Original units keep their parameters bitwise. With
    ``zero_last`` the new units' blocks have zeroed final layers, so the
    network function is unchanged at insertion time.
    """
    src_cfg = model.meta.config
    if len(per_stage_new) != len(src_cfg.stages):
        raise ValueError(
            f"expected {len(src_cfg.stages)} per-stage counts, got {len(per_stage_new)}"
        )
    stages: list[StageConfig] = []
    index_map: dict[tuple[str, int], int] = {}  # (stage, old idx) -> new idx
    for stage, m_new in zip(src_cfg.stages, per_stage_new):
        n = len(stage.modules)
        if m_new < 0:
            raise ValueError("per-stage insertion counts must be >= 0")
        inserts = [m_new // n + (1 if j < m_new % n else 0) for j in range(n)]
        modules: list[ModuleKind] = []
        for j, kind in enumerate(stage.modules):
            index_map[(stage.name, j)] = len(modules)
            modules.append(kind)
            modules.extend([kind] * inserts[j])
        stages.append(replace(stage, modules=tuple(modules)))
    target = replace(src_cfg, stages=tuple(stages))

    out = lower(
        target, model.meta.arch, model.meta.beta, seed,
        model.meta.precision, model.meta.memoize, model.meta.input_channels,
    )
    retained_positions = {
        (s.name, index_map[(s.name, j)]): (s.name, j)
        for s in src_cfg.stages
        for j in range(len(s.modules))
    }
    for site in out.modules:
        pos = (site.stage, site.index_in_stage)
        if pos in retained_positions:
            src_stage, src_idx = retained_positions[pos]
            src_prefix = f"{src_stage}.{src_idx}."
            dst_prefix = f"{site.stage}.{site.index_in_stage}."
            for key in site.block_keys:
                _copy_group(out.params, model.params, key, src_prefix + key[len(dst_prefix):])
        elif zero_last:
            for key in site.block_keys:
                _zero_last_layer(out.params, key, model.meta.arch)
    for key in _non_block_keys(model):
        _copy_group(out.params, model.params, key, key)
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"PRESCKPT"


def save_checkpoint(model: Model, path) -> None:
    """Write a single-file checkpoint: magic, length-prefixed JSON manifest
    (config text, arch descriptor, seed, iteration, parameter index), then
    every parameter tensor in the binary tensor format."""
    meta = model.meta
    index = [[key, name] for key, name, _ in model.params.flat_items()]
    manifest = {
        "format": 1,
        "config": meta.config_text,
        "input_size": meta.config.input_size,
        "classes": meta.config.classes,
        "widths": [s.width for s in meta.config.stages],
        "arch": meta.arch.descriptor,
        "beta": meta.beta,
        "seed": meta.seed,
        "precision": meta.precision,
        "memoize": meta.memoize,
        "input_channels": meta.input_channels,
        "iteration": meta.iteration,
        "params": index,
    }
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<q", len(blob)))
        fh.write(blob)
        for key, name in index:
            fh.write(Tensor(model.params.get(key, name)).to_bytes())


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by :func:`save_checkpoint`. A malformed file
    raises EngineError naming the path and, for tensor data, the tensor."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
        raise EngineError(f"{path}: not a checkpoint file")
    offset = len(_CHECKPOINT_MAGIC)
    if len(buf) < offset + 8:
        raise EngineError(f"{path}: truncated manifest length")
    (blob_len,) = struct.unpack_from("<q", buf, offset)
    offset += 8
    if blob_len < 0 or len(buf) < offset + blob_len:
        raise EngineError(f"{path}: truncated manifest ({blob_len} bytes declared)")
    manifest = json.loads(buf[offset : offset + blob_len].decode("utf-8"))
    offset += blob_len

    config = parse_network(
        manifest["config"],
        input_size=manifest["input_size"],
        classes=manifest["classes"],
    )
    config = replace(
        config,
        stages=tuple(
            replace(s, width=w) for s, w in zip(config.stages, manifest["widths"])
        ),
    )
    model = lower(
        config,
        parse_arch(manifest["arch"]),
        beta=manifest["beta"],
        seed=manifest["seed"],
        precision=manifest["precision"],
        memoize=manifest["memoize"],
        input_channels=manifest["input_channels"],
    )
    model.meta.iteration = manifest["iteration"]
    view = memoryview(buf)  # slices without copying the rest of the file
    for key, name in manifest["params"]:
        try:
            tensor = Tensor.from_bytes(view[offset:])
        except EngineError as e:
            raise EngineError(f"{path}: tensor {key}/{name}: {e}") from None
        offset += tensor.byte_length()
        current = model.params.get(key, name)
        if current.shape != tensor.data.shape:
            raise EngineError(f"{path}: checkpoint shape mismatch for {key}/{name}")
        model.params.set(key, name, tensor.data.astype(current.dtype, copy=False))
    if offset != len(buf):
        raise EngineError(f"{path}: {len(buf) - offset} trailing bytes after the last tensor")
    return model
