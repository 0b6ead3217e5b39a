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
    Op,
    ParamOp,
    ParamSpec,
    ParamStore,
    Precision,
    ReLU,
    StridedConvDownsample,
    forward,
    init_tensors,
    read_tensor,
    tensor_header,
    tensor_parts,
)

__all__ = [
    "BlockArch",
    "DenseBlock",
    "ConvBlock",
    "parse_arch",
    "Model",
    "ModelMeta",
    "ModuleSite",
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
    keep this template's internal proportions. A template only emits layers:
    each layer's op names its own tensors (``w1``, ``b1``, ...) under the
    block's share key. Each size a template is built with must be at least
    1."""

    tag = "block"

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def emit(self, gb: "_GraphBuilder", x: int, width: int, key: str, segment: str) -> int:
        raise NotImplementedError

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{self.tag} block {name} must be at least 1, got {value}")


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

    def emit(self, gb, x, width, key, segment):
        h = self.hidden_at(width)
        n = gb.add(Dense(width, h, suffix="1"), [x], key, segment)
        n = gb.add(ReLU(), [n], segment=segment)
        return gb.add(Dense(h, width, suffix="2"), [n], key, segment)


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

    def emit(self, gb, x, width, key, segment):
        m = self.mid_at(width)
        n = gb.add(Conv2D(1, width, m, suffix="1"), [x], key, segment)
        n = gb.add(ReLU(), [n], segment=segment)
        n = gb.add(Conv2D(3, m, m, suffix="2"), [n], key, segment)
        n = gb.add(ReLU(), [n], segment=segment)
        return gb.add(Conv2D(1, m, width, suffix="3"), [n], key, segment)


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


@dataclass(frozen=True)
class ModuleSite:
    """Metadata for one residual module inside a lowered graph."""

    stage: str
    index_in_stage: int
    kind: ModuleKind
    gate_node: int
    n_paths: int
    block_keys: tuple[str, ...]
    block_apps: int
    segment: str


class _GraphBuilder:
    def __init__(self, input_shape: tuple[int, ...]):
        self.nodes: list[GraphNode] = []
        self.modules: list[ModuleSite] = []
        self.input_shape = input_shape
        # The spec of every (key, tensor name), in the order of first binding.
        self.specs: dict[tuple[str, str], ParamSpec] = {}
        self.add(InputOp(), [], segment="input")

    def add(
        self,
        op: Op,
        inputs: Sequence[int],
        key: str | None = None,
        segment: str = "",
        label: str = "",
    ) -> int:
        # Each tensor is declared the first time a node binds its name under
        # its key, so initialization draws follow graph-emission order.
        if key is not None and isinstance(op, ParamOp):
            for spec in op.param_specs():
                self.specs.setdefault((key, spec.name), spec)
        idx = len(self.nodes)
        self.nodes.append(
            GraphNode(
                idx=idx,
                op=op,
                inputs=tuple(inputs),
                param_key=key,
                label=label or f"{segment}/{op.name}",
                segment=segment,
            )
        )
        return idx

    def stamp(self, template: "_GraphBuilder", x: int, stage: str, index: int) -> int:
        """Append the module that ``template`` holds (see :func:`_module_template`)
        as module ``index`` of ``stage``, reading ``x``: template node 0 maps to
        ``x`` and node ``i`` to ``i`` past the last node, the segment is put in
        front of every key and label, and every node gets its own op."""
        segment = f"{stage}.{index}"
        (site,) = template.modules
        for (key, name), spec in template.specs.items():
            self.specs.setdefault((segment + key, name), spec)
        nodes, new = self.nodes, tuple.__new__  # what GraphNode._make calls
        base = len(nodes) - 1
        for _, proto, inputs, key, label, _ in template.nodes[1:]:
            op = object.__new__(type(proto))
            for name, value in vars(proto).items():  # immutable values; setattr keeps
                setattr(op, name, value)  # the compact layout, copy.copy costs more
            nodes.append(new(GraphNode, (
                len(nodes), op, tuple([base + i if i else x for i in inputs]),
                None if key is None else segment + key, segment + label, segment,
            )))
        self.modules.append(ModuleSite(
            stage, index, site.kind, base + site.gate_node, site.n_paths,
            tuple(segment + key for key in site.block_keys), site.block_apps, segment,
        ))
        return len(nodes) - 1

    def graph(self) -> ComputationGraph:
        return ComputationGraph(self.nodes, self.input_shape)


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
    modules: list[ModuleSite]

    def forward(self, x, mode: str = "eval", gates=None):
        return forward(self.graph, self.params, x, mode, gates)

    def logits(self, x, mode: str = "eval") -> np.ndarray:
        out, _ = self.forward(x, mode)
        return out.data

    def clone(self) -> "Model":
        return Model(self.graph, self.params.clone(), replace(self.meta), self.modules)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _module_template(
    arch: BlockArch, kind: ModuleKind, width: int, beta: float, memoize: bool
) -> _GraphBuilder:
    """One module of ``kind`` at ``width``, built on its own for
    :meth:`_GraphBuilder.stamp`: node 0 is the module's input, the segment is
    empty (keys read ``.F``, labels ``/dense``), and the one site holds the
    gate node and the key tails.

    Each first-applied prefix of a path is evaluated once; without
    ``memoize`` a prefix is keyed by its path too, so no path shares one.
    """
    gb = _GraphBuilder(())
    monomials = module_monomials(kind)
    letters = dict.fromkeys(b.share_key for mono in monomials for b in mono)
    memo: dict[tuple, int] = {}
    path_nodes = []
    for p, mono in enumerate(monomials):
        node, seq = 0, ()
        for b in reversed(mono):  # application order
            seq += (b.share_key,)
            prefix = seq if memoize else (p, seq)
            if prefix not in memo:
                memo[prefix] = arch.emit(gb, node, width, f".{b.share_key}", "")
            node = memo[prefix]
        path_nodes.append(node)
    gate_node = gb.add(GatedSum(beta), path_nodes, label="/paths")
    gb.add(ReLU(), [0, gate_node])
    gb.modules.append(ModuleSite(
        "", 0, kind, gate_node, len(monomials), tuple(f".{c}" for c in letters), len(memo), ""
    ))
    return gb


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
    Parameters are He fan-in initialized from ``seed``, in a store that is
    already packed. The pipeline is stem -> stages with stride-2 transitions
    -> pooled classifier head; dense blocks get a flattened-vector pipeline
    of the same shape.
    """
    model, specs = _allocate(config, arch, beta, seed, precision, memoize, input_channels)
    values = [(model.params.get(key, name), spec) for (key, name), spec in specs.items()]
    init_tensors(values, np.random.default_rng(seed))
    return model


def _allocate(config, arch, beta, seed, precision, memoize, input_channels):
    """The model that :func:`lower` returns, with its tensors allocated but
    not initialized, and the spec of each ``(key, name)`` in binding order."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if input_channels < 1:
        raise ValueError(f"input_channels must be at least 1, got {input_channels}")
    size = config.input_size
    conv = isinstance(arch, ConvBlock)
    gb = _GraphBuilder((input_channels, size, size))

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

    # Modules of one kind and width differ only in their segment: each is
    # stamped from one template per lowering.
    templates: dict[tuple[ModuleKind, int], _GraphBuilder] = {}
    for i, stage in enumerate(config.stages):
        for j, kind in enumerate(stage.modules):
            pair = kind, stage.width
            if pair not in templates:
                templates[pair] = _module_template(arch, kind, stage.width, beta, memoize)
            x = gb.stamp(templates[pair], x, stage.name, j)
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
    dtype = DTYPES[precision]
    params = ParamStore.allocate((key, name, s.shape, dtype) for (key, name), s in gb.specs.items())
    return Model(gb.graph(), params, meta, gb.modules), gb.specs


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
        dgroup[name][...] = value


def _zero_last_layer(model: Model, key: str) -> None:
    """Zero the tensors of the last graph node bound to ``key``: for a block,
    its final layer, so the block outputs zero until trained."""
    node = next(n for n in reversed(model.graph.nodes) if n.param_key == key)
    group = model.params.group(key)
    for spec in node.op.param_specs():
        group[spec.name].fill(0)


def _lower_retaining(
    model: Model,
    target: NetworkConfig,
    source_of: dict[tuple[str, int], tuple[str, int]],
    zero_last: bool,
    seed: int,
) -> Model:
    """Lower ``target`` and carry over ``model``'s parameters.

    ``source_of`` maps a target module position ``(stage, index)`` to the
    source position it retains. Such a module copies every block whose letter
    the source module has; other blocks stay fresh from ``seed`` and, with
    ``zero_last``, get their last layer zeroed. Non-block groups (stem,
    transitions, head) are copied whole.
    """
    meta = model.meta
    out = lower(
        target, meta.arch, meta.beta, seed, meta.precision, meta.memoize, meta.input_channels
    )
    src_sites = {(m.stage, m.index_in_stage): m for m in model.modules}
    for site in out.modules:
        src = src_sites.get(source_of.get((site.stage, site.index_in_stage)))
        src_letters = {k[len(src.segment):] for k in src.block_keys} if src else set()
        for key in site.block_keys:
            letter = key[len(site.segment):]  # ".F", ".G", ...
            if letter in src_letters:
                _copy_group(out.params, model.params, key, src.segment + letter)
            elif zero_last:
                _zero_last_layer(out, key)
    block_keys = {k for m in model.modules for k in m.block_keys}
    for key in model.params.keys():
        if key not in block_keys:
            _copy_group(out.params, model.params, key, key)
    return out


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
    positions = {(m.stage, m.index_in_stage): (m.stage, m.index_in_stage) for m in model.modules}
    return _lower_retaining(model, target, positions, zero_last, seed)


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
    source_of: dict[tuple[str, int], tuple[str, int]] = {}  # new position -> old
    for stage, m_new in zip(src_cfg.stages, per_stage_new):
        n = len(stage.modules)
        if m_new < 0:
            raise ValueError("per-stage insertion counts must be >= 0")
        inserts = [m_new // n + (1 if j < m_new % n else 0) for j in range(n)]
        modules: list[ModuleKind] = []
        for j, kind in enumerate(stage.modules):
            source_of[(stage.name, len(modules))] = (stage.name, j)
            modules.append(kind)
            modules.extend([kind] * inserts[j])
        stages.append(replace(stage, modules=tuple(modules)))
    target = replace(src_cfg, stages=tuple(stages))
    return _lower_retaining(model, target, source_of, zero_last, seed)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"PRESCKPT"
_CHECKPOINT_FORMAT = 1

# Every manifest field and the JSON type it holds.
_MANIFEST_FIELDS = {
    "format": int, "config": str, "input_size": int, "classes": int, "widths": list,
    "arch": str, "beta": (int, float), "seed": int, "precision": str, "memoize": bool,
    "input_channels": int, "iteration": int, "params": list,
}


def save_checkpoint(model: Model, path) -> None:
    """Write a single-file checkpoint: magic, length-prefixed JSON manifest
    (config text, arch descriptor, seed, iteration, parameter index), then
    every parameter tensor in the binary tensor format, joined straight from
    the store's arrays into one write."""
    meta = model.meta
    tensors = list(model.params.flat_items())
    manifest = {
        "format": _CHECKPOINT_FORMAT,
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
        "params": [[key, name] for key, name, _ in tensors],
    }
    blob = json.dumps(manifest).encode("utf-8")
    parts = [_CHECKPOINT_MAGIC, struct.pack("<q", len(blob)), blob]
    for _, _, value in tensors:
        parts.extend(tensor_parts(value))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))  # one write: many small ones cost more than this copy


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The manifest's model is built with its tensors allocated but not drawn,
    and each tensor is filled in place from one byte view of the file once
    its header matches. A malformed file raises EngineError naming the path
    and the manifest field or the tensor at fault; so does an index that
    does not list every tensor of that model exactly once, a tensor whose
    shape or precision differs from the model's, and a tensor that holds a
    NaN or an infinity."""
    with open(path, "rb") as fh:
        buf = fh.read()
    manifest, offset = _read_manifest(path, buf)
    model = _manifest_model(path, manifest)
    raw = np.frombuffer(buf, np.uint8)
    file_dtype = np.dtype(f"<f{DTYPES[model.meta.precision].itemsize}")
    headers: dict[tuple[int, ...], bytes] = {}  # per shape: the store holds one dtype
    for key, name, value in _indexed_tensors(path, manifest["params"], model.params):
        header = headers.get(value.shape)
        if header is None:
            header = headers[value.shape] = tensor_header(value.shape, value.dtype)
        start = offset + len(header)
        end = start + value.nbytes
        if not buf.startswith(header, offset) or len(buf) < end:
            raise _tensor_mismatch(path, key, name, value, buf, offset, model.meta.precision)
        value.reshape(-1)[...] = raw[start:end].view(file_dtype)
        offset = end
    if offset != len(buf):
        raise EngineError(f"{path}: {len(buf) - offset} trailing bytes after the last tensor")
    bad = model.params.first_non_finite()
    if bad is not None:
        raise EngineError(f"{path}: tensor {bad[0]}/{bad[1]} holds a non-finite value")
    return model


def _read_manifest(path, buf: bytes) -> tuple[dict, int]:
    """The manifest at the start of checkpoint bytes ``buf``, with every field
    present and of its JSON type, and the offset of the first tensor."""
    if buf[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
        raise EngineError(f"{path}: not a checkpoint file")
    offset = len(_CHECKPOINT_MAGIC)
    if len(buf) < offset + 8:
        raise EngineError(f"{path}: truncated manifest length")
    (blob_len,) = struct.unpack_from("<q", buf, offset)
    offset += 8
    if blob_len < 0 or len(buf) < offset + blob_len:
        raise EngineError(f"{path}: truncated manifest ({blob_len} bytes declared)")
    try:
        manifest = json.loads(buf[offset : offset + blob_len].decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
        raise EngineError(f"{path}: manifest is not UTF-8 JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise EngineError(f"{path}: manifest is not a JSON object")
    for field, kind in _MANIFEST_FIELDS.items():
        if field not in manifest:
            raise EngineError(f"{path}: manifest field {field!r} is missing")
        value = manifest[field]
        if field == "format" and value != _CHECKPOINT_FORMAT:
            raise EngineError(
                f"{path}: manifest field 'format' is {value!r}; "
                f"only format {_CHECKPOINT_FORMAT} can be read"
            )
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise EngineError(f"{path}: manifest field {field!r} has the wrong type: {value!r}")
    return manifest, offset + blob_len


def _manifest_model(path, manifest: dict) -> Model:
    """The model that a checked manifest describes, with its tensors
    allocated but not initialized."""

    def bad(field, why) -> EngineError:
        return EngineError(f"{path}: manifest field {field!r}: {why}")

    for field in ("input_size", "classes", "input_channels"):
        if manifest[field] < 1:
            raise bad(field, f"must be at least 1, got {manifest[field]}")
    if manifest["iteration"] < 0:
        raise bad("iteration", f"must be at least 0, got {manifest['iteration']}")
    try:
        config = parse_network(
            manifest["config"], input_size=manifest["input_size"], classes=manifest["classes"]
        )
    except ValueError as e:
        raise bad("config", e) from None
    widths = manifest["widths"]
    if len(widths) != len(config.stages):
        raise bad("widths", f"{len(widths)} widths for {len(config.stages)} stages")
    try:
        config = replace(
            config, stages=tuple(replace(s, width=w) for s, w in zip(config.stages, widths))
        )
    except ValueError as e:  # a width below 1, or not an integer
        raise bad("widths", e) from None
    try:
        arch = parse_arch(manifest["arch"])
    except ValueError as e:
        raise bad("arch", e) from None
    if manifest["precision"] not in DTYPES:
        raise bad("precision", f"unknown precision {manifest['precision']!r}")
    try:
        model, _ = _allocate(
            config, arch, manifest["beta"], manifest["seed"], manifest["precision"],
            manifest["memoize"], manifest["input_channels"],
        )
    except ValueError as e:  # a beta out of range, a negative width, ...
        raise EngineError(f"{path}: manifest describes no valid model: {e}") from None
    model.meta.iteration = manifest["iteration"]
    return model


def _indexed_tensors(path, index: list, params: ParamStore) -> list[tuple[str, str, np.ndarray]]:
    """``(key, name, array)`` of each manifest index entry in file order,
    once the index is known to list every tensor of ``params`` exactly once."""
    remaining = {(key, name): value for key, name, value in params.flat_items()}
    out = []
    for entry in index:
        try:
            key, name = entry
            value = remaining.pop((key, name), None)
        except (TypeError, ValueError):  # not a pair, or not hashable
            raise EngineError(
                f"{path}: manifest field 'params' holds {entry!r}, not a [key, name] pair"
            ) from None
        if value is None:
            twice = any((k, n) == (key, name) for k, n, _ in out)
            raise EngineError(
                f"{path}: manifest lists tensor {key}/{name} "
                + ("twice" if twice else "that the model does not have")
            )
        out.append((key, name, value))
    if remaining:
        key, name = next(iter(remaining))
        raise EngineError(f"{path}: manifest omits tensor {key}/{name}")
    return out


def _tensor_mismatch(path, key, name, value, buf, offset, precision) -> EngineError:
    """The error for the tensor at ``offset`` of checkpoint bytes ``buf``
    whose header is not the one that ``value`` needs, or whose data is cut
    short."""
    try:
        data, _ = read_tensor(buf, offset)
    except EngineError as e:
        return EngineError(f"{path}: tensor {key}/{name}: {e}")
    if data.shape != value.shape:
        return EngineError(f"{path}: checkpoint shape mismatch for {key}/{name}")
    return EngineError(
        f"{path}: checkpoint precision mismatch for {key}/{name}: "
        f"f{8 * data.itemsize} tensor under an {precision} manifest"
    )
