"""Analytic parameter / multiply-accumulate / block-application counting.

Counts are exact and derived from the lowered graph: parameters count each
share key's trainable tensors once (so shared blocks are not double
counted), MACs use per-primitive formulas on propagated shapes for a single
sample, and block applications come from the lowering metadata. Norm layers
contribute their affine parameters but zero MACs; elementwise ops are
likewise costed as zero MACs.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .builder import BlockArch, Model, lower
from .dsl import NetworkConfig, render_network
from .engine import _STATE_NAMES

__all__ = [
    "CostRow",
    "CostReport",
    "count_params",
    "count_macs",
    "efficiency_table",
    "grid_configs",
    "rows_to_csv",
    "rows_to_json",
]


@dataclass(frozen=True)
class CostRow:
    config: str
    stage: str
    module_index: int  # -1 for stem / transition / head rows
    kind: str
    params: int
    macs: int
    block_apps: int

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "stage": self.stage,
            "module_index": self.module_index,
            "kind": self.kind,
            "params": self.params,
            "macs": self.macs,
            "block_apps": self.block_apps,
        }


@dataclass
class CostReport:
    config: str
    params: int
    macs: int
    block_apps: int
    rows: list[CostRow] = field(default_factory=list)

    def stage_totals(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for row in self.rows:
            agg = out.setdefault(
                row.stage, {"params": 0, "macs": 0, "block_apps": 0}
            )
            agg["params"] += row.params
            agg["macs"] += row.macs
            agg["block_apps"] += row.block_apps
        return out

    def module_rows(self) -> list[CostRow]:
        return [r for r in self.rows if r.module_index >= 0]

    def to_csv(self) -> str:
        return rows_to_csv([r.as_dict() for r in self.rows])

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "params": self.params,
                "macs": self.macs,
                "block_apps": self.block_apps,
                "stages": self.stage_totals(),
                "rows": [r.as_dict() for r in self.rows],
            },
            indent=2,
        )


def _segment_params(model: Model) -> dict[str, int]:
    """Trainable scalar count per graph segment, each share key once."""
    key_segment: dict[str, str] = {}
    for node in model.graph.nodes:
        if node.param_key is not None and node.param_key not in key_segment:
            key_segment[node.param_key] = node.segment
    out: dict[str, int] = {}
    for key, group in model.params.items():
        seg = key_segment[key]
        n = sum(v.size for name, v in group.items() if name not in _STATE_NAMES)
        out[seg] = out.get(seg, 0) + n
    return out


def _segment_macs(model: Model, input_shape: Sequence[int] | None) -> dict[str, int]:
    graph = model.graph
    if input_shape is not None and len(input_shape) == len(graph.input_shape) + 1:
        input_shape = input_shape[1:]  # drop an explicit batch extent
    shapes = graph.infer_shapes(input_shape)
    out: dict[str, int] = {}
    for node in graph.nodes:
        macs = node.op.macs([shapes[i] for i in node.inputs], shapes[node.idx])
        if macs:
            out[node.segment] = out.get(node.segment, 0) + macs
    return out


def _build_report(model: Model, seg_macs: dict[str, int]) -> CostReport:
    seg_params = _segment_params(model)
    config_text = model.meta.config_text
    rows: list[CostRow] = []
    module_segments = set()
    for site in model.modules:
        module_segments.add(site.segment)
        rows.append(
            CostRow(
                config=config_text,
                stage=site.stage,
                module_index=site.index_in_stage,
                kind=site.kind.token,
                params=seg_params.get(site.segment, 0),
                macs=seg_macs.get(site.segment, 0),
                block_apps=site.block_apps,
            )
        )
    ordered = dict.fromkeys(
        list(seg_params) + [s for s in seg_macs if s not in seg_params]
    )
    for seg in ordered:
        if seg in module_segments:
            continue
        rows.append(
            CostRow(
                config=config_text,
                stage=seg,
                module_index=-1,
                kind="-",
                params=seg_params.get(seg, 0),
                macs=seg_macs.get(seg, 0),
                block_apps=0,
            )
        )
    return CostReport(
        config=config_text,
        params=sum(r.params for r in rows),
        macs=sum(r.macs for r in rows),
        block_apps=sum(r.block_apps for r in rows),
        rows=rows,
    )


def count_params(model: Model) -> CostReport:
    """Parameter and block-application counts (MACs reported as zero; use
    :func:`count_macs` when an input size matters)."""
    return _build_report(model, {})


def count_macs(model: Model, input_shape: Sequence[int] | None = None) -> CostReport:
    """Full cost report for one forward sample at the given input shape
    (default: the model's own input). MACs are independent of batch size
    and, for convolutional stages, exactly proportional to spatial area."""
    return _build_report(model, _segment_macs(model, input_shape))


# ---------------------------------------------------------------------------
# Config grids and efficiency tables
# ---------------------------------------------------------------------------

_GRID_KINDS = ("2-way", "3-way", "poly-2", "poly-3", "mpoly-2", "mpoly-3")


def grid_configs(base: NetworkConfig) -> list[tuple[str, NetworkConfig]]:
    """The stage x module-kind ablation grid over a baseline config: one
    variant per (stage, kind) replacing that stage's modules wholesale,
    plus the baseline itself. Three stages give 18 variants."""
    from dataclasses import replace

    from .algebra import ModuleKind

    out: list[tuple[str, NetworkConfig]] = [("baseline", base)]
    for i, stage in enumerate(base.stages):
        for token in _GRID_KINDS:
            kind = ModuleKind.from_token(token)
            stages = list(base.stages)
            stages[i] = replace(stage, modules=(kind,) * len(stage.modules))
            out.append((f"{stage.name}={token}", replace(base, stages=tuple(stages))))
    return out


def efficiency_table(
    configs: Sequence[NetworkConfig | tuple[str, NetworkConfig]],
    arch: BlockArch,
    beta: float = 1.0,
    metrics: Mapping[str, float] | None = None,
    input_channels: int = 3,
) -> list[dict]:
    """One row per config: name, params, macs, block_apps, joined accuracy.

    ``metrics`` maps a row name (or canonical config text) to an accuracy
    value; missing or extra keys are reported as warnings, never fatal.
    """
    rows: list[dict] = []
    seen_names: set[str] = set()
    for entry in configs:
        name, config = entry if isinstance(entry, tuple) else (render_network(entry), entry)
        model = lower(config, arch, beta=beta, seed=0, input_channels=input_channels)
        report = count_macs(model)
        accuracy = None
        if metrics is not None:
            accuracy = metrics.get(name, metrics.get(report.config))
            if accuracy is None:
                warnings.warn(f"no accuracy entry for config {name!r}", stacklevel=2)
        seen_names.update({name, report.config})
        rows.append(
            {
                "config": name,
                "params": report.params,
                "macs": report.macs,
                "block_apps": report.block_apps,
                "accuracy": accuracy,
            }
        )
    if metrics is not None:
        for stray in set(metrics) - seen_names:
            warnings.warn(f"accuracy entry {stray!r} matches no config", stacklevel=2)
    return rows


def rows_to_csv(rows: Sequence[Mapping]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_json(rows: Sequence[Mapping]) -> str:
    return json.dumps(list(rows), indent=2)
