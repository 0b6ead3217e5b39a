"""Analytic parameter / multiply-accumulate / block-application counting.

Counts are exact and derived from the lowered graph: parameters count each
share key's trainable tensors once (so shared blocks are not double
counted), MACs use per-primitive formulas on the graph's cached shapes for
one sample at the model's own input, and block applications come from the
lowering metadata. Norm layers contribute their affine parameters but zero
MACs; elementwise ops are likewise costed as zero MACs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

from .algebra import ModuleKind
from .builder import BlockArch, Model, lower
from .dsl import NetworkConfig

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
        return rows_to_csv([asdict(r) for r in self.rows])

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "params": self.params,
                "macs": self.macs,
                "block_apps": self.block_apps,
                "stages": self.stage_totals(),
                "rows": [asdict(r) for r in self.rows],
            },
            indent=2,
        )


def _report(model: Model, with_macs: bool) -> CostReport:
    """One walk over the nodes: each share key's trainable scalars go to the
    segment of the first node bound to that key and, ``with_macs``, each
    node's MACs to its own segment. Module rows come first, in
    ``model.modules`` order, then every other segment with a parameter or a
    MAC, in node order."""
    unclaimed: dict[str, int] = {}
    for key, _, value in model.params.flat_items(trainable_only=True):
        unclaimed[key] = unclaimed.get(key, 0) + value.size
    shapes = model.graph.infer_shapes() if with_macs else ()
    segments: dict[str, list[int]] = {}  # segment -> [params, macs]
    for node in model.graph.nodes:
        params = unclaimed.pop(node.param_key, 0)
        macs = node.op.macs([shapes[i] for i in node.inputs], shapes[node.idx]) if with_macs else 0
        if params or macs:
            totals = segments.setdefault(node.segment, [0, 0])
            totals[0] += params
            totals[1] += macs
    config = model.meta.config_text
    rows = [
        CostRow(
            config, site.stage, site.index_in_stage, site.kind.token,
            *segments.pop(site.segment, (0, 0)), site.block_apps,
        )
        for site in model.modules
    ]
    rows += [CostRow(config, seg, -1, "-", p, m, 0) for seg, (p, m) in segments.items()]
    return CostReport(
        config=config,
        params=sum(r.params for r in rows),
        macs=sum(r.macs for r in rows),
        block_apps=sum(r.block_apps for r in rows),
        rows=rows,
    )


def count_params(model: Model) -> CostReport:
    """Parameter and block-application counts (MACs reported as zero)."""
    return _report(model, with_macs=False)


def count_macs(model: Model) -> CostReport:
    """Full cost report for one forward sample at the model's own input.
    MACs at another input size are those of the config lowered at it."""
    return _report(model, with_macs=True)


# ---------------------------------------------------------------------------
# Config grids and efficiency tables
# ---------------------------------------------------------------------------

_GRID_KINDS = ("2-way", "3-way", "poly-2", "poly-3", "mpoly-2", "mpoly-3")


def grid_configs(base: NetworkConfig) -> list[tuple[str, NetworkConfig]]:
    """The stage x module-kind ablation grid over a baseline config: one
    variant per (stage, kind) replacing that stage's modules wholesale,
    plus the baseline itself. Three stages give 18 variants."""
    out: list[tuple[str, NetworkConfig]] = [("baseline", base)]
    for i, stage in enumerate(base.stages):
        for token in _GRID_KINDS:
            kind = ModuleKind.from_token(token)
            stages = list(base.stages)
            stages[i] = replace(stage, modules=(kind,) * len(stage.modules))
            out.append((f"{stage.name}={token}", replace(base, stages=tuple(stages))))
    return out


def efficiency_table(
    configs: Sequence[tuple[str, NetworkConfig]],
    arch: BlockArch,
    beta: float = 1.0,
    input_channels: int = 3,
) -> list[dict]:
    """One row per ``(name, config)``: name, params, macs, block_apps, and
    an ``accuracy`` of None for a caller that trains the configs to fill."""
    rows: list[dict] = []
    for name, config in configs:
        model = lower(config, arch, beta=beta, seed=0, input_channels=input_channels)
        report = count_macs(model)
        rows.append(
            {
                "config": name,
                "params": report.params,
                "macs": report.macs,
                "block_apps": report.block_apps,
                "accuracy": None,
            }
        )
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
