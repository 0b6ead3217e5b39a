"""Analytic cost counting: parameters, MACs, block applications."""

import pytest

from polyres.builder import ConvBlock, DenseBlock, lower, upgrade
from polyres.cost import (
    CostReport,
    CostRow,
    count_macs,
    count_params,
    efficiency_table,
    grid_configs,
    rows_to_csv,
    rows_to_json,
)
from polyres.dsl import PRESET_NAMES, parse_network, preset
from polyres.engine import Conv2D, Dense


def tiny(text, arch=DenseBlock(4, 8), **kw):
    config = parse_network(text, input_size=8, classes=3, base_width=4)
    kw.setdefault("input_channels", 1)
    return lower(config, arch, **kw)


class TestCountParams:
    def test_poly_module_params_equal_ir(self):
        report = count_params(tiny("A: ir -> poly-3"))
        rows = report.module_rows()
        assert rows[0].params == rows[1].params == 76

    def test_mpoly3_is_three_times_poly3(self):
        report = count_params(tiny("A: poly-3 -> mpoly-3"))
        rows = report.module_rows()
        assert rows[1].params == 3 * rows[0].params

    def test_totals_equal_sum_of_rows(self):
        report = count_params(tiny("A: ir; B: mpoly-2"))
        assert report.params == sum(r.params for r in report.rows)
        assert report.block_apps == sum(r.block_apps for r in report.rows)

    def test_share_keys_counted_once(self):
        # poly-4 reuses one block; its parameter row must not scale with k.
        a = count_params(tiny("A: poly-2")).module_rows()[0].params
        b = count_params(tiny("A: poly-4")).module_rows()[0].params
        assert a == b

    def test_params_independent_of_input_size(self):
        small = lower(parse_network("A: ir", input_size=8, base_width=4), ConvBlock(4, 2))
        large = lower(parse_network("A: ir", input_size=32, base_width=4), ConvBlock(4, 2))
        assert count_params(small).params == count_params(large).params

    def test_upgrade_never_shrinks_params(self):
        src = tiny("A: ir -> ir", precision="f64")
        target = parse_network("A: mpoly-2 -> ir", input_size=8, classes=3, base_width=4)
        up = upgrade(src, target)
        assert count_params(up).params > count_params(src).params
        noop = upgrade(src, src.meta.config)
        assert count_params(noop).params == count_params(src).params

    def test_running_stats_are_not_parameters(self):
        report = count_params(tiny("A: ir"))
        norm_rows = [r for r in report.rows if r.stage == "stem"]
        # stem fc (64*4+4) + norm affine (4+4), no running stats.
        assert sum(r.params for r in norm_rows) == 64 * 4 + 4 + 8


class TestCountMacs:
    def test_hand_example_1x1_conv(self):
        op = Conv2D(1, 2, 2)
        assert op.macs([(1, 2, 2, 2)], (1, 2, 2, 2)) == 16

    def test_dense_formula(self):
        assert Dense(10, 3).macs([(1, 10)], (1, 3)) == 30

    def test_cascaded_vs_naive_poly2_module_ratio(self):
        cascaded = tiny("A: poly-2", arch=ConvBlock(4, 2))
        naive = tiny("A: poly-2", arch=ConvBlock(4, 2), memoize=False)
        mc = count_macs(cascaded).module_rows()[0].macs
        mn = count_macs(naive).module_rows()[0].macs
        assert 3 * mc == 2 * mn  # exactly 2/3

    def test_mac_ratio_equals_block_app_ratio_for_equal_blocks(self):
        for kind in ("poly-3", "mpoly-3", "3-way"):
            cascaded = tiny(f"A: {kind}", arch=ConvBlock(4, 2))
            naive = tiny(f"A: {kind}", arch=ConvBlock(4, 2), memoize=False)
            rc, rn = count_macs(cascaded).module_rows()[0], count_macs(naive).module_rows()[0]
            assert rc.macs * rn.block_apps == rn.macs * rc.block_apps

    def test_width_doubling_quadruples_conv_macs(self):
        # All widths double, the input channels included; the classifier
        # head (fixed class count) is the one excluded row.
        cfg1 = parse_network("A: ir; B: poly-2", input_size=16, base_width=4)
        cfg2 = parse_network("A: ir; B: poly-2", input_size=16, base_width=8)
        m1 = lower(cfg1, ConvBlock(4, 2), input_channels=2)
        m2 = lower(cfg2, ConvBlock(8, 2), input_channels=4)
        r1, r2 = count_macs(m1), count_macs(m2)
        conv1 = sum(r.macs for r in r1.rows if r.stage != "head")
        conv2 = sum(r.macs for r in r2.rows if r.stage != "head")
        assert conv2 == 4 * conv1

    def test_macs_proportional_to_spatial_area(self):
        # MACs at another input size are those of the config lowered at it.
        def conv_macs(size):
            config = parse_network("A: ir", input_size=size, base_width=4)
            report = count_macs(lower(config, ConvBlock(4, 2)))
            return sum(r.macs for r in report.rows if r.stage != "head")

        assert conv_macs(16) == 4 * conv_macs(8)

    def test_norm_layers_cost_zero_macs(self):
        report = count_macs(tiny("A: ir"))
        stem_macs = next(r.macs for r in report.rows if r.stage == "stem")
        assert stem_macs == 64 * 4  # the fc matmul only


class TestEfficiencyTable:
    def test_grid_is_eighteen_plus_baseline(self):
        grid = grid_configs(preset("ir-3-6-3"))
        assert len(grid) == 19
        names = [name for name, _ in grid]
        assert names[0] == "baseline"
        assert "B=mpoly-3" in names and "C=2-way" in names

    def test_rows_without_metrics(self):
        rows = efficiency_table(
            grid_configs(preset("ir-3-6-3"))[:4], DenseBlock(16, 32), input_channels=1
        )
        assert all(r["accuracy"] is None for r in rows)
        assert all(r["params"] > 0 and r["macs"] > 0 for r in rows)

    def test_identical_configs_get_identical_rows(self):
        config = preset("ir-3-6-3")
        rows = efficiency_table(
            [("a", config), ("b", config)], DenseBlock(16, 32), input_channels=1
        )
        assert {k: rows[0][k] for k in ("params", "macs", "block_apps")} == {
            k: rows[1][k] for k in ("params", "macs", "block_apps")
        }

    def test_csv_and_json_emission(self):
        rows = efficiency_table(
            grid_configs(preset("ir-3-6-3"))[:2], DenseBlock(16, 32), input_channels=1
        )
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0] == "config,params,macs,block_apps,accuracy"
        import json

        parsed = json.loads(rows_to_json(rows))
        assert parsed[0]["config"] == "baseline"

    def test_report_csv_columns(self):
        report = count_macs(tiny("A: ir"))
        header = report.to_csv().splitlines()[0]
        assert header == "config,stage,module_index,kind,params,macs,block_apps"


def reference_segment_params(model):
    """Frozen copy of the original two-walk report: the parameter walk."""
    key_segment: dict[str, str] = {}
    for node in model.graph.nodes:
        if node.param_key is not None and node.param_key not in key_segment:
            key_segment[node.param_key] = node.segment
    out: dict[str, int] = {}
    for key, _, value in model.params.flat_items(trainable_only=True):
        seg = key_segment[key]
        out[seg] = out.get(seg, 0) + value.size
    return out


def reference_segment_macs(model):
    """Frozen copy of the original two-walk report: the MAC walk."""
    graph = model.graph
    shapes = graph.infer_shapes()
    out: dict[str, int] = {}
    for node in graph.nodes:
        macs = node.op.macs([shapes[i] for i in node.inputs], shapes[node.idx])
        if macs:
            out[node.segment] = out.get(node.segment, 0) + macs
    return out


def reference_build_report(model, seg_macs):
    """Frozen copy of the original two-walk report: the merge of both
    segment orders."""
    seg_params = reference_segment_params(model)
    config_text = model.meta.config_text
    rows = []
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


@pytest.mark.parametrize("memoize", [True, False], ids=["memo", "naive"])
@pytest.mark.parametrize("arch", [DenseBlock(16, 32), ConvBlock(16, 4)], ids=["dense", "conv"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_one_pass_report_equals_the_two_walk_reference(name, arch, memoize):
    model = lower(preset(name), arch, memoize=memoize)
    for report, reference in (
        (count_macs(model), reference_build_report(model, reference_segment_macs(model))),
        (count_params(model), reference_build_report(model, {})),
    ):
        assert report.rows == reference.rows
        assert (report.params, report.macs, report.block_apps) == (
            reference.params, reference.macs, reference.block_apps
        )
        assert report.to_csv() == reference.to_csv()
        assert report.to_json() == reference.to_json()
        assert report.stage_totals() == reference.stage_totals()
