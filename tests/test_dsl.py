"""Architecture DSL: grammar, presets, render fixpoint."""

import pytest

from polyres.dsl import (
    PRESET_NAMES,
    DslSyntaxError,
    parse_network,
    preset,
    render_network,
)

# Grammar corpus for the parse/render fixpoint property: plain stages,
# repetition groups, nesting, shorthand, comments, and typographic forms.
CORPUS = [
    "A: ir",
    "A: poly-2",
    "A: mpoly-3",
    "A: 2-way",
    "A: 17-way",
    "A: ir -> ir",
    "A: ir -> poly-2 -> ir",
    "A: (ir) x 1",
    "A: (ir) x 2",
    "A: (ir) x 7",
    "A: (poly-2) x 3",
    "A: (ir -> poly-2) x 2",
    "A: (3-way -> mpoly-3 -> poly-3) x 4",
    "A: ir -> (poly-2) x 2",
    "A: (ir) x 2 -> poly-3",
    "A: ((ir) x 2) x 3",
    "A: ((ir -> poly-2) x 2) x 2",
    "A: (ir -> (mpoly-2) x 2) x 3",
    "A: ir; B: ir",
    "A: ir; B: poly-2; C: mpoly-2",
    "A: (ir) x 3; B: (ir) x 6; C: (ir) x 3",
    "A: (2-way) x 10; B: (poly-3 -> 2-way) x 10; C: (poly-3 -> 2-way) x 5",
    "A: (ir) x 6; B: (3-way -> mpoly-3 -> poly-3) x 4; C: (ir) x 6",
    "stage1: ir; stage2: poly-4",
    "s: (5-way) x 2",
    "A: mpoly-2 -> mpoly-2 -> mpoly-2",
    "A: poly-2 -> poly-2 -> poly-3",
    "A: (poly-2 -> poly-2 -> poly-3) x 2",
    "A: 2-way -> 3-way",
    "A: (2-way -> 3-way) x 5",
    "IR 3-6-3",
    "IR 6-12-6",
    "IR 5-10-5",
    "IR 20-56-20",
    "IR 1-2-1",
    "IR 1",
    "IR 2-2",
    "IR 1-1-1-1",
    "ir 3-6-3",
    "  A:   ir  ->  poly-2  ",
    "A: ir # trailing comment",
    "# leading comment\nA: ir",
    "A: ir;\nB: poly-2",
    "A: (ir → poly-2) × 2",
    "A: (mpoly-3) × 4",
    "B: (3-way → mpoly-3 → poly-3) x 4",
    "A: (ir) x 2; B: mpoly-3 -> mpoly-3",
    "A: (1-way) x 3",
    "A: poly-1 -> mpoly-1",
    "A: (ir -> ir -> poly-2 -> poly-2) x 2",
]


class TestParse:
    def test_mixed_group_unrolls_in_order(self):
        config = parse_network("B: (3-way -> mpoly-3 -> poly-3) x 4")
        tokens = [m.token for m in config.stages[0].modules]
        assert len(tokens) == 12
        assert tokens == ["3-way", "mpoly-3", "poly-3"] * 4

    def test_shorthand_expands_to_three_ir_stages(self):
        config = parse_network("IR 3-6-3")
        assert [s.name for s in config.stages] == ["A", "B", "C"]
        assert [len(s.modules) for s in config.stages] == [3, 6, 3]
        assert all(m.token == "ir" for s in config.stages for m in s.modules)

    def test_minimal_program(self):
        config = parse_network("A: ir")
        assert len(config.stages) == 1
        assert len(config.stages[0].modules) == 1

    def test_widths_double_per_stage(self):
        config = parse_network("IR 1-1-1", base_width=16)
        assert [s.width for s in config.stages] == [16, 32, 64]

    def test_resolution_halves_per_stage(self):
        config = parse_network("IR 1-1-1", input_size=32)
        assert [s.resolution for s in config.stages] == [16, 8, 4]

    def test_repetition_counts_unroll_exactly(self):
        config = parse_network("A: ((ir -> poly-2) x 3) x 2")
        assert len(config.stages[0].modules) == 12

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "A:",
            "A ir",
            "A: zorp",
            "A: (ir) x 0",
            "A: (ir) x",
            "A: (ir x 2",
            "A: ir;; B: ir",
            "A: ir; A: ir",  # duplicate stage names
            "A: poly-",
            "A: -way",
            "IR 3-0-3",
        ],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises((DslSyntaxError, ValueError)):
            parse_network(bad)

    @pytest.mark.parametrize(
        "text, line, col",
        [("A: ir; A: ir", 1, 8), ("A: ir;\nB: poly-2;\n  A: ir", 3, 3)],
    )
    def test_repeated_stage_name_reports_its_position(self, text, line, col):
        with pytest.raises(DslSyntaxError) as err:
            parse_network(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert "'A'" in str(err.value)

    def test_error_reports_line_and_column(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_network("A: ir;\nB: zorp")
        assert err.value.line == 2
        assert err.value.col == 4


class TestRender:
    def test_shorthand_renders_compressed(self):
        config = parse_network("IR 3-6-3")
        assert render_network(config) == "A: (ir) x 3; B: (ir) x 6; C: (ir) x 3"

    def test_single_module_stays_bare(self):
        assert render_network(parse_network("A: ir")) == "A: ir"

    def test_mixed_stage_recompresses(self):
        config = parse_network("B: 3-way -> mpoly-3 -> poly-3 -> 3-way -> mpoly-3 -> poly-3")
        assert render_network(config) == "B: (3-way -> mpoly-3 -> poly-3) x 2"

    def test_non_repeating_chain_unrolls(self):
        config = parse_network("A: ir -> ir -> poly-2")
        assert render_network(config) == "A: ir -> ir -> poly-2"

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_render_parse_fixpoint(self, text):
        first = parse_network(text)
        rendered = render_network(first)
        assert parse_network(rendered) == first
        # The canonical form is itself a fixpoint.
        assert render_network(parse_network(rendered)) == rendered

    def test_corpus_has_fifty_cases(self):
        assert len(CORPUS) == 50


class TestPresets:
    def test_all_presets_parse_under_the_public_grammar(self):
        for name in PRESET_NAMES:
            config = preset(name)
            assert parse_network(render_network(config)) == config

    def test_very_deep_stage_layout(self):
        config = preset("very-deep-polynet")
        counts = {s.name: len(s.modules) for s in config.stages}
        assert counts == {"A": 10, "B": 20, "C": 10}
        stage_b = config.stages[1].modules
        assert [m.token for m in stage_b[:2]] == ["poly-3", "2-way"]

    def test_ir_presets_module_counts(self):
        assert [len(s.modules) for s in preset("ir-5-10-5").stages] == [5, 10, 5]
        assert [len(s.modules) for s in preset("ir-20-56-20").stages] == [20, 56, 20]
        assert [len(s.modules) for s in preset("ir-3-6-3").stages] == [3, 6, 3]
        assert [len(s.modules) for s in preset("ir-6-12-6").stages] == [6, 12, 6]

    def test_mixed_b_preset(self):
        config = preset("mixed-b-6-12-6")
        stage_b = config.stages[1]
        assert [m.token for m in stage_b.modules[:3]] == ["3-way", "mpoly-3", "poly-3"]
        assert len(stage_b.modules) == 12

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            preset("ir-9-9-9")
