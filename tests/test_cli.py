"""Command-line surface: dispatch, exit codes, manifests, reproducibility."""

import csv
import json

import pytest

from polyres.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    dispatch,
)


def run(capsys, *argv) -> tuple[int, str]:
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


class TestExpressionCommands:
    def test_rewrite_poly2_prints_the_cascaded_form(self, tmp_path, capsys):
        code, out = run(capsys, "rewrite", "--kind", "poly-2", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.strip() == "I + (I+F)F"

    def test_expand_mpoly3_with_beta(self, tmp_path, capsys):
        code, out = run(
            capsys, "expand", "--kind", "mpoly-3", "--beta", "0.3", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        assert out.strip() == "I + 0.3*(F + GF + HGF)"

    def test_unknown_kind_is_a_validation_error(self, tmp_path, capsys):
        code, _ = run(capsys, "rewrite", "--kind", "zorp-9", "--out", str(tmp_path))
        assert code == EXIT_VALIDATION


class TestParseCommand:
    def test_parse_prints_canonical_form_and_table(self, tmp_path, capsys):
        code, out = run(
            capsys, "parse", "B: (3-way -> mpoly-3 -> poly-3) x 4", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "B: (3-way -> mpoly-3 -> poly-3) x 4"
        assert out.count("3-way") >= 4

    def test_empty_input_exits_validation(self, tmp_path, capsys):
        code, _ = run(capsys, "parse", "", "--out", str(tmp_path))
        assert code == EXIT_VALIDATION

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert dispatch([]) == EXIT_USAGE

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert dispatch(["parse", "A: ir", "--zorp"]) == EXIT_USAGE

    def test_manifest_written(self, tmp_path, capsys):
        run(capsys, "parse", "A: ir", "--out", str(tmp_path), "--seed", "5")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "parse"
        assert manifest["seed"] == 5
        assert manifest["options"]["text"] == "A: ir"


class TestAnalyzeAndSweep:
    def test_analyze_emits_csv_and_json(self, tmp_path, capsys):
        code, out = run(
            capsys, "analyze", "--preset", "ir-3-6-3", "--arch", "dense:8,16",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "cost.csv").read_text().splitlines()))
        assert rows[0].keys() == {
            "config", "stage", "module_index", "kind", "params", "macs", "block_apps"
        }
        payload = json.loads((tmp_path / "cost.json").read_text())
        assert payload["params"] == sum(r["params"] for r in payload["rows"])

    def test_cost_only_sweep_has_nineteen_rows(self, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "--iters", "0", "--out", str(tmp_path))
        assert code == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 19
        assert {r["config"] for r in rows} >= {"baseline", "B=mpoly-3", "A=2-way"}

    def test_sweep_is_reproducible(self, tmp_path, capsys):
        run(capsys, "sweep", "--iters", "0", "--out", str(tmp_path / "a"), "--seed", "3")
        run(capsys, "sweep", "--iters", "0", "--out", str(tmp_path / "b"), "--seed", "3")
        assert (tmp_path / "a" / "sweep.csv").read_text() == (
            tmp_path / "b" / "sweep.csv"
        ).read_text()

    def test_training_sweep_adds_accuracy_and_timing(self, tmp_path, capsys):
        code, _ = run(
            capsys, "sweep", "--iters", "2", "--data-n", "64", "--batch-size", "8",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "config,params,macs,block_apps,accuracy,ms_per_iter"
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == 19
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["ms_per_iter"] > 0


class TestGradcheckCommand:
    def test_single_kind_passes(self, tmp_path, capsys):
        code, out = run(
            capsys, "gradcheck", "--kind", "mpoly-3", "--arch", "dense:4,8",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "ok" in out
        results = json.loads((tmp_path / "gradcheck.json").read_text())
        assert results["mpoly-3"] <= 1e-5


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = dispatch(
        [
            "train", "--network", "IR 1-1-1", "--iters", "60", "--eval-every", "30",
            "--data-n", "128", "--batch-size", "16", "--out", str(out), "--seed", "4",
        ]
    )
    assert code == EXIT_OK
    return out


class TestTrainEvalSurgery:
    def test_train_writes_history_and_checkpoint(self, trained):
        assert (trained / "final.ckpt").exists()
        lines = (trained / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["iteration"] == 30

    def test_eval_reports_are_valid_json(self, trained, tmp_path, capsys):
        code, out = run(
            capsys, "eval", "--checkpoint", str(trained / "final.ckpt"),
            "--data-n", "128", "--scales", "1.0", "--crops", "2", "--out", str(tmp_path),
            "--seed", "4",
        )
        assert code == EXIT_OK
        single = json.loads((tmp_path / "single_crop.json").read_text())
        multi = json.loads((tmp_path / "multicrop.json").read_text())
        assert 0.0 <= single["top1"] <= 1.0
        assert multi["protocol"]["crops"] == 2

    def test_surgery_upgrade_and_reload(self, trained, tmp_path, capsys):
        code, out = run(
            capsys, "surgery", "--checkpoint", str(trained / "final.ckpt"),
            "--target", "A: mpoly-2; B: 2-way; C: ir", "--zero-last",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        from polyres.builder import load_checkpoint

        model = load_checkpoint(tmp_path / "surgery.ckpt")
        assert [m.kind.token for m in model.modules] == ["mpoly-2", "2-way", "ir"]

    def test_surgery_interleave(self, trained, tmp_path, capsys):
        code, _ = run(
            capsys, "surgery", "--checkpoint", str(trained / "final.ckpt"),
            "--interleave", "1,1,0", "--zero-last", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        from polyres.builder import load_checkpoint

        model = load_checkpoint(tmp_path / "surgery.ckpt")
        assert len(model.modules) == 5

    def test_surgery_without_target_is_usage_error(self, trained, tmp_path, capsys):
        code, _ = run(
            capsys, "surgery", "--checkpoint", str(trained / "final.ckpt"),
            "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE

    def test_missing_checkpoint_is_validation_error(self, tmp_path, capsys):
        code, _ = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--out", str(tmp_path),
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_numeric(self, tmp_path, capsys):
        code, _ = run(
            capsys, "train", "--network", "A: ir", "--iters", "30", "--lr", "1e30",
            "--data-n", "64", "--out", str(tmp_path), "--seed", "0",
        )
        assert code == EXIT_NUMERIC

    def test_parse_reads_dsl_files(self, tmp_path, capsys):
        source = tmp_path / "net.dsl"
        source.write_text("# a comment\nA: (ir) x 2; B: poly-2\n")
        code, out = run(capsys, "parse", "--file", str(source), "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "A: (ir) x 2; B: poly-2"


class TestConfigFile:
    def test_key_value_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# options\nkind = poly-3\nbeta = 0.3\n")
        code, out = run(
            capsys, "rewrite", "--kind", "poly-2", "--config", str(cfg),
            "--out", str(tmp_path),
        )
        # Explicit flags win over the file.
        assert code == EXIT_OK
        assert out.strip() == "I + 0.3*((I+F)F)"

    def test_file_value_used_when_flag_absent(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = mpoly-2\n")
        code, out = run(capsys, "rewrite", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.strip() == "I + (I+G)F"

    def test_malformed_file_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value line\n")
        code, _ = run(capsys, "rewrite", "--kind", "ir", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_VALIDATION
