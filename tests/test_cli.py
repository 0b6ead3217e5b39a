"""Command-line surface: dispatch, exit codes, manifests, reproducibility."""

import csv
import json
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from polyres import builder, cli, substreams
from polyres.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    dispatch,
)
from polyres.builder import (
    deepen_interleave,
    load_checkpoint,
    lower,
    parse_arch,
    save_checkpoint,
)
from polyres.data import synth_dataset
from polyres.dsl import parse_network
from polyres.engine import NumericError
from polyres.training import OptimizerHP, train

SRC = str(Path(cli.__file__).resolve().parents[1])


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
        run(capsys, "parse", "A: ir", "--out", str(tmp_path / "parse"))
        manifest = json.loads((tmp_path / "parse" / "manifest.json").read_text())
        assert manifest["command"] == "parse"
        assert manifest["options"]["text"] == "A: ir"
        run(
            capsys, "sweep", "--base-width", "4", "--iters", "1", "--data-n", "16",
            "--out", str(tmp_path / "sweep"), "--seed", "5",
        )
        manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 5


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
        run(capsys, "sweep", "--iters", "0", "--out", str(tmp_path / "a"))
        run(capsys, "sweep", "--iters", "0", "--out", str(tmp_path / "b"))
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

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "option,value",
        [("seed", "1"), ("precision", "f64"), ("lr", "9"), ("batch_size", "0"), ("data_n", "3")],
    )
    def test_a_cost_only_sweep_rejects_the_training_options(
        self, tmp_path, capsys, form, option, value
    ):
        flag = "--" + option.replace("_", "-")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        given = [flag, value] if form == "flag" else ["--config", str(cfg)]
        for iters in ([], ["--iters", "0"]):
            argv = ["sweep", *given, *iters, "--out", str(tmp_path / "out")]
            assert dispatch(argv) == EXIT_USAGE
            assert f"usage error: sweep ignores {flag} without --iters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_cost_only_sweep_names_every_training_option_given(self, tmp_path, capsys):
        argv = ["sweep", "--seed", "1", "--precision", "f64", "--lr", "9", "--batch-size", "0",
                "--data-n", "3", "--out", str(tmp_path / "out")]
        assert dispatch(argv) == EXIT_USAGE
        given = "--seed and --precision and --lr and --batch-size and --data-n"
        assert f"usage error: sweep ignores {given} without --iters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_training_sweep_records_the_defaults_it_used(self, tmp_path, capsys):
        argv = ["sweep", "--base-width", "4", "--iters", "1", "--out", str(tmp_path)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data_n = 16\n")
        assert dispatch(argv + ["--config", str(cfg)]) == EXIT_OK
        options = json.loads((tmp_path / "manifest.json").read_text())["options"]
        recorded = tuple(options[k] for k in ("seed", "precision", "lr", "batch_size", "data_n"))
        assert recorded == (0, "f32", 0.045, 32, 16)

    def test_a_negative_iteration_count_is_a_validation_error(self, tmp_path, capsys):
        assert dispatch(["sweep", "--iters", "-1", "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "total_iters must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_times_only_the_training_steps(self, tmp_path, capsys, monkeypatch):
        # Every eval-mode forward sleeps for longer than a step of these
        # models takes, so a row whose timing counts an evaluation reads
        # above the delay.
        delay = 0.05
        model_forward = builder.forward

        def slow_forward(graph, params, x, mode, *args, **kwargs):
            if mode == "eval":
                time.sleep(delay)
            return model_forward(graph, params, x, mode, *args, **kwargs)

        monkeypatch.setattr(builder, "forward", slow_forward)
        code, _ = run(
            capsys, "sweep", "--iters", "2", "--data-n", "64", "--batch-size", "8",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == 19
        assert all(0 < row["ms_per_iter"] < 1000 * delay for row in rows), rows

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--classes", "0", "classes must be at least 1, got 0"),
            ("--input-size", "0", "input_size must be at least 1, got 0"),
            ("--channels", "0", "input_channels must be at least 1, got 0"),
        ],
    )
    def test_bad_analyze_sizes_are_validation_errors(self, tmp_path, capsys, flag, value, message):
        code = dispatch(["analyze", "--network", "A: ir", flag, value, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cost.json").exists()


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

    @pytest.mark.parametrize(
        "argv", [["eval"], ["surgery", "--interleave", "1"]], ids=["eval", "surgery"]
    )
    def test_junk_checkpoint_is_validation_error_naming_the_path(self, tmp_path, capsys, argv):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"not a checkpoint")
        code = dispatch(argv + ["--checkpoint", str(junk), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert f"validation error: {junk}: not a checkpoint file" in capsys.readouterr().err

    def test_a_non_finite_checkpoint_is_a_validation_error_naming_the_path(
        self, trained, tmp_path, capsys
    ):
        bad = tmp_path / "nan.ckpt"
        # The last four bytes are the f32 head bias's last element.
        bad.write_bytes((trained / "final.ckpt").read_bytes()[:-4] + struct.pack("<f", np.nan))
        code = dispatch(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "eval")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"validation error: {bad}: tensor head.fc/b holds a non-finite value" in err
        assert not (tmp_path / "eval").exists()

    def test_overflowing_logits_exit_numeric_naming_the_node(self, trained, tmp_path, capsys):
        model = load_checkpoint(trained / "final.ckpt")
        model.params.get("head.fc", "w")[...] = 3e38  # finite, but the logits overflow
        save_checkpoint(model, tmp_path / "big.ckpt")
        with np.errstate(over="ignore", invalid="ignore"):
            code = dispatch(
                ["eval", "--checkpoint", str(tmp_path / "big.ckpt"), "--out", str(tmp_path / "e")]
            )
        assert code == EXIT_NUMERIC
        head = model.graph.nodes[-1]
        assert f"numeric failure: non-finite output at {head.where}" in capsys.readouterr().err

    def test_numeric_error_still_exits_numeric(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericError("non-finite output at node 3 (A.0)")

        monkeypatch.setattr(cli, "train", fail)
        code = dispatch(
            ["train", "--network", "A: ir", "--iters", "5", "--data-n", "64", "--out", str(tmp_path)]
        )
        assert code == EXIT_NUMERIC
        assert "numeric failure: non-finite output at node 3" in capsys.readouterr().err

    def test_divergent_training_exits_numeric(self, tmp_path, capsys):
        code, _ = run(
            capsys, "train", "--network", "A: ir", "--iters", "30", "--lr", "1e30",
            "--data-n", "64", "--out", str(tmp_path), "--seed", "0",
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_a_bad_learning_rate_is_a_validation_error_naming_base_lr(self, tmp_path, capsys, lr):
        code = dispatch(
            ["train", "--network", "A: ir", "--iters", "5", "--data-n", "64", f"--lr={lr}",
             "--out", str(tmp_path / "t")]
        )
        assert code == EXIT_VALIDATION
        assert "validation error: base_lr must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("scales", ["inf", "nan", "1.0,-2", "0"])
    def test_a_bad_scale_is_a_validation_error_naming_scales(self, trained, tmp_path, capsys, scales):
        code = dispatch(
            ["eval", "--checkpoint", str(trained / "final.ckpt"), f"--scales={scales}",
             "--out", str(tmp_path / "e")]
        )
        assert code == EXIT_VALIDATION
        assert "validation error: scales must be finite and above 0" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--crops", "0", "crops_per_scale must be at least 1, got 0"),
            ("--fraction", "0", "top_fraction must be in (0, 1], got 0.0"),
        ],
    )
    def test_a_bad_pooling_protocol_is_a_validation_error_naming_the_field(
        self, trained, tmp_path, capsys, flag, value, message
    ):
        code = dispatch(
            ["eval", "--checkpoint", str(trained / "final.ckpt"), flag, value,
             "--out", str(tmp_path / "e")]
        )
        assert code == EXIT_VALIDATION
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_a_non_finite_held_out_logit_exits_numeric_naming_the_node(
        self, tmp_path, capsys, monkeypatch
    ):
        # Train-mode norm ignores the running mean, so only evaluation reads it.
        def poisoned_lower(*args, **kwargs):
            model = lower(*args, **kwargs)
            model.params.get("stem.norm", "running_mean")[...] = -3e38
            return model

        monkeypatch.setattr(cli, "lower", poisoned_lower)
        code = dispatch(
            ["train", "--network", "A: ir", "--iters", "2", "--eval-every", "1",
             "--data-n", "64", "--precision", "f32", "--out", str(tmp_path)]
        )
        assert code == EXIT_NUMERIC
        assert re.search(
            r"numeric failure: training diverged at iteration 0 \(lr=\S+\): held-out "
            r"evaluation: non-finite output at node \d+ \(\S+\)",
            capsys.readouterr().err,
        )
        assert not (tmp_path / "history.jsonl").exists()

    def test_train_with_augmentation_and_stochastic_paths(self, tmp_path, capsys):
        code, _ = run(
            capsys, "train", "--network", "A: ir", "--iters", "20", "--eval-every", "10",
            "--data-n", "64", "--batch-size", "8", "--augment", "--stochastic-paths",
            "--out", str(tmp_path), "--seed", "1",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["iteration"] for r in records] == [10, 20]
        assert all(r["gates_active"] for r in records)

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_an_empty_val_split_is_named(self, trained, tmp_path, capsys, command):
        if command == "eval":
            argv = ["eval", "--checkpoint", str(trained / "final.ckpt")]
        else:
            argv = ["train", "--network", "A: ir", "--iters", "5"]
        code = dispatch(argv + ["--data-n", "2", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "val split of a 2-image dataset is empty" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--data-n", "0", "the train split of a 0-image dataset is empty"),
            ("--data-n", "-5", "dataset size n must be at least 0, got -5"),
            ("--eval-every", "0", "eval_every must be at least 1, got 0"),
            ("--batch-size", "0", "batch_size must be at least 1, got 0"),
            ("--batch-size", "-3", "batch_size must be at least 1, got -3"),
            ("--classes", "0", "classes must be at least 1, got 0"),
            ("--input-size", "0", "input_size must be at least 1, got 0"),
            ("--arch", "dense:0,4", "dense block dim must be at least 1, got 0"),
            ("--arch", "conv:16,0", "conv block reduction must be at least 1, got 0"),
        ],
    )
    def test_bad_run_sizes_are_validation_errors(self, tmp_path, capsys, flag, value, message):
        argv = ["train", "--network", "A: ir", "--iters", "5", "--data-n", "64"]
        code = dispatch(argv + [flag, value, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.ckpt"))

    def test_zero_iterations_write_the_final_checkpoint(self, tmp_path, capsys):
        code, _ = run(
            capsys, "train", "--network", "A: ir", "--iters", "0", "--data-n", "64",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert [path.name for path in tmp_path.glob("*.ckpt")] == ["final.ckpt"]
        assert (tmp_path / "history.jsonl").read_text() == ""

    def test_data_takes_the_network_input_size(self, tmp_path, capsys):
        code, _ = run(
            capsys, "train", "--network", "A: poly-2 -> mpoly-3; B: poly-3 -> 2-way",
            "--arch", "conv:8,4", "--input-size", "16", "--iters", "2", "--eval-every", "2",
            "--data-n", "32", "--batch-size", "4", "--augment", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert [json.loads(line)["iteration"] for line in lines] == [2]

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_data_size_option_is_gone(self, tmp_path, capsys, command):
        argv = {"train": ["--network", "A: ir"], "eval": ["--checkpoint", "x.ckpt"], "sweep": []}
        code = dispatch([command, *argv[command], "--data-size", "16", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --data-size 16" in capsys.readouterr().err

    def test_manual_start_mode_is_gone(self, tmp_path, capsys):
        argv = ["train", "--network", "A: ir", "--iters", "5", "--out", str(tmp_path)]
        assert dispatch(argv + ["--stochastic-paths", "--adaptive", "manual"]) == EXIT_USAGE
        assert "invalid choice: 'manual'" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stochastic_paths = yes\nadaptive = manual\n")
        assert dispatch(argv + ["--config", str(cfg)]) == EXIT_VALIDATION
        assert f"{cfg}:2: adaptive: 'manual' is not one of off, auto" in capsys.readouterr().err

    def test_parse_reads_dsl_files(self, tmp_path, capsys):
        source = tmp_path / "net.dsl"
        source.write_text("# a comment\nA: (ir) x 2; B: poly-2\n")
        code, out = run(capsys, "parse", "--file", str(source), "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "A: (ir) x 2; B: poly-2"


# Quick arguments for every subcommand; {ckpt} is a trained checkpoint.
COMMAND_ARGS = {
    "parse": ["A: ir"],
    "expand": ["--kind", "poly-2"],
    "rewrite": ["--kind", "poly-2"],
    "analyze": ["--network", "A: ir"],
    "train": ["--network", "A: ir", "--iters", "2", "--eval-every", "1", "--data-n", "64"],
    "eval": ["--checkpoint", "{ckpt}", "--data-n", "64", "--scales", "1.0", "--crops", "2"],
    "gradcheck": ["--kind", "ir"],
    "surgery": ["--checkpoint", "{ckpt}", "--interleave", "1,0,0"],
    "sweep": ["--base-width", "4"],
}


class TestRunDirectory:
    def test_every_command_is_listed(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert sub.choices.keys() == COMMAND_ARGS.keys()

    @pytest.mark.parametrize("given", [True, False], ids=["out", "default"])
    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_every_command_writes_its_manifest(
        self, trained, tmp_path, monkeypatch, capsys, command, given
    ):
        monkeypatch.chdir(tmp_path)
        ckpt = str(trained / "final.ckpt")
        argv = [command] + [a.format(ckpt=ckpt) for a in COMMAND_ARGS[command]]
        out = tmp_path / "given" if given else tmp_path / "runs" / command
        if given:
            argv += ["--out", str(out)]
        assert dispatch(argv) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["options"]["out"] == (str(out) if given else None)


# The options a command takes only where they change its output; each pair
# here is one a command does not take.
UNREAD_OPTIONS = [
    (command, flag, value)
    for command, flags in {
        "parse": ("seed", "precision"),
        "expand": ("seed", "precision"),
        "rewrite": ("seed", "precision"),
        "analyze": ("seed", "precision", "beta"),
        "eval": ("precision",),
        "gradcheck": ("precision",),
        "surgery": ("precision",),
    }.items()
    for flag, value in (("seed", "1"), ("precision", "f64"), ("beta", "0.5"))
    if flag in flags
]


class TestUnreadOptions:
    def argv(self, command, tmp_path) -> list[str]:
        args = [a.format(ckpt="x.ckpt") for a in COMMAND_ARGS[command]]
        return [command, *args, "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("command,flag,value", UNREAD_OPTIONS)
    def test_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        argv = self.argv(command, tmp_path) + [f"--{flag}", value]
        assert dispatch(argv) == EXIT_USAGE
        assert f"unrecognized arguments: --{flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", UNREAD_OPTIONS)
    def test_config_key_is_a_validation_error(self, tmp_path, capsys, command, flag, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        assert dispatch(self.argv(command, tmp_path) + ["--config", str(cfg)]) == EXIT_VALIDATION
        assert f"{cfg}:1: {command} has no option '{flag}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Every (command, option) pair of the option table but --config, with a
# value other than the option's default; a switch is given as a bare flag
# and as "yes".
TABLE_OPTIONS = [
    (command, name, kind)
    for command, (_, _, rows) in cli._COMMANDS.items()
    for name, kind, *_ in rows
    if name != "--config"
]


def option_value(kind) -> str:
    if isinstance(kind, tuple):
        return kind[-1]
    return {bool: "yes", int: "7", float: "0.5", str: "x"}.get(kind, "1,2")


@pytest.mark.parametrize(
    "command,name,kind", TABLE_OPTIONS, ids=[f"{c}-{n.lstrip('-')}" for c, n, _ in TABLE_OPTIONS]
)
def test_a_flag_and_a_config_key_agree(tmp_path, command, name, kind):
    rows = cli._COMMANDS[command][2]
    required = [a for row in rows if row[2] is ... and row[0] != name for a in (row[0], "req")]
    value = option_value(kind)
    flag = [name] if kind is bool else [name, value] if name.startswith("-") else [value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name.lstrip('-')} = {value}\n")
    plain = vars(cli.build_parser(required=False).parse_args([command, *required]))
    from_flag = vars(cli.parse_args([command, *required, *flag]))
    from_file = vars(cli.parse_args([command, *required, "--config", str(cfg)]))
    assert from_file.pop("config") == str(cfg)
    from_flag.pop("config")
    plain.pop("config")
    assert from_flag == from_file != plain


def test_a_config_file_cannot_name_another(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = poly-2\nconfig = /nonexistent.cfg\n")
    code = dispatch(["rewrite", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"{cfg}:2: config: a config file cannot name another" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def first_word(stream) -> int:
    return int(stream.generate_state(1)[0])


def test_substream_seeds_are_pinned():
    # The first word of the batches, gates, augment, data and init streams.
    words = [first_word(stream) for stream in substreams(3)]
    assert words == [819382448, 1645421708, 3451799802, 118549108, 2942680743]


class TestOneSeedTable:
    def test_a_train_run_is_rebuilt_from_the_library(self, tmp_path, capsys):
        argv = ["train", "--network", "A: ir", "--iters", "4", "--eval-every", "2",
                "--data-n", "64", "--seed", "3", "--out", str(tmp_path / "cli")]
        assert dispatch(argv) == EXIT_OK
        streams = substreams(3)
        config = parse_network("A: ir", classes=4)
        dataset = synth_dataset(64, config.classes, config.input_size, first_word(streams.data))
        model = lower(config, parse_arch("dense:16,32"), beta=0.3, seed=first_word(streams.init))
        _, history = train(
            model, dataset, OptimizerHP.desk(4), eval_every=2, seed=3,
            checkpoint_dir=tmp_path / "lib",
        )
        assert (tmp_path / "cli" / "history.jsonl").read_text() == history.to_jsonl()
        cli_ckpt, lib_ckpt = (tmp_path / d / "final.ckpt" for d in ("cli", "lib"))
        assert cli_ckpt.read_bytes() == lib_ckpt.read_bytes()

    def test_train_eval_and_sweep_seed_the_same_dataset(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        class Drawn(Exception):
            pass

        seeds = []

        def record(n, classes, size, seed):
            seeds.append(seed)
            raise Drawn

        monkeypatch.setattr(cli, "synth_dataset", record)
        for argv in (
            ["train", "--network", "A: ir", "--iters", "2"],
            ["eval", "--checkpoint", str(trained / "final.ckpt")],
            ["sweep", "--base-width", "4", "--iters", "2"],
        ):
            with pytest.raises(Drawn):
                dispatch(argv + ["--data-n", "64", "--seed", "7", "--out", str(tmp_path)])
        assert seeds == [first_word(substreams(7).data)] * 3

    def test_surgery_draws_new_blocks_from_the_init_stream(self, trained, tmp_path, capsys):
        ckpt = trained / "final.ckpt"
        argv = ["surgery", "--checkpoint", str(ckpt), "--interleave", "1,0,0", "--seed", "5"]
        assert dispatch(argv + ["--out", str(tmp_path)]) == EXIT_OK
        expected = deepen_interleave(
            load_checkpoint(ckpt), (1, 0, 0), seed=first_word(substreams(5).init)
        )
        assert load_checkpoint(tmp_path / "surgery.ckpt").params.equal(expected.params)


@pytest.mark.parametrize(
    "argv,ignored",
    [
        (["train", "--network", "A: ir", "--paper-schedule", "--iters", "100"],
         "--paper-schedule ignores --iters"),
        (["train", "--network", "A: ir", "--paper-schedule", "--lr", "0.1"],
         "--paper-schedule ignores --lr"),
        (["surgery", "--checkpoint", "x.ckpt", "--interleave", "1", "--target", "A: 2-way"],
         "--interleave ignores --target"),
        (["parse", "A: ir", "--file", "x.dsl"], "--file ignores the architecture text"),
    ],
    ids=["paper-schedule-iters", "paper-schedule-lr", "interleave-target", "file-text"],
)
def test_an_option_the_command_would_ignore_is_a_usage_error(tmp_path, capsys, argv, ignored):
    # --data-n 0 stops a run that ignored the pair before its first step.
    extra = ["--data-n", "0"] if argv[0] == "train" else []
    assert dispatch(argv + extra + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"usage error: {ignored}; give one or the other" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "given,ignored",
    [
        (["--max-prob", "nan"], "--max-prob"),
        (["--max-prob", "0.25"], "--max-prob"),
        (["--adaptive", "auto"], "--adaptive"),
        (["--rescale", "train"], "--rescale"),
        (["--rescale", "eval", "--adaptive", "auto"], "--adaptive and --rescale"),
        (["--config", "{cfg}"], "--max-prob"),
        (["--config", "{choice_cfg}"], "--rescale"),
    ],
    ids=[
        "max-prob", "max-prob-at-its-default", "adaptive", "rescale", "rescale-adaptive",
        "config-max-prob", "config-rescale",
    ],
)
def test_a_path_option_without_stochastic_paths_is_a_usage_error(
    tmp_path, capsys, given, ignored
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_prob = 0.9\n")
    choice_cfg = tmp_path / "choice.cfg"
    choice_cfg.write_text("rescale = eval\n")
    argv = ["train", "--network", "A: ir", "--iters", "2", "--data-n", "64"]
    argv += [a.format(cfg=cfg, choice_cfg=choice_cfg) for a in given]
    argv += ["--out", str(tmp_path / "out")]
    assert dispatch(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: train ignores {ignored} without --stochastic-paths" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config,given,recorded",
    [
        ("stochastic_paths = yes\nmax_prob = 0.9\n", ["--rescale", "eval"], (0.9, "off", "eval")),
        ("", ["--stochastic-paths"], (0.25, "off", "none")),
        ("", [], (None, None, None)),
    ],
    ids=["config-and-flag", "defaults", "no-stochastic-paths"],
)
def test_a_train_run_records_the_path_options_it_used(tmp_path, capsys, config, given, recorded):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    argv = ["train", "--network", "A: ir", "--iters", "2", "--data-n", "64", *given]
    assert dispatch(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    options = json.loads((tmp_path / "out" / "manifest.json").read_text())["options"]
    assert (options["max_prob"], options["adaptive"], options["rescale"]) == recorded


@pytest.mark.parametrize("command", ["analyze", "train"])
@pytest.mark.parametrize("network", ["A: ir", "A: zorp", "IR 1-2-1"], ids=["ir", "junk", "default"])
def test_a_network_beside_a_preset_is_a_usage_error(tmp_path, capsys, command, network):
    argv = [command, "--preset", "ir-3-6-3", "--network", network, "--out", str(tmp_path / "out")]
    extra = ["--iters", "2", "--data-n", "64"] if command == "train" else []
    assert dispatch(argv + extra) == EXIT_USAGE
    assert "usage error: --preset ignores --network; give one or the other" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "given,recorded",
    [
        ([], ("IR 1-2-1", 2000, 0.045)),
        (["--network", "A: ir", "--iters", "7", "--lr", "0.1"], ("A: ir", 7, 0.1)),
        (["--preset", "ir-3-6-3", "--iters", "7"], (None, 7, 0.045)),
        (["--paper-schedule"], ("IR 1-2-1", 560_000, 0.45)),
    ],
    ids=["defaults", "given", "preset", "paper-schedule"],
)
def test_a_train_run_records_the_network_and_schedule_it_used(tmp_path, capsys, given, recorded):
    out = tmp_path / "out"
    # --data-n 0 stops the run before its first step, after the manifest
    # is written.
    argv = ["train", *given, "--data-n", "0", "--base-width", "4", "--out", str(out)]
    assert dispatch(argv) == EXIT_VALIDATION
    assert "the train split of a 0-image dataset is empty" in capsys.readouterr().err
    options = json.loads((out / "manifest.json").read_text())["options"]
    assert (options["network"], options["iters"], options["lr"]) == recorded


@pytest.mark.parametrize("command", ["analyze", "train"])
def test_an_empty_preset_is_an_unknown_preset(tmp_path, capsys, command):
    argv = [command, "--preset", "", "--out", str(tmp_path / "out")]
    extra = ["--iters", "2", "--data-n", "64"] if command == "train" else []
    assert dispatch(argv + extra) == EXIT_VALIDATION
    assert "unknown preset ''" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--file", "{dir}"],
        ["rewrite", "--kind", "ir", "--config", "{dir}"],
        ["eval", "--checkpoint", "{dir}"],
        ["surgery", "--checkpoint", "{dir}", "--interleave", "1"],
        ["rewrite", "--kind", "ir", "--config", "{binary}"],
        ["parse", "--file", "{binary}"],
    ],
    ids=["parse-file-dir", "config-dir", "eval-dir", "surgery-dir", "config-binary",
         "parse-file-binary"],
)
def test_an_unreadable_path_is_a_validation_error_naming_it(tmp_path, argv):
    given = tmp_path / ("binary.txt" if "{binary}" in argv else "dir")
    given.mkdir() if given.name == "dir" else given.write_bytes(b"kind = ir\n\xff\n")
    argv = [a.format(dir=given, binary=given) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "polyres.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == EXIT_VALIDATION
    assert str(given) in proc.stderr
    assert "Traceback" not in proc.stderr


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

    def config_error(self, tmp_path, capsys, *lines) -> str:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(("# options", "kind = poly-2") + lines) + "\n")
        code = dispatch(["rewrite", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        return capsys.readouterr().err

    def test_unknown_key_names_the_file_line_and_key(self, tmp_path, capsys):
        err = self.config_error(tmp_path, capsys, "betta = 0.5")
        assert f"{tmp_path / 'run.cfg'}:3: rewrite has no option 'betta'" in err

    def test_unconvertible_value_names_the_file_line_and_key(self, tmp_path, capsys):
        err = self.config_error(tmp_path, capsys, "beta = abc")
        assert f"{tmp_path / 'run.cfg'}:3: beta: could not convert" in err

    def test_value_outside_choices_names_the_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# options\nnetwork = A: ir\nprecision = f16\n")
        code = dispatch(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{cfg}:3: precision: 'f16' is not one of f32, f64" in err

    @pytest.mark.parametrize(
        "spelling",
        [lambda path: ["--config", path], lambda path: [f"--config={path}"],
         lambda path: ["--conf", path]],
        ids=["separate", "equals", "prefix"],
    )
    def test_every_spelling_of_config_reads_the_file(self, tmp_path, capsys, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = mpoly-2\n")
        code, out = run(capsys, "rewrite", *spelling(str(cfg)), "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.strip() == "I + (I+G)F"
        cfg.write_text("kind = mpoly-2\nbetta = 0.5\n")
        code = dispatch(["rewrite", *spelling(str(cfg)), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert f"{cfg}:2: rewrite has no option 'betta'" in capsys.readouterr().err

    def test_an_ambiguous_prefix_is_a_usage_error_before_the_file_is_read(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("betta = 0.5\n")
        argv = ["train", "--network", "A: ir", "--c", str(cfg), "--out", str(tmp_path / "out")]
        assert dispatch(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "ambiguous option: --c could match --classes, --config" in err
        assert "betta" not in err
        assert not (tmp_path / "out").exists()

    def test_config_without_a_path_is_a_usage_error(self, tmp_path, capsys):
        for argv in (["--config"], ["--config="]):
            assert dispatch(["rewrite", "--kind", "ir", *argv]) == EXIT_USAGE

    def test_bad_boolean_names_the_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("network = A: ir\naugment = maybe\n")
        code = dispatch(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert f"{cfg}:2: augment: 'maybe' is not one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,value,message",
        [
            ("eval", "--scales", "1.0,abc", "invalid float list value: '1.0,abc'"),
            ("surgery", "--interleave", "x", "invalid int list value: 'x'"),
        ],
    )
    def test_bad_list_flag_names_the_option(self, tmp_path, capsys, command, flag, value, message):
        argv = [command, "--checkpoint", "x.ckpt", flag, value, "--out", str(tmp_path)]
        assert dispatch(argv) == EXIT_USAGE
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,line,message",
        [
            ("eval", "scales = 1.0,abc", "scales: could not convert string to float: 'abc'"),
            ("surgery", "interleave = 1,x", "interleave: invalid literal for int()"),
        ],
    )
    def test_bad_list_value_names_the_file_line_and_key(
        self, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# options\n{line}\n")
        argv = [command, "--checkpoint", "x.ckpt", "--config", str(cfg), "--out", str(tmp_path)]
        assert dispatch(argv) == EXIT_VALIDATION
        assert f"{cfg}:2: {message}" in capsys.readouterr().err

    def test_repeated_key_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = ir\nkind = poly-2\n")
        code = dispatch(["rewrite", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert f"{cfg}:2: 'kind' already set at {cfg}:1" in capsys.readouterr().err
