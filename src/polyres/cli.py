"""Command-line entry point: reproducible experiments over the library.

Subcommands: parse, expand, rewrite, analyze, train, eval, gradcheck,
surgery, sweep. Every run resolves its options (flags over an optional
``key = value`` config file), derives named random substreams from one
--seed, writes a manifest.json under --out, and exits 0 on success, 1 on
usage errors, 2 on validation errors (bad DSL or config), 3 on numeric
failures (divergence, gradient check over tolerance).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import cost
from .algebra import AlgebraError, ModuleKind, cascade, expand_module, format_expr
from .builder import (
    deepen_interleave,
    load_checkpoint,
    lower,
    parse_arch,
    save_checkpoint,
    upgrade,
)
from .data import AugmentConfig, synth_dataset
from .dsl import DslSyntaxError, NetworkConfig, parse_network, preset, render_network
from .engine import (
    NumericError,
    ShapeError,
    backward,
    finite_diff_grad,
    forward,
    softmax_cross_entropy,
)
from .evaluation import PoolingConfig, multicrop_eval, single_crop_eval
from .training import (
    OptimizerHP,
    StochasticPathConfig,
    TrainingDiverged,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-5

_ALL_KINDS = ("ir", "poly-2", "poly-3", "mpoly-2", "mpoly-3", "2-way", "3-way")


class UsageError(Exception):
    pass


class GradcheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Turn a ``key = value`` file into defaults on the subcommand's parser.

    Explicit flags still win; a file value satisfies a required option.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    raw = _read_config_file(argv[at + 1])
    sub_action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = next((a for a in argv if not a.startswith("-")), None)
    subparser = sub_action.choices.get(command)
    if subparser is None:
        return argv  # let normal parsing report the usage error
    defaults = {}
    for action in subparser._actions:
        if action.dest in raw:
            text = raw[action.dest]
            if action.type is not None:
                defaults[action.dest] = action.type(text)
            elif isinstance(action, argparse._StoreTrueAction):
                defaults[action.dest] = text.lower() in ("1", "true", "yes")
            else:
                defaults[action.dest] = text
            action.required = False
    subparser.set_defaults(**defaults)
    return argv


def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, args) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": command,
        "options": resolved,
        "seed": resolved.get("seed"),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))


def _substream_seeds(seed: int, n: int = 4) -> list[int]:
    # Named substreams (data, init, gates/train, aux) derived from one seed.
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _resolve_network(args) -> NetworkConfig:
    if getattr(args, "preset", None):
        return preset(
            args.preset, input_size=args.input_size, classes=args.classes,
            base_width=args.base_width,
        )
    if getattr(args, "network", None):
        return parse_network(
            args.network, input_size=args.input_size, classes=args.classes,
            base_width=args.base_width,
        )
    raise UsageError("give either --network TEXT or --preset NAME")


def _add_network_options(p: _Parser, default_network: str | None = None):
    p.add_argument("--network", default=default_network, help="architecture text")
    p.add_argument("--preset", default=None, help="named preset configuration")
    p.add_argument("--input-size", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--base-width", type=int, default=16)
    p.add_argument("--arch", default="dense:16,32", help="block template, tag:a,b")
    p.add_argument("--beta", type=float, default=0.3, help="residual scaling factor")


def _add_common(p: _Parser):
    p.add_argument("--config", default=None, help="key = value options file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory (default runs/<cmd>)")
    p.add_argument("--precision", choices=("f32", "f64"), default="f32")


def _add_data_options(p: _Parser):
    p.add_argument("--data-n", type=int, default=512)
    p.add_argument("--data-size", type=int, default=32)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    text = args.text
    if args.file:
        text = Path(args.file).read_text()
    if text is None:
        raise UsageError("give architecture text or --file")
    config = parse_network(
        text, input_size=args.input_size, classes=args.classes,
        base_width=args.base_width,
    )
    out = _out_dir(args, "parse")
    _write_manifest(out, "parse", args)
    print(render_network(config))
    print(f"{'stage':<8}{'index':<7}{'kind':<10}{'width':<7}resolution")
    for stage in config.stages:
        for i, kind in enumerate(stage.modules):
            print(f"{stage.name:<8}{i:<7}{kind.token:<10}{stage.width:<7}{stage.resolution}")
    (out / "network.txt").write_text(render_network(config) + "\n")
    return EXIT_OK


def _expression_for(kind_token: str, beta: float, cascaded: bool) -> str:
    kind = ModuleKind.from_token(kind_token)
    expr = expand_module(kind, beta)
    if cascaded:
        expr = cascade(expr)
    return format_expr(expr)


def cmd_expand(args) -> int:
    out = _out_dir(args, "expand")
    _write_manifest(out, "expand", args)
    print(_expression_for(args.kind, args.beta, cascaded=False))
    return EXIT_OK


def cmd_rewrite(args) -> int:
    out = _out_dir(args, "rewrite")
    _write_manifest(out, "rewrite", args)
    print(_expression_for(args.kind, args.beta, cascaded=True))
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _resolve_network(args)
    arch = parse_arch(args.arch)
    model = lower(
        config, arch, beta=args.beta, seed=args.seed, precision=args.precision,
        input_channels=args.channels,
    )
    report = cost.count_macs(model)
    out = _out_dir(args, "analyze")
    _write_manifest(out, "analyze", args)
    (out / "cost.csv").write_text(report.to_csv())
    (out / "cost.json").write_text(report.to_json())
    print(f"config:      {report.config}")
    print(f"params:      {report.params}")
    print(f"macs:        {report.macs}")
    print(f"block_apps:  {report.block_apps}")
    print(f"reports in:  {out}")
    return EXIT_OK


def _stochastic_config(args) -> StochasticPathConfig | None:
    if not args.stochastic_paths:
        return None
    return StochasticPathConfig(
        enabled=True,
        max_prob=args.max_prob,
        adaptive=args.adaptive,
        rescale=args.rescale,
    )


def cmd_train(args) -> int:
    config = _resolve_network(args)
    arch = parse_arch(args.arch)
    data_seed, init_seed, train_seed, _ = _substream_seeds(args.seed)
    dataset = synth_dataset(args.data_n, config.classes, args.data_size, data_seed)
    model = lower(
        config, arch, beta=args.beta, seed=init_seed, precision=args.precision,
    )
    hp = OptimizerHP.desk(args.iters, base_lr=args.lr) if not args.paper_schedule else OptimizerHP()
    out = _out_dir(args, "train")
    _write_manifest(out, "train", args)
    augment_cfg = AugmentConfig(out_size=args.data_size) if args.augment else None
    model, history = train(
        model, dataset, hp,
        spc=_stochastic_config(args),
        eval_every=args.eval_every,
        seed=train_seed,
        batch_size=args.batch_size,
        augment_cfg=augment_cfg,
        checkpoint_dir=out,
    )
    (out / "history.jsonl").write_text(history.to_jsonl())
    last = history.records[-1] if history.records else None
    if last:
        print(
            f"iter {last.iteration}: train_loss {last.train_loss:.4f} "
            f"val_loss {last.val_loss:.4f} top1 {last.top1:.3f} top5 {last.top5:.3f}"
        )
    print(f"checkpoints and history in: {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data_seed, *_ = _substream_seeds(args.seed)
    dataset = synth_dataset(
        args.data_n, model.meta.config.classes, model.meta.config.input_size, data_seed
    )
    out = _out_dir(args, "eval")
    _write_manifest(out, "eval", args)
    top1, top5 = single_crop_eval(model, dataset)
    single = {"config": model.meta.config_text, "top1": top1, "top5": top5}
    (out / "single_crop.json").write_text(json.dumps(single, indent=2))
    pooling = PoolingConfig(
        scales=tuple(float(s) for s in args.scales.split(",")),
        crops_per_scale=args.crops,
        top_fraction=args.fraction,
    )
    report = multicrop_eval(model, dataset, pooling, checkpoint=str(args.checkpoint))
    (out / "multicrop.json").write_text(report.to_json())
    print(f"single-crop: top1 {top1:.4f} top5 {top5:.4f}")
    print(f"multi-crop:  top1 {report.top1:.4f} top5 {report.top5:.4f}")
    print(f"reports in:  {out}")
    return EXIT_OK


def _gradcheck_kind(kind_token: str, arch_text: str, beta: float, seed: int) -> float:
    config = parse_network(
        f"A: {kind_token}", input_size=8, classes=3, base_width=4
    )
    model = lower(
        config, parse_arch(arch_text), beta=beta, seed=seed, precision="f64",
        input_channels=1,
    )
    rng = np.random.default_rng(seed + 1)
    # Jitter every parameter: zero-initialized biases can leave relu inputs
    # exactly at the kink, where central differences straddle the corner.
    for _, _, value in model.params.flat_items(trainable_only=True):
        value += rng.uniform(-0.1, 0.1, size=value.shape)
    x = rng.standard_normal((4, 1, 8, 8))
    labels = rng.integers(0, 3, size=4)

    out, tape = forward(model.graph, model.params, x, "train")
    _, dlogits = softmax_cross_entropy(out.data, labels)
    analytic = backward(tape, dlogits)

    def loss_fn(p):
        y, _ = forward(model.graph, p, x, "train")
        return softmax_cross_entropy(y.data, labels)[0]

    numeric = finite_diff_grad(loss_fn, model.params, h=1e-6)
    return gradient_discrepancy(analytic, numeric)


def gradient_discrepancy(analytic, numeric) -> float:
    """Worst per-tensor relative error between two gradient stores.

    The per-tensor scale is floored at 1e-4: central differences at h=1e-6
    carry ~1e-10 absolute noise, so relative error below that scale would
    compare the oracle's noise with itself (e.g. a bias feeding directly
    into a normalization has a true gradient of exactly zero).
    """
    worst = 0.0
    for key, name, a in analytic.flat_items():
        f = numeric.get(key, name)
        scale = max(np.abs(a).max(), np.abs(f).max(), 1e-4)
        worst = max(worst, float(np.abs(a - f).max() / scale))
    return worst


def cmd_gradcheck(args) -> int:
    kinds = _ALL_KINDS if args.kind == "all" else (args.kind,)
    out = _out_dir(args, "gradcheck")
    _write_manifest(out, "gradcheck", args)
    results = {}
    failed = False
    for token in kinds:
        err = _gradcheck_kind(token, args.arch, args.beta, args.seed)
        ok = err <= GRADCHECK_TOLERANCE
        failed |= not ok
        results[token] = err
        print(f"{token:<10} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    (out / "gradcheck.json").write_text(json.dumps(results, indent=2))
    if failed:
        raise GradcheckFailure(f"gradient error above {GRADCHECK_TOLERANCE}")
    return EXIT_OK


def cmd_surgery(args) -> int:
    model = load_checkpoint(args.checkpoint)
    out = _out_dir(args, "surgery")
    _write_manifest(out, "surgery", args)
    if args.interleave:
        counts = [int(v) for v in args.interleave.split(",")]
        result = deepen_interleave(model, counts, zero_last=args.zero_last, seed=args.seed)
    elif args.target:
        target = parse_network(
            args.target,
            input_size=model.meta.config.input_size,
            classes=model.meta.config.classes,
        )
        from dataclasses import replace
        target = replace(
            target,
            stages=tuple(
                replace(t, width=s.width)
                for t, s in zip(target.stages, model.meta.config.stages)
            ),
        )
        result = upgrade(model, target, zero_last=args.zero_last, seed=args.seed)
    else:
        raise UsageError("give --target NETWORK or --interleave counts")
    path = out / "surgery.ckpt"
    save_checkpoint(result, path)
    print(f"new config: {result.meta.config_text}")
    print(f"checkpoint: {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = preset(
        args.base, input_size=args.input_size, classes=args.classes,
        base_width=args.base_width,
    )
    arch = parse_arch(args.arch)
    grid = cost.grid_configs(base)
    out = _out_dir(args, "sweep")
    _write_manifest(out, "sweep", args)
    data_seed, init_seed, train_seed, _ = _substream_seeds(args.seed)
    dataset = None
    if args.iters > 0:
        dataset = synth_dataset(args.data_n, base.classes, args.data_size, data_seed)
    rows = cost.efficiency_table(grid, arch, beta=args.beta)
    for (name, config), row in zip(grid, rows):
        row["ms_per_iter"] = None
        if dataset is not None:
            model = lower(config, arch, beta=args.beta, seed=init_seed, precision=args.precision)
            hp = OptimizerHP.desk(args.iters, base_lr=args.lr)
            started = time.perf_counter()
            model, history = train(
                model, dataset, hp, eval_every=max(1, args.iters // 2),
                seed=train_seed, batch_size=args.batch_size,
            )
            elapsed = time.perf_counter() - started
            row["accuracy"] = 1.0 - history.records[-1].top1
            row["ms_per_iter"] = 1000.0 * elapsed / args.iters
            print(f"{name:<14} acc {row['accuracy']:.3f}  {row['ms_per_iter']:.1f} ms/iter")
        else:
            print(f"{name:<14} params {row['params']:>9} macs {row['macs']:>12}")
    (out / "sweep.csv").write_text(cost.rows_to_csv(rows))
    (out / "sweep.json").write_text(cost.rows_to_json(rows))
    print(f"table in: {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="polyres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse architecture text, print module table")
    p.add_argument("text", nargs="?", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--input-size", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--base-width", type=int, default=16)
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    for name, func, help_text in (
        ("expand", cmd_expand, "print a module kind's naive polynomial"),
        ("rewrite", cmd_rewrite, "print a module kind's cascaded form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--kind", required=True, help="module token, e.g. poly-2")
        p.add_argument("--beta", type=float, default=1.0)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("analyze", help="cost report for a configuration")
    _add_network_options(p)
    p.add_argument("--channels", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train a model on the synthetic dataset")
    _add_network_options(p, default_network="IR 1-2-1")
    _add_data_options(p)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.045)
    p.add_argument("--paper-schedule", action="store_true",
                   help="use the full-scale schedule (0.45, 160K steps, 560K iters)")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--eval-every", type=int, default=200)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--stochastic-paths", action="store_true")
    p.add_argument("--max-prob", type=float, default=0.25)
    p.add_argument("--adaptive", choices=("off", "manual", "auto"), default="off")
    p.add_argument("--rescale", choices=("none", "train", "eval"), default="none")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="single-crop and multi-crop evaluation")
    p.add_argument("--checkpoint", required=True)
    _add_data_options(p)
    p.add_argument("--scales", default="1.0,1.15,1.3")
    p.add_argument("--crops", type=int, default=8)
    p.add_argument("--fraction", type=float, default=0.3)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="backward vs central differences")
    p.add_argument("--kind", default="all", help="module token or 'all'")
    p.add_argument("--arch", default="dense:4,8")
    p.add_argument("--beta", type=float, default=0.3)
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("surgery", help="upgrade or deepen a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", default=None, help="target architecture text")
    p.add_argument("--interleave", default=None, help="per-stage new-unit counts, comma separated")
    p.add_argument("--zero-last", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("sweep", help="stage x module-kind grid, cost table (+ accuracy)")
    p.add_argument("--base", default="ir-3-6-3")
    p.add_argument("--input-size", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--base-width", type=int, default=8)
    p.add_argument("--arch", default="dense:8,16")
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--iters", type=int, default=0, help="0 = cost-only table")
    p.add_argument("--lr", type=float, default=0.045)
    p.add_argument("--batch-size", type=int, default=32)
    _add_data_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, list(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DslSyntaxError, AlgebraError, ShapeError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDiverged, NumericError, GradcheckFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
