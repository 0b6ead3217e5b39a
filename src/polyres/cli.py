"""Command-line entry point: reproducible experiments over the library.

Subcommands: parse, expand, rewrite, analyze, train, eval, gradcheck,
surgery, sweep. Each command's options are rows of one table,
``_COMMANDS``, which argparse and the config-file reader both read. Every
run resolves its options (flags over an optional ``key = value`` config
file), writes a manifest.json under --out, and exits 0 on success, 1 on
usage errors, 2 on validation errors (bad DSL, config or checkpoint), 3 on
numeric failures (divergence, gradient check over tolerance). A command
takes --seed or --precision only where it changes the output, and an
option it would ignore is a usage error. Every random draw comes from
``substreams(--seed)``: ``Trainer`` takes --seed itself, datasets and
gradcheck inputs draw from the data stream, and lowerings from init.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
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
from .data import AugmentConfig, Dataset, synth_dataset
from .dsl import DslSyntaxError, NetworkConfig, parse_network, preset, render_network
from .engine import (
    EngineError,
    NumericError,
    backward,
    finite_diff_grad,
    forward,
    softmax_cross_entropy,
)
from .evaluation import PoolingConfig, multicrop_eval, single_crop_eval
from .training import OptimizerHP, StochasticPathConfig, Trainer, substreams, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-5

_ALL_KINDS = ("ir", "poly-2", "poly-3", "mpoly-2", "mpoly-3", "2-way", "3-way")


class UsageError(Exception):
    pass


class GradcheckFailure(NumericError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_text(path: str) -> str:
    """A UTF-8 file's text; a ValueError naming the path if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Map each option name to ``(where, value)``, where is ``path:line``."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in values:
            raise ValueError(f"{path}:{lineno}: {key!r} already set at {values[key][0]}")
        values[key] = (f"{path}:{lineno}", value)
    return values


def _config_defaults(command: str, path: str) -> dict:
    """A ``key = value`` file's values, converted and checked by the
    command's rows of ``_COMMANDS``. The key ``config``, a key the command
    does not take, or a value its option rejects is a ValueError naming
    ``path:line`` and the key."""
    kinds = {_dest(name): kind for name, kind, *_ in _COMMANDS[command][2]}
    defaults = {}
    for key, (where, text) in _read_config_file(path).items():
        if key == "config":
            raise ValueError(f"{where}: config: a config file cannot name another")
        if key not in kinds:
            raise ValueError(f"{where}: {command} has no option {key!r}")
        kind = kinds[key]
        if kind is bool:
            value, allowed = text.lower(), _BOOLEANS
        elif isinstance(kind, tuple):
            value, allowed = text, kind
        else:
            try:
                value, allowed = kind(text), None
            except ValueError as exc:
                raise ValueError(f"{where}: {key}: {exc}") from None
        if allowed is not None and value not in allowed:
            raise ValueError(f"{where}: {key}: {text!r} is not one of {', '.join(allowed)}")
        defaults[key] = _BOOLEANS[value] if kind is bool else value
    return defaults


def _list_of(kind):
    """An option type: comma-separated ``kind`` values, as a tuple."""

    def parse(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))

    parse.__name__ = f"{kind.__name__} list"  # argparse's "invalid float list value"
    return parse


def _run_dir(args) -> Path:
    """The command's output directory, --out or runs/<command>, made and
    holding the run's manifest.json."""
    out = Path(args.out) if args.out else Path("runs") / args.command
    out.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "options": resolved,
        "seed": resolved.get("seed"),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))
    return out


def _word(stream: np.random.SeedSequence) -> int:
    """A stream's first 32-bit word: the int seed ``synth_dataset`` and ``lower`` take."""
    return int(stream.generate_state(1)[0])


def _dataset(args, config: NetworkConfig) -> Dataset:
    """The synthetic dataset of train, eval and sweep: --data-n images at the
    network's classes and input size, seeded from the data stream of --seed."""
    seed = _word(substreams(args.seed).data)
    return synth_dataset(args.data_n, config.classes, config.input_size, seed)


def _sizes(args) -> dict:
    """The size options, as keyword arguments of ``parse_network`` and ``preset``."""
    return dict(input_size=args.input_size, classes=args.classes, base_width=args.base_width)


def _resolve_network(args, default: str | None = None) -> NetworkConfig:
    """The network of --preset NAME or of --network TEXT, which exclude each
    other; without either, the ``default`` text, written back to ``args`` so
    the manifest records it."""
    if args.preset is not None:
        if args.network is not None:
            raise UsageError("--preset ignores --network; give one or the other")
        return preset(args.preset, **_sizes(args))
    if args.network is None:
        args.network = default
    if not args.network:
        raise UsageError("give either --network TEXT or --preset NAME")
    return parse_network(args.network, **_sizes(args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    text = args.text
    if args.file is not None:
        if text is not None:
            raise UsageError("--file ignores the architecture text; give one or the other")
        text = _read_text(args.file)
    if text is None:
        raise UsageError("give architecture text or --file")
    config = parse_network(text, **_sizes(args))
    out = _run_dir(args)
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
    _run_dir(args)
    print(_expression_for(args.kind, args.beta, cascaded=False))
    return EXIT_OK


def cmd_rewrite(args) -> int:
    _run_dir(args)
    print(_expression_for(args.kind, args.beta, cascaded=True))
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _resolve_network(args)
    arch = parse_arch(args.arch)
    report = cost.count_macs(lower(config, arch, input_channels=args.channels))
    out = _run_dir(args)
    (out / "cost.csv").write_text(report.to_csv())
    (out / "cost.json").write_text(report.to_json())
    print(f"config:      {report.config}")
    print(f"params:      {report.params}")
    print(f"macs:        {report.macs}")
    print(f"block_apps:  {report.block_apps}")
    print(f"reports in:  {out}")
    return EXIT_OK


def _read_only_with(args, switch: str, defaults: dict) -> None:
    """Options that only ``switch`` reads. Without it, any of them that is
    set is a usage error; with it, each unset one takes its entry of
    ``defaults`` in ``args``, so the manifest records it."""
    if not getattr(args, switch):
        given = " and ".join(_flag(d) for d in defaults if getattr(args, d) is not None)
        if given:
            raise UsageError(f"{args.command} ignores {given} without {_flag(switch)}")
        return
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _stochastic_config(args) -> StochasticPathConfig | None:
    """The path dropping of --stochastic-paths, or None without it."""
    _read_only_with(args, "stochastic_paths", dict(max_prob=0.25, adaptive="off", rescale="none"))
    if not args.stochastic_paths:
        return None
    return StochasticPathConfig(
        max_prob=args.max_prob,
        start="auto" if args.adaptive == "auto" else 0,
        rescale=args.rescale,
    )


def _schedule(args) -> OptimizerHP:
    """The paper's schedule, which takes neither --iters nor --lr, or the desk
    schedule of --iters (default 2000) at --lr (default 0.045). The
    iterations and base lr the run uses are written back to ``args``, so the
    manifest records them."""
    if args.paper_schedule:
        given = [flag for flag, v in (("--iters", args.iters), ("--lr", args.lr)) if v is not None]
        if given:
            raise UsageError(f"--paper-schedule ignores {' and '.join(given)}; give one or the other")
        hp = OptimizerHP.paper_schedule()
    else:
        hp = OptimizerHP.desk(
            2000 if args.iters is None else args.iters,
            base_lr=0.045 if args.lr is None else args.lr,
        )
    args.iters, args.lr = hp.total_iters, hp.base_lr
    return hp


def cmd_train(args) -> int:
    config = _resolve_network(args, default="IR 1-2-1")
    arch = parse_arch(args.arch)
    hp = _schedule(args)
    spc = _stochastic_config(args)
    dataset = _dataset(args, config)
    init_seed = _word(substreams(args.seed).init)
    model = lower(config, arch, beta=args.beta, seed=init_seed, precision=args.precision)
    out = _run_dir(args)
    augment_cfg = AugmentConfig(out_size=config.input_size) if args.augment else None
    model, history = train(
        model, dataset, hp,
        spc=spc,
        eval_every=args.eval_every,
        seed=args.seed,
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
    pooling = PoolingConfig(
        scales=args.scales, crops_per_scale=args.crops, top_fraction=args.fraction
    )
    model = load_checkpoint(args.checkpoint)
    dataset = _dataset(args, model.meta.config)
    out = _run_dir(args)
    top1, top5 = single_crop_eval(model, dataset)
    single = {"config": model.meta.config_text, "top1": top1, "top5": top5}
    (out / "single_crop.json").write_text(json.dumps(single, indent=2))
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
    streams = substreams(seed)
    model = lower(
        config, parse_arch(arch_text), beta=beta, seed=_word(streams.init), precision="f64",
        input_channels=1,
    )
    rng = np.random.default_rng(streams.data)
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
    out = _run_dir(args)
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
    if args.target is not None and args.interleave is not None:
        raise UsageError("--interleave ignores --target; give one or the other")
    model = load_checkpoint(args.checkpoint)
    out = _run_dir(args)
    init_seed = _word(substreams(args.seed).init)
    if args.interleave:
        result = deepen_interleave(
            model, args.interleave, zero_last=args.zero_last, seed=init_seed
        )
    elif args.target:
        target = parse_network(
            args.target,
            input_size=model.meta.config.input_size,
            classes=model.meta.config.classes,
        )
        target = replace(
            target,
            stages=tuple(
                replace(t, width=s.width)
                for t, s in zip(target.stages, model.meta.config.stages)
            ),
        )
        result = upgrade(model, target, zero_last=args.zero_last, seed=init_seed)
    else:
        raise UsageError("give --target NETWORK or --interleave counts")
    path = out / "surgery.ckpt"
    save_checkpoint(result, path)
    print(f"new config: {result.meta.config_text}")
    print(f"checkpoint: {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    defaults = dict(seed=0, precision="f32", lr=0.045, batch_size=32, data_n=512)
    _read_only_with(args, "iters", defaults)
    base = preset(args.base, **_sizes(args))
    arch = parse_arch(args.arch)
    grid = cost.grid_configs(base)
    hp = OptimizerHP.desk(args.iters, base_lr=args.lr) if args.iters else None
    out = _run_dir(args)
    if hp is not None:
        init_seed = _word(substreams(args.seed).init)
        dataset = _dataset(args, base)
    rows = cost.efficiency_table(grid, arch, beta=args.beta)
    for (name, config), row in zip(grid, rows):
        row["ms_per_iter"] = None
        if hp is not None:
            model = lower(config, arch, beta=args.beta, seed=init_seed, precision=args.precision)
            trainer = Trainer(model, dataset, hp, seed=args.seed, batch_size=args.batch_size)
            step_s = []
            for _ in range(args.iters):
                started = time.perf_counter()
                trainer.step()
                step_s.append(time.perf_counter() - started)
            row["accuracy"] = 1.0 - single_crop_eval(model, dataset)[0]
            row["ms_per_iter"] = 1000.0 * statistics.median(step_s)
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


# Each command's options, in --help order. A row is (name, type, default[,
# help]): a name without dashes is the positional, a bool type is a switch,
# a tuple type lists the choices, and a default of ... marks a required
# option. The rows below are shared by several commands.
_SIZES = (("--input-size", int, 32), ("--classes", int, 4))
_NETWORK = (
    ("--network", str, None, "architecture text"),
    ("--preset", str, None, "named preset configuration"),
    *_SIZES, ("--base-width", int, 16),
    ("--arch", str, "dense:16,32", "block template, tag:a,b"),
)
_CONFIG = ("--config", str, None, "key = value options file")
_OUT = ("--out", str, None, "output directory (default runs/<cmd>)")
_SEEDED = (_CONFIG, ("--seed", int, 0), _OUT)
_EXPRESSION = (
    ("--kind", str, ..., "module token, e.g. poly-2"), ("--beta", float, 1.0), _CONFIG, _OUT,
)

_COMMANDS = {
    "parse": (cmd_parse, "parse architecture text, print module table", (
        ("text", str, None), ("--file", str, None), *_SIZES, ("--base-width", int, 16),
        _CONFIG, _OUT,
    )),
    "expand": (cmd_expand, "print a module kind's naive polynomial", _EXPRESSION),
    "rewrite": (cmd_rewrite, "print a module kind's cascaded form", _EXPRESSION),
    "analyze": (cmd_analyze, "cost report for a configuration", (
        *_NETWORK, ("--channels", int, 3), _CONFIG, _OUT,
    )),
    "train": (cmd_train, "train a model on the synthetic dataset", (
        *_NETWORK,
        ("--beta", float, 0.3, "residual scaling factor"),
        ("--data-n", int, 512),
        ("--iters", int, None, "default 2000"),
        ("--lr", float, None, "default 0.045"),
        ("--paper-schedule", bool, False, "use the full-scale schedule (0.45, 160K steps, "
         "560K iters); takes neither --iters nor --lr"),
        ("--batch-size", int, 32), ("--eval-every", int, 200), ("--augment", bool, False),
        ("--stochastic-paths", bool, False,
         "drop paths; --max-prob, --adaptive and --rescale need it"),
        ("--max-prob", float, None, "default 0.25"),
        ("--adaptive", ("off", "auto"), None, "default off"),
        ("--rescale", ("none", "train", "eval"), None, "default none"),
        *_SEEDED, ("--precision", ("f32", "f64"), "f32"),
    )),
    "eval": (cmd_eval, "single-crop and multi-crop evaluation", (
        ("--checkpoint", str, ...), ("--data-n", int, 512),
        ("--scales", _list_of(float), "1.0,1.15,1.3"), ("--crops", int, 8),
        ("--fraction", float, 0.3),
        *_SEEDED,
    )),
    "gradcheck": (cmd_gradcheck, "backward vs central differences", (
        ("--kind", str, "all", "module token or 'all'"), ("--arch", str, "dense:4,8"),
        ("--beta", float, 0.3), *_SEEDED,
    )),
    "surgery": (cmd_surgery, "upgrade or deepen a checkpoint", (
        ("--checkpoint", str, ...),
        ("--target", str, None, "target architecture text"),
        ("--interleave", _list_of(int), None, "per-stage new-unit counts, comma separated"),
        ("--zero-last", bool, False), *_SEEDED,
    )),
    "sweep": (cmd_sweep, "stage x module-kind grid, cost table (+ accuracy)", (
        ("--base", str, "ir-3-6-3"), *_SIZES, ("--base-width", int, 8),
        ("--arch", str, "dense:8,16"), ("--beta", float, 0.3),
        ("--iters", int, 0, "0 = cost-only table"),
        ("--lr", float, None, "default 0.045; needs --iters"),
        ("--batch-size", int, None, "default 32; needs --iters"),
        ("--data-n", int, None, "default 512; needs --iters"),
        _CONFIG, ("--seed", int, None, "default 0; needs --iters"), _OUT,
        ("--precision", ("f32", "f64"), None, "default f32; needs --iters"),
    )),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_parser(config: dict | None = None, required: bool = True) -> _Parser:
    """Every command's parser, built from ``_COMMANDS``. ``config`` holds a
    config file's values, which become defaults: explicit flags still win,
    and a file value satisfies a required option. With ``required`` False
    no option is required."""
    config = config or {}
    parser = _Parser(prog="polyres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kind, default, *help_ in options:
            default = config.get(_dest(name), default)
            kwargs = dict(default=None if default is ... else default)
            kwargs["help"] = help_[0] if help_ else None
            if kind is bool:
                kwargs["action"] = "store_true"
            elif isinstance(kind, tuple):
                kwargs["choices"] = kind
            else:
                kwargs["type"] = kind
            if not name.startswith("-"):
                kwargs["nargs"] = "?"
            elif default is ...:
                kwargs["required"] = required
            p.add_argument(name, **kwargs)
        p.set_defaults(func=func)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The options of ``argv`` over those of its config file. A first pass,
    with nothing required, finds --config under every spelling argparse
    takes, so an ambiguous prefix fails before the file is read."""
    known = build_parser(required=False).parse_known_args(argv)[0]
    if known.config == "":
        raise UsageError("--config needs a file path")
    config = _config_defaults(known.command, known.config) if known.config else None
    return build_parser(config).parse_args(argv)


def dispatch(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        # Also TrainingDiverged and GradcheckFailure, its subclasses.
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DslSyntaxError, AlgebraError, EngineError, ValueError, KeyError, OSError) as exc:
        # EngineError covers ShapeError and a malformed checkpoint; NumericError,
        # its subclass, is caught above. OSError (a missing file, a directory
        # given as a file) names the path.
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
