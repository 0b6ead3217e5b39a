"""Training loop: RMSProp, step learning-rate schedule, stochastic paths.

The optimizer keeps one squared-gradient accumulator per parameter:
``s <- decay*s + (1-decay)*g^2`` and ``p <- p - lr*g/sqrt(s + eps)``, with
the epsilon inside the square root (the reference update is cited without a
formula; with eps = 1.0 this placement keeps early steps well scaled, and it
is asserted by the tests). Stochastic paths drop each non-identity monomial
path of module j independently with probability p_j, where the p_j rise
linearly from 0 at the bottom of the network to ``max_prob`` at the top.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .builder import Model, save_checkpoint
from .data import AugmentConfig, Dataset, augment
from .engine import (
    DTYPES,
    NumericError,
    ParamStore,
    backward,
    forward,
    softmax_cross_entropy,
)
from .evaluation import _first_non_finite, topk_error

__all__ = [
    "OptimizerHP",
    "StochasticPathConfig",
    "EvalRecord",
    "TrainHistory",
    "TrainingDiverged",
    "rmsprop_step",
    "lr_at",
    "gate_probabilities",
    "sample_gates",
    "gate_node_map",
    "substreams",
    "Trainer",
    "train",
]


@dataclass(frozen=True)
class OptimizerHP:
    """RMSProp and schedule hyperparameters."""

    decay: float = 0.9
    epsilon: float = 1.0
    base_lr: float = 0.45
    lr_factor: float = 0.1
    lr_step: int = 160_000
    total_iters: int = 560_000

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        for name in ("epsilon", "base_lr", "lr_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.lr_step <= 0:
            raise ValueError(f"lr_step must be positive, got {self.lr_step}")
        if self.total_iters < 0:
            raise ValueError(f"total_iters must be at least 0, got {self.total_iters}")

    @classmethod
    def paper_schedule(cls) -> "OptimizerHP":
        """The reference settings: decay 0.9, eps 1.0, lr 0.45 decayed by
        0.1 every 160K iterations, 560K total (three decays)."""
        return cls()

    @classmethod
    def desk(cls, total_iters: int, base_lr: float = 0.045) -> "OptimizerHP":
        """Desk-scale schedule preserving the three-decays shape: the step
        is total/3.5, so decays land at 2/7, 4/7 and 6/7 of the run."""
        return cls(
            base_lr=base_lr,
            lr_step=max(1, round(total_iters / 3.5)),
            total_iters=total_iters,
        )


def lr_at(iteration: int, hp: OptimizerHP) -> float:
    """Piecewise-constant step schedule: base_lr * factor^(iter // step)."""
    return hp.base_lr * hp.lr_factor ** (iteration // hp.lr_step)


# Elements per block of the RMSProp pass: the two work arrays of one block
# stay small, whatever the model's size.
_BLOCK = 1 << 16


def rmsprop_step(
    params: ParamStore,
    grads: ParamStore,
    state: ParamStore,
    hp: OptimizerHP,
    lr: float,
) -> None:
    """One in-place RMSProp update of every trainable tensor.

    ``grads`` and ``state`` must have the layout of ``params`` (as
    :func:`backward` and ``zeros_like`` make them); the first tensor that
    differs is named in a ValueError. The update is one pass over the three
    arenas in blocks of ``_BLOCK`` elements, through two work arrays that
    ``state`` keeps, so no step after the first allocates an array.
    """
    layout = params.layout()
    for store, role in ((grads, "gradient"), (state, "state")):
        _check_layout(layout, store.layout(), role)
    p_buf, g_buf, s_buf = params.arena(), grads.arena(), state.arena()
    n = p_buf.size
    u_buf, v_buf = state.scratch(min(n, _BLOCK))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        p, g, s = p_buf[lo:hi], g_buf[lo:hi], s_buf[lo:hi]
        u, v = u_buf[: hi - lo], v_buf[: hi - lo]
        s *= hp.decay
        np.multiply(g, 1.0 - hp.decay, out=u)
        u *= g
        s += u
        np.add(s, hp.epsilon, out=v)
        np.sqrt(v, out=v)
        np.multiply(g, lr, out=u)
        u /= v
        p -= u


def _check_layout(want, got, role: str) -> None:
    if got is want:  # twins share the layout object
        return
    for a, b in zip_longest(want, got):
        if a is None or b is None or a[:4] != b[:4]:
            expected = "nothing" if a is None else f"{a[0]}/{a[1]} {a[2]} {a[3]}"
            found = "nothing" if b is None else f"{b[0]}/{b[1]} {b[2]} {b[3]}"
            raise ValueError(f"{role} layout mismatch: expected {expected}, got {found}")


# ---------------------------------------------------------------------------
# Stochastic paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticPathConfig:
    """Path-dropping policy; :func:`train` without one drops no paths.

    ``start`` is the iteration from which paths are dropped, or "auto" to
    wait until the validation loss has risen for ``window`` consecutive
    evals while the train loss fell (an explicit stand-in for "serious
    overfitting"); once on, dropping stays on for the rest of the run.
    ``rescale`` chooses between no compensation (default), dropout-style
    1/(1-p) scaling of surviving paths at train time, or deterministic
    (1-p) path scaling at eval time, from the first eval after dropping is
    active.
    """

    max_prob: float = 0.25
    start: int | str = 0  # an iteration, or "auto"
    window: int = 3
    rescale: str = "none"  # "none" | "train" | "eval"

    def __post_init__(self):
        if not 0.0 <= self.max_prob < 1.0:
            raise ValueError("max_prob must be in [0, 1)")
        if self.start != "auto" and (
            not isinstance(self.start, int) or isinstance(self.start, bool) or self.start < 0
        ):
            raise ValueError(f"start must be an iteration >= 0 or 'auto', got {self.start!r}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if self.rescale not in ("none", "train", "eval"):
            raise ValueError(f"unknown rescale mode {self.rescale!r}")


def gate_probabilities(num_modules: int, max_prob: float) -> list[float]:
    """Linear ramp of dropping probabilities from 0 (bottom module) to
    max_prob (top module); a single module sits at the bottom endpoint."""
    if num_modules < 1:
        raise ValueError("need at least one module")
    if num_modules == 1:
        return [0.0]
    return [max_prob * j / (num_modules - 1) for j in range(num_modules)]


def sample_gates(
    model: Model, probs: Sequence[float], rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Per-module path keep bits: path i of module j survives with
    probability 1 - probs[j]; the identity path has no gate."""
    if len(probs) != len(model.modules):
        raise ValueError(
            f"got {len(probs)} probabilities for {len(model.modules)} modules"
        )
    gates = []
    for site, p in zip(model.modules, probs):
        keep = rng.random(site.n_paths) >= p
        gates.append(tuple(int(k) for k in keep))
    return gates


def gate_node_map(
    model: Model,
    gates: Sequence[Sequence[float]],
    probs: Sequence[float] | None = None,
    rescale: str = "none",
) -> dict[int, tuple[float, ...]]:
    """Translate per-module gate bits into the engine's node->multiplier map.

    With ``rescale='train'`` surviving paths are scaled by 1/(1-p_j) so the
    gated output is unbiased in expectation. The ``rescale='eval'`` policy
    passes each path's survival probability 1-p_j as its gate.
    """
    out: dict[int, tuple[float, ...]] = {}
    for i, (site, bits) in enumerate(zip(model.modules, gates)):
        values = [float(b) for b in bits]
        if rescale == "train" and probs is not None and probs[i] < 1.0:
            scale = 1.0 / (1.0 - probs[i])
            values = [v * scale for v in values]
        out[site.gate_node] = tuple(values)
    return out


# ---------------------------------------------------------------------------
# History
# ---------------------------------------------------------------------------


@dataclass
class EvalRecord:
    iteration: int
    train_loss: float
    val_loss: float
    top1: float
    top5: float
    lr: float
    gates_active: bool


@dataclass
class TrainHistory:
    records: list[EvalRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(r)) for r in self.records) + (
            "\n" if self.records else ""
        )


class TrainingDiverged(NumericError):
    def __init__(self, iteration: int, lr: float, detail: str):
        super().__init__(
            f"training diverged at iteration {iteration} (lr={lr:g}): {detail}"
        )
        self.iteration = iteration
        self.lr = lr
        self.detail = detail


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


class Substreams(NamedTuple):
    batches: np.random.SeedSequence
    gates: np.random.SeedSequence
    augment: np.random.SeedSequence
    data: np.random.SeedSequence
    init: np.random.SeedSequence


def substreams(seed: int) -> Substreams:
    """A run's named random streams: children 0-4 of ``SeedSequence(seed)``.

    :func:`train` draws batch order, gates and augmentation from the first
    three, which are the children ``SeedSequence(seed).spawn(3)`` gives, as
    children are keyed by index. The command line seeds its synthetic
    dataset from ``data`` and its lowerings from ``init``."""
    return Substreams(*np.random.SeedSequence(seed).spawn(len(Substreams._fields)))


def _batches(dataset: Dataset, idx, batch_size: int, dtype, augment_cfg, rng_batches, rng_aug):
    """The training batches, ``(images, labels)`` at ``dtype``, without end.

    The train indices ``idx`` are reshuffled by ``rng_batches`` at each epoch,
    and a batch carries the previous epoch's remainder; each image is
    augmented from ``rng_aug`` in batch order. The caller resolves ``idx``,
    so that an empty split fails before the generator first runs."""
    queue = idx[:0]
    while True:
        while len(queue) < batch_size:
            queue = np.concatenate([queue, rng_batches.permutation(idx)])
        batch, queue = queue[:batch_size], queue[batch_size:]
        images = dataset.images[batch]
        if augment_cfg is not None:
            images = np.stack([augment(im, augment_cfg, rng_aug) for im in images])
        yield images.astype(dtype), dataset.labels[batch]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate(model: Model, images, labels, gates, it, lr) -> tuple[float, float, float]:
    """Held-out loss, top-1 and top-5 error, under the numpy settings of
    :meth:`Trainer.step`. A non-finite logit or loss raises TrainingDiverged;
    the replayed forward names the node. The parameter scan of a step cannot
    catch this case: a bad running mean is read only in eval mode."""
    logits = model.forward(images, mode="eval", gates=gates)[0].data
    loss, _ = softmax_cross_entropy(logits, labels)
    if not (np.isfinite(loss) and np.isfinite(logits).all()):
        detail = _first_non_finite(model, images, "eval", gates) or "loss is not finite"
        raise TrainingDiverged(it, lr, f"held-out evaluation: {detail}")
    k5 = min(5, logits.shape[1])
    return loss, topk_error(logits, labels, 1), topk_error(logits, labels, k5)


class Trainer:
    """Training on the dataset's train split, one :meth:`step` at a time.

    It owns the batches, gates and augment streams of :func:`substreams`
    (``seed``), the :func:`_batches` generator and the RMSProp state. Paths
    are dropped from iteration ``start`` on: None is not yet, and with
    ``spc.start="auto"`` the caller sets it. An empty train split or a
    ``batch_size`` below 1 raises ValueError here, before any step.
    """

    def __init__(
        self,
        model: Model,
        dataset: Dataset,
        hp: OptimizerHP,
        spc: StochasticPathConfig | None = None,
        seed: int = 0,
        batch_size: int = 32,
        augment_cfg: AugmentConfig | None = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        rng_batches, self.rng_gates, rng_aug = map(np.random.default_rng, substreams(seed)[:3])
        self.batches = _batches(
            dataset, dataset.indices("train"), batch_size, DTYPES[model.meta.precision],
            augment_cfg, rng_batches, rng_aug,
        )
        self.model, self.hp, self.spc = model, hp, spc
        self.probs = gate_probabilities(len(model.modules), spc.max_prob) if spc else []
        self.start = None if spc is None or spc.start == "auto" else spc.start
        self.state = model.params.zeros_like(trainable_only=True)
        self.it = 0  # steps taken
        self.gates_active = False  # whether the last step dropped paths

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def step(self) -> float:
        """One iteration; returns its loss: the next batch, path gates once
        dropping is on, forward in train mode, loss, backward and RMSProp
        update at ``lr_at(it)``. Output, tape and gradients are locals, freed
        on return, before the next forward or an evaluation builds more.

        A non-finite loss is located by replaying the forward with
        ``check_finite``. After the update every parameter and running
        statistic must be finite: train-mode norm uses batch statistics, so
        the loss can stay finite while a running variance overflows. Numpy's
        floating-point warnings are off, as these checks name the node that
        went bad and a warning turned error would not."""
        model, it = self.model, self.it
        lr = lr_at(it, self.hp)
        images, labels = next(self.batches)
        self.gates_active = self.start is not None and it >= self.start
        gates = None
        if self.gates_active:
            bits = sample_gates(model, self.probs, self.rng_gates)
            gates = gate_node_map(model, bits, self.probs, self.spc.rescale)
        out, tape = forward(model.graph, model.params, images, "train", gates)
        loss, dlogits = softmax_cross_entropy(out.data, labels)
        if not np.isfinite(loss):
            detail = _first_non_finite(model, images, "train", gates) or "loss is not finite"
            raise TrainingDiverged(it, lr, detail)
        grads = backward(tape, dlogits)
        rmsprop_step(model.params, grads, self.state, self.hp, lr)
        bad = model.params.first_non_finite()
        if bad is not None:
            key, name = bad
            node = next(
                n for n in model.graph.nodes
                if n.param_key == key and any(s.name == name for s in n.op.param_specs())
            )
            raise TrainingDiverged(it, lr, f"non-finite {key}/{name} of {node.where}")
        self.it += 1
        model.meta.iteration += 1
        return loss


def train(
    model: Model,
    dataset: Dataset,
    hp: OptimizerHP,
    spc: StochasticPathConfig | None = None,
    eval_every: int = 200,
    seed: int = 0,
    batch_size: int = 32,
    augment_cfg: AugmentConfig | None = None,
    checkpoint_dir=None,
) -> tuple[Model, TrainHistory]:
    """Run ``hp.total_iters`` steps of a :class:`Trainer`, so equal seeds
    give identical histories. Held-out metrics are recorded every
    ``eval_every`` iterations and at the end; checkpoints at every
    learning-rate decay and at termination when ``checkpoint_dir`` is set.
    An empty train or val split, or an ``eval_every`` or ``batch_size``
    below 1, raises ValueError before the first step.
    """
    if eval_every < 1:
        raise ValueError(f"eval_every must be at least 1, got {eval_every}")
    trainer = Trainer(model, dataset, hp, spc, seed, batch_size, augment_cfg)
    history = TrainHistory()
    val_images, val_labels = dataset.subset(dataset.indices("val"))
    val_images = val_images.astype(DTYPES[model.meta.precision])
    # Eval-time rescaling scales each path by its survival probability, from
    # the first evaluation after training drops paths.
    survival = [(1.0 - p,) * site.n_paths for site, p in zip(model.modules, trainer.probs)]
    eval_gates = gate_node_map(model, survival) if spc and spc.rescale == "eval" else None
    recent_losses: list[float] = []

    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    for it in range(hp.total_iters):
        lr = lr_at(it, hp)
        if it and lr != lr_at(it - 1, hp) and checkpoint_dir is not None:
            save_checkpoint(model, checkpoint_dir / f"iter{it:08d}.ckpt")
        recent_losses.append(trainer.step())

        if (it + 1) % eval_every == 0 or it + 1 == hp.total_iters:
            active = trainer.gates_active
            gates = eval_gates if active else None
            metrics = _evaluate(model, val_images, val_labels, gates, it, lr)
            train_loss = float(np.mean(recent_losses))
            history.records.append(EvalRecord(it + 1, train_loss, *metrics, lr, active))
            recent_losses.clear()
            if spc is not None and trainer.start is None and _overfitting(history.records, spc.window):
                trainer.start = it + 1

    if checkpoint_dir is not None:
        save_checkpoint(model, checkpoint_dir / "final.ckpt")
    return model, history


def _overfitting(records: list[EvalRecord], window: int) -> bool:
    """True when validation loss rose for `window` consecutive evals while
    train loss fell over the same span."""
    if len(records) < window + 1:
        return False
    tail = records[-(window + 1) :]
    val_up = all(b.val_loss > a.val_loss for a, b in zip(tail, tail[1:]))
    train_down = tail[-1].train_loss < tail[0].train_loss
    return val_up and train_down
