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
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

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
from .evaluation import topk_error

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
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.base_lr <= 0.0:
            raise ValueError("base_lr must be positive")
        if self.lr_step <= 0 or self.total_iters < 0:
            raise ValueError("schedule lengths must be positive")

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


def rmsprop_step(
    params: ParamStore,
    grads: ParamStore,
    state: ParamStore,
    hp: OptimizerHP,
    lr: float,
) -> None:
    """One in-place RMSProp update over every gradient entry."""
    for key, name, g in grads.flat_items():
        p = params.get(key, name)
        if p.shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {key}/{name}")
        s = state.get(key, name)
        s *= hp.decay
        s += (1.0 - hp.decay) * g * g
        p -= lr * g / np.sqrt(s + hp.epsilon)


# ---------------------------------------------------------------------------
# Stochastic paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticPathConfig:
    """Path-dropping policy.

    ``adaptive`` selects when dropping becomes active: "off" means from the
    first iteration, "manual" from ``manual_start``, and "auto" waits until
    the validation loss has risen for ``window`` consecutive evals while the
    train loss fell (an explicit stand-in for "serious overfitting"); once
    on, dropping stays on for the rest of the run. ``rescale``
    chooses between no compensation (default), dropout-style 1/(1-p)
    scaling of surviving paths at train time, or deterministic (1-p) path
    scaling at eval time.
    """

    enabled: bool = False
    max_prob: float = 0.25
    adaptive: str = "off"  # "off" | "manual" | "auto"
    window: int = 3
    manual_start: int = 0
    rescale: str = "none"  # "none" | "train" | "eval"

    def __post_init__(self):
        if not 0.0 <= self.max_prob < 1.0:
            raise ValueError("max_prob must be in [0, 1)")
        if self.adaptive not in ("off", "manual", "auto"):
            raise ValueError(f"unknown adaptive mode {self.adaptive!r}")
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
    gated output is unbiased in expectation.
    """
    out: dict[int, tuple[float, ...]] = {}
    for i, (site, bits) in enumerate(zip(model.modules, gates)):
        values = [float(b) for b in bits]
        if rescale == "train" and probs is not None and probs[i] < 1.0:
            scale = 1.0 / (1.0 - probs[i])
            values = [v * scale for v in values]
        out[site.gate_node] = tuple(values)
    return out


def eval_gate_map(model: Model, probs: Sequence[float]) -> dict[int, tuple[float, ...]]:
    """Deterministic eval-time path scaling by survival probability, for the
    rescale='eval' policy."""
    return {
        site.gate_node: ((1.0 - p),) * site.n_paths
        for site, p in zip(model.modules, probs)
    }


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
    seed: int
    records: list[EvalRecord] = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(r)) for r in self.records) + (
            "\n" if self.records else ""
        )

    @classmethod
    def from_jsonl(cls, text: str, seed: int = 0) -> "TrainHistory":
        records = [EvalRecord(**json.loads(line)) for line in text.splitlines() if line]
        return cls(seed=seed, records=records)


class TrainingDiverged(RuntimeError):
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


class _BatchSampler:
    """Epoch-shuffled index stream driven by one RNG."""

    def __init__(self, indices: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.indices = indices
        self.batch_size = batch_size
        self.rng = rng
        self._queue: list[int] = []

    def next_batch(self) -> np.ndarray:
        while len(self._queue) < self.batch_size:
            order = self.indices.copy()
            self.rng.shuffle(order)
            self._queue.extend(order.tolist())
        batch = self._queue[: self.batch_size]
        del self._queue[: self.batch_size]
        return np.array(batch)


def _evaluate(model: Model, images, labels, spc, probs) -> tuple[float, float, float]:
    gates = None
    allow = False
    if spc is not None and spc.enabled and spc.rescale == "eval":
        gates = eval_gate_map(model, probs)
        allow = True
    out, _ = model.forward(images, mode="eval", gates=gates, allow_eval_gates=allow)
    loss, _ = softmax_cross_entropy(out.data, labels)
    k5 = min(5, out.data.shape[1])
    return loss, topk_error(out.data, labels, 1), topk_error(out.data, labels, k5)


def _step(model: Model, images, labels, gates, state, hp, lr, it) -> float:
    """One forward, backward and RMSProp update; returns the loss. The
    step's output, tape and gradients are locals, so they are freed on
    return, before the next step's forward or an evaluation builds more."""
    out, tape = forward(model.graph, model.params, images, "train", gates)
    loss, dlogits = softmax_cross_entropy(out.data, labels)
    if not np.isfinite(loss):
        try:
            forward(model.graph, model.params, images, "train", gates, check_finite=True)
            detail = "loss is not finite"
        except NumericError as exc:
            detail = str(exc)
        raise TrainingDiverged(it, lr, detail)
    grads = backward(tape, dlogits)
    rmsprop_step(model.params, grads, state, hp, lr)
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
    """Run the optimization loop on the dataset's train split.

    Each iteration: (optionally) augment the batch, sample path gates if
    stochastic paths are active, forward in train mode, cross-entropy loss,
    backward, RMSProp step at the scheduled rate. Held-out metrics are
    recorded every ``eval_every`` iterations. All randomness (batch order,
    gates, augmentation) derives from ``seed`` through named substreams, so
    equal seeds give identical histories. Checkpoints are written at every
    learning-rate decay and at termination when ``checkpoint_dir`` is set.
    """
    started = time.perf_counter()
    history = TrainHistory(seed=seed)
    if hp.total_iters == 0:
        return model, history

    ss = np.random.SeedSequence(seed)
    rng_data, rng_gates, rng_aug = (np.random.default_rng(s) for s in ss.spawn(3))
    dtype = DTYPES[model.meta.precision]

    sampler = _BatchSampler(dataset.train_indices, batch_size, rng_data)
    val_images, val_labels = dataset.subset(dataset.val_indices)
    val_images = val_images.astype(dtype)

    probs = gate_probabilities(len(model.modules), spc.max_prob) if spc else []
    gates_active = bool(spc and spc.enabled and spc.adaptive == "off")
    state = model.params.zeros_like(trainable_only=True)
    recent_losses: list[float] = []

    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    lr = lr_at(0, hp)
    for it in range(hp.total_iters):
        new_lr = lr_at(it, hp)
        if new_lr != lr and checkpoint_dir is not None:
            save_checkpoint(model, checkpoint_dir / f"iter{it:08d}.ckpt")
        lr = new_lr

        if spc is not None and spc.enabled and spc.adaptive == "manual":
            gates_active = it >= spc.manual_start

        idx = sampler.next_batch()
        images = dataset.images[idx]
        labels = dataset.labels[idx]
        if augment_cfg is not None:
            images = np.stack([augment(im, augment_cfg, rng_aug) for im in images])
        images = images.astype(dtype)

        gates_map = None
        if gates_active:
            bits = sample_gates(model, probs, rng_gates)
            gates_map = gate_node_map(model, bits, probs, spc.rescale)

        recent_losses.append(_step(model, images, labels, gates_map, state, hp, lr, it))
        model.meta.iteration += 1

        if (it + 1) % eval_every == 0 or it + 1 == hp.total_iters:
            val_loss, top1, top5 = _evaluate(model, val_images, val_labels, spc, probs)
            history.records.append(
                EvalRecord(
                    iteration=it + 1,
                    train_loss=float(np.mean(recent_losses)),
                    val_loss=val_loss,
                    top1=top1,
                    top5=top5,
                    lr=lr,
                    gates_active=gates_active,
                )
            )
            recent_losses.clear()
            if (
                spc is not None
                and spc.enabled
                and spc.adaptive == "auto"
                and not gates_active
                and _overfitting(history.records, spc.window)
            ):
                gates_active = True

    if checkpoint_dir is not None:
        save_checkpoint(model, checkpoint_dir / "final.ckpt")
    history.wall_time_s = time.perf_counter() - started
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
