"""Top-k error metrics and the multi-crop, per-scale top-fraction pooling.

Multi-crop evaluation scores a deterministic grid of crops (plus mirrors) at
several scales, averages the top fraction of per-class crop scores within
each scale, then averages the pooled vectors across scales. Scores are
post-softmax probabilities so cross-scale averaging is scale-free.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .builder import Model
from .data import Dataset, bilinear_resize, hflip
from .engine import DTYPES, NumericError, forward, softmax

__all__ = [
    "PoolingConfig",
    "EvalReport",
    "topk_pool",
    "topk_error",
    "single_crop_eval",
    "multicrop_eval",
]


@dataclass(frozen=True)
class PoolingConfig:
    """Multi-crop protocol: resize scales, crops per scale, pooled fraction.

    The desk default (3 scales, 8 crops, top 30%) is a scaled-down version
    of the full 8-scale / 36-crop protocol, which remains expressible.
    """

    scales: tuple[float, ...] = (1.0, 1.15, 1.3)
    crops_per_scale: int = 8
    top_fraction: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError(f"top_fraction must be in (0, 1], got {self.top_fraction}")
        if self.crops_per_scale < 1:
            raise ValueError(f"crops_per_scale must be at least 1, got {self.crops_per_scale}")
        if not self.scales:
            raise ValueError("need at least one scale")
        for s in self.scales:
            if not (math.isfinite(s) and s > 0.0):
                raise ValueError(f"scales must be finite and above 0, got {s}")


def topk_pool(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Average the k highest crop scores per class, k = max(1, ceil(
    fraction * crops)). fraction=1 is mean pooling; small fractions reduce
    to max pooling."""
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError(f"expected a non-empty (crops, classes) matrix, got {scores.shape}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = max(1, math.ceil(fraction * scores.shape[0]))
    top = np.sort(scores, axis=0)[::-1][:k]
    return top.mean(axis=0)


def topk_error(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of samples whose label is missing from the k highest logits.
    Ties rank the lower class index first."""
    logits = np.asarray(logits)
    if k > logits.shape[1]:
        raise ValueError(f"k={k} exceeds {logits.shape[1]} classes")
    # Stable sort of the negated logits puts equal scores in index order.
    order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    hit = (order == np.asarray(labels)[:, None]).any(axis=1)
    return float(1.0 - hit.mean())


def _first_non_finite(model: Model, x: np.ndarray, mode="eval", gates=None) -> str | None:
    """Replay the forward of ``x`` with ``check_finite``; the message naming
    the first node whose output is not finite, or None if every output is."""
    try:
        forward(model.graph, model.params, x, mode, gates, check_finite=True)
    except NumericError as exc:
        return str(exc)
    return None


def single_crop_eval(model: Model, dataset: Dataset) -> tuple[float, float]:
    """Plain full-image top-1/top-5 error on the val split. A non-finite
    logit raises NumericError naming its node."""
    images, labels = dataset.subset(dataset.indices("val"))
    x = images.astype(DTYPES[model.meta.precision], copy=False)
    logits = model.logits(x)
    if not np.isfinite(logits).all():
        raise NumericError(_first_non_finite(model, x) or "non-finite logits")
    k5 = min(5, logits.shape[1])
    return topk_error(logits, labels, 1), topk_error(logits, labels, k5)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _exit_after(work, *args) -> NoReturn:
    """End a forked child: run ``work(*args)`` with every numpy error
    category the caller does not ignore set to raise and every warning an
    error, then exit 0, or 1 if anything raised. ``os._exit`` in ``finally``
    skips the traceback, the caller's stack and its ``atexit`` handlers."""
    code = 1
    try:
        strict = {k: v if v == "ignore" else "raise" for k, v in np.geterr().items()}
        with np.errstate(**strict), warnings.catch_warnings():
            warnings.simplefilter("error")
            work(*args)
        code = 0
    finally:
        os._exit(code)


def _grid_offsets(excess: int, count: int) -> list[tuple[int, int]]:
    """Deterministic top-left offsets: an evenly spaced grid over the scaled
    image covering corners (and the center when the grid side is odd)."""
    if count == 1:
        return [(excess // 2, excess // 2)]
    side = math.ceil(math.sqrt(count))
    ticks = np.unique(np.round(np.linspace(0, excess, side)).astype(int))
    offsets = [(int(t), int(l)) for t in ticks for l in ticks]
    return offsets[:count]


CropKey = tuple[int, int, int, bool]  # (scaled size, top, left, mirrored)


def _crop_plan(
    size: int, scales: list[float], crop: int, count: int
) -> tuple[list[CropKey], list[list[int]]]:
    """The distinct crops of a protocol and, per scale, the rows of its
    ``count`` crops among them.

    A scale's crops are its grid crops, then mirrors of its crops in the
    same order until ``count``; the mirror of a mirrored crop is the crop
    itself. Scales that round to one size share their keys.
    """
    index: dict[CropKey, int] = {}
    rows = []
    for s in scales:
        target = round(size * s)
        grid = _grid_offsets(target - crop, math.ceil(count / 2))
        keys = [(target, t, l, False) for t, l in grid]
        for j in range(len(grid), count):
            _, t, l, mirrored = keys[j - len(grid)]
            keys.append((target, t, l, not mirrored))
        rows.append([index.setdefault(k, len(index)) for k in keys])
    return list(index), rows


def _pooled_scores(
    model: Model, images: np.ndarray, cfg: PoolingConfig
) -> tuple[tuple[float, ...], np.ndarray]:
    """The usable scales and the (images, classes) matrix of pooled crop
    scores. Scales whose image is smaller than the crop are skipped with a
    warning.

    One worker per CPU the process may run on scores every n-th image: the
    caller, and a child forked per call for each other share. A child that
    fails exits 1 and the caller scores its images again, so every error,
    warning and errstate callback happens in the caller. Without
    ``os.fork``, or while another Python thread runs, the caller scores
    every image."""
    crop = model.meta.config.input_size
    usable = []
    for s in cfg.scales:
        if round(images.shape[2] * s) < crop:
            warnings.warn(f"scale {s} yields images smaller than the crop; skipped")
        else:
            usable.append(s)
    if not usable:
        raise ValueError("every scale was smaller than the crop size")

    dtype = DTYPES[model.meta.precision]
    keys, rows = _crop_plan(images.shape[2], usable, crop, cfg.crops_per_scale)
    sizes = dict.fromkeys(size for size, _, _, _ in keys)
    shape = (len(images), model.meta.config.classes)

    def score(i):
        image = images[i]
        scaled = {
            size: image if size == image.shape[1] else bilinear_resize(image, size, size)
            for size in sizes
        }
        crops = []
        for size, t, l, mirrored in keys:
            window = scaled[size][:, t : t + crop, l : l + crop]
            crops.append(hflip(window) if mirrored else window)
        x = np.stack(crops).astype(dtype, copy=False)
        logits = model.logits(x)
        probs = softmax(logits)  # a floating-point error the caller raises comes first
        if not np.isfinite(logits).all():
            raise NumericError(_first_non_finite(model, x) or "non-finite logits")
        return np.mean([topk_pool(probs[r], cfg.top_fraction) for r in rows], axis=0)

    # Worker w scores images w, w + n, ...; the caller is worker 0.
    n = min(len(images), _cpu_count())
    if not hasattr(os, "fork") or threading.active_count() > 1:
        n = 1  # a fork beside another thread risks a deadlock in the child

    def share(w):
        for i in range(w, len(images), n):
            pooled[i] = score(i)

    if n < 2:
        pooled = np.zeros(shape)
        share(0)
        return tuple(usable), pooled
    # The other workers are forked children: they read the model and the
    # images copy-on-write and write their rows into one anonymous shared
    # map made before the fork.
    pooled = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * shape[0] * shape[1]))
    children = {}
    try:
        for w in range(1, n):
            pid = os.fork()
            if pid == 0:
                _exit_after(share, w)
            children[w] = pid
        share(0)
    finally:
        # Reap every child, also when the caller's own share raised.
        failed = [w for w, pid in children.items() if os.waitpid(pid, 0)[1] != 0]
    # The caller scores a failed child's images again, so its errors,
    # warnings and errstate come about here, as in a one-worker run.
    for w in failed:
        share(w)
    return tuple(usable), pooled.copy()


@dataclass
class EvalReport:
    config: str
    checkpoint: str | None
    scales: tuple[float, ...]
    crops_per_scale: int
    top_fraction: float
    top1: float
    top5: float
    n_images: int
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "checkpoint": self.checkpoint,
                "protocol": {
                    "scales": list(self.scales),
                    "crops": self.crops_per_scale,
                    "fraction": self.top_fraction,
                },
                "top1": self.top1,
                "top5": self.top5,
                "n_images": self.n_images,
                "wall_ms": self.wall_ms,
            },
            indent=2,
        )


def multicrop_eval(
    model: Model,
    dataset: Dataset,
    cfg: PoolingConfig,
    checkpoint: str | None = None,
) -> EvalReport:
    """Multi-crop evaluation: per image and scale, score the crop grid, pool
    the top fraction per class, then average pooled vectors across scales.
    Scales whose image is smaller than the crop are skipped with a warning.

    One crop plan serves every image. A crop that several scales or the
    mirror fill produce (at scale 1.0 the grid collapses to one offset) is
    cut and scored once; each image resizes once per distinct size and
    scores all its distinct crops in one forward.

    Images are scored in parallel, one worker per CPU the process may run
    on: the caller and forked children, which leave every error and warning
    to the caller. The pooled scores are bitwise equal to those of a single
    worker. A non-finite logit raises NumericError naming its node.
    """
    started = time.perf_counter()
    images, labels = dataset.subset(dataset.indices("val"))
    usable, pooled = _pooled_scores(model, images, cfg)
    k5 = min(5, pooled.shape[1])
    return EvalReport(
        config=model.meta.config_text,
        checkpoint=checkpoint,
        scales=usable,
        crops_per_scale=cfg.crops_per_scale,
        top_fraction=cfg.top_fraction,
        top1=topk_error(pooled, labels, 1),
        top5=topk_error(pooled, labels, k5),
        n_images=len(images),
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
