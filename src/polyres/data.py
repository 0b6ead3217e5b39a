"""Deterministic synthetic image data and training-time crop augmentation.

The dataset is procedural: each class is a striped pattern with its own
orientation and spatial frequency, plus per-sample phase jitter and noise so
the task is learnable but not saturated. Augmentation rejection-samples a
random crop under area-fraction and aspect-ratio constraints, resizes it
bilinearly, and flips it with a coin toss.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import Tensor

__all__ = [
    "Dataset",
    "AugmentConfig",
    "synth_dataset",
    "augment",
    "sample_crop_box",
    "bilinear_resize",
    "hflip",
    "save_dataset",
    "load_dataset",
]


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


def _index_hash(i: int) -> int:
    # splitmix64 finalizer: a fixed integer mix so the train/val split never
    # depends on interpreter hash randomization.
    mask = 0xFFFFFFFFFFFFFFFF
    z = (i + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _is_val(i: int) -> bool:
    return _index_hash(i) % 10 == 0


@dataclass
class Dataset:
    """Labeled images (n, c, h, w) with a deterministic 90/10 split."""

    images: np.ndarray
    labels: np.ndarray
    classes: int
    seed: int
    val_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.val_mask is None:
            self.val_mask = np.array([_is_val(i) for i in range(len(self.labels))])

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.val_mask)

    @property
    def val_indices(self) -> np.ndarray:
        return np.flatnonzero(self.val_mask)

    def subset(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.images[indices], self.labels[indices]


def synth_dataset(n: int, classes: int, size: int, seed: int) -> Dataset:
    """Generate n class-balanced striped images of shape (3, size, size).

    Class c draws stripes at orientation pi*c/classes with frequency 2 + c;
    phase jitters per sample and per channel, and seeded noise keeps a
    linear pixel classifier off the ceiling.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if size < 8:
        raise ValueError("image size must be >= 8")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    u = np.arange(size) / size
    yy, xx = np.meshgrid(u, u, indexing="ij")
    images = np.empty((n, 3, size, size), dtype=np.float32)
    channel_shift = np.array([0.0, 0.45, 0.9])
    for i in range(n):
        c = labels[i]
        theta = np.pi * c / classes
        freq = 2.0 + c
        ramp = xx * np.cos(theta) + yy * np.sin(theta)
        phase = rng.uniform(-1.5, 1.5)
        pattern = np.sin(
            2.0 * np.pi * freq * ramp[None, :, :]
            + phase
            + channel_shift[:, None, None]
        )
        noise = rng.normal(0.0, 0.6, size=(3, size, size))
        images[i] = (pattern + noise).astype(np.float32)
    return Dataset(images=images, labels=labels.astype(np.int64), classes=classes, seed=seed)


# ---------------------------------------------------------------------------
# Resizing and flips
# ---------------------------------------------------------------------------


def _axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n_out == 1:
        src = np.array([(n_in - 1) / 2.0])
    else:
        src = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n_in - 1)
    frac = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, frac


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a (c, h, w) image with endpoint-aligned sampling.

    Written in incremental form (v00 plus fractional differences) so a
    constant image stays exactly constant and a same-size resize is the
    identity bitwise.
    """
    c, h, w = image.shape
    y0, y1, fy = _axis_coords(h, out_h)
    x0, x1, fx = _axis_coords(w, out_w)
    v00 = image[:, y0[:, None], x0[None, :]]
    v01 = image[:, y0[:, None], x1[None, :]]
    v10 = image[:, y1[:, None], x0[None, :]]
    v11 = image[:, y1[:, None], x1[None, :]]
    fy = fy[None, :, None].astype(image.dtype)
    fx = fx[None, None, :].astype(image.dtype)
    return v00 + fx * (v01 - v00) + fy * (v10 - v00) + fy * fx * (v00 + v11 - v01 - v10)


def hflip(image: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image[..., ::-1])


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig:
    """Random resized-crop settings. Defaults are the standard constraints
    (area 8%..100% of the source, aspect 3/4..4/3, 50% horizontal flip) at
    the desk-scale output size of 32 pixels."""

    area_min: float = 0.08
    area_max: float = 1.0
    aspect_min: float = 3.0 / 4.0
    aspect_max: float = 4.0 / 3.0
    out_size: int = 32
    flip_prob: float = 0.5
    max_attempts: int = 10

    def __post_init__(self):
        if not 0.0 < self.area_min <= self.area_max <= 1.0:
            raise ValueError("need 0 < area_min <= area_max <= 1")
        if self.aspect_min > self.aspect_max:
            raise ValueError("need aspect_min <= aspect_max")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must be a probability")


def sample_crop_box(
    height: int, width: int, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[int, int, int, int]:
    """Sample (top, left, crop_h, crop_w) under the config's constraints.

    Rounding to whole pixels can push a proposal outside the bounds, so each
    attempt re-checks the realized area fraction and aspect ratio; after
    ``max_attempts`` rejections the centered maximal square is used.
    """
    area = float(height * width)
    for _ in range(cfg.max_attempts):
        target = rng.uniform(cfg.area_min, cfg.area_max) * area
        aspect = rng.uniform(cfg.aspect_min, cfg.aspect_max)
        cw = max(1, round(np.sqrt(target * aspect)))
        ch = max(1, round(np.sqrt(target / aspect)))
        if cw > width or ch > height:
            continue
        realized_area = (cw * ch) / area
        realized_aspect = cw / ch
        if not cfg.area_min <= realized_area <= cfg.area_max:
            continue
        if not cfg.aspect_min <= realized_aspect <= cfg.aspect_max:
            continue
        top = int(rng.integers(0, height - ch + 1))
        left = int(rng.integers(0, width - cw + 1))
        return top, left, ch, cw
    side = min(height, width)
    return (height - side) // 2, (width - side) // 2, side, side


def augment(image: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Random resized crop plus horizontal flip of a (c, h, w) image."""
    _, h, w = image.shape
    top, left, ch, cw = sample_crop_box(h, w, cfg, rng)
    crop = image[:, top : top + ch, left : left + cw]
    out = bilinear_resize(crop, cfg.out_size, cfg.out_size)
    if rng.random() < cfg.flip_prob:
        out = hflip(out)
    return out


# ---------------------------------------------------------------------------
# Import / export
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(r"^(\d+)_(\d+)\.tns$")


def save_dataset(dataset: Dataset, directory) -> None:
    """Write one ``<label>_<index>.tns`` tensor file per sample."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, (image, label) in enumerate(zip(dataset.images, dataset.labels)):
        Tensor(image).save(directory / f"{int(label)}_{i:05d}.tns")


def load_dataset(directory, classes: int | None = None) -> Dataset:
    """Load a directory written by :func:`save_dataset`. The train/val split
    is recomputed from sample indices, so it matches the original."""
    directory = Path(directory)
    entries: list[tuple[int, int, Path]] = []
    for path in directory.iterdir():
        m = _SAMPLE_RE.match(path.name)
        if m:
            entries.append((int(m.group(2)), int(m.group(1)), path))
    if not entries:
        raise FileNotFoundError(f"no .tns samples under {directory}")
    entries.sort()
    images = np.stack([Tensor.load(p).data for _, _, p in entries])
    labels = np.array([label for _, label, _ in entries], dtype=np.int64)
    return Dataset(
        images=images,
        labels=labels,
        classes=classes if classes is not None else int(labels.max()) + 1,
        seed=0,
    )
