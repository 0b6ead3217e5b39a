"""Synthetic dataset and crop augmentation."""

import numpy as np
import pytest

from polyres.data import (
    AugmentConfig,
    _axis_grid,
    augment,
    bilinear_resize,
    hflip,
    sample_crop_box,
    synth_dataset,
)


class TestSynthDataset:
    def test_balance_exact_when_divisible(self):
        ds = synth_dataset(100, 4, 32, seed=1)
        assert np.bincount(ds.labels).tolist() == [25, 25, 25, 25]

    def test_balance_within_one_otherwise(self):
        ds = synth_dataset(103, 4, 32, seed=1)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_under_seed(self):
        a = synth_dataset(64, 4, 16, seed=9)
        b = synth_dataset(64, 4, 16, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        c = synth_dataset(64, 4, 16, seed=10)
        assert not np.array_equal(a.images, c.images)

    def test_split_is_roughly_ninety_ten(self):
        ds = synth_dataset(2000, 4, 8, seed=0)
        frac = len(ds.val_indices) / len(ds)
        assert 0.07 < frac < 0.13
        assert len(ds.train_indices) + len(ds.val_indices) == len(ds)

    def test_an_empty_dataset_names_each_empty_split(self):
        ds = synth_dataset(0, 4, 8, 0)
        assert ds.val_mask.dtype == bool
        for split in ("train", "val"):
            with pytest.raises(ValueError, match=f"the {split} split of a 0-image dataset is empty"):
                ds.indices(split)

    def test_linear_classifier_reaches_eighty_percent(self):
        # Frozen learnability calibration: least squares on raw pixels.
        ds = synth_dataset(512, 4, 32, seed=0)
        xtr, ytr = ds.subset(ds.train_indices)
        xva, yva = ds.subset(ds.val_indices)

        def design(x):
            flat = x.reshape(len(x), -1).astype(np.float64)
            return np.hstack([flat, np.ones((len(flat), 1))])

        w, *_ = np.linalg.lstsq(design(xtr), np.eye(4)[ytr], rcond=None)
        accuracy = ((design(xva) @ w).argmax(1) == yva).mean()
        assert accuracy >= 0.80

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ValueError):
            synth_dataset(10, 1, 32, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(10, 4, 4, seed=0)


def reference_resize(image, out_h, out_w):
    """Frozen copy of the original bilinear_resize: per-call grids and 2-D
    fancy-index gathers. The cached, axis-wise version must match it bitwise."""

    def axis_coords(n_in, n_out):
        if n_out == 1:
            src = np.array([(n_in - 1) / 2.0])
        else:
            src = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
        i0 = np.minimum(np.floor(src).astype(np.int64), n_in - 1)
        return i0, np.minimum(i0 + 1, n_in - 1), src - i0

    y0, y1, fy = axis_coords(image.shape[1], out_h)
    x0, x1, fx = axis_coords(image.shape[2], out_w)
    v00 = image[:, y0[:, None], x0[None, :]]
    v01 = image[:, y0[:, None], x1[None, :]]
    v10 = image[:, y1[:, None], x0[None, :]]
    v11 = image[:, y1[:, None], x1[None, :]]
    fy = fy[None, :, None].astype(image.dtype)
    fx = fx[None, None, :].astype(image.dtype)
    return v00 + fx * (v01 - v00) + fy * (v10 - v00) + fy * fx * (v00 + v11 - v01 - v10)


def reference_augment(image, cfg, rng):
    """Frozen copy of the original augment (np.sqrt crop proposals, the
    reference resize): same draws from ``rng`` in the same order."""
    _, height, width = image.shape
    area = float(height * width)
    box = None
    for _ in range(cfg.max_attempts):
        target = rng.uniform(cfg.area_min, cfg.area_max) * area
        aspect = rng.uniform(cfg.aspect_min, cfg.aspect_max)
        cw = max(1, round(np.sqrt(target * aspect)))
        ch = max(1, round(np.sqrt(target / aspect)))
        if cw > width or ch > height:
            continue
        if not cfg.area_min <= (cw * ch) / area <= cfg.area_max:
            continue
        if not cfg.aspect_min <= cw / ch <= cfg.aspect_max:
            continue
        top = int(rng.integers(0, height - ch + 1))
        left = int(rng.integers(0, width - cw + 1))
        box = top, left, ch, cw
        break
    if box is None:
        side = min(height, width)
        box = (height - side) // 2, (width - side) // 2, side, side
    top, left, ch, cw = box
    out = reference_resize(image[:, top : top + ch, left : left + cw], cfg.out_size, cfg.out_size)
    if rng.random() < cfg.flip_prob:
        out = np.ascontiguousarray(out[..., ::-1])
    return out


class TestResize:
    def test_same_size_is_identity_bitwise(self):
        img = np.random.default_rng(0).standard_normal((3, 16, 16))
        assert np.array_equal(bilinear_resize(img, 16, 16), img)

    def test_constant_image_stays_constant_exactly(self):
        img = np.full((3, 9, 13), 2.75)
        out = bilinear_resize(img, 5, 21)
        assert np.all(out == 2.75)

    def test_corners_are_sampled_exactly(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        out = bilinear_resize(img, 2, 2)
        assert out[0, 0, 0] == img[0, 0, 0]
        assert out[0, 1, 1] == img[0, 3, 3]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_hw", [(32, 32), (17, 24)])
    def test_matches_frozen_reference_bitwise(self, dtype, out_hw):
        # Every crop size of a 32x32 image, as augmentation produces them.
        image = np.random.default_rng(8).standard_normal((3, 32, 32)).astype(dtype)
        for h in range(1, 33):
            for w in range(1, 33):
                crop = image[:, 32 - h :, 32 - w :]
                got = bilinear_resize(crop, *out_hw)
                want = reference_resize(crop, *out_hw)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (h, w)

    def test_cached_grids_are_read_only(self):
        grid = _axis_grid(7, 4, np.dtype(np.float32))
        assert grid is _axis_grid(7, 4, np.dtype(np.float32))
        assert grid[2].dtype == np.float32
        for a in grid:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_double_flip_is_identity(self):
        img = np.random.default_rng(1).standard_normal((3, 8, 8))
        assert np.array_equal(hflip(hflip(img)), img)


class TestAugment:
    def test_constraints_hold_over_ten_thousand_draws(self):
        cfg = AugmentConfig()
        rng = np.random.default_rng(7)
        area = 32 * 32
        fractions, aspects = [], []
        for _ in range(10_000):
            _, _, ch, cw = sample_crop_box(32, 32, cfg, rng)
            fractions.append(ch * cw / area)
            aspects.append(cw / ch)
        fractions = np.array(fractions)
        aspects = np.array(aspects)
        assert fractions.min() >= 0.08 and fractions.max() <= 1.0
        assert aspects.min() >= 3 / 4 and aspects.max() <= 4 / 3
        # Distribution sanity: both area endpoints are approached.
        assert fractions.min() < 0.10 and fractions.max() > 0.95

    def test_degenerate_config_is_bitwise_identity(self):
        img = np.random.default_rng(3).standard_normal((3, 32, 32))
        cfg = AugmentConfig(
            area_min=1.0, area_max=1.0, aspect_min=1.0, aspect_max=1.0,
            out_size=32, flip_prob=0.0,
        )
        assert np.array_equal(augment(img, cfg, np.random.default_rng(0)), img)

    def test_output_shape_is_always_square(self):
        img = np.random.default_rng(4).standard_normal((3, 24, 40))
        cfg = AugmentConfig(out_size=16)
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = augment(img, cfg, rng)
            assert out.shape == (3, 16, 16)

    def test_flip_prob_one_flips(self):
        img = np.random.default_rng(6).standard_normal((3, 8, 8))
        cfg = AugmentConfig(
            area_min=1.0, area_max=1.0, aspect_min=1.0, aspect_max=1.0,
            out_size=8, flip_prob=1.0,
        )
        out = augment(img, cfg, np.random.default_rng(0))
        assert np.array_equal(out, hflip(img))
        assert np.array_equal(hflip(out), img)

    def test_fallback_is_the_centered_maximal_square(self):
        # Impossible combination: full area at a non-square aspect gets
        # rejected every attempt, landing on the fallback.
        cfg = AugmentConfig(
            area_min=1.0, area_max=1.0, aspect_min=4 / 3, aspect_max=4 / 3,
            out_size=8, flip_prob=0.0, max_attempts=3,
        )
        top, left, ch, cw = sample_crop_box(20, 30, cfg, np.random.default_rng(0))
        assert (ch, cw) == (20, 20)
        assert (top, left) == (0, 5)

    @pytest.mark.parametrize("dtype,seeds,n", [(np.float32, 4, 64), (np.float64, 2, 32)])
    def test_matches_frozen_reference_and_rng_stream(self, dtype, seeds, n):
        cfg = AugmentConfig()
        for seed in range(seeds):
            images = np.random.default_rng(100 + seed).standard_normal((n, 3, 32, 32))
            images = images.astype(dtype)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for image in images:
                got, want = augment(image, cfg, rng), reference_augment(image, cfg, ref_rng)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.random() == ref_rng.random()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(area_min=0.0)
        with pytest.raises(ValueError):
            AugmentConfig(area_min=0.9, area_max=0.5)
        with pytest.raises(ValueError):
            AugmentConfig(flip_prob=1.5)

