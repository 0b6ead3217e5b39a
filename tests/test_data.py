"""Synthetic dataset and crop augmentation."""

import shutil

import numpy as np
import pytest

from polyres.data import (
    AugmentConfig,
    Dataset,
    _axis_grid,
    augment,
    bilinear_resize,
    hflip,
    load_dataset,
    sample_crop_box,
    save_dataset,
    synth_dataset,
)
from polyres.engine import EngineError, tensor_parts


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


def write_tensor(path, a):
    path.write_bytes(b"".join(tensor_parts(a)))


class TestImportExport:
    def test_saved_f32_file_bytes_are_pinned(self, tmp_path):
        image = (np.arange(12, dtype=np.float32) - 5.5).reshape(3, 2, 2) / 4
        save_dataset(Dataset(image[None], np.array([1]), classes=2, seed=0), tmp_path)
        # Rank 3, extents (3, 2, 2), tag 32, then the values -1.375 to 1.375 in f32.
        expected = bytes.fromhex(
            "0300000000000000" "0300000000000000" "0200000000000000" "0200000000000000"
            "2000000000000000"
            "0000b0bf000090bf000060bf000020bf0000c0be000000be"
            "0000003e0000c03e0000203f0000603f0000903f0000b03f"
        )
        assert (tmp_path / "1_00000.tns").read_bytes() == expected

    def test_truncated_or_trailing_file_is_rejected_with_its_path(self, tmp_path):
        save_dataset(synth_dataset(4, 2, 8, seed=0), tmp_path)
        path = tmp_path / "0_00002.tns"
        buf = path.read_bytes()
        for bad, word in ((buf[:-3], "truncated"), (buf + b"\0", "1 trailing bytes")):
            path.write_bytes(bad)
            with pytest.raises(EngineError) as err:
                load_dataset(tmp_path)
            assert str(path) in str(err.value)
            assert word in str(err.value)

    def test_directory_round_trip(self, tmp_path):
        ds = synth_dataset(25, 4, 16, seed=2)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.val_mask, ds.val_mask)
        assert back.classes == 4

    def test_split_follows_file_indices_across_gaps(self, tmp_path):
        ds = synth_dataset(30, 4, 8, seed=2)
        save_dataset(ds, tmp_path / "d")
        gone = [0, 7, 8]
        for i in gone:
            (tmp_path / "d" / f"{ds.labels[i]}_{i:05d}.tns").unlink()
        keep = np.setdiff1d(np.arange(30), gone)
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.images, ds.images[keep])
        assert np.array_equal(back.val_mask, ds.val_mask[keep])

    def test_duplicate_index_rejected_with_both_paths(self, tmp_path):
        save_dataset(synth_dataset(4, 2, 8, seed=0), tmp_path)
        shutil.copy(tmp_path / "1_00001.tns", tmp_path / "0_00001.tns")
        with pytest.raises(ValueError, match="0_00001.tns and .*1_00001.tns"):
            load_dataset(tmp_path)

    def test_mixed_image_shapes_name_the_file(self, tmp_path):
        save_dataset(synth_dataset(4, 2, 16, seed=0), tmp_path)
        write_tensor(tmp_path / "0_00002.tns", np.zeros((3, 8, 8), np.float32))
        with pytest.raises(ValueError, match=r"0_00002\.tns.*\(3, 8, 8\)"):
            load_dataset(tmp_path)

    def test_image_that_is_not_rank_three_names_the_file(self, tmp_path):
        for i in range(3):
            write_tensor(tmp_path / f"{i % 2}_{i:05d}.tns", np.zeros((8, 8), np.float32))
        with pytest.raises(ValueError, match=r"0_00000\.tns.*not \(c, h, w\)"):
            load_dataset(tmp_path)

    def test_label_not_below_classes_names_the_file(self, tmp_path):
        ds = synth_dataset(6, 4, 8, seed=0)
        save_dataset(ds, tmp_path)
        write_tensor(tmp_path / "7_00006.tns", ds.images[0])
        assert load_dataset(tmp_path).classes == 8
        with pytest.raises(ValueError, match=r"7_00006\.tns: label 7 is not below classes=4"):
            load_dataset(tmp_path, classes=4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_pixel_names_the_file(self, tmp_path, value):
        ds = synth_dataset(6, 2, 8, seed=0)
        save_dataset(ds, tmp_path)
        image = ds.images[3].copy()
        image[1, 4, 5] = value
        path = tmp_path / f"{ds.labels[3]}_00003.tns"
        write_tensor(path, image)
        with pytest.raises(EngineError, match="image holds a non-finite value") as err:
            load_dataset(tmp_path)
        assert str(err.value).startswith(f"{path}: ")

    def test_missing_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "empty")
