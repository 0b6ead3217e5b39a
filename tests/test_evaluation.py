"""Top-k metrics and the multi-crop pooling protocol."""

import json
import math
import os
import re
import threading
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from polyres import evaluation
from polyres.builder import ConvBlock, Model, lower
from polyres.data import Dataset, bilinear_resize, hflip, synth_dataset
from polyres.dsl import parse_network
from polyres.engine import NumericError, softmax
from polyres.evaluation import (
    PoolingConfig,
    _pooled_scores,
    multicrop_eval,
    single_crop_eval,
    topk_error,
    topk_pool,
)


class TestTopkPool:
    def test_hand_example(self):
        scores = np.array([[0.9], [0.5], [0.8], [0.1]])
        assert np.isclose(topk_pool(scores, 0.5)[0], 0.85)

    def test_fraction_one_is_mean_pooling(self):
        scores = np.random.default_rng(0).random((36, 5))
        assert np.allclose(topk_pool(scores, 1.0), scores.mean(axis=0))

    def test_tiny_fraction_is_max_pooling(self):
        scores = np.random.default_rng(1).random((20, 4))
        assert np.allclose(topk_pool(scores, 1e-9), scores.max(axis=0))

    def test_pool_size_for_the_reference_setting(self):
        assert max(1, math.ceil(0.3 * 36)) == 11
        scores = np.random.default_rng(2).random((36, 3))
        expected = np.sort(scores, axis=0)[::-1][:11].mean(axis=0)
        assert np.allclose(topk_pool(scores, 0.3), expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random((15, 4))
        shuffled = scores[rng.permutation(15)]
        assert np.allclose(topk_pool(scores, 0.4), topk_pool(shuffled, 0.4))

    def test_monotone_in_every_crop_score(self):
        rng = np.random.default_rng(4)
        scores = rng.random((10, 3))
        base = topk_pool(scores, 0.3)
        for i in range(10):
            bumped = scores.copy()
            bumped[i] += 0.5
            assert np.all(topk_pool(bumped, 0.3) >= base - 1e-12)

    def test_duplication_invariance_at_integral_k(self):
        scores = np.random.default_rng(5).random((10, 4))
        doubled = np.vstack([scores, scores])
        assert np.allclose(topk_pool(scores, 0.5), topk_pool(doubled, 0.5))

    def test_rejects_empty_and_bad_fraction(self):
        with pytest.raises(ValueError):
            topk_pool(np.empty((0, 3)), 0.3)
        with pytest.raises(ValueError):
            topk_pool(np.ones((2, 2)), 0.0)


class TestTopkError:
    def test_one_hot_logits_are_always_right(self):
        labels = np.array([0, 2, 1])
        logits = np.eye(3)[labels]
        for k in (1, 2, 3):
            assert topk_error(logits, labels, k) == 0.0

    def test_k_equals_classes_is_zero_error(self):
        logits = np.random.default_rng(0).standard_normal((10, 6))
        labels = np.random.default_rng(1).integers(0, 6, 10)
        assert topk_error(logits, labels, 6) == 0.0

    def test_uniform_logits_tie_break_by_index(self):
        # All-equal logits: rank order is 0,1,2,...; label l is a top-k hit
        # iff l < k. Brute-force enumeration of the stated rule.
        classes = 5
        logits = np.zeros((classes, classes))
        labels = np.arange(classes)
        for k in range(1, classes + 1):
            expected = 1.0 - sum(1 for l in labels if l < k) / classes
            assert topk_error(logits, labels, k) == pytest.approx(expected)

    def test_partial_tie_prefers_lower_index(self):
        logits = np.array([[1.0, 2.0, 2.0]])
        assert topk_error(logits, np.array([1]), 1) == 0.0  # 1 beats 2 on the tie
        assert topk_error(logits, np.array([2]), 1) == 1.0

    def test_k_larger_than_classes_rejected(self):
        with pytest.raises(ValueError):
            topk_error(np.ones((1, 3)), np.array([0]), 4)


@pytest.fixture(scope="module")
def setup():
    dataset = synth_dataset(60, 4, 16, seed=3)
    config = parse_network("A: ir", input_size=16, classes=4, base_width=4)
    model = lower(config, ConvBlock(4, 2), beta=0.3, seed=0, precision="f32")
    return model, dataset


class TestNonFiniteLogits:
    """Finite parameters whose logits overflow: both evaluations stop with
    NumericError naming the node, found by a ``check_finite`` replay."""

    @pytest.fixture
    def overflowing(self, setup):
        model, dataset = setup
        model = model.clone()
        model.params.get("head.fc", "w")[...] = 3e38  # f32 max is about 3.4e38
        assert model.params.first_non_finite() is None
        return model, dataset

    @pytest.mark.parametrize("run", [
        lambda model, dataset: single_crop_eval(model, dataset),
        lambda model, dataset: multicrop_eval(model, dataset, PoolingConfig()),
    ], ids=["single_crop", "multicrop"])
    def test_evaluation_names_the_node(self, overflowing, run):
        model, dataset = overflowing
        head = model.graph.nodes[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=f"non-finite output at {re.escape(head.where)}"):
                run(model, dataset)

    def test_the_callers_error_state_still_comes_first(self, overflowing):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            single_crop_eval(*overflowing)


class TestMulticrop:
    def test_protocol_collapse_to_single_crop(self, setup):
        model, dataset = setup
        report = multicrop_eval(
            model, dataset, PoolingConfig(scales=(1.0,), crops_per_scale=1, top_fraction=1.0)
        )
        top1, top5 = single_crop_eval(model, dataset)
        assert report.top1 == top1
        assert report.top5 == top5

    @pytest.mark.parametrize("model_classes,data_classes", [(10, 4), (4, 10)])
    def test_top5_takes_k_from_the_logits_width(self, model_classes, data_classes):
        # The dataset's class count need not be the model's: top-5 counts
        # the model's classes, as single-crop evaluation does.
        dataset = replace(synth_dataset(200, 4, 16, seed=3), classes=data_classes)
        config = parse_network("A: ir", input_size=16, classes=model_classes, base_width=4)
        model = lower(config, ConvBlock(4, 2), beta=0.3, seed=0, precision="f32")
        report = multicrop_eval(
            model, dataset, PoolingConfig(scales=(1.0,), crops_per_scale=1, top_fraction=1.0)
        )
        assert (report.top1, report.top5) == single_crop_eval(model, dataset)

    def test_desk_default_runs_end_to_end(self, setup):
        model, dataset = setup
        report = multicrop_eval(model, dataset, PoolingConfig())
        assert 0.0 <= report.top1 <= 1.0
        assert 0.0 <= report.top5 <= report.top1
        assert report.n_images == len(dataset.val_indices)

    def test_repeated_evaluation_is_bitwise_stable(self, setup):
        model, dataset = setup
        cfg = PoolingConfig(scales=(1.0, 1.25), crops_per_scale=4)
        a = multicrop_eval(model, dataset, cfg)
        b = multicrop_eval(model, dataset, cfg)
        assert (a.top1, a.top5) == (b.top1, b.top5)

    def test_undersized_scales_are_skipped_with_warning(self, setup):
        model, dataset = setup
        with pytest.warns(UserWarning):
            report = multicrop_eval(
                model, dataset, PoolingConfig(scales=(0.5, 1.0), crops_per_scale=2)
            )
        assert report.scales == (1.0,)
        with pytest.raises(ValueError), pytest.warns(UserWarning):
            multicrop_eval(model, dataset, PoolingConfig(scales=(0.25,), crops_per_scale=2))

    def test_report_json_shape(self, setup):
        model, dataset = setup
        report = multicrop_eval(model, dataset, PoolingConfig(), checkpoint="x.ckpt")
        payload = json.loads(report.to_json())
        assert payload["protocol"] == {"scales": [1.0, 1.15, 1.3], "crops": 8, "fraction": 0.3}
        assert payload["checkpoint"] == "x.ckpt"
        assert set(payload) == {
            "config", "checkpoint", "protocol", "top1", "top5", "n_images", "wall_ms"
        }

    def test_config_validation(self):
        for fraction in (0.0, 1.5, np.nan):
            with pytest.raises(ValueError, match=rf"^top_fraction must be in \(0, 1\], got {fraction}$"):
                PoolingConfig(top_fraction=fraction)
        for crops in (0, -2):
            with pytest.raises(ValueError, match=f"^crops_per_scale must be at least 1, got {crops}$"):
                PoolingConfig(crops_per_scale=crops)
        with pytest.raises(ValueError):
            PoolingConfig(scales=())
        for scale in (np.inf, -np.inf, np.nan, -2.0, 0.0):
            with pytest.raises(ValueError, match="^scales must be finite and above 0"):
                PoolingConfig(scales=(1.0, scale))


def reference_pooled_scores(model, images, scales, cfg):
    """A frozen copy of the per-(image, scale) loop that scored every crop
    of every scale, duplicates included, one forward per image and scale."""

    def grid_offsets(excess, count):
        if count == 1:
            return [(excess // 2, excess // 2)]
        side = math.ceil(math.sqrt(count))
        ticks = np.unique(np.round(np.linspace(0, excess, side)).astype(int))
        return [(int(t), int(l)) for t in ticks for l in ticks][:count]

    def scale_crops(image, scale, crop, count):
        target = round(image.shape[1] * scale)
        scaled = bilinear_resize(image, target, target) if target != image.shape[1] else image
        n_base = min(count, max(1, math.ceil(count / 2)))
        crops = [
            scaled[:, t : t + crop, l : l + crop]
            for t, l in grid_offsets(target - crop, n_base)
        ]
        i = 0
        while len(crops) < count:
            crops.append(hflip(crops[i]))
            i += 1
        return crops[:count]

    crop = model.meta.config.input_size
    dtype = np.float64 if model.meta.precision == "f64" else np.float32
    pooled = np.zeros((len(images), model.meta.config.classes))
    for i, image in enumerate(images):
        per_scale = []
        for s in scales:
            batch = np.stack(scale_crops(image, s, crop, cfg.crops_per_scale)).astype(dtype)
            per_scale.append(topk_pool(softmax(model.logits(batch)), cfg.top_fraction))
        pooled[i] = np.mean(per_scale, axis=0)
    return pooled


class TestDistinctCrops:
    # 0.5 is undersized and 1.02 rounds like 1.0 at both sizes. 1.27 rounds
    # like 1.25 at 16 px but not at 17 px, where the 1.0 grid has an
    # excess of one pixel.
    COLLAPSED = (0.5, 1.0, 1.02)
    RESIZED = (0.5, 1.0, 1.02, 1.25, 1.27)

    @pytest.mark.parametrize("size", [16, 17])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("scales", [COLLAPSED, RESIZED], ids=["collapsed", "resized"])
    def test_pooled_scores_are_bitwise_equal_to_the_per_scale_loop(self, scales, precision, size):
        images = synth_dataset(3, 4, size, seed=11).images
        config = parse_network("A: ir", input_size=16, classes=4, base_width=4)
        model = lower(config, ConvBlock(4, 2), beta=0.3, seed=1, precision=precision)
        for count in range(1, 10):
            for fraction in (0.1, 0.3, 1.0):
                cfg = PoolingConfig(scales=scales, crops_per_scale=count, top_fraction=fraction)
                with pytest.warns(UserWarning, match="scale 0.5"):
                    usable, pooled = _pooled_scores(model, images, cfg)
                assert usable == scales[1:]
                expected = reference_pooled_scores(model, images, usable, cfg)
                if count == 1 and scales == self.RESIZED:
                    # The loop scored each scale's one crop in a one-row
                    # forward; numpy computes a one-row matmul with gemv,
                    # whose sums differ in the last bits from a gemm row.
                    rtol = 1e-5 if precision == "f32" else 1e-13
                    np.testing.assert_allclose(pooled, expected, rtol=rtol)
                else:
                    assert np.array_equal(pooled, expected), (count, fraction)

    def test_one_forward_per_image_over_the_distinct_crops(self, monkeypatch, tmp_path):
        # The benchmark protocol at 32 px: scale 1.0 has one grid offset, so
        # its 8 crops are 2 distinct ones; 1.15 and 1.3 add 8 distinct each.
        dataset = synth_dataset(40, 4, 32, seed=2)
        config = parse_network("A: ir", input_size=32, classes=4, base_width=4)
        model = lower(config, ConvBlock(4, 2), seed=0, precision="f32")
        log = tmp_path / "logits.log"
        record_logits(monkeypatch, log)
        cfg = PoolingConfig(scales=(1.0, 1.15, 1.3), crops_per_scale=8, top_fraction=0.3)
        report = multicrop_eval(model, dataset, cfg)
        assert report.n_images > 0
        assert [rows for _, rows in logged_calls(log)] == [18] * report.n_images


def record_logits(monkeypatch, path, pick=lambda model, x: model):
    """Patch ``Model.logits`` to run the model ``pick`` chooses for the
    batch and to append "pid rows" to ``path``, from every process that
    scores."""
    logits = Model.logits

    def recording(self, x, mode="eval"):
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {len(x)}\n")
        return logits(pick(self, x), x, mode)

    monkeypatch.setattr(Model, "logits", recording)


def logged_calls(path) -> list[tuple[int, int]]:
    """The (pid, rows) of every call that ``record_logits`` logged."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


class TestConcurrentScoring:
    """Images are scored by one worker per usable CPU: the caller and a
    forked child for each other worker. Each image's forward, rows and
    pooling are the serial ones. A child that fails leaves its images to
    the caller, so every error and warning happens in the caller."""

    PROTOCOL = PoolingConfig(scales=(1.0, 1.15, 1.3), crops_per_scale=8, top_fraction=0.3)
    IMAGES = synth_dataset(7, 4, 32, seed=5).images

    @staticmethod
    def model():
        config = parse_network("A: ir", input_size=32, classes=4, base_width=4)
        return lower(config, ConvBlock(4, 2), seed=0, precision="f32")

    @staticmethod
    def poisoned(model):
        """A copy whose head weights are inf: its logits are NaN."""
        poisoned = model.clone()
        poisoned.params.get("head.fc", "w")[:] = np.inf
        return poisoned

    def poison_images(self, monkeypatch, path, model, bad):
        """Score the images ``bad`` with the poisoned model, in whichever
        process scores them. At scale 1.0 a batch's first crop is its image."""
        poisoned = self.poisoned(model)

        def pick(model, x):
            return poisoned if any(np.array_equal(x[0], image) for image in bad) else model

        record_logits(monkeypatch, path, pick)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_pooled_scores_are_bitwise_equal_for_any_worker_count(
        self, monkeypatch, tmp_path, cpus
    ):
        monkeypatch.setattr(evaluation, "_cpu_count", lambda: cpus)
        model = self.model()
        images = self.IMAGES
        expected = reference_pooled_scores(model, images, self.PROTOCOL.scales, self.PROTOCOL)
        log = tmp_path / "logits.log"
        record_logits(monkeypatch, log)
        usable, pooled = _pooled_scores(model, images, self.PROTOCOL)
        assert usable == self.PROTOCOL.scales
        assert np.array_equal(pooled, expected)
        calls = logged_calls(log)
        assert [rows for _, rows in calls] == [18] * len(images)
        # Worker w scored images w, w + cpus, ...: one process each, the
        # caller being worker 0.
        per_pid = Counter(pid for pid, _ in calls)
        assert per_pid[os.getpid()] == len(range(0, len(images), cpus))
        shares = [len(range(w, len(images), cpus)) for w in range(cpus)]
        assert sorted(per_pid.values(), reverse=True) == shares

    def test_a_childs_failure_is_scored_again_by_the_caller(self, monkeypatch, tmp_path):
        # Only the child meets the poisoned model; the caller then scores
        # the child's images with the finite one.
        monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
        model = self.model()
        poisoned = self.poisoned(model)
        caller = os.getpid()
        expected = reference_pooled_scores(model, self.IMAGES, self.PROTOCOL.scales, self.PROTOCOL)
        log = tmp_path / "logits.log"
        record_logits(monkeypatch, log, lambda m, x: m if os.getpid() == caller else poisoned)
        _, pooled = _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        assert np.array_equal(pooled, expected)
        per_pid = Counter(pid for pid, _ in logged_calls(log))
        # The child stopped at its first image; the caller scored all seven.
        assert sorted(per_pid.values()) == [1, 7]
        assert per_pid[caller] == 7

    def test_a_helpers_floating_point_error_reaches_the_caller(self, monkeypatch, tmp_path, capfd):
        # Images 1, 3 and 5 are the child's share of two workers; only they
        # meet the poisoned model, so the caller's own share is clean.
        monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
        model = self.model()
        log = tmp_path / "logits.log"
        self.poison_images(monkeypatch, log, model, self.IMAGES[1::2])
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        per_pid = Counter(pid for pid, _ in logged_calls(log))
        # The child stopped at image 1; the caller scored 0, 2, 4, 6, then 1.
        assert per_pid[os.getpid()] == 5
        assert sorted(per_pid.values()) == [1, 5]
        assert capfd.readouterr().err == ""

    def test_a_helpers_non_finite_logits_warn_and_raise_in_the_caller(
        self, monkeypatch, tmp_path, capfd
    ):
        # Under numpy's default errstate the poisoned image warns, then its
        # NaN logits stop the evaluation, as in a one-worker run.
        model = self.model()
        self.poison_images(monkeypatch, tmp_path / "logits.log", model, self.IMAGES[1::2])
        seen = {}
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_cpu_count", lambda: cpus)
            with pytest.warns(RuntimeWarning, match="invalid value") as caught:
                with pytest.raises(NumericError) as error:
                    _pooled_scores(model, self.IMAGES, self.PROTOCOL)
            seen[cpus] = [str(w.message) for w in caught], str(error.value)
        assert seen[2] == seen[1]
        assert capfd.readouterr().err == ""

    def run_with_events(self, monkeypatch, tmp_path, event):
        """Pooled scores of one and of two workers, where ``event()`` runs
        before each forward of the child's share (images 1, 3 and 5)."""
        model = self.model()
        expected = reference_pooled_scores(model, self.IMAGES, self.PROTOCOL.scales, self.PROTOCOL)
        bad = self.IMAGES[1::2]

        def pick(model, x):
            if any(np.array_equal(x[0], image) for image in bad):
                event()
            return model

        record_logits(monkeypatch, tmp_path / "logits.log", pick)
        pooled = {}
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_cpu_count", lambda: cpus)
            _, pooled[cpus] = _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        assert np.array_equal(pooled[1], expected) and np.array_equal(pooled[2], expected)

    def test_a_helpers_warning_happens_in_the_caller(self, monkeypatch, tmp_path):
        # A warning that does not stop the child still fails it, so the
        # caller scores its images again and the warning shows here.
        with pytest.warns(UserWarning) as caught:
            self.run_with_events(monkeypatch, tmp_path, lambda: warnings.warn("seen"))
        assert [str(w.message) for w in caught] == ["seen"] * 3 * 2

    def test_an_errstate_callback_runs_in_the_caller(self, monkeypatch, tmp_path):
        calls = []
        overflow = lambda: np.array([3e38], np.float32) * np.float32(10)  # noqa: E731
        with np.errstate(over="call", call=lambda kind, flag: calls.append(kind)):
            self.run_with_events(monkeypatch, tmp_path, overflow)
        assert calls == ["overflow"] * 3 * 2

    def test_a_failure_on_every_worker_raises_in_the_caller(self, monkeypatch, tmp_path, capfd):
        monkeypatch.setattr(evaluation, "_cpu_count", lambda: 2)
        model = self.model()
        log = tmp_path / "logits.log"
        self.poison_images(monkeypatch, log, model, self.IMAGES)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        # Both workers stopped at their first image, and the child printed
        # no traceback.
        assert sorted(Counter(pid for pid, _ in logged_calls(log)).values()) == [1, 1]
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("caller_fails", [False, True], ids=["pass", "caller-raises"])
    def test_no_child_outlives_a_pass(self, monkeypatch, tmp_path, caller_fails):
        monkeypatch.setattr(evaluation, "_cpu_count", lambda: 4)
        model = self.model()
        log = tmp_path / "logits.log"
        self.poison_images(monkeypatch, log, model, self.IMAGES[::4] if caller_fails else [])
        if caller_fails:
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        else:
            _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        assert len({pid for pid, _ in logged_calls(log)}) == 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("why", ["one-cpu", "live-thread", "no-fork"])
    def test_one_worker_forks_nothing(self, monkeypatch, why):
        def no_fork():
            raise AssertionError("forked")

        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(evaluation, "_cpu_count", lambda: 1 if why == "one-cpu" else 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if why == "live-thread":
            thread.start()
        try:
            before = threading.active_count()
            seen = []

            def pick(model, x):
                seen.append((os.getpid(), threading.active_count()))
                return model

            record_logits(monkeypatch, os.devnull, pick)
            model = self.model()
            _, pooled = _pooled_scores(model, self.IMAGES, self.PROTOCOL)
        finally:
            stop.set()
            if thread.is_alive():
                thread.join()
        assert seen == [(os.getpid(), before)] * len(self.IMAGES)
        expected = reference_pooled_scores(model, self.IMAGES, self.PROTOCOL.scales, self.PROTOCOL)
        assert np.array_equal(pooled, expected)


def test_an_empty_split_is_named_with_the_dataset_size(setup, monkeypatch):
    model, _ = setup
    tiny = synth_dataset(2, 2, 16, seed=0)
    assert len(tiny.val_indices) == 0

    def no_fork():
        raise AssertionError("a worker was forked for zero images")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match="val split of a 2-image dataset is empty"):
        single_crop_eval(model, tiny)
    with pytest.raises(ValueError, match="val split of a 2-image dataset is empty"):
        multicrop_eval(model, tiny, PoolingConfig())


def test_single_crop_eval_runs_an_f64_dataset_at_the_model_precision(setup, monkeypatch):
    model, dataset = setup
    wide = Dataset(
        images=dataset.images.astype(np.float64),
        labels=dataset.labels,
        classes=dataset.classes,
    )
    dtypes = []
    logits = Model.logits

    def recording(self, x, mode="eval"):
        out = logits(self, x, mode)
        dtypes.append((x.dtype, out.dtype))
        return out

    monkeypatch.setattr(Model, "logits", recording)
    assert single_crop_eval(model, wide) == single_crop_eval(model, dataset)
    assert dtypes == [(np.float32, np.float32)] * 2
