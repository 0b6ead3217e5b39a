"""Optimizer, schedule, stochastic paths, and the training loop."""

import json
import re
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from polyres import training
from polyres.builder import (
    ConvBlock,
    DenseBlock,
    deepen_interleave,
    load_checkpoint,
    lower,
    save_checkpoint,
    upgrade,
)
from polyres.cost import count_params
from polyres.data import AugmentConfig, Dataset, augment, synth_dataset
from polyres.dsl import parse_network, preset
from polyres.engine import (
    DTYPES,
    InputOp,
    NumericError,
    ParamStore,
    backward,
    forward,
    softmax_cross_entropy,
)
from polyres.evaluation import topk_error
from polyres.training import (
    EvalRecord,
    OptimizerHP,
    StochasticPathConfig,
    TrainHistory,
    TrainingDiverged,
    _overfitting,
    gate_node_map,
    gate_probabilities,
    lr_at,
    rmsprop_step,
    sample_gates,
    train,
)


def store(**arrays):
    values = {name: np.asarray(value, dtype=np.float64) for name, value in arrays.items()}
    s = ParamStore.allocate(("g", name, v.shape, v.dtype) for name, v in values.items())
    for name, value in values.items():
        s.get("g", name)[...] = value
    return s


class TestRmsprop:
    def test_hand_arithmetic(self):
        p = store(w=[1.0])
        g = store(w=[2.0])
        s = p.zeros_like()
        rmsprop_step(p, g, s, OptimizerHP(), lr=0.1)
        assert np.isclose(s.get("g", "w")[0], 0.4)
        assert np.isclose(p.get("g", "w")[0], 1.0 - 0.1 * 2.0 / np.sqrt(1.4))

    def test_two_steps_match_the_unrolled_recurrence(self):
        hp = OptimizerHP()
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal(5)
        g = rng.standard_normal(5)
        p = store(w=w0.copy())
        gs = store(w=g)
        s = p.zeros_like()
        rmsprop_step(p, gs, s, hp, lr=0.05)
        rmsprop_step(p, gs, s, hp, lr=0.05)
        s1 = 0.1 * g * g
        w1 = w0 - 0.05 * g / np.sqrt(s1 + 1.0)
        s2 = 0.9 * s1 + 0.1 * g * g
        w2 = w1 - 0.05 * g / np.sqrt(s2 + 1.0)
        assert np.allclose(s.get("g", "w"), s2, rtol=0, atol=1e-15)
        assert np.allclose(p.get("g", "w"), w2, rtol=0, atol=1e-15)

    def test_zero_gradient_leaves_params_and_decays_state(self):
        p = store(w=[1.0, -2.0])
        s = store(w=[0.5, 0.5])
        rmsprop_step(p, store(w=[0.0, 0.0]), s, OptimizerHP(), lr=0.1)
        assert np.array_equal(p.get("g", "w"), [1.0, -2.0])
        assert np.allclose(s.get("g", "w"), [0.45, 0.45])

    def test_huge_epsilon_limit_is_scaled_gradient_descent(self):
        hp = OptimizerHP(epsilon=1e12)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(100)
        p = store(w=np.zeros(100))
        rmsprop_step(p, store(w=g), p.zeros_like(), hp, lr=1.0)
        expected = -g / np.sqrt(1e12)
        rel = np.abs(p.get("g", "w") - expected).max() / np.abs(expected).max()
        assert rel < 1e-6

    def test_shape_mismatch_rejected(self):
        p = store(w=[1.0, 2.0])
        with pytest.raises(ValueError):
            rmsprop_step(p, store(w=[1.0]), p.zeros_like(), OptimizerHP(), 0.1)

    def test_layout_mismatch_names_the_first_differing_tensor(self):
        p = store(w=[1.0, 2.0], b=[0.0])
        with pytest.raises(ValueError, match="^gradient layout mismatch: expected g/b .*, got nothing$"):
            rmsprop_step(p, store(w=[1.0, 1.0]), p.zeros_like(), OptimizerHP(), 0.1)
        narrow = ParamStore.allocate([("g", "w", (2,), np.float32), ("g", "b", (1,), np.float32)])
        with pytest.raises(
            ValueError,
            match=r"^state layout mismatch: expected g/w \(2,\) float64, got g/w \(2,\) float32$",
        ):
            rmsprop_step(p, p.zeros_like(), narrow, OptimizerHP(), 0.1)
        assert np.array_equal(p.get("g", "w"), [1.0, 2.0])  # nothing was updated


def reference_rmsprop_step(params, grads, state, hp, lr):
    """The per-tensor update that the blocked pass replaced, kept verbatim."""
    for key, name, g in grads.flat_items():
        p = params.get(key, name)
        if p.shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {key}/{name}")
        s = state.get(key, name)
        s *= hp.decay
        s += (1.0 - hp.decay) * g * g
        p -= lr * g / np.sqrt(s + hp.epsilon)


class TestBlockedRmsprop:
    @pytest.mark.parametrize("block", [training._BLOCK, 1000], ids=["one_block", "many_blocks"])
    @pytest.mark.parametrize("arch", [DenseBlock(8, 16), ConvBlock(8, 2)], ids=["dense", "conv"])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_bitwise_equal_to_the_per_tensor_update(self, monkeypatch, block, arch, precision):
        monkeypatch.setattr(training, "_BLOCK", block)
        config = parse_network("A: ir -> poly-2; B: mpoly-2 -> 2-way", input_size=16, classes=4, base_width=8)
        new, old = (lower(config, arch, beta=0.3, seed=4, precision=precision) for _ in range(2))
        n = count_params(new).params
        # One partial block, or several with a partial one last.
        assert (n > 2 * block and n % block) if block == 1000 else n < block
        new_state, old_state = new.params.zeros_like(), old.params.zeros_like()
        dataset = synth_dataset(40, 4, 16, seed=1)
        hp = OptimizerHP()
        for step in range(5):
            images = dataset.images[8 * step : 8 * step + 8].astype(DTYPES[precision])
            labels = dataset.labels[8 * step : 8 * step + 8]
            for model, state, update in (
                (new, new_state, rmsprop_step),
                (old, old_state, reference_rmsprop_step),
            ):
                out, tape = forward(model.graph, model.params, images, "train")
                _, dlogits = softmax_cross_entropy(out.data, labels)
                update(model.params, backward(tape, dlogits), state, hp, lr=0.05)
            for a, b in ((new.params, old.params), (new_state, old_state)):
                for (key, name, x), (_, _, y) in zip(a.flat_items(), b.flat_items(), strict=True):
                    assert x.tobytes() == y.tobytes(), f"{key}/{name} after step {step}"

    def test_a_second_step_allocates_no_arrays(self):
        config = preset("mixed-b-6-12-6", classes=4, input_size=32)
        model = lower(config, DenseBlock(16, 32), beta=0.3, seed=0, precision="f32")
        dataset = synth_dataset(32, 4, 32, seed=0)
        out, tape = forward(model.graph, model.params, dataset.images.astype(np.float32), "train")
        _, dlogits = softmax_cross_entropy(out.data, dataset.labels)
        grads = backward(tape, dlogits)
        state = model.params.zeros_like()
        hp = OptimizerHP()
        rmsprop_step(model.params, grads, state, hp, lr=0.01)  # makes the work arrays
        tracemalloc.start()
        try:
            rmsprop_step(model.params, grads, state, hp, lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count_params(model).params > 4 * training._BLOCK
        assert peak < 16 * 1024, f"peak {peak} bytes"

    def test_hyperparameter_validation(self):
        bad = [("decay", 1.0), ("epsilon", 0.0), ("base_lr", -1.0),
               ("epsilon", np.nan), ("epsilon", np.inf), ("base_lr", np.nan), ("base_lr", np.inf),
               ("lr_factor", np.nan), ("lr_factor", np.inf), ("lr_factor", 0.0),
               ("lr_factor", -0.1), ("lr_step", 0), ("total_iters", -1)]
        for field, value in bad:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                OptimizerHP(**{field: value})


class TestSchedule:
    def test_reference_waypoints(self):
        hp = OptimizerHP.paper_schedule()
        assert lr_at(0, hp) == 0.45
        assert np.isclose(lr_at(160_000, hp), 0.045)
        assert np.isclose(lr_at(320_000, hp), 0.0045)
        assert np.isclose(lr_at(480_000, hp), 0.00045)
        assert np.isclose(lr_at(559_999, hp), 0.00045)

    def test_exactly_three_decays_over_the_full_run(self):
        hp = OptimizerHP.paper_schedule()
        values = {lr_at(it, hp) for it in range(0, hp.total_iters, 1000)}
        assert len(values) == 4  # base level plus three decays

    def test_piecewise_constant_and_non_increasing(self):
        hp = OptimizerHP.desk(700)
        values = [lr_at(it, hp) for it in range(hp.total_iters)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert len(set(values)) == 4

    def test_desk_schedule_preserves_three_decay_shape(self):
        for total in (350, 2000, 10_000):
            hp = OptimizerHP.desk(total)
            assert len({lr_at(it, hp) for it in range(total)}) == 4


class TestGates:
    def test_linear_ramp_values(self):
        assert gate_probabilities(5, 0.25) == [0.0, 0.0625, 0.125, 0.1875, 0.25]
        assert gate_probabilities(1, 0.25) == [0.0]
        assert gate_probabilities(2, 0.25) == [0.0, 0.25]

    def test_sample_respects_zero_and_one(self):
        model = lower(
            parse_network("A: 3-way -> 3-way", input_size=8, classes=3, base_width=4),
            DenseBlock(4, 8), beta=0.3, precision="f64", input_channels=1,
        )
        rng = np.random.default_rng(0)
        assert sample_gates(model, [0.0, 0.0], rng) == [(1, 1, 1), (1, 1, 1)]
        # probability ~1 drops everything (use 0.999... keep exact 1 out of
        # the config's domain but the sampler accepts it)
        gates = sample_gates(model, [1.0, 1.0], rng)
        assert gates == [(0, 0, 0), (0, 0, 0)]

    def test_full_drop_reduces_network_to_stem_plus_head(self):
        model = lower(
            parse_network("A: 3-way", input_size=8, classes=3, base_width=4),
            DenseBlock(4, 8), beta=0.3, precision="f64", input_channels=1,
        )
        x = np.random.default_rng(2).standard_normal((3, 1, 8, 8))
        site = model.modules[0]
        out, _ = model.forward(x, mode="train", gates={site.gate_node: (0.0, 0.0, 0.0)})
        # Replay stem manually, then the classifier head.
        values = {}
        for node in model.graph.nodes:
            if isinstance(node.op, InputOp):
                values[node.idx] = x
                continue
            if node.segment not in ("stem", "head"):
                continue
            ins = [values[i] for i in node.inputs if i in values]
            if len(ins) != len(node.inputs):
                # head reads the module output; with a dead module that is
                # the stem's relu output (modules preserve non-negative
                # inputs when all paths are dropped)
                ins = [values[max(values)]]
            group = model.params.group(node.param_key) if node.param_key else None
            v, _ = node.op.forward(ins, group, "train")
            values[node.idx] = v
        assert np.allclose(out.data, values[max(values)], atol=1e-12)

    def test_expectation_identity_for_gated_module_output(self):
        # Monte Carlo over the gate stream: the mean pre-activation module
        # output is x + beta * sum((1 - p) * path_i(x)), exactly, because
        # the paths are deterministic given x. 2e4 draws here; the
        # acceptance suite runs the full 1e5-draw version.
        beta = 0.3
        model = lower(
            parse_network("A: 3-way", input_size=8, classes=3, base_width=4),
            DenseBlock(4, 8), beta=beta, seed=3, precision="f64", input_channels=1,
        )
        # A batch of 4: train-mode norm maps a batch of 1 to zeros, which
        # would make every path and the module input 0.
        x = np.random.default_rng(5).standard_normal((4, 1, 8, 8))
        site = model.modules[0]
        values = {}
        for node in model.graph.nodes:
            if isinstance(node.op, InputOp):
                values[node.idx] = x
                continue
            ins = [values[i] for i in node.inputs]
            group = model.params.group(node.param_key) if node.param_key else None
            v, _ = node.op.forward(ins, group, "train")
            values[node.idx] = v
        paths = np.stack([values[i] for i in model.graph.nodes[site.gate_node].inputs])
        (out_node,) = (n for n in model.graph.nodes if site.gate_node in n.inputs)
        x_mod = values[out_node.inputs[0]]
        assert paths.any() and x_mod.any()
        want = np.maximum(x_mod + beta * paths.sum(axis=0), 0)  # every gate at 1
        assert np.allclose(values[out_node.idx], want, rtol=0, atol=1e-12)

        p = 0.25
        n_draws = 20_000
        rng = np.random.default_rng(11)
        acc = np.zeros_like(x_mod)
        for _ in range(n_draws):
            bits = np.array(sample_gates(model, [p], rng)[0], dtype=np.float64)
            acc += x_mod + beta * np.tensordot(bits, paths, axes=1)
        mc_mean = acc / n_draws
        analytic = x_mod + beta * (1.0 - p) * paths.sum(axis=0)
        sigma = beta * np.sqrt(p * (1.0 - p) * (paths**2).sum(axis=0) / n_draws)
        # Elementwise three-sigma band (exact where sigma is zero).
        assert np.all(np.abs(mc_mean - analytic) <= 3.0 * sigma + 1e-12)

    def test_rescaled_train_gates_are_unbiased(self):
        model = lower(
            parse_network("A: 2-way", input_size=8, classes=3, base_width=4),
            DenseBlock(4, 8), precision="f64", input_channels=1,
        )
        probs = [0.25]
        rng = np.random.default_rng(0)
        total = np.zeros(2)
        n = 40_000
        for _ in range(n):
            bits = sample_gates(model, probs, rng)
            gmap = gate_node_map(model, bits, probs, rescale="train")
            total += np.array(gmap[model.modules[0].gate_node])
        assert np.abs(total / n - 1.0).max() < 0.02

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            StochasticPathConfig(max_prob=1.0)
        with pytest.raises(ValueError):
            StochasticPathConfig(rescale="sometimes")
        with pytest.raises(ValueError):
            gate_probabilities(0, 0.25)

    @pytest.mark.parametrize(
        "field,value",
        [("start", -1), ("start", True), ("start", 2.0), ("start", "manual"), ("start", None),
         ("window", 0), ("window", -3)],
    )
    def test_invalid_start_and_window_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            StochasticPathConfig(**{field: value})


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(256, 4, 16, seed=0)


def only_val_dataset():
    """A one-image dataset whose image is in the val split."""
    images, labels = synth_dataset(3, 4, 16, seed=0).subset(np.array([2]))
    return Dataset(images, labels, classes=4, val_mask=np.array([True]))


class TestTrainLoop:
    def small_model(self, seed=0):
        config = parse_network("A: ir -> ir", input_size=16, classes=4, base_width=8)
        return lower(config, DenseBlock(8, 16), beta=0.3, seed=seed, precision="f32")

    def test_zero_iterations_returns_model_bitwise_unchanged(self, dataset):
        model = self.small_model()
        before = model.params.clone()
        hp = OptimizerHP(base_lr=0.1, lr_step=10, total_iters=0)
        result, history = train(model, dataset, hp, seed=0)
        assert result.params.equal(before)
        assert history.records == []

    def test_zero_iterations_write_the_final_checkpoint(self, dataset, tmp_path):
        model = self.small_model()
        hp = OptimizerHP(base_lr=0.1, lr_step=10, total_iters=0)
        train(model, dataset, hp, seed=0, checkpoint_dir=tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["final.ckpt"]
        assert load_checkpoint(tmp_path / "final.ckpt").params.equal(model.params)

    def test_zero_iterations_still_check_the_splits(self):
        hp = OptimizerHP(base_lr=0.1, lr_step=10, total_iters=0)
        with pytest.raises(ValueError, match="the train split of a 1-image dataset is empty"):
            train(self.small_model(), only_val_dataset(), hp)

    def test_identical_seeds_reproduce_the_history(self, dataset):
        hp = OptimizerHP.desk(120)
        _, h1 = train(self.small_model(1), dataset, hp, eval_every=40, seed=7)
        _, h2 = train(self.small_model(1), dataset, hp, eval_every=40, seed=7)
        assert h1.records == h2.records
        _, h3 = train(self.small_model(1), dataset, hp, eval_every=40, seed=8)
        assert h1.records != h3.records

    def test_loss_decreases_on_the_toy_task(self, dataset):
        hp = OptimizerHP.desk(400)
        _, history = train(self.small_model(2), dataset, hp, eval_every=100, seed=0)
        assert history.records[-1].val_loss < history.records[0].val_loss
        assert history.records[-1].top1 <= 0.25

    def test_stochastic_paths_change_the_run_and_are_flagged(self, dataset):
        hp = OptimizerHP.desk(60)
        spc = StochasticPathConfig(max_prob=0.5)
        _, h_on = train(self.small_model(4), dataset, hp, spc=spc, eval_every=30, seed=5)
        _, h_off = train(self.small_model(4), dataset, hp, spc=None, eval_every=30, seed=5)
        assert all(r.gates_active for r in h_on.records)
        assert h_on.records != h_off.records

    def test_augmented_training_is_reproducible_and_changes_the_run(self, dataset):
        hp = OptimizerHP.desk(60)
        aug = AugmentConfig(out_size=16)
        m1, h1 = train(self.small_model(6), dataset, hp, eval_every=30, seed=5, augment_cfg=aug)
        m2, h2 = train(self.small_model(6), dataset, hp, eval_every=30, seed=5, augment_cfg=aug)
        assert h1.records == h2.records
        assert m1.params.equal(m2.params)
        m3, h3 = train(self.small_model(6), dataset, hp, eval_every=30, seed=5)
        assert h1.records != h3.records
        assert not m1.params.equal(m3.params)

    def test_streams_match_a_reference_loop_from_the_public_primitives(self, dataset):
        """Batch order, augmentation and gates: the train split is reshuffled
        at each epoch and a batch carries the last epoch's remainder, each
        image is augmented in batch order, and gates are drawn once per step."""
        hp, batch_size, eval_every, seed = OptimizerHP.desk(12), 48, 4, 11
        spc = StochasticPathConfig(max_prob=0.5, rescale="train")
        aug = AugmentConfig(out_size=16)
        idx = dataset.indices("train")
        assert len(idx) % batch_size and hp.total_iters * batch_size > 2 * len(idx)
        model, history = train(
            self.small_model(12), dataset, hp, spc=spc, eval_every=eval_every, seed=seed,
            batch_size=batch_size, augment_cfg=aug,
        )

        ref = self.small_model(12)
        rng_data, rng_gates, rng_aug = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
        )
        epochs = -(-hp.total_iters * batch_size // len(idx))
        order = np.concatenate([rng_data.permutation(idx) for _ in range(epochs)])
        probs = gate_probabilities(len(ref.modules), spc.max_prob)
        state = ref.params.zeros_like(trainable_only=True)
        val_images, val_labels = dataset.subset(dataset.indices("val"))
        records, losses = [], []
        for it in range(hp.total_iters):
            batch = order[it * batch_size : (it + 1) * batch_size]
            images = np.stack([augment(im, aug, rng_aug) for im in dataset.images[batch]])
            bits = sample_gates(ref, probs, rng_gates)
            gates = gate_node_map(ref, bits, probs, spc.rescale)
            out, tape = forward(ref.graph, ref.params, images.astype(np.float32), "train", gates)
            loss, dlogits = softmax_cross_entropy(out.data, dataset.labels[batch])
            rmsprop_step(ref.params, backward(tape, dlogits), state, hp, lr_at(it, hp))
            losses.append(loss)
            if (it + 1) % eval_every == 0:
                logits = ref.logits(val_images.astype(np.float32))
                val_loss, _ = softmax_cross_entropy(logits, val_labels)
                records.append(EvalRecord(
                    it + 1, float(np.mean(losses)), val_loss, topk_error(logits, val_labels, 1),
                    topk_error(logits, val_labels, 4), lr_at(it, hp), True,
                ))
                losses.clear()

        assert history.records == records
        assert model.params.equal(ref.params)

    @pytest.mark.parametrize(
        "arch,spc,aug",
        [
            (DenseBlock(8, 16), StochasticPathConfig(max_prob=0.5, rescale="train"),
             AugmentConfig(out_size=16)),
            (ConvBlock(8, 2), None, None),
        ],
        ids=["dense_augmented_gated", "conv"],
    )
    def test_a_trainer_stepped_by_hand_ends_where_train_does(
        self, dataset, monkeypatch, arch, spc, aug
    ):
        """``train()`` is its evaluations around ``Trainer.step``: it steps
        exactly ``total_iters`` times, and a trainer stepped by hand leaves
        the same parameters, running statistics and per-step losses."""
        hp, eval_every, seed, batch_size = OptimizerHP.desk(9), 3, 4, 16  # decays at 3 and 6
        config = parse_network("A: ir -> ir", input_size=16, classes=4, base_width=8)
        by_hand = lower(config, arch, beta=0.3, seed=1, precision="f32")
        trainer = training.Trainer(
            by_hand, dataset, hp, spc, seed=seed, batch_size=batch_size, augment_cfg=aug
        )
        losses = [trainer.step() for _ in range(hp.total_iters)]

        steps = []
        trainer_step = training.Trainer.step

        def counted_step(self):
            steps.append(self.it)
            return trainer_step(self)

        monkeypatch.setattr(training.Trainer, "step", counted_step)
        model, history = train(
            lower(config, arch, beta=0.3, seed=1, precision="f32"), dataset, hp, spc,
            eval_every=eval_every, seed=seed, batch_size=batch_size, augment_cfg=aug,
        )
        assert steps == list(range(hp.total_iters))
        assert model.params.equal(by_hand.params)
        assert model.meta.iteration == by_hand.meta.iteration == hp.total_iters
        assert [r.train_loss for r in history.records] == [
            float(np.mean(losses[i : i + eval_every]))
            for i in range(0, hp.total_iters, eval_every)
        ]

    def count_gate_draws(self, monkeypatch) -> list[int]:
        """Patch gate sampling to log the iteration of each draw."""
        iterations = []

        def sample(model, probs, rng):
            iterations.append(model.meta.iteration)
            return sample_gates(model, probs, rng)

        monkeypatch.setattr(training, "sample_gates", sample)
        return iterations

    def test_a_default_config_drops_paths_from_iteration_0(self, dataset, monkeypatch):
        drawn = self.count_gate_draws(monkeypatch)
        hp = OptimizerHP.desk(20)
        _, history = train(
            self.small_model(5), dataset, hp, spc=StochasticPathConfig(), eval_every=10, seed=6
        )
        assert drawn == list(range(20))
        assert [r.gates_active for r in history.records] == [True, True]

    def test_start_turns_dropping_on_at_that_iteration(self, dataset, monkeypatch):
        drawn = self.count_gate_draws(monkeypatch)
        hp = OptimizerHP.desk(80)
        spc = StochasticPathConfig(max_prob=0.5, start=40)
        _, history = train(self.small_model(5), dataset, hp, spc=spc, eval_every=20, seed=6)
        assert drawn == list(range(40, 80))
        assert [r.gates_active for r in history.records] == [False, False, True, True]
        _, plain = train(self.small_model(5), dataset, hp, eval_every=20, seed=6)
        assert history.records[:2] == plain.records[:2]
        assert history.records[2:] != plain.records[2:]

    def test_eval_rescaling_waits_until_paths_are_dropped(self, dataset):
        hp = OptimizerHP.desk(60)
        spc = StochasticPathConfig(start=10**6, rescale="eval")
        _, h_waiting = train(self.small_model(3), dataset, hp, spc=spc, eval_every=30, seed=5)
        _, h_plain = train(self.small_model(3), dataset, hp, spc=None, eval_every=30, seed=5)
        assert h_waiting.records == h_plain.records

    def test_eval_rescaling_scales_each_path_by_its_survival_probability(self, dataset):
        hp = OptimizerHP.desk(20)
        spc = StochasticPathConfig(max_prob=0.5, rescale="eval")
        model, history = train(self.small_model(4), dataset, hp, spc=spc, eval_every=20, seed=5)
        images, labels = dataset.subset(dataset.val_indices)
        n = len(model.modules)
        by_hand = {
            site.gate_node: (1.0 - 0.5 * j / (n - 1),) * site.n_paths
            for j, site in enumerate(model.modules)
        }
        losses = [
            softmax_cross_entropy(
                model.forward(images.astype(np.float32), mode="eval", gates=gates)[0].data,
                labels,
            )[0]
            for gates in (by_hand, None)
        ]
        assert history.records[-1].val_loss == losses[0] != losses[1]

    def test_auto_activation_turns_on_at_the_first_signal_and_stays_on(
        self, dataset, monkeypatch
    ):
        calls = []

        def signal_at_second_eval(records, window):
            calls.append(len(records))
            return len(records) == 2

        monkeypatch.setattr(training, "_overfitting", signal_at_second_eval)
        drawn = self.count_gate_draws(monkeypatch)
        hp = OptimizerHP.desk(80)
        spc = StochasticPathConfig(max_prob=0.5, start="auto")
        _, history = train(self.small_model(5), dataset, hp, spc=spc, eval_every=10, seed=6)
        # A record flags the gates used in the iterations before it, so the
        # signal after eval 2 shows from record 3 on.
        assert [r.gates_active for r in history.records] == [False] * 2 + [True] * 6
        assert drawn == list(range(20, 80))
        assert calls == [1, 2]

    def test_divergence_aborts_with_diagnostics(self, dataset):
        model = self.small_model(6)
        hp = OptimizerHP(base_lr=1e30, lr_step=1000, total_iters=50, epsilon=1e-12)
        with pytest.raises(TrainingDiverged) as err:
            train(model, dataset, hp, seed=0)
        assert isinstance(err.value, NumericError)  # the CLI's exit 3 family
        assert err.value.iteration >= 0
        assert err.value.lr > 0
        assert re.fullmatch(r"non-finite output at node \d+ \(\S+/\w+\)", err.value.detail)

    def test_a_non_finite_running_statistic_aborts_and_is_named(self):
        # The loss stays finite (train-mode norm uses batch statistics) while
        # a running variance overflows; the run must not finish normally.
        dataset = synth_dataset(512, 4, 32, seed=0)
        config = preset("very-deep-polynet", classes=4)
        model = lower(config, DenseBlock(16, 32), beta=0.3, seed=0, precision="f32")
        with pytest.raises(TrainingDiverged) as err:
            train(model, dataset, OptimizerHP.desk(200), seed=0)
        match = re.fullmatch(r"non-finite (\S+)/(\w+) of node (\d+) \((\S+)\)", err.value.detail)
        assert match, err.value.detail
        key, name, idx, label = match.groups()
        assert not np.isfinite(model.params.get(key, name)).all()
        node = model.graph.nodes[int(idx)]
        assert node.param_key == key and label == node.label
        assert f"iteration {err.value.iteration} " in str(err.value)

    def test_a_non_finite_held_out_logit_aborts_and_names_the_node(self, dataset):
        # Train-mode norm ignores the running mean, so every step and the
        # parameter scan pass; the held-out evaluation reads it, and its
        # logits overflow. The run must stop, not record a NaN val_loss.
        config = parse_network("A: ir", input_size=16, classes=4, base_width=8)
        model = lower(config, DenseBlock(8, 16), beta=0.3, seed=0, precision="f32")
        model.params.get("stem.norm", "running_mean")[...] = -3e38
        with pytest.raises(TrainingDiverged) as err:
            train(model, dataset, OptimizerHP.desk(4), eval_every=1, seed=0)
        assert err.value.iteration == 0
        match = re.fullmatch(
            r"held-out evaluation: non-finite output at node (\d+) \(\S+\)", err.value.detail
        )
        assert match, err.value.detail
        node = model.graph.nodes[int(match.group(1))]
        assert err.value.detail.endswith(node.where)
        assert node.idx > next(n.idx for n in model.graph.nodes if n.param_key == "stem.norm")

    @pytest.mark.parametrize(
        "arch,name", [(DenseBlock(8, 16), "w2"), (ConvBlock(8, 2), "w3")], ids=["dense", "conv"]
    )
    def test_a_non_finite_block_tensor_names_the_layer_that_owns_it(
        self, dataset, monkeypatch, arch, name
    ):
        # A block's layers share one key; the error names the block's last
        # layer, which owns the tensor, not the first node bound to the key.
        def poisoned_step(params, *args, **kwargs):
            rmsprop_step(params, *args, **kwargs)
            params.get("A.0.F", name).flat[0] = np.nan

        monkeypatch.setattr(training, "rmsprop_step", poisoned_step)
        config = parse_network("A: ir -> ir", input_size=16, classes=4, base_width=8)
        model = lower(config, arch, beta=0.3, seed=0, precision="f32")
        with pytest.raises(TrainingDiverged) as err:
            train(model, dataset, OptimizerHP.desk(20), seed=0)
        bound = [n for n in model.graph.nodes if n.param_key == "A.0.F"]
        assert len(bound) == (2 if arch.tag == "dense" else 3)
        assert err.value.iteration == 0
        assert err.value.detail == f"non-finite A.0.F/{name} of {bound[-1].where}"

    def test_an_empty_train_split_is_named_before_any_step(self, monkeypatch):
        only_val = only_val_dataset()

        def step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training.Trainer, "step", step)
        with pytest.raises(ValueError, match="the train split of a 1-image dataset is empty"):
            train(self.small_model(), only_val, OptimizerHP.desk(10))

    @pytest.mark.parametrize("name,value", [("eval_every", 0), ("batch_size", 0), ("batch_size", -3)])
    def test_sizes_below_one_are_named_before_any_step(self, dataset, monkeypatch, name, value):
        def step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(training.Trainer, "step", step)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            train(self.small_model(), dataset, OptimizerHP.desk(10), **{name: value})

    def test_each_step_releases_its_tape_before_the_next_forward(self, dataset, monkeypatch):
        tapes = []
        held = []  # per forward or evaluation: how many earlier tapes are alive

        def forward(*args, **kwargs):
            held.append(sum(ref() is not None for ref in tapes))
            out, tape = engine_forward(*args, **kwargs)
            tapes.append(weakref.ref(tape))
            return out, tape

        def evaluate(*args):
            held.append(sum(ref() is not None for ref in tapes))
            return engine_evaluate(*args)

        engine_forward, engine_evaluate = training.forward, training._evaluate
        monkeypatch.setattr(training, "forward", forward)
        monkeypatch.setattr(training, "_evaluate", evaluate)
        train(self.small_model(8), dataset, OptimizerHP.desk(6), eval_every=3, seed=0)
        assert len(tapes) == 6 and len(held) == 8
        assert held == [0] * 8

    def test_every_route_to_a_model_keeps_one_live_arena(self, dataset, tmp_path):
        """After train(), clone, a checkpoint load and both surgeries, a
        train step leaves every tensor a view of the model's one buffer, the
        trainable ones in its arena and no running statistic, and it changes
        what forward reads."""
        x = dataset.images[:4].astype(np.float32)
        one_step = OptimizerHP(base_lr=0.05, lr_step=10, total_iters=1)

        def step_and_check(model):
            before = model.logits(x)
            train(model, dataset, one_step, eval_every=1, seed=0)
            arena = model.params.arena()
            for key, name, value in model.params.flat_items():
                stat = name in ("running_mean", "running_var")
                assert value.base is arena.base, f"{key}/{name}"
                assert np.shares_memory(value, arena) != stat, f"{key}/{name}"
            assert not np.array_equal(model.logits(x), before)

        model, _ = train(self.small_model(9), dataset, OptimizerHP.desk(4), eval_every=4, seed=0)
        step_and_check(model)
        frozen = model.logits(x)
        step_and_check(model.clone())
        assert np.array_equal(model.logits(x), frozen)  # the clone owns its arena
        save_checkpoint(model, tmp_path / "m.ckpt")
        step_and_check(load_checkpoint(tmp_path / "m.ckpt"))
        target = parse_network("A: 2-way -> ir", input_size=16, classes=4, base_width=8)
        step_and_check(upgrade(model, target, seed=1))
        step_and_check(deepen_interleave(model, [1], zero_last=True, seed=1))
        assert np.array_equal(model.logits(x), frozen)

    def test_checkpoints_written_at_decays_and_termination(self, dataset, tmp_path):
        hp = OptimizerHP.desk(70)  # decays at 20, 40, 60
        train(self.small_model(7), dataset, hp, eval_every=35, seed=1, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert "final.ckpt" in names
        assert len([n for n in names if n.startswith("iter")]) == 3

    def test_history_jsonl_is_one_record_per_line(self):
        records = [
            EvalRecord(100, 1.5, 1.7, 0.5, 0.1, 0.045, False),
            EvalRecord(200, 1.1, 1.4, 0.4, 0.05, 0.045, True),
        ]
        text = TrainHistory(records).to_jsonl()
        assert text.endswith("\n")
        assert [json.loads(line) for line in text.splitlines()] == [asdict(r) for r in records]
        assert TrainHistory().to_jsonl() == ""


class TestOverfittingTrigger:
    def rec(self, it, train_loss, val_loss):
        return EvalRecord(it, train_loss, val_loss, 0.0, 0.0, 0.1, False)

    def test_fires_on_rising_val_with_falling_train(self):
        records = [
            self.rec(1, 1.0, 1.0),
            self.rec(2, 0.9, 1.1),
            self.rec(3, 0.8, 1.2),
            self.rec(4, 0.7, 1.3),
        ]
        assert _overfitting(records, window=3)

    def test_quiet_when_val_improves(self):
        records = [self.rec(i, 1.0 - 0.1 * i, 1.0 - 0.05 * i) for i in range(5)]
        assert not _overfitting(records, window=3)

    def test_quiet_when_train_also_rises(self):
        records = [self.rec(i, 1.0 + 0.1 * i, 1.0 + 0.1 * i) for i in range(5)]
        assert not _overfitting(records, window=3)

    def test_needs_enough_records(self):
        records = [self.rec(1, 1.0, 1.0), self.rec(2, 0.9, 1.1)]
        assert not _overfitting(records, window=3)
