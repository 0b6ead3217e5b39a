"""Optimizer, schedule, stochastic paths, and the training loop."""

import re
import weakref

import numpy as np
import pytest

from polyres import training
from polyres.builder import DenseBlock, lower
from polyres.data import synth_dataset
from polyres.dsl import parse_network
from polyres.engine import InputOp, ParamStore
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
    s = ParamStore()
    for name, value in arrays.items():
        s.add("g", name, np.asarray(value, dtype=np.float64))
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

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            OptimizerHP(decay=1.0)
        with pytest.raises(ValueError):
            OptimizerHP(epsilon=0.0)
        with pytest.raises(ValueError):
            OptimizerHP(base_lr=-1.0)


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
            v, _ = node.op.forward(ins, node.resolve_params(model.params), "train")
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
        x = np.random.default_rng(5).standard_normal((1, 1, 8, 8))
        site = model.modules[0]
        values = {}
        for node in model.graph.nodes:
            if isinstance(node.op, InputOp):
                values[node.idx] = x
                continue
            ins = [values[i] for i in node.inputs]
            v, _ = node.op.forward(ins, node.resolve_params(model.params), "train")
            values[node.idx] = v
        paths = np.stack([values[i] for i in model.graph.nodes[site.gate_node].inputs])
        x_mod = values[model.graph.nodes[site.gate_node + 2].inputs[0]]

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
            StochasticPathConfig(adaptive="sometimes")
        with pytest.raises(ValueError):
            gate_probabilities(0, 0.25)


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(256, 4, 16, seed=0)


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

    def test_disabled_stochastic_paths_match_plain_training(self, dataset):
        hp = OptimizerHP.desk(60)
        spc = StochasticPathConfig(enabled=False, max_prob=0.25)
        _, h_plain = train(self.small_model(3), dataset, hp, spc=None, eval_every=30, seed=5)
        _, h_off = train(self.small_model(3), dataset, hp, spc=spc, eval_every=30, seed=5)
        assert h_plain.records == h_off.records

    def test_stochastic_paths_change_the_run_and_are_flagged(self, dataset):
        hp = OptimizerHP.desk(60)
        spc = StochasticPathConfig(enabled=True, max_prob=0.5)
        _, h_on = train(self.small_model(4), dataset, hp, spc=spc, eval_every=30, seed=5)
        _, h_off = train(self.small_model(4), dataset, hp, spc=None, eval_every=30, seed=5)
        assert all(r.gates_active for r in h_on.records)
        assert h_on.records != h_off.records

    def test_manual_activation_iteration(self, dataset):
        hp = OptimizerHP.desk(80)
        spc = StochasticPathConfig(enabled=True, max_prob=0.5, adaptive="manual", manual_start=40)
        _, history = train(self.small_model(5), dataset, hp, spc=spc, eval_every=20, seed=6)
        flags = [r.gates_active for r in history.records]
        assert flags[0] is False and flags[-1] is True

    def test_auto_activation_turns_on_at_the_first_signal_and_stays_on(
        self, dataset, monkeypatch
    ):
        calls = []

        def signal_at_second_eval(records, window):
            calls.append(len(records))
            return len(records) == 2

        monkeypatch.setattr(training, "_overfitting", signal_at_second_eval)
        hp = OptimizerHP.desk(80)
        spc = StochasticPathConfig(enabled=True, max_prob=0.5, adaptive="auto")
        _, history = train(self.small_model(5), dataset, hp, spc=spc, eval_every=10, seed=6)
        # A record flags the gates used in the iterations before it, so the
        # signal after eval 2 shows from record 3 on.
        assert [r.gates_active for r in history.records] == [False] * 2 + [True] * 6
        assert calls == [1, 2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostics(self, dataset):
        model = self.small_model(6)
        hp = OptimizerHP(base_lr=1e30, lr_step=1000, total_iters=50, epsilon=1e-12)
        with pytest.raises(TrainingDiverged) as err:
            train(model, dataset, hp, seed=0)
        assert err.value.iteration >= 0
        assert err.value.lr > 0
        assert re.fullmatch(r"non-finite output at node \d+ \(\S+/\w+\)", err.value.detail)

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

    def test_checkpoints_written_at_decays_and_termination(self, dataset, tmp_path):
        hp = OptimizerHP.desk(70)  # decays at 20, 40, 60
        train(self.small_model(7), dataset, hp, eval_every=35, seed=1, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert "final.ckpt" in names
        assert len([n for n in names if n.startswith("iter")]) == 3

    def test_history_jsonl_round_trip(self):
        history = TrainHistory(
            seed=3,
            records=[
                EvalRecord(100, 1.5, 1.7, 0.5, 0.1, 0.045, False),
                EvalRecord(200, 1.1, 1.4, 0.4, 0.05, 0.045, True),
            ],
        )
        back = TrainHistory.from_jsonl(history.to_jsonl(), seed=3)
        assert back.records == history.records


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
