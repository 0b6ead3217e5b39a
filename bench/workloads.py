"""The four benchmark workloads.

Each workload is a single closed-loop client: the runner calls ``op()``
again only after the previous call has returned. ``setup(seed, out_dir)``
builds every input from the seed (``out_dir`` holds scratch checkpoint
files); ``op()`` is the timed operation and
``check(result)`` verifies its output outside the timed region. All work
goes through the public functions of ``polyres`` and is looked up on the
module at call time, so the tracer's wrappers see every call.

Why these four:

- train_dense: many tiny ops (252 nodes, all four module families, gates
  and augmentation on), so per-node dispatch, the optimizer, augmentation
  and gate sampling carry the step; there are no conv kernels.
- train_conv: the step is dominated by Conv2D backward; dispatch,
  optimizer and data are each a few percent. It is the conv-kernel target
  and the no-change control for dispatch, optimizer, augment and gates.
- eval_multicrop: the same conv kernels forward-only in eval mode at batch
  8, 198 Model.logits calls plus crop resizing per pass.
- build_deep: DSL parse, lowering of the deepest preset, MAC counting and a
  checkpoint round trip, which otherwise show only inside set-up time.
"""

from __future__ import annotations

import time

import numpy as np

from polyres import builder, cost, data, dsl, engine, evaluation, training

BATCH = 32
CLASSES = 4
SIZE = 32
N_IMAGES = 512
PRECISION = "f32"
HP = training.OptimizerHP.desk(2000)
CHANCE_TOP1 = 1.0 - 1.0 / CLASSES


class TrainWorkload:
    kind = "train"
    items = BATCH
    ckpt_bytes = 0

    def __init__(self, network, arch, beta, augment, max_prob, warmup):
        self.network = network
        self.arch = arch
        self.beta = beta
        self.augment_cfg = data.AugmentConfig() if augment else None
        self.max_prob = max_prob
        self.warmup = warmup

    def setup(self, seed: int, out_dir) -> None:
        rng_data, rng_gates, rng_aug = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
        )
        self.rng_data, self.rng_gates, self.rng_aug = rng_data, rng_gates, rng_aug
        self.dataset = data.synth_dataset(N_IMAGES, classes=CLASSES, size=SIZE, seed=seed)
        self.model = builder.lower(
            self.network(), self.arch, beta=self.beta, seed=seed, precision=PRECISION
        )
        self.cost = cost.count_macs(self.model)
        self.state = self.model.params.zeros_like(trainable_only=True)
        self.probs = (
            training.gate_probabilities(len(self.model.modules), self.max_prob)
            if self.max_prob
            else None
        )
        self.order = np.empty(0, dtype=np.int64)
        self.it = 0
        self.gates = None
        for _ in range(self.warmup):
            self.op()
        self.losses: list[float] = []

    def _next_batch(self) -> np.ndarray:
        if len(self.order) < BATCH:
            self.order = self.rng_data.permutation(self.dataset.train_indices)
        idx, self.order = self.order[:BATCH], self.order[BATCH:]
        return idx

    def op(self):
        idx = self._next_batch()
        images = self.dataset.images[idx]
        labels = self.dataset.labels[idx]
        if self.augment_cfg is not None:
            images = np.stack(
                [data.augment(im, self.augment_cfg, self.rng_aug) for im in images]
            )
        images = images.astype(np.float32)
        self.gates = None
        if self.probs is not None:
            bits = training.sample_gates(self.model, self.probs, self.rng_gates)
            self.gates = training.gate_node_map(self.model, bits, self.probs)
        out, tape = engine.forward(
            self.model.graph, self.model.params, images, "train", self.gates
        )
        loss, dlogits = engine.softmax_cross_entropy(out.data, labels)
        grads = engine.backward(tape, dlogits)
        training.rmsprop_step(
            self.model.params, grads, self.state, HP, training.lr_at(self.it, HP)
        )
        self.it += 1
        return loss

    def check(self, loss) -> bool:
        self.losses.append(loss)
        return bool(np.isfinite(loss))

    def run_checks(self) -> list[tuple[str, bool, str]]:
        """The loss must fall: mean of the last tenth below the first tenth."""
        k = max(1, len(self.losses) // 10)
        first = float(np.mean(self.losses[:k]))
        last = float(np.mean(self.losses[-k:]))
        return [("loss_decreases", last < first, f"first {first:.4f} last {last:.4f} over {k} steps")]


class EvalWorkload:
    kind = "eval"
    TRAIN_ITERS = 30

    def setup(self, seed: int, out_dir) -> None:
        self.dataset = data.synth_dataset(N_IMAGES, classes=CLASSES, size=SIZE, seed=seed)
        model = builder.lower(
            dsl.parse_network("IR 1-2-1", classes=CLASSES, input_size=SIZE),
            builder.ConvBlock(16, 4), seed=seed, precision=PRECISION,
        )
        model, _ = training.train(
            model, self.dataset, training.OptimizerHP.desk(self.TRAIN_ITERS),
            eval_every=self.TRAIN_ITERS, seed=seed, batch_size=BATCH,
        )
        path = out_dir / "eval_multicrop.ckpt"
        builder.save_checkpoint(model, path)
        self.ckpt_bytes = path.stat().st_size
        self.model = builder.load_checkpoint(path)
        path.unlink()
        self.setup_checks = [
            ("checkpoint_bitwise", self.model.params.equal(model.params), "eval model round trip")
        ]
        self.cost = cost.count_macs(self.model)
        self.cfg = evaluation.PoolingConfig(scales=(1.0, 1.15, 1.3), crops_per_scale=8, top_fraction=0.3)
        warm = evaluation.multicrop_eval(self.model, self.dataset, self.cfg)
        self.reference = (warm.top1, warm.top5)
        self.items = warm.n_images

    def op(self):
        return evaluation.multicrop_eval(self.model, self.dataset, self.cfg)

    def check(self, report) -> bool:
        return (report.top1, report.top5) == self.reference and report.top1 < CHANCE_TOP1

    def run_checks(self):
        return list(self.setup_checks)


class BuildWorkload:
    kind = "build"
    items = 1
    WARMUP = 5

    def setup(self, seed: int, out_dir) -> None:
        self.seed = seed
        self.path = out_dir / "build_deep.ckpt"
        self.failures = 0
        for _ in range(self.WARMUP):
            self.check(self.op())
        self.cost = self.last_cost
        self.model = self.last_model
        self.setup_checks = [("warmup_builds", self.failures == 0, f"{self.failures} failed")]

    def op(self):
        config = dsl.preset("very-deep-polynet", classes=CLASSES, input_size=SIZE)
        model = builder.lower(
            config, builder.ConvBlock(16, 4), beta=0.3, seed=self.seed, precision=PRECISION
        )
        report = cost.count_macs(model)
        builder.save_checkpoint(model, self.path)
        return model, report, builder.load_checkpoint(self.path)

    def check(self, result) -> bool:
        model, report, loaded = result
        self.last_model, self.last_cost = model, report
        self.ckpt_bytes = self.path.stat().st_size
        ok = loaded.params.equal(model.params) and report.macs > 0
        self.failures += not ok
        return ok

    def run_checks(self):
        if self.path.exists():
            self.path.unlink()
        return list(self.setup_checks)


WORKLOADS = {
    "train_dense": lambda: TrainWorkload(
        lambda: dsl.preset("mixed-b-6-12-6", classes=CLASSES, input_size=SIZE),
        builder.DenseBlock(16, 32), beta=0.3, augment=True, max_prob=0.25, warmup=20,
    ),
    "train_conv": lambda: TrainWorkload(
        lambda: dsl.parse_network("IR 1-2-1", classes=CLASSES, input_size=SIZE),
        builder.ConvBlock(16, 4), beta=1.0, augment=False, max_prob=0.0, warmup=3,
    ),
    "eval_multicrop": EvalWorkload,
    "build_deep": BuildWorkload,
}


def cascade_comparison(seed: int, reps: int) -> dict:
    """Paper claim as wall time on the train_dense config: cascaded vs naive
    lowering with the same seed (hence the same parameters), fwd+bwd on one
    batch, alternating, median per side. Logits must agree."""
    config = dsl.preset("mixed-b-6-12-6", classes=CLASSES, input_size=SIZE)
    arch = builder.DenseBlock(16, 32)
    models = {
        memo: builder.lower(config, arch, beta=0.3, seed=seed, precision=PRECISION, memoize=memo)
        for memo in (True, False)
    }
    dataset = data.synth_dataset(BATCH, classes=CLASSES, size=SIZE, seed=seed)
    x = dataset.images.astype(np.float32)
    la = models[True].logits(x)
    lb = models[False].logits(x)
    agree = bool(np.allclose(la, lb, rtol=1e-5, atol=1e-6))
    times = {True: [], False: []}
    for _ in range(reps):
        for memo, model in models.items():
            t0 = time.perf_counter()
            out, tape = engine.forward(model.graph, model.params, x, "train")
            _, dlogits = engine.softmax_cross_entropy(out.data, dataset.labels)
            engine.backward(tape, dlogits)
            times[memo].append(time.perf_counter() - t0)
    apps = {memo: sum(s.block_apps for s in m.modules) for memo, m in models.items()}
    return {
        "agree": agree,
        "max_abs_diff": float(np.max(np.abs(la - lb))),
        "step_ratio": float(np.median(times[True]) / np.median(times[False])),
        "block_apps_ratio": apps[True] / apps[False],
        "block_apps": [apps[True], apps[False]],
    }
