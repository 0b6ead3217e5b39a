#!/usr/bin/env python3
# Training on the synthetic stripes task: RMSProp with the step schedule,
# residual scaling, and stochastic path dropping.

from polyres import (
    DenseBlock,
    OptimizerHP,
    StochasticPathConfig,
    gate_probabilities,
    lower,
    lr_at,
    parse_network,
    synth_dataset,
    train,
)

# The reference schedule: 0.45 decayed by 10x every 160K iterations over a
# 560K run (three decays). The desk schedule keeps that shape at toy scale.
paper = OptimizerHP.paper_schedule()
print("full-scale schedule:", [lr_at(it, paper) for it in (0, 160_000, 320_000, 480_000)])
hp = OptimizerHP.desk(1200)
print("desk schedule decays at", hp.lr_step, "iterations\n")

dataset = synth_dataset(512, classes=4, size=32, seed=0)
config = parse_network("IR 1-2-1", classes=4)
model = lower(config, DenseBlock(16, 32), beta=0.3, seed=0, precision="f32")

model, history = train(model, dataset, hp, eval_every=300, seed=0)
print("plain training:")
for r in history.records:
    print(f"  iter {r.iteration:>5}  lr {r.lr:<8.4g} train {r.train_loss:.4f} "
          f"val {r.val_loss:.4f}  top1 {r.top1:.3f}")

# Stochastic paths: per-module drop probabilities rise linearly with depth;
# each non-identity path survives independently. Here they are on from the
# start (start="auto" waits for an overfitting signal instead).
print("\ndrop probabilities over 4 modules:", gate_probabilities(4, 0.25))
spc = StochasticPathConfig(max_prob=0.25)
model2 = lower(config, DenseBlock(16, 32), beta=0.3, seed=0, precision="f32")
model2, history2 = train(model2, dataset, hp, spc=spc, eval_every=300, seed=0)
print("with stochastic paths:")
for r in history2.records:
    print(f"  iter {r.iteration:>5}  gates {'on ' if r.gates_active else 'off'} "
          f"train {r.train_loss:.4f} val {r.val_loss:.4f}  top1 {r.top1:.3f}")
