"""Fixed-seed digest of a small end-to-end run, for bit-identity checks.

Trains a teacher on ring8, distills an acceleration adapter, fine-tunes a
style adapter on ring8 rotated by 22.5 degrees, combines the two adapters and
merges the result into the teacher, then samples and scores. Two short
distillations with the "dpm2" and "ddim-multi" solvers cover the solver
increments that the main distillation's "ddim" does not run. Every result's
float64 bytes are hashed with SHA-256 and the first 16 hex digits printed, one
row per result. Two source trees that print the same table computed the same
bits; a row that differs names where they part.

Settings: ring8 with 1,024 points, seed 3, N = 50, beta_max 0.25, hidden
(32, 32), rank 2; 300 teacher, 200 distillation and 200 style steps, and
SOLVER_STEPS distillation steps per other solver; 1,000 samples per sampler.
A last row hashes the distillation grad check at the seeds in
GRAD_CHECK_SEEDS. It takes about 3 s on one core.

Run from the repository root, against the tree under test:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/fixed_seed_digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from cdlora import (
    ConsistencyHead,
    DenoiserNet,
    DistillConfig,
    Encoder,
    StepSchedule,
    TrainOpts,
    attach,
    combine,
    ddim_sample,
    finetune_style_lora,
    lcd_distill,
    lcm_multistep_sample,
    make_dataset,
    make_schedule,
    merge,
    mmd2,
    substream,
    train_teacher,
)
from cdlora.sampling_eval import median_bandwidth
from cdlora.training import MetricsLog, distill_grad_check

SEED = 3
COUNT = 1_024
SAMPLES = 1_000
OMEGA = 7.5
# the three seeds of 0-199 with the largest distillation grad-check errors,
# each checked as the benchmark checks it: hidden (16, 16), rank 2, batch 4,
# h = 1e-5
GRAD_CHECK_SEEDS = (7, 98, 141)
# distillation steps of each row that runs a solver other than "ddim"
SOLVER_STEPS = 20


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def factors(adapter) -> list:
    return [t.data for e in adapter.entries.values() for t in (e.a, e.b)]


def main() -> None:
    sched = make_schedule(50, beta_max=0.25)
    data = make_dataset("ring8", COUNT, SEED)
    styled = make_dataset("rotated", COUNT, SEED, base="ring8", angle_deg=22.5)
    enc = Encoder.identity()

    teacher = DenoiserNet(data_dim=2, hidden=(32, 32), stream=substream(SEED, "init/net"))
    teacher_log = MetricsLog()
    train_teacher(data, teacher, enc, sched, TrainOpts(steps=300, seed=SEED),
                  metrics=teacher_log)

    def fresh_adapter():
        return attach(teacher, rank=2, stream=substream(SEED, "init/lora"), cap_rank=True)

    distill_log = MetricsLog()
    accel = lcd_distill(teacher, fresh_adapter(), data, enc, sched,
                        DistillConfig(steps=200, seed=SEED), metrics=distill_log)
    solver_rows = []
    for solver in ("dpm2", "ddim-multi"):
        log = MetricsLog()
        bundle = lcd_distill(teacher, fresh_adapter(), data, enc, sched,
                             DistillConfig(steps=SOLVER_STEPS, seed=SEED, solver=solver),
                             metrics=log)
        solver_rows.append((f"distill, {solver}", digest(log.losses(), *factors(bundle.adapter))))
    style_log = MetricsLog()
    style = finetune_style_lora(teacher, fresh_adapter(), styled, enc, sched,
                                TrainOpts(steps=200, seed=SEED), metrics=style_log)
    combined = combine(style, accel, 0.8, 1.0)
    merged = merge(teacher, combined.adapter)

    head = ConsistencyHead.for_schedule(sched)
    steps = StepSchedule.evenly_spaced(4, sched.N)
    cond = np.arange(SAMPLES) % teacher.num_conditions
    lcm_adapter = lcm_multistep_sample(teacher, head, sched, steps, OMEGA, cond, SAMPLES, 7,
                                       adapter=combined.adapter)
    lcm_merged = lcm_multistep_sample(merged, head, sched, steps, OMEGA, cond, SAMPLES, 7)
    ddim = ddim_sample(teacher, sched, 50, OMEGA, cond, SAMPLES, 7)
    reference = make_dataset("rotated", SAMPLES, SEED + 1, base="ring8", angle_deg=22.5)
    score = mmd2(lcm_adapter, reference.x)
    bandwidth = median_bandwidth(lcm_adapter, reference.x)
    grad_errors = [distill_grad_check(s, (16, 16), 2, 4, 1e-5) for s in GRAD_CHECK_SEEDS]

    rows = [
        ("teacher loss", digest(teacher_log.losses())),
        ("distill loss", digest(distill_log.losses())),
        ("style loss", digest(style_log.losses())),
        ("teacher weights", digest(*(p.data for p in teacher.params.values()))),
        ("acceleration factors", digest(*factors(accel.adapter))),
        *solver_rows,
        ("style factors", digest(*factors(style.adapter))),
        ("combined factors", digest(*factors(combined.adapter))),
        ("LCM-4, adapter", digest(lcm_adapter)),
        ("LCM-4, merged", digest(lcm_merged)),
        ("DDIM-50", digest(ddim)),
        ("mmd2", digest(score)),
        ("median_bandwidth", digest(bandwidth)),
        ("distill grad check", digest(grad_errors)),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    print(f"{'mmd2 value':<{width}}  {score!r}")
    print(f"{'grad check values':<{width}}  {' '.join(f'{e:.4g}' for e in grad_errors)}")


if __name__ == "__main__":
    main()
