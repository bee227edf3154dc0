"""Per-step memory and page faults of the training steps and sampling calls at the default config.

Runs teacher steps (`train_teacher` on a fresh net) and distillation steps
(`lcd_distill` of a rank-8 adapter on a short teacher), all at the default
config, through the library. The loops' `metrics=` object marks each step's
end. For each phase it prints, over the steps after the first WARMUP:

- step peak: the most memory the step's traced allocations (Python objects
  and numpy arrays, through tracemalloc) held above what was live when the
  step began; the arrays that the training loop's ArrayPool keeps from the
  step before count as live, so this is what a step allocates beyond them;
- minor faults: minor page faults per step (`getrusage`), from a separate pass
  without tracemalloc, since tracemalloc's own bookkeeping moves the heap;
- tape nodes: the nodes on the step's gradient tape when backward starts, from
  the same pass. A taped denoiser forward is one node, so a teacher step reads
  the network plus the loss's few primitives.

A sampling phase then measures the first two figures per call, over the calls
after the first of SAMPLE_CALLS, for one guided 50-step `ddim_sample` and one
4-step `lcm_multistep_sample` through a fresh rank-8 adapter, each of the
config's `sample.count` points from the short teacher.

Where code allocates afresh, its fault count depends on the heap layout that
set-up leaves, so it varies with the seed and even with the checkout
directory's name; the peaks do not. A training step takes its arrays from the
loop's ArrayPool, refilled by the step before, and should read 0 faults in
every layout.

Run from the repository root, against the tree under test:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/step_memory.py [--steps 40] [--seed 0]
"""

from __future__ import annotations

import argparse
import resource
import statistics
import tracemalloc

import numpy as np

from cdlora import (
    ConsistencyHead,
    DenoiserNet,
    DistillConfig,
    Encoder,
    GradTape,
    StepSchedule,
    TrainOpts,
    attach,
    ddim_sample,
    lcd_distill,
    lcm_multistep_sample,
    load_config,
    make_dataset,
    make_schedule,
    substream,
    train_teacher,
)

TEACHER_SETUP_STEPS = 100   # the short teacher that distillation starts from
WARMUP = 5                  # first steps left out: they allocate optimizer, EMA and pool state
SAMPLE_CALLS = 4            # calls per sampler and pass; the first is left out


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class StepProbe:
    """metrics= object of a training loop, or marked after each sampling call:
    reads each step's or call's faults, and its memory peak when tracemalloc
    is tracing."""

    def __init__(self):
        self.peaks_mb: list = []
        self.faults: list = []
        self._begin()

    def _begin(self) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self._live = tracemalloc.get_traced_memory()[0]
        self._faults = _minor_faults()

    def add(self, step: int, loss: float, wall_ms: float) -> None:
        self.mark()

    def mark(self) -> None:
        """Close one step or call and begin the next."""
        self.faults.append(_minor_faults() - self._faults)
        if tracemalloc.is_tracing():
            self.peaks_mb.append((tracemalloc.get_traced_memory()[1] - self._live) / 2**20)
        self._begin()


def _probe(run, steps: int, warmup: int = WARMUP) -> tuple:
    """Run the phase twice, untraced for faults and tape nodes, traced for memory peaks."""
    nodes = []
    backward = GradTape.backward

    def counted(tape, loss):
        nodes.append(len(tape._nodes))
        return backward(tape, loss)

    plain = StepProbe()
    GradTape.backward = counted
    try:
        run(steps, plain)
    finally:
        GradTape.backward = backward
    tracemalloc.start()
    try:
        traced = StepProbe()
        run(steps, traced)
    finally:
        tracemalloc.stop()
    return traced.peaks_mb[warmup:], plain.faults[warmup:], nodes[warmup:]


def _print_table(unit: str, rows) -> None:
    """One line per (name, run, count, warmup): peak MB, faults and tape nodes per unit."""
    print(f"{'phase':<13}  {unit + 's':>5}  {unit + ' peak MB (median, max)':>26}  "
          f"{'minor faults per ' + unit + ' (median, max)':>35}  {'tape nodes':>10}")
    for name, run, count, warmup in rows:
        peaks, faults, nodes = _probe(run, count, warmup)
        print(f"{name:<13}  {len(peaks):>5}  {statistics.median(peaks):>17.2f}  {max(peaks):>6.2f}  "
              f"{statistics.median(faults):>26.0f}  {max(faults):>6d}  "
              f"{statistics.median(nodes) if nodes else 0:>10.0f}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--steps", type=int, default=40, help=f"steps per pass, more than {WARMUP}")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    if args.steps <= WARMUP:
        p.error(f"--steps must be more than {WARMUP}")

    cfg = load_config(overrides={"seed": args.seed})
    s, d, lora = cfg["schedule"], cfg["dataset"], cfg["lora"]
    sched = make_schedule(s["N"], s["beta_min"], s["beta_max"])
    data = make_dataset(d["kind"], d["count"], args.seed, **d["params"])
    arch = {k: v for k, v in cfg["net"].items() if k != "sigma_data"}

    def section(name: str) -> dict:
        return {k: v for k, v in cfg[name].items() if k != "checkpoint_every"}

    def teacher_run(steps, probe=None):
        net = DenoiserNet(data_dim=2, **arch, stream=substream(args.seed, "init/net"))
        train_teacher(data, net, Encoder.identity(), sched,
                      TrainOpts(**{**section("teacher"), "steps": steps, "seed": args.seed}),
                      metrics=probe)
        return net

    teacher = teacher_run(TEACHER_SETUP_STEPS)

    def distill_run(steps, probe):
        adapter = attach(teacher, target_names=lora["targets"], rank=lora["rank"],
                         scale=lora["scale"], stream=substream(args.seed, "init/lora"),
                         cap_rank=lora["targets"] is None)
        lcd_distill(teacher, adapter, data, Encoder.identity(), sched,
                    DistillConfig(**{**section("distill"), "steps": steps, "seed": args.seed}),
                    metrics=probe)

    sample = cfg["sample"]
    count = sample["count"]
    head = ConsistencyHead.for_schedule(sched, cfg["net"]["sigma_data"])
    steps = StepSchedule.evenly_spaced(sample["steps"], sched.N)
    adapter = attach(teacher, rank=8, stream=substream(args.seed, "init/lora"), cap_rank=True)
    cond = np.arange(count) % teacher.num_conditions

    def ddim_run(calls, probe):
        for _ in range(calls):
            ddim_sample(teacher, sched, 50, sample["omega"], cond, count, args.seed)
            probe.mark()

    def lcm_run(calls, probe):
        for _ in range(calls):
            lcm_multistep_sample(teacher, head, sched, steps, sample["omega"], cond, count, args.seed,
                                 adapter=adapter)
            probe.mark()

    _print_table("step", [("teacher", teacher_run, args.steps, WARMUP),
                          ("distill", distill_run, args.steps, WARMUP)])
    print()
    _print_table("call", [("ddim-50", ddim_run, SAMPLE_CALLS, 1),
                          ("lcm-4 rank 8", lcm_run, SAMPLE_CALLS, 1)])


if __name__ == "__main__":
    main()
