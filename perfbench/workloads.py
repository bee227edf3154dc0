"""The benchmark's workloads: set-up from the workload seed, a closed loop
with one client, and output checks.

A workload builds everything it needs from the workload seed (no cache is
kept between runs), then runs ops one after another until the run's seconds
are up: training steps for `distill` and `teacher`, generate rounds for
`generate`. The first op is timed; there is no warm-up. Calls into cdlora go
through the package's public names, looked up at call time, so the traced
run's wrappers see them.
"""

from __future__ import annotations

import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import cdlora
import cdlora.training
from tracing import AFTER_OP

MAX_STEPS = 10**9          # training loops run until the clock stops them
CHECKPOINT_EVERY = 10      # teacher: save_net every K steps, 10% of steps
SETUP_TEACHER_STEPS = 100  # short teacher run that distill and generate start from
SETUP_DISTILL_STEPS = 25   # generate: short acceleration-adapter run
SETUP_STYLE_STEPS = 25     # generate: short style-adapter run
SAMPLE_COUNT = 2000
STYLE_ANGLE_DEG = 22.5
MERGE_TOLERANCE = 1e-9     # merged vs adapter samples; measured 4.4e-15
GRAD_TOLERANCE = 1e-4


class _TimeUp(Exception):
    """Raised from the step hook to end a training loop when the run is over."""


class Clock:
    """Op boundaries of one run: timed ops until time is up."""

    def __init__(self, seconds: float, min_ops: int, tracer=None):
        self.seconds = seconds
        self.min_ops = min_ops
        self.tracer = tracer
        self.marks: list = []
        self.rss_mb = None

    def start(self) -> None:
        self.marks = [perf_counter()]
        if self.tracer is not None:
            self.tracer.next_op(0)

    def tick(self) -> bool:
        """Mark the end of an op; True when the run should stop."""
        now = perf_counter()
        self.marks.append(now)
        if self.tracer is not None:
            self.tracer.next_op()
        done = len(self.marks) - 1
        if done == self.min_ops:
            self.rss_mb = peak_rss_mb()
        return done >= self.min_ops and now - self.marks[0] >= self.seconds

    def timed_ms(self) -> dict:
        """Wall time in ms of every op, keyed by op id."""
        return {i: (self.marks[i + 1] - self.marks[i]) * 1e3 for i in range(len(self.marks) - 1)}

    def timed_s(self) -> float:
        return self.marks[-1] - self.marks[0]


class StepHook:
    """The metrics= object handed to a training loop: one tick per step."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.losses: list = []

    def add(self, step: int, loss: float, wall_ms: float) -> None:
        self.losses.append(loss)
        if self.clock.tick():
            raise _TimeUp


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timing(name: str, values_ms) -> dict:
    """p10 and median, and p95 where at least 10 samples lie beyond it (0 with no samples).

    p10 is the op time in the least contended tenth of the run: on a machine
    shared with other tenants the median moves with their load.
    """
    n = len(values_ms)
    p10, p50 = np.percentile(values_ms, [10, 50]) if n else (0.0, 0.0)
    out = {f"{name}_p10": (float(p10), "ms", n), f"{name}_p50": (float(p50), "ms", n)}
    if n >= 200:
        out[f"{name}_p95"] = (float(np.percentile(values_ms, 95)), "ms", n)
    return out


# ---------------------------------------------------------------------------
# building blocks, all from the workload seed


def base_config(seed: int) -> dict:
    return cdlora.load_config(overrides={"seed": seed})


def make_net(cfg: dict):
    n = cfg["net"]
    return cdlora.DenoiserNet(
        data_dim=2, hidden=tuple(n["hidden"]), time_dim=n["time_dim"],
        guidance_dim=n["guidance_dim"], cond_dim=n["cond_dim"],
        num_conditions=n["num_conditions"], omega_ref=n["omega_ref"],
        stream=cdlora.substream(cfg["seed"], "init/net"))


def train_opts(cfg: dict, section: str, steps: int):
    opts = {k: v for k, v in cfg[section].items() if k != "checkpoint_every"}
    return cdlora.TrainOpts(**{**opts, "steps": steps, "seed": cfg["seed"]})


def distill_config(cfg: dict, steps: int):
    opts = {k: v for k, v in cfg["distill"].items() if k != "checkpoint_every"}
    return cdlora.DistillConfig(**{**opts, "steps": steps, "seed": cfg["seed"]})


def dataset(cfg: dict, **overrides):
    d = {**cfg["dataset"], **overrides}
    return cdlora.make_dataset(d["kind"], d["count"], cfg["seed"], **d["params"])


def new_adapter(cfg: dict, net):
    lora = cfg["lora"]
    return cdlora.attach(net, target_names=lora["targets"], rank=lora["rank"],
                         scale=lora["scale"], stream=cdlora.substream(cfg["seed"], "init/lora"),
                         cap_rank=lora["targets"] is None)


def short_teacher(cfg: dict, sched, data, workdir: Path):
    """A short teacher run, passed through save_net/load_net like a real one."""
    net = make_net(cfg)
    cdlora.train_teacher(data, net, cdlora.Encoder.identity(), sched,
                         train_opts(cfg, "teacher", SETUP_TEACHER_STEPS))
    path = workdir / "teacher.ckpt"
    cdlora.save_net(path, net, sched, cfg["schedule"], {"sigma_data": cfg["net"]["sigma_data"]})
    teacher, sched, _meta = cdlora.load_net(path)
    return teacher, sched


def schedule(cfg: dict):
    s = cfg["schedule"]
    return cdlora.make_schedule(s["N"], s["beta_min"], s["beta_max"])


# ---------------------------------------------------------------------------
# checks outside the timed ops


def distill_grad_check(seed: int) -> float:
    """Finite-difference check of the distillation loss on a small net."""
    sched = cdlora.make_schedule(50)
    net = cdlora.DenoiserNet(data_dim=2, hidden=(16, 16), num_conditions=8,
                             stream=cdlora.substream(seed, "init/net"))
    stream = cdlora.substream(seed, "gradcheck")
    for name, p in net.params.items():
        if name.endswith(".weight") and np.all(p.data == 0.0):
            p.data[:] = 0.1 * stream.normal(p.shape)
    adapter = cdlora.attach(net, rank=2, stream=cdlora.substream(seed, "init/lora"), cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = 0.05 * stream.normal(e.b.shape)
    head = cdlora.ConsistencyHead.for_schedule(sched)
    batch, k = 4, 5
    cond = stream.integers(batch, 0, 7)
    n = stream.integers(batch, 1, sched.N - k)
    omega = np.full(batch, 7.5)
    z_hi = cdlora.add_noise(stream.normal((batch, 2)), n + k, stream.normal((batch, 2)), sched)

    def teacher_eps(x, t, c):
        return net.forward(x, 0.0, c, t).data

    z_hat = cdlora.cfg_target(z_hi, n + k, n, cond, net.null_id, omega, teacher_eps, sched)
    target = cdlora.consistency_forward(net, head, sched, z_hat, omega, cond, n,
                                        adapter=adapter).data

    def loss():
        f = cdlora.consistency_forward(net, head, sched, z_hi, omega, cond, n + k, adapter=adapter)
        return cdlora.training.consistency_distance(f, target, "l2", 0.01)

    return cdlora.grad_check(loss, adapter.trainable_params(), h=1e-5)


def after_checks(seed: int, samples, tracer=None) -> dict:
    """One-off checks of every run: mmd2(x, x) == 0 exactly, and grad_check."""
    if tracer is not None:
        tracer.next_op(AFTER_OP)
    self_mmd = cdlora.mmd2(samples, samples)
    rel = distill_grad_check(seed)
    return {"mmd2_self_zero": bool(self_mmd == 0.0), "grad_check_ok": bool(rel <= GRAD_TOLERANCE),
            "grad_check_rel": rel}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up plus a closed loop of ops; subclasses define both."""

    name = ""
    trains = False      # ops are training steps
    min_ops = 300       # timed ops a run makes even when its seconds are up
    rows_per_op = 0

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.state: dict = {}

    def setup(self):
        raise NotImplementedError

    def loop(self, state, clock: Clock) -> dict:
        raise NotImplementedError

    def run(self, seconds: float, t0=None) -> dict:
        """Set up, then run ops for `seconds`; set-up time counts from t0
        (by default the call) to the first op."""
        t0 = perf_counter() if t0 is None else t0
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.state = self.setup()
        clock = Clock(seconds, self.min_ops, self.tracer)
        out = self.loop(self.state, clock)
        op_ms = clock.timed_ms()
        timed_s = clock.timed_s()
        out["op_ms"] = op_ms
        out["setup_s"] = clock.marks[0] - t0
        out["metrics"] = {
            **timing("op_ms", list(op_ms.values())),
            "rows_per_s": (self.rows_per_op * len(op_ms) / timed_s if timed_s else 0.0,
                           "rows/s", len(op_ms)),
            # read after a fixed number of ops, not at the end: resident memory
            # grows with the steps a run makes (teacher: 147 MB after 250
            # steps, 186 MB after 2,500), so a faster program would read worse
            "peak_rss_mb": (clock.rss_mb or peak_rss_mb(), "MB", 1),
            # at the end of the run; printed, not gated, to keep that growth in view
            "peak_rss_end_mb": (peak_rss_mb(), "MB", 1),
            **out["metrics"],
        }
        return out


class _Training(Workload):
    trains = True
    loss_window = (100, 300)   # steps whose mean loss is loss_tail; fixed by the seed

    def train(self, state, hook):
        raise NotImplementedError

    def loop(self, state, clock):
        hook = StepHook(clock)
        diverged = 0
        clock.start()
        try:
            self.train(state, hook)
        except _TimeUp:
            pass
        except ArithmeticError:   # DivergenceError: a non-finite loss ends the run
            diverged = 1
        lo, hi = self.loss_window
        tail = hook.losses[lo:hi]
        checks = after_checks(self.seed, state["data"].x[:512], self.tracer)
        failed = (diverged + (not checks["mmd2_self_zero"])
                  + (not checks["grad_check_ok"]))
        return {
            "attempted": len(hook.losses) + diverged + 2,
            "failed": failed,
            "checks": checks,
            "metrics": {"loss_tail": (statistics.fmean(tail) if tail else math.nan, "loss", len(tail))},
        }


class Distill(_Training):
    """lcd_distill at the default config on a short teacher."""

    name = "distill"

    def setup(self):
        cfg = base_config(self.seed)
        sched = schedule(cfg)
        data = dataset(cfg)
        teacher, sched = short_teacher(cfg, sched, data, self.workdir)
        adapter = new_adapter(cfg, teacher)
        head = cdlora.ConsistencyHead.for_schedule(sched, cfg["net"]["sigma_data"])
        self.rows_per_op = cfg["distill"]["batch_size"]
        return {"cfg": cfg, "sched": sched, "data": data, "teacher": teacher,
                "adapter": adapter, "head": head}

    def train(self, s, hook):
        cdlora.lcd_distill(s["teacher"], s["adapter"], s["data"], cdlora.Encoder.identity(),
                           s["sched"], distill_config(s["cfg"], MAX_STEPS), head=s["head"],
                           metrics=hook)


class Teacher(_Training):
    """train_teacher at the default teacher config, saving every K steps."""

    name = "teacher"

    def setup(self):
        cfg = base_config(self.seed)
        self.rows_per_op = cfg["teacher"]["batch"]
        return {"cfg": cfg, "sched": schedule(cfg), "data": dataset(cfg), "net": make_net(cfg)}

    def train(self, s, hook):
        cfg, net, sched = s["cfg"], s["net"], s["sched"]
        path = self.workdir / "teacher_step.ckpt"

        def checkpoint(step):
            cdlora.save_net(path, net, sched, cfg["schedule"],
                            {"sigma_data": cfg["net"]["sigma_data"], "step": step})

        cdlora.train_teacher(s["data"], net, cdlora.Encoder.identity(), sched,
                             train_opts(cfg, "teacher", MAX_STEPS), metrics=hook,
                             checkpoint_cb=checkpoint, checkpoint_every=CHECKPOINT_EVERY)


class Generate(Workload):
    """Rounds of few-step and baseline sampling plus MMD on fixed artifacts."""

    name = "generate"
    min_ops = 3
    rows_per_op = 3 * SAMPLE_COUNT   # adapter, merged and DDIM samples per round

    def setup(self):
        cfg = base_config(self.seed)
        sched = schedule(cfg)
        data = dataset(cfg)
        teacher, sched = short_teacher(cfg, sched, data, self.workdir)
        head = cdlora.ConsistencyHead.for_schedule(sched, cfg["net"]["sigma_data"])
        enc = cdlora.Encoder.identity()
        accel = cdlora.lcd_distill(teacher, new_adapter(cfg, teacher), data, enc, sched,
                                   distill_config(cfg, SETUP_DISTILL_STEPS), head=head)
        rotated = {"kind": "rotated", "params": {"base": "ring8", "angle_deg": STYLE_ANGLE_DEG}}
        style = cdlora.finetune_style_lora(teacher, new_adapter(cfg, teacher),
                                           dataset(cfg, **rotated), enc, sched,
                                           train_opts(cfg, "style", SETUP_STYLE_STEPS))
        c = cfg["combine"]
        combined = cdlora.combine(style, accel, c["lambda1"], c["lambda2"])
        merged = cdlora.merge(teacher, combined.adapter)
        reference = cdlora.make_dataset("rotated", SAMPLE_COUNT, self.seed + 1,
                                        base="ring8", angle_deg=STYLE_ANGLE_DEG)
        return {"cfg": cfg, "sched": sched, "data": data, "teacher": teacher, "head": head,
                "combined": combined.adapter, "merged": merged, "reference": reference.x}

    def loop(self, s, clock):
        cfg, sched, head = s["cfg"], s["sched"], s["head"]
        sample = cfg["sample"]
        steps = cdlora.StepSchedule.evenly_spaced(sample["steps"], sched.N)
        omega = sample["omega"]
        cond = np.arange(SAMPLE_COUNT, dtype=np.int64) % s["teacher"].num_conditions
        parts = {"lcm4": [], "lcm4_merged": [], "ddim50": [], "mmd2": []}
        mmd_first = math.nan
        failed = 0
        rounds = 0
        clock.start()
        while True:
            seed = self.seed * 100_003 + rounds
            t0 = perf_counter()
            x_a = cdlora.lcm_multistep_sample(s["teacher"], head, sched, steps, omega, cond,
                                              SAMPLE_COUNT, seed, adapter=s["combined"])
            t1 = perf_counter()
            x_m = cdlora.lcm_multistep_sample(s["merged"], head, sched, steps, omega, cond,
                                              SAMPLE_COUNT, seed)
            t2 = perf_counter()
            x_d = cdlora.ddim_sample(s["teacher"], sched, 50, omega, cond, SAMPLE_COUNT, seed)
            t3 = perf_counter()
            mmd = cdlora.mmd2(x_a, s["reference"])
            t4 = perf_counter()
            ok = (float(np.max(np.abs(x_a - x_m))) <= MERGE_TOLERANCE
                  and bool(np.all(np.isfinite(x_d))) and math.isfinite(mmd))
            failed += not ok
            if rounds == 0:
                mmd_first = mmd
            rounds += 1
            for key, a, b in (("lcm4", t0, t1), ("lcm4_merged", t1, t2),
                              ("ddim50", t2, t3), ("mmd2", t3, t4)):
                parts[key].append((b - a) * 1e3)
            if clock.tick():
                break
        checks = after_checks(self.seed, x_a, self.tracer)
        failed += (not checks["mmd2_self_zero"]) + (not checks["grad_check_ok"])
        metrics = {}
        for key, values in parts.items():
            metrics.update(timing(f"{key}_ms", values))
        metrics["mmd2_lcm4"] = (mmd_first, "mmd2", 1)
        return {"attempted": rounds + 2, "failed": failed, "checks": checks, "metrics": metrics}


WORKLOADS = {w.name: w for w in (Distill, Teacher, Generate)}
