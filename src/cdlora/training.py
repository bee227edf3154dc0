"""Training loops: the guided diffusion teacher, consistency distillation
into low-rank adapter factors, and style fine-tuning of adapters.

The distillation loop follows the distilled-consistency recipe verbatim:
sample (z, c), a timestep n, and a guidance scale; noise z to t_{n+k}; run
the frozen teacher's guided solver one skipping interval down to t_n to get
the target point; regress the adapter-bearing consistency function at
t_{n+k} onto the EMA shadow's output at t_n (stop-gradient); update only the
adapter factors; update the EMA shadow.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cdlora.datasets import Dataset2D
from cdlora.denoiser import (ConsistencyHead, DenoiserNet, consistency_forward, ints, numbers,
                              one_of, problems_of, reject)
from cdlora.lora import AdapterBundle, AdapterError, LoraAdapter, attach, check_fit
from cdlora.rng import substream
from cdlora.schedule import NoiseSchedule, add_noise, make_schedule
from cdlora.solvers import SOLVER_KINDS, cfg_target
from cdlora.tensor import (ArrayPool, GradTape, Tensor, add, grad_check, mean_all, sqrt, square,
                            sub, sum_rows)


class DivergenceError(ArithmeticError):
    """Training went non-finite; carries the step index."""

    def __init__(self, step: int, value):
        super().__init__(f"non-finite loss ({value}) at step {step}")
        self.step = step


@contextmanager
def _step_guard(step: int):
    """Re-raise non-finite failures inside a training step as divergence."""
    try:
        yield
    except DivergenceError:
        raise
    except ArithmeticError as exc:
        raise DivergenceError(step, exc) from exc


# ---------------------------------------------------------------------------
# configuration


def lr_factor(schedule: str, step: int, total: int) -> float:
    """Per-step learning-rate multiplier; "cosine" decays to ~0 at the end."""
    if schedule == "constant":
        return 1.0
    if schedule == "cosine":
        return 0.5 * (1.0 + np.cos(np.pi * (step - 1) / max(total, 1)))
    raise ValueError(f"unknown lr schedule {schedule!r}")


@dataclass
class TrainOpts:
    """Plain diffusion-loss training options (teacher and style phases)."""

    steps: int = 20_000
    lr: float = 1e-3
    batch: int = 256
    p_uncond: float = 0.1
    seed: int = 0
    optimizer: str = "adam"
    lr_schedule: str = "cosine"

    def rules(self) -> dict:
        """A test per field (denoiser.problems_of's spec), which validate applies."""
        return {**_RUN_RULES, "batch": ints(1), "lr": numbers(0),
                "p_uncond": lambda p: numbers()(p) and 0.0 <= p < 1.0}

    def validate(self):
        reject("run settings", problems_of(vars(self), self.rules(), exact=True))


@dataclass
class DistillConfig:
    """All distillation hyperparameters."""

    eta: float = 3e-4
    mu: float = 0.95
    k: int = 5
    guidance_mode: str = "fixed"      # "fixed" | "range"
    omega_fixed: float = 7.5
    omega_min: float = 2.0
    omega_max: float = 14.0
    distance: str = "l2"              # "l2" | "pseudo-huber"
    huber_c: float = 0.01
    solver: str = "ddim"
    steps: int = 10_000
    batch_size: int = 256
    seed: int = 0
    optimizer: str = "adam"
    lr_schedule: str = "constant"

    def rules(self, N: int) -> dict:
        """A test per field, k's bound from a schedule of N steps; validate applies them."""
        def scale(w):  # a guidance scale
            return numbers()(w) and w >= 0.0

        low = self.omega_min if scale(self.omega_min) else 0.0
        return {**_RUN_RULES, "batch_size": ints(1), "eta": numbers(0),
                "k": lambda k: ints(1)(k) and (k < N or f"{k} outside [1, {N - 1}]"),
                "mu": lambda mu: numbers()(mu) and 0.0 <= mu <= 1.0,
                "omega_fixed": scale, "omega_min": scale,
                "omega_max": lambda w: scale(w) and (w >= low or f"{w} is below 'omega_min' {low}"),
                "huber_c": numbers(0), "guidance_mode": one_of("fixed", "range"),
                "distance": one_of("l2", "pseudo-huber"), "solver": one_of(*SOLVER_KINDS)}

    def validate(self, N: int):
        reject("run settings", problems_of(vars(self), self.rules(N), exact=True))


# ---------------------------------------------------------------------------
# encoder


class Encoder:
    """Latent encoder: the identity, since the data is already 2-D points."""

    @classmethod
    def identity(cls) -> "Encoder":
        return cls()

    def encode(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# EMA shadow and optimizers


class EmaShadow:
    """Exponential moving average of the trainable adapter factors.

    Initialized as a copy of the live factors; updated with no gradient flow.
    The shadow doubles as a frozen adapter for target evaluation.
    """

    def __init__(self, adapter: LoraAdapter):
        self.adapter = adapter.detached_clone()
        self.params = self.adapter.trainable_params()


def ema_update(shadow: EmaShadow, params: list, mu: float) -> EmaShadow:
    """shadow <- mu * shadow + (1 - mu) * params, exactly, off-tape and in
    place; every shape is checked before any factor is written."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"EMA rate mu={mu} outside [0, 1]")
    if len(shadow.params) != len(params):
        raise ValueError("shadow and parameter lists differ in length")
    for s, p in zip(shadow.params, params):
        if s.data.shape != p.data.shape:
            raise ValueError(f"shadow shape {s.data.shape} != param shape {p.data.shape}")
    for s, p in zip(shadow.params, params):
        # exact at both ends for finite factors: 1 * s + 0 * p and 0 * s + 1 * p
        s.data *= mu
        s.data += (1.0 - mu) * p.data
    return shadow


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params):
        for p in params:
            if p.grad is not None:
                p.data -= self.lr * p.grad


# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over flat arrays that span all parameters.

    The moments m and v, the gathered gradient and one scratch array are
    flat, sized on the first step. Each step runs the update formula once
    over every run of consecutive parameters that have a gradient, in place,
    then subtracts each parameter's slice of the update from it in place. A
    parameter without a gradient keeps its value and its moments.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.flat = None   # rows m, v, gradient (then update) and scratch

    def step(self, params):
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.t
        correct2 = 1.0 - ADAM_BETA2 ** self.t
        spans, size = [], 0   # (parameter, start, end) in the flat arrays, of those with a gradient
        for p in params:
            if p.grad is not None:
                spans.append((p, size, size + p.data.size))
            size += p.data.size
        if self.flat is None:
            self.flat = np.zeros((4, size))
        if self.flat.shape[1] != size:
            raise ValueError(f"Adam holds moments of {self.flat.shape[1]} values, got {size}")
        m, v, g, tmp = self.flat
        runs = []   # [start, end) of each run of consecutive parameters with a gradient
        for p, lo, hi in spans:
            g[lo:hi] = p.grad.reshape(-1)
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        for lo, hi in runs:
            rm, rv, rg, rt = m[lo:hi], v[lo:hi], g[lo:hi], tmp[lo:hi]
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g
            rm *= ADAM_BETA1
            rm += np.multiply(rg, 1.0 - ADAM_BETA1, out=rt)
            rv *= ADAM_BETA2
            np.multiply(rg, 1.0 - ADAM_BETA2, out=rt)
            rt *= rg
            rv += rt
            # the gradient is spent: its rows take the update lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(rm, correct1, out=rg)
            rg *= self.lr
            np.divide(rv, correct2, out=rt)
            np.sqrt(rt, out=rt)
            rt += ADAM_EPS
            rg /= rt
        for p, lo, hi in spans:
            p.data -= g[lo:hi].reshape(p.data.shape)


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}
LR_SCHEDULES = ("constant", "cosine")  # lr_factor's

# the rules of the run fields TrainOpts and DistillConfig share
_RUN_RULES = {"steps": ints(0), "seed": ints(), "optimizer": one_of(*OPTIMIZERS),
              "lr_schedule": one_of(*LR_SCHEDULES)}


# ---------------------------------------------------------------------------
# metrics


class MetricsLog:
    """Per-step training metrics, written as CSV (step, loss, ema_loss, wall_ms)."""

    EMA_RATE = 0.99

    def __init__(self):
        self.rows: list[tuple] = []
        self._ema: Optional[float] = None

    def add(self, step: int, loss: float, wall_ms: float):
        self._ema = loss if self._ema is None else (
            self.EMA_RATE * self._ema + (1.0 - self.EMA_RATE) * loss
        )
        self.rows.append((step, loss, self._ema, wall_ms))

    def losses(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "ema_loss", "wall_ms"])
            for step, loss, ema, wall in self.rows:
                writer.writerow([step, repr(loss), repr(ema), f"{wall:.3f}"])

    @staticmethod
    def read(path) -> list[tuple]:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            return [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in reader]


# ---------------------------------------------------------------------------
# losses


def diffusion_loss(net: DenoiserNet, z_noised, eps_true, cond, t, adapter=None) -> Tensor:
    """Mean squared noise-prediction residual over the batch."""
    eps_hat = net.forward(z_noised, 0.0, cond, t, adapter=adapter)
    residual = sub(eps_hat, Tensor(eps_true))
    return mean_all(sum_rows(square(residual)))


def consistency_distance(f: Tensor, target: np.ndarray, kind: str, huber_c: float) -> Tensor:
    """Batch-mean distance between consistency outputs and frozen targets."""
    diff = sub(f, Tensor(target))
    per_sample = sum_rows(square(diff))
    if kind == "l2":
        return mean_all(per_sample)
    if kind == "pseudo-huber":
        return sub(mean_all(sqrt(add(per_sample, huber_c * huber_c))), huber_c)
    raise ValueError(f"unknown distance {kind!r}")


def _distill_target(teacher: DenoiserNet, head: ConsistencyHead, sched: NoiseSchedule,
                    cfg: DistillConfig, z_hi, n, cond, omega, adapter) -> np.ndarray:
    """Frozen target at t_n: the teacher's guided solver from t_{n+k} down to
    t_n (no adapter on that path), then the consistency function through
    `adapter`, all off the tape."""

    def teacher_eps(x, t, cond_ids):
        return teacher.forward(x, 0.0, cond_ids, t).data

    z_hat = cfg_target(z_hi, n + cfg.k, n, cond, teacher.null_id, omega, teacher_eps, sched,
                       kind=cfg.solver)
    return consistency_forward(teacher, head, sched, z_hat, omega, cond, n, adapter=adapter).data


def _distill_loss(teacher: DenoiserNet, head: ConsistencyHead, sched: NoiseSchedule,
                  cfg: DistillConfig, z_hi, n, cond, omega, target, adapter) -> Tensor:
    """Distance from the live adapter's consistency output at t_{n+k} to the target."""
    f = consistency_forward(teacher, head, sched, z_hi, omega, cond, n + cfg.k, adapter=adapter)
    return consistency_distance(f, target, cfg.distance, cfg.huber_c)


# ---------------------------------------------------------------------------
# training loops


def _check_data(dataset: Dataset2D, net: DenoiserNet) -> None:
    """A phase's data must be non-empty, and its condition ids must be ones
    the net embeds as conditions (the id past them is the null condition)."""
    if len(dataset.x) == 0:
        raise ValueError("empty dataset")
    if dataset.num_conditions > net.num_conditions:
        raise ValueError(f"dataset has {dataset.num_conditions} conditions, "
                         f"net allows {net.num_conditions}")


def _train(steps: int, params: list, optimizer: str, lr: float, lr_schedule: str,
           draw, loss_fn, after_step=None, metrics: Optional[MetricsLog] = None,
           checkpoint_cb=None, checkpoint_every: int = 0) -> None:
    """Run the training step every phase shares for steps 1..steps.

    draw() builds the batch, and any frozen targets, off the tape; loss_fn(batch)
    builds the loss on the tape. Then the optimizer updates params and
    after_step() runs. A step's wall_ms spans draw to after_step; the
    checkpoint falls outside it.
    """
    reject("run settings", problems_of({"checkpoint_every": checkpoint_every},
                                       {"checkpoint_every": ints(0)}))
    opt = OPTIMIZERS[optimizer](lr)
    pool = ArrayPool()   # the arrays each step's draw and tape make, for the next step to reuse
    for step in range(1, steps + 1):
        tic = time.perf_counter()
        with _step_guard(step), pool:
            batch = draw()
        for p in params:
            p.grad = None
        with _step_guard(step), pool, GradTape() as tape:
            loss = loss_fn(batch)
            tape.backward(loss)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise DivergenceError(step, loss_val)
        opt.lr = lr * lr_factor(lr_schedule, step, steps)
        opt.step(params)
        if after_step is not None:
            after_step()
        # drop the step's graph here, so that the next draw reuses its arrays
        del tape
        if metrics is not None:
            metrics.add(step, loss_val, (time.perf_counter() - tic) * 1e3)
        if checkpoint_cb is not None and checkpoint_every > 0 and step % checkpoint_every == 0:
            checkpoint_cb(step)


def _diffusion_train(phase: str, net: DenoiserNet, params: list, dataset: Dataset2D,
                     encoder: Encoder, sched: NoiseSchedule, opts: TrainOpts,
                     adapter: Optional[LoraAdapter] = None, **hooks) -> None:
    """Noise-prediction training with condition dropout, on the "<phase>/*" streams.

    hooks (metrics, checkpoint_cb, checkpoint_every) pass through to _train.
    """
    z_data = encoder.encode(dataset.x)
    s_batch, s_time, s_noise, s_drop = (substream(opts.seed, f"{phase}/{tag}")
                                        for tag in ("batch", "timestep", "noise", "dropout"))

    def draw():
        idx = s_batch.integers(opts.batch, 0, len(z_data) - 1)
        cond = dataset.cond[idx].copy()
        n = s_time.integers(opts.batch, 1, sched.N)
        eps = s_noise.normal((opts.batch, net.data_dim))
        if opts.p_uncond > 0.0:
            cond[s_drop.uniform(opts.batch) < opts.p_uncond] = net.null_id
        return add_noise(z_data[idx], n, eps, sched), eps, cond, sched.t_of(n)

    _train(opts.steps, params, opts.optimizer, opts.lr, opts.lr_schedule, draw,
           lambda batch: diffusion_loss(net, *batch, adapter=adapter), **hooks)


def train_teacher(dataset: Dataset2D, net: DenoiserNet, encoder: Encoder,
                  sched: NoiseSchedule, opts: TrainOpts,
                  metrics: Optional[MetricsLog] = None,
                  checkpoint_cb=None, checkpoint_every: int = 0) -> DenoiserNet:
    """Standard noise-prediction training with condition dropout.

    The teacher ignores the guidance scale: its guidance embedding is fed a
    fixed sentinel 0. Conditions are replaced by the null id with probability
    p_uncond so the unconditional branch is trained for guidance.
    """
    opts.validate()
    _check_data(dataset, net)
    net.set_trainable(True)
    _diffusion_train("teacher", net, net.trainable_params(), dataset, encoder, sched, opts,
                     metrics=metrics, checkpoint_cb=checkpoint_cb,
                     checkpoint_every=checkpoint_every)
    return net


def acceleration_bundle(adapter: LoraAdapter, cfg: DistillConfig) -> AdapterBundle:
    """The distilled adapter, with the settings that produced it as provenance."""
    return AdapterBundle(adapter=adapter, role="acceleration",
                         provenance={"solver": cfg.solver, "k": cfg.k,
                                     "guidance_mode": cfg.guidance_mode})


def lcd_distill(teacher: DenoiserNet, adapter: LoraAdapter, dataset: Dataset2D,
                encoder: Encoder, sched: NoiseSchedule, cfg: DistillConfig,
                head: Optional[ConsistencyHead] = None,
                metrics: Optional[MetricsLog] = None,
                stats: Optional[dict] = None,
                checkpoint_cb=None, checkpoint_every: int = 0) -> AdapterBundle:
    """Distill the frozen guided teacher into the adapter factors.

    Per step: draw (z, c), n ~ U[1, N-k], and a guidance scale; noise to
    t_{n+k}; compute the guided solver target z_hat at t_n from the frozen
    teacher only (no adapter on that path); minimize
    d(f_theta(z_{t_{n+k}}), f_{theta_minus}(z_hat)) over the adapter factors
    with the EMA branch stop-gradiented; update the EMA shadow.
    """
    cfg.validate(sched.N)
    check_fit(adapter, teacher)
    _check_data(dataset, teacher)
    teacher.set_trainable(False)
    if head is None:
        head = ConsistencyHead.for_schedule(sched)
    params = adapter.trainable_params()
    shadow = EmaShadow(adapter)  # theta_minus <- theta
    z_data = encoder.encode(dataset.x)
    batch = cfg.batch_size

    s_batch, s_time, s_noise, s_omega = (substream(cfg.seed, f"distill/{tag}")
                                         for tag in ("batch", "timestep", "noise", "omega"))

    n_counts = np.zeros(sched.N + 1, dtype=np.int64)
    omega_seen = [np.inf, -np.inf]

    def draw():
        idx = s_batch.integers(batch, 0, len(z_data) - 1)
        cond = dataset.cond[idx]
        n = s_time.integers(batch, 1, sched.N - cfg.k)
        if cfg.guidance_mode == "fixed":
            omega = np.full(batch, cfg.omega_fixed)
        else:
            omega = cfg.omega_min + (cfg.omega_max - cfg.omega_min) * s_omega.uniform(batch)
        eps = s_noise.normal((batch, teacher.data_dim))
        z_hi = add_noise(z_data[idx], n + cfg.k, eps, sched)
        n_counts[:] += np.bincount(n, minlength=sched.N + 1)
        omega_seen[0] = min(omega_seen[0], float(omega.min()))
        omega_seen[1] = max(omega_seen[1], float(omega.max()))
        # stop-gradient branch: evaluated off-tape through the EMA adapter
        target = _distill_target(teacher, head, sched, cfg, z_hi, n, cond, omega,
                                 shadow.adapter)
        return z_hi, n, cond, omega, target

    def loss_fn(batch):
        return _distill_loss(teacher, head, sched, cfg, *batch, adapter)

    _train(cfg.steps, params, cfg.optimizer, cfg.eta, cfg.lr_schedule, draw, loss_fn,
           after_step=lambda: ema_update(shadow, params, cfg.mu), metrics=metrics,
           checkpoint_cb=checkpoint_cb, checkpoint_every=checkpoint_every)
    if stats is not None:
        stats["n_counts"] = n_counts
        stats["omega_min_seen"] = omega_seen[0]
        stats["omega_max_seen"] = omega_seen[1]
        stats["ema_shadow"] = shadow
        stats["adapter"] = adapter
    return acceleration_bundle(adapter, cfg)


def finetune_style_lora(teacher: DenoiserNet, adapter: LoraAdapter, dataset: Dataset2D,
                        encoder: Encoder, sched: NoiseSchedule, opts: TrainOpts,
                        metrics: Optional[MetricsLog] = None) -> AdapterBundle:
    """Diffusion-loss fine-tuning with only the adapter factors trainable."""
    opts.validate()
    check_fit(adapter, teacher)
    _check_data(dataset, teacher)
    for entry in adapter.entries.values():
        if np.any(entry.b.data != 0.0):
            raise AdapterError("style fine-tuning expects a fresh adapter (B = 0)")
    teacher.set_trainable(False)
    _diffusion_train("style", teacher, adapter.trainable_params(), dataset, encoder,
                     sched, opts, adapter, metrics=metrics)
    return AdapterBundle(adapter=adapter, role="style", provenance={})


def distill_grad_check(seed: int, hidden: tuple, rank: int, batch: int, h: float) -> float:
    """Finite-difference check of the distillation loss over adapter factors.

    On a 50-step schedule, the zero-init weights and every B factor get
    random values, so no gradient is trivially zero; then cond, n, z and
    the noise are drawn in that order from the "gradcheck" stream. The
    objective is lcd_distill's at DistillConfig's defaults, with the live
    adapter on both branches. Returns grad_check's worst relative error.
    """
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=hidden, num_conditions=8,
                      stream=substream(seed, "init/net"))
    stream = substream(seed, "gradcheck")
    for name, p in net.params.items():
        if name.endswith(".weight") and np.all(p.data == 0.0):
            p.data[:] = 0.1 * stream.normal(p.shape)
    adapter = attach(net, rank=rank, stream=substream(seed, "init/lora"), cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = 0.05 * stream.normal(e.b.shape)
    head = ConsistencyHead.for_schedule(sched)
    cfg = DistillConfig()
    cond = stream.integers(batch, 0, 7)
    n = stream.integers(batch, 1, sched.N - cfg.k)
    omega = np.full(batch, cfg.omega_fixed)
    z_hi = add_noise(stream.normal((batch, 2)), n + cfg.k, stream.normal((batch, 2)), sched)
    target = _distill_target(net, head, sched, cfg, z_hi, n, cond, omega, adapter)

    def loss_fn():
        return _distill_loss(net, head, sched, cfg, z_hi, n, cond, omega, target, adapter)

    return grad_check(loss_fn, adapter.trainable_params(), h=h)
