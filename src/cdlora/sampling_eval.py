"""Few-step sampling, the many-step baseline sampler, and distribution
distances used to score generated samples against data."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cdlora.denoiser import ConsistencyHead, DenoiserNet, consistency_forward
from cdlora.rng import substream
from cdlora.schedule import NoiseSchedule
from cdlora.solvers import cfg_target


class SamplingError(ValueError):
    """Invalid step schedule or metric input."""


@dataclass(frozen=True)
class StepSchedule:
    """Descending inference timestep indices; sampling starts at tau_S = N."""

    indices: tuple

    def __post_init__(self):
        idx = self.indices
        if len(idx) < 1:
            raise SamplingError("step schedule needs at least one timestep")
        if any(idx[i] <= idx[i + 1] for i in range(len(idx) - 1)):
            raise SamplingError(f"step schedule must be strictly descending, got {idx}")
        if idx[-1] < 1:
            raise SamplingError("step schedule indices must stay >= 1")

    @property
    def S(self) -> int:
        return len(self.indices)

    @classmethod
    def evenly_spaced(cls, S: int, N: int) -> "StepSchedule":
        """tau_i = round(i * N / S): spacing N/S anchored at tau_S = N.

        The bottom index stays above the boundary timestep so every
        evaluation of the consistency function does real work.
        """
        if S < 1:
            raise SamplingError(f"need S >= 1, got {S}")
        taus = [int(round(i * N / S)) for i in range(S, 0, -1)]
        taus = [max(1, t) for t in taus]
        if len(set(taus)) != len(taus):
            raise SamplingError(f"S={S} steps collide on an N={N} grid")
        return cls(tuple(taus))


def lcm_multistep_sample(
    net: DenoiserNet,
    head: ConsistencyHead,
    sched: NoiseSchedule,
    steps: StepSchedule,
    omega,
    cond,
    count: int,
    seed: int,
    adapter=None,
    f_fn=None,
) -> np.ndarray:
    """Few-step consistency sampling with fresh-noise re-injection.

    Start from z ~ N(0, I) at tau_S; at each stage map to x0 with the
    consistency function, then re-noise to the next (lower) timestep. The
    final x0 batch is the sample set. f_fn(z, tau) -> x0 substitutes for the
    network-backed consistency function (validation against exact transports).
    """
    if steps.indices[0] != sched.N:
        raise SamplingError(
            f"step schedule must start at N={sched.N}, got {steps.indices[0]}"
        )
    data_dim = net.data_dim if net is not None else np.asarray(f_fn(np.zeros((1, 2)), sched.N)).shape[1]
    stream = substream(seed, "sample/lcm")
    z = stream.normal((count, data_dim))
    cond_arr = np.broadcast_to(np.asarray(cond, dtype=np.int64), (count,))
    x0 = None
    for i, tau in enumerate(steps.indices):
        if f_fn is not None:
            x0 = np.asarray(f_fn(z, tau), dtype=np.float64)
        else:
            x0 = consistency_forward(net, head, sched, z, omega, cond_arr, tau, adapter=adapter).data
        if i + 1 < steps.S:
            tau_next = steps.indices[i + 1]
            fresh = stream.normal((count, data_dim))
            z = sched.alpha(tau_next) * x0 + sched.sigma(tau_next) * fresh
    return x0


def ddim_sample(
    net: DenoiserNet,
    sched: NoiseSchedule,
    S: int,
    omega,
    cond,
    count: int,
    seed: int,
    adapter=None,
    kind: str = "ddim",
) -> np.ndarray:
    """Many-step guided baseline: compose solver targets from noise down to t_1.

    The grid spans [1, N] inclusive, so S may not exceed N; the returned batch
    is the guided x0 extraction at the final timestep.
    """
    if not 1 <= S <= sched.N:
        raise SamplingError(f"DDIM steps {S} outside [1, N={sched.N}], the schedule's grid")
    grid = np.unique(np.linspace(1, sched.N, S + 1).round().astype(int))[::-1]
    stream = substream(seed, "sample/ddim")
    z = stream.normal((count, net.data_dim))
    cond_arr = np.broadcast_to(np.asarray(cond, dtype=np.int64), (count,))

    def eps_fn(x, t, cond_ids):
        return net.forward(x, 0.0, cond_ids, t, adapter=adapter).data

    for hi, lo in zip(grid[:-1], grid[1:]):
        z = cfg_target(z, int(hi), int(lo), cond_arr, net.null_id, omega, eps_fn, sched, kind=kind)
    n_last = int(grid[-1])
    omega_arr = np.broadcast_to(np.asarray(omega, dtype=np.float64), (count,))
    t_last = sched.t_of(n_last)
    if np.any(omega_arr > 0.0):
        # both branches in one pass of 2 * count rows, as in cfg_target
        ids = np.concatenate([cond_arr, np.full(count, net.null_id, dtype=np.int64)])
        eps = eps_fn(np.concatenate([z, z]), np.full(2 * count, t_last), ids)
        eps_c, eps_u = eps[:count], eps[count:]
        eps_c = eps_c + omega_arr[:, None] * (eps_c - eps_u)
    else:
        eps_c = eps_fn(z, np.full(count, t_last), cond_arr)
    return (z - sched.sigma(n_last) * eps_c) / sched.alpha(n_last)


# ---------------------------------------------------------------------------
# metrics


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d = np.add.outer(aa, bb)
    ab = a @ b.T
    ab *= 2.0
    d -= ab
    np.maximum(d, 0.0, out=d)
    return d


def _finite_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SamplingError("samples must be finite, got NaN or Inf")
    return x, y


def _median_sq(d_xx: np.ndarray, d_yy: np.ndarray, d_xy: np.ndarray) -> float:
    """Median squared distance over the distinct pairs of the pooled sample.

    The pairs are the upper triangles of the within-set blocks plus the whole
    cross block, the same multiset as the pooled matrix's upper triangle.
    """
    pairs = np.concatenate([d_xy.ravel()] + [d[i, i + 1:] for d in (d_xx, d_yy)
                                             for i in range(len(d) - 1)])
    k = len(pairs) // 2
    pairs.partition(k)
    if len(pairs) % 2:
        return float(pairs[k])
    # the k smallest sit below index k, so their max is the lower middle value
    return float((pairs[:k].max() + pairs[k]) / 2.0)


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample."""
    x, y = _finite_samples(x, y)
    return float(np.sqrt(_median_sq(_sq_dists(x, x), _sq_dists(y, y), _sq_dists(x, y))))


def mmd2(x: np.ndarray, y: np.ndarray, bandwidth="median") -> float:
    """Unbiased squared maximum mean discrepancy with an RBF kernel.

    For equal sample counts the paired U-statistic is used (the cross term
    drops matched pairs too), so identical sample sets score exactly zero;
    for unequal counts the standard unbiased estimator applies. Bandwidth is
    the median heuristic unless a fixed value is given: the median distance
    over the distinct pairs of the pooled sample, taken from the same three
    distance blocks the kernels are built from. NaN or Inf samples raise
    SamplingError.
    """
    x, y = _finite_samples(x, y)
    m, n = len(x), len(y)
    if m < 2 or n < 2:
        raise SamplingError("mmd2 needs at least 2 samples per side")
    d_xx, d_yy, d_xy = _sq_dists(x, x), _sq_dists(y, y), _sq_dists(x, y)
    if bandwidth == "median":
        bw = float(np.sqrt(_median_sq(d_xx, d_yy, d_xy)))
    else:
        bw = float(bandwidth)
    if bw <= 0.0:
        raise SamplingError(f"bandwidth must be positive, got {bw}")
    inv = -0.5 / (bw * bw)
    for d in (d_xx, d_yy, d_xy):  # squared distances become kernels in place
        d *= inv
        np.exp(d, out=d)
    k_xx, k_yy, k_xy = d_xx, d_yy, d_xy
    term_x = (k_xx.sum() - np.trace(k_xx)) / (m * (m - 1))
    term_y = (k_yy.sum() - np.trace(k_yy)) / (n * (n - 1))
    if m == n:
        cross = (k_xy.sum() - np.trace(k_xy)) / (m * (m - 1))
    else:
        cross = k_xy.sum() / (m * n)
    return float(term_x + term_y - 2.0 * cross)


def moments_error(samples: np.ndarray, mean, cov) -> tuple[float, float]:
    """(L2 mean error, Frobenius covariance error) with unbiased covariance."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or len(samples) < 2:
        raise SamplingError("moments_error needs at least 2 samples")
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    mu_hat = samples.mean(axis=0)
    centered = samples - mu_hat
    cov_hat = centered.T @ centered / (len(samples) - 1)
    return float(np.linalg.norm(mu_hat - mean)), float(np.linalg.norm(cov_hat - cov, "fro"))


# ---------------------------------------------------------------------------
# sample dumps


def write_samples(path, samples: np.ndarray, cond: np.ndarray, sidecar: dict) -> None:
    """CSV with one row per sample plus a JSON sidecar of run settings."""
    path = Path(path)
    dim = samples.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["condition"])
        for row, c in zip(samples, cond):
            writer.writerow([repr(float(v)) for v in row] + [int(c)])
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 1
        xs, cs = [], []
        for row in reader:
            xs.append([float(v) for v in row[:dim]])
            cs.append(int(row[dim]))
    return np.asarray(xs, dtype=np.float64), np.asarray(cs, dtype=np.int64)
