"""Numerical PF-ODE solvers, the guidance-augmented solver target, and the
analytic Gaussian oracle used to validate them.

Solvers return increments, not endpoints: z + psi(z, n_hi, n_lo, c)
approximates the probability-flow solution at t_lo, and psi(z, n, n, c) = 0
exactly. This makes the guidance combination
    z + (1 + w) * psi_cond - w * psi_null
well defined as written. Timestep arguments may be scalars or one index per
batch row.

The second-order step works in log-SNR time lambda = log(alpha/sigma) with
h = lambda_lo - lambda_hi. Writing the exact-integration update for an
eps-predicting model,
    z_lo = (alpha_lo / alpha_hi) z - sigma_lo (e^h - 1) eps,
a single evaluation at t_hi reproduces the first-order step (identical to
the alpha/sigma step below), and evaluating eps at the lambda midpoint
instead gives the second-order midpoint scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cdlora.schedule import NoiseSchedule, ScheduleError, add_noise, recover_x0

SOLVER_KINDS = ("ddim", "dpm2", "ddim-multi")


def _as_rows(z, n_hi, n_lo):
    z = np.asarray(z, dtype=np.float64)
    m = z.shape[0]
    hi = np.broadcast_to(np.asarray(n_hi, dtype=np.int64), (m,))
    lo = np.broadcast_to(np.asarray(n_lo, dtype=np.int64), (m,))
    if np.any(lo > hi):
        raise ScheduleError("solver needs n_lo <= n_hi")
    return z, hi, lo


def ddim_increment(z, n_hi, n_lo, eps_hat, sched: NoiseSchedule) -> np.ndarray:
    """First-order increment: x0_hat = recover_x0(z, n_hi, eps_hat) noised to
    n_lo with the same eps_hat, minus z."""
    z, hi, lo = _as_rows(z, n_hi, n_lo)
    out = add_noise(recover_x0(z, hi, eps_hat, sched), lo, eps_hat, sched) - z
    out[hi == lo] = 0.0
    return out


def dpm2_increment(z, n_hi, n_lo, eps_fn, sched: NoiseSchedule) -> np.ndarray:
    """Second-order midpoint increment in log-SNR time.

    eps_fn(z, t) -> eps queries the model at continuous normalized time; the
    midpoint time is recovered from the schedule's piecewise-linear log-SNR
    extension, endpoints always use exact grid values.
    """
    z, hi, lo = _as_rows(z, n_hi, n_lo)
    a_hi = sched.alpha(hi)
    lam_hi = sched.log_snr(hi)
    lam_lo = sched.log_snr(lo)
    h = lam_lo - lam_hi
    lam_mid = 0.5 * (lam_hi + lam_lo)
    t_mid = sched.t_of_log_snr(lam_mid)
    a_mid, s_mid = sched.alpha_sigma_of_log_snr(lam_mid)
    a_lo, s_lo = sched.alpha(lo), sched.sigma(lo)

    eps_hi = np.asarray(eps_fn(z, sched.t_of(hi)), dtype=np.float64)
    z_mid = (a_mid / a_hi)[:, None] * z - (s_mid * np.expm1(0.5 * h))[:, None] * eps_hi
    eps_mid = np.asarray(eps_fn(z_mid, t_mid), dtype=np.float64)
    z_lo = (a_lo / a_hi)[:, None] * z - (s_lo * np.expm1(h))[:, None] * eps_mid
    out = z_lo - z
    out[hi == lo] = 0.0
    return out


def ddim_multi_increment(z, n_hi, n_lo, eps_fn, sched: NoiseSchedule) -> np.ndarray:
    """First-order increment composed over every intermediate grid index.

    Same contract as the single jump but with one eps query per index, all
    on-grid; rows whose span is exhausted stop moving (clamped indices give
    exact-zero sub-increments).
    """
    z, hi, lo = _as_rows(z, n_hi, n_lo)
    cur = z
    span = int(np.max(hi - lo)) if hi.size else 0
    for r in range(span):
        sub_hi = np.maximum(hi - r, lo)
        sub_lo = np.maximum(hi - r - 1, lo)
        eps_hat = eps_fn(cur, sched.t_of(sub_hi))
        cur = cur + ddim_increment(cur, sub_hi, sub_lo, eps_hat, sched)
    return cur - z


def solver_increment(kind: str, z, n_hi, n_lo, eps_fn, sched: NoiseSchedule) -> np.ndarray:
    """Dispatch by config string; eps_fn(z, t) -> eps for any kind."""
    if kind == "ddim":
        z_arr, hi, _ = _as_rows(z, n_hi, n_lo)
        eps_hat = eps_fn(z_arr, sched.t_of(hi))
        return ddim_increment(z, n_hi, n_lo, eps_hat, sched)
    if kind == "dpm2":
        return dpm2_increment(z, n_hi, n_lo, eps_fn, sched)
    if kind == "ddim-multi":
        return ddim_multi_increment(z, n_hi, n_lo, eps_fn, sched)
    raise ValueError(f"unknown solver kind {kind!r}; expected one of {SOLVER_KINDS}")


def guidance_scales(omega, m: int) -> np.ndarray:
    """omega broadcast to m rows; NaN, Inf or a negative scale is a ScheduleError."""
    omega_arr = np.broadcast_to(np.asarray(omega, dtype=np.float64), (m,))
    if not np.all(np.isfinite(omega_arr)):
        raise ScheduleError("guidance scale must be finite")
    if np.any(omega_arr < 0.0):
        raise ScheduleError("guidance scale must be non-negative")
    return omega_arr


def cfg_target(z, n_hi, n_lo, cond, null_cond, omega, eps_fn, sched: NoiseSchedule,
               kind: str = "ddim") -> np.ndarray:
    """Guidance-augmented solver target z_hat at t_lo.

    Returns z + (1 + w) psi_cond - w psi_null, computed as
    z + psi_cond + w * (psi_cond - psi_null) so that w = 0 short-circuits to
    the conditional branch exactly and identical conditional/unconditional
    predictors give a w-independent result exactly.

    eps_fn(z, t, cond_ids) -> eps; omega is a scalar or one value per row.
    With w > 0 on any row, both branches run as one solve over 2m stacked
    rows (condition ids, then null ids); every solver is row-wise, so each
    half equals its own m-row solve.
    """
    z, hi, lo = _as_rows(z, n_hi, n_lo)
    m = z.shape[0]
    omega_arr = guidance_scales(omega, m)
    cond_arr = np.broadcast_to(np.asarray(cond, dtype=np.int64), (m,))

    if not np.any(omega_arr > 0.0):
        psi_c = solver_increment(kind, z, hi, lo, lambda x, t: eps_fn(x, t, cond_arr), sched)
        return z + psi_c
    ids = np.concatenate([cond_arr, np.full(m, null_cond, dtype=np.int64)])
    psi = solver_increment(kind, np.concatenate([z, z]), np.concatenate([hi, hi]),
                           np.concatenate([lo, lo]), lambda x, t: eps_fn(x, t, ids), sched)
    psi_c, psi_u = psi[:m], psi[m:]
    return z + psi_c + omega_arr[:, None] * (psi_c - psi_u)


@dataclass(frozen=True)
class GaussianOracle:
    """Exact noise predictor for isotropic Gaussian data N(mean, s_d^2 I).

    The forward marginal at time t is N(alpha * mean, gamma^2 I) with
    gamma^2 = alpha^2 s_d^2 + sigma^2, and the optimal eps is
    sigma * (z - alpha * mean) / gamma^2.
    """

    mean: np.ndarray
    s_d: float

    def eps(self, z, alpha, sigma) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))[:, None]
        sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))[:, None]
        gamma2 = alpha * alpha * self.s_d * self.s_d + sigma * sigma
        return sigma * (z - alpha * np.asarray(self.mean)) / gamma2

    def eps_fn(self, sched: NoiseSchedule):
        """(z, t) -> eps callback over the schedule's continuous extension."""

        def fn(z, t):
            m = np.asarray(z).shape[0]
            t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (m,))
            alpha, sigma = sched.alpha_sigma_of_t(t_arr)
            return self.eps(z, alpha, sigma)

        return fn

    def gamma(self, alpha, sigma) -> np.ndarray:
        return np.sqrt(alpha * alpha * self.s_d * self.s_d + sigma * sigma)


def oracle_flow(z, n_hi, n_lo, oracle: GaussianOracle, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form PF-ODE transport for Gaussian data.

    z_lo = alpha_lo * mean + (gamma_lo / gamma_hi) * (z_hi - alpha_hi * mean).
    """
    z, hi, lo = _as_rows(z, n_hi, n_lo)
    mean = np.asarray(oracle.mean, dtype=np.float64)
    g_hi = oracle.gamma(sched.alpha(hi), sched.sigma(hi))
    g_lo = oracle.gamma(sched.alpha(lo), sched.sigma(lo))
    a_hi = sched.alpha(hi)[:, None]
    a_lo = sched.alpha(lo)[:, None]
    return a_lo * mean + (g_lo / g_hi)[:, None] * (z - a_hi * mean)
