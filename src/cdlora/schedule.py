"""Discrete variance-preserving noise schedule.

Timestep indices are 1-based (n = 1..N) with normalized times t_n = n/N, so
the boundary condition of the consistency head sits at t_1 regardless of N.
alpha(t_n) = sqrt(alpha_bar[n]) and sigma(t_n) = sqrt(1 - alpha_bar[n]) keep
alpha^2 + sigma^2 = 1 by construction. For queries between grid nodes (the
second-order solver's midpoint) the schedule is extended continuously by
piecewise-linear interpolation of the log-SNR lambda = log(alpha/sigma),
inverting alpha^2 = 1 / (1 + exp(-2 lambda)).
"""

from __future__ import annotations

import numpy as np


class ScheduleError(ValueError):
    """Invalid schedule parameters or out-of-range timestep queries."""


# smallest alpha(t_N) a schedule may have: recover_x0 divides by alpha(t_n)
ALPHA_GUARD = 1e-6


class NoiseSchedule:
    """Schedule of a 1-D array of at least 2 betas in (0, 1), as make_schedule builds."""

    def __init__(self, beta: np.ndarray):
        beta = np.asarray(beta, dtype=np.float64)
        self.beta = beta
        self.alpha_bar = np.cumprod(1.0 - beta)
        if self.alpha_bar[0] >= 1.0:
            raise ScheduleError(f"'beta_min' {beta[0]} is too small: 1 - beta_min rounds to 1, "
                                "so sigma(t_1) is 0")
        self._alpha = np.sqrt(self.alpha_bar)
        # alpha falls with n, and the solvers' off-grid alphas lie between grid values
        if self._alpha[-1] < ALPHA_GUARD:
            raise ScheduleError(f"'N' {beta.size} with 'beta_min' {beta[0]} and 'beta_max' "
                                f"{beta[-1]} takes alpha(t_N) below {ALPHA_GUARD}")
        self._sigma = np.sqrt(1.0 - self.alpha_bar)
        self._t = np.arange(1, beta.size + 1, dtype=np.float64) / beta.size
        self._lam = np.log(self._alpha / self._sigma)

    @property
    def N(self) -> int:
        return self.beta.size

    def _index(self, n) -> np.ndarray:
        idx = np.asarray(n, dtype=np.int64)
        if np.any(idx < 1) or np.any(idx > self.N):
            raise ScheduleError(f"timestep index {n} outside [1, {self.N}]")
        return idx - 1

    def alpha(self, n):
        return self._alpha[self._index(n)]

    def sigma(self, n):
        return self._sigma[self._index(n)]

    def t_of(self, n):
        return self._t[self._index(n)]

    def log_snr(self, n):
        return self._lam[self._index(n)]

    @property
    def t_min(self) -> float:
        return float(self._t[0])

    # -- continuous extension ------------------------------------------------

    def log_snr_of_t(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < self._t[0] - 1e-12) or np.any(t > self._t[-1] + 1e-12):
            raise ScheduleError(f"time {t} outside the grid [{self._t[0]}, {self._t[-1]}]")
        return np.interp(t, self._t, self._lam)

    def t_of_log_snr(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        # lambda is strictly decreasing in t; interp wants increasing x
        return np.interp(lam, self._lam[::-1], self._t[::-1])

    @staticmethod
    def alpha_sigma_of_log_snr(lam):
        lam = np.asarray(lam, dtype=np.float64)
        a2 = 1.0 / (1.0 + np.exp(-2.0 * lam))
        return np.sqrt(a2), np.sqrt(1.0 - a2)

    def alpha_sigma_of_t(self, t):
        return self.alpha_sigma_of_log_snr(self.log_snr_of_t(t))


def make_schedule(N: int, beta_min: float = 1e-4, beta_max: float = 0.05) -> NoiseSchedule:
    """Linear-beta discrete VP schedule over N timesteps. Its rules, each ScheduleError
    naming the key: N an int >= 2, betas numbers in (0, 1), beta_min <= beta_max."""
    if not isinstance(N, int) or N < 2:
        raise ScheduleError(f"'N' {N!r} is not an int of at least 2")
    for key, beta in (("beta_min", beta_min), ("beta_max", beta_max)):
        if not isinstance(beta, (int, float)) or not 0.0 < beta < 1.0:
            raise ScheduleError(f"{key!r} {beta!r} is not a number in (0, 1)")
    if beta_max < beta_min:
        raise ScheduleError(f"'beta_max' {beta_max} is below 'beta_min' {beta_min}")
    return NoiseSchedule(np.linspace(beta_min, beta_max, N))


def _coefficients(z, n, eps, sched: NoiseSchedule) -> tuple:
    """z and eps as float64 arrays of one shape, with alpha(t_n) and sigma(t_n) as
    scalars for one index n, or as columns for one index per row of z."""
    z = np.asarray(z, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z.shape != eps.shape:
        raise ScheduleError(f"z shape {z.shape} and eps shape {eps.shape} differ")
    a, s = sched.alpha(n), sched.sigma(n)
    if np.ndim(a) == 1 and z.ndim == 2:
        if a.shape[0] != z.shape[0]:
            raise ScheduleError("per-row timestep count does not match the batch")
        return z, eps, a[:, None], s[:, None]
    return z, eps, a, s


def add_noise(z: np.ndarray, n, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward perturbation alpha(t_n) * z + sigma(t_n) * eps; n is one index or one per row."""
    z, eps, a, s = _coefficients(z, n, eps, sched)
    return a * z + s * eps


def recover_x0(z: np.ndarray, n, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """add_noise inverted for x0: (z - sigma(t_n) * eps) / alpha(t_n), n as in add_noise."""
    z, eps, a, s = _coefficients(z, n, eps, sched)
    return (z - s * eps) / a
