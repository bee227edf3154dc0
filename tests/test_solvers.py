import numpy as np
import pytest

from cdlora.rng import substream
from cdlora.schedule import ScheduleError, make_schedule
from cdlora.solvers import (
    GaussianOracle,
    cfg_target,
    ddim_increment,
    dpm2_increment,
    oracle_flow,
    solver_increment,
)


def compose(kind, z, grid, eps_fn, sched):
    """Run the solver across consecutive grid indices (descending)."""
    for hi, lo in zip(grid[:-1], grid[1:]):
        z = z + solver_increment(kind, z, hi, lo, eps_fn, sched)
    return z


def macro_grid(N, steps):
    return np.linspace(N, 1, steps + 1).round().astype(int)


def endpoint_error(kind, oracle, sched, steps, seed):
    z = substream(seed, "test/solver").normal((16, 2)) * 1.5
    grid = macro_grid(sched.N, steps)
    approx = compose(kind, z, grid, oracle.eps_fn(sched), sched)
    exact = oracle_flow(z, sched.N, 1, oracle, sched)
    return float(np.max(np.abs(approx - exact)))


def test_increment_zero_at_equal_indices():
    sched = make_schedule(50)
    oracle = GaussianOracle(np.array([1.0, -2.0]), 0.7)
    z = substream(1, "z").normal((4, 2))
    for kind in ("ddim", "dpm2"):
        out = solver_increment(kind, z, 30, 30, oracle.eps_fn(sched), sched)
        np.testing.assert_array_equal(out, np.zeros_like(z))
    eps = substream(2, "e").normal((4, 2))
    np.testing.assert_array_equal(ddim_increment(z, 12, 12, eps, sched), np.zeros_like(z))


def test_increment_rejects_ascending():
    sched = make_schedule(50)
    with pytest.raises(ScheduleError):
        ddim_increment(np.zeros((1, 2)), 10, 20, np.zeros((1, 2)), sched)


def test_ddim_substitution_identity():
    # eps chosen so x0_hat equals a fixed x: z + psi = alpha_lo x + sigma_lo eps
    sched = make_schedule(50)
    stream = substream(3, "sub")
    z = stream.normal((5, 2))
    x = stream.normal((5, 2))
    n_hi, n_lo = 40, 17
    eps = (z - sched.alpha(n_hi) * x) / sched.sigma(n_hi)
    out = z + ddim_increment(z, n_hi, n_lo, eps, sched)
    np.testing.assert_allclose(out, sched.alpha(n_lo) * x + sched.sigma(n_lo) * eps, rtol=1e-12)


def test_unit_gaussian_stationary_flow():
    # m=0, s_d=1 makes gamma constant 1 by the VP identity: the flow is the
    # identity map (up to float rounding of sqrt round trips)
    sched = make_schedule(50)
    oracle = GaussianOracle(np.zeros(2), 1.0)
    z = substream(4, "z").normal((8, 2))
    out = oracle_flow(z, 50, 1, oracle, sched)
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_ddim_identity_case_error_shrinks():
    sched = make_schedule(49)
    oracle = GaussianOracle(np.zeros(2), 1.0)
    z = substream(5, "z").normal((8, 2))
    errs = []
    for steps in (6, 12, 24, 48):
        approx = compose("ddim", z, macro_grid(49, steps), oracle.eps_fn(sched), sched)
        errs.append(np.max(np.abs(approx - z)))
    assert errs[-1] < 0.02 * np.max(np.abs(z))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_oracle_flow_against_fine_integration():
    # independent oracle: RK2 over the PF-ODE velocity mu' + (gamma'/gamma)(z - mu),
    # integrated segment by segment so the piecewise-linear log-SNR never kinks
    # mid-step; derivatives follow analytically from the segment slope via
    # d(alpha^2)/dlambda = 2 alpha^2 sigma^2.
    sched = make_schedule(49)
    oracle = GaussianOracle(np.array([2.0, 0.0]), 0.5)
    z0 = substream(6, "z").normal((6, 2)) * 1.3 + np.array([1.0, -0.5])
    n_hi, n_lo = 49, 1
    t_nodes = sched.t_of(np.arange(n_lo, n_hi + 1))
    lam_nodes = sched.log_snr(np.arange(n_lo, n_hi + 1))
    m = oracle.mean
    sd2 = oracle.s_d ** 2

    def velocity(z, t, lam_slope):
        a, s = sched.alpha_sigma_of_t(t)
        a_dot = a * s * s * lam_slope
        s_dot = -s * a * a * lam_slope
        gamma = np.sqrt(a * a * sd2 + s * s)
        gamma_dot = (a * a_dot * sd2 + s * s_dot) / gamma
        return a_dot * m + (gamma_dot / gamma) * (z - a * m)

    z = z0.copy()
    substeps = 10_000 // (len(t_nodes) - 1)
    for seg in range(len(t_nodes) - 1, 0, -1):
        t_a, t_b = t_nodes[seg], t_nodes[seg - 1]  # integrate downward in t
        slope = (lam_nodes[seg] - lam_nodes[seg - 1]) / (t_nodes[seg] - t_nodes[seg - 1])
        dt = (t_b - t_a) / substeps
        t = t_a
        for _ in range(substeps):
            k1 = velocity(z, t, slope)
            k2 = velocity(z + dt * k1, min(t + dt, t_nodes[seg]), slope)
            z = z + 0.5 * dt * (k1 + k2)
            t_next = t + dt
            t = t_next
    closed = oracle_flow(z0, n_hi, n_lo, oracle, sched)
    assert np.max(np.abs(z - closed)) < 1e-6


def test_convergence_orders():
    # first order should halve the endpoint error per doubling, second order
    # should quarter it; m=[2,0], s_d=0.5, five seeds
    sched = make_schedule(49)
    oracle = GaussianOracle(np.array([2.0, 0.0]), 0.5)
    for kind, lo, hi in (("ddim", 1.7, 2.3), ("dpm2", 3.4, 4.6)):
        ratios = []
        for seed in range(5):
            e_coarse = endpoint_error(kind, oracle, sched, 8, seed)
            e_fine = endpoint_error(kind, oracle, sched, 16, seed)
            ratios.append(e_coarse / e_fine)
        med = float(np.median(ratios))
        assert lo <= med <= hi, f"{kind} ratio {med} outside [{lo}, {hi}] ({ratios})"


def test_dpm2_matches_ddim_to_first_order():
    # |dpm2 - ddim| scales with the squared log-SNR span (Richardson check)
    sched = make_schedule(49)
    oracle = GaussianOracle(np.array([2.0, 0.0]), 0.5)
    z = substream(8, "z").normal((10, 2))
    eps_fn = oracle.eps_fn(sched)

    def gap(n_hi, n_lo):
        d1 = ddim_increment(z, n_hi, n_lo, eps_fn(z, sched.t_of(np.full(10, n_hi))), sched)
        d2 = dpm2_increment(z, n_hi, n_lo, eps_fn, sched)
        return np.max(np.abs(d2 - d1))

    h_big = sched.log_snr(25) - sched.log_snr(49)
    h_small = sched.log_snr(37) - sched.log_snr(49)
    measured = gap(49, 25) / gap(49, 37)
    expected = (h_big / h_small) ** 2
    assert 0.6 * expected <= measured <= 1.6 * expected


def test_cfg_omega_zero_is_conditional_branch():
    sched = make_schedule(50)
    stream = substream(9, "cfg")
    z = stream.normal((6, 2))
    shift = stream.normal(2)

    def eps_fn(x, t, cond_ids):
        # conditional branch shifts the prediction; null id is 3
        base = 0.1 * x
        return base + np.where(cond_ids[:, None] == 3, 0.0, shift)

    target = cfg_target(z, 40, 20, 1, 3, 0.0, eps_fn, sched)
    psi = solver_increment("ddim", z, 40, 20, lambda x, t: eps_fn(x, t, np.full(6, 1)), sched)
    np.testing.assert_array_equal(target, z + psi)


def test_cfg_condition_blind_teacher_is_omega_independent():
    sched = make_schedule(50)
    z = substream(10, "cfg").normal((6, 2))

    def eps_fn(x, t, cond_ids):
        return 0.3 * x  # ignores the condition entirely

    base = cfg_target(z, 45, 10, 2, 5, 0.0, eps_fn, sched)
    for omega in (0.5, 2.0, 7.5, 14.0):
        out = cfg_target(z, 45, 10, 2, 5, omega, eps_fn, sched)
        np.testing.assert_array_equal(out, base)


def test_cfg_guidance_pushes_along_branch_gap():
    sched = make_schedule(50)
    z = substream(11, "cfg").normal((4, 2))

    def eps_fn(x, t, cond_ids):
        return 0.1 * x + np.where(cond_ids[:, None] == 7, 0.0, 0.5)

    t0 = cfg_target(z, 40, 20, 0, 7, 0.0, eps_fn, sched)
    t1 = cfg_target(z, 40, 20, 0, 7, 1.0, eps_fn, sched)
    t2 = cfg_target(z, 40, 20, 0, 7, 2.0, eps_fn, sched)
    np.testing.assert_allclose(t2 - t1, t1 - t0, rtol=1e-9)


@pytest.mark.parametrize("kind", ["ddim", "dpm2", "ddim-multi"])
def test_cfg_one_pass_equals_two_pass_reference(kind):
    sched = make_schedule(50)
    stream = substream(13, "cfg")
    m = 7
    z = stream.normal((m, 2))
    cond = np.arange(m) % 3
    n_lo = np.array([1, 5, 10, 20, 20, 33, 40])
    n_hi = n_lo + np.array([5, 3, 7, 1, 0, 9, 4])
    omega = np.array([0.0, 0.5, 2.0, 7.5, 1.0, 14.0, 3.0])
    shift = stream.normal((4, 2))  # one row per condition id 0..2 and the null id 3
    rows_seen = []

    def eps_fn(x, t, cond_ids):
        rows_seen.append(len(x))
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(x),))
        return 0.2 * x + shift[cond_ids] * (1.0 + t_arr)[:, None]

    out = cfg_target(z, n_hi, n_lo, cond, 3, omega, eps_fn, sched, kind=kind)
    assert rows_seen and set(rows_seen) == {2 * m}
    psi_c = solver_increment(kind, z, n_hi, n_lo, lambda x, t: eps_fn(x, t, cond), sched)
    psi_u = solver_increment(kind, z, n_hi, n_lo, lambda x, t: eps_fn(x, t, np.full(m, 3)), sched)
    assert np.array_equal(out, z + psi_c + omega[:, None] * (psi_c - psi_u))


def test_cfg_rejects_negative_omega():
    sched = make_schedule(50)
    with pytest.raises(ScheduleError):
        cfg_target(np.zeros((1, 2)), 40, 20, 0, 7, -0.5, lambda x, t, c: x, sched)


@pytest.mark.parametrize("omega", [np.nan, np.inf, [7.5, np.nan]], ids=["nan", "inf", "per-row-nan"])
def test_cfg_rejects_non_finite_omega(omega):
    # a NaN scale is not > 0, so without the check it would run the w = 0 branch
    sched = make_schedule(50)
    with pytest.raises(ScheduleError, match="finite"):
        cfg_target(np.zeros((2, 2)), 40, 20, 0, 7, omega, lambda x, t, c: x, sched)


def test_per_row_indices():
    sched = make_schedule(50)
    oracle = GaussianOracle(np.array([1.0, 1.0]), 0.5)
    z = substream(12, "rows").normal((3, 2))
    n_hi = np.array([50, 40, 30])
    n_lo = np.array([25, 40, 1])
    out = oracle_flow(z, n_hi, n_lo, oracle, sched)
    for i in range(3):
        row = oracle_flow(z[i:i + 1], int(n_hi[i]), int(n_lo[i]), oracle, sched)
        np.testing.assert_allclose(out[i:i + 1], row, rtol=1e-12)
    np.testing.assert_array_equal(out[1], z[1])
    inc = solver_increment("ddim", z, n_hi, n_lo, oracle.eps_fn(sched), sched)
    np.testing.assert_array_equal(inc[1], np.zeros(2))


@pytest.mark.parametrize("kind", ["ddim", "dpm2", "ddim-multi"])
def test_scalar_and_per_row_indices_give_equal_targets(kind):
    # a scalar index stays 0-d down to eps_fn's t, so a shared jump looks up
    # its coefficients once; the result equals the per-row form's bit for bit
    sched = make_schedule(50)
    stream = substream(14, "scalar-index")
    m = 6
    z = stream.normal((m, 2))
    cond = np.arange(m) % 3
    shift = stream.normal((4, 2))
    t_dims = []

    def eps_fn(x, t, cond_ids):
        t_dims.append(np.ndim(t))
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(x),))
        return 0.2 * x + shift[cond_ids] * (1.0 + t_arr)[:, None]

    for omega in (0.0, 7.5, np.linspace(0.0, 14.0, m)):
        t_dims.clear()
        scalar = cfg_target(z, 40, 33, cond, 3, omega, eps_fn, sched, kind=kind)
        assert set(t_dims) == {0}
        per_row = cfg_target(z, np.full(m, 40), np.full(m, 33), cond, 3, omega, eps_fn, sched,
                             kind=kind)
        assert set(t_dims) == {0, 1}
        assert np.array_equal(scalar, per_row)


def test_scalar_and_per_row_indices_give_equal_increments():
    sched = make_schedule(50)
    oracle = GaussianOracle(np.array([1.0, -2.0]), 0.7)
    stream = substream(15, "scalar-index")
    m = 5
    z = stream.normal((m, 2))
    eps = stream.normal((m, 2))
    eps_fn = oracle.eps_fn(sched)
    for n_hi, n_lo in ((40, 33), (40, np.full(m, 33)), (np.full(m, 40), 33), (21, 21)):
        rows = np.full(m, n_hi), np.full(m, n_lo)
        assert np.array_equal(ddim_increment(z, n_hi, n_lo, eps, sched),
                              ddim_increment(z, *rows, eps, sched))
        assert np.array_equal(dpm2_increment(z, n_hi, n_lo, eps_fn, sched),
                              dpm2_increment(z, *rows, eps_fn, sched))
        assert np.array_equal(oracle_flow(z, n_hi, n_lo, oracle, sched),
                              oracle_flow(z, *rows, oracle, sched))


def test_unknown_solver_kind():
    sched = make_schedule(50)
    with pytest.raises(ValueError):
        solver_increment("heun", np.zeros((1, 2)), 10, 5, lambda x, t: x, sched)


def test_ddim_multi_composes_single_steps():
    sched = make_schedule(50)
    oracle = GaussianOracle(np.array([1.5, -0.5]), 0.6)
    z = substream(14, "multi").normal((6, 2))
    eps_fn = oracle.eps_fn(sched)
    inc = solver_increment("ddim-multi", z, 40, 35, eps_fn, sched)
    cur = z
    for hi in range(40, 35, -1):
        cur = cur + ddim_increment(cur, hi, hi - 1, eps_fn(cur, sched.t_of(np.full(6, hi))), sched)
    np.testing.assert_allclose(z + inc, cur, rtol=1e-12)
    # degenerate span and mixed per-row spans
    np.testing.assert_array_equal(
        solver_increment("ddim-multi", z, 20, 20, eps_fn, sched), np.zeros_like(z))
    n_hi = np.array([30, 25, 25, 30, 28, 25])
    n_lo = np.array([25, 25, 20, 28, 25, 24])
    mixed = solver_increment("ddim-multi", z, n_hi, n_lo, eps_fn, sched)
    for i in range(6):
        row = solver_increment("ddim-multi", z[i:i + 1], int(n_hi[i]), int(n_lo[i]), eps_fn, sched)
        np.testing.assert_allclose(mixed[i:i + 1], row, rtol=1e-10)
    np.testing.assert_array_equal(mixed[1], np.zeros(2))


def test_ddim_multi_more_accurate_than_single_jump():
    sched = make_schedule(50)
    oracle = GaussianOracle(np.array([2.0, 0.0]), 0.5)
    z = substream(15, "acc").normal((12, 2))
    eps_fn = oracle.eps_fn(sched)
    exact = oracle_flow(z, 45, 30, oracle, sched)
    single = z + solver_increment("ddim", z, 45, 30, eps_fn, sched)
    multi = z + solver_increment("ddim-multi", z, 45, 30, eps_fn, sched)
    assert np.max(np.abs(multi - exact)) < np.max(np.abs(single - exact))
