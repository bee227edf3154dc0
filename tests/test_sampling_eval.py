import gc
import re
import tracemalloc

import numpy as np
import pytest

from cdlora.datasets import make_dataset
from cdlora.denoiser import ConsistencyHead, DenoiserNet
from cdlora.rng import substream
from cdlora.schedule import ScheduleError, make_schedule
from cdlora.solvers import GaussianOracle, cfg_target, oracle_flow, solver_increment
from cdlora import sampling_eval
from cdlora.sampling_eval import (
    SamplingError,
    StepSchedule,
    ddim_sample,
    lcm_multistep_sample,
    median_bandwidth,
    mmd2,
    moments_error,
    read_samples,
    write_samples,
)


class OracleNet:
    """Duck-typed stand-in whose eps prediction is the exact Gaussian one."""

    def __init__(self, oracle, sched, num_conditions=1):
        self.oracle = oracle
        self.sched = sched
        self.data_dim = len(oracle.mean)
        self.null_id = num_conditions

    def forward(self, z, omega, cond, t, adapter=None):
        m = np.asarray(z).shape[0]
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (m,))
        alpha, sigma = self.sched.alpha_sigma_of_t(t_arr)

        class _Out:
            pass

        out = _Out()
        out.data = self.oracle.eps(z, alpha, sigma)
        return out


def test_step_schedule_shapes():
    s = StepSchedule.evenly_spaced(4, 50)
    assert s.S == 4 and s.indices[0] == 50
    assert all(a > b for a, b in zip(s.indices, s.indices[1:]))
    assert StepSchedule.evenly_spaced(1, 50).indices == (50,)
    full = StepSchedule.evenly_spaced(50, 50)
    assert full.indices == tuple(range(50, 0, -1))


def test_step_schedule_validation():
    with pytest.raises(SamplingError):
        StepSchedule.evenly_spaced(0, 50)
    with pytest.raises(SamplingError):
        StepSchedule.evenly_spaced(100, 50)  # index collisions
    with pytest.raises(SamplingError):
        StepSchedule((10, 10, 5))
    with pytest.raises(SamplingError):
        StepSchedule((10, 0))


def test_single_step_is_one_consistency_eval():
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2,
                      stream=substream(1, "init"))
    head = ConsistencyHead.for_schedule(sched)
    out = lcm_multistep_sample(net, head, sched, StepSchedule.evenly_spaced(1, 50),
                               0.0, 0, 64, seed=9)
    # one eval on pure noise: reproduce it by hand from the same stream
    z = substream(9, "sample/lcm").normal((64, 2))
    from cdlora.denoiser import consistency_forward
    manual = consistency_forward(net, head, sched, z, 0.0, np.zeros(64, dtype=np.int64), 50).data
    np.testing.assert_array_equal(out, manual)


def test_sampler_determinism():
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2,
                      stream=substream(2, "init"))
    head = ConsistencyHead.for_schedule(sched)
    steps = StepSchedule.evenly_spaced(4, 50)
    a = lcm_multistep_sample(net, head, sched, steps, 1.0, 1, 32, seed=5)
    b = lcm_multistep_sample(net, head, sched, steps, 1.0, 1, 32, seed=5)
    c = lcm_multistep_sample(net, head, sched, steps, 1.0, 1, 32, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_requires_start_at_N():
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2,
                      stream=substream(3, "init"))
    head = ConsistencyHead.for_schedule(sched)
    with pytest.raises(SamplingError):
        lcm_multistep_sample(net, head, sched, StepSchedule((40, 20)), 0.0, 0, 8, seed=1)


def test_oracle_perfect_f_recovers_moments():
    # with the exact Gaussian transport as the consistency function, 4-step
    # samples match the data moments (hot schedule so t_N is noise-dominated)
    sched = make_schedule(50, 1e-4, 0.35)
    mean = np.array([1.0, -0.5])
    s_d = 0.5
    oracle = GaussianOracle(mean, s_d)

    def perfect_f(z, tau):
        return oracle_flow(z, tau, 1, oracle, sched)

    count = 10_000
    samples = lcm_multistep_sample(None, None, sched, StepSchedule.evenly_spaced(4, 50),
                                   0.0, 0, count, seed=31, f_fn=perfect_f)
    se = s_d / np.sqrt(count)
    mean_err, cov_err = moments_error(samples, mean, s_d ** 2 * np.eye(2))
    assert mean_err < 3 * se * np.sqrt(2) + 0.01
    assert cov_err < 0.1 * s_d ** 2 * np.sqrt(2)


def test_ddim_sample_full_grid_matches_oracle_flow():
    # composed error is O(1/steps); N=100 keeps S=N within the 1e-2 bound
    N = 100
    sched = make_schedule(N)
    oracle = GaussianOracle(np.array([2.0, 0.0]), 0.5)
    net = OracleNet(oracle, sched)
    count = 256
    samples = ddim_sample(net, sched, N, 0.0, 0, count, seed=17)
    z0 = substream(17, "sample/ddim").normal((count, 2))
    endpoint = oracle_flow(z0, N, 1, oracle, sched)
    # identical x0 extraction on the oracle endpoint keeps the comparison fair
    eps = oracle.eps(endpoint, np.full(count, sched.alpha(1)), np.full(count, sched.sigma(1)))
    x0 = (endpoint - sched.sigma(1) * eps) / sched.alpha(1)
    rel = np.linalg.norm(samples - x0) / np.linalg.norm(x0)
    assert rel < 1e-2


def test_ddim_sample_rejects_steps_above_N():
    sched = make_schedule(50)
    net = OracleNet(GaussianOracle(np.array([0.0, 0.0]), 1.0), sched)
    for S in (0, 51, 500):
        with pytest.raises(SamplingError, match="DDIM steps"):
            ddim_sample(net, sched, S, 0.0, 0, 4, seed=1)


@pytest.mark.parametrize("omega", [np.nan, -np.inf])
def test_ddim_sample_rejects_non_finite_omega(omega):
    sched = make_schedule(50)
    net = OracleNet(GaussianOracle(np.array([0.0, 0.0]), 1.0), sched)
    with pytest.raises(ScheduleError, match="finite"):
        ddim_sample(net, sched, 10, omega, 0, 4, seed=1)


def test_ddim_sample_unguided_equals_omega_zero():
    sched = make_schedule(50, 1e-4, 0.35)
    oracle = GaussianOracle(np.array([1.0, 1.0]), 0.7)
    net = OracleNet(oracle, sched)
    guided = ddim_sample(net, sched, 20, 0.0, 0, 64, seed=21)
    # manual unguided composition over the same grid and stream
    grid = np.unique(np.linspace(1, 50, 21).round().astype(int))[::-1]
    z = substream(21, "sample/ddim").normal((64, 2))
    cond = np.zeros(64, dtype=np.int64)

    def eps_fn(x, t, c):
        return net.forward(x, 0.0, c, t).data

    for hi, lo in zip(grid[:-1], grid[1:]):
        z = cfg_target(z, int(hi), int(lo), cond, net.null_id, 0.0, eps_fn, sched)
    t1 = np.full(64, sched.t_of(int(grid[-1])))
    eps = eps_fn(z, t1, cond)
    manual = (z - sched.sigma(int(grid[-1])) * eps) / sched.alpha(int(grid[-1]))
    np.testing.assert_array_equal(guided, manual)


class CondShiftNet(OracleNet):
    """Oracle eps plus a per-condition shift, so the guidance branches differ."""

    def __init__(self, oracle, sched, shifts):
        super().__init__(oracle, sched, num_conditions=len(shifts) - 1)
        self.shifts = np.asarray(shifts, dtype=np.float64)

    def forward(self, z, omega, cond, t, adapter=None):
        out = super().forward(z, omega, cond, t)
        out.data = out.data + self.shifts[np.broadcast_to(cond, (len(out.data),))]
        return out


def test_ddim_sample_guided_equals_two_pass_reference():
    sched = make_schedule(50, 1e-4, 0.35)
    oracle = GaussianOracle(np.array([1.0, 1.0]), 0.7)
    net = CondShiftNet(oracle, sched, [[0.2, -0.1], [-0.3, 0.4], [0.05, 0.0]])
    count = 64
    cond = np.arange(count) % 2
    omega = np.linspace(0.5, 6.0, count)
    guided = ddim_sample(net, sched, 20, omega, cond, count, seed=23)
    # hand composition with each guidance branch in its own pass
    grid = np.unique(np.linspace(1, 50, 21).round().astype(int))[::-1]
    z = substream(23, "sample/ddim").normal((count, 2))
    null = np.full(count, net.null_id, dtype=np.int64)

    def branch(ids):
        return lambda x, t: net.forward(x, 0.0, ids, t).data

    for hi, lo in zip(grid[:-1], grid[1:]):
        psi_c = solver_increment("ddim", z, int(hi), int(lo), branch(cond), sched)
        psi_u = solver_increment("ddim", z, int(hi), int(lo), branch(null), sched)
        z = z + psi_c + omega[:, None] * (psi_c - psi_u)
    n1 = int(grid[-1])
    t1 = np.full(count, sched.t_of(n1))
    eps_c, eps_u = branch(cond)(z, t1), branch(null)(z, t1)
    eps = eps_c + omega[:, None] * (eps_c - eps_u)
    manual = (z - sched.sigma(n1) * eps) / sched.alpha(n1)
    np.testing.assert_array_equal(guided, manual)


def test_ddim_sample_error_decreases_with_steps():
    sched = make_schedule(50, 1e-4, 0.35)
    oracle = GaussianOracle(np.array([2.0, 0.0]), 0.5)
    net = OracleNet(oracle, sched)
    count = 512

    def endpoint_error(S):
        samples = ddim_sample(net, sched, S, 0.0, 0, count, seed=23)
        z0 = substream(23, "sample/ddim").normal((count, 2))
        endpoint = oracle_flow(z0, 50, 1, oracle, sched)
        eps = oracle.eps(endpoint, np.full(count, sched.alpha(1)), np.full(count, sched.sigma(1)))
        x0 = (endpoint - sched.sigma(1) * eps) / sched.alpha(1)
        return np.max(np.abs(samples - x0))

    errs = [endpoint_error(S) for S in (6, 12, 24, 48)]
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_mmd2_null_distribution():
    a = substream(41, "x").normal((2000, 2))
    b = substream(42, "y").normal((2000, 2))
    assert abs(mmd2(a, b)) < 0.005


def test_mmd2_identical_arrays():
    x = substream(43, "x").normal((300, 2))
    v = mmd2(x, x.copy())
    assert v <= 0.0
    assert abs(v) < 1e-12 * len(x)


def test_mmd2_separated_clusters_analytic_limit():
    # clusters far beyond the bandwidth: cross terms vanish, the statistic
    # approaches the sum of mean within-cluster kernels
    stream = substream(44, "clusters")
    x = 0.05 * stream.normal((400, 2))
    y = 0.05 * stream.normal((400, 2)) + 100.0
    bw = 0.1
    v = mmd2(x, y, bandwidth=bw)

    def mean_offdiag_kernel(a):
        d = np.sum(a * a, 1)[:, None] + np.sum(a * a, 1)[None, :] - 2 * a @ a.T
        k = np.exp(-0.5 * np.maximum(d, 0) / bw ** 2)
        return (k.sum() - np.trace(k)) / (len(a) * (len(a) - 1))

    expected = mean_offdiag_kernel(x) + mean_offdiag_kernel(y)
    np.testing.assert_allclose(v, expected, rtol=1e-6)


def test_mmd2_detects_shift():
    a = substream(45, "x").normal((1000, 2))
    b = substream(46, "y").normal((1000, 2)) + 1.0
    assert mmd2(a, b) > 0.05


def test_mmd2_validation():
    with pytest.raises(SamplingError):
        mmd2(np.zeros((1, 2)), np.zeros((5, 2)))
    with pytest.raises(SamplingError):
        mmd2(np.zeros((5, 2)), np.zeros((5, 2)), bandwidth=0.0)


@pytest.mark.parametrize("bw", [np.nan, np.inf, -np.inf, -1.0, 1e-300, 1e-160])
def test_mmd2_rejects_bad_bandwidth(bw):
    # 1e-300 squares to 0 and 1e-160 to a subnormal whose -0.5 / bw**2 overflows
    x = substream(63, "x").normal((20, 2))
    with pytest.raises(SamplingError, match="bandwidth"):
        mmd2(x, x + 0.5, bandwidth=bw)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
def test_metrics_reject_non_finite_samples(bad, side):
    x = substream(52, "x").normal((50, 2))
    y = substream(53, "y").normal((50, 2))
    (x if side == "x" else y)[17, 1] = bad
    with pytest.raises(SamplingError, match="finite"):
        mmd2(x, y)
    with pytest.raises(SamplingError, match="finite"):
        mmd2(x, y, bandwidth=0.3)
    with pytest.raises(SamplingError, match="finite"):
        median_bandwidth(x, y)


def test_median_bandwidth_positive():
    x = substream(47, "x").normal((50, 2))
    y = substream(48, "y").normal((60, 2))
    assert median_bandwidth(x, y) > 0.0


def _pooled_sq_dists(a, b):
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def _pooled_median_bandwidth(x, y):
    """Reference: np.median over the upper triangle of the pooled matrix."""
    z = np.concatenate([x, y], axis=0)
    d = _pooled_sq_dists(z, z)
    off = d[np.triu_indices(len(z), k=1)]
    return float(np.sqrt(np.median(off)))


def _pooled_mmd2(x, y, bw):
    """Reference: the estimator with each kernel block built out of place."""
    m, n = len(x), len(y)
    inv = -0.5 / (bw * bw)
    k_xx = np.exp(inv * _pooled_sq_dists(x, x))
    k_yy = np.exp(inv * _pooled_sq_dists(y, y))
    k_xy = np.exp(inv * _pooled_sq_dists(x, y))
    term_x = (k_xx.sum() - np.trace(k_xx)) / (m * (m - 1))
    term_y = (k_yy.sum() - np.trace(k_yy)) / (n * (n - 1))
    if m == n:
        cross = (k_xy.sum() - np.trace(k_xy)) / (m * (m - 1))
    else:
        cross = k_xy.sum() / (m * n)
    return float(term_x + term_y - 2.0 * cross)


# pooled pair counts: 2000x2000, 2000x1500 and 300x301 even; 1999x1999, 7x7 and 5x6 odd
@pytest.mark.parametrize("m,n", [(2000, 2000), (2000, 1500), (1999, 1999),
                                 (300, 301), (7, 7), (5, 6)])
def test_mmd2_and_bandwidth_equal_pooled_reference(m, n):
    stream = substream(54, f"pooled/{m}x{n}")
    x = 1.3 * stream.normal((m, 2))
    y = stream.normal((n, 2)) + 0.4
    bw = _pooled_median_bandwidth(x, y)
    assert median_bandwidth(x, y) == bw
    assert mmd2(x, y) == _pooled_mmd2(x, y, bw)
    assert mmd2(x, y, bandwidth=0.3) == _pooled_mmd2(x, y, 0.3)


def test_mmd2_equals_pooled_reference_on_ring8_and_identical_sets(monkeypatch):
    # both medians come from the one-sweep window, not the radix fallback
    calls = _count_radix(monkeypatch)
    x = make_dataset("ring8", 2000, 1).x
    y = make_dataset("rotated", 2000, 2, base="ring8", angle_deg=22.5).x
    bw = _pooled_median_bandwidth(x, y)
    assert median_bandwidth(x, y) == bw
    assert mmd2(x, y) == _pooled_mmd2(x, y, bw)
    z = substream(55, "same").normal((300, 2))
    assert mmd2(z, z.copy()) == _pooled_mmd2(z, z.copy(), _pooled_median_bandwidth(z, z))
    assert calls == []


def test_mmd2_self_is_exactly_zero_at_full_size():
    x = substream(56, "self").normal((2000, 2))
    assert mmd2(x, x) == 0.0


@pytest.mark.parametrize("m", [2, 3, 300])
def test_same_array_object_on_both_sides_equals_pooled_reference(monkeypatch, m):
    # one array passed as x and y: the x-y pass is still the whole square
    # block, diagonal zeros included, not a triangle
    x = substream(65, f"same-object/{m}").normal((m, 2))
    bw = _pooled_median_bandwidth(x, x.copy())
    assert median_bandwidth(x, x) == bw
    assert mmd2(x, x) == 0.0
    assert mmd2(x, x) == _pooled_mmd2(x, x, bw)
    monkeypatch.setattr(sampling_eval, "BLOCK_ENTRIES", 128)
    assert median_bandwidth(x, x) == bw


def _mmd2_peak(x, y):
    tracemalloc.start()
    try:
        value = mmd2(x, y)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mmd2_peak_memory_at_full_size():
    # a whole-matrix build needs 160 MB here (three 2000x2000 float64 blocks
    # and an 8M-pair median buffer); the blocked build stays near 4 MB
    _, peak = _mmd2_peak(substream(57, "x").normal((2000, 2)), substream(58, "y").normal((2000, 2)))
    assert peak <= 16e6


def test_mmd2_peak_memory_at_6000_per_side():
    _, peak = _mmd2_peak(substream(59, "x").normal((6000, 2)), substream(60, "y").normal((6000, 2)))
    assert peak <= 16e6


def test_mmd2_all_ties_equals_pooled_reference_in_bounded_memory():
    # every middle pair has one bit pattern, so the median narrows through all four levels
    x = np.tile([[0.3, -1.2]], (2000, 1))
    y = np.tile([[1.7, 0.4]], (2000, 1))
    bw = _pooled_median_bandwidth(x, y)
    value, peak = _mmd2_peak(x, y)
    assert median_bandwidth(x, y) == bw
    assert value == _pooled_mmd2(x, y, bw)
    assert peak <= 16e6


@pytest.mark.parametrize("cap", [sampling_eval.MEDIAN_CAP, 1000, 0])
def test_median_select_paths_equal_pooled_reference(monkeypatch, cap):
    # cap 1000 and 0 force the narrowing passes; 1,000-entry blocks of 3 rows
    # split the rows and triangles and leave one-row blocks at the ends
    monkeypatch.setattr(sampling_eval, "MEDIAN_CAP", cap)
    monkeypatch.setattr(sampling_eval, "BLOCK_ENTRIES", 1000)
    stream = substream(61, "median-paths")
    cases = {
        "normal": (stream.normal((301, 2)), stream.normal((257, 2)) + 0.3),
        "quantized": (np.round(stream.normal((300, 2)), 1), np.round(stream.normal((300, 2)), 1)),
        "collapsed": (np.tile([[1.0, 0.0], [0.0, 1.0]], (150, 1)), np.tile([[0.0, 1.0]], (299, 1))),
        # sorted pairs 0, 1, 1, 4, 9, 9: the middle ranks fall in two buckets
        "straddle": (np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [3.0, 0.0]])),
        "one side empty": (stream.normal((9, 2)), np.zeros((0, 2))),
    }
    for name, (x, y) in cases.items():
        assert median_bandwidth(x, y) == _pooled_median_bandwidth(x, y), name
    x, y = cases["normal"]
    assert mmd2(x, y) == _pooled_mmd2(x, y, _pooled_median_bandwidth(x, y))
    assert median_bandwidth(*cases["straddle"]) == np.sqrt(2.5)


def test_mmd2_frees_its_blocks_on_return():
    # with the cyclic collector off, whatever mmd2 leaves in a reference
    # cycle stays allocated; each distance block holds two 512 KB buffers
    x = make_dataset("ring8", 2000, 1).x
    y = make_dataset("rotated", 2000, 2, base="ring8", angle_deg=22.5).x
    mmd2(x, y)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mmd2(x, y)
        left = tracemalloc.get_traced_memory()[0] - before
        unreachable = gc.collect()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert unreachable == 0
    assert left < 64 * 1024


def _count_radix(monkeypatch) -> list:
    calls = []
    radix = sampling_eval._radix_median_sq

    def counted(*args):
        calls.append(1)
        return radix(*args)
    monkeypatch.setattr(sampling_eval, "_radix_median_sq", counted)
    return calls


# 900 + 800 pooled rows make 1.44M pairs, more than MEDIAN_CAP, so the window
# is a drawn range, not everything
@pytest.mark.parametrize("path", ["window", "fallback"])
@pytest.mark.parametrize("same", [False, True], ids=["x, y", "x is y"])
def test_median_window_and_fallback_equal_pooled_reference(monkeypatch, path, same):
    stream = substream(66, "window")
    x = 1.3 * stream.normal((900, 2))
    y = x if same else stream.normal((800, 2)) + 0.4
    bw = _pooled_median_bandwidth(x, y.copy())
    if path == "fallback":
        # a zero-width window: the middle ranks are never inside it
        monkeypatch.setattr(sampling_eval, "_median_window",
                            lambda x, y, total: (1.0, 1.0, sampling_eval.MEDIAN_CAP))
    calls = _count_radix(monkeypatch)
    assert median_bandwidth(x, y) == bw
    assert mmd2(x, y) == _pooled_mmd2(x, y, bw)
    assert mmd2(x, x) == 0.0
    assert len(calls) == (3 if path == "fallback" else 0)


def test_median_ties_beyond_the_window_fall_back(monkeypatch):
    # 640,000 x-y pairs share one value, far more than the window's room
    x = np.tile([[0.3, -1.2]], (800, 1))
    y = np.tile([[1.7, 0.4]], (800, 1))
    calls = _count_radix(monkeypatch)
    assert median_bandwidth(x, y) == _pooled_median_bandwidth(x, y)
    assert len(calls) == 1


@pytest.mark.parametrize("x,y", [
    (np.zeros((8, 3)), np.zeros((8, 2))),
    (np.zeros(8), np.zeros(8)),
    (np.zeros((8, 2)), np.zeros((2, 4, 2))),
    (np.zeros((0, 2)), np.zeros((0, 2))),
    (np.zeros((1, 2)), np.zeros((0, 2))),
], ids=["columns", "1-D", "3-D", "empty", "no pair"])
def test_metrics_reject_bad_sample_shapes(x, y):
    shapes = f"{x.shape} and {y.shape}"
    with pytest.raises(SamplingError, match=f"got shapes {re.escape(shapes)}"):
        median_bandwidth(x, y)
    with pytest.raises(SamplingError, match=re.escape(shapes)):
        mmd2(x, y)
    with pytest.raises(SamplingError, match=re.escape(shapes)):
        mmd2(x, y, bandwidth=0.3)


def test_one_row_block_rounds_like_a_row_of_a_bigger_block():
    # numpy sends a one-row product to gemv, which rounds unlike gemm
    a = substream(64, "a").normal((40, 2))
    b = substream(64, "b").normal((2000, 2))
    dists = sampling_eval._SqDists(a, b, 40)
    whole = dists.rows(0, 40).copy()
    for r in range(40):
        assert np.array_equal(dists.rows(r, r + 1), whole[r:r + 1])


@pytest.mark.parametrize("m,n,entries", [
    (2000, 2000, None), (1999, 1999, None), (1000, 3000, None), (300, 301, None), (7, 7, None),
    (5, 6, None), (300, 301, 1000), (257, 255, 128), (33, 1001, 128),
])
def test_kernel_sums_follow_numpy_pairwise_order(monkeypatch, m, n, entries):
    # integer coordinates make every squared distance exact, so this checks only
    # the summation: the leaf tree against k.sum() and the gathered diagonal
    # against np.trace(k); small leaves split rows and fall inside single rows
    if entries is not None:
        monkeypatch.setattr(sampling_eval, "BLOCK_ENTRIES", entries)
    stream = substream(62, f"tree/{m}x{n}")
    a = np.floor(8.0 * stream.normal((m, 2)))
    b = np.floor(8.0 * stream.normal((n, 2)))
    inv = -0.5 / 7.3 ** 2
    k = np.exp(inv * np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1))
    assert sampling_eval._kernel_sums(a, b, inv) == (k.sum(), np.trace(k))


def test_moments_error_degenerate_cases():
    m = np.array([1.0, 2.0])
    cov = np.array([[0.5, 0.1], [0.1, 0.5]])
    samples = np.tile(m, (10, 1))
    mean_err, cov_err = moments_error(samples, m, cov)
    assert mean_err == 0.0
    np.testing.assert_allclose(cov_err, np.linalg.norm(cov, "fro"))
    pair = np.stack([m + np.array([0.3, -0.2]), m - np.array([0.3, -0.2])])
    mean_err, _ = moments_error(pair, m, cov)
    assert mean_err < 1e-15


def test_moments_error_clt_bound():
    samples = substream(49, "clt").normal((100_000, 2))
    mean_err, cov_err = moments_error(samples, np.zeros(2), np.eye(2))
    assert mean_err < 0.02
    assert cov_err < 0.05


def test_sample_dump_round_trip(tmp_path):
    samples = substream(50, "dump").normal((20, 2))
    cond = substream(51, "c").integers(20, 0, 7)
    meta = {"steps": 4, "omega": 7.5, "seed": 3}
    path = tmp_path / "samples.csv"
    write_samples(path, samples, cond, meta)
    x, c = read_samples(path)
    np.testing.assert_array_equal(x, samples)
    np.testing.assert_array_equal(c, cond)
    assert (tmp_path / "samples.json").exists()
