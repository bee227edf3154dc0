import numpy as np
import pytest

from cdlora.rng import substream
from cdlora.schedule import (
    ALPHA_GUARD,
    NoiseSchedule,
    ScheduleError,
    add_noise,
    make_schedule,
    recover_x0,
)


def test_two_step_cumulative_product():
    s = NoiseSchedule(np.array([0.1, 0.2]))
    np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72])
    np.testing.assert_allclose(s.sigma(2), np.sqrt(0.28))


def test_constant_beta_power_law():
    s = NoiseSchedule(np.full(6, 0.3))
    np.testing.assert_allclose(s.alpha_bar, 0.7 ** np.arange(1, 7))


def test_vp_identity_every_step():
    s = make_schedule(50)
    n = np.arange(1, 51)
    np.testing.assert_allclose(s.alpha(n) ** 2 + s.sigma(n) ** 2, 1.0, atol=1e-12)


def test_monotonicity():
    s = make_schedule(50)
    n = np.arange(1, 51)
    assert np.all(np.diff(s.sigma(n)) > 0)
    assert np.all(np.diff(s.alpha(n)) < 0)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[0] < 1.0 and s.alpha_bar[-1] > 0.0


def test_parameter_validation():
    with pytest.raises(ScheduleError):
        make_schedule(1)
    with pytest.raises(ScheduleError):
        make_schedule(10, beta_min=0.0)
    with pytest.raises(ScheduleError):
        make_schedule(10, beta_min=0.5, beta_max=0.1)
    with pytest.raises(ScheduleError):
        make_schedule(10, beta_max=1.0)


@pytest.mark.parametrize("kwargs,message", [
    ({"N": 10.5}, "'N' 10.5 is not an int of at least 2"),
    ({"N": 1}, "'N' 1 is not an int of at least 2"),
    ({"N": True}, "'N' True is not an int of at least 2"),
    ({"N": 10, "beta_min": "0.1"}, "'beta_min' '0.1' is not a number in (0, 1)"),
    ({"N": 10, "beta_min": float("nan")}, "'beta_min' nan is not a number in (0, 1)"),
    ({"N": 10, "beta_max": float("inf")}, "'beta_max' inf is not a number in (0, 1)"),
    ({"N": 10, "beta_min": 0.2}, "'beta_max' 0.05 is below 'beta_min' 0.2"),
    ({"N": 1500}, "'N' 1500 with 'beta_min' 0.0001 and 'beta_max' 0.05 takes alpha(t_N) "
                  "below 1e-06"),
    ({"N": 10, "beta_min": 1e-17}, "'beta_min' 1e-17 is too small: 1 - beta_min rounds to 1, "
                                   "so sigma(t_1) is 0"),
], ids=["float-N", "N-1", "bool-N", "string-beta", "nan-beta", "infinite-beta", "betas-swapped",
        "alpha-below-guard", "beta_min-rounds-away"])
def test_make_schedule_names_the_key_it_rejects(kwargs, message):
    with pytest.raises(ScheduleError) as err:
        make_schedule(**kwargs)
    assert str(err.value) == message


def test_alpha_guard_boundary_with_default_betas():
    # alpha(t_N) is about 2.9e-6 at N = 1000 and about 5e-9 at N = 1500
    assert make_schedule(1000).alpha(1000) >= ALPHA_GUARD
    with pytest.raises(ScheduleError):
        make_schedule(1500)


@pytest.mark.parametrize("n", [37, np.array([1, 12, 50, 25, 50])], ids=["scalar", "per-row"])
def test_recover_x0_inverts_add_noise(n):
    s = make_schedule(50, beta_max=0.25)
    stream = substream(5, "test/recover")
    x, eps = stream.normal((5, 2)), stream.normal((5, 2))
    np.testing.assert_allclose(recover_x0(add_noise(x, n, eps, s), n, eps, s), x,
                               rtol=0, atol=1e-12)


def test_add_noise_degenerate_cases():
    s = NoiseSchedule(np.array([0.1, 0.2]))
    z = np.array([[1.0, 0.0]])
    eps = np.array([[0.0, 1.0]])
    np.testing.assert_allclose(add_noise(np.zeros((1, 2)), 2, eps, s), s.sigma(2) * eps)
    np.testing.assert_allclose(add_noise(z, 2, np.zeros((1, 2)), s), s.alpha(2) * z)


def test_add_noise_closed_form():
    s = NoiseSchedule(np.array([0.1, 0.2]))
    out = add_noise(np.array([[1.0, 0.0]]), 2, np.array([[0.0, 1.0]]), s)
    np.testing.assert_allclose(out, [[np.sqrt(0.72), np.sqrt(0.28)]])


def test_add_noise_validation():
    s = make_schedule(10)
    with pytest.raises(ScheduleError):
        add_noise(np.zeros((2, 2)), 11, np.zeros((2, 2)), s)
    with pytest.raises(ScheduleError):
        add_noise(np.zeros((2, 2)), 0, np.zeros((2, 2)), s)
    with pytest.raises(ScheduleError):
        add_noise(np.zeros((2, 2)), 3, np.zeros((2, 3)), s)


def test_add_noise_per_row_indices():
    s = make_schedule(10)
    z = np.ones((3, 2))
    eps = np.ones((3, 2))
    n = np.array([1, 5, 10])
    out = add_noise(z, n, eps, s)
    np.testing.assert_allclose(out, (s.alpha(n) + s.sigma(n))[:, None] * np.ones((3, 2)))


def test_marginal_preservation_monte_carlo():
    # unit-variance data stays unit-variance after noising, within 3 SE
    s = make_schedule(50)
    stream = substream(1234, "test/marginal")
    count = 200_000
    z = stream.normal((count, 1))
    eps = stream.normal((count, 1))
    out = add_noise(z, 25, eps, s)
    var = out.var()
    se = np.sqrt(2.0 / count)  # Var of sample variance of N(0,1) ~ 2/n
    assert abs(var - 1.0) < 3 * se


def test_continuous_extension_matches_grid():
    s = make_schedule(50)
    n = np.arange(1, 51)
    a, sg = s.alpha_sigma_of_t(s.t_of(n))
    np.testing.assert_allclose(a, s.alpha(n), rtol=1e-12)
    np.testing.assert_allclose(sg, s.sigma(n), rtol=1e-12)


def test_log_snr_roundtrip():
    s = make_schedule(50)
    t = np.linspace(s.t_min, 1.0, 37)
    np.testing.assert_allclose(s.t_of_log_snr(s.log_snr_of_t(t)), t, atol=1e-12)


def test_continuous_extension_range_check():
    s = make_schedule(50)
    with pytest.raises(ScheduleError):
        s.log_snr_of_t(0.001)
