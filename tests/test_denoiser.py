import numpy as np
import pytest

from cdlora.denoiser import (
    ConsistencyHead,
    DenoiserNet,
    consistency_forward,
    sinusoidal_features,
)
from cdlora.rng import substream
from cdlora.schedule import ScheduleError, make_schedule
from cdlora.tensor import GradTape, NonFiniteError, Tensor, grad_check, sum_all


def small_net(seed=0, hidden=(16, 16)):
    return DenoiserNet(data_dim=2, hidden=hidden, num_conditions=8,
                       stream=substream(seed, "init/net"))


def test_zero_init_final_layer_predicts_zero():
    net = small_net()
    sched = make_schedule(50)
    z = substream(1, "z").normal((5, 2))
    out = net.forward(z, 0.0, 0, sched.t_of(25))
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_forward_deterministic_bitwise():
    net = small_net()
    # make the output nontrivial
    net.params["layer2.weight"].data[:] = substream(2, "w").normal(net.params["layer2.weight"].shape)
    sched = make_schedule(50)
    z = substream(3, "z").normal((4, 2))
    a = net.forward(z, 7.5, 3, sched.t_of(30)).data
    b = net.forward(z, 7.5, 3, sched.t_of(30)).data
    assert np.array_equal(a, b)


def test_condition_validation():
    net = small_net()
    sched = make_schedule(50)
    z = np.zeros((1, 2))
    with pytest.raises(ValueError):
        net.forward(z, 0.0, 9, sched.t_of(10))  # beyond the null id 8
    with pytest.raises(ValueError):
        net.forward(z, -1.0, 0, sched.t_of(10))
    # the null condition is a first-class id
    net.forward(z, 0.0, net.null_id, sched.t_of(10))


def test_null_condition_has_own_row():
    net = small_net(seed=5)
    table = net.params["cond_table"].data
    assert table.shape == (9, 8)
    assert np.any(table[net.null_id] != 0.0)


def test_taylor_check_single_weight():
    net = small_net(seed=7)
    net.params["layer2.weight"].data[:] = substream(8, "w").normal(net.params["layer2.weight"].shape)
    sched = make_schedule(50)
    z = substream(9, "z").normal((3, 2))
    w = net.params["layer1.weight"]

    def loss_value():
        return float(sum_all(net.forward(z, 2.0, 1, sched.t_of(20))).data)

    with GradTape() as tape:
        tape.backward(sum_all(net.forward(z, 2.0, 1, sched.t_of(20))))
    g = w.grad[4, 5]
    delta = 1e-4
    base = loss_value()
    w.data[4, 5] += delta
    bumped = loss_value()
    w.data[4, 5] -= delta
    assert abs((bumped - base) / delta - g) / max(abs(g), 1e-8) < 1e-3


def test_non_finite_activation_reported():
    net = small_net()
    net.params["layer0.weight"].data[0, 0] = np.inf
    sched = make_schedule(50)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        net.forward(np.ones((1, 2)), 0.0, 0, sched.t_of(10))


def test_sinusoidal_feature_shape():
    f = sinusoidal_features(np.array([0.1, 0.5]), 16)
    assert f.shape == (2, 16)
    assert np.all(np.isfinite(f))


def test_head_coefficients_at_boundary_and_half():
    sched = make_schedule(50)
    head = ConsistencyHead.for_schedule(sched, sigma_data=0.5)
    c_skip, c_out = head.coeffs(sched.t_min)
    assert c_skip == 1.0 and c_out == 0.0
    # u = sigma_data = 0.5 at t halfway past t_min
    t_half = head.t_min + 0.5 * (1.0 - head.t_min)
    c_skip, c_out = head.coeffs(t_half)
    np.testing.assert_allclose(c_skip, 0.5, rtol=1e-12)
    np.testing.assert_allclose(c_out, 0.5 / np.sqrt(0.5), rtol=1e-12)
    # bounded on the whole grid
    tgrid = sched.t_of(np.arange(1, 51))
    cs, co = head.coeffs(tgrid)
    assert np.all((cs > 0) & (cs <= 1.0)) and np.all((co >= 0) & (co < 1.0))


def test_boundary_condition_exact():
    sched = make_schedule(50)
    head = ConsistencyHead.for_schedule(sched)
    stream = substream(11, "test/boundary")
    for trial in range(20):
        net = small_net(seed=100 + trial)
        for name in ("layer0.weight", "layer1.weight", "layer2.weight"):
            net.params[name].data[:] = stream.normal(net.params[name].shape)
        z = stream.normal((6, 2))
        omega = float(stream.uniform(1)[0] * 14)
        cond = int(stream.integers(1, 0, 8)[0])
        f = consistency_forward(net, head, sched, z, omega, cond, 1)
        assert np.array_equal(f.data, z)


def test_consistency_with_zero_eps():
    # zero-weight net predicts eps = 0, so f = (c_skip + c_out / alpha) * z
    net = small_net()
    sched = make_schedule(50)
    head = ConsistencyHead.for_schedule(sched)
    z = substream(13, "z").normal((4, 2))
    n = 30
    f = consistency_forward(net, head, sched, z, 0.0, 0, n)
    c_skip, c_out = head.coeffs(sched.t_of(n))
    expected = (c_skip + c_out / sched.alpha(n)) * z
    np.testing.assert_allclose(f.data, expected, rtol=1e-12)


def test_consistency_differentiable_on_grid():
    net = small_net(seed=21)
    net.params["layer2.weight"].data[:] = 0.1 * substream(22, "w").normal(net.params["layer2.weight"].shape)
    sched = make_schedule(50)
    head = ConsistencyHead.for_schedule(sched)
    z = substream(23, "z").normal((3, 2))
    params = [net.params["layer1.weight"], net.params["cond_table"]]
    rel = grad_check(
        lambda: sum_all(consistency_forward(net, head, sched, z, 3.0, 2, 17)),
        params,
        h=1e-5,
    )
    assert rel < 1e-4


def test_alpha_guard():
    # drive alpha_bar to ~0 so the x0 recovery guard trips
    sched = make_schedule(60, beta_min=0.5, beta_max=0.9)
    net = small_net()
    head = ConsistencyHead.for_schedule(sched)
    with pytest.raises(ScheduleError):
        consistency_forward(net, head, sched, np.zeros((1, 2)), 0.0, 0, 60)
