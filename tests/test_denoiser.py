import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import cdlora.denoiser
from cdlora.denoiser import (
    ARCH_RULES,
    BLOCK_ROWS,
    ConsistencyHead,
    DenoiserNet,
    consistency_forward,
    sinusoidal_table,
)
from cdlora.lora import attach
from cdlora.rng import substream
from cdlora.schedule import ScheduleError, make_schedule
from cdlora.tensor import GradTape, NonFiniteError, Tensor, grad_check, silu, silu_den, sum_all


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


@pytest.mark.parametrize("arg,value", [
    ("data_dim", 2.0), ("hidden", (8, 0)), ("hidden", 8), ("time_dim", 7), ("guidance_dim", 0),
    ("cond_dim", 0), ("num_conditions", True), ("omega_ref", 0.0), ("omega_ref", -1),
    ("omega_ref", float("inf")),
])
def test_constructor_rejects_what_the_arch_rules_reject(arg, value):
    # the rules persist.load_net applies to a checkpoint's "arch", with the same words
    with pytest.raises(ValueError) as err:
        DenoiserNet(**{arg: value})
    assert str(err.value) == f"architecture: bad {arg!r} {value!r}"


def test_arch_rules_cover_every_constructor_argument():
    # arch() reads the rules' keys, so a clone or checkpoint keeps every argument
    assert list(ARCH_RULES) == [n for n in inspect.signature(DenoiserNet).parameters
                                if n != "stream"]
    assert DenoiserNet(hidden=[8, 4]).arch()["hidden"] == (8, 4)


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
    table, rows = sinusoidal_table(np.array([0.1, 0.5, 0.1]), 16)
    assert table.shape == (2, 16) and rows.tolist() == [0, 1, 0]
    assert np.all(np.isfinite(table))


def test_sinusoidal_features_equal_direct_formula():
    stream = substream(31, "test/sinusoid")
    distinct = stream.uniform(997)
    inputs = {
        "repeated": np.full(4000, 0.37),
        "distinct": distinct,
        "per-row": distinct[stream.integers(3000, 0, 9)],
        "scalar": 0.25,
    }
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), 8))
    for name, x in inputs.items():
        ang = np.atleast_1d(x)[:, None] * freqs[None, :]
        direct = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
        table, rows = sinusoidal_table(x, 16)
        assert np.array_equal(table[rows], direct), name


def _busy_net(seed, scale=None, rank=8, hidden=(128, 128, 128)):
    """A net with a random last layer, and with an adapter of `rank` at
    `scale` unless scale is None."""
    net = DenoiserNet(hidden=hidden, stream=substream(seed, "init/net"))
    last = net.params[f"layer{net.n_layers - 1}.weight"]
    last.data[:] = substream(seed, "test/last").normal(last.shape)
    if scale is None:
        return net, None
    adapter = attach(net, rank=rank, scale=scale, stream=substream(seed, "init/lora"),
                     cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = 0.1 * substream(seed, "test/b").normal(e.b.shape)
    return net, adapter


# (scale, rank, hidden) of the net under test; scale 0.5 runs the blocked
# path's own scaling of the adapter's delta, and ranks and widths that are
# not whole 8-column groups check the padded products
NETS = {
    "base": (None, 8, (128, 128, 128)),
    "rank8": (1.0, 8, (128, 128, 128)),
    "rank8-scale0.5": (0.5, 8, (128, 128, 128)),
    **{f"rank{r}": (1.0, r, (128, 128, 128)) for r in (1, 2, 4, 12)},
    "hidden20": (None, 8, (20, 20)),
    "hidden20-rank3": (1.0, 3, (20, 20)),
    "hidden100": (None, 8, (100, 100)),
    "hidden100-rank13": (0.5, 13, (100, 100)),
}


@pytest.mark.parametrize("net_id", list(NETS))
@pytest.mark.parametrize("m", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 600, 4000])
def test_blocked_forward_equals_whole_batch_on_tape(m, net_id):
    scale, rank, hidden = NETS[net_id]
    net, adapter = _busy_net(41, scale, rank, hidden)
    stream = substream(42, "test/blocked")
    z = stream.normal((m, 2))
    per_row = (14.0 * stream.uniform(m), stream.integers(m, 0, net.null_id), stream.uniform(m))
    for omega, cond, t in (per_row, (7.5, 3, 0.4)):
        off_tape = net.forward(z, omega, cond, t, adapter=adapter).data
        with GradTape():
            whole = net.forward(z, omega, cond, t, adapter=adapter)
        assert whole.requires_grad
        assert np.array_equal(off_tape, whole.data)


@pytest.mark.parametrize("scale", [None, 1.0], ids=["base", "rank8"])
def test_blocked_forward_holds_no_whole_batch_activation(scale):
    # 4,000 rows of a 128-wide activation would be 4 MB; the blocks' buffers,
    # the inputs' distinct-value tables and the (4000, 2) result are about 1 MB
    net, adapter = _busy_net(48, scale)
    stream = substream(49, "test/peak")
    z = stream.normal((4000, 2))
    cond = stream.integers(4000, 0, net.null_id)
    net.forward(z, 7.5, cond, 0.4, adapter=adapter)
    tracemalloc.start()
    try:
        net.forward(z, 7.5, cond, 0.4, adapter=adapter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_only_off_tape_forwards_are_blocked(monkeypatch):
    # the blocked path applies SiLU in place through silu_den; the taped
    # path calls the silu primitive, whose own silu_den is tensor's
    net, _ = _busy_net(43)
    calls = []

    def silu_rows(h):
        calls.append(("silu", h.shape[0]))
        return silu(h)

    def den_rows(x, out):
        calls.append(("silu_den", x.shape[0]))
        return silu_den(x, out)

    monkeypatch.setattr(cdlora.denoiser, "silu", silu_rows)
    monkeypatch.setattr(cdlora.denoiser, "silu_den", den_rows)
    z = np.zeros((600, 2))
    net.forward(z, 7.5, 0, 0.5)
    # three blocks of 200 rows (BLOCK_ROWS is 256), three hidden layers each
    assert calls == [("silu_den", 200)] * 9
    calls.clear()
    with GradTape():
        net.forward(z, 7.5, 0, 0.5)
    assert calls == [("silu", 600)] * 3


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["rank8", "rank8-scale0.5"])
def test_taped_forward_frees_what_backward_never_reads(monkeypatch, scale):
    # each adapted layer adds the base product x W and the adapter delta,
    # then the bias; backward reads none of the three, so none may outlive
    # the forward on a frozen base
    net, adapter = _busy_net(44, scale)
    add = cdlora.denoiser.add
    dropped = []

    def add_rows(y, delta):
        out = add(y, delta)
        dropped.extend(weakref.ref(t.data) for t in (y, delta, out))
        return out

    monkeypatch.setattr(cdlora.denoiser, "add", add_rows)
    with GradTape() as tape:
        loss = sum_all(net.forward(substream(45, "z").normal((3, 2)), 7.5, 3, 0.4, adapter=adapter))
        assert len(dropped) == 3 * len(adapter.entries)
        assert [ref() for ref in dropped] == [None] * len(dropped)
        tape.backward(loss)
    assert all(np.any(e.b.grad != 0.0) for e in adapter.entries.values())


@pytest.mark.parametrize("m", [3, 600], ids=["whole", "blocked"])
@pytest.mark.parametrize("where,bad", [("z", np.nan), ("z", np.inf), ("t", np.nan),
                                       ("t", -np.inf), ("omega", np.nan), ("omega", np.inf)])
def test_non_finite_inputs_raise_on_both_paths(m, where, bad):
    # the inputs are scanned once at whole-batch size; the blocks are wrapped unscanned
    net, _ = _busy_net(44)
    stream = substream(45, "test/non-finite")
    inputs = {"z": stream.normal((m, 2)), "t": stream.uniform(m), "omega": 7.5 * stream.uniform(m)}
    inputs[where][m - 2] = bad
    for tape in (False, True):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            if tape:
                with GradTape():
                    net.forward(inputs["z"], inputs["omega"], 0, inputs["t"])
            else:
                net.forward(inputs["z"], inputs["omega"], 0, inputs["t"])


def test_non_finite_hidden_value_raises_on_blocked_path():
    net, _ = _busy_net(46)
    net.params["layer1.weight"].data[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        net.forward(substream(47, "test/z").normal((600, 2)), 7.5, 0, 0.5)


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
    # alpha_bar driven to ~0: the schedule that consistency_forward would have
    # to invert is refused when it is built
    with pytest.raises(ScheduleError):
        make_schedule(60, beta_min=0.5, beta_max=0.9)
