import functools
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
from cdlora.tensor import (COL_GROUP, GradTape, NonFiniteError, Tensor, grad_check, mul, silu,
                           silu_den, sum_all)


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
    # the blocked path applies SiLU in place through silu_den, one block at
    # a time; the taped forward is one node that applies it to the whole
    # batch through silu_den, and never calls the silu primitive
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
    with GradTape() as tape:
        net.forward(z, 7.5, 0, 0.5)
    assert calls == [("silu_den", 600)] * 3
    assert len(tape._nodes) == 1


def _per_op(net, z, omega, cond, t, adapter):
    """The forward through the tape's primitives (_trunk and _dense): the
    per-op graph that the taped node must match bit for bit."""
    m = z.shape[0]
    rows = [Tensor(z), *(Tensor(v[idx]) for v, idx in (
        sinusoidal_table(np.broadcast_to(t, (m,)), net.time_dim),
        sinusoidal_table(np.broadcast_to(omega, (m,)) / net.omega_ref, net.guidance_dim)))]
    cond = np.broadcast_to(np.asarray(cond, dtype=np.int64), (m,))
    h = net._trunk(*rows, cond, adapter)
    return net._dense(h, f"layer{net.n_layers - 1}", adapter)


def _trainable(net, adapter, which):
    """Freeze everything, then make one set trainable: "base" (every
    parameter of the net), "factors" (the adapter's) or "single" (one weight)."""
    factors = [] if adapter is None else adapter.trainable_params()
    for p in [*net.params.values(), *factors]:
        p.requires_grad = False
    chosen = {"base": list(net.params.values()), "factors": factors,
              "single": [net.params["layer1.weight"]]}[which]
    for p in chosen:
        p.requires_grad = True
    return chosen


@pytest.mark.parametrize("net_id,which", [(net_id, which) for net_id in NETS
                                           for which in ("base", "factors", "single")
                                           if NETS[net_id][0] is not None or which != "factors"])
@pytest.mark.parametrize("m", [1, BLOCK_ROWS - 1, BLOCK_ROWS, 600])
def test_taped_node_equals_the_per_op_graph(m, net_id, which):
    scale, rank, hidden = NETS[net_id]
    net, adapter = _busy_net(50, scale, rank, hidden)
    params = _trainable(net, adapter, which)
    stream = substream(51, "test/node")
    z = stream.normal((m, 2))
    inputs = (14.0 * stream.uniform(m), stream.integers(m, 0, net.null_id), stream.uniform(m))
    weights = Tensor(stream.normal((m, 2)))
    results = []
    for forward in (net.forward, functools.partial(_per_op, net)):
        for p in params:
            p.grad = None
        with GradTape() as tape:
            out = forward(z, *inputs, adapter)
            tape.backward(sum_all(mul(out, weights)))
        results.append((out.data, [p.grad for p in params], len(tape._nodes)))
    (node, node_grads, nodes), (graph, graph_grads, _) = results
    assert nodes == 3   # the network, mul and sum_all
    assert np.array_equal(node, graph)
    for p, a, b in zip(params, node_grads, graph_grads):
        assert np.array_equal(a, b)


def _kept(tape):
    """{layer name: names of the arrays its part of the network node keeps}."""
    layers = inspect.getclosurevars(tape._nodes[0][1]).nonlocals
    kept = {}
    for layer in (*layers["proj"], *layers["layers"]):
        name = next(n for n, p in layers["self"].params.items() if p is layer.w)[:-len(".weight")]
        kept[name] = {f for f in ("x", "wd", "at", "u", "bt", "pre", "den")
                      if getattr(layer, f) is not None}
    return kept


ALL = {"x", "wd", "at", "u", "bt", "pre", "den"}
LAYERS = ("time_proj", "guidance_proj", "layer0", "layer1", "layer2", "layer3")
# what each layer keeps for the backward of one trainable set: the input x
# for W's and A's gradients, W (wd) and A^T (at) for the input's, x A^T (u)
# for B's, B^T (bt) for the gradient of u, and a hidden layer's pre-activation
# and SiLU denominator while a gradient flows through them
KEPT = {
    "factors": dict(zip(LAYERS, [{"x", "u", "bt"}] * 2 + [ALL] * 3 + [ALL - {"pre", "den"}])),
    "base": dict(zip(LAYERS, [{"x"}] * 2 + [ALL - {"u"}] * 3 + [{"x", "wd", "at", "bt"}])),
    "single": dict(zip(LAYERS, [set()] * 3 + [{"x", "pre", "den"}, ALL - {"x", "u"},
                                              {"wd", "at", "bt"}])),
}


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["rank8", "rank8-scale0.5"])
def test_taped_forward_frees_what_backward_never_reads(monkeypatch, scale):
    # every layer makes three products, x W, x A^T and the delta (x A^T) B^T;
    # the base product of a hidden layer becomes its pre-activation in place,
    # so it lives while SiLU's backward reads it; the other base products
    # (written into the concatenated input or the output) and every delta
    # are freed during the forward, and x A^T lives only for B's gradient
    product = cdlora.denoiser.product
    made = []

    def product_rows(a, b, *args, **kwargs):
        out = product(a, b, *args, **kwargs)
        made.append(weakref.ref(out if out.base is None else out.base))
        return out

    monkeypatch.setattr(cdlora.denoiser, "product", product_rows)
    for which, want in KEPT.items():
        net, adapter = _busy_net(44, scale)
        params = _trainable(net, adapter, which)
        made.clear()
        with GradTape() as tape:
            loss = sum_all(net.forward(substream(45, "z").normal((3, 2)), 7.5, 3, 0.4,
                                       adapter=adapter))
            assert len(tape._nodes) == 2
            kept = _kept(tape)
            assert kept == want, which
            alive = [ref() is not None for ref in made]
            assert len(alive) == 3 * len(LAYERS)
            for i, name in enumerate(LAYERS):
                base, low, delta = alive[3 * i:3 * i + 3]
                assert base == ("pre" in kept[name]), (which, name)
                # a padded x A^T (rank 2 on the output layer) is copied out whole, and the copy kept
                whole = adapter.entries[f"{name}.weight"].rank % COL_GROUP == 0
                assert low == ("u" in kept[name] and whole), (which, name)
                assert not delta, (which, name)
            tape.backward(loss)
        assert all(np.any(p.grad != 0.0) for p in params), which


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
