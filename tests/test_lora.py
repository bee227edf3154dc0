import numpy as np
import pytest

from cdlora.datasets import make_dataset
from cdlora.denoiser import DenoiserNet, net_fingerprint
from cdlora.lora import (
    AdapterBundle,
    AdapterError,
    LoraAdapter,
    LoraEntry,
    attach,
    combine,
    count_trainable,
    materialize,
    merge,
)
from cdlora.persist import load_adapter, save_adapter
from cdlora.rng import substream
from cdlora.schedule import make_schedule
from cdlora.tensor import GradTape, Tensor, sum_all
from cdlora.training import DistillConfig, Encoder, TrainOpts, finetune_style_lora, lcd_distill


def make_net(seed=0, hidden=(16, 16)):
    net = DenoiserNet(data_dim=2, hidden=hidden, num_conditions=8,
                      stream=substream(seed, "init/net"))
    # give the zero-init output layer some signal so forwards are nontrivial
    last = f"layer{net.n_layers - 1}.weight"
    net.params[last].data[:] = 0.3 * substream(seed + 1, "w").normal(net.params[last].shape)
    return net


def randomize_adapter(adapter, seed=3, scale=0.2):
    stream = substream(seed, "lora/rand")
    for e in adapter.entries.values():
        e.b.data[:] = scale * stream.normal(e.b.shape)
    return adapter


def forward_value(net, adapter=None, seed=5, omega=2.0, cond=1, n=20):
    sched = make_schedule(50)
    z = substream(seed, "z").normal((8, 2))
    return net.forward(z, omega, cond, sched.t_of(n), adapter=adapter).data


def test_fresh_adapter_is_identity_bitwise():
    net = make_net()
    base_out = forward_value(net)
    adapter = attach(net, rank=4, stream=substream(2, "init/lora"), cap_rank=True)
    adapted_out = forward_value(net, adapter)
    assert np.array_equal(base_out, adapted_out)


def test_rank_bound():
    net = make_net()
    # layer2.weight of hidden (16,16) data_dim 2 is 16x2, min dim 2
    attach(net, target_names=["layer2.weight"], rank=2, stream=substream(0, "s"))
    with pytest.raises(AdapterError):
        attach(net, target_names=["layer2.weight"], rank=3, stream=substream(0, "s"))


def test_attach_shapes():
    net = DenoiserNet(data_dim=2, hidden=(128, 128), num_conditions=8,
                      stream=substream(0, "init/net"))
    adapter = attach(net, target_names=["layer1.weight"], rank=4, stream=substream(1, "s"))
    entry = adapter.entries["layer1.weight"]
    assert entry.a.shape == (4, 128)
    assert entry.b.shape == (128, 4)
    assert entry.rank == 4


def test_attach_errors():
    net = make_net()
    stream = substream(1, "s")
    with pytest.raises(AdapterError):
        attach(net, target_names=["nope.weight"], rank=2, stream=stream)
    with pytest.raises(AdapterError):
        attach(net, target_names=["layer0.bias"], rank=2, stream=stream)
    with pytest.raises(AdapterError):
        attach(net, target_names=["layer0.weight", "layer0.weight"], rank=2, stream=stream)
    with pytest.raises(AdapterError):
        attach(net, rank=0, stream=stream)


@pytest.mark.parametrize("scale", ["x", None, True, float("nan"), float("inf")])
def test_attach_refuses_a_scale_the_adapter_record_refuses(scale):
    with pytest.raises(AdapterError, match="scale"):
        attach(make_net(), rank=2, scale=scale, stream=substream(1, "s"))


def test_attach_freezes_base():
    net = make_net()
    attach(net, rank=2, stream=substream(2, "s"))
    assert all(not p.requires_grad for p in net.params.values())


def test_count_single_layer():
    e = LoraEntry(Tensor(np.zeros((2, 6))), Tensor(np.zeros((4, 2))), 1.0)
    assert count_trainable(LoraAdapter("fp", {"x.weight": e})) == 20


def test_count_two_layers():
    a = LoraAdapter("fp", {
        "p.weight": LoraEntry(Tensor(np.zeros((4, 128))), Tensor(np.zeros((128, 4))), 1.0),
        "q.weight": LoraEntry(Tensor(np.zeros((4, 128))), Tensor(np.zeros((2, 4))), 1.0),
    })
    assert count_trainable(a) == 4 * 256 + 4 * 130


def test_count_matches_enumeration():
    stream = substream(7, "arch")
    for trial in range(10):
        net = DenoiserNet(
            data_dim=int(stream.integers(1, 2, 4)[0]),
            hidden=tuple(int(w) for w in stream.integers(2, 8, 32)),
            num_conditions=int(stream.integers(1, 1, 8)[0]),
            stream=substream(trial, "init"),
        )
        rank = int(stream.integers(1, 1, 4)[0])
        adapter = attach(net, rank=rank, stream=substream(trial, "lora"), cap_rank=True)
        brute = sum(e.a.data.size + e.b.data.size for e in adapter.entries.values())
        assert count_trainable(adapter) == brute


def test_merge_zero_adapter_is_identity():
    net = make_net()
    adapter = attach(net, rank=4, stream=substream(3, "s"), cap_rank=True)
    merged = merge(net, adapter)
    for name, p in net.params.items():
        np.testing.assert_array_equal(merged.params[name].data, p.data)


def test_merge_hand_example():
    # W0 = I2, B = [[1],[0]], A = [[0,1]] -> W = [[1,1],[0,1]] in the
    # column-vector convention; stored row-vector weights hold the transpose
    net = DenoiserNet(data_dim=2, hidden=(), num_conditions=1,
                      stream=substream(0, "init"))
    net.params["layer0.weight"] = Tensor(np.eye(12, 2))  # identity block on the z slice
    entry = LoraEntry(a=Tensor(np.array([[0.0, 1.0]])), b=Tensor(np.array([[1.0], [0.0]])),
                      scale=1.0)
    # delta^T = B@A = [[0,1],[0,0]]
    np.testing.assert_array_equal(entry.delta().T, [[0.0, 1.0], [0.0, 0.0]])


def test_merge_equals_adapter_path():
    net = make_net(seed=11)
    adapter = randomize_adapter(attach(net, rank=4, stream=substream(4, "s"), cap_rank=True), seed=12)
    merged = merge(net, adapter)
    stream = substream(13, "probe")
    sched = make_schedule(50)
    worst = 0.0
    for _ in range(20):
        z = stream.normal((5, 2))
        a_out = net.forward(z, 1.0, 2, sched.t_of(25), adapter=adapter).data
        m_out = merged.forward(z, 1.0, 2, sched.t_of(25)).data
        rel = np.max(np.abs(m_out - a_out) / (1.0 + np.abs(m_out)))
        worst = max(worst, rel)
    assert worst < 1e-10


def test_merge_shape_mismatch():
    net = make_net()
    bad = LoraAdapter(net_fingerprint(net), {
        "layer0.weight": LoraEntry(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), 1.0)
    })
    with pytest.raises(AdapterError):
        merge(net, bad)


def combined_pair(seed=20):
    net = make_net(seed=seed)
    style = randomize_adapter(attach(net, rank=3, stream=substream(seed + 1, "s"), cap_rank=True), seed=seed + 2)
    net.set_trainable(True)
    accel = randomize_adapter(attach(net, rank=5, stream=substream(seed + 3, "s"), cap_rank=True), seed=seed + 4)
    return net, AdapterBundle(style, "style"), AdapterBundle(accel, "acceleration")


def test_combine_matches_dense_materialization():
    _, style, accel = combined_pair()
    combined = combine(style, accel, 0.8, 1.0)
    dense = materialize(combined.adapter)
    d1 = materialize(style.adapter)
    d2 = materialize(accel.adapter)
    for name in dense:
        expected = 0.8 * d1[name] + 1.0 * d2[name]
        assert np.max(np.abs(dense[name] - expected)) < 1e-12


def test_combine_lambda1_zero_degenerates_to_acceleration():
    net, style, accel = combined_pair(seed=30)
    combined = combine(style, accel, 0.0, 1.0)
    out_c = forward_value(net, combined.adapter, seed=31)
    out_a = forward_value(net, accel.adapter, seed=31)
    rel = np.max(np.abs(out_c - out_a) / (1.0 + np.abs(out_a)))
    assert rel < 1e-10


def test_combine_records_provenance():
    _, style, accel = combined_pair(seed=40)
    combined = combine(style, accel, 0.8, 1.0)
    assert combined.role == "combined"
    assert combined.provenance["lambda1"] == 0.8
    assert combined.provenance["lambda2"] == 1.0
    assert combined.provenance["parents"] == ["style", "acceleration"]
    shared = next(iter(combined.adapter.entries.values()))
    assert shared.rank == 3 + 5 == shared.a.shape[0] and shared.scale == 1.0


def test_combine_union_semantics():
    net = make_net(seed=50)
    s1 = attach(net, target_names=["layer0.weight"], rank=2, stream=substream(51, "s"))
    net.set_trainable(True)
    s2 = attach(net, target_names=["layer1.weight"], rank=2, stream=substream(52, "s"))
    randomize_adapter(s1, seed=53)
    randomize_adapter(s2, seed=54)
    combined = combine(AdapterBundle(s1, "style"), AdapterBundle(s2, "acceleration"), 0.5, 2.0)
    dense = materialize(combined.adapter)
    np.testing.assert_allclose(dense["layer0.weight"], 0.5 * materialize(s1)["layer0.weight"], atol=1e-15)
    np.testing.assert_allclose(dense["layer1.weight"], 2.0 * materialize(s2)["layer1.weight"], atol=1e-15)


def test_combine_incompatible_dims():
    net_a = make_net(seed=60)
    net_b = DenoiserNet(data_dim=2, hidden=(24, 24), num_conditions=8,
                        stream=substream(61, "init"))
    s1 = attach(net_a, target_names=["layer1.weight"], rank=2, stream=substream(62, "s"))
    s2 = attach(net_b, target_names=["layer1.weight"], rank=2, stream=substream(63, "s"))
    with pytest.raises(AdapterError):
        combine(AdapterBundle(s1, "style"), AdapterBundle(s2, "acceleration"), 1.0, 1.0)


def test_combine_rejects_different_bases():
    # the shared layer has one shape in both nets, so only the recorded bases differ
    net_a = make_net(seed=64)
    net_b = DenoiserNet(data_dim=2, hidden=(16, 16, 16), num_conditions=8,
                        stream=substream(65, "init"))
    s1 = attach(net_a, target_names=["layer1.weight"], rank=2, stream=substream(66, "s"))
    s2 = attach(net_b, target_names=["layer1.weight"], rank=2, stream=substream(67, "s"))
    with pytest.raises(AdapterError) as err:
        combine(AdapterBundle(s1, "style"), AdapterBundle(s2, "acceleration"), 1.0, 1.0)
    assert str(err.value) == ("adapters were built against different base architectures: "
                              f"style {net_fingerprint(net_a)} vs acceleration "
                              f"{net_fingerprint(net_b)}")


@pytest.mark.parametrize("weights,named", [((float("nan"), 1.0), "bad 'lambda1' nan"),
                                           ((0.8, float("-inf")), "bad 'lambda2' -inf"),
                                           (("0.8", 1.0), "bad 'lambda1' '0.8'")])
def test_combine_rejects_weights_that_are_not_finite_numbers(weights, named):
    net = make_net(seed=68)
    s1 = attach(net, target_names=["layer1.weight"], rank=2, stream=substream(69, "s"))
    s2 = attach(net, target_names=["layer1.weight"], rank=2, stream=substream(70, "s"))
    with pytest.raises(AdapterError) as err:
        combine(AdapterBundle(s1, "style"), AdapterBundle(s2, "acceleration"), *weights)
    assert str(err.value) == f"combine weights: {named}"


@pytest.mark.parametrize("use", ["merge", "lcd_distill", "finetune_style_lora", "load_adapter"])
def test_foreign_adapter_rejected_with_one_message(tmp_path, use):
    net = make_net()
    other = DenoiserNet(data_dim=2, hidden=(16, 16, 16), num_conditions=8,
                        stream=substream(1, "init"))
    # layer0 and layer1 have the same shapes in both nets; layer3 exists only in other
    foreign = attach(other, target_names=["layer0.weight", "layer1.weight", "layer3.weight"],
                     rank=2, stream=substream(2, "s"))
    save_adapter(tmp_path / "f.ckpt", AdapterBundle(foreign, "style"))
    sched = make_schedule(50)
    data = make_dataset("ring8", 64, 0)
    calls = {
        "merge": lambda: merge(net, foreign),
        "lcd_distill": lambda: lcd_distill(net, foreign, data, Encoder.identity(), sched,
                                           DistillConfig(steps=1)),
        "finetune_style_lora": lambda: finetune_style_lora(net, foreign, data,
                                                           Encoder.identity(), sched,
                                                           TrainOpts(steps=1)),
        "load_adapter": lambda: load_adapter(tmp_path / "f.ckpt", base_net=net),
    }
    with pytest.raises(AdapterError) as err:
        calls[use]()
    assert str(err.value) == ("adapter/base architecture mismatch: adapter was built against "
                              f"{net_fingerprint(other)}, base network is {net_fingerprint(net)}")


def test_frozen_base_gets_zero_gradient():
    net = make_net(seed=70)
    net.set_trainable(True)
    adapter = randomize_adapter(attach(net, rank=4, stream=substream(71, "s"), cap_rank=True), seed=72)
    # attach froze the base; loss through the adapted path must not reach it
    sched = make_schedule(50)
    z = substream(73, "z").normal((4, 2))
    with GradTape() as tape:
        out = net.forward(z, 1.0, 0, sched.t_of(10), adapter=adapter)
        tape.backward(sum_all(out))
    for p in net.params.values():
        assert p.grad is None
    for p in adapter.trainable_params():
        assert p.grad is not None
