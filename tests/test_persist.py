import json

import numpy as np
import pytest

from cdlora.denoiser import SIGMA_DATA, DenoiserNet, architecture_fingerprint, net_fingerprint
from cdlora.lora import AdapterBundle, AdapterError, attach
from cdlora.persist import (
    CheckpointError,
    CorruptionError,
    VersionError,
    load_adapter,
    load_checkpoint,
    load_net,
    save_adapter,
    save_checkpoint,
    save_net,
)
from cdlora.rng import substream
from cdlora.schedule import make_schedule


def random_tensors(seed=0):
    stream = substream(seed, "ckpt")
    return {
        "layer0.weight": stream.normal((8, 4)),
        "layer0.bias": stream.normal(4),
        "cond_table": stream.normal((3, 2)),
    }


def test_round_trip_bit_identical(tmp_path):
    tensors = random_tensors()
    meta = {"kind": "test", "note": "round trip"}
    save_checkpoint(tmp_path / "c.ckpt", tensors, meta)
    loaded, meta2 = load_checkpoint(tmp_path / "c.ckpt")
    assert meta2 == meta
    assert list(loaded.keys()) == list(tensors.keys())
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_truncated_weights_rejected(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})
    blob = (tmp_path / "c.ckpt" / "weights.bin").read_bytes()
    (tmp_path / "c.ckpt" / "weights.bin").write_bytes(blob[:-1])
    with pytest.raises(CorruptionError):
        load_checkpoint(tmp_path / "c.ckpt")


def test_flipped_byte_rejected(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})
    blob = bytearray((tmp_path / "c.ckpt" / "weights.bin").read_bytes())
    blob[5] ^= 0xFF
    (tmp_path / "c.ckpt" / "weights.bin").write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        load_checkpoint(tmp_path / "c.ckpt")


def test_version_mismatch_rejected(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})
    manifest = json.loads((tmp_path / "c.ckpt" / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "c.ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionError):
        load_checkpoint(tmp_path / "c.ckpt")


def test_offset_table_must_tile_exactly(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})
    manifest = json.loads((tmp_path / "c.ckpt" / "manifest.json").read_text())
    manifest["tensors"][1]["byte_offset"] += 8
    (tmp_path / "c.ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptionError):
        load_checkpoint(tmp_path / "c.ckpt")


def test_offsets_cover_file(tmp_path):
    tensors = random_tensors()
    save_checkpoint(tmp_path / "c.ckpt", tensors, {})
    manifest = json.loads((tmp_path / "c.ckpt" / "manifest.json").read_text())
    total = sum(e["byte_length"] for e in manifest["tensors"])
    assert total == (tmp_path / "c.ckpt" / "weights.bin").stat().st_size
    offsets = sorted((e["byte_offset"], e["byte_length"]) for e in manifest["tensors"])
    cursor = 0
    for off, length in offsets:
        assert off == cursor
        cursor += length
    assert cursor == total


def test_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_net_round_trip(tmp_path):
    sched = make_schedule(50)
    net = DenoiserNet(data_dim=3, hidden=(16, 12), time_dim=6, guidance_dim=4, cond_dim=5,
                      num_conditions=3, omega_ref=4.0, stream=substream(1, "init"))
    # every architecture field is off its default, so a dropped field shows
    default_arch = DenoiserNet().arch()
    assert set(net.arch()) == set(default_arch)
    assert all(net.arch()[name] != default_arch[name] for name in default_arch)
    sched_params = {"N": 50, "beta_min": 1e-4, "beta_max": 0.05}
    save_net(tmp_path / "net.ckpt", net, sched, sched_params, {"sigma_data": 0.5})
    net2, sched2, meta = load_net(tmp_path / "net.ckpt")
    assert sched2.N == sched.N
    assert meta["sigma_data"] == 0.5
    assert meta["schedule"] == sched_params
    for name, p in net.params.items():
        assert np.array_equal(net2.params[name].data, p.data)
    assert net_fingerprint(net2) == net_fingerprint(net)
    # omega_ref is no weight shape, so only the arch record carries it
    for twin in (net2, net.clone()):
        assert twin.arch() == net.arch()


def _rewrite_manifest(ckpt, edit):
    path = ckpt / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def test_manifest_not_an_object_rejected(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})
    _rewrite_manifest(tmp_path / "c.ckpt", lambda m: [m])
    with pytest.raises(CorruptionError, match="list"):
        load_checkpoint(tmp_path / "c.ckpt")
    (tmp_path / "c.ckpt" / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptionError, match="not valid JSON"):
        load_checkpoint(tmp_path / "c.ckpt")


@pytest.mark.parametrize("key", ["tensors", "weights_sha256", "metadata"])
def test_manifest_missing_key_rejected(tmp_path, key):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})
    _rewrite_manifest(tmp_path / "c.ckpt", lambda m: {k: v for k, v in m.items() if k != key})
    with pytest.raises(CorruptionError, match=key):
        load_checkpoint(tmp_path / "c.ckpt")


def test_net_arch_record_names_missing_and_unknown_fields(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2, stream=substream(6, "init"))
    save_net(tmp_path / "net.ckpt", net, make_schedule(10),
             {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})

    def edit_arch(m):
        del m["metadata"]["arch"]["omega_ref"]
        del m["metadata"]["arch"]["cond_dim"]
        m["metadata"]["arch"]["depth"] = 3
        return m

    _rewrite_manifest(tmp_path / "net.ckpt", edit_arch)
    with pytest.raises(CheckpointError) as err:
        load_net(tmp_path / "net.ckpt")
    for name in ("omega_ref", "cond_dim", "depth"):
        assert name in str(err.value)


def _layer0(table):
    return next(entry for entry in table if entry["name"] == "layer0.weight")


def _drop_offset(table):
    del _layer0(table)["byte_offset"]


def _table_as_object(table):
    return {entry["name"]: entry for entry in table}


def _seven_by_seven(table):
    _layer0(table)["shape"] = [7, 7]


def _transposed(table):
    _layer0(table)["shape"].reverse()


def _as_float32(table):
    # the same bytes, declared as twice as many float32 columns
    entry = _layer0(table)
    entry["dtype"] = "<f4"
    entry["shape"][1] *= 2


# layer0.weight of the hidden-(8,) net below is (34, 8): 2,176 bytes of float64
@pytest.mark.parametrize("edit,named", [
    (_drop_offset, "'layer0.weight': missing 'byte_offset'"),
    (_table_as_object, "'tensors' is a JSON dict, not a list"),
    (_seven_by_seven, "'layer0.weight': 'byte_length' 2176, but shape [7, 7] takes 392"),
    (_transposed, "'layer0.weight' has shape (8, 34), the architecture's is (34, 8)"),
    (_as_float32, "'layer0.weight': bad 'dtype' '<f4'"),
], ids=["no-offset", "object", "wrong-size", "transposed", "float32"])
def test_net_tensor_record_checked(tmp_path, edit, named):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2, stream=substream(6, "init"))
    save_net(tmp_path / "net.ckpt", net, make_schedule(10),
             {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})

    def edit_table(m):
        m["tensors"] = edit(m["tensors"]) or m["tensors"]
        return m

    _rewrite_manifest(tmp_path / "net.ckpt", edit_table)
    with pytest.raises(CheckpointError) as err:
        load_net(tmp_path / "net.ckpt")
    msg = str(err.value)
    assert str(tmp_path / "net.ckpt") in msg and named in msg and "\n" not in msg


def test_tensor_table_names_every_bad_entry(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})

    def edit(m):
        m["tensors"][0]["shape"] = [8, -4]
        del m["tensors"][1]["name"]
        m["tensors"][2]["byte_offset"] = "48"
        return m

    _rewrite_manifest(tmp_path / "c.ckpt", edit)
    with pytest.raises(CorruptionError) as err:
        load_checkpoint(tmp_path / "c.ckpt")
    msg = str(err.value)
    for part in ("entry 0 'layer0.weight': bad 'shape' [8, -4]", "entry 1: missing 'name'",
                 "entry 2 'cond_table': bad 'byte_offset' '48'"):
        assert part in msg
    assert "\n" not in msg


def test_tensor_table_rejects_a_repeated_name(tmp_path):
    save_checkpoint(tmp_path / "c.ckpt", random_tensors(), {})

    def edit(m):
        # a reader keyed by name would keep only the second 'layer0.weight'
        m["tensors"][1]["name"] = "layer0.weight"
        return m

    _rewrite_manifest(tmp_path / "c.ckpt", edit)
    with pytest.raises(CorruptionError, match="entry 1 'layer0.weight': 'name' repeats entry 0"):
        load_checkpoint(tmp_path / "c.ckpt")


def _small_net(tmp_path, extra=None):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2, stream=substream(6, "init"))
    save_net(tmp_path / "net.ckpt", net, make_schedule(10),
             {"N": 10, "beta_min": 1e-4, "beta_max": 0.05}, extra)
    return net


def test_net_rejects_a_tensor_its_record_does_not_imply(tmp_path):
    _small_net(tmp_path)
    tensors, meta = load_checkpoint(tmp_path / "net.ckpt")
    save_checkpoint(tmp_path / "net.ckpt", {**tensors, "extra": np.zeros(3)}, meta)
    with pytest.raises(CheckpointError) as err:
        load_net(tmp_path / "net.ckpt")
    assert str(err.value) == f"{tmp_path / 'net.ckpt'} denoiser weights: unexpected tensor 'extra'"


@pytest.mark.parametrize("value", [-1, 0, "abc", float("nan"), float("inf"), True, None])
def test_net_sigma_data_checked(tmp_path, value):
    # save_net refuses the record, so the bad value goes into the manifest by hand
    with pytest.raises(CheckpointError, match="'sigma_data'"):
        _small_net(tmp_path, {"sigma_data": value})
    assert not (tmp_path / "net.ckpt").exists()
    _small_net(tmp_path)
    _rewrite_manifest(tmp_path / "net.ckpt", lambda m: {
        **m, "metadata": {**m["metadata"], "sigma_data": value}})
    with pytest.raises(CheckpointError) as err:
        load_net(tmp_path / "net.ckpt")
    assert str(err.value) == f"{tmp_path / 'net.ckpt'} denoiser record: bad 'sigma_data' {value!r}"


def test_saves_refuse_records_that_loads_reject(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2)
    for params, named in [({"N": 10, "beta_min": 0.2, "beta_max": 0.05},
                           "'schedule' entry for 'beta_max' 0.05 is below 'beta_min' 0.2"),
                          ({"N": 10, "beta_min": 1e-4}, "missing 'schedule' entry for 'beta_max'")]:
        with pytest.raises(CheckpointError, match=named):
            save_net(tmp_path / "net.ckpt", net, make_schedule(10), params)
    bundle = AdapterBundle(attach(net, rank=2, cap_rank=True), None, {})
    with pytest.raises(CheckpointError, match="bad 'role' None"):
        save_adapter(tmp_path / "a.ckpt", bundle)
    assert list(tmp_path.iterdir()) == []


def test_save_net_refuses_a_record_of_another_schedule(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2)
    with pytest.raises(CheckpointError) as err:
        save_net(tmp_path / "net.ckpt", net, make_schedule(10),
                 {"N": 50, "beta_min": 1e-4, "beta_max": 0.05})
    assert str(err.value) == (
        f"{tmp_path / 'net.ckpt'} denoiser record: 'schedule' {{'N': 50, 'beta_min': 0.0001, "
        "'beta_max': 0.05} is not the net's, N = 10, betas 0.0001 to 0.05")
    assert list(tmp_path.iterdir()) == []


def test_net_record_defaults_sigma_data_and_drops_the_fingerprint(tmp_path):
    net = _small_net(tmp_path)
    manifest = json.loads((tmp_path / "net.ckpt" / "manifest.json").read_text())
    # arch already fixes the fingerprint, which check_fit recomputes from the net
    assert set(manifest["metadata"]) == {"kind", "arch", "schedule"}
    assert load_net(tmp_path / "net.ckpt")[2]["sigma_data"] == SIGMA_DATA
    # a checkpoint written before the key was dropped still loads
    _rewrite_manifest(tmp_path / "net.ckpt", lambda m: {
        **m, "metadata": {**m["metadata"], "fingerprint": net_fingerprint(net)}})
    assert load_net(tmp_path / "net.ckpt")[0].arch() == net.arch()


def test_adapter_round_trip_and_pairing(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(16, 16), num_conditions=8,
                      stream=substream(2, "init"))
    adapter = attach(net, rank=3, stream=substream(3, "lora"), cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = substream(4, "b").normal(e.b.shape)
    bundle = AdapterBundle(adapter, "acceleration", {"solver": "ddim", "k": 5})
    save_adapter(tmp_path / "a.ckpt", bundle)
    loaded = load_adapter(tmp_path / "a.ckpt", base_net=net)
    assert loaded.role == "acceleration"
    assert loaded.provenance["k"] == 5
    for name, e in adapter.entries.items():
        le = loaded.adapter.entries[name]
        assert np.array_equal(le.a.data, e.a.data)
        assert np.array_equal(le.b.data, e.b.data)
        assert le.rank == e.rank == le.a.shape[0] and le.scale == e.scale
    other = DenoiserNet(data_dim=2, hidden=(24,), num_conditions=8,
                        stream=substream(5, "init"))
    with pytest.raises(AdapterError) as err:
        load_adapter(tmp_path / "a.ckpt", base_net=other)
    assert net_fingerprint(other) in str(err.value)


def _adapter_record(tmp_path):
    """A saved rank-2 adapter's tensors and metadata, ready to corrupt and re-save."""
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2, stream=substream(8, "init"))
    adapter = attach(net, rank=2, stream=substream(9, "lora"), cap_rank=True)
    save_adapter(tmp_path / "a.ckpt", AdapterBundle(adapter, "style", {"k": 1}))
    tensors, meta = load_checkpoint(tmp_path / "a.ckpt")
    return net, tensors, meta


@pytest.mark.parametrize("key", ["base_fingerprint", "targets", "ranks", "scales", "role",
                                 "provenance"])
def test_adapter_record_missing_or_bad_key_named(tmp_path, key):
    net, tensors, meta = _adapter_record(tmp_path)
    for value, word in ((None, "missing"), (7, "bad")):
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        save_checkpoint(tmp_path / "b.ckpt", tensors, meta)
        with pytest.raises(CheckpointError) as err:
            load_adapter(tmp_path / "b.ckpt", base_net=net)
        msg = str(err.value)
        assert str(tmp_path / "b.ckpt") in msg and f"{word} {key!r}" in msg and "\n" not in msg


def test_adapter_record_names_every_bad_entry_and_tensor(tmp_path):
    net, tensors, meta = _adapter_record(tmp_path)
    meta["ranks"]["layer0.weight"] = "two"
    meta["scales"]["layer1.weight"] = float("inf")
    del tensors["time_proj.weight.lora_B"]
    tensors["guidance_proj.weight.lora_A"] = tensors["guidance_proj.weight.lora_A"][:1]
    save_checkpoint(tmp_path / "b.ckpt", tensors, meta)
    with pytest.raises(CheckpointError) as err:
        load_adapter(tmp_path / "b.ckpt")
    msg = str(err.value)
    for part in ("'ranks' entry for 'layer0.weight'", "'scales' entry for 'layer1.weight'",
                 "missing tensor 'time_proj.weight.lora_B'",
                 "'guidance_proj.weight.lora_A' has shape (1, 8)"):
        assert part in msg
    assert "\n" not in msg


def test_adapter_rejects_repeated_targets(tmp_path):
    net, tensors, meta = _adapter_record(tmp_path)
    meta["targets"].append("layer0.weight")
    save_checkpoint(tmp_path / "b.ckpt", tensors, meta)
    with pytest.raises(CheckpointError) as err:
        load_adapter(tmp_path / "b.ckpt", base_net=net)
    msg = str(err.value)
    assert str(tmp_path / "b.ckpt") in msg and "'targets'" in msg and "repeats" in msg


def test_adapter_rejects_a_tensor_no_target_names(tmp_path):
    net, tensors, meta = _adapter_record(tmp_path)
    tensors["layer9.weight.lora_A"] = np.zeros((2, 8))
    save_checkpoint(tmp_path / "b.ckpt", tensors, meta)
    with pytest.raises(CheckpointError) as err:
        load_adapter(tmp_path / "b.ckpt", base_net=net)
    assert str(err.value) == (f"{tmp_path / 'b.ckpt'} adapter record: "
                              "unexpected tensor 'layer9.weight.lora_A'")


def test_adapter_factors_must_fit_the_base_layers(tmp_path):
    net, tensors, meta = _adapter_record(tmp_path)
    tensors["layer0.weight.lora_A"] = np.zeros((2, 5))
    save_checkpoint(tmp_path / "b.ckpt", tensors, meta)
    load_adapter(tmp_path / "b.ckpt")  # consistent on its own
    with pytest.raises(AdapterError, match="layer0.weight"):
        load_adapter(tmp_path / "b.ckpt", base_net=net)


def test_kind_mismatch(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2,
                      stream=substream(6, "init"))
    sched = make_schedule(10)
    save_net(tmp_path / "net.ckpt", net, sched, {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})
    with pytest.raises(CheckpointError):
        load_adapter(tmp_path / "net.ckpt")
    adapter = attach(net, rank=2, stream=substream(7, "l"), cap_rank=True)
    save_adapter(tmp_path / "a.ckpt", AdapterBundle(adapter, "style", {}))
    with pytest.raises(CheckpointError):
        load_net(tmp_path / "a.ckpt")


def test_fingerprint_sensitivity():
    shapes = [("a.weight", (4, 4)), ("b.weight", (4, 2))]
    fp = architecture_fingerprint(shapes)
    assert fp != architecture_fingerprint([("a.weight", (4, 4)), ("b.weight", (4, 3))])
    assert fp != architecture_fingerprint([("a.weight", (4, 4)), ("c.weight", (4, 2))])
    assert fp == architecture_fingerprint([(n, tuple(s)) for n, s in shapes])
