import json

import numpy as np
import pytest

from cdlora.denoiser import DenoiserNet
from cdlora.lora import AdapterBundle, AdapterError, attach
from cdlora.persist import (
    CheckpointError,
    CorruptionError,
    VersionError,
    architecture_fingerprint,
    load_adapter,
    load_checkpoint,
    load_net,
    net_fingerprint,
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


def test_adapter_round_trip_and_pairing(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(16, 16), num_conditions=8,
                      stream=substream(2, "init"))
    adapter = attach(net, rank=3, stream=substream(3, "lora"), cap_rank=True)
    for e in adapter.entries.values():
        e.b.data[:] = substream(4, "b").normal(e.b.shape)
    bundle = AdapterBundle(adapter, "acceleration", {"solver": "ddim", "k": 5})
    save_adapter(tmp_path / "a.ckpt", bundle, net_fingerprint(net))
    loaded = load_adapter(tmp_path / "a.ckpt", base_net=net)
    assert loaded.role == "acceleration"
    assert loaded.provenance["k"] == 5
    for name, e in adapter.entries.items():
        le = loaded.adapter.entries[name]
        assert np.array_equal(le.a.data, e.a.data)
        assert np.array_equal(le.b.data, e.b.data)
        assert le.rank == e.rank and le.scale == e.scale
    other = DenoiserNet(data_dim=2, hidden=(24,), num_conditions=8,
                        stream=substream(5, "init"))
    with pytest.raises(AdapterError) as err:
        load_adapter(tmp_path / "a.ckpt", base_net=other)
    assert net_fingerprint(other) in str(err.value)


def test_kind_mismatch(tmp_path):
    net = DenoiserNet(data_dim=2, hidden=(8,), num_conditions=2,
                      stream=substream(6, "init"))
    sched = make_schedule(10)
    save_net(tmp_path / "net.ckpt", net, sched, {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})
    with pytest.raises(CheckpointError):
        load_adapter(tmp_path / "net.ckpt")
    adapter = attach(net, rank=2, stream=substream(7, "l"), cap_rank=True)
    save_adapter(tmp_path / "a.ckpt", AdapterBundle(adapter, "style", {}), "abc")
    with pytest.raises(CheckpointError):
        load_net(tmp_path / "a.ckpt")


def test_fingerprint_sensitivity():
    shapes = [("a.weight", (4, 4)), ("b.weight", (4, 2))]
    fp = architecture_fingerprint(shapes)
    assert fp != architecture_fingerprint([("a.weight", (4, 4)), ("b.weight", (4, 3))])
    assert fp != architecture_fingerprint([("a.weight", (4, 4)), ("c.weight", (4, 2))])
    assert fp == architecture_fingerprint([(n, tuple(s)) for n, s in shapes])
