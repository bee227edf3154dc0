"""Checkpoint directories: manifest.json plus raw little-endian weights.

A checkpoint is a directory holding manifest.json (format version, ordered
tensor table with byte offsets, metadata, SHA-256 of the weight blob) and
weights.bin (the tensors' float64 scalars, row-major, concatenated in
manifest order). Loads verify the hash and the offset table before touching
any tensor, and round-trip bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from cdlora.denoiser import DenoiserNet, net_fingerprint
from cdlora.lora import AdapterBundle, LoraAdapter, LoraEntry, check_fit
from cdlora.schedule import NoiseSchedule, make_schedule
from cdlora.tensor import Tensor

FORMAT_VERSION = 1
_DTYPE = "<f8"


class CheckpointError(RuntimeError):
    """Checkpoint read/write failure."""


class CorruptionError(CheckpointError):
    """Hash or offset-table verification failed."""


class VersionError(CheckpointError):
    """Unsupported checkpoint format version."""


def save_checkpoint(path, tensors: dict, metadata: dict) -> None:
    """Write a checkpoint directory; tensor order follows dict order."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    table = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        raw = arr.astype(_DTYPE).tobytes()
        table.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": _DTYPE,
            "byte_offset": offset,
            "byte_length": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    blob = b"".join(blobs)
    manifest = {
        "format_version": FORMAT_VERSION,
        "tensors": table,
        "weights_sha256": hashlib.sha256(blob).hexdigest(),
        "metadata": metadata,
    }
    with open(path / "weights.bin", "wb") as fh:
        fh.write(blob)
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _table_problems(table) -> list[str]:
    """Bad entries of a manifest's tensor table, each named by its index.

    An entry needs a string name, a shape of non-negative ints, the float64
    dtype, an int offset, and the byte length its shape implies.
    """
    if not isinstance(table, list):
        return [f"'tensors' is a JSON {type(table).__name__}, not a list"]
    itemsize = np.dtype(_DTYPE).itemsize
    problems = []
    for i, entry in enumerate(table):
        if not isinstance(entry, dict):
            problems.append(f"entry {i} is a JSON {type(entry).__name__}, not an object")
            continue
        name, shape, length = entry.get("name"), entry.get("shape"), entry.get("byte_length")
        shape_ok = isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
        ok = {
            "name": isinstance(name, str),
            "shape": shape_ok,
            "dtype": entry.get("dtype") == _DTYPE,
            "byte_offset": type(entry.get("byte_offset")) is int,
            "byte_length": type(length) is int,
        }
        bad = [f"missing {key!r}" if key not in entry else f"bad {key!r} {entry[key]!r}"
               for key, good in ok.items() if not good]
        if shape_ok and ok["byte_length"] and length != itemsize * math.prod(shape):
            bad.append(f"'byte_length' {length}, but shape {shape} takes "
                       f"{itemsize * math.prod(shape)}")
        if bad:
            label = f"entry {i} {name!r}" if ok["name"] else f"entry {i}"
            problems.append(f"{label}: {', '.join(bad)}")
    return problems


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read a checkpoint directory back into (tensors, metadata).

    Verifies the format version, every entry of the tensor table, that the
    offset table tiles the weight blob exactly, and the SHA-256 of the blob.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no manifest.json under {path}")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as err:
            raise CorruptionError(f"{manifest_path} is not valid JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise CorruptionError(f"{manifest_path} holds a JSON {type(manifest).__name__}, "
                              "not an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"checkpoint format version {version}, supported: {FORMAT_VERSION}")
    for key in ("tensors", "weights_sha256", "metadata"):
        if key not in manifest:
            raise CorruptionError(f"{manifest_path} lacks the {key!r} key")
    problems = _table_problems(manifest["tensors"])
    if problems:
        raise CorruptionError(f"{manifest_path} tensor table: {'; '.join(problems)}")
    with open(path / "weights.bin", "rb") as fh:
        blob = fh.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["weights_sha256"]:
        raise CorruptionError(
            f"weights.bin hash mismatch: manifest {manifest['weights_sha256']}, file {digest}"
        )
    expected = 0
    for entry in manifest["tensors"]:
        if entry["byte_offset"] != expected:
            raise CorruptionError(
                f"tensor {entry['name']!r} offset {entry['byte_offset']} leaves a gap "
                f"(expected {expected})"
            )
        expected += entry["byte_length"]
    if expected != len(blob):
        raise CorruptionError(
            f"offset table covers {expected} bytes, weights.bin holds {len(blob)}"
        )
    tensors = {}
    for entry in manifest["tensors"]:
        raw = blob[entry["byte_offset"]:entry["byte_offset"] + entry["byte_length"]]
        arr = np.frombuffer(raw, dtype=_DTYPE).reshape(entry["shape"]).copy()
        tensors[entry["name"]] = arr
    return tensors, manifest["metadata"]


# ---------------------------------------------------------------------------
# network and adapter checkpoints


def save_net(path, net: DenoiserNet, sched: NoiseSchedule, sched_params: dict,
             extra: dict | None = None) -> None:
    meta = {
        "kind": "denoiser",
        "arch": net.arch(),
        "schedule": dict(sched_params),
        "fingerprint": net_fingerprint(net),
    }
    if extra:
        meta.update(extra)
    save_checkpoint(path, {n: p.data for n, p in net.params.items()}, meta)


def load_net(path) -> tuple[DenoiserNet, NoiseSchedule, dict]:
    """Load a denoiser checkpoint; its architecture record and every weight's
    shape are checked against each other before the net is built."""
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "denoiser":
        raise CheckpointError(f"{path} holds a {meta.get('kind')!r} checkpoint, wanted a denoiser")
    arch = meta.get("arch")
    if not isinstance(arch, dict):
        raise CheckpointError(f"{path} has no architecture record")
    fields = DenoiserNet.arch_fields()
    problems = ([f"missing field {name!r}" for name in fields if name not in arch]
                + [f"unknown field {name!r}" for name in arch if name not in fields])
    if problems:
        raise CheckpointError(f"{path} architecture record: {', '.join(problems)}")
    net = DenoiserNet(**arch)
    problems = []
    for name, p in net.params.items():
        if name not in tensors:
            problems.append(f"missing tensor {name!r}")
        elif tensors[name].shape != p.shape:
            problems.append(f"tensor {name!r} has shape {tensors[name].shape}, "
                            f"the architecture's is {p.shape}")
    if problems:
        raise CheckpointError(f"{path} weights: {', '.join(problems)}")
    for name in net.params:
        net.params[name] = Tensor(tensors[name], requires_grad=True)
    sp = meta["schedule"]
    sched = make_schedule(sp["N"], sp["beta_min"], sp["beta_max"])
    return net, sched, meta


def save_adapter(path, bundle: AdapterBundle, extra: dict | None = None) -> None:
    adapter = bundle.adapter
    meta = {
        "kind": "adapter",
        "role": bundle.role,
        "provenance": bundle.provenance,
        "targets": adapter.target_names(),
        "ranks": {n: e.rank for n, e in adapter.entries.items()},
        "scales": {n: e.scale for n, e in adapter.entries.items()},
        "base_fingerprint": adapter.base,
    }
    if extra:
        meta.update(extra)
    tensors = {}
    for name, e in adapter.entries.items():
        tensors[f"{name}.lora_A"] = e.a.data
        tensors[f"{name}.lora_B"] = e.b.data
    save_checkpoint(path, tensors, meta)


def _adapter_problems(tensors: dict, meta: dict) -> list[str]:
    """Missing or bad keys and factor tensors of an adapter record."""
    kinds = {"role": str, "provenance": dict, "targets": list, "ranks": dict,
             "scales": dict, "base_fingerprint": str}
    problems = [f"missing {key!r}" if key not in meta else f"bad {key!r}"
                for key, kind in kinds.items() if not isinstance(meta.get(key), kind)]
    if problems:
        return problems
    if not all(isinstance(name, str) for name in meta["targets"]):
        return ["bad 'targets'"]
    for name in meta["targets"]:
        rank, scale = meta["ranks"].get(name), meta["scales"].get(name)
        if type(rank) is not int or rank < 1:
            problems.append(f"bad 'ranks' entry for {name!r}")
        if type(scale) not in (int, float) or not np.isfinite(scale):
            problems.append(f"bad 'scales' entry for {name!r}")
        for factor, rank_axis in (("lora_A", 0), ("lora_B", 1)):
            key = f"{name}.{factor}"
            arr = tensors.get(key)
            if arr is None:
                problems.append(f"missing tensor {key!r}")
            elif arr.ndim != 2 or arr.shape[rank_axis] != rank:
                problems.append(f"tensor {key!r} has shape {arr.shape}, not rank {rank}")
    return problems


def load_adapter(path, base_net: DenoiserNet | None = None) -> AdapterBundle:
    """Load an adapter bundle; verifies base pairing when a net is given.

    The record's keys and factor tensors are checked before any is used; a
    bad record raises CheckpointError naming the file and every problem.
    """
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "adapter":
        raise CheckpointError(f"{path} holds a {meta.get('kind')!r} checkpoint, wanted an adapter")
    problems = _adapter_problems(tensors, meta)
    if problems:
        raise CheckpointError(f"{path} adapter record: {', '.join(problems)}")
    adapter = LoraAdapter(meta["base_fingerprint"])
    for name in meta["targets"]:
        adapter.entries[name] = LoraEntry(
            a=Tensor(tensors[f"{name}.lora_A"], requires_grad=True),
            b=Tensor(tensors[f"{name}.lora_B"], requires_grad=True),
            scale=meta["scales"][name],
        )
    if base_net is not None:
        check_fit(adapter, base_net, f"{path} adapter")
    return AdapterBundle(adapter=adapter, role=meta["role"], provenance=meta["provenance"])
