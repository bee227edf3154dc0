"""Checkpoint directories: manifest.json plus raw little-endian weights.

A checkpoint is a directory holding manifest.json (format version, ordered
tensor table with byte offsets, metadata, SHA-256 of the weight blob) and
weights.bin (the tensors' float64 scalars, row-major, concatenated in
manifest order). Loads verify the hash and the offset table before touching
any tensor, and round-trip bit-identically. The manifest, the records and the
tensors each record implies are declarative specs, checked by the walker that
judges every setting, `denoiser.problems_of` (ARCH_RULES judge "arch",
make_schedule "schedule"), when a checkpoint is saved as well as when it is
loaded.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

from cdlora.denoiser import (ARCH_RULES, SIGMA_DATA, DenoiserNet, ints, list_of, numbers,
                              problems_of, reject)
from cdlora.lora import SCALE_RULE, AdapterBundle, LoraAdapter, LoraEntry, check_fit
from cdlora.schedule import NoiseSchedule, ScheduleError, make_schedule
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


def _of(kind):
    return lambda value: isinstance(value, kind)


def _tensor_table(table):
    """Test for a manifest's tensor table, naming every bad entry: entries have
    distinct string names, shapes of non-negative ints and the float64 dtype,
    and byte ranges that follow one another from 0, as long as shapes imply."""
    if not isinstance(table, list):
        return f"is a JSON {type(table).__name__}, not a list"
    problems, end = [], 0
    names = [entry.get("name") if isinstance(entry, dict) else None for entry in table]
    for i, entry in enumerate(table):
        if not isinstance(entry, dict):
            problems.append(f"entry {i} is a JSON {type(entry).__name__}, not an object")
            continue
        name, shape, length = entry.get("name"), entry.get("shape"), entry.get("byte_length")
        size = np.dtype(_DTYPE).itemsize * math.prod(shape) if list_of(ints(0))(shape) else None
        bad = problems_of(entry, {
            "name": lambda n: isinstance(n, str) and (
                names.index(n) == i or f"repeats entry {names.index(n)}"),
            "shape": list_of(ints(0)),
            "dtype": lambda dtype: dtype == _DTYPE,
            "byte_offset": lambda at: ints(0)(at) and (
                at == end or f"{at}, but the entries before it end at {end}"),
            "byte_length": lambda n: ints(0)(n) and (
                size in (None, n) or f"{n}, but shape {shape} takes {size}"),
        }, exact=True)
        if bad:
            label = f"entry {i} {name!r}" if isinstance(name, str) else f"entry {i}"
            problems.append(f"{label}: {', '.join(bad)}")
        end += length if ints(0)(length) else 0
    return "; ".join(problems) or True


_MANIFEST = {"tensors": _tensor_table, "weights_sha256": _of(str), "metadata": _of(dict)}

# DenoiserNet's rules judge "arch", and make_schedule judges the "schedule" values
_DENOISER = {
    "kind": lambda kind: kind == "denoiser",
    "arch": ARCH_RULES,
    "schedule": dict.fromkeys(inspect.signature(make_schedule).parameters, lambda value: True),
    "sigma_data": numbers(0),
}

_ADAPTER = {"kind": lambda kind: kind == "adapter", "role": _of(str), "provenance": _of(dict),
            "ranks": _of(dict), "scales": _of(dict), "base_fingerprint": _of(str),
            "targets": lambda names: list_of(_of(str))(names) and (
                len(set(names)) == len(names) or f"{names} repeats a name")}


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read a checkpoint directory back into (tensors, metadata).

    Verifies the format version, the manifest's keys and every entry of its
    tensor table, that the table covers the weight blob exactly, and the
    SHA-256 of the blob.
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
    reject(manifest_path, problems_of(manifest, _MANIFEST), CorruptionError)
    with open(path / "weights.bin", "rb") as fh:
        blob = fh.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["weights_sha256"]:
        raise CorruptionError(
            f"weights.bin hash mismatch: manifest {manifest['weights_sha256']}, file {digest}"
        )
    covered = sum(entry["byte_length"] for entry in manifest["tensors"])
    if covered != len(blob):
        raise CorruptionError(
            f"offset table covers {covered} bytes, weights.bin holds {len(blob)}"
        )
    tensors = {}
    for entry in manifest["tensors"]:
        raw = blob[entry["byte_offset"]:entry["byte_offset"] + entry["byte_length"]]
        arr = np.frombuffer(raw, dtype=_DTYPE).reshape(entry["shape"]).copy()
        tensors[entry["name"]] = arr
    return tensors, manifest["metadata"]


# ---------------------------------------------------------------------------
# network and adapter checkpoints


def _denoiser_schedule(path, meta: dict) -> NoiseSchedule:
    """Check a denoiser record as load_net reads it (sigma_data defaults to
    SIGMA_DATA) and return the schedule that make_schedule builds from it."""
    what = f"{path} denoiser record"
    reject(what, problems_of({"sigma_data": SIGMA_DATA, **meta}, _DENOISER), CheckpointError)
    try:
        return make_schedule(**meta["schedule"])
    except ScheduleError as err:
        raise CheckpointError(f"{what}: 'schedule' entry for {err}") from err


def net_record(path, net: DenoiserNet, sched: NoiseSchedule, sched_params: dict,
               extra: dict | None = None) -> dict:
    """The record save_net writes for net at path, checked as load_net checks it;
    sched_params must describe sched, the schedule the net is saved with."""
    meta = {"kind": "denoiser", "arch": net.arch(), "schedule": dict(sched_params),
            **(extra or {})}
    if not np.array_equal(_denoiser_schedule(path, meta).beta, sched.beta):
        raise CheckpointError(f"{path} denoiser record: 'schedule' {meta['schedule']} is not the "
                              f"net's, N = {sched.N}, betas {sched.beta[0]} to {sched.beta[-1]}")
    return meta


def save_net(path, net: DenoiserNet, sched: NoiseSchedule, sched_params: dict,
             extra: dict | None = None) -> None:
    """Write net as a denoiser checkpoint; a record load_net would reject, or one
    of a schedule other than sched, is not written."""
    save_checkpoint(path, {n: p.data for n, p in net.params.items()},
                    net_record(path, net, sched, sched_params, extra))


def load_net(path) -> tuple[DenoiserNet, NoiseSchedule, dict]:
    """Load a denoiser checkpoint: its record (sigma_data defaults to SIGMA_DATA) is
    checked by _denoiser_schedule before the net is built, and its tensors against the net's."""
    tensors, meta = load_checkpoint(path)
    meta.setdefault("sigma_data", SIGMA_DATA)
    sched = _denoiser_schedule(path, meta)
    net = DenoiserNet(**meta["arch"])
    weights = {name: lambda arr, want=p.shape: arr.shape == want or (
                   f"has shape {arr.shape}, the architecture's is {want}")
               for name, p in net.params.items()}
    reject(f"{path} denoiser weights", problems_of(tensors, weights, True, "tensor "),
           CheckpointError)
    for name in net.params:
        net.params[name] = Tensor(tensors[name], requires_grad=True)
    return net, sched, meta


def _check_adapter(path, meta: dict, tensors: dict) -> None:
    """The record, each target's rank, scale and two factors, and no other tensors."""
    reject(f"{path} adapter record", problems_of(meta, _ADAPTER), CheckpointError)
    entries = {"ranks": dict.fromkeys(meta["targets"], ints(1)),
               "scales": dict.fromkeys(meta["targets"], SCALE_RULE)}
    factors = {f"{name}.{factor}": lambda arr, rank=meta["ranks"].get(name), axis=axis: (
                   (arr.ndim == 2 and arr.shape[axis] == rank)
                   or f"has shape {arr.shape}, not rank {rank}")
               for name in meta["targets"] for factor, axis in (("lora_A", 0), ("lora_B", 1))}
    reject(f"{path} adapter record",
           problems_of(meta, entries) + problems_of(tensors, factors, True, "tensor "),
           CheckpointError)


def save_adapter(path, bundle: AdapterBundle, extra: dict | None = None) -> None:
    """Write an adapter checkpoint; a record load_adapter would reject is not written."""
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
    _check_adapter(path, meta, tensors)
    save_checkpoint(path, tensors, meta)


def load_adapter(path, base_net: DenoiserNet | None = None) -> AdapterBundle:
    """Load an adapter bundle, checked as _check_adapter says before any
    tensor is used; verifies base pairing when a net is given."""
    tensors, meta = load_checkpoint(path)
    _check_adapter(path, meta, tensors)
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
