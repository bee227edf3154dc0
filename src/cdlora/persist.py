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
from pathlib import Path

import numpy as np

from cdlora.denoiser import DenoiserNet
from cdlora.lora import AdapterBundle, AdapterError, LoraAdapter, LoraEntry
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


def architecture_fingerprint(named_shapes) -> str:
    """Stable hash of (layer name, shape) pairs for compatibility checks."""
    payload = json.dumps([[n, list(s)] for n, s in named_shapes], sort_keys=False)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read a checkpoint directory back into (tensors, metadata).

    Verifies the format version, that the offset table tiles the weight blob
    exactly, and the SHA-256 of the blob.
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
        arr = np.frombuffer(raw, dtype=entry["dtype"]).reshape(entry["shape"]).copy()
        tensors[entry["name"]] = arr
    return tensors, manifest["metadata"]


# ---------------------------------------------------------------------------
# network and adapter checkpoints


def net_fingerprint(net: DenoiserNet) -> str:
    return architecture_fingerprint(net.named_shapes())


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
    for name in net.params:
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        net.params[name] = Tensor(tensors[name], requires_grad=True)
    sp = meta["schedule"]
    sched = make_schedule(sp["N"], sp["beta_min"], sp["beta_max"])
    return net, sched, meta


def save_adapter(path, bundle: AdapterBundle, base_fingerprint: str,
                 extra: dict | None = None) -> None:
    adapter = bundle.adapter
    meta = {
        "kind": "adapter",
        "role": bundle.role,
        "provenance": bundle.provenance,
        "targets": adapter.target_names(),
        "ranks": {n: e.rank for n, e in adapter.entries.items()},
        "scales": {n: e.scale for n, e in adapter.entries.items()},
        "base_fingerprint": base_fingerprint,
    }
    if extra:
        meta.update(extra)
    save_checkpoint(path, adapter.snapshot(), meta)


def load_adapter(path, base_net: DenoiserNet | None = None) -> AdapterBundle:
    """Load an adapter bundle; verifies base pairing when a net is given."""
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "adapter":
        raise CheckpointError(f"{path} holds a {meta.get('kind')!r} checkpoint, wanted an adapter")
    if base_net is not None:
        fp = net_fingerprint(base_net)
        if fp != meta["base_fingerprint"]:
            raise AdapterError(
                "adapter/base architecture mismatch: adapter was built against "
                f"{meta['base_fingerprint']}, base network is {fp}"
            )
    adapter = LoraAdapter()
    for name in meta["targets"]:
        adapter.entries[name] = LoraEntry(
            a=Tensor(tensors[f"{name}.lora_A"], requires_grad=True),
            b=Tensor(tensors[f"{name}.lora_B"], requires_grad=True),
            rank=meta["ranks"][name],
            scale=meta["scales"][name],
        )
    return AdapterBundle(adapter=adapter, role=meta["role"], provenance=meta["provenance"])
