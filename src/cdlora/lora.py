"""Low-rank adapters over the denoiser's dense layers.

Each adapted layer computes W0 x + s * B(Ax) with A (r x in) Gaussian-init
and B (out x r) zero-init, so a fresh adapter leaves the model bit-identical
to its base. Adapters are first-class weight-space vectors: they can be
merged into the base (W0 + s*BA), linearly combined with each other, or
densified for inspection. Combination keeps the low-rank form by rank
concatenation, which is algebraically the weighted sum of the dense deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from cdlora.denoiser import DenoiserNet
from cdlora.tensor import Tensor


class AdapterError(ValueError):
    """Adapter construction or combination violates a structural constraint."""


@dataclass
class LoraEntry:
    a: Tensor  # (rank, in)
    b: Tensor  # (out, rank)
    rank: int
    scale: float

    def delta(self) -> np.ndarray:
        """Dense (in, out) weight delta s * (BA)^T in the row-vector convention."""
        return self.scale * (self.b.data @ self.a.data).T


class LoraAdapter:
    """Per-layer low-rank factors keyed by the wrapped layer's name."""

    def __init__(self, entries: Optional[dict] = None):
        self.entries: dict[str, LoraEntry] = entries if entries is not None else {}

    def trainable_params(self) -> list[Tensor]:
        out = []
        for e in self.entries.values():
            out.extend([e.a, e.b])
        return out

    def target_names(self) -> list[str]:
        return list(self.entries.keys())

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all factors, keyed as checkpoint tensors."""
        out = {}
        for name, e in self.entries.items():
            out[f"{name}.lora_A"] = e.a.data.copy()
            out[f"{name}.lora_B"] = e.b.data.copy()
        return out

    def detached_clone(self) -> "LoraAdapter":
        clone = LoraAdapter()
        for name, e in self.entries.items():
            clone.entries[name] = LoraEntry(
                a=Tensor(e.a.data.copy()), b=Tensor(e.b.data.copy()),
                rank=e.rank, scale=e.scale,
            )
        return clone


@dataclass
class AdapterBundle:
    """An adapter plus its role in the weight arithmetic.

    Roles: "acceleration" (produced by consistency distillation), "style"
    (produced by fine-tuning on a styled dataset), or "combined". Combined
    bundles record both lambda weights and both parent roles.
    """

    adapter: LoraAdapter
    role: str
    provenance: dict = field(default_factory=dict)


def attach(
    net: DenoiserNet,
    target_names: Optional[list[str]] = None,
    rank: int = 8,
    scale: float = 1.0,
    stream=None,
    cap_rank: bool = False,
) -> LoraAdapter:
    """Create fresh low-rank factors for the named weight matrices.

    A is Gaussian with variance 1/rank, B is zero, so the adapted forward
    equals the base forward exactly until training moves B. Base weights are
    flagged frozen. Biases and the condition table are never valid targets.

    A rank above a layer's min(d, k) is an error unless cap_rank is set, in
    which case the entry's rank is clipped to min(d, k); full-coverage
    attachment needs the cap because the output layer is as narrow as the
    data. Ranks are recorded per entry.
    """
    if rank < 1:
        raise AdapterError(f"rank must be >= 1, got {rank}")
    if target_names is None:
        target_names = net.weight_matrix_names()
    seen = set()
    adapter = LoraAdapter()
    for name in target_names:
        if name in seen:
            raise AdapterError(f"layer {name!r} targeted twice")
        seen.add(name)
        param = net.params.get(name)
        if param is None:
            raise AdapterError(f"unknown layer name {name!r}")
        if param.data.ndim != 2 or not name.endswith(".weight"):
            raise AdapterError(f"{name!r} is not a dense weight matrix")
        d_in, d_out = param.shape
        r = rank
        if r > min(d_in, d_out):
            if not cap_rank:
                raise AdapterError(
                    f"rank {rank} exceeds min(d, k) = {min(d_in, d_out)} for layer {name!r}"
                )
            r = min(d_in, d_out)
        a = stream.normal((r, d_in)) / np.sqrt(r) if stream is not None else np.zeros((r, d_in))
        adapter.entries[name] = LoraEntry(
            a=Tensor(a, requires_grad=True),
            b=Tensor(np.zeros((d_out, r)), requires_grad=True),
            rank=r,
            scale=scale,
        )
    net.set_trainable(False)
    return adapter


def count_trainable(adapter: LoraAdapter) -> int:
    """Trainable parameter count: sum over entries of rank * (d + k)."""
    total = 0
    for e in adapter.entries.values():
        d_out, _ = e.b.shape
        _, d_in = e.a.shape
        total += e.rank * (d_out + d_in)
    return total


def merge(base: DenoiserNet, adapter: LoraAdapter) -> DenoiserNet:
    """New network with W = W0 + s*BA folded into every targeted layer."""
    merged = base.clone()
    for name, e in adapter.entries.items():
        param = merged.params.get(name)
        if param is None:
            raise AdapterError(f"adapter targets {name!r}, absent from the base network")
        delta = e.delta()
        if delta.shape != param.shape:
            raise AdapterError(
                f"adapter entry {name!r} has delta shape {delta.shape}, layer is {param.shape}"
            )
        merged.params[name] = Tensor(param.data + delta, requires_grad=param.requires_grad)
    return merged


def materialize(adapter: LoraAdapter) -> dict[str, np.ndarray]:
    """Dense per-layer weight deltas (explicit densification)."""
    return {name: e.delta() for name, e in adapter.entries.items()}


def combine(style: AdapterBundle, accel: AdapterBundle, lambda1: float, lambda2: float) -> AdapterBundle:
    """lambda1 * style + lambda2 * acceleration, kept in low-rank form.

    Shared layers get rank-concatenated factors with the lambda and scale
    weights folded into B, which equals the dense lambda1*D1 + lambda2*D2.
    A layer present in only one parent contributes that parent's scaled
    delta (union semantics).
    """
    out = LoraAdapter()
    names = list(style.adapter.entries.keys())
    names += [n for n in accel.adapter.entries.keys() if n not in style.adapter.entries]
    for name in names:
        e1 = style.adapter.entries.get(name)
        e2 = accel.adapter.entries.get(name)
        if e1 is not None and e2 is not None:
            if e1.a.shape[1] != e2.a.shape[1] or e1.b.shape[0] != e2.b.shape[0]:
                raise AdapterError(
                    f"layer {name!r} has incompatible dims between parents: "
                    f"{e1.b.shape[0]}x{e1.a.shape[1]} vs {e2.b.shape[0]}x{e2.a.shape[1]}"
                )
            a = np.vstack([e1.a.data, e2.a.data])
            b = np.hstack([lambda1 * e1.scale * e1.b.data, lambda2 * e2.scale * e2.b.data])
            out.entries[name] = LoraEntry(Tensor(a), Tensor(b), e1.rank + e2.rank, 1.0)
        else:
            e, lam = (e1, lambda1) if e1 is not None else (e2, lambda2)
            out.entries[name] = LoraEntry(
                Tensor(e.a.data.copy()), Tensor(lam * e.scale * e.b.data), e.rank, 1.0
            )
    return AdapterBundle(
        adapter=out,
        role="combined",
        provenance={
            "lambda1": lambda1,
            "lambda2": lambda2,
            "parents": [style.role, accel.role],
        },
    )
