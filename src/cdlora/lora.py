"""Low-rank adapters over the denoiser's dense layers.

Each adapted layer computes W0 x + s * B(Ax) with A (r x in) Gaussian-init
and B (out x r) zero-init, so a fresh adapter leaves the model bit-identical
to its base. Adapters are first-class weight-space vectors: they can be
merged into the base (W0 + s*BA), linearly combined with each other, or
densified for inspection. Combination keeps the low-rank form by rank
concatenation, which is algebraically the weighted sum of the dense deltas.
An adapter records the architecture fingerprint of the network it was
attached to, and check_fit rejects it on any other architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from cdlora.denoiser import (DenoiserNet, ints, list_of, net_fingerprint, numbers, problems_of,
                             reject)
from cdlora.tensor import Tensor

SCALE_RULE = numbers()  # an entry's scale; attach and persist's adapter record apply it


class AdapterError(ValueError):
    """Adapter construction or combination violates a structural constraint."""


@dataclass
class LoraEntry:
    a: Tensor  # (rank, in)
    b: Tensor  # (out, rank)
    scale: float

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    def delta(self) -> np.ndarray:
        """Dense (in, out) weight delta s * (BA)^T in the row-vector convention."""
        return self.scale * (self.b.data @ self.a.data).T


class LoraAdapter:
    """Per-layer low-rank factors keyed by the wrapped layer's name.

    base is the architecture fingerprint (denoiser.net_fingerprint) of the
    network the factors belong to.
    """

    def __init__(self, base: str, entries: Optional[dict] = None):
        self.base = base
        self.entries: dict[str, LoraEntry] = entries if entries is not None else {}

    def trainable_params(self) -> list[Tensor]:
        out = []
        for e in self.entries.values():
            out.extend([e.a, e.b])
        return out

    def target_names(self) -> list[str]:
        return list(self.entries.keys())

    def detached_clone(self) -> "LoraAdapter":
        clone = LoraAdapter(self.base)
        for name, e in self.entries.items():
            clone.entries[name] = LoraEntry(
                a=Tensor(e.a.data.copy()), b=Tensor(e.b.data.copy()), scale=e.scale,
            )
        return clone


def check_fit(adapter: LoraAdapter, net: DenoiserNet, source: str = "adapter") -> None:
    """Raise AdapterError unless the adapter belongs to net's architecture: its
    recorded base must equal net's fingerprint, and every entry's factors must
    fit the layer it names (source names the adapter in that message). The
    fingerprint must never hash weights: an acceleration adapter plugs into
    any base of the same shape, a fully fine-tuned one included.
    """
    fp = net_fingerprint(net)
    if adapter.base != fp:
        raise AdapterError("adapter/base architecture mismatch: adapter was built against "
                           f"{adapter.base}, base network is {fp}")
    layers = dict(net.named_shapes())
    unfit = [name for name, e in adapter.entries.items()
             if layers.get(name) != (e.a.shape[1], e.b.shape[0])]
    if unfit:
        raise AdapterError(f"{source} factors do not fit base layers {unfit}")


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
    flagged frozen. Biases and the condition table are never valid targets, nor
    is a layer named twice.

    A rank above a layer's min(d, k) is an error unless cap_rank is set, in
    which case the entry's rank is clipped to min(d, k); full-coverage
    attachment needs the cap because the output layer is as narrow as the
    data. The adapter records net's fingerprint as its base.
    """
    dense = net.weight_matrix_names()
    targets = dense if target_names is None else target_names
    reject("adapter settings", problems_of({"rank": rank, "scale": scale, "targets": targets}, {
        "rank": ints(1), "scale": SCALE_RULE,
        "targets": lambda names: list_of(dense.__contains__)(names) and (
            len(set(names)) == len(names) or f"{names} repeats a name")}), AdapterError)
    adapter = LoraAdapter(net_fingerprint(net))
    for name in targets:
        d_in, d_out = net.params[name].shape
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
            scale=scale,
        )
    net.set_trainable(False)
    return adapter


def count_trainable(adapter: LoraAdapter) -> int:
    """Trainable parameter count: sum over entries of rank * (d + k)."""
    return sum(e.a.data.size + e.b.data.size for e in adapter.entries.values())


def merge(base: DenoiserNet, adapter: LoraAdapter) -> DenoiserNet:
    """New network with W = W0 + s*BA folded into every targeted layer."""
    check_fit(adapter, base)
    merged = base.clone()
    for name, e in adapter.entries.items():
        param = merged.params[name]
        merged.params[name] = Tensor(param.data + e.delta(), requires_grad=param.requires_grad)
    return merged


def materialize(adapter: LoraAdapter) -> dict[str, np.ndarray]:
    """Dense per-layer weight deltas (explicit densification)."""
    return {name: e.delta() for name, e in adapter.entries.items()}


def combine(style: AdapterBundle, accel: AdapterBundle, lambda1: float, lambda2: float) -> AdapterBundle:
    """lambda1 * style + lambda2 * acceleration, kept in low-rank form.

    Shared layers get rank-concatenated factors with the lambda and scale
    weights folded into B, which equals the dense lambda1*D1 + lambda2*D2.
    A layer present in only one parent contributes that parent's scaled
    delta (union semantics). Weights that are not finite numbers, and parents
    built against different bases, are an AdapterError.
    """
    weights = {"lambda1": lambda1, "lambda2": lambda2}
    reject("combine weights", problems_of(weights, dict.fromkeys(weights, numbers())), AdapterError)
    if style.adapter.base != accel.adapter.base:
        raise AdapterError("adapters were built against different base architectures: "
                           f"style {style.adapter.base} vs acceleration {accel.adapter.base}")
    out = LoraAdapter(style.adapter.base)
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
            out.entries[name] = LoraEntry(Tensor(a), Tensor(b), 1.0)
        else:
            e, lam = (e1, lambda1) if e1 is not None else (e2, lambda2)
            out.entries[name] = LoraEntry(
                Tensor(e.a.data.copy()), Tensor(lam * e.scale * e.b.data), 1.0
            )
    return AdapterBundle(
        adapter=out,
        role="combined",
        provenance={**weights, "parents": [style.role, accel.role]},
    )
