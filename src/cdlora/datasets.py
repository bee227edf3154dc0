"""Toy 2-D datasets with per-sample condition ids.

All generators draw from named sub-streams of a single seed, so a dataset is
reproducible from (kind, params, seed, count) alone. Coordinates are not
unit-range: ring8 has radius 2 and the checkerboard spans [-2, 2], while the
consistency head's data-scale constant defaults to denoiser.SIGMA_DATA (see
ROADMAP.md, "Known defect: criterion 11" and direction F, for what the head's
parameterisation may cost).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from cdlora.denoiser import ints, list_of, numbers, one_of, problems_of, reject
from cdlora.rng import substream

RING8_RADIUS = 2.0
RING8_SIGMA = 0.1

DATASET_KINDS = ("ring8", "checkerboard", "single_gaussian", "rotated")


@dataclass
class Dataset2D:
    x: np.ndarray            # (n, 2)
    cond: np.ndarray         # (n,) int ids
    kind: str
    num_conditions: int
    params: dict = field(default_factory=dict)


def ring8(count: int, seed: int, radius: float = RING8_RADIUS, sigma: float = RING8_SIGMA) -> Dataset2D:
    """Eight Gaussians on a circle; the condition id is the component index."""
    stream = substream(seed, "data/ring8")
    comp = stream.integers(count, 0, 7)
    angles = 2.0 * np.pi * comp / 8.0
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    x = centers + sigma * stream.normal((count, 2))
    return Dataset2D(x, comp, "ring8", 8, {"radius": radius, "sigma": sigma})


def checkerboard(count: int, seed: int, cells: int = 4, span: float = 4.0) -> Dataset2D:
    """Uniform mass on the black cells of a cells x cells board; single class."""
    stream = substream(seed, "data/checkerboard")
    col = stream.integers(count, 0, cells - 1)
    row2 = stream.integers(count, 0, cells // 2 - 1)
    row = 2 * row2 + (col % 2)
    u = stream.uniform(2 * count).reshape(count, 2)
    cell = span / cells
    x = np.stack([
        (col + u[:, 0]) * cell - span / 2.0,
        (row + u[:, 1]) * cell - span / 2.0,
    ], axis=1)
    return Dataset2D(x, np.zeros(count, dtype=np.int64), "checkerboard", 1,
                     {"cells": cells, "span": span})


def single_gaussian(count: int, seed: int, mean=(0.0, 0.0), s_d: float = 1.0) -> Dataset2D:
    stream = substream(seed, "data/single_gaussian")
    x = np.asarray(mean, dtype=np.float64) + s_d * stream.normal((count, 2))
    return Dataset2D(x, np.zeros(count, dtype=np.int64), "single_gaussian", 1,
                     {"mean": list(mean), "s_d": s_d})


def rotated(base: Dataset2D, angle_deg: float) -> Dataset2D:
    """Rotate a dataset about the origin; conditions are inherited."""
    if not np.isfinite(angle_deg):
        raise ValueError(f"angle_deg must be finite, got {angle_deg}")
    theta = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    params = dict(base.params)
    params["rotated_from"] = base.kind
    params["angle_deg"] = angle_deg
    return Dataset2D(base.x @ rot.T, base.cond.copy(), "rotated", base.num_conditions, params)


GENERATORS = {"ring8": ring8, "checkerboard": checkerboard, "single_gaussian": single_gaussian}

# a test per keyword parameter of each generator; "rotated" takes its base
# kind's, plus its own base and angle_deg
PARAM_RULES = {
    "ring8": {"radius": numbers(0), "sigma": numbers(0)},
    "checkerboard": {"cells": ints(2, step=2), "span": numbers(0)},
    "single_gaussian": {"mean": lambda mean: list_of(numbers())(mean) and len(mean) == 2,
                        "s_d": numbers(0)},
}
ROTATED_RULES = {"base": one_of(*GENERATORS),
                 "angle_deg": lambda angle: numbers()(angle) or f"{angle!r} is not a finite number"}


def _count(count) -> bool | str:
    return ints()(count) and (count >= 1 or f"{count} would make an empty dataset")


def make_dataset(kind: str, count: int, seed: int, **params) -> Dataset2D:
    """Build a dataset by kind name. "rotated" needs angle_deg= and takes base=
    (ring8 by default) and the base kind's parameters. A bad kind, count or
    parameter, an unknown parameter or a missing angle_deg raises one
    ValueError that names each key."""
    base = params.get("base", "ring8") if kind == "rotated" else kind
    generator = GENERATORS.get(base) if isinstance(base, str) else None
    rules = (PARAM_RULES[base] if generator else {}) | (ROTATED_RULES if kind == "rotated" else {})
    given = dict(params)
    if generator is not None:   # its keyword defaults, under what params gives
        given = {name: p.default for name, p in inspect.signature(generator).parameters.items()
                 if p.default is not p.empty} | given
    if kind == "rotated":
        given.setdefault("base", base)
    reject("dataset", problems_of({"kind": kind, "count": count, "params": given},
                                  {"kind": one_of(*DATASET_KINDS), "count": _count,
                                   "params": rules}))
    if kind != "rotated":
        return generator(count, seed, **given)
    own = {k: v for k, v in given.items() if k not in ROTATED_RULES}
    return rotated(generator(count, seed, **own), given["angle_deg"])
