"""Toy 2-D datasets with per-sample condition ids.

All generators draw from named sub-streams of a single seed, so a dataset is
reproducible from (kind, params, seed, count) alone. Coordinates are not
unit-range: ring8 has radius 2 and the checkerboard spans [-2, 2], while the
consistency head's data-scale constant defaults to sigma_data = 0.5 (see
ROADMAP.md, "Known defect: criterion 11" and direction F, for what the head's
parameterisation may cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def make_dataset(kind: str, count: int, seed: int, **params) -> Dataset2D:
    """Build a dataset by kind name; "rotated" needs base= and angle_deg=."""
    if kind == "ring8":
        return ring8(count, seed, **params)
    if kind == "checkerboard":
        return checkerboard(count, seed, **params)
    if kind == "single_gaussian":
        return single_gaussian(count, seed, **params)
    if kind == "rotated":
        base_params = dict(params)
        base_kind = base_params.pop("base", "ring8")
        angle = base_params.pop("angle_deg")
        return rotated(make_dataset(base_kind, count, seed, **base_params), angle)
    raise ValueError(f"unknown dataset kind {kind!r}; expected one of {DATASET_KINDS}")
