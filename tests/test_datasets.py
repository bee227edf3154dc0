import numpy as np
import pytest

from cdlora.datasets import make_dataset, ring8, rotated


def test_reproducible_from_seed():
    a = make_dataset("ring8", 500, 7)
    b = make_dataset("ring8", 500, 7)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.cond, b.cond)


def test_ring8_conditions_match_components():
    ds = ring8(2000, 3)
    assert ds.num_conditions == 8
    angles = 2.0 * np.pi * ds.cond / 8.0
    centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dist = np.linalg.norm(ds.x - centers, axis=1)
    # component sigma is 0.1; 6 sigma covers everything at this count
    assert np.max(dist) < 0.6
    assert len(np.unique(ds.cond)) == 8


def test_checkerboard_cells():
    ds = make_dataset("checkerboard", 4000, 5)
    assert np.all(np.abs(ds.x) <= 2.0)
    col = np.floor(ds.x[:, 0] + 2.0).clip(0, 3).astype(int)
    row = np.floor(ds.x[:, 1] + 2.0).clip(0, 3).astype(int)
    assert np.all((col + row) % 2 == 0)


def test_single_gaussian_moments():
    ds = make_dataset("single_gaussian", 50_000, 9, mean=(1.0, -2.0), s_d=0.5)
    np.testing.assert_allclose(ds.x.mean(axis=0), [1.0, -2.0], atol=0.02)
    np.testing.assert_allclose(ds.x.std(axis=0), 0.5, atol=0.02)


def test_rotation_preserves_structure():
    base = ring8(1000, 11)
    rot = rotated(base, 22.5)
    np.testing.assert_array_equal(rot.cond, base.cond)
    np.testing.assert_allclose(
        np.linalg.norm(rot.x, axis=1), np.linalg.norm(base.x, axis=1), rtol=1e-12
    )
    # rotating a ring8 by 22.5 degrees moves the centers half a component gap
    theta = np.deg2rad(22.5)
    first = rot.x[base.cond == 0].mean(axis=0)
    np.testing.assert_allclose(first, 2.0 * np.array([np.cos(theta), np.sin(theta)]), atol=0.05)


def test_rotated_via_make_dataset():
    ds = make_dataset("rotated", 100, 13, base="ring8", angle_deg=22.5)
    direct = rotated(ring8(100, 13), 22.5)
    np.testing.assert_array_equal(ds.x, direct.x)
    assert ds.params["angle_deg"] == 22.5


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_dataset("spiral", 10, 0)


@pytest.mark.parametrize("kind,count,params,message", [
    ("ring8", 2.5, {}, "bad 'count' 2.5"),
    ("ring8", True, {}, "bad 'count' True"),
    ("ring8", -4, {}, "'count' -4 would make an empty dataset"),
    ("ring8", 0, {}, "'count' 0 would make an empty dataset"),
    ("ring8", 10, {"radius": "2"}, "bad 'params' entry for 'radius' '2'"),
    ("ring8", 10, {"sigma": float("nan")}, "bad 'params' entry for 'sigma' nan"),
    ("ring8", 10, {"radius": 2.0, "spread": 1}, "unexpected 'params' entry for 'spread'"),
    ("checkerboard", 10, {"cells": 3}, "bad 'params' entry for 'cells' 3"),
    ("single_gaussian", 10, {"mean": [1.0]}, "bad 'params' entry for 'mean' [1.0]"),
    ("single_gaussian", 10, {"s_d": -1}, "bad 'params' entry for 's_d' -1"),
    ("rotated", 10, {}, "missing 'params' entry for 'angle_deg'"),
    ("rotated", 10, {"angle_deg": float("inf")},
     "'params' entry for 'angle_deg' inf is not a finite number"),
    ("rotated", 10, {"angle_deg": 10, "base": "rotated"},
     "bad 'params' entry for 'base' 'rotated'"),
    ("rotated", 10, {"angle_deg": 10, "base": "checkerboard", "cells": "4"},
     "bad 'params' entry for 'cells' '4'"),
    ("spiral", 10, {}, "bad 'kind' 'spiral'"),
    (["ring8"], 10, {}, "bad 'kind' ['ring8']"),
    ("rotated", 10, {"angle_deg": 10, "base": ["ring8"]},
     "bad 'params' entry for 'base' ['ring8']"),
])
def test_make_dataset_names_each_bad_key(kind, count, params, message):
    with pytest.raises(ValueError) as err:
        make_dataset(kind, count, 0, **params)
    assert str(err.value) == f"dataset: {message}"


def test_rotated_takes_its_base_kinds_parameters():
    ds = make_dataset("rotated", 100, 13, base="checkerboard", angle_deg=90, cells=2)
    direct = rotated(make_dataset("checkerboard", 100, 13, cells=2), 90)
    np.testing.assert_array_equal(ds.x, direct.x)
    assert ds.params == {"cells": 2, "span": 4.0, "rotated_from": "checkerboard", "angle_deg": 90}
