"""Symmetries the solve keeps bit for bit (ROADMAP item 10).

Float arithmetic preserves some transformations of a cloud exactly: scaling
every weight, negating every point, reordering rows of equal weight, and
scaling every coordinate by a power of two within range.  The solve must
commute with each of them exactly, so these tests need no oracle.  Relations
that do not hold yet are strict xfails on clouds where they fail, each mark
naming the ROADMAP item that fixes it, as in ``tests/test_defects.py``: a
power-of-two scale of column 0 alone (item 1b), and row permutations of
unequal weights or of tied grid points, down to one weighted median (item 6).
A fix turns its case into a failing strict XPASS until the mark goes.
"""

import functools

import numpy as np
import pytest

from yaoyao.geometry import CoordinateSystem
from yaoyao.measures import WeightedPointCloud, weighted_quantile
from yaoyao.solver import compute_center_partition

# (n, N, seed) of gaussian clouds; odd N splits one point's weight at the root
CLOUDS = [(2, 64, 101), (2, 79, 102), (3, 72, 103), (3, 80, 104), (4, 66, 105), (4, 77, 106)]


def _points(n, count, seed):
    return np.random.default_rng(seed).standard_normal((count, n))


def _solve(points, weights=None):
    cloud = WeightedPointCloud.from_points(points, weights)
    return compute_center_partition(cloud, CoordinateSystem.standard(cloud.dimension))


@functools.cache
def _base(n, count, seed):
    return _solve(_points(n, count, seed))


def _same_tree(a, b):
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.axes, b.axes)


def _open(item, *values):
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {item}")
    return pytest.param(*values, marks=mark)


@pytest.mark.parametrize("n, count, seed", CLOUDS)
@pytest.mark.parametrize("factor", [2.0, 3.0])
def test_scaled_weights_give_the_same_tree(n, count, seed, factor):
    _same_tree(_solve(_points(n, count, seed), np.full(count, factor)), _base(n, count, seed))


@pytest.mark.parametrize("n, count, seed", CLOUDS)
def test_reflection_negates_the_center(n, count, seed):
    reflected = _solve(-_points(n, count, seed))
    assert np.array_equal(reflected.center, -_base(n, count, seed).center)


@pytest.mark.parametrize("n, count, seed", CLOUDS)
def test_row_permutation_of_unit_weights_gives_the_same_tree(n, count, seed):
    order = np.random.default_rng(seed + 1000).permutation(count)
    _same_tree(_solve(_points(n, count, seed)[order]), _base(n, count, seed))


@pytest.mark.parametrize("n, count, seed", CLOUDS)
@pytest.mark.parametrize("e", [-40, -30, -20, -3, -1, 1, 2, 3, 5, 10, 20, 30, 40])
def test_power_of_two_scale_scales_the_center(n, count, seed, e):
    # the axes are slopes, which a whole-cloud scale leaves as they are
    scaled, base = _solve(np.ldexp(_points(n, count, seed), e)), _base(n, count, seed)
    assert np.array_equal(scaled.center, np.ldexp(base.center, e))
    assert np.array_equal(scaled.axes, base.axes)


@pytest.mark.parametrize("n, count, seed", [_open("item 1b", *CLOUDS[1]),
                                            _open("item 1b", *CLOUDS[3])])
def test_column_0_scale_maps_the_tree(n, count, seed):
    # coordinate 0 times s: the center's coordinate 0 goes times s, and the
    # normalized root axis (1, v_2, ...) becomes (1, v_2 / s, ...)
    points = _points(n, count, seed)
    points[:, 0] = np.ldexp(points[:, 0], 10)
    scaled, base = _solve(points), _base(n, count, seed)
    center, axes = base.center.copy(), base.axes.copy()
    center[0] = np.ldexp(center[0], 10)
    axes[0, 1:] = np.ldexp(axes[0, 1:], -10)
    assert np.array_equal(scaled.center, center)
    assert np.array_equal(scaled.axes, axes)


_DECIMAL = _points(2, 79, 102), np.random.default_rng(109).choice([0.1, 0.2, 0.3, 0.7], 79)
_GRID = np.random.default_rng(200).integers(0, 4, (97, 2)).astype(float), None


@pytest.mark.parametrize("points, weights, order", [
    _open("item 6", *_DECIMAL, np.random.default_rng(1102).permutation(79)),
    _open("item 6 (ties)", *_GRID, np.random.default_rng(1200).permutation(97)),
], ids=["decimal-weights", "integer-grid"])
def test_row_permutation_of_a_measure_gives_the_same_tree(points, weights, order):
    permuted = None if weights is None else weights[order]
    _same_tree(_solve(points[order], permuted), _solve(points, weights))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 6")
def test_weighted_median_ignores_row_order():
    # one measure, the two points at 2 in either order: mass 0.8 of 1.6 lies
    # at or below 0, so the exact interpolating median is (0 + 2) / 2
    points = [0.0, 2.0, 2.0, -1.0]
    for weights in ([0.6, 0.6, 0.2, 0.2], [0.6, 0.2, 0.6, 0.2]):
        assert weighted_quantile(points, weights, 0.5) == 1.0
