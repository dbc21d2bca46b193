"""Symmetries the solve keeps bit for bit (ROADMAP item 10).

Float arithmetic preserves some transformations of a cloud exactly: scaling
every weight, negating every point, reordering rows of equal weight, and
scaling every coordinate by a power of two within range.  The solve must
commute with each of them exactly, so these tests need no oracle.  Relations
that do not hold yet (scales past the absolute tolerances, permutations of
unequal weights) are ROADMAP items 1b and 6, not cases here.
"""

import functools

import numpy as np
import pytest

from yaoyao.geometry import CoordinateSystem
from yaoyao.measures import WeightedPointCloud
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
@pytest.mark.parametrize("e", [-3, -1, 1, 2, 3, 5, 10])
def test_power_of_two_scale_scales_the_center(n, count, seed, e):
    scaled = _solve(np.ldexp(_points(n, count, seed), e))
    assert np.array_equal(scaled.center, np.ldexp(_base(n, count, seed).center, e))
