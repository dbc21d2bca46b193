"""Clouds, quantiles, splits, projections, and seeded sampling."""

import io
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import yaoyao.measures as measures
import yaoyao.verify as verify
from yaoyao.geometry import CoordinateSystem, HalfSpace
from yaoyao.measures import (
    MeasureSpec,
    WeightedPointCloud,
    halfspace_mass,
    project_measure,
    read_csv,
    regularize,
    sample,
    seeded_generator,
    split_at_median,
    symmetrize,
    weighted_quantile,
    write_csv,
)
from yaoyao.partition import PartitionTree


def cloud_1d(values, weights=None):
    pts = np.asarray(values, float)[:, None]
    return WeightedPointCloud.from_points(pts, weights)


class TestCloud:
    def test_id_order_is_canonical(self):
        c = WeightedPointCloud([[3.0], [1.0]], [1.0, 2.0], [5, 2])
        assert list(c.ids) == [2, 5]
        assert c.points[0, 0] == 1.0 and c.weights[0] == 2.0

    def test_rejects_bad_weights_and_ids(self):
        with pytest.raises(ValueError):
            WeightedPointCloud([[0.0]], [0.0], [0])
        with pytest.raises(ValueError):
            WeightedPointCloud([[0.0], [1.0]], [1.0, 1.0], [3, 3])
        with pytest.raises(ValueError):
            WeightedPointCloud(np.empty((0, 2)), [], [])

    def test_weight_total_must_be_finite(self):
        # each weight is finite, but the total is 2^1024
        with pytest.raises(ValueError, match="finite total"):
            WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)],
                                           [2.0**1022] * 4)
        with pytest.raises(ValueError, match="finite total"):
            WeightedPointCloud.from_points([[0.0], [1.0]], [1.0, np.nan])

    @pytest.mark.parametrize("points, weights, ids, message", [
        ([0.0, 1.0], [1.0, 1.0], [0, 1], r"points must be an \(N, n\) array"),
        (np.zeros((2, 1, 1)), [1.0, 1.0], [0, 1], r"points must be an \(N, n\) array"),
        ([[0.0], [1.0]], [1.0], [0, 1], "points, weights and ids must have matching length"),
        ([[0.0], [1.0]], [1.0, 1.0], [0], "points, weights and ids must have matching length"),
    ])
    def test_shapes_rejected(self, points, weights, ids, message):
        with pytest.raises(ValueError, match=message):
            WeightedPointCloud(points, weights, ids)

    def test_unsorted_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="ids must be unique"):
            WeightedPointCloud([[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0], [3, 1, 3])

    def test_unsorted_unique_ids_come_back_in_id_order(self):
        pts = np.array([[3.0, 30.0], [1.0, 10.0], [4.0, 40.0], [2.0, 20.0]])
        c = WeightedPointCloud(pts, [3.0, 1.0, 4.0, 2.0], [7, -5, 9, 0])
        assert list(c.ids) == [-5, 0, 7, 9]
        assert np.array_equal(c.points[:, 0], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(c.points[:, 1], [10.0, 20.0, 30.0, 40.0])
        assert np.array_equal(c.weights, [1.0, 2.0, 3.0, 4.0])
        assert c.points.flags.c_contiguous

    def test_does_not_alias_caller_arrays(self):
        pts, w, ids = np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), np.arange(2)
        c = WeightedPointCloud(pts, w, ids)
        pts[0, 0], w[0], ids[0] = 9.0, 9.0, 9
        assert c.points[0, 0] == 1.0 and c.weights[0] == 1.0 and c.ids[0] == 0

    def test_arrays_frozen(self):
        c = WeightedPointCloud.from_points([[1.0, 2.0]])
        with pytest.raises(ValueError):
            c.points[0, 0] = 9.0


class TestWeightedQuantile:
    def test_two_points_midpoint(self):
        assert weighted_quantile([0, 1], [1, 1], 0.5) == 0.5

    def test_three_points(self):
        assert weighted_quantile([1, 2, 3], [1, 1, 1], 0.5) == 2

    def test_collapsed_interval(self):
        # W(0) = 3 >= 2 and W(0) > 2, so the interval is [0, 0]
        assert weighted_quantile([0, 0, 0, 1], [1, 1, 1, 1], 0.5) == 0

    def test_unsorted_input(self):
        assert weighted_quantile([3, 1, 2], [1, 1, 1], 0.5) == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            weighted_quantile([], [], 0.5)
        with pytest.raises(ValueError):
            weighted_quantile([1.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            weighted_quantile([1.0], [-1.0], 0.5)
        with pytest.raises(ValueError, match="finite total"):
            weighted_quantile([0, 1, 2, 3], [2.0**1022] * 4, 0.5)
        with pytest.raises(ValueError, match="values must be finite"):
            weighted_quantile([np.nan, 1, 2], [1, 1, 1], 0.5)  # NaN ranks above 2
        with pytest.raises(ValueError, match="values must be finite"):
            weighted_quantile([-np.inf, np.inf], [1, 1], 0.5)  # -inf + inf is NaN
        with pytest.raises(ValueError, match="values and weights must have equal length"):
            weighted_quantile([1.0, 2.0], [1.0], 0.5)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        st.integers(0, 10_000),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantile_brackets_the_target_mass(self, values, seed, q):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 3.0, size=len(values))
        m = weighted_quantile(values, w, q)
        v = np.asarray(values)
        target = q * w.sum()
        # mass strictly below the quantile never exceeds the target,
        # mass up to and including it always reaches the target
        assert np.sum(w[v < m]) <= target + 1e-9 * w.sum()
        assert np.sum(w[v <= m]) >= target - 1e-9 * w.sum()


def sorted_quantile(v, w, q):
    """weighted_quantile by stable sort and cumulative sum, for comparison."""
    order = np.argsort(v, kind="stable")
    cw = np.cumsum(w[order])
    target = q * cw[-1]
    lo = min(int(np.searchsorted(cw, target, side="left")), v.size - 1)
    hi = min(int(np.searchsorted(cw, target, side="right")), v.size - 1)
    return 0.5 * (v[order][lo] + v[order][hi])


class TestQuantileBySelection:
    @given(
        st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-1e3, 1e3),
                 min_size=1, max_size=60),
        st.just(0) | st.integers(-1074, 1023),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([0.5, 5e-324, 1.0 - 2.0**-53]),
    )
    @settings(max_examples=400, deadline=None)
    def test_equal_power_of_two_weights_match_the_sort_bit_for_bit(
            self, values, exponent, q):
        v = np.asarray(values)
        w = np.full(v.size, 2.0**exponent)
        if v.size * 2**exponent >= 2**1024:  # the total overflows
            with pytest.raises(ValueError, match="finite total"):
                weighted_quantile(v, w, q)
            return
        got, want = weighted_quantile(v, w, q), sorted_quantile(v, w, q)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("size", [7, 8])
    def test_only_other_weights_sort(self, monkeypatch, size):
        sorts = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or real(*a, **k))
        v = np.round(np.random.default_rng(size).standard_normal(size), 1)
        for w0 in (1.0, 0.25, 2.0**40):
            weighted_quantile(v, np.full(size, w0), 0.5)
        assert sorts == []
        weighted_quantile(v, np.full(size, 0.3), 0.5)  # not a power of two
        weighted_quantile(v, np.r_[np.ones(size - 1), 2.0], 0.5)  # unequal
        assert len(sorts) == 2


class TestSplitAtMedian:
    def test_clean_split(self):
        alpha, low, high = split_at_median(cloud_1d([0, 1, 2, 3]))
        assert alpha == 1.5
        assert low.total_mass == 2.0 and high.total_mass == 2.0
        assert set(low.ids) == {0, 1} and set(high.ids) == {2, 3}

    def test_greedy_tie_assignment(self):
        alpha, low, high = split_at_median(cloud_1d([0, 0, 0, 1]))
        assert alpha == 0
        assert list(low.ids) == [0, 1] and low.total_mass == 2.0
        assert list(high.ids) == [2, 3] and high.total_mass == 2.0
        assert high.points[0, 0] == 0.0  # id 2 stays at the cut, on the high side

    def test_single_heavy_point_splits(self):
        alpha, low, high = split_at_median(cloud_1d([7.0], weights=[2.0]))
        assert alpha == 7.0
        assert low.total_mass == 1.0 and high.total_mass == 1.0
        assert list(low.ids) == [0] and list(high.ids) == [0]

    @given(st.integers(1, 60), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_exact_halving(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice([0.0, 1.0, 2.0, 3.5], size=n)  # force ties
        w = rng.uniform(0.1, 5.0, size=n)
        cloud = cloud_1d(values, w)
        _, low, high = split_at_median(cloud)
        half = 0.5 * cloud.total_mass
        assert abs(low.total_mass - half) <= 1e-12 * cloud.total_mass
        assert abs(high.total_mass - half) <= 1e-12 * cloud.total_mass


def tied_weighted_cloud(seed: int, n: int, size: int) -> WeightedPointCloud:
    """Random weights, shuffled ids, and a cut coordinate with many ties."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, n))
    pts[:, 0] = rng.choice([-1.0, 0.0, 0.25, 2.0], size=size)
    weights = rng.uniform(0.1, 5.0, size)
    return WeightedPointCloud(pts, weights, rng.permutation(size) * 3)


def mask_split_at_median(cloud):
    """split_at_median written with boolean-mask gathers, for comparison."""
    coord = cloud.points[:, 0]
    alpha = weighted_quantile(coord, cloud.weights, 0.5)
    below, above = coord < alpha, coord > alpha
    need = 0.5 * cloud.total_mass - float(np.sum(cloud.weights[below]))
    in_low, in_high = below.copy(), above.copy()
    low_w, high_w = cloud.weights.copy(), cloud.weights.copy()
    for i in np.flatnonzero(~below & ~above):
        wi = cloud.weights[i]
        if need >= wi:
            in_low[i] = True
            need -= wi
        elif need > 0.0:
            in_low[i] = in_high[i] = True
            low_w[i], high_w[i] = need, wi - need
            need = 0.0
        else:
            in_high[i] = True
    halves = [(cloud.points[m], w[m], cloud.ids[m])
              for m, w in ((in_low, low_w), (in_high, high_w))]
    return float(alpha), halves


class TestGathersMatchBooleanMasks:
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_split_and_halfspace_mass_bit_identical(self, seed, n, size):
        cloud = tied_weighted_cloud(seed, n, size)
        alpha, low, high = split_at_median(cloud)
        ref_alpha, ref_halves = mask_split_at_median(cloud)
        assert alpha == ref_alpha
        for side, (pts, w, ids) in zip((low, high), ref_halves):
            assert side.points.tobytes() == pts.tobytes()
            assert side.weights.tobytes() == w.tobytes()
            assert side.ids.tobytes() == ids.tobytes()
        # the kernel's stacked rows: low half first, then high, weights alike
        k_alpha, rows, cut, k_w = measures._split(cloud.points, cloud.weights)
        assert k_alpha == ref_alpha
        for part, (pts, w, ids) in zip((slice(cut), slice(cut, None)), ref_halves):
            assert cloud.points[rows[part]].tobytes() == pts.tobytes()
            assert cloud.ids[rows[part]].tobytes() == ids.tobytes()
            assert k_w[part].tobytes() == w.tobytes()
        rng = np.random.default_rng(seed + 1)
        for offset in (0.0, 0.25, float(rng.standard_normal())):
            h = HalfSpace(rng.standard_normal(n), offset)
            ref = float(np.sum(cloud.weights[h.value(cloud.points) >= 0.0]))
            assert halfspace_mass(cloud, h) == ref
        axis = HalfSpace(np.eye(n)[0], 0.0)  # closed side of a tied coordinate
        ref = float(np.sum(cloud.weights[cloud.points[:, 0] >= 0.0]))
        assert halfspace_mass(cloud, axis) == ref


class TestProjection:
    def test_vertical_drop(self):
        c = WeightedPointCloud.from_points([[3.0, 3.0]])
        out = project_measure(c, 1.5, np.array([1.0, 0.0]))
        assert out.points[0, 0] == 3.0

    def test_slanted_right_half(self):
        c = WeightedPointCloud.from_points([[3.0, 3.0]])
        out = project_measure(c, 1.5, np.array([1.0, 0.5]))
        assert out.points[0, 0] == 3.0 - 1.5 * 0.5

    def test_slanted_left_half_same_formula(self):
        c = WeightedPointCloud.from_points([[0.0, 0.0]])
        out = project_measure(c, 1.5, np.array([1.0, 0.5]))
        assert out.points[0, 0] == 0.75

    def test_requires_normalized_axis(self):
        c = WeightedPointCloud.from_points([[0.0, 0.0]])
        with pytest.raises(ValueError):
            project_measure(c, 0.0, np.array([2.0, 0.5]))

    def test_requires_dimension_two(self):
        with pytest.raises(ValueError):
            project_measure(cloud_1d([1.0]), 0.0, np.array([1.0]))

    def test_axis_dimension_checked(self):
        c = WeightedPointCloud.from_points([[0.0, 0.0]])
        with pytest.raises(ValueError, match="axis dimension mismatch"):
            project_measure(c, 0.0, np.array([1.0, 0.5, 0.0]))

    def test_overflow_raises_with_warnings_as_errors(self):
        # 50 * 1e308 overflows: the projected points are no longer finite
        c = sample(MeasureSpec.uniform_box([0, 0], [100, 100]), 32, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                project_measure(c, 50.0, np.array([1.0, 1e308]))

    def test_mass_preserved_bitwise(self):
        rng = np.random.default_rng(3)
        c = WeightedPointCloud.from_points(rng.standard_normal((50, 3)),
                                           rng.uniform(0.5, 2.0, 50))
        out = project_measure(c, 0.2, np.array([1.0, -0.7, 2.0]))
        assert out.total_mass == c.total_mass
        assert np.array_equal(out.weights, c.weights)
        assert np.array_equal(out.ids, c.ids)

    def test_matches_explicit_projection(self):
        # projecting along (1, t) and testing a form in the plane equals the
        # closed-form membership form(x) >= (x_1 - alpha) * formvec((1, t))
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 200, seed=34)
        form = HalfSpace(np.array([-0.4, 1.0]), 0.3)
        alpha, _, high = split_at_median(cloud)
        for slope in (0.0, 0.8, 2.5):
            # realize an axis with this slope: v = (1, t) has formvec(v) = -0.4 + t
            t = slope + 0.4
            proj = project_measure(high, alpha, np.array([1.0, t]))
            in_plane = form.normal[1] * proj.points[:, 0] + form.normal[0] * alpha
            direct = np.sum(high.weights[in_plane >= form.offset])
            x1, vals = high.points[:, 0], form.value(high.points)
            closed = np.sum(high.weights[vals >= (x1 - alpha) * slope])
            assert direct == pytest.approx(closed)


class TestHalfspaceMass:
    def test_counts(self):
        corners = WeightedPointCloud.from_points([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert halfspace_mass(corners, HalfSpace(np.array([1.0, 0.0]), 0.5)) == 2.0
        assert halfspace_mass(corners, HalfSpace(np.array([1.0, 0.0]), -99.0)) == 4.0
        assert halfspace_mass(corners, HalfSpace(np.array([1.0, 0.0]), 99.0)) == 0.0

    def test_dimension_checked(self):
        corners = WeightedPointCloud.from_points([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="half-space dimension mismatch"):
            halfspace_mass(corners, HalfSpace(np.ones(3), 0.0))


def block_product_masses(points, weights, normals, offsets):
    """Frozen copy of the kernel's former loop: one product per block of
    _BLOCK_ENTRIES // N rows (at least one), then a count or an id-order sum
    per row.  The chunked kernel must give these masses bit for bit, but for
    half-spaces through a point of a row's last partial BLAS tile."""
    step = max(1, measures._BLOCK_ENTRIES // points.shape[0])
    counted = measures._equal_power_of_two(weights)
    masses = np.empty(normals.shape[0])
    for lo in range(0, normals.shape[0], step):
        inside = normals[lo:lo + step] @ points.T >= offsets[lo:lo + step, None]
        masses[lo:lo + step] = [np.count_nonzero(row) if counted else
                                np.sum(np.compress(row, weights)) for row in inside]
    return masses * weights[0] if counted else masses


class TestHalfspaceMasses:
    """The chunked kernel against one ``halfspace_mass`` call per half-space,
    and against one product per block.

    In the first test, offsets are drawn apart from the points, so no point
    lies on a boundary and a block product and a matrix-vector product put
    every point on the same side: the masses must agree bit for bit.  The
    others use check_depth's own draws, whose boundaries each pass through a
    data point, so a product that rounded otherwise than the block product (a
    one-row product, a one-column chunk, another layout for gemv) would move
    anchors across.
    """

    WEIGHTS = {
        "unit": lambda rng, size: np.ones(size),
        "quarter": lambda rng, size: np.full(size, 0.25),
        "2^40": lambda rng, size: np.full(size, 2.0**40),
        "0.3": lambda rng, size: np.full(size, 0.3),
        "general": lambda rng, size: rng.uniform(0.1, 3.0, size),
    }

    @pytest.mark.parametrize("kind", list(WEIGHTS))
    @pytest.mark.parametrize("n, size, count, entries", [
        (2, 1, 5, None),     # N = 1: one block
        (1, 1, 7, 3),        # blocks of 3 rows, the last holds 1
        (2, 50, 23, 150),    # blocks of 3 rows, the last holds 2
        (3, 40, 9, 39),      # fewer entries than points: one row per block
        (5, 300, 64, None),  # one full block
        (2, 4096, 16, None),       # 16 rows, two chunks of 2048 columns
        (2, 5000, 70, None),       # 52-row blocks, 6 chunks of 630 columns, then 1220
        (1, 40000, 3, None),       # 3 rows, 2 chunks of 10922 columns, then 18156
        (2, 130, 600, None),       # 600 rows, chunks of 54 and 76 columns
        (2, 2**17 + 3, 2, None),   # one-row blocks, 3 chunks of 2^15 columns, then 32771
    ])
    def test_blocks_match_one_call_per_row(self, monkeypatch, kind, n, size,
                                           count, entries):
        if entries is not None:
            monkeypatch.setattr(measures, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(size * 100 + count)
        cloud = WeightedPointCloud.from_points(rng.standard_normal((size, n)),
                                               self.WEIGHTS[kind](rng, size))
        normals = rng.standard_normal((count, n))
        offsets = rng.standard_normal(count)
        masses = measures._halfspace_masses(cloud.points, cloud.weights, normals, offsets)
        ref = [halfspace_mass(cloud, HalfSpace(a, c)) for a, c in zip(normals, offsets)]
        assert masses.shape == (count,)
        assert masses.tolist() == ref
        # and both equal the boolean-mask sum of a matrix-vector product
        assert ref == [float(np.sum(cloud.weights[cloud.points @ a >= c]))
                       for a, c in zip(normals, offsets)]
        assert size == 1 or len(set(ref)) > 1  # the rows are told apart

    @staticmethod
    def depth_draws(n, size, count, kind):
        """A cloud and check_depth's half-spaces on it, each boundary through a point."""
        rng = np.random.default_rng(size + n)
        weights = np.ones(size) if kind == "unit" else rng.uniform(0.1, 3.0, size)
        cloud = WeightedPointCloud.from_points(rng.standard_normal((size, n)), weights)
        axes = np.repeat(np.eye(n), 2**np.arange(n), axis=0)
        tree = PartitionTree(CoordinateSystem.standard(n), 0.1 * rng.standard_normal(n),
                             axes, {})
        return cloud, *verify._halfspace_draws(seeded_generator(size), tree, cloud, count)

    @pytest.mark.parametrize("n, size, count, kind, chunk", [
        (2, 2**15, 1001, "unit", None),       # 8-row blocks, 8 chunks; last block 1 row
        (3, 1024, 1000, "unit", None),        # 256-row blocks, 8 chunks of 128 columns
        (3, 1024, 32, "unit", None),          # one block of 32 rows: one chunk
        (2, 1632, 500, "general", 2**12),     # 160-row blocks, 64 chunks of 25, then 32
        (3, 1040, 300, "general", None),      # 252-row blocks, then 48; chunks of 130
        (3, 9, 20000, "general", None),       # 20000 rows: chunks of 2, 2, 2 and 3 columns
        (3, 1001, 1000, "unit", None),        # counted through 7 pad columns per row
        (2, 2**17 + 80, 12, "unit", None),    # one-row blocks (N > 2^17): gemv per chunk
        (3, 2**17 + 5, 12, "general", None),  # the same, with a partial last tile
    ])
    def test_same_masses_as_one_product_per_block(self, monkeypatch, n, size,
                                                   count, kind, chunk):
        if chunk is not None:
            monkeypatch.setattr(measures, "_CHUNK_ENTRIES", chunk)
        cloud, normals, offsets = self.depth_draws(n, size, count, kind)
        masses = measures._halfspace_masses(cloud.points, cloud.weights, normals, offsets)
        ref = block_product_masses(cloud.points, cloud.weights, normals, offsets)
        assert masses.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n, size, count, kind", [
        (2, 1007, 1000, "unit"),
        (3, 255, 1568, "general"),
        (5, 255, 1568, "unit"),
    ])
    def test_only_the_last_partial_tile_may_round_otherwise(self, n, size, count, kind):
        # With N not a multiple of the kernel's tile, BLAS computes the last
        # few products of a row in its tail code, which may round otherwise in
        # a chunk than in the whole row (each case here moves at least one
        # mass with OpenBLAS 0.3.31 on an AVX-512 Xeon, one thread).  So only
        # a half-space whose anchor is one of the last N mod 64 points may
        # change its mass, and by that point alone.
        cloud, normals, offsets = self.depth_draws(n, size, count, kind)
        masses = measures._halfspace_masses(cloud.points, cloud.weights, normals, offsets)
        ref = block_product_masses(cloud.points, cloud.weights, normals, offsets)
        moved = np.flatnonzero(masses != ref)
        anchor = np.argmin(np.abs(normals[moved] @ cloud.points.T - offsets[moved, None]),
                           axis=1)
        assert np.all(anchor >= size - size % 64)
        np.testing.assert_allclose(np.abs(masses[moved] - ref[moved]),
                                   cloud.weights[anchor], rtol=1e-12)


class TestRowCounts:
    """``_row_counts`` sums uint64 words in runs of at most 255, so that no byte
    lane carries: 2040 columns are one full run, 2048 a run and a one-word tail
    (all True, a run of 256 words would carry out of every lane)."""

    @pytest.mark.parametrize("width", [8, 2040, 2048, 2**15 + 8])
    @pytest.mark.parametrize("rows", [1, 256])
    def test_counts_match_count_nonzero(self, rows, width):
        rng = np.random.default_rng(rows * width)
        for table in (np.ones((rows, width), dtype=bool),
                      rng.random((rows, width)) < rng.random((rows, 1))):
            counts = measures._row_counts(table)
            assert counts.shape == (rows,)
            assert counts.tolist() == [np.count_nonzero(row) for row in table]


class TestSampling:
    def test_uniform_box_support(self):
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 4, seed=7)
        assert c.size == 4 and c.total_mass == 4.0
        assert np.all(c.points >= 0) and np.all(c.points <= 1)

    def test_bit_identical_reruns(self):
        spec = MeasureSpec(
            "mixture",
            {
                "components": [
                    MeasureSpec.gaussian([0.0, 0.0]),
                    MeasureSpec.uniform_box([1, 1], [2, 2]),
                ],
                "weights": [0.5, 0.5],
            },
        )
        a = sample(spec, 100, seed=3)
        b = sample(spec, 100, seed=3)
        assert a == b
        c = sample(spec, 100, seed=4)
        assert not np.array_equal(a.points, c.points)

    def test_gaussian_mean_close_to_origin(self):
        c = sample(MeasureSpec.gaussian([0.0, 0.0]), 10_000, seed=1)
        assert np.all(np.abs(c.points.mean(axis=0)) < 0.05)  # 3 / sqrt(N) headroom

    def test_finite_atoms_exact(self):
        spec = MeasureSpec("finite-atoms", {"points": [[0, 0], [1, 1]], "weights": [1.0, 1.0]})
        c = sample(spec, 2, seed=123)
        assert np.array_equal(np.sort(c.points[:, 0]), [0.0, 1.0])
        assert np.array_equal(c.weights, [1.0, 1.0])

    def test_simplex_stays_inside(self):
        spec = MeasureSpec("uniform-simplex",
                           {"vertices": [[0, 0], [2, 0], [0, 2]]})
        c = sample(spec, 500, seed=9)
        assert np.all(c.points >= -1e-12)
        assert np.all(c.points.sum(axis=1) <= 2 + 1e-12)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(
                "gaussian-mixture",
                {"means": [[0.0, 0.0]],
                 "cov_factors": [[[1.0, 0.0], [1.0, 0.0]]],
                 "weights": [1.0]},
            )

    def test_seed_range(self):
        assert seeded_generator(0).random() != seeded_generator(2**64 - 1).random()
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                seeded_generator(bad)
            with pytest.raises(ValueError, match="seed"):
                sample(MeasureSpec.gaussian([0.0, 0.0]), 5, seed=bad)

    @pytest.mark.parametrize("doc, word", [
        ({"kind": ["uniform-box"]}, "unknown measure kind"),
        ({"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1], "hii": [2, 2]},
         "unknown \\['hii'\\]"),
        ({"kind": "uniform-box", "lo": [0, 0]}, "missing \\['hi'\\]"),
        ({"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1],
          "symmetry_center": [0.5, 0.5]}, "unknown \\['symmetry_center'\\]"),
        ({"kind": "mixture", "weights": [1.0]}, "missing \\['components'\\]"),
        ({"kind": "mixture", "weights": [1.0],
          "components": [{"kind": "uniform-simplex", "vertex": [[0], [1]]}]},
         "missing \\['vertices'\\], unknown \\['vertex'\\]"),
    ])
    def test_spec_takes_exactly_its_kinds_keys(self, doc, word):
        with pytest.raises(ValueError, match=word):
            MeasureSpec.from_json(doc)

    def test_spec_json_round_trip(self):
        spec = MeasureSpec.uniform_box([0, 0], [1, 2])
        again = MeasureSpec.from_json({"kind": "uniform-box", "lo": [0.0, 0.0], "hi": [1.0, 2.0]})
        assert again.kind == spec.kind
        assert again.params["lo"] == [0.0, 0.0] and again.params["hi"] == [1.0, 2.0]
        assert again == spec and sample(again, 20, seed=1) == sample(spec, 20, seed=1)


BOX2 = {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]}
BOX3 = {"kind": "uniform-box", "lo": [0, 0, 0], "hi": [1, 1, 1]}
WEIGHT_RULE = "weights must be > 0 with a finite total"
ONE_PER_PART = "one entry per component \\(or atom\\), at least one"


def gaussian_doc(weights, means=((0.0, 0.0),), factors=(((1.0, 0.0), (0.0, 1.0)),)):
    return {"kind": "gaussian-mixture", "means": means, "cov_factors": factors,
            "weights": weights}


def atoms_doc(weights, points=((0.0, 0.0), (1.0, 1.0))):
    return {"kind": "finite-atoms", "points": points, "weights": weights}


def mixture_doc(weights, components=(BOX2, BOX2)):
    return {"kind": "mixture", "components": list(components), "weights": weights}


REJECTED_SPECS = {
    "means-not-2d": (gaussian_doc([1.0], means=[0.0, 0.0]), "means must be \\(m, n\\)"),
    "cov-factors-shape": (gaussian_doc([1.0], factors=[[1.0, 0.0], [0.0, 1.0]]),
                          "cov_factors"),
    "gaussian-weight-count": (gaussian_doc([1.0, 1.0]), ONE_PER_PART),
    "gaussian-nan-weight": (gaussian_doc([float("nan")]), WEIGHT_RULE),
    "gaussian-inf-weight": (gaussian_doc([float("inf")]), WEIGHT_RULE),
    "gaussian-zero-weight": (gaussian_doc([0.0]), WEIGHT_RULE),
    "rank-deficient-factor": (gaussian_doc([1.0], factors=[[[1.0, 0.0], [1.0, 0.0]]]),
                              "rank deficient"),
    "box-corner-lengths": ({"kind": "uniform-box", "lo": [0, 0], "hi": [1]}, "box corners"),
    "box-corners-not-vectors": ({"kind": "uniform-box", "lo": [[0, 0]], "hi": [[1, 1]]},
                                "box corners"),
    "box-extent": ({"kind": "uniform-box", "lo": [0, 0], "hi": [1, 0]}, "positive extent"),
    "simplex-vertex-count": ({"kind": "uniform-simplex", "vertices": [[0, 0], [1, 0]]},
                             "n\\+1 vertices"),
    "simplex-affinely-dependent": (
        {"kind": "uniform-simplex", "vertices": [[0, 0], [1, 1], [2, 2]]}, "affinely dependent"),
    "atoms-not-2d": (atoms_doc([1.0], points=[0.0, 1.0]), "\\(m, n\\) points"),
    "atom-weight-count": (atoms_doc([1.0]), ONE_PER_PART),
    "atom-nan-weight": (atoms_doc([1.0, float("nan")]), WEIGHT_RULE),
    "atom-inf-weight": (atoms_doc([1.0, float("inf")]), WEIGHT_RULE),
    "atom-zero-weight": (atoms_doc([1.0, 0.0]), WEIGHT_RULE),
    "mixture-weight-count": (mixture_doc([1.0]), ONE_PER_PART),
    "empty-mixture": (mixture_doc([], components=[]), ONE_PER_PART),
    "mixture-nan-weight": (mixture_doc([1.0, float("nan")]), WEIGHT_RULE),
    "mixture-inf-weight": (mixture_doc([1.0, float("inf")]), WEIGHT_RULE),
    "mixture-zero-weight": (mixture_doc([1.0, 0.0]), WEIGHT_RULE),
    "mixture-of-2d-and-3d": (mixture_doc([1.0, 1.0], components=[BOX2, BOX3]),
                             "share one dimension"),
    "box-nan-lo": ({"kind": "uniform-box", "lo": [float("nan"), 0], "hi": [1, 1]},
                   "uniform-box spec key 'lo' must be finite"),
    "box-inf-hi": ({"kind": "uniform-box", "lo": [0, 0], "hi": [float("inf"), 1]},
                   "uniform-box spec key 'hi' must be finite"),
    "gaussian-inf-mean": (gaussian_doc([1.0], means=[[float("inf"), 0.0]]),
                          "gaussian-mixture spec key 'means' must be finite"),
    "gaussian-nan-factor": (gaussian_doc([1.0], factors=[[[float("nan"), 0.0], [0.0, 1.0]]]),
                            "gaussian-mixture spec key 'cov_factors' must be finite"),
    "simplex-inf-vertex": (
        {"kind": "uniform-simplex", "vertices": [[0, 0], [1, 0], [0, float("inf")]]},
        "uniform-simplex spec key 'vertices' must be finite"),
    "atoms-nan-point": (atoms_doc([1.0, 1.0], points=[[float("nan"), 0.0], [1.0, 1.0]]),
                        "finite-atoms spec key 'points' must be finite"),
    # JSON true and false are no numbers, though numpy reads them as 1 and 0
    "box-bool-corners": ({"kind": "uniform-box", "lo": [False, 0], "hi": [True, 1]},
                         "uniform-box spec key 'lo' must not hold true or false"),
    "atoms-bool-point": (atoms_doc([1.0, 1.0], points=[[0.0, True], [1.0, 1.0]]),
                         "finite-atoms spec key 'points' must not hold true or false"),
    "atoms-bool-weight": (atoms_doc([1.0, True]),
                          "finite-atoms spec key 'weights' must not hold true or false"),
    "gaussian-bool-factor": (gaussian_doc([1.0], factors=[[[True, 0.0], [0.0, 1.0]]]),
                             "gaussian-mixture spec key 'cov_factors' must not hold true"),
    "mixture-bool-weight": (mixture_doc([1.0, True]),
                            "mixture spec key 'weights' must not hold true or false"),
}


class TestMeasureSpec:
    @pytest.mark.parametrize("doc, word", list(REJECTED_SPECS.values()),
                             ids=list(REJECTED_SPECS))
    def test_invalid_spec_rejected_when_built(self, doc, word):
        with pytest.raises(ValueError, match=word):
            MeasureSpec.from_json(doc)

    @pytest.mark.parametrize("kind, params", [
        ("uniform-box", {"lo": [], "hi": []}),
        ("uniform-simplex", {"vertices": [[]]}),
        ("finite-atoms", {"points": [[]], "weights": [1.0]}),
        ("gaussian-mixture", {"means": np.zeros((1, 0)), "cov_factors": np.zeros((1, 0, 0)),
                              "weights": [1.0]}),
    ], ids=["box", "simplex", "atoms", "gaussian"])
    def test_zero_dimensional_spec_rejected(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} spec must have dimension >= 1, got 0"):
            MeasureSpec(kind, params)

    def test_mixture_components_must_be_specs(self):
        with pytest.raises(ValueError, match="must be MeasureSpec"):
            MeasureSpec("mixture", {"components": [BOX2], "weights": [1.0]})

    @pytest.mark.parametrize("doc, n", [
        (gaussian_doc([1.0]), 2),
        (BOX3, 3),
        ({"kind": "uniform-simplex", "vertices": [[0], [1]]}, 1),
        (atoms_doc([1.0, 2.0], points=[[0, 0, 0, 0], [1, 1, 1, 1]]), 4),
        (mixture_doc([1.0, 2.0], components=[BOX3, mixture_doc([1.0], [BOX3])]), 3),
    ])
    def test_dimension(self, doc, n):
        assert MeasureSpec.from_json(doc).dimension == n

    def test_mixture_json_round_trip(self):
        doc = mixture_doc([2, 1], components=[gaussian_doc([1]), mixture_doc([1], [BOX2])])
        spec = MeasureSpec.from_json(json.loads(json.dumps(doc)))  # tuples become lists
        again = MeasureSpec.from_json(json.loads(json.dumps(doc)))
        assert again == spec
        assert again.params["weights"] == [2.0, 1.0]
        assert sample(again, 50, seed=4) == sample(spec, 50, seed=4)

    def test_finite_atoms_draw(self):
        atoms = [[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]
        spec = MeasureSpec("finite-atoms", {"points": atoms, "weights": [1.0, 2.0, 3.0]})
        c = sample(spec, 7, seed=11)
        assert c == sample(spec, 7, seed=11)
        assert c.size == 7 and np.array_equal(c.weights, np.ones(7))
        assert all(list(p) in atoms for p in c.points.tolist())


class TestRegularize:
    def test_mass_bookkeeping(self):
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 10, seed=0)
        mixed = regularize(c, MeasureSpec.gaussian([0.5, 0.5]), p=1.0, count=6, seed=1)
        assert mixed.size == 16
        assert abs(mixed.total_mass - 2.0 * c.total_mass) <= 1e-12 * c.total_mass

    def test_symmetric_pair_stays_symmetric(self):
        z = np.array([1.0, 1.0])
        c = symmetrize(sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 8, seed=2), z)
        gamma = MeasureSpec.gaussian(z)
        mixed = regularize(c, gamma, p=2.0, count=10, seed=5)
        assert abs(mixed.total_mass - 1.5 * c.total_mass) <= 1e-12 * c.total_mass

    def test_background_dimension_checked_before_drawing(self, monkeypatch):
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 4, seed=0)
        monkeypatch.setattr(measures, "sample", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match="background dimension mismatch"):
            regularize(c, MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 1.0, 4, 1)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.0])
    def test_p_checked_before_drawing(self, monkeypatch, p):
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 4, seed=0)
        monkeypatch.setattr(measures, "sample", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match="p must be finite and > 0"):
            regularize(c, MeasureSpec.uniform_box([0, 0], [1, 1]), p, 4, 1)


class TestSymmetrize:
    def test_single_point(self):
        c = WeightedPointCloud.from_points([[0.0, 0.0]])
        out = symmetrize(c, (1.0, 1.0))
        rows = sorted(map(tuple, out.points))
        assert rows == [(0.0, 0.0), (2.0, 2.0)]
        assert np.array_equal(out.weights, [0.5, 0.5])

    def test_mass_preserved(self):
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 9, seed=4)
        out = symmetrize(c, (0.25, 0.5))
        assert abs(out.total_mass - c.total_mass) <= 1e-12 * c.total_mass

    def test_reflection_invariance_as_multiset(self):
        z = np.array([0.5, -1.25])  # binary-exact center
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 11, seed=8)
        out = symmetrize(c, z)
        reflected = np.sort(2 * z - out.points, axis=0)
        assert np.allclose(np.sort(out.points, axis=0), reflected, atol=1e-12)

    def test_center_dimension_checked(self):
        c = WeightedPointCloud.from_points([[0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetry center dimension mismatch"):
            symmetrize(c, (1.0, 1.0, 1.0))


class TestMonotoneLiftRaw:
    def test_lifted_mass_nonincreasing_and_vanishing(self):
        # direct statement on the raw formula: mass(L) = sum of w over
        # {x1 >= alpha, form(x) >= (x1 - alpha) L} shrinks as L grows
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, size=(64, 2))
        cloud = WeightedPointCloud.from_points(pts)
        alpha = weighted_quantile(pts[:, 0], cloud.weights, 0.5)
        form = HalfSpace(np.array([0.3, 1.0]), 0.55)
        values = form.value(pts)
        masses = []
        for L in [0.0, 1.0, 4.0, 16.0, 1e9]:
            member = (pts[:, 0] >= alpha) & (values >= (pts[:, 0] - alpha) * L)
            masses.append(np.sum(cloud.weights[member]))
        assert all(b <= a for a, b in zip(masses, masses[1:]))
        assert masses[-1] == 0.0


class TestCsv:
    def test_round_trip(self):
        c = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 17, seed=21)
        buf = io.StringIO()
        write_csv(c, buf)
        again = read_csv(io.StringIO(buf.getvalue()))
        assert again == c

    def test_missing_weight_column_means_unit(self):
        text = "x1,x2\n0.5,1.5\n2.5,3.5\n"
        c = read_csv(io.StringIO(text))
        assert np.array_equal(c.weights, [1.0, 1.0])
        assert c.points[1, 1] == 3.5

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("a,b\n1,2\n"))

    def test_header_without_coordinates_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            read_csv(io.StringIO("w\n1.0\n2.0\n"))

    def test_write_golden_bytes(self):
        c = WeightedPointCloud.from_points(
            [[-0.0, 5e-324], [0.1 + 0.2, 1e16], [1.7976931348623157e308, -2.5]],
            [1.0, 5e-324, 1.7976931348623157e308],
        )
        buf = io.StringIO()
        write_csv(c, buf)
        assert buf.getvalue() == (
            "x1,x2,w\n"
            "-0.0,5e-324,1.0\n"
            "0.30000000000000004,1e+16,5e-324\n"
            "1.7976931348623157e+308,-2.5,1.7976931348623157e+308\n"
        )
        assert read_csv(io.StringIO(buf.getvalue())) == c

    def test_write_to_path_is_lf_utf8(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_csv(WeightedPointCloud.from_points([[1.5, -2.0]]), path)
        assert path.read_bytes() == b"x1,x2,w\n1.5,-2.0,1.0\n"

    def test_crlf_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(
            b"x1 , x2 ,w\r\n\r\n 0.5 ,1.5, 2\r\n\r\n  \r\n2.5,\t3.5,1\r\n\r\n"
        )
        c = read_csv(path)
        assert np.array_equal(c.points, [[0.5, 1.5], [2.5, 3.5]])
        assert np.array_equal(c.weights, [2.0, 1.0])
        assert list(c.ids) == [0, 1]

    def test_number_spellings_follow_python_float(self):
        c = read_csv(io.StringIO("x1,x2\n1e5,+1\n-0,.5\n1_000,5.\n"))
        assert np.array_equal(c.points, [[1e5, 1.0], [0.0, 0.5], [1000.0, 5.0]])
        assert str(c.points[1, 0]) == "-0.0"
        with pytest.raises(ValueError):
            read_csv(io.StringIO("x1\n0x10\n"))

    def test_short_row_names_its_line(self):
        with pytest.raises(ValueError, match="row 4 has 2 fields, expected 3"):
            read_csv(io.StringIO("x1,x2,w\n1,2,1\n\n3,4\n5,6,1\n"))
        with pytest.raises(ValueError, match="row 2 has 3 fields, expected 2"):
            read_csv(io.StringIO("x1,x2\r\n1,2,3\r\n"))

    def test_quoted_field_rejected(self):
        with pytest.raises(ValueError, match="line 3 has a quoted field"):
            read_csv(io.StringIO('x1,x2\n1,2\n"3",4\n'))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO(""))
        with pytest.raises(ValueError):
            read_csv(io.StringIO("x1,x2\n"))


def _read_outcome(text):
    """What ``read_csv`` makes of text: the cloud's bytes, or the error it raises."""
    try:
        c = read_csv(io.StringIO(text))
    except ValueError as e:
        return type(e), str(e)
    return c.points.shape, c.points.tobytes(), c.weights.tobytes(), c.ids.tobytes()


def _row_by_row_outcome(text):
    """The same, with numpy's reader refusing every table."""
    with mock.patch.object(measures.np, "loadtxt", side_effect=ValueError("unused")):
        return _read_outcome(text)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WEIGHT = st.floats(min_value=5e-324, max_value=1e300)
# Spellings beyond ``repr``: some only ``float`` reads, some neither reads.
_LISTED_SPELLING = st.sampled_from([
    "1_000", "\u0661", "1\u0662.5", "nan", "-inf", "Infinity", "0x10", "", "007.50", "+1",
    "1E5", ".5", "5.", "\u00a01", "1\r2", "1 2", "#1",
    "1\x1c", "\x1d1", "1 \x1e", "\x1f2", "1\u00a0\x1c",
])
_ODD_SPELLING = st.one_of(
    _LISTED_SPELLING,
    _FINITE.map(lambda x: f"{x:+.17E}"),
    st.builds(lambda digits, e: f"{digits}e{e}",
              st.text("0123456789", min_size=18, max_size=30), st.integers(-340, 320)),
)
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_BLANK_LINE = st.sampled_from(["", "\r", " ", "\t ", "\x1c"])


@st.composite
def _csv_texts(draw):
    """Tables of ``repr`` floats, 1 to 6 columns with or without ``w``, 1 to 50
    rows, LF or CRLF, with blank lines of one or more kinds; in half of them
    one other spelling, padded, stands in up to three fields, or up to three
    rows get a trailing comma (spelling ``","``)."""
    n = draw(st.integers(1, 6))
    has_w = draw(st.booleans())
    row = st.tuples(st.lists(_FINITE.map(repr), min_size=n, max_size=n),
                    st.lists(_WEIGHT.map(repr), min_size=int(has_w), max_size=int(has_w)))
    rows = [coords + w for coords, w in draw(st.lists(row, min_size=1, max_size=50))]
    if draw(st.booleans()):
        spelling = draw(st.one_of(st.just(","), _ODD_SPELLING, _LISTED_SPELLING))
        for _ in range(draw(st.integers(1, 3))):
            fields = rows[draw(st.integers(0, len(rows) - 1))]
            if spelling == ",":
                fields.append("")
            else:
                fields[draw(st.integers(0, len(fields) - 1))] = (
                    draw(_PAD) + spelling + draw(_PAD))
    blank = st.sampled_from(draw(st.lists(_BLANK_LINE, min_size=1, max_size=3, unique=True)))
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["w"] * has_w)]
    for fields in rows:
        lines += draw(st.lists(blank, max_size=2))
        lines.append(",".join(fields))
    lines += draw(st.lists(blank, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestCsvReaderParity:
    """numpy's C reader and the row-by-row reader agree bit for bit, errors included."""

    @given(_csv_texts())
    @settings(max_examples=200, deadline=None)
    def test_same_cloud_or_same_error(self, text):
        assert _read_outcome(text) == _row_by_row_outcome(text)

    @given(st.one_of(st.tuples(_PAD, _ODD_SPELLING, _PAD).map("".join),
                     st.text(st.characters(max_codepoint=0x7F), max_size=6),
                     st.text(max_size=4)))
    @settings(max_examples=400, deadline=None)
    def test_one_field_reads_as_float_reads_it(self, field):
        text = f"x1,x2\n0.5,{field}\n"
        assert _read_outcome(text) == _row_by_row_outcome(text)

    @pytest.mark.parametrize("text", ["x1\n1\x1c\n", "x1,x2\n1,\x1f2\n", "x1\n1\r2\n"])
    def test_separators_only_numpy_knows_follow_float(self, text):
        """numpy takes \\x1c-\\x1f for whitespace and a lone CR for a line end."""
        with pytest.raises(ValueError, match="could not convert string to float"):
            read_csv(io.StringIO(text))


class TestCsvFastPath:
    """Clean ``write_csv`` output never reaches the row-by-row reader."""

    @pytest.mark.parametrize("n, size", [(1, 1), (1, 40), (2, 1), (5, 40)])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("via_path", [False, True])
    def test_write_csv_output_read_by_numpy(self, tmp_path, n, size, eol, via_path):
        c = sample(MeasureSpec.uniform_box([0.0] * n, [1.0] * n), size, seed=3)
        buf = io.StringIO()
        write_csv(c, buf)
        text = buf.getvalue().replace("\n", eol)
        if via_path:
            source = tmp_path / "pts.csv"
            source.write_bytes(text.encode("utf-8"))
        else:
            source = io.StringIO(text)
        with mock.patch.object(measures, "_read_rows", side_effect=AssertionError("fell back")):
            again = read_csv(source)
        assert again == c
        assert again.points.tobytes() == c.points.tobytes()


class TestCsvNoData:
    @pytest.mark.parametrize("text", [
        "x1,x2", "x1,x2\n", "x1,x2\r\n", "x1,x2\n\n\n", "x1,x2\r\n\r\n", "x1,x2\n\r",
        "x1,x2\n\r\n\r", "x1\n   \n\t\n", "x1,w\r\n \r\n\r\n", "x1\n\x1c\n",
    ])
    def test_no_data_rows_raise_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="CSV contains no data rows"):
                read_csv(io.StringIO(text))
