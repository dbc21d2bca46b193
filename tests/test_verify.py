"""The certification suite against fixtures and seeded clouds."""

import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import yaoyao.verify as verify
from yaoyao.geometry import CoordinateSystem, HalfSpace, halfspace_contains_region
from yaoyao.measures import (
    MeasureSpec,
    WeightedPointCloud,
    halfspace_mass,
    project_measure,
    sample,
    seeded_generator,
    split_at_median,
    symmetrize,
    weighted_quantile,
)
from yaoyao.partition import PartitionTree, locate_points, regions, witness_region
from yaoyao.solver import SolverConfig, compute_center_partition
from yaoyao.verify import (
    check_avoidance,
    check_continuity,
    check_depth,
    check_equipartition,
    check_prefix_dependence,
    check_symmetry,
    oracle_center_2d,
)

CFG = SolverConfig()
SYS2 = CoordinateSystem.standard(2)
CENTER_TOL = 1e-9  # the absolute center tolerance the solve checks scale

ASYMMETRIC = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)])
SQUARE = WeightedPointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="module")
def square_tree():
    return compute_center_partition(SQUARE, SYS2, CFG)


@pytest.fixture(scope="module")
def asym_tree():
    return compute_center_partition(ASYMMETRIC, SYS2, CFG)


class TestEquipartition:
    def test_square_exact(self, square_tree):
        rep = check_equipartition(square_tree, SQUARE)
        assert rep.passed
        assert rep.stats["max_relative_deviation"] == 0.0
        assert sorted(rep.stats["region_masses"].values()) == [1.0, 1.0, 1.0, 1.0]

    def test_zero_tol_accepted(self, square_tree):
        assert check_equipartition(square_tree, SQUARE, tol=0.0).passed

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_tol_must_be_finite_and_non_negative(self, square_tree, tol):
        # NaN or inf would pass any tree, a negative tol every tree fails
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_equipartition(square_tree, SQUARE, tol=tol)

    def test_asymmetric_exact(self, asym_tree):
        rep = check_equipartition(asym_tree, ASYMMETRIC)
        assert rep.passed
        assert list(rep.stats["region_masses"].values()) == [1.0, 1.0, 1.0, 1.0]

    def test_seeded_uniform_box(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 4096, seed=101)
        tree = compute_center_partition(cloud, SYS2, CFG)
        rep = check_equipartition(tree, cloud)
        assert rep.passed
        assert rep.stats["max_relative_deviation"] <= 1e-6
        assert rep.stats["max_prefix_deviation"] <= 1e-6

    @pytest.mark.parametrize("n, scale, offset", [
        (2, 4e307, 0.0), (3, 1e307, 0.0), (2, 1e306, 3e307), (3, 1e250, 1e252), (3, 1e160, 0.0),
    ])
    def test_huge_coordinates_keep_their_regions(self, n, scale, offset):
        # squares past the float range must leave the facet fuzz finite; an
        # infinite one sends every point to the all-minus region
        base = WeightedPointCloud.from_points(np.random.default_rng(2).standard_normal((1024, n)))
        cloud = WeightedPointCloud.from_points(base.points * scale + offset)
        system = CoordinateSystem.standard(n)
        tree = compute_center_partition(base, system, CFG)
        # the base partition, scaled; the 2-D 4e307 cloud is past what the solver takes
        trees = [PartitionTree(system, tree.center * scale + offset, tree.axes, {})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.max(np.abs(cloud.points)) <= 2.0**1022:
                trees.append(compute_center_partition(cloud, system, CFG))
            for t in trees:
                rep = check_equipartition(t, cloud)
                assert rep.passed and rep.stats["max_relative_deviation"] == 0.0
                assert check_depth(t, cloud, 1000, 5).passed
                assert check_avoidance(t, 1000, 5, cloud).passed

    def test_empty_prefix_counts_fully(self):
        # standard axes about the origin; prefix (+, -) holds no point, while
        # every non-empty prefix is off by exactly one half
        axes = [[1.0, 0.0, 0.0]] + [[0.0, 1.0, 0.0]] * 2 + [[0.0, 0.0, 1.0]] * 4
        tree = PartitionTree(CoordinateSystem.standard(3), np.zeros(3), axes, {})
        cloud = WeightedPointCloud.from_points(
            [(-1, -1, -1), (-1, -1, 1), (-1, -2, 2), (-1, 1, -1), (-1, 1, 1),
             (-1, 2, 2), (1, 1, -1), (1, 1, 1)]
        )
        rep = check_equipartition(tree, cloud)
        assert rep.stats["max_prefix_deviation"] == 1.0
        assert not rep.passed


def mask_region_masses(tree, cloud):
    """Region and prefix masses gathered by boolean masks, for comparison."""
    n = tree.dimension
    labels = locate_points(tree, cloud.points)
    code = np.zeros(cloud.size, dtype=np.int64)
    prefix, full = [], []
    for k in range(1, n + 1):
        code = 2 * code + (labels[:, k - 1] > 0)
        masses = [float(np.sum(cloud.weights[code == c])) for c in range(2**k)]
        (full if k == n else prefix).extend(masses)
    return prefix, full


class TestEquipartitionGathers:
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_masses_bit_identical_to_boolean_masks(self, seed, n, size):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((size, n))
        pts[:, 0] = rng.choice([-1.0, 0.0, 0.5], size=size)  # ties on the first cut
        weights = rng.uniform(0.1, 5.0, size)
        cloud = WeightedPointCloud(pts, weights, rng.permutation(size))

        axes = np.zeros((2**n - 1, n))  # random sub-diagonal axes, level by level
        for k in range(n):
            rows = slice(2**k - 1, 2**(k + 1) - 1)
            axes[rows, k] = 1.0
            axes[rows, k + 1:] = rng.standard_normal((2**k, n - k - 1))
        center = np.concatenate([[0.0], rng.standard_normal(n - 1)])
        tree = PartitionTree(CoordinateSystem.standard(n), center, axes, {})
        rep = check_equipartition(tree, cloud)
        prefix, full = mask_region_masses(tree, cloud)
        assert list(rep.stats["region_masses"].values()) == full
        total = cloud.total_mass
        want = [total / 2**k for k in range(1, n) for _ in range(2**k)]
        devs = [abs(m - w) / w for m, w in zip(prefix, want)]
        assert rep.stats["max_prefix_deviation"] == max(devs, default=0.0)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_sorted_group_sums_keep_the_bits_of_a_scan(self, seed, n, size):
        # decimal weights round differently in every order of addition, and
        # groups past 8 and 128 points reach numpy's lanes and halving; the
        # labels come from a random subset of the regions, so some are empty
        rng = np.random.default_rng(seed)
        used = rng.choice(2**n, size=rng.integers(1, 2**n + 1), replace=False)
        region = rng.choice(used, size=size)
        bits = (region[:, None] >> np.arange(n - 1, -1, -1)) & 1
        labels = np.where(bits == 1, 1, -1).astype(np.int64)
        weights = rng.integers(1, 1000, size) / 100.0
        got = verify._prefix_masses(labels, weights)
        code = np.zeros(size, dtype=np.int64)
        for k in range(1, n + 1):  # the per-code scan the sorted groups replaced
            code = 2 * code + (labels[:, k - 1] > 0)
            want = [float(np.sum(np.compress(code == c, weights))) for c in range(2**k)]
            assert [m.hex() for m in got[k - 1]] == [m.hex() for m in want]
        assert len(got) == n

    @pytest.mark.parametrize("w0", [0.3, 1.0, 0.25, 2.0**40, 2.0**-1074])
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 3000))
    @settings(max_examples=20, deadline=None)
    def test_equal_weights_keep_the_bits_of_a_scan(self, w0, seed, n, size):
        # equal powers of two are counted, and count * w0 is exact; 0.3 is not
        # a power of two, and count * 0.3 need not round as the sum of count
        # 0.3s does, so equal weights of 0.3 must not be counted
        rng = np.random.default_rng(seed)
        used = rng.choice(2**n, size=rng.integers(1, 2**n + 1), replace=False)
        region = rng.choice(used, size=size)
        labels = np.where((region[:, None] >> np.arange(n - 1, -1, -1)) & 1, 1, -1)
        weights = np.full(size, w0)
        got = verify._prefix_masses(labels, weights)
        code = np.zeros(size, dtype=np.int64)
        for k in range(1, n + 1):
            code = 2 * code + (labels[:, k - 1] > 0)
            want = [float(np.sum(np.compress(code == c, weights))) for c in range(2**k)]
            assert [m.hex() for m in got[k - 1]] == [m.hex() for m in want]
        assert len(got) == n


class TestAvoidance:
    def test_square_thousand(self, square_tree):
        rep = check_avoidance(square_tree, 1000, seed=3, cloud=SQUARE)
        assert rep.passed and rep.stats == {"regions": 4}
        assert rep.tolerances == {} and rep.seed is None

    def test_without_cloud(self, asym_tree):
        rep = check_avoidance(asym_tree, 200, seed=4)
        assert rep.passed

    def test_zero_count_rejected(self, square_tree):
        with pytest.raises(ValueError, match="count"):
            check_avoidance(square_tree, 0, seed=1)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_lemma_holds_on_trees_that_were_never_solved(self, n, seed):
        # a random center and random sub-diagonal axes scaled by 10^-3..10^3:
        # no equipartition, yet every half-space holding the center contains
        # the region its witness walk reaches, so the check passes unseen
        rng = np.random.default_rng(seed)
        axes = np.zeros((2**n - 1, n))
        for k in range(n):
            level = slice(2**k - 1, 2**(k + 1) - 1)
            axes[level, k] = 1.0
            axes[level, k + 1:] = (rng.standard_normal((2**k, n - k - 1))
                                   * 10.0 ** rng.uniform(-3.0, 3.0, (2**k, 1)))
        center = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        tree = PartitionTree(CoordinateSystem.standard(n), center, axes, {})
        cloud = WeightedPointCloud.from_points(rng.standard_normal((16, n)))
        reports = [check_avoidance(tree, count, s, c).to_json()
                   for count, s, c in ((1, 0, None), (1000, seed, cloud), (7, 2**64 - 1, cloud))]
        assert reports[0]["passed"] and reports[0]["stats"] == {"regions": 2**n}
        assert reports[1] == reports[0] and reports[2] == reports[0]
        regs = regions(tree)
        for _ in range(50):
            a = rng.standard_normal(n)
            gap = abs(rng.standard_normal()) if rng.random() < 0.8 else 0.0
            h = HalfSpace(a, float(HalfSpace(a, 0.0).value(center)) - gap)
            assert halfspace_contains_region(h, regs[witness_region(tree, h)])

    def test_report_is_json_ready(self, square_tree):
        import json
        rep = check_avoidance(square_tree, 10, seed=5, cloud=SQUARE)
        json.dumps(rep.to_json())


class TestDepth:
    def test_square(self, square_tree):
        rep = check_depth(square_tree, SQUARE, 500, seed=6)
        assert rep.passed
        assert rep.stats["min_mass"] >= 1.0 - 1e-9

    def test_zero_count_rejected(self, square_tree):
        with pytest.raises(ValueError, match="count"):
            check_depth(square_tree, SQUARE, 0, seed=1)

    def test_gaussian_cloud(self):
        cloud = sample(MeasureSpec.gaussian([0.0, 0.0]), 20_000, seed=12)
        tree = compute_center_partition(cloud, SYS2, CFG)
        rep = check_depth(tree, cloud, 1000, seed=13)
        assert rep.passed

    @pytest.fixture(scope="class")
    def weighted(self):
        rng = np.random.default_rng(21)
        cloud = WeightedPointCloud.from_points(rng.uniform(0.0, 1.0, (3000, 2)),
                                               rng.uniform(0.1, 3.0, 3000))
        return cloud, compute_center_partition(cloud, SYS2, CFG)

    def test_same_seed_same_report(self, weighted):
        cloud, tree = weighted
        first, second = (check_depth(tree, cloud, 300, seed=8) for _ in range(2))
        assert json.dumps(first.to_json()) == json.dumps(second.to_json())

    @pytest.mark.parametrize("shift", [0.0, 3.0])
    def test_matches_one_mass_per_halfspace(self, weighted, shift):
        # the batched product may put each half-space's anchor, a data point
        # on its boundary, on the other side than halfspace_mass does
        cloud, tree = weighted
        tree = PartitionTree(tree.system, tree.center + shift, tree.axes, tree.meta)
        rep = check_depth(tree, cloud, 400, seed=9)
        normals, offsets = verify._halfspace_draws(seeded_generator(9), tree, cloud, 400)
        ref = np.array([halfspace_mass(cloud, HalfSpace(a, c))
                        for a, c in zip(normals, offsets)])
        anchor = cloud.weights[np.argmin(np.abs(normals @ cloud.points.T - offsets[:, None]),
                                         axis=1)]
        floor = rep.stats["floor"]
        assert abs(rep.stats["min_mass"] - ref.min()) <= anchor[np.argmin(ref)]
        fails = rep.stats["failures"]
        assert np.sum(ref + anchor < floor) <= fails <= np.sum(ref - anchor < floor)

    def test_center_outside_the_hull_fails(self, weighted):
        cloud, tree = weighted
        moved = PartitionTree(tree.system, tree.center + 3.0, tree.axes, tree.meta)
        rep = check_depth(moved, cloud, 200, seed=10)
        assert not rep.passed and 0 < rep.stats["failures"] <= 200
        assert rep.stats["min_mass"] < rep.stats["floor"]

    def test_memory_stays_within_one_block(self, square_tree):
        # 1000 half-spaces by 2^15 points would take 256 MiB as one product;
        # the kernel reuses one 256 KiB buffer for each column chunk's 2^15
        # products and one 256 KiB bool block of sides for a block's 8 rows,
        # beside the 512 KiB transposed points and the draws' 16 KiB arrays:
        # the peak measured 1.04 MiB (a 2 MiB block product would reach 2.5 MiB)
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 2**15, seed=14)
        tree = PartitionTree(SYS2, [0.5, 0.5], square_tree.axes, {})
        tracemalloc.start()
        try:
            check_depth(tree, cloud, 1000, seed=15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    @pytest.mark.parametrize("count", [0, -1])
    def test_draws_reject_count_below_one(self, square_tree, count):
        with pytest.raises(ValueError, match="count"):
            verify._halfspace_draws(seeded_generator(1), square_tree, SQUARE, count)


# sha256 of the (normals, offsets) bytes of 400 draws, recorded when the draws
# became blocks: one (400, n) normal block of directions, then one integers
# block of anchor rows, then any redraw of a direction of norm <= 1e-12; any
# drift in check_depth's half-space stream fails here
DRAWS_GOLDEN = {
    (2, "cloud"): "449f8dfe36ebf9e5a8167e04c37b94f151392f83b3e6a251dc6b6841bcc49f44",
    (3, "cloud"): "319f78be96436195ad82ba74b3a77154e613ac5e0bb310ade5292472a664e81f",
}


@pytest.mark.parametrize("n, kind", sorted(DRAWS_GOLDEN))
def test_halfspace_draws_match_the_golden_stream(n, kind):
    cloud = sample(MeasureSpec.uniform_box([0.0] * n, [1.0 + k for k in range(n)]), 300, seed=31)
    tree = compute_center_partition(cloud, CoordinateSystem.standard(n), CFG)
    normals, offsets = verify._halfspace_draws(seeded_generator(32), tree, cloud, 400)
    digest = hashlib.sha256(normals.tobytes() + offsets.tobytes()).hexdigest()
    assert digest == DRAWS_GOLDEN[n, kind]


class _ZeroRows:
    """A generator whose first block of normals has zero rows at ``rows``;
    every other draw passes through to the seeded stream."""

    def __init__(self, seed, rows):
        self.rng, self.rows = seeded_generator(seed), rows

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if self.rows:
            out[self.rows], self.rows = 0.0, None
        return out

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


class TestHalfspaceDraws:
    """What every draw must satisfy, whatever the stream."""

    @pytest.fixture(scope="class")
    def fitted(self):
        cloud = sample(MeasureSpec.gaussian([0.0, 0.0, 0.0]), 500, seed=33)
        return compute_center_partition(cloud, CoordinateSystem.standard(3), CFG), cloud

    @pytest.mark.parametrize("shift", [0.0, 5.0], ids=["cloud", "center-outside"])
    def test_unit_normals_holding_the_center(self, fitted, shift):
        # the solved center, and one outside the cloud's hull, far from every boundary
        tree, cloud = fitted
        tree = PartitionTree(tree.system, tree.center + shift, tree.axes, tree.meta)
        normals, offsets = verify._halfspace_draws(seeded_generator(34), tree, cloud, 2000)
        eps = np.finfo(float).eps
        assert np.all(np.abs(np.sqrt(np.sum(normals**2, axis=1)) - 1.0) <= 4 * eps)
        # the expression the draws orient the center's side with
        assert np.all(normals @ tree.center - offsets >= 0.0)

    def test_each_boundary_passes_through_a_cloud_point(self, fitted):
        tree, cloud = fitted
        normals, offsets = verify._halfspace_draws(seeded_generator(35), tree, cloud, 2000)
        gaps = np.abs(normals @ cloud.points.T - offsets[:, None])
        anchor = cloud.points[np.argmin(gaps, axis=1)]
        # a . anchor, rounded either way, differs by a few ulps of its terms
        bound = 8 * np.finfo(float).eps * np.sum(np.abs(normals * anchor), axis=1)
        assert np.all(np.abs(np.sum(normals * anchor, axis=1) - offsets) <= bound)

    def test_degenerate_directions_are_redrawn_in_row_order(self, fitted):
        tree, cloud = fitted
        normals, offsets = verify._halfspace_draws(_ZeroRows(36, [1, 4]), tree, cloud, 6)
        plain = verify._halfspace_draws(seeded_generator(36), tree, cloud, 6)
        keep = [0, 2, 3, 5]
        assert normals[keep].tobytes() == plain[0][keep].tobytes()
        assert offsets[keep].tobytes() == plain[1][keep].tobytes()
        # the redraws follow both blocks of the stream, row 1 first
        ref = seeded_generator(36)
        ref.standard_normal((6, 3))
        ref.integers(cloud.size, size=6)
        for i in (1, 4):
            g = ref.standard_normal(3)
            u = g / np.linalg.norm(g)
            assert np.allclose(normals[i], u, rtol=0, atol=1e-15) or \
                np.allclose(normals[i], -u, rtol=0, atol=1e-15)
        assert np.all(normals @ tree.center - offsets >= 0.0)


@pytest.mark.parametrize("check", [
    lambda tree, cloud: check_depth(tree, cloud, 10, seed=1),
    lambda tree, cloud: check_avoidance(tree, 10, 1, cloud),
], ids=["depth", "avoidance"])
def test_halfspace_checks_reject_a_cloud_of_another_dimension(square_tree, check):
    cube = WeightedPointCloud.from_points(np.eye(3))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        check(square_tree, cube)


class TestSymmetry:
    def test_square_fixture(self):
        rep = check_symmetry(SQUARE, (0.5, 0.5), CFG)
        assert rep.passed and rep.stats["max_deviation"] <= 50 * CENTER_TOL
        assert rep.tolerances == {"max_abs": 50 * CENTER_TOL} and rep.seed is None

    def test_symmetrized_cloud_2d(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [3, 1]), 150, seed=44)
        rep = check_symmetry(cloud, (1.0, 2.0), CFG)
        assert rep.passed


class TestPrefixDependence:
    def test_sine_shear_in_3d(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 128, seed=21)

        def shear(pts):
            pts[:, 2] += np.sin(pts[:, 0])
            return pts

        rep = check_prefix_dependence(cloud, 2, shear, CFG)
        assert rep.passed
        assert rep.stats["prefix_deviation"] == 0.0  # byte-for-byte same prefix math

    def test_identity_shear(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 64, seed=22)
        rep = check_prefix_dependence(cloud, 2, lambda p: p, CFG)
        assert rep.passed

    def test_k_zero_illegal(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 16, seed=23)
        with pytest.raises(ValueError):
            check_prefix_dependence(cloud, 0, lambda p: p, CFG)

    def test_shear_touching_prefix_rejected(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 16, seed=24)

        def bad(pts):
            pts[:, 0] += 1.0
            return pts

        with pytest.raises(ValueError):
            check_prefix_dependence(cloud, 1, bad, CFG)

    def test_shear_changing_the_shape_rejected(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 16, seed=24)
        with pytest.raises(ValueError, match="shear must preserve the array shape"):
            check_prefix_dependence(cloud, 1, lambda p: p[:, :1], CFG)


class TestContinuity:
    def test_qualitative_decay(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 512, seed=1)
        gamma = MeasureSpec.gaussian([2.0, 2.0])
        rep = check_continuity(cloud, gamma, [0.2, 0.05], CFG, count=256, seed=99)
        assert rep.passed
        d = dict(zip(rep.stats["eps"], rep.stats["distances"]))
        assert d[0.05] <= d[0.2] + 10 * CENTER_TOL

    def test_symmetric_perturbation_leaves_center(self):
        z = (0.5, 0.5)
        cloud = symmetrize(sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 101, seed=2), z)
        gamma = MeasureSpec("finite-atoms", {"points": [[0.25, 0.5], [0.75, 0.5]],
                                             "weights": [1.0, 1.0]})
        rep = check_continuity(cloud, gamma, [0.1], CFG, count=2, seed=3)
        assert rep.stats["distances"][0] <= 100 * CENTER_TOL

    # 1 / eps overflows below about 5.6e-309
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 5e-324, 5e-309])
    def test_eps_checked_before_any_solve(self, monkeypatch, bad):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 16, seed=1)
        monkeypatch.setattr(verify, "compute_center_partition", None)  # a solve would raise
        with pytest.raises(ValueError, match="eps values must be finite and > 0"):
            check_continuity(cloud, MeasureSpec.gaussian([0.5, 0.5]), [0.2, bad], CFG)


def scanned_center_2d(cloud):
    """The oracle's center with g evaluated at every breakpoint, no bisection."""
    alpha, low, high = split_at_median(cloud)

    def medians(t):
        axis = np.array([1.0, t])
        return [weighted_quantile(project_measure(h, alpha, axis).points[:, 0],
                                  h.weights, 0.5) for h in (low, high)]

    def g(t):
        m_low, m_high = medians(t)
        return m_low - m_high

    ts = {0.0}
    for h in (low, high):
        for (x1, y1), (x2, y2) in itertools.combinations(h.points.tolist(), 2):
            if x1 != x2:
                ts.add((y1 - y2) / (x1 - x2))
    ts = sorted(ts)
    ts = [ts[0] - (1.0 + abs(ts[0]))] + ts + [ts[-1] + (1.0 + abs(ts[-1]))]
    gs = [g(t) for t in ts]
    i = next((k for k in range(1, len(ts) - 1) if gs[k] >= 0.0), len(ts) - 1)
    a, b, ga, gb = ts[i - 1], ts[i], gs[i - 1], gs[i]
    if ga == gb != 0.0:
        raise RuntimeError("median difference never changes sign")
    t = a if ga == gb else a - ga * (b - a) / (gb - ga)
    m_low, m_high = medians(t)
    return np.array([alpha, 0.5 * (m_low + m_high)])


class TestOracle2D:
    def test_square(self, square_tree):
        assert np.array_equal(oracle_center_2d(SQUARE), [0.5, 0.5])

    def test_asymmetric_closed_form(self):
        assert np.array_equal(oracle_center_2d(ASYMMETRIC), [1.5, 1.5])

    def test_root_beyond_every_breakpoint(self):
        # each half is one point, so there is no crossing; g(t) = t - 5
        cloud = WeightedPointCloud.from_points([(0, 0), (1, 5)])
        assert np.array_equal(oracle_center_2d(cloud), [0.5, 2.5])

    def test_all_points_on_the_cut_plane(self):
        cloud = WeightedPointCloud.from_points([(0, 0), (0, 1)])
        with pytest.raises(RuntimeError, match="never changes sign"):
            oracle_center_2d(cloud)

    @given(st.lists(
        st.tuples(st.integers(-3, 3).map(float) | st.floats(-10, 10, width=16),
                  st.integers(-3, 3).map(float) | st.floats(-10, 10, width=16),
                  st.just(1.0) | st.floats(0.1, 10.0)),
        min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bisection_matches_a_full_scan(self, rows):
        rows = np.array(rows)
        cloud = WeightedPointCloud.from_points(rows[:, :2], rows[:, 2])
        try:
            want = scanned_center_2d(cloud)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                oracle_center_2d(cloud)
            return
        # + 0.0 folds -0.0 into 0.0: the scan may keep the other zero slope
        got = oracle_center_2d(cloud)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_agrees_with_solver_on_seeded_clouds(self):
        box = MeasureSpec.uniform_box([-1, -2], [2, 1])
        for seed in range(10):
            cloud = sample(box, 128, seed=seed)
            tree = compute_center_partition(cloud, SYS2, CFG)
            got = oracle_center_2d(cloud)
            assert np.max(np.abs(got - tree.center)) <= 1e-8, f"seed {seed}"

    def test_rejects_other_dimensions(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 16, seed=1)
        with pytest.raises(ValueError):
            oracle_center_2d(cloud)
