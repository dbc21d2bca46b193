"""Center solves: bracketing, the axis residual, and the recursive engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import yaoyao.solver as solver
from yaoyao.geometry import CoordinateSystem
from yaoyao.measures import MeasureSpec, WeightedPointCloud, sample, split_at_median
from yaoyao.partition import serialize
from yaoyao.solver import (
    AxisSolveTrace,
    BracketNotFoundError,
    DegenerateInputError,
    SolverConfig,
    bracket_and_bisect,
    compute_center_partition,
    evaluate_axis_residual,
    triangular_axis_solve,
)

CFG = SolverConfig()
SYS2 = CoordinateSystem.standard(2)
SYS3 = CoordinateSystem.standard(3)

ASYMMETRIC = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)])
# residual 2t - 0.6: its root 0.3 is no dyadic midpoint of the first bracket
SHIFTED = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 2.2)])
SQUARE = WeightedPointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


class TestSolverConfig:
    def test_defaults(self):
        assert CFG.root_tol == 1e-10
        assert CFG.residual_tol == 1e-9
        assert CFG.max_dimension == 8

    def test_json_round_trip(self):
        doc = SolverConfig(root_tol=1e-8, max_bisections=75).to_json()
        cfg = SolverConfig.from_json(doc)
        assert cfg.root_tol == 1e-8 and cfg.max_bisections == 75
        assert cfg == SolverConfig(root_tol=1e-8, max_bisections=75)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(root_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_dimension=13)
        with pytest.raises(ValueError):
            SolverConfig.from_json({"bogus": 1})

    def test_removed_memoize_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown solver config keys"):
            SolverConfig.from_json({"memoize": False})


class TestBracketAndBisect:
    def test_linear(self):
        assert bracket_and_bisect(lambda t: 2 * t - 1, 0.0, CFG) == pytest.approx(0.5, abs=1e-10)

    def test_cubic_far_guess(self):
        root = bracket_and_bisect(lambda t: t**3, 3.0, CFG)
        assert abs(root) <= CFG.root_tol

    def test_immediate_root(self):
        assert bracket_and_bisect(lambda t: 0.0 * t, 0.25, CFG) == 0.25

    def test_no_sign_change_raises(self):
        cfg = SolverConfig(max_bracket_expansions=8)
        with pytest.raises(BracketNotFoundError):
            bracket_and_bisect(lambda t: 1.0 + t * 0, 0.0, cfg)

    def test_large_scale_root(self):
        root = bracket_and_bisect(lambda t: t - 1.0e7, 0.0, CFG)
        assert root == pytest.approx(1.0e7, rel=1e-9)

    def test_root_between_adjacent_floats(self):
        # floats near 1e9 are 1.2e-7 apart, so no bracket gets root_tol wide
        r = 1.0e9 + 0.123
        root = bracket_and_bisect(lambda t: -1.0 if t < r else 1.0, 0.0, CFG)
        assert abs(root - r) <= np.spacing(r)

    def test_budget_guard_on_wide_bracket(self):
        # interpolation off a huge far-end value only creeps root_tol/2 per
        # step, and bisection needs 75 of the default 200 steps on a 2^40
        # bracket; the guard switches to midpoints in time
        r = -0.37
        cfg = SolverConfig(bracket_half_width=2.0**40)

        def g(t):
            return 2e-9 if t >= r else -1e300

        root, bracket, _, iterations, _ = solver._bracket_and_bisect(g, 0.0, cfg)
        assert bracket == (-2.0**40, 0.0)
        assert abs(root - r) <= cfg.root_tol
        assert iterations <= cfg.max_bisections


def _piecewise_linear(knots, values):
    """Monotone when values are; extended with slope +-1 beyond the knots."""
    slope = 1.0 if values[-1] >= values[0] else -1.0

    def g(t):
        if t < knots[0]:
            return values[0] + slope * (t - knots[0])
        if t > knots[-1]:
            return values[-1] + slope * (t - knots[-1])
        return float(np.interp(t, knots, values))

    return g


class TestRootStepProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        knots=st.lists(st.floats(-50, 50), min_size=2, max_size=8, unique=True),
        steps=st.lists(st.floats(0, 10), min_size=8, max_size=8),
        shift=st.floats(-30, 30),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
        decreasing=st.booleans(),
        t0=st.floats(-50, 50),
    )
    def test_root_in_narrow_sign_change_bracket(self, knots, steps, shift, scale,
                                                decreasing, t0):
        knots = sorted(knots)
        values = np.cumsum(steps[:len(knots)]) * scale - shift * scale
        if decreasing:
            values = -values
        g = _piecewise_linear(knots, list(values))
        root = bracket_and_bisect(g, t0, CFG)
        if root == t0 and abs(g(t0)) <= CFG.residual_tol:
            return
        tol = CFG.root_tol
        assert g(root) == 0.0 or g(root - tol) * g(root + tol) <= 0.0


class TestAxisResidual:
    def residual_at(self, t):
        alpha, low, high = split_at_median(ASYMMETRIC, 0)
        res, _, _ = evaluate_axis_residual(low, high, alpha, np.array([1.0, t]), CFG)
        return res[0]

    def test_hand_values(self):
        # left medians 1 + t, right medians 2 - t, residual 2t - 1
        assert self.residual_at(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert self.residual_at(0.5) == pytest.approx(0.0, abs=1e-12)
        assert self.residual_at(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_child_centers_returned(self):
        alpha, low, high = split_at_median(ASYMMETRIC, 0)
        _, x_neg, x_pos = evaluate_axis_residual(low, high, alpha, np.array([1.0, 0.0]), CFG)
        assert x_neg[0] == pytest.approx(1.0)
        assert x_pos[0] == pytest.approx(2.0)

    def test_requires_normalized_axis(self):
        alpha, low, high = split_at_median(ASYMMETRIC, 0)
        with pytest.raises(ValueError):
            evaluate_axis_residual(low, high, alpha, np.array([2.0, 0.0]), CFG)


class TestTriangularAxisSolve:
    def test_symmetric_square(self):
        alpha, low, high = split_at_median(SQUARE, 0)
        v, trace = triangular_axis_solve(low, high, alpha, CFG)
        assert np.array_equal(v, [1.0, 0.0])
        assert isinstance(trace, AxisSolveTrace)
        assert trace.max_residual() == 0.0

    @pytest.mark.parametrize("cloud, root", [(ASYMMETRIC, 0.5), (SHIFTED, 0.3)])
    def test_linear_residual_takes_at_most_two_steps(self, cloud, root):
        tree = compute_center_partition(cloud, SYS2, CFG)
        (record,) = tree.meta["root_trace"]["records"]
        assert record["iterations"] <= 2
        assert abs(tree.root.axis[1] - root) <= CFG.root_tol

    @pytest.mark.parametrize("seed", [301, 303])
    def test_gaussian_root_takes_few_steps(self, seed):
        # the secant reaches these roots from one side; the clamp keeps the
        # next step straddling the root instead of stalling at the endpoint
        spec = MeasureSpec.gaussian([0, 0], [[1, 0.3], [0, 2]])
        tree = compute_center_partition(sample(spec, 2048, seed), SYS2, CFG)
        (record,) = tree.meta["root_trace"]["records"]
        assert record["iterations"] <= 10

    def test_asymmetric_root(self):
        alpha, low, high = split_at_median(ASYMMETRIC, 0)
        cfg = SolverConfig(residual_tol=1e-10)
        v, trace = triangular_axis_solve(low, high, alpha, cfg)
        assert v[0] == 1.0
        assert v[1] == pytest.approx(0.5, abs=1e-9)
        assert trace.max_residual() <= 1e-10

    def test_3d_sign_symmetric(self):
        # negating coordinates 2 and 3 maps the cloud to itself, so both axis
        # components vanish
        rng = np.random.default_rng(42)
        half = np.column_stack(
            [rng.uniform(0, 1, 16), rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)]
        )
        mirrored = half * np.array([1.0, -1.0, -1.0])
        cloud = WeightedPointCloud.from_points(np.vstack([half, mirrored]))
        alpha, low, high = split_at_median(cloud, 0)
        v, _ = triangular_axis_solve(low, high, alpha, CFG)
        assert np.array_equal(v, [1.0, 0.0, 0.0])


class TestComputeCenterPartition:
    def test_1d_median(self):
        cloud = WeightedPointCloud.from_points([[0.0], [1.0], [2.0], [3.0]])
        tree = compute_center_partition(cloud, CoordinateSystem.standard(1), CFG)
        assert tree.center[0] == 1.5
        assert tree.root.neg is None and tree.root.pos is None

    def test_square_fixture(self):
        tree = compute_center_partition(SQUARE, SYS2, CFG)
        assert np.array_equal(tree.center, [0.5, 0.5])
        assert np.array_equal(tree.root.axis, [1.0, 0.0])

    def test_asymmetric_fixture(self):
        tree = compute_center_partition(ASYMMETRIC, SYS2, CFG)
        assert np.max(np.abs(tree.center - [1.5, 1.5])) <= 1e-9
        assert abs(tree.root.axis[1] - 0.5) <= 1e-9

    def test_dimension_cap(self):
        cloud = WeightedPointCloud.from_points(np.zeros((3, 9)))
        with pytest.raises(ValueError):
            compute_center_partition(cloud, CoordinateSystem.standard(9), CFG)

    def test_child_center_agreement(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 128, seed=17)
        tree = compute_center_partition(cloud, SYS3, CFG)
        assert tree.meta["max_center_gap"] <= CFG.residual_tol
        assert tree.meta["max_residual"] <= CFG.residual_tol

    def test_prefix_stability_after_solve(self):
        # re-evaluating the residual at the solved axis leaves every component small
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [2, 1, 3]), 96, seed=5)
        alpha, low, high = split_at_median(cloud, 0)
        v, _ = triangular_axis_solve(low, high, alpha, CFG)
        res, _, _ = evaluate_axis_residual(low, high, alpha, v, CFG)
        assert np.max(np.abs(res)) <= CFG.residual_tol + 1e-12

    def test_bracket_parameters_do_not_move_the_center(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 200, seed=23)
        a = compute_center_partition(cloud, SYS2, CFG)
        wide = SolverConfig(bracket_half_width=7.0, bracket_growth=3.0)
        b = compute_center_partition(cloud, SYS2, wide)
        tol = 10 * max(CFG.root_tol, CFG.residual_tol)
        assert np.max(np.abs(a.center - b.center)) <= tol

    def test_deterministic_and_thread_invariant(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 64, seed=2)
        a = compute_center_partition(cloud, SYS3, CFG, workers=1)
        b = compute_center_partition(cloud, SYS3, CFG, workers=4)
        assert a == b
        assert serialize(a) == serialize(b)

    def test_id_relabeling_is_immaterial(self):
        # generic clouds have no mass ties, so labels cannot steer the greedy split
        cloud = sample(MeasureSpec.uniform_box([0, 0], [1, 1]), 101, seed=13)
        rng = np.random.default_rng(7)
        perm = rng.permutation(cloud.size)
        relabeled = WeightedPointCloud(cloud.points, cloud.weights, perm)
        a = compute_center_partition(cloud, SYS2, CFG)
        b = compute_center_partition(relabeled, SYS2, CFG)
        assert np.max(np.abs(a.center - b.center)) <= 10 * max(CFG.root_tol, CFG.residual_tol)

    def test_degenerate_first_coordinate_raises(self):
        # all mass on one hyperplane: the residual never changes sign
        cloud = WeightedPointCloud.from_points([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        cfg = SolverConfig(max_bracket_expansions=6)
        with pytest.raises(BracketNotFoundError):
            compute_center_partition(cloud, SYS2, cfg)

    def test_frozen_residual_fails_before_expanding(self, monkeypatch):
        # every point has x1 == alpha, so no axis moves either half
        cloud = WeightedPointCloud.from_points([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
        projections = []
        real = solver.project_measure
        monkeypatch.setattr(
            solver, "project_measure",
            lambda *args: projections.append(args[2]) or real(*args),
        )
        with pytest.raises(DegenerateInputError, match="yaoyao.measures.regularize") as info:
            compute_center_partition(cloud, SYS2, CFG)
        assert isinstance(info.value, BracketNotFoundError)
        assert info.value.coordinate == 2
        # only the start point t0 = 0 was evaluated, once per half
        assert [axis[1] for axis in projections] == [0.0, 0.0]

    def test_weighted_cloud_center(self):
        # a weight-2 atom counts twice: same center as duplicating the point
        doubled = WeightedPointCloud.from_points(
            [(0, 0), (1, 2), (1, 2), (2, 1), (3, 3)]
        )
        weighted = WeightedPointCloud.from_points(
            [(0, 0), (1, 2), (2, 1), (3, 3)], weights=[1.0, 2.0, 1.0, 1.0]
        )
        a = compute_center_partition(doubled, SYS2, CFG)
        b = compute_center_partition(weighted, SYS2, CFG)
        assert np.max(np.abs(a.center - b.center)) <= 1e-9
