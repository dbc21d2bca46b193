"""Center solves: bracketing, the axis residual, and the recursive engine."""

import bisect
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import yaoyao.measures as measures
import yaoyao.solver as solver
from yaoyao.geometry import CoordinateSystem
from yaoyao.measures import MeasureSpec, WeightedPointCloud, sample, split_at_median
from yaoyao.partition import serialize
from yaoyao.verify import check_equipartition
from yaoyao.solver import (
    BracketNotFoundError,
    DegenerateInputError,
    NonConvergenceError,
    SolverConfig,
    compute_center_partition,
    evaluate_axis_residual,
)

CFG = SolverConfig()
SYS2 = CoordinateSystem.standard(2)
SYS3 = CoordinateSystem.standard(3)

ASYMMETRIC = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)])
# residual 2t - 0.6: its root 0.3 is no dyadic midpoint of the first bracket
SHIFTED = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 2.2)])
SQUARE = WeightedPointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def root_solve(cloud, cfg=CFG):
    """Root axis and root trace of the full solve: the axis solve on the halves
    split_at_median(cloud) gives."""
    tree = compute_center_partition(cloud, CoordinateSystem.standard(cloud.dimension), cfg)
    return tree.axes[0], tree.meta["root_trace"]


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
        # the config is recorded in a tree's meta, so 3 must not become 3.0
        assert json.dumps(SolverConfig.from_json({"bracket_growth": 3}).to_json()["bracket_growth"]) == "3"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(root_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_dimension=13)
        with pytest.raises(ValueError):
            SolverConfig.from_json({"bogus": 1})

    @pytest.mark.parametrize("field", ["root_tol", "residual_tol", "bracket_half_width",
                                       "bracket_growth", "max_bisections"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("doc, message", [
        ({"max_bisections": 10.5}, "max_bisections must be an integer"),
        ({"max_bracket_expansions": 2.5}, "max_bracket_expansions must be an integer"),
        ({"max_dimension": 3.0}, "max_dimension must be an integer"),
        ({"max_bisections": True}, "max_bisections must be an integer"),
        ({"max_bisections": 0}, "max_bisections must be >= 1"),
        ({"max_bisections": -1}, "max_bisections must be >= 1"),
        ({"max_bracket_expansions": -1}, "max_bracket_expansions must be >= 0"),
        ({"max_dimension": 0}, "max_dimension must lie in 1..12"),
        ({"max_dimension": False}, "max_dimension must be an integer"),
        ({"root_tol": True}, "root_tol must be a number"),
        ({"residual_tol": True}, "residual_tol must be a number"),
        ({"bracket_half_width": True}, "bracket_half_width must be a number"),
        ({"bracket_growth": True}, "bracket_growth must be a number"),
        ({"bracket_growth": 1.0}, "bracket_growth must be > 1"),
        ({"bracket_growth": 0.5}, "bracket_growth must be > 1"),
    ])
    def test_budgets_checked_at_construction(self, doc, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig.from_json(doc)

    def test_smallest_budgets_accepted(self):
        cfg = SolverConfig(max_bracket_expansions=0, max_bisections=1, max_dimension=1)
        assert cfg.to_json()["max_bisections"] == 1

    def test_removed_memoize_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown solver config keys"):
            SolverConfig.from_json({"memoize": False})


class TestBracketAndBisect:
    def test_linear(self):
        root, *_ = solver._bracket_and_bisect(lambda t: 2 * t - 1, 0.0, CFG)
        assert root == pytest.approx(0.5, abs=1e-10)

    def test_cubic_far_guess(self):
        root, *_ = solver._bracket_and_bisect(lambda t: t**3, 3.0, CFG)
        assert abs(root) <= CFG.root_tol

    def test_immediate_root(self):
        root, *_ = solver._bracket_and_bisect(lambda t: 0.0 * t, 0.25, CFG)
        assert root == 0.25

    def test_no_sign_change_raises(self):
        cfg = SolverConfig(max_bracket_expansions=8)
        with pytest.raises(BracketNotFoundError):
            solver._bracket_and_bisect(lambda t: 1.0 + t * 0, 0.0, cfg)

    def test_exhausted_budget_raises(self):
        # one midpoint step halves the bracket [0, 1] around 0.3 to [0, 0.5],
        # far wider than root_tol
        cfg = SolverConfig(max_bisections=1)
        with pytest.raises(NonConvergenceError, match="did not converge in 1 iterations"):
            solver._bracket_and_bisect(lambda t: t - 0.3, 0.0, cfg)

    def test_large_scale_root(self):
        root, *_ = solver._bracket_and_bisect(lambda t: t - 1.0e7, 0.0, CFG)
        assert root == pytest.approx(1.0e7, rel=1e-9)

    def test_root_between_adjacent_floats(self):
        # floats near 1e9 are 1.2e-7 apart, so no bracket gets root_tol wide
        r = 1.0e9 + 0.123
        root, *_ = solver._bracket_and_bisect(lambda t: -1.0 if t < r else 1.0, 0.0, CFG)
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


class TestLastEvaluatedPoint:
    """The root step returns the argument of its last g call, so a caller can
    keep what that call computed."""

    @pytest.mark.parametrize("g, t0, expected", [
        (lambda t: 0.0 * t, 0.25, 0.25),
        (lambda t: t + 1.0, 0.0, -1.0),
        (lambda t: t - 1.0, 0.0, 1.0),
        (lambda t: t**3 - 0.3, 0.0, 0.3 ** (1 / 3)),
    ], ids=["start", "left-probe", "right-probe", "converged"])
    def test_on_every_return_path(self, g, t0, expected):
        calls = []
        root, *_ = solver._bracket_and_bisect(lambda t: calls.append(t) or g(t), t0, CFG)
        assert root == calls[-1]
        assert root == pytest.approx(expected, abs=CFG.root_tol)


def _piecewise_linear(knots, values):
    """Monotone when values are; extended with slope +-1 beyond the knots.

    Interpolates by the fraction of the segment covered, which stays in [0, 1]:
    a slope (v1 - v0) / (k1 - k0), as np.interp forms it, overflows on a
    segment of subnormal width."""
    slope = 1.0 if values[-1] >= values[0] else -1.0

    def g(t):
        if t < knots[0]:
            return values[0] + slope * (t - knots[0])
        if t > knots[-1]:
            return values[-1] + slope * (t - knots[-1])
        i = min(bisect.bisect_right(knots, t), len(knots) - 1)
        (k0, k1), (v0, v1) = knots[i - 1:i + 1], values[i - 1:i + 1]
        return float(v0 + (t - k0) / (k1 - k0) * (v1 - v0))

    return g


class TestRootStepProperty:
    @settings(max_examples=200, deadline=None)
    # the start t0 = 0 lies on a segment of subnormal width
    @example(knots=[2.225073858507e-311, -1.0, -2.0, -2.2250738585072014e-308],
             steps=[0, 0, 0, 5, 0, 0, 0, 0], shift=6, scale=1.0, decreasing=False, t0=0.0)
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
        root, *_ = solver._bracket_and_bisect(g, t0, CFG)
        if root == t0 and abs(g(t0)) <= CFG.residual_tol:
            return
        tol = CFG.root_tol
        assert g(root) == 0.0 or g(root - tol) * g(root + tol) <= 0.0


class TestRisingRootStep:
    @settings(max_examples=200, deadline=None)
    @given(
        knots=st.lists(st.floats(-50, 50), min_size=2, max_size=8, unique=True),
        steps=st.lists(st.floats(0, 10), min_size=8, max_size=8),
        shift=st.floats(-30, 30),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
        t0=st.floats(-50, 50),
    )
    def test_same_result_and_only_the_root_side_probed(self, knots, steps, shift,
                                                       scale, t0):
        knots = sorted(knots)
        values = np.cumsum(steps[:len(knots)]) * scale - shift * scale
        g = _piecewise_linear(knots, list(values))  # nondecreasing
        calls = []
        one_sided = solver._bracket_and_bisect(
            lambda t: calls.append(t) or g(t), t0, CFG, rising=True)
        assert one_sided == solver._bracket_and_bisect(g, t0, CFG)
        if g(t0) < 0.0:
            assert min(calls) >= t0
        if g(t0) > 0.0:
            assert max(calls) <= t0


class TestAxisResidual:
    def residual_at(self, t):
        alpha, low, high = split_at_median(ASYMMETRIC)
        res, _, _ = evaluate_axis_residual(low, high, alpha, np.array([1.0, t]), CFG)
        return res[0]

    def test_hand_values(self):
        # left medians 1 + t, right medians 2 - t, residual 2t - 1
        assert self.residual_at(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert self.residual_at(0.5) == pytest.approx(0.0, abs=1e-12)
        assert self.residual_at(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_child_centers_returned(self):
        alpha, low, high = split_at_median(ASYMMETRIC)
        _, x_neg, x_pos = evaluate_axis_residual(low, high, alpha, np.array([1.0, 0.0]), CFG)
        assert x_neg[0] == pytest.approx(1.0)
        assert x_pos[0] == pytest.approx(2.0)

    def test_requires_normalized_axis(self):
        alpha, low, high = split_at_median(ASYMMETRIC)
        with pytest.raises(ValueError):
            evaluate_axis_residual(low, high, alpha, np.array([2.0, 0.0]), CFG)

    def test_dimensions_checked(self):
        alpha, low, high = split_at_median(ASYMMETRIC)
        flat = WeightedPointCloud.from_points([[0.0], [1.0]])
        with pytest.raises(ValueError, match="halves have different dimensions"):
            evaluate_axis_residual(low, flat, alpha, np.array([1.0, 0.0]), CFG)
        with pytest.raises(ValueError, match="axis solve needs dimension >= 2"):
            evaluate_axis_residual(flat, flat, 0.5, np.array([1.0]), CFG)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 4),
        sizes=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3]),
        weights=st.sampled_from(["unit", "eighth", "general"]),
        grid=st.booleans(),
        ts=st.lists(st.floats(-20, 20), min_size=2, max_size=30),
    )
    def test_component_2_is_nondecreasing(self, n, sizes, seed, scale, weights, grid, ts):
        # low values x_2 - (x_1 - alpha) t rise with t and high ones fall, in
        # float too; the solver's component-2 root step relies on it.  General
        # weights here are multiples of 1/8, whose sums are exact
        rng = np.random.default_rng(seed)
        halves = []
        for side, size in zip((-1.0, 1.0), sizes):
            pts = rng.uniform(0.0, 1.0, (size, n))
            pts[:, 0] *= side
            if grid:  # ties in x_1 and x_2, and zeros of both signs
                pts[:, :2] = np.round(4 * pts[:, :2])
                pts[:, 1] = (pts[:, 1] - 2) * rng.choice([-1.0, 1.0], size)
            w = {"unit": np.ones(size), "eighth": np.full(size, 0.125),
                 "general": rng.integers(1, 25, size) / 8}[weights]
            halves.append(WeightedPointCloud.from_points(scale * pts, w))
        residuals = []
        for t in sorted(ts):
            v = np.zeros(n)
            v[:2] = 1.0, t
            try:
                residuals.append(evaluate_axis_residual(*halves, 0.0, v, CFG)[0][0])
            except BracketNotFoundError:
                pass  # a deeper child cannot be solved at this t
        assert all(a <= b for a, b in zip(residuals, residuals[1:]))

    def test_component_2_steps_back_on_decimal_weights(self):
        # the general quantile sums weights in sorted order, so the total's
        # rounding moves with the order: 1.6 at t = -1/8 selects the midpoint
        # of -0.125 and 1.875, 1.5999999999999999 at t = 0 selects 0; the
        # solver probes one side only where both halves have one power of two
        low = WeightedPointCloud.from_points([(-1, 0), (0, 2), (-1, 2), (-2, -1)],
                                             [0.6, 0.6, 0.2, 0.2])
        high = WeightedPointCloud.from_points([(1, 0)])
        before, after = (evaluate_axis_residual(low, high, 0.0, [1.0, t], CFG)[0][0]
                         for t in (-0.125, 0.0))
        assert (before, after) == (0.75, 0.0)

    def test_overflowing_projection_raises(self):
        # 50 * 1e308 overflows: the projected halves are no longer finite
        cloud = sample(MeasureSpec.uniform_box([0, 0], [100, 100]), 32, seed=3)
        alpha, low, high = split_at_median(cloud)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            evaluate_axis_residual(low, high, alpha, np.array([1.0, 1e308]), CFG)

    def test_overflowing_projection_raises_with_warnings_as_errors(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0], [100, 100]), 32, seed=3)
        alpha, low, high = split_at_median(cloud)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                evaluate_axis_residual(low, high, alpha, np.array([1.0, 1e308]), CFG)


class TestTriangularAxisSolve:
    def test_symmetric_square(self):
        v, trace = root_solve(SQUARE)
        assert np.array_equal(v, [1.0, 0.0])
        assert list(trace) == ["center_gap", "records"]
        assert max(r["residual"] for r in trace["records"]) == 0.0

    @pytest.mark.parametrize("cloud, root", [(ASYMMETRIC, 0.5), (SHIFTED, 0.3)])
    def test_linear_residual_takes_at_most_two_steps(self, cloud, root):
        tree = compute_center_partition(cloud, SYS2, CFG)
        (record,) = tree.meta["root_trace"]["records"]
        assert record["iterations"] <= 2
        assert abs(tree.axes[0][1] - root) <= CFG.root_tol

    @pytest.mark.parametrize("seed", [301, 303])
    def test_gaussian_root_takes_few_steps(self, seed):
        # the secant reaches these roots from one side; the clamp keeps the
        # next step straddling the root instead of stalling at the endpoint
        spec = MeasureSpec.gaussian([0, 0], [[1, 0.3], [0, 2]])
        tree = compute_center_partition(sample(spec, 2048, seed), SYS2, CFG)
        (record,) = tree.meta["root_trace"]["records"]
        assert record["iterations"] <= 10

    def test_asymmetric_root(self):
        cfg = SolverConfig(residual_tol=1e-10)
        v, trace = root_solve(ASYMMETRIC, cfg)
        assert v[0] == 1.0
        assert v[1] == pytest.approx(0.5, abs=1e-9)
        assert max(r["residual"] for r in trace["records"]) <= 1e-10

    def test_3d_sign_symmetric(self):
        # negating coordinates 2 and 3 maps the cloud to itself, so both axis
        # components vanish
        rng = np.random.default_rng(42)
        half = np.column_stack(
            [rng.uniform(0, 1, 16), rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)]
        )
        mirrored = half * np.array([1.0, -1.0, -1.0])
        cloud = WeightedPointCloud.from_points(np.vstack([half, mirrored]))
        v, _ = root_solve(cloud)
        assert np.array_equal(v, [1.0, 0.0, 0.0])


class TestComputeCenterPartition:
    def test_1d_median(self):
        cloud = WeightedPointCloud.from_points([[0.0], [1.0], [2.0], [3.0]])
        tree = compute_center_partition(cloud, CoordinateSystem.standard(1), CFG)
        assert tree.center[0] == 1.5
        assert np.array_equal(tree.axes, [[1.0]])

    def test_square_fixture(self):
        tree = compute_center_partition(SQUARE, SYS2, CFG)
        assert np.array_equal(tree.center, [0.5, 0.5])
        assert np.array_equal(tree.axes[0], [1.0, 0.0])

    def test_asymmetric_fixture(self):
        tree = compute_center_partition(ASYMMETRIC, SYS2, CFG)
        assert np.max(np.abs(tree.center - [1.5, 1.5])) <= 1e-9
        assert abs(tree.axes[0][1] - 0.5) <= 1e-9

    def test_system_dimension_checked(self):
        with pytest.raises(ValueError, match="cloud and coordinate system dimensions differ"):
            compute_center_partition(SQUARE, SYS3, CFG)

    def test_dimension_cap(self):
        cloud = WeightedPointCloud.from_points(np.zeros((3, 9)))
        with pytest.raises(ValueError):
            compute_center_partition(cloud, CoordinateSystem.standard(9), CFG)

    @pytest.mark.parametrize("pts", [
        [(1e308, 0), (-1e308, 1), (1e308, 2), (-1e308, 3)],
        np.random.default_rng(3).uniform(1.5e308, 1.6e308, (64, 2)),
        [(0.0, 0.0), (1.0, -np.nextafter(2.0**1022, np.inf))],
    ])
    def test_coordinates_past_2_to_the_1022_rejected(self, pts):
        # the midpoint of two equal ends of 1e308 overflows
        cloud = WeightedPointCloud.from_points(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"within ±2\^1022; rescale the points"):
                compute_center_partition(cloud, SYS2, CFG)

    def test_coordinates_at_2_to_the_1022_solve(self):
        big = 2.0**1022
        cloud = WeightedPointCloud.from_points([(big, big), (-big, -big), (big, -big), (-big, big)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = compute_center_partition(cloud, SYS2, CFG)
            assert check_equipartition(tree, cloud).passed

    def test_child_center_agreement(self):
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 128, seed=17)
        tree = compute_center_partition(cloud, SYS3, CFG)
        assert tree.meta["max_center_gap"] <= CFG.residual_tol
        assert tree.meta["max_residual"] <= CFG.residual_tol

    def test_prefix_stability_after_solve(self):
        # re-evaluating the residual at the solved axis leaves every component small
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [2, 1, 3]), 96, seed=5)
        v, _ = root_solve(cloud)
        alpha, low, high = split_at_median(cloud)
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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            compute_center_partition(SQUARE, SYS2, CFG, workers=workers)

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
        slides = []
        real = solver._slide
        monkeypatch.setattr(
            solver, "_slide",
            # the axis is written in place, so record its value, not a view
            lambda *args: slides.append(float(args[2][0])) or real(*args),
        )
        with pytest.raises(DegenerateInputError, match="yaoyao.measures.regularize") as info:
            compute_center_partition(cloud, SYS2, CFG)
        assert isinstance(info.value, BracketNotFoundError)
        assert info.value.coordinate == 2
        # only the start point t0 = 0 was evaluated, both halves in one slide
        assert slides == [0.0]

    def test_failure_records_are_the_roots_trace_dicts(self):
        # the flat cloud of the CLI failure test: coordinate 2 is solved at
        # t = 0, and coordinate 3 cannot move
        cloud = WeightedPointCloud.from_points(
            [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 0), (0, 1, 0), (0, 0, 3), (0, 1, 3)])
        with pytest.raises(DegenerateInputError) as info:
            compute_center_partition(cloud, SYS3, CFG)
        assert info.value.coordinate == 3
        assert info.value.records == ({"coordinate": 2, "bracket": [0.0, 0.0], "expansions": 0,
                                       "iterations": 0, "residual": 0.0},)

    @pytest.mark.parametrize("weights, rising", [
        (None, [True, False]),
        (np.full(48, 0.125), [True, False]),
        (np.tile([0.1, 0.2, 0.3], 16), [False, False]),
    ], ids=["unit", "eighth", "decimal"])
    def test_component_2_probes_one_side_where_halves_select(self, monkeypatch,
                                                             weights, rising):
        points = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 48, seed=8).points
        cloud = WeightedPointCloud.from_points(points, weights)
        flags = []
        real = solver._bracket_and_bisect

        def root_step(g, t0, cfg, frozen, rising):
            flags.append(rising)
            return real(g, t0, cfg, frozen, rising=rising)

        monkeypatch.setattr(solver, "_bracket_and_bisect", root_step)
        compute_center_partition(cloud, SYS3, CFG)
        # the root node's components 2 and 3, then its children's component 2
        assert flags[:2] == rising and set(flags[2:]) == {rising[0]}

    def test_2d_solve_splits_once(self, monkeypatch):
        # the leaves of the residual evaluations take the median without splitting
        # the root split enters the kernel through split_at_median, deeper
        # splits call it directly
        splits = []
        real = measures._split
        for module in (measures, solver):
            monkeypatch.setattr(
                module, "_split",
                lambda points, weights: splits.append(len(points)) or real(points, weights),
            )
        compute_center_partition(SHIFTED, SYS2, CFG)
        assert splits == [SHIFTED.size]

    @pytest.mark.parametrize("n, count, expected", [(3, 1024, 3), (4, 256, 39), (5, 128, 603)])
    def test_each_half_splits_once_per_node(self, monkeypatch, n, count, expected):
        # column 0 of a node's slid stack is fixed once v_2 is solved, so each
        # half is split once per node solve with m >= 3, not once per component
        # or evaluation: an n = 3 solve splits the root, then each half once
        cloud = sample(MeasureSpec.uniform_box([0] * n, [1] * n), count, 7)
        splits, sizes = [], []
        real, real_solve_split = measures._split, solver._solve_split
        for module in (measures, solver):
            monkeypatch.setattr(module, "_split",
                                lambda points, *rest: splits.append(len(points)) or real(points, *rest))
        monkeypatch.setattr(solver, "_solve_split",
                            lambda *args: sizes.append(args[2]) or real_solve_split(*args))
        compute_center_partition(cloud, CoordinateSystem.standard(n), CFG)
        assert len(splits) == expected == 1 + 2 * sum(m >= 3 for m in sizes)
        if n == 3:
            assert splits == [count, count // 2, count // 2]

    def test_each_child_solve_runs_once(self, monkeypatch):
        # a node's subtrees are the child solves of the residual evaluation
        # that fixed its axis, not a second pair: no stack is slid twice at
        # one axis.  A child node's reach is shared by all its solves, so the
        # key is the stack the slide reads (tail is a view of it)
        cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 48, seed=8)
        seen, stacks = set(), []
        real = solver._slide

        def slide(tail, reach, axis_tail):
            stacks.append(tail.base)  # keeps every id unique while the solve runs
            m = tail.shape[1]  # the child solves the first m coordinates
            key = (id(tail.base), axis_tail.tobytes(), m)  # bytes: the axis is written in place
            assert key not in seen
            seen.add(key)
            return real(tail, reach, axis_tail)

        monkeypatch.setattr(solver, "_slide", slide)
        tree = compute_center_partition(cloud, SYS3, CFG)
        assert any(m == 2 for _, _, m in seen)
        monkeypatch.undo()
        assert tree == compute_center_partition(cloud, SYS3, CFG)

    @pytest.mark.parametrize("n, count, seed", [(3, 48, 8), (4, 24, 9)])
    def test_prefix_solve_is_prefix_of_full_center(self, n, count, seed):
        cloud = sample(MeasureSpec.uniform_box([0] * n, [1] * n), count, seed)
        full = compute_center_partition(cloud, CoordinateSystem.standard(n), CFG).center
        for m in range(1, n + 1):
            prefix = solver._solve(cloud.points, cloud.weights, m, CFG)[0]
            assert np.array_equal(prefix, full[:m])

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


def _golden_clouds():
    box = MeasureSpec.uniform_box
    yield "unit-2d", sample(box([0, 0], [1, 1]), 64, 11)
    yield "unit-3d", sample(box([0, 0, 0], [1, 2, 3]), 48, 12)
    yield "unit-4d", sample(box([0] * 4, [1] * 4), 24, 13)
    yield "odd-3d", sample(box([0, 0, 0], [1, 1, 1]), 33, 14)
    rng = np.random.default_rng(15)
    pts = np.column_stack([rng.integers(0, 6, 40).astype(float), rng.standard_normal(40)])
    yield "tied-weighted-2d", WeightedPointCloud.from_points(pts, rng.uniform(0.5, 2.0, 40))
    pts = sample(box([0, 0], [1, 1]), 50, 16).points
    yield "eighth-2d", WeightedPointCloud.from_points(pts, np.full(50, 0.125))
    # a tree that is one leaf, and the deepest level-order walk of the table
    yield "unit-1d", sample(box([0], [1]), 33, 17)
    yield "unit-5d", sample(box([0] * 5, [1] * 5), 16, 17)
    # the deep-3d benchmark shape, and an integer grid tied at the root median
    # whose slid x2 medians take the tied-zero branch (the center holds -0.0)
    yield "deep-3d", sample(box([0, 0, 0], [1, 2, 3]), 1024, 16)
    rng = np.random.default_rng(36)
    pts = np.column_stack([rng.integers(0, 4, 48).astype(float),
                           rng.choice([-1.0, -0.0, 0.0, 1.0], 48, p=[0.2, 0.3, 0.3, 0.2]),
                           rng.integers(0, 5, 48).astype(float)])
    yield "grid-zeros-3d", WeightedPointCloud.from_points(pts)
    # as odd-3d one level deeper: the root split divides one point's weight,
    # so every split of a half below it takes the sorting median
    yield "odd-4d", sample(box([0] * 4, [1] * 4), 33, 18)


# sha256 of the indented partition JSON, recorded before the solver ran on
# plain arrays with medians by selection; any byte drift fails here
GOLDEN = {
    "unit-2d": "40cdfc447acfa6ed1f7f9a625358e8f5c53da32e438426e89c0c90aa4a636900",
    "unit-3d": "972220b48dfa137877badda18150d2ae1c8ee7fe3432e9fd75a2fa6c3ebf9391",
    "unit-4d": "e6de7dd1c63c324b669516f44e98fa72c5cec6418e22b5cb7a3386386d425aa9",
    "odd-3d": "0828790486c9431733b55b0077eecacb8d8ce101eba6d76717921d8a44476c85",
    "tied-weighted-2d": "2b73e0b57704a72d58e666768182a2161323db0dd05bd63c862abb2b39e12eac",
    "eighth-2d": "e50992d584d18b327c983673cad5a836bb7831c5bd6ae256c4219566134b4e9e",
    # recorded before the solve returned its kept nodes in place of axis levels
    "unit-1d": "ad2b09eb5edc9767890f1d1f0d48db5a158ef8d9b22a6cd433bceed3dc8cf79e",
    "unit-5d": "65d852bd8f7d17e9e96f668aaf7372e6e630ad4746c6b4a7c99e90ca50a527e4",
    # recorded before each evaluation slid both halves in one stack
    "deep-3d": "151579417336c0b3b48f5c3a9b1f89e0f5ddc267a3870ef9a14dfd15b8c65661",
    "grid-zeros-3d": "99a7c3e1fef4c7af5aee113b8cd28e907c0d634f0bfc7c88df0f9322cc49c058",
    # recorded before each half was split once per component, not per evaluation
    "odd-4d": "0656f593b3f677ac8e258f344c05adda2cbfff44445f31f054cf46cb8b7270a7",
}


# workers has no effect on the solve; the bytes must not depend on it
@pytest.mark.parametrize("name, cloud, workers", [
    pytest.param(name, cloud, workers,
                 id=f"{name}-cloud{i}" + ("" if workers == 1 else f"-workers{workers}"))
    for workers in (1, 2) for i, (name, cloud) in enumerate(_golden_clouds())
])
def test_partition_bytes_are_golden(name, cloud, workers):
    if name in ("odd-3d", "odd-4d"):
        # the root split divides one point's weight, so both subtrees carry
        # unequal weights and take the sorting median
        _, low, high = split_at_median(cloud)
        assert 0.5 in low.weights and 0.5 in high.weights
    if name in ("tied-weighted-2d", "grid-zeros-3d"):
        alpha, _, _ = split_at_median(cloud)
        assert np.count_nonzero(cloud.points[:, 0] == alpha) > 1
    tree = compute_center_partition(cloud, CoordinateSystem.standard(cloud.dimension), CFG,
                                    workers=workers)
    doc = json.dumps(serialize(tree), indent=2).encode()
    assert hashlib.sha256(doc).hexdigest() == GOLDEN[name]
