"""Recursive center computation by median split and triangular root-finding.

The center of a d-dimensional cloud is built as follows.  Split the cloud at
the weighted median of coordinate 1 into equal-mass halves.  For a normalized
axis v (first component 1), slide each half along v into the cut plane and
recursively take the centers of the two projected (d-1)-dimensional clouds,
x_neg from the low half and x_pos from the high half.  The axis residual

    T(v) = x_neg(v) - x_pos(v)

vanishes exactly when both halves agree on a common center, and then the
d-dimensional center is (alpha, common child center).

T has a triangular structure that makes the solve sequential: component k-1 of
T depends only on v_2..v_k, and it runs to -inf/+inf as v_k does.  So each
component is a one-dimensional root-finding problem: bracket a sign change by
geometric expansion around 0, narrow it to a root, move to the next
coordinate.  Earlier components stay solved because later coordinates cannot
touch them.

Only intermediate-value structure is assumed: T is continuous for the
interpolating median convention (piecewise linear in v for finite clouds), but
nothing is assumed about monotonicity or smoothness.  Inside the first
sign-changing bracket (left probe before right at each expansion) the solver
takes safeguarded Illinois regula-falsi steps: the interpolated point is kept
at least root_tol/2 inside the bracket, every 4th step is the midpoint, and
only midpoints are taken once the remaining step budget is what bisection
would still need.  Once the bracket sits inside one linear piece the
interpolation lands on the root, so a coordinate costs a handful of nested
child solves instead of the ~30 plain bisection needs.  Among several roots
in the bracket, the canonical one is the deterministic limit of this step
rule.  The final center averages the two child centers, which keeps every
convention reflection-equivariant: symmetric inputs get their symmetry center
exactly, up to roundoff.

Everything here is a pure function of (inputs, config); the optional worker
threads only split the two independent child solves, so results are identical
under any schedule.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .measures import WeightedPointCloud, project_measure, split_at_median
from .partition import PartitionNode, PartitionTree
from .geometry import CoordinateSystem

__all__ = [
    "SolverConfig",
    "AxisSolveTrace",
    "CoordinateSolveRecord",
    "BracketNotFoundError",
    "DegenerateInputError",
    "NonConvergenceError",
    "bracket_and_bisect",
    "evaluate_axis_residual",
    "triangular_axis_solve",
    "compute_center_partition",
]


class BracketNotFoundError(RuntimeError):
    """No sign change found within the maximum bracket expansions.

    Signals pathological input, typically a cloud whose first-coordinate mass
    is so degenerate that the residual never changes sign.  When raised from
    an axis solve, ``coordinate`` holds the failing component and ``records``
    the per-coordinate diagnostics gathered so far."""

    coordinate: int | None = None
    records: tuple = ()


class DegenerateInputError(BracketNotFoundError):
    """The axis residual is nonzero and cannot move, so no bracket can exist.

    Raised before any bracket expansion when every point of both halves lies
    on the cut plane (first coordinate equal to the median): projecting along
    any axis then leaves both halves unchanged."""


class NonConvergenceError(RuntimeError):
    """The root step failed to converge within the configured iteration budget.

    Carries the same ``coordinate`` / ``records`` context as
    BracketNotFoundError when raised from an axis solve."""

    coordinate: int | None = None
    records: tuple = ()


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets for the center solve.

    root_tol is the target width of the final sign-change bracket (axis
    coordinate units): a root step ends when g hits 0 exactly or the bracket is
    at most root_tol wide (or no float lies strictly inside it).  residual_tol
    is the child-center disagreement accepted at the starting point: if
    |g(t0)| <= residual_tol no bracket is built.  Brackets expand from
    +-bracket_half_width around the start by factor bracket_growth, at most
    max_bracket_expansions times.
    max_bisections caps the root steps (interpolation or midpoint) per
    coordinate; midpoints take over before it runs out, so it never fails
    where bisection alone would finish.
    """

    root_tol: float = 1e-10
    residual_tol: float = 1e-9
    bracket_half_width: float = 1.0
    bracket_growth: float = 2.0
    max_bracket_expansions: int = 60
    max_bisections: int = 200
    max_dimension: int = 8

    def __post_init__(self):
        for name in ("root_tol", "residual_tol", "bracket_half_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.bracket_growth <= 1:
            raise ValueError("bracket_growth must be > 1")
        if not 1 <= self.max_dimension <= 12:
            raise ValueError("max_dimension must lie in 1..12 (cost grows as 2^n)")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "SolverConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "SolverConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class CoordinateSolveRecord:
    """Diagnostics for one solved axis coordinate."""

    coordinate: int  # 1-based index k of the axis component solved
    bracket: tuple
    expansions: int
    iterations: int
    residual: float


@dataclass(frozen=True)
class AxisSolveTrace:
    """Per-coordinate solve records plus the final child-center gap."""

    records: tuple
    center_gap: float

    def max_residual(self) -> float:
        return max((r.residual for r in self.records), default=0.0)


def _opposite(a: float, b: float) -> bool:
    return (a < 0.0 < b) or (b < 0.0 < a)


def _bracket_and_bisect(g, t0: float, cfg: SolverConfig, frozen: bool = False):
    """Root of g near t0; returns (root, bracket, expansions, iterations, residual).

    frozen declares that g cannot move (a constant), so a nonzero start value
    raises DegenerateInputError without any expansion.
    """
    f0 = g(t0)
    if abs(f0) <= cfg.residual_tol:
        return t0, (t0, t0), 0, 0, abs(f0)
    if frozen:
        raise DegenerateInputError(
            f"residual {f0:.3g} cannot move: every point of both halves lies on "
            "the cut plane; spread the mass off it, e.g. with "
            "yaoyao.measures.regularize"
        )

    h = cfg.bracket_half_width
    a = b = fa = fb = None
    expansions = 0
    for expansions in range(cfg.max_bracket_expansions + 1):
        left = t0 - h
        fleft = g(left)
        if fleft == 0.0:
            return left, (left, left), expansions, 0, 0.0
        if _opposite(fleft, f0):
            a, b, fa, fb = left, t0, fleft, f0
            break
        right = t0 + h
        fright = g(right)
        if fright == 0.0:
            return right, (right, right), expansions, 0, 0.0
        if _opposite(f0, fright):
            a, b, fa, fb = t0, right, f0, fright
            break
        h *= cfg.bracket_growth
    else:
        raise BracketNotFoundError(
            f"no sign change within {cfg.max_bracket_expansions} expansions "
            f"(final half-width {h / cfg.bracket_growth:.3g})"
        )

    # Illinois regula falsi: when an end moves again after the last
    # interpolated step moved it, the other end's weight is halved, so fa and
    # fb keep g's signs but not its values.  Midpoint steps do not update that
    # record, so a far end a midpoint refreshes is still down-weighted (else
    # the every-4th midpoint would undo the halving and the secant would creep).
    bracket = (a, b)
    low_sign = math.copysign(1.0, fa)
    moved = 0  # end moved by the last interpolated step: -1 for a, +1 for b
    for iterations in range(1, cfg.max_bisections + 1):
        m = 0.5 * (a + b)
        interpolated = False
        budget = cfg.max_bisections - iterations + 1
        need = math.ceil(math.log2(b - a) - math.log2(cfg.root_tol)) + 1
        if iterations % 4 and budget > need:
            t = a + (b - a) * (fa / (fa - fb))
            t = min(max(t, a + 0.5 * cfg.root_tol), b - 0.5 * cfg.root_tol)
            if a < t < b:
                m, interpolated = t, True
        fm = g(m)
        if fm == 0.0:
            return m, bracket, expansions, iterations, 0.0
        if fm * low_sign > 0:
            a, fa = m, fm
            if moved == -1:
                fb *= 0.5
            if interpolated:
                moved = -1
        else:
            b, fb = m, fm
            if moved == 1:
                fa *= 0.5
            if interpolated:
                moved = 1
        if b - a <= cfg.root_tol or not a < 0.5 * (a + b) < b:
            return m, bracket, expansions, iterations, abs(fm)
    raise NonConvergenceError(
        f"root step did not converge in {cfg.max_bisections} iterations"
    )


def bracket_and_bisect(g, t0: float, cfg: SolverConfig) -> float:
    """Find a root of the scalar function g, expanding a bracket around t0.

    If |g(t0)| <= residual_tol, t0 is returned.  Otherwise the bracket
    [t0 - h, t0 + h] grows geometrically until a sign change appears (left
    endpoint probed first), then safeguarded Illinois regula-falsi steps, with
    every 4th step a midpoint, narrow it until g hits 0 exactly or the
    sign-change bracket is at most root_tol wide; the last evaluated point is
    returned.  Once the remaining budget (max_bisections) is what bisection
    would still need, only midpoints are taken, so this never fails where
    bisection alone would converge.  Deterministic throughout: among several
    roots in the bracket the step rule's limit is the canonical one.
    """
    root, *_ = _bracket_and_bisect(g, t0, cfg)
    return root


def _axis_solve(low: WeightedPointCloud, high: WeightedPointCloud, alpha: float,
                m: int, cfg: SolverConfig):
    """Solve axis components v_2..v_m sequentially; returns (v, records).

    v has the full dimension of the halves, with components beyond m left 0.
    Solving component k only needs the child centers' coordinate k-1, which by
    the triangular structure needs a child prefix solve of length k-1 only.
    """
    d = low.dimension
    v = np.zeros(d)
    v[0] = 1.0
    # with every point on the cut plane, projection ignores v and g is constant
    frozen = bool(np.all(low.points[:, 0] == alpha)
                  and np.all(high.points[:, 0] == alpha))
    records = []
    for k in range(2, m + 1):
        def g(t, _k=k):
            vt = v.copy()
            vt[_k - 1] = t
            c_neg = _prefix_center(project_measure(low, alpha, vt), _k - 1, cfg)
            c_pos = _prefix_center(project_measure(high, alpha, vt), _k - 1, cfg)
            return float(c_neg[_k - 2] - c_pos[_k - 2])

        try:
            root, bracket, expansions, iterations, residual = _bracket_and_bisect(
                g, 0.0, cfg, frozen)
        except (BracketNotFoundError, NonConvergenceError) as exc:
            exc.coordinate = k
            exc.records = tuple(records)
            raise
        v[k - 1] = root
        records.append(
            CoordinateSolveRecord(k, bracket, expansions, iterations, residual)
        )
    return v, records


def _prefix_center(cloud: WeightedPointCloud, m: int, cfg: SolverConfig) -> np.ndarray:
    """First m coordinates of the cloud's center (m = dimension gives all)."""
    alpha, low, high = split_at_median(cloud, 0)
    if m == 1:
        return np.array([alpha])
    v, _ = _axis_solve(low, high, alpha, m, cfg)
    c_neg = _prefix_center(project_measure(low, alpha, v), m - 1, cfg)
    c_pos = _prefix_center(project_measure(high, alpha, v), m - 1, cfg)
    return np.concatenate([[alpha], 0.5 * (c_neg + c_pos)])


def evaluate_axis_residual(low: WeightedPointCloud, high: WeightedPointCloud,
                           alpha: float, v, cfg: SolverConfig):
    """Residual x_neg - x_pos at a fixed normalized axis, plus both child centers.

    Both halves are projected along v into the cut plane and each projected
    cloud's center is computed in full; the componentwise difference is the
    residual the axis solve drives to zero.
    """
    v = np.asarray(v, dtype=float)
    if low.dimension != high.dimension:
        raise ValueError("halves have different dimensions")
    if v.shape != (low.dimension,) or v[0] != 1.0:
        raise ValueError("axis must be normalized: v[0] == 1")
    d = low.dimension
    x_neg = _prefix_center(project_measure(low, alpha, v), d - 1, cfg)
    x_pos = _prefix_center(project_measure(high, alpha, v), d - 1, cfg)
    return x_neg - x_pos, x_neg, x_pos


def triangular_axis_solve(low: WeightedPointCloud, high: WeightedPointCloud,
                          alpha: float, cfg: SolverConfig):
    """Solve the full axis for a split pair; returns (v, AxisSolveTrace)."""
    if low.dimension < 2:
        raise ValueError("axis solve needs dimension >= 2")
    v, records = _axis_solve(low, high, alpha, low.dimension, cfg)
    _, x_neg, x_pos = evaluate_axis_residual(low, high, alpha, v, cfg)
    gap = float(np.max(np.abs(x_neg - x_pos)))
    return v, AxisSolveTrace(tuple(records), gap)


@dataclass
class _NodeStats:
    max_residual: float = 0.0
    max_center_gap: float = 0.0

    def absorb(self, *others):
        for o in others:
            self.max_residual = max(self.max_residual, o.max_residual)
            self.max_center_gap = max(self.max_center_gap, o.max_center_gap)


def _solve_node(cloud: WeightedPointCloud, cfg: SolverConfig, workers: int = 1):
    """Full recursive solve; returns (center, local node, stats, trace|None)."""
    d = cloud.dimension
    alpha, low, high = split_at_median(cloud, 0)
    if d == 1:
        node = PartitionNode(np.array([1.0]), None, None)
        return np.array([alpha]), node, _NodeStats(), None

    v, records = _axis_solve(low, high, alpha, d, cfg)
    proj_low = project_measure(low, alpha, v)
    proj_high = project_measure(high, alpha, v)

    if workers >= 2:
        # the two child solves are independent pure calls; run them side by side
        # (children themselves stay sequential, so no pool starvation)
        with ThreadPoolExecutor(max_workers=2) as pool:
            fut_neg = pool.submit(_solve_node, proj_low, cfg, 1)
            fut_pos = pool.submit(_solve_node, proj_high, cfg, 1)
            c_neg, node_neg, stats_neg, _ = fut_neg.result()
            c_pos, node_pos, stats_pos, _ = fut_pos.result()
    else:
        c_neg, node_neg, stats_neg, _ = _solve_node(proj_low, cfg, 1)
        c_pos, node_pos, stats_pos, _ = _solve_node(proj_high, cfg, 1)

    gap = float(np.max(np.abs(c_neg - c_pos)))
    center = np.concatenate([[alpha], 0.5 * (c_neg + c_pos)])
    stats = _NodeStats(
        max_residual=max((r.residual for r in records), default=0.0),
        max_center_gap=gap,
    )
    stats.absorb(stats_neg, stats_pos)
    trace = AxisSolveTrace(tuple(records), gap)
    return center, PartitionNode(v, node_neg, node_pos), stats, trace


def _lift_axes(node: PartitionNode, depth: int, dimension: int) -> PartitionNode:
    """Pad local axes with leading zeros so every axis lives in R^dimension."""
    axis = np.zeros(dimension)
    axis[depth - 1:] = node.axis
    neg = _lift_axes(node.neg, depth + 1, dimension) if node.neg is not None else None
    pos = _lift_axes(node.pos, depth + 1, dimension) if node.pos is not None else None
    return PartitionNode(axis, neg, pos)


def _cloud_digest(cloud: WeightedPointCloud) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(cloud.points.shape, dtype=np.int64).tobytes())
    h.update(cloud.points.tobytes())
    h.update(cloud.weights.tobytes())
    h.update(cloud.ids.tobytes())
    return h.hexdigest()


def compute_center_partition(
    cloud: WeightedPointCloud,
    system: CoordinateSystem,
    cfg: SolverConfig | None = None,
    workers: int = 1,
) -> PartitionTree:
    """Center and full equal-mass cone partition for a cloud in a given frame.

    The cloud's rows must already be coordinates of ``system``.  Returns the
    tree of per-node axes sharing one global center; the two child centers at
    every internal node agree within residual_tol and the recorded center is
    their midpoint.

    Raises BracketNotFoundError / NonConvergenceError for degenerate inputs,
    DegenerateInputError (a BracketNotFoundError) when a residual cannot move.
    """
    cfg = cfg or SolverConfig()
    if cloud.dimension != system.dimension:
        raise ValueError("cloud and coordinate system dimensions differ")
    if cloud.dimension > cfg.max_dimension:
        raise ValueError(
            f"dimension {cloud.dimension} exceeds configured maximum "
            f"{cfg.max_dimension}"
        )
    center, local_root, stats, trace = _solve_node(cloud, cfg, workers)
    root = _lift_axes(local_root, 1, cloud.dimension)
    meta = {
        "config": cfg.to_json(),
        "input_digest": _cloud_digest(cloud),
        "max_residual": stats.max_residual,
        "max_center_gap": stats.max_center_gap,
        "root_trace": None
        if trace is None
        else {
            "center_gap": trace.center_gap,
            "records": [
                {
                    "coordinate": r.coordinate,
                    "bracket": list(r.bracket),
                    "expansions": r.expansions,
                    "iterations": r.iterations,
                    "residual": r.residual,
                }
                for r in trace.records
            ],
        },
    }
    return PartitionTree(system, center, root, meta)
