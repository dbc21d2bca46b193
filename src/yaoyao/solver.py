"""Recursive center computation by median split and triangular root-finding.

One recursion computes the first m coordinates of a cloud's center.  With
m = 1 it is the weighted median alpha of coordinate 1.  Otherwise split the
cloud at alpha into equal-mass halves, slide each along a normalized axis v
(first component 1) into the cut plane, and recursively take the first m-1
center coordinates of the projected halves, x_neg (low) and x_pos (high).
The axis residual T(v) = x_neg(v) - x_pos(v) vanishes exactly when both
halves agree on a common center, and then the center prefix is (alpha,
common child prefix).  A solve also returns its node (axis v, the record
dicts of ``meta.root_trace``, two child solves on the split's stacked rows);
the full solve's (m = d) nodes form the partition tree.  Every residual
evaluation is the same recursion with a shorter prefix.

T is triangular: component k-1 depends only on v_2..v_k and runs to -inf/+inf
as v_k does.  So the components are solved one at a time as one-dimensional
roots (the root step ``_bracket_and_bisect``), and later ones cannot disturb
earlier ones.  The root step's last evaluation is its root, so the two child
solves of the last evaluation for component m are the node's subtrees; none
runs twice.
Only intermediate-value structure is assumed: T is continuous for the
interpolating median convention (piecewise linear in v for finite clouds).
The center averages the two child centers, which keeps every convention
reflection-equivariant: symmetric inputs get their symmetry center exactly,
up to roundoff.

Input is validated only at the public boundary (the clouds and the public
functions).  Below it the recursion runs on plain (points, weights) arrays in
id order through the measures kernels, which build no clouds and take
unit-weight medians by selection.  Work no residual evaluation changes runs
once per node, outside the residual: each split's solve node (``_node``), and
for m >= 3 each half's split once v_2 is solved (see ``_solve_split``).
Each evaluation slides both halves in one step; an overflow still raises.
Component 2's residual is nondecreasing in v_2 when both halves select: a
low value x_2 - (x_1 - alpha) v_2 has x_1 - alpha <= 0, a high one >= 0,
float products and differences round monotonically, and an order statistic
is monotone in every value.  So its root step probes only the side that can
hold the root.  (A sorting median sums weights in sorted order; it can fall.)

Everything here is a pure function of (inputs, config) and runs in the
caller's thread.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .measures import (
    WeightedPointCloud,
    _picks,
    _quantile,
    _slide,
    _split,
    split_at_median,
)
from .partition import PartitionTree
from .geometry import CoordinateSystem

__all__ = [
    "SolverConfig",
    "BracketNotFoundError",
    "DegenerateInputError",
    "NonConvergenceError",
    "evaluate_axis_residual",
    "compute_center_partition",
]


class BracketNotFoundError(RuntimeError):
    """No sign change found within the maximum bracket expansions.

    Signals pathological input, typically a cloud whose first-coordinate mass
    is so degenerate that the residual never changes sign.  When raised from
    an axis solve, ``coordinate`` holds the failing component and ``records``
    the root's dicts, keyed as in ``meta.root_trace``, solved so far."""

    coordinate: int | None = None
    records: tuple = ()


class DegenerateInputError(BracketNotFoundError):
    """The axis residual is nonzero and cannot move, so no bracket can exist.

    Raised before any bracket expansion when every point of both halves lies
    on the cut plane (first coordinate equal to the median): projecting along
    any axis then leaves both halves unchanged."""


class NonConvergenceError(RuntimeError):
    """The root step failed to converge within the configured iteration budget.

    Carries the same ``coordinate`` / ``records`` (the root's dicts, keyed as
    in ``meta.root_trace``) as BracketNotFoundError from an axis solve."""

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
    where bisection alone would finish.  The three budgets are integers.
    """

    root_tol: float = 1e-10
    residual_tol: float = 1e-9
    bracket_half_width: float = 1.0
    bracket_growth: float = 2.0
    max_bracket_expansions: int = 60
    max_bisections: int = 200
    max_dimension: int = 8

    def __post_init__(self):
        for name, value in vars(self).items():  # a huge int raises OverflowError
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            budget = name.startswith("max_")  # the three budgets
            if isinstance(value, bool) or budget and not isinstance(value, int):
                raise ValueError(f"{name} must be " + ("an integer" if budget else "a number"))
        for name in ("root_tol", "residual_tol", "bracket_half_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.bracket_growth <= 1:
            raise ValueError("bracket_growth must be > 1")
        if self.max_bracket_expansions < 0:
            raise ValueError("max_bracket_expansions must be >= 0")
        if self.max_bisections < 1:
            raise ValueError("max_bisections must be >= 1")
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


def _opposite(a: float, b: float) -> bool:
    return (a < 0.0 < b) or (b < 0.0 < a)


def _bracket_and_bisect(g, t0: float, cfg: SolverConfig, frozen: bool = False,
                        rising: bool = False):
    """Root of g near t0; returns (root, bracket, expansions, iterations, residual).

    If |g(t0)| <= residual_tol, the root is t0.  Otherwise the bracket
    [t0 - h, t0 + h] grows geometrically until a sign change appears (left
    endpoint probed first), then safeguarded Illinois regula-falsi steps
    (interpolated points kept root_tol/2 inside, every 4th step a midpoint,
    only midpoints once the budget is what bisection still needs) narrow it
    as SolverConfig describes; the root is the last evaluated point.  Among
    several roots in the bracket, the step rule's limit is the canonical one.

    frozen declares that g cannot move (a constant), so a nonzero start value
    raises DegenerateInputError without any expansion.  rising declares g
    nondecreasing, so the probes on the side of t0 that cannot hold a root
    are skipped, with the same result.
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
        for side in (-1.0, 1.0):
            if rising and side * f0 > 0.0:
                continue  # g keeps the sign of f0 on this side
            t = t0 + side * h
            ft = g(t)
            if ft == 0.0:
                return t, (t, t), expansions, 0, 0.0
            if _opposite(ft, f0):
                a, b, fa, fb = (t, t0, ft, f0) if side < 0 else (t0, t, f0, ft)
                break
        if a is not None:
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


def _solve(points: np.ndarray, weights: np.ndarray, m: int, cfg: SolverConfig, ks=...):
    """First m center coordinates of (points, weights) and the node that fixed
    them; returns (center, node).  node is None at a leaf (m = 1), otherwise
    (v, records, neg, pos): the local axis v (length m, v[0] = 1), a dict per
    solved component (keyed as in ``meta.root_trace``), and the child solves
    (center, node) of the low (-) and high (+) halves, taken from one stack
    of the split's rows.  ks as in measures._quantile."""
    if m == 1:
        return np.array([_quantile(points[:, 0], weights, 0.5, ks)]), None
    alpha, rows, cut, w = _split(points, weights, ks)
    stack = np.take(points, rows, axis=0)
    return _solve_split(_node(alpha, stack[:, 0], cut, w), stack[:, 1:], m, cfg)


def _node(alpha: float, first: np.ndarray, cut: int, w: np.ndarray):
    """Solve node (alpha, reach, halves, frozen, selected) of a split at alpha
    of a stack (low half's cut rows first) with first coordinates first and
    weights w: reach = first - alpha, a half is (rows, weights, _picks), frozen
    = no point off the cut plane (g constant), selected = both halves select."""
    reach = first - alpha
    halves = [(rows, w[rows], _picks(w[rows], 0.5)) for rows in (slice(cut), slice(cut, None))]
    return alpha, reach, halves, not reach.any(), all(ks is not None for *_, ks in halves)


def _solve_split(node, tail: np.ndarray, m: int, cfg: SolverConfig):
    """_solve after a split, given its _node and tail, the stack's coordinates 2..m.

    Components v_2..v_m are solved in turn; component k needs child prefix
    solves of length k-1.  Once per node, right after component 2's root step,
    each half is split into a child node: the split reads column 0 of the slid
    stack, x_2 - (x_1 - alpha) v_2, fixed from then on, from that step's last
    (root) evaluation, and the child's reach keeps it.  Once per evaluation,
    the residual writes its argument into v, slides the stack, gathers only
    the child nodes' tail columns and keeps the two child solves it makes; the
    root step's last evaluation is its root, so after component m, v is this
    node's axis and those solves are its subtrees."""
    alpha, reach, halves, frozen, selected = node
    v = np.zeros(m)
    v[0] = 1.0
    records, neg, pos, slid = [], None, None, None
    for k in range(2, m + 1):
        if k == 3:  # each half's column 0 is fixed from here on
            children = [(rows, kept, _node(a, np.take(slid[rows, 0], kept), cut, cw))
                        for rows, w, ks in halves
                        for a, kept, cut, cw in [_split(slid[rows], w, ks)]]

        def g(t, _k=k):
            nonlocal neg, pos, slid
            v[_k - 1] = t
            slid = _slide(tail[:, :_k - 1], reach, v[1:_k])
            if _k == 2:  # the children are leaves: medians, no split
                neg, pos = (_solve(slid[rows], w, 1, cfg, ks) for rows, w, ks in halves)
            else:
                neg, pos = (_solve_split(child, np.take(slid[rows, 1:], kept, axis=0), _k - 1, cfg)
                            for rows, kept, child in children)
            return float(neg[0][_k - 2] - pos[0][_k - 2])

        try:
            _, bracket, expansions, iterations, residual = _bracket_and_bisect(
                g, 0.0, cfg, frozen, rising=k == 2 and selected)
        except (BracketNotFoundError, NonConvergenceError) as exc:
            exc.coordinate = k
            exc.records = tuple(records)
            raise
        records.append({"coordinate": k, "bracket": list(bracket), "expansions": expansions,
                        "iterations": iterations, "residual": residual})
    center = np.array([alpha, *(0.5 * (neg[0] + pos[0]))])
    return center, (v, records, neg, pos)


def evaluate_axis_residual(low: WeightedPointCloud, high: WeightedPointCloud,
                           alpha: float, v, cfg: SolverConfig):
    """Residual x_neg - x_pos at a fixed normalized axis, plus both child centers.

    Both halves are projected along v into the cut plane and each projected
    cloud's center is computed in full; the componentwise difference is the
    residual the axis solve drives to zero.
    """
    if low.dimension != high.dimension:
        raise ValueError("halves have different dimensions")
    if low.dimension < 2:
        raise ValueError("axis solve needs dimension >= 2")
    v = np.asarray(v, dtype=float)
    if v.shape != (low.dimension,) or v[0] != 1.0:
        raise ValueError("axis must be normalized: v[0] == 1")
    # an overflowing slide is reported by _slide as a ValueError
    with np.errstate(over="ignore"):
        x_neg, x_pos = (_solve(_slide(h.points[:, 1:], h.points[:, 0] - alpha, v[1:]),
                               h.weights, low.dimension - 1, cfg)[0] for h in (low, high))
    return x_neg - x_pos, x_neg, x_pos


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
    their midpoint.  The tree is not checked: ``verify.check_equipartition``
    judges it, as the CLI's ``center`` does before it writes a tree.

    workers must be >= 1 and has no effect: the solve runs in the caller's
    thread, and the tree is the same bytes for every value.  It stays only
    because the benchmark (bench/workloads.py) passes workers=1; it goes
    with the next change to the benchmark.

    Raises ValueError for a coordinate beyond ±2^1022, BracketNotFoundError /
    NonConvergenceError for degenerate inputs, and DegenerateInputError (a
    BracketNotFoundError) when a residual cannot move.
    """
    cfg = cfg or SolverConfig()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if cloud.dimension != system.dimension:
        raise ValueError("cloud and coordinate system dimensions differ")
    if cloud.dimension > cfg.max_dimension:
        raise ValueError(
            f"dimension {cloud.dimension} exceeds configured maximum "
            f"{cfg.max_dimension}"
        )
    if max(cloud.points.max(), -cloud.points.min()) > 2.0**1022:  # keeps midpoints finite
        raise ValueError("coordinates must lie within ±2^1022; rescale the points")
    n = cloud.dimension
    if n == 1:
        center, root = _solve(cloud.points, cloud.weights, 1, cfg)
    else:
        # the root split goes through the public (benchmark-traced) split_at_median
        alpha, low, high = split_at_median(cloud)
        stack = np.concatenate([low.points, high.points])
        node = _node(alpha, stack[:, 0], low.size, np.concatenate([low.weights, high.weights]))
        center, root = _solve_split(node, stack[:, 1:], n, cfg)
    kept, level = [], [root]  # the internal nodes in level order, left (-) to right (+)
    for _ in range(n - 1):
        kept += level
        level = [child[1] for *_, neg, pos in level for child in (neg, pos)]
    axes = np.zeros((2**n - 1, n))
    for i, (v, *_) in enumerate(kept):
        axes[i, n - len(v):] = v  # a depth-(k+1) axis starts with k zeros
    axes[len(kept):, n - 1] = 1.0  # the leaves
    gaps = [float(np.max(np.abs(neg[0] - pos[0]))) for *_, neg, pos in kept]
    meta = {
        "config": cfg.to_json(),
        "input_digest": _cloud_digest(cloud),
        "max_residual": max([0.0] + [r["residual"] for _, records, *_ in kept for r in records]),
        "max_center_gap": max([0.0] + gaps),
        "root_trace": None if root is None else {
            "center_gap": gaps[0],
            "records": root[1],
        },
    }
    return PartitionTree(system, center, axes, meta)
