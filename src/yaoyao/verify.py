"""Independent checkers that certify a computed partition.

Each check recomputes the claimed property from scratch: equipartition masses
come from point location (not from the solver's bookkeeping), center depth
weighs seeded half-spaces against the cloud, and the two-dimensional oracle
re-derives the center exactly, as the median cut meeting a ham-sandwich cut of
the two halves it separates, without touching the solver.

Avoidance holds for every tree of this shape, so its check proves a lemma and
draws nothing; depth holds for every valid tree, so a failed depth draw is an
implementation bug, never sampling noise.  Mass checks carry explicit
tolerances; the symmetry check of a symmetrized cloud allows 50 * residual_tol.

Every check is a pure function of its inputs (and seed, where it draws).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import CoordinateSystem
from .measures import (
    MeasureSpec,
    WeightedPointCloud,
    _halfspace_masses,
    _prefix_masses,
    project_measure,
    regularize,
    seeded_generator,
    split_at_median,
    symmetrize,
    weighted_quantile,
)
from .partition import PartitionTree, locate_points
from .solver import SolverConfig, compute_center_partition

__all__ = [
    "CheckReport",
    "check_equipartition",
    "check_avoidance",
    "check_depth",
    "check_symmetry",
    "check_prefix_dependence",
    "check_continuity",
    "oracle_center_2d",
]

# relative slack under mass / 2^n that check_depth allows a half-space
_DEPTH_SLACK = 1e-6
_RATE_CONSTANT = 0.5  # check_continuity's drift bound, per sqrt(eps) * data scale


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: measured statistics plus the tolerances applied."""

    name: str
    passed: bool
    stats: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> dict:
        return {**asdict(self), "passed": bool(self.passed)}


def _halfspace_draws(rng, tree: PartitionTree, cloud: WeightedPointCloud,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` >= 1 random half-spaces normal . y >= offset, as (normals,
    offsets) rows oriented to hold the center.  Blocks, in order: one (count, n)
    normal block of directions; one (count,) integers block of the data points
    their boundaries pass through; redraws of norms <= 1e-12, by row."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = tree.dimension
    if cloud.dimension != n:
        raise ValueError("point dimension mismatch")
    g = rng.standard_normal((count, n))
    anchors = cloud.points[rng.integers(cloud.size, size=count)]
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    for i in np.flatnonzero(norms <= 1e-12):
        while norms[i] <= 1e-12:
            g[i] = rng.standard_normal(n)
            norms[i] = math.sqrt(g[i] @ g[i])
    g /= norms[:, None]
    offsets = np.einsum("ij,ij->i", g, anchors)
    sign = np.where(g @ tree.center - offsets < 0.0, -1.0, 1.0)
    g *= sign[:, None]
    return g, offsets * sign


def check_equipartition(tree: PartitionTree, cloud: WeightedPointCloud,
                        tol: float = 1e-6) -> CheckReport:
    """Region masses by independent point location, against mass / 2^n.

    Also folds in the prefix masses: the mass reaching any sign prefix of
    length k must be mass / 2^k, to the same relative tolerance.  tol must
    be finite and >= 0: NaN or inf would pass any tree.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")
    n = tree.dimension
    labels = locate_points(tree, cloud.points)
    total = cloud.total_mass
    masses = {}
    max_dev = prefix_dev = 0.0
    for k, level in enumerate(_prefix_masses(labels, cloud.weights), 1):
        want = total / 2**k
        for c, m in enumerate(level):
            dev = abs(m - want) / want
            if k < n:
                prefix_dev = max(prefix_dev, dev)
            else:
                max_dev = max(max_dev, dev)
                word = format(c, f"0{n}b").replace("0", "-").replace("1", "+")
                masses[word] = m
    passed = max_dev <= tol and prefix_dev <= tol
    return CheckReport(
        "equipartition",
        passed,
        stats={
            "region_masses": masses,
            "max_relative_deviation": max_dev,
            "max_prefix_deviation": prefix_dev,
            "total_mass": total,
        },
        tolerances={"relative": tol},
    )


def check_avoidance(tree: PartitionTree, count: int, seed: int,
                    cloud: WeightedPointCloud | None = None) -> CheckReport:
    """Every closed half-space a . y >= c that holds the center contains a
    whole region, for any tree of this shape: sign each node's axis u_k by
    s_k = +1 iff a . u_k >= 0 down the tree (``witness_region``'s rule); the
    region reached, center + pos(s_1 u_1, ..., s_n u_n), has
    a . (s_k u_k) = |a . u_k| >= 0, so a . y >= a . center >= c on all of it.
    The lemma needs only the finite center and axes that ``PartitionTree``
    guarantees, so nothing is drawn and the report, which carries no seed,
    names the 2^n regions it covers.  ``count``, ``seed`` and ``cloud`` select
    nothing; count must still be >= 1 and a cloud of the tree's dimension."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if cloud is not None and cloud.dimension != tree.dimension:
        raise ValueError("point dimension mismatch")
    return CheckReport("avoidance", True, stats={"regions": 2**tree.dimension})


def check_depth(tree: PartitionTree, cloud: WeightedPointCloud, count: int,
                seed: int) -> CheckReport:
    """Every half-space containing the center carries at least mass / 2^n of
    the cloud (the witness region sits inside it), over count >= 1 trials.

    The half-spaces are evaluated in blocks of rows, each block's product made
    in cache-sized column chunks that keep the block's rows (see
    ``measures._halfspace_masses``).  A block product rounds normal . x
    differently from a matrix-vector product, so a point on a boundary (each
    passes through one) may fall on either side.
    """
    normals, offsets = _halfspace_draws(seeded_generator(seed), tree, cloud, count)
    masses = _halfspace_masses(cloud.points, cloud.weights, normals, offsets)
    floor = cloud.total_mass / 2**tree.dimension * (1.0 - _DEPTH_SLACK)
    failures = int(np.count_nonzero(masses < floor))
    return CheckReport(
        "depth",
        failures == 0,
        stats={"min_mass": float(masses.min()), "floor": floor, "count": count,
               "failures": failures},
        tolerances={"relative_slack": _DEPTH_SLACK},
        seed=seed,
    )


def check_symmetry(cloud: WeightedPointCloud, z,
                   cfg: SolverConfig | None = None) -> CheckReport:
    """The center of a centrally symmetric cloud sits at its symmetry point.

    The cloud is symmetrized about z first, and the center must lie within
    50 * residual_tol of z in every coordinate.  Nothing is drawn, so the
    report carries no seed.
    """
    cfg = cfg or SolverConfig()
    z = np.asarray(z, dtype=float)
    tol = 50.0 * cfg.residual_tol
    system = CoordinateSystem.standard(cloud.dimension)
    tree = compute_center_partition(symmetrize(cloud, z), system, cfg)
    dev = float(np.max(np.abs(tree.center - z)))
    return CheckReport(
        "symmetry",
        dev <= tol,
        stats={"center": [float(v) for v in tree.center],
               "target": [float(v) for v in z],
               "max_deviation": dev},
        tolerances={"max_abs": tol},
    )


def check_prefix_dependence(cloud: WeightedPointCloud, k: int, shear,
                            cfg: SolverConfig | None = None) -> CheckReport:
    """Center coordinates 1..k survive any map that rewrites only later
    coordinates as functions of the first k.

    ``shear`` maps an (N, n) array to an (N, n) array; it must keep the first
    k columns unchanged (validated) and read nothing beyond them (caller's
    responsibility, unobservable from one application).
    """
    cfg = cfg or SolverConfig()
    if not 1 <= k <= cloud.dimension:
        raise ValueError("k must lie in 1..dimension")
    sheared_pts = np.asarray(shear(cloud.points.copy()), dtype=float)
    if sheared_pts.shape != cloud.points.shape:
        raise ValueError("shear must preserve the array shape")
    if not np.array_equal(sheared_pts[:, :k], cloud.points[:, :k]):
        raise ValueError("shear must not touch the first k coordinates")
    sheared = WeightedPointCloud(sheared_pts, cloud.weights, cloud.ids)
    system = CoordinateSystem.standard(cloud.dimension)
    before = compute_center_partition(cloud, system, cfg).center
    after = compute_center_partition(sheared, system, cfg).center
    dev = float(np.max(np.abs(before[:k] - after[:k])))
    tol = 10.0 * max(cfg.root_tol, cfg.residual_tol)
    return CheckReport(
        "prefix-dependence",
        dev <= tol,
        stats={"center_before": [float(v) for v in before],
               "center_after": [float(v) for v in after],
               "prefix_deviation": dev, "k": k},
        tolerances={"max_abs": tol},
    )


def check_continuity(cloud: WeightedPointCloud, background: MeasureSpec,
                     eps_list, cfg: SolverConfig | None = None, *,
                     count: int = 256, seed: int = 0) -> CheckReport:
    """Centers of cloud + eps * background drift back as eps shrinks.

    Each eps mixes in ``regularize(cloud, background, 1 / eps, count, seed)``:
    the same background sample, carrying mass(cloud) / (1 / eps).  Distances
    to the unperturbed center must be non-increasing along decreasing eps (up
    to 10 * residual_tol) and below
    0.5 * sqrt(eps) * data scale.
    """
    cfg = cfg or SolverConfig()
    eps_list = [float(e) for e in eps_list]
    if not eps_list or not all(0.0 < e < math.inf for e in eps_list):  # NaN fails both
        raise ValueError("eps values must be finite and > 0")
    eps_list.sort(reverse=True)
    system = CoordinateSystem.standard(cloud.dimension)
    base_center = compute_center_partition(cloud, system, cfg).center
    scale = float(np.max(np.ptp(cloud.points, axis=0)))
    distances = []
    for eps in eps_list:
        mixed = regularize(cloud, background, 1.0 / eps, count, seed)
        center = compute_center_partition(mixed, system, cfg).center
        distances.append(float(np.linalg.norm(center - base_center)))
    slack = 10.0 * cfg.residual_tol
    monotone = all(
        d_small <= d_big + slack for d_big, d_small in zip(distances, distances[1:])
    )
    bounded = all(
        d <= _RATE_CONSTANT * np.sqrt(eps) * scale
        for eps, d in zip(eps_list, distances)
    )
    return CheckReport(
        "continuity",
        monotone and bounded,
        stats={"eps": eps_list, "distances": distances, "data_scale": scale,
               "monotone": monotone, "bounded": bounded},
        tolerances={"slack": slack, "rate_constant": _RATE_CONSTANT},
        seed=seed,
    )


def _projected_medians(low, high, alpha, t: float):
    """Medians of both halves' remaining coordinate after projection along (1, t)."""
    axis = np.array([1.0, t])
    return [weighted_quantile(project_measure(half, alpha, axis).points[:, 0],
                              half.weights, 0.5) for half in (low, high)]


def oracle_center_2d(cloud: WeightedPointCloud) -> np.ndarray:
    """Exact two-dimensional center by breakpoint search, independent of the solver.

    Cuts at the weighted median alpha of coordinate 1.  Along the axis (1, t)
    a point (x, y) projects to y - (x - alpha) * t, a line in t that rises for
    the low half and falls for the high half.  So the difference g(t) of the
    two projected halves' medians is continuous, non-decreasing and piecewise
    linear, with breakpoints only where two lines of one half cross.  Bisection
    over the sorted breakpoints finds the linear piece holding the first root,
    which is then solved in closed form; the center is (alpha, midpoint of the
    two medians there).  Listing every crossing takes O(N^2) time and memory.
    """
    if cloud.dimension != 2:
        raise ValueError("oracle is two-dimensional only")
    alpha, low, high = split_at_median(cloud)

    def g(t: float) -> float:
        m_low, m_high = _projected_medians(low, high, alpha, t)
        return m_low - m_high

    crossings = [np.zeros(1)]
    for half in (low, high):
        x, y = half.points.T
        dx, dy = x[:, None] - x, y[:, None] - y
        crossings.append(dy[dx != 0.0] / dx[dx != 0.0])
    ts = np.unique(np.concatenate(crossings))
    # one point strictly beyond each end, on the two outer linear pieces
    ts = [ts[0] - (1.0 + abs(ts[0])), *ts, ts[-1] + (1.0 + abs(ts[-1]))]
    i = bisect.bisect_left(ts, 0.0, 1, len(ts) - 1, key=g)
    a, b = float(ts[i - 1]), float(ts[i])
    ga, gb = g(a), g(b)
    if ga == gb != 0.0:
        raise RuntimeError("median difference never changes sign")
    t = a if ga == gb else a - ga * (b - a) / (gb - ga)
    m_low, m_high = _projected_medians(low, high, alpha, t)
    return np.array([alpha, 0.5 * (m_low + m_high)])
