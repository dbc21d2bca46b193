"""Finite weighted point clouds and the measure operations the solver needs.

A cloud is the empirical stand-in for a finite measure: rows of coordinates
(in some coordinate system's frame), strictly positive weights, and stable
integer ids.  Storage order is ascending id, and every mass aggregation runs
in that order, so results do not depend on any evaluation schedule.
Building a cloud sorts its ids once, which both orders the rows and finds a
repeated id; subsets are gathered in id order (``np.compress``, ``np.take``),
which gives bit-identical sums to boolean indexing at a fraction of its cost
on masks that are scattered in id order.

The median convention is fixed once for the whole library: a quantile is the
midpoint of the quantile interval, and the equal-mass split at the median of
coordinate 1 gives mass tied at the cut to the low side greedily by ascending
id, splitting at most one point's weight.  So every split is reproducible and
exactly mass-halving, which pins down a canonical center for atomic inputs
(clouds put mass on hyperplanes: their center is a convention, not a theorem).

Only clouds and public functions validate; the quantile, split, projection,
half-space and prefix masses then run as private kernels on plain arrays in id
order, which the solver and the verifier call directly.  A quantile is taken
by selection (``np.partition``, O(N)) when every weight is one power of two
w0, unit weights included: the cumulative weights (i + 1) * w0 are then
exact, so the order statistics are bit for bit those of the stable sort and
cumulative sum other weights take.  For the same reason both verifier kernels,
``_halfspace_masses`` and ``_prefix_masses``, take the masses of such weights
as point counts times w0, exactly.

Randomness is counter-based and fully documented: every generator is a
numpy Philox stream keyed by the caller's 64-bit seed, and each spec kind
draws blocks in a fixed order (see ``sample``).  Identical (spec, N, seed)
therefore give bit-identical clouds.  A spec is checked once, when built,
which fixes its ``dimension``; its weights follow the cloud rule.

Clouds travel as CSV (``read_csv``/``write_csv``): a header ``x1,...,xn[,w]``
with n >= 1, unquoted comma-separated numbers spelled as for Python's
``float``, LF or CRLF line ends, blank lines skipped.  The body is parsed by
numpy's C reader (``np.loadtxt``), which converts each field with the same
correctly rounded routine as ``float``; the row-by-row reader takes over for
the spellings only ``float`` accepts (``1_000``, non-ASCII digits) and to
name a bad row.  Clouds are written by one join, in shortest round-trip form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import HalfSpace, _holds_bool

__all__ = [
    "WeightedPointCloud",
    "MeasureSpec",
    "sample",
    "seeded_generator",
    "weighted_quantile",
    "split_at_median",
    "project_measure",
    "halfspace_mass",
    "regularize",
    "symmetrize",
    "read_csv",
    "write_csv",
]


def _check_weights(w: np.ndarray) -> None:
    """Every weight > 0 and a finite total (so no weight is NaN or inf)."""
    with np.errstate(over="ignore"):
        total = np.sum(w)
    if not ((w > 0.0).all() and np.isfinite(total)):
        raise ValueError("weights must be > 0 with a finite total")


def _check_part_weights(weights, m: int) -> None:
    """m >= 1 spec weights, one per component (or atom), under the cloud rule."""
    w = np.asarray(weights, dtype=float)
    if m < 1 or w.shape != (m,):
        raise ValueError("weights must hold one entry per component (or atom), at least one")
    _check_weights(w)


@dataclass(frozen=True, eq=False)
class WeightedPointCloud:
    """N weighted points in R^n with unique integer ids, stored in id order."""

    points: np.ndarray
    weights: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        ids = np.asarray(self.ids, dtype=np.int64)
        if pts.ndim != 2:
            raise ValueError("points must be an (N, n) array")
        n_pts = pts.shape[0]
        if w.shape != (n_pts,) or ids.shape != (n_pts,):
            raise ValueError("points, weights and ids must have matching length")
        if n_pts == 0:
            raise ValueError("cloud must contain at least one point")
        _check_weights(w)
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        # one sort gives the storage order and, by adjacent ids, uniqueness;
        # the gathers copy, so the cloud never aliases the caller's arrays
        order = np.argsort(ids)
        ids = ids[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("ids must be unique")
        pts, w = np.take(pts, order, axis=0), w[order]
        for a in (pts, w, ids):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ids", ids)

    @classmethod
    def from_points(cls, points, weights=None) -> "WeightedPointCloud":
        """Build with ids 0..N-1 and unit weights by default."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if weights is None:
            weights = np.ones(pts.shape[0])
        return cls(pts, weights, np.arange(pts.shape[0]))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def __eq__(self, other):
        if not isinstance(other, WeightedPointCloud):
            return NotImplemented
        return (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.ids, other.ids)
        )


_SPEC_KEYS = {
    "gaussian-mixture": ("means", "cov_factors", "weights"),
    "uniform-box": ("lo", "hi"),
    "uniform-simplex": ("vertices",),
    "finite-atoms": ("points", "weights"),
    "mixture": ("components", "weights"),
}


@dataclass(frozen=True)
class MeasureSpec:
    """Generative description of a measure, loadable from JSON.

    kinds and their params:
      gaussian-mixture: means (m, n), cov_factors (m, n, n) with cov = F F^T,
                        weights (m)
      uniform-box:      lo (n), hi (n) opposite corners, lo < hi
      uniform-simplex:  vertices (n+1, n), affinely independent
      finite-atoms:     points (m, n), weights (m)
      mixture:          components (list of MeasureSpec dicts), weights (m)

    The params must hold exactly their kind's keys, every number finite and no
    true or false.  Weights follow the cloud rule (each > 0, finite total),
    with m >= 1; a mixture's components share one dimension.  ``dimension``
    (n >= 1) is fixed when the spec is validated.
    """

    kind: str
    params: dict

    def __post_init__(self):
        keys = _SPEC_KEYS.get(self.kind) if isinstance(self.kind, str) else None
        if keys is None:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        missing = [k for k in keys if k not in self.params]
        unknown = [k for k in self.params if k not in keys]
        if missing or unknown:
            raise ValueError(
                f"{self.kind} spec takes keys {list(keys)}; "
                f"missing {missing}, unknown {unknown}"
            )
        for key in (k for k in keys if k != "components"):
            if _holds_bool(self.params[key]):
                raise ValueError(f"{self.kind} spec key {key!r} must not hold true or false")
            if key != "weights" and not np.all(np.isfinite(np.asarray(self.params[key], dtype=float))):
                raise ValueError(f"{self.kind} spec key {key!r} must be finite")
        n = self._validate()
        if n < 1:
            raise ValueError(f"{self.kind} spec must have dimension >= 1, got {n}")
        object.__setattr__(self, "dimension", n)

    def _validate(self) -> int:
        p = self.params
        if self.kind == "gaussian-mixture":
            means = np.asarray(p["means"], dtype=float)
            factors = np.asarray(p["cov_factors"], dtype=float)
            if means.ndim != 2:
                raise ValueError("means must be (m, n)")
            m, n = means.shape
            if factors.shape != (m, n, n):
                raise ValueError("cov_factors must be (m, n, n)")
            _check_part_weights(p["weights"], m)
            for i, f in enumerate(factors):
                if np.linalg.matrix_rank(f) < n:
                    raise ValueError(f"covariance factor {i} is rank deficient")
            return n
        if self.kind == "uniform-box":
            lo = np.asarray(p["lo"], dtype=float)
            hi = np.asarray(p["hi"], dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValueError("box corners must be two vectors of equal length")
            if np.any(hi <= lo):
                raise ValueError("box must have positive extent in every coordinate")
            return lo.shape[0]
        if self.kind == "uniform-simplex":
            v = np.asarray(p["vertices"], dtype=float)
            if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
                raise ValueError("simplex needs n+1 vertices in R^n")
            edges = v[1:] - v[0]
            if np.linalg.matrix_rank(edges) < v.shape[1]:
                raise ValueError("simplex vertices are affinely dependent")
            return v.shape[1]
        if self.kind == "finite-atoms":
            pts = np.asarray(p["points"], dtype=float)
            if pts.ndim != 2:
                raise ValueError("finite-atoms needs (m, n) points")
            _check_part_weights(p["weights"], pts.shape[0])
            return pts.shape[1]
        comps = p["components"]
        _check_part_weights(p["weights"], len(comps))
        for c in comps:
            if not isinstance(c, MeasureSpec):
                raise ValueError("mixture components must be MeasureSpec")
        dims = sorted({c.dimension for c in comps})
        if len(dims) != 1:
            raise ValueError(f"mixture components must share one dimension; got {dims}")
        return dims[0]

    @classmethod
    def gaussian(cls, mean, cov_factor=None) -> "MeasureSpec":
        """Single Gaussian; identity covariance factor by default."""
        mean = np.asarray(mean, dtype=float)
        if cov_factor is None:
            cov_factor = np.eye(len(mean))
        return cls(
            "gaussian-mixture",
            {"means": [list(mean)], "cov_factors": [np.asarray(cov_factor).tolist()],
             "weights": [1.0]},
        )

    @classmethod
    def uniform_box(cls, lo, hi) -> "MeasureSpec":
        return cls("uniform-box", {"lo": list(lo), "hi": list(hi)})

    @classmethod
    def from_json(cls, doc: dict) -> "MeasureSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("measure spec document must be an object with a 'kind'")
        kind = doc["kind"]
        params = {k: v for k, v in doc.items() if k != "kind"}
        if kind == "mixture" and "components" in params:
            params["components"] = [cls.from_json(c) for c in params["components"]]
        return cls(kind, params)

    @classmethod
    def load(cls, path) -> "MeasureSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _draw(spec: MeasureSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` points from one spec using the shared stream.

    Block order per kind (documented so streams are reproducible):
      uniform-box:      one (count, n) uniform block
      gaussian-mixture: component labels, then one (count, n) normal block
      uniform-simplex:  one (count, n+1) Dirichlet(1) block of barycentric weights
      finite-atoms:     one (count,) categorical block
      mixture:          component labels, then each component's block in
                        component order (output grouped by component)
    """
    p = spec.params
    if spec.kind == "uniform-box":
        lo = np.asarray(p["lo"], dtype=float)
        hi = np.asarray(p["hi"], dtype=float)
        u = rng.random((count, lo.shape[0]))
        return lo + u * (hi - lo)
    if spec.kind == "gaussian-mixture":
        means = np.asarray(p["means"], dtype=float)
        factors = np.asarray(p["cov_factors"], dtype=float)
        w = np.asarray(p["weights"], dtype=float)
        labels = rng.choice(means.shape[0], size=count, p=w / w.sum())
        z = rng.standard_normal((count, means.shape[1]))
        out = np.empty_like(z)
        for j in range(means.shape[0]):
            mask = labels == j
            out[mask] = means[j] + z[mask] @ factors[j].T
        return out
    if spec.kind == "uniform-simplex":
        v = np.asarray(p["vertices"], dtype=float)
        bary = rng.dirichlet(np.ones(v.shape[0]), size=count)
        return bary @ v
    if spec.kind == "finite-atoms":
        pts = np.asarray(p["points"], dtype=float)
        w = np.asarray(p["weights"], dtype=float)
        idx = rng.choice(pts.shape[0], size=count, p=w / w.sum())
        return pts[idx]
    # mixture
    comps = p["components"]
    w = np.asarray(p["weights"], dtype=float)
    labels = rng.choice(len(comps), size=count, p=w / w.sum())
    blocks = []
    for j, comp in enumerate(comps):
        nj = int(np.sum(labels == j))
        if nj:
            blocks.append(_draw(comp, nj, rng))
    return np.vstack(blocks)


def seeded_generator(seed: int) -> np.random.Generator:
    """Philox4x64 generator keyed by a seed in 0..2^64 - 1."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in 0..2^64 - 1, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample(spec: MeasureSpec, count: int, seed: int) -> WeightedPointCloud:
    """Draw a unit-weight cloud of ``count`` points from the spec.

    The generator is Philox4x64 keyed by ``seed``; identical (spec, count,
    seed) give bit-identical clouds.  A finite-atoms spec with count equal to
    its atom count returns the atoms themselves, with their own weights.
    Draws that leave the float range raise ValueError, with no numpy warning.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seeded_generator(seed)
    if spec.kind == "finite-atoms":
        pts = np.asarray(spec.params["points"], dtype=float)
        if pts.shape[0] == count:
            return WeightedPointCloud.from_points(pts, spec.params["weights"])
    # an overflowing draw is reported by the cloud's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        points = _draw(spec, count, rng)
    return WeightedPointCloud.from_points(points)


def _equal_power_of_two(w: np.ndarray) -> bool:
    """Every weight equals one power of two w[0]: given a finite total, every
    partial sum of any subset in id order is then an exact multiple of w[0]."""
    w0 = float(w[0])
    return math.frexp(w0)[0] == 0.5 and bool((w == w0).all())


def _picks(w: np.ndarray, q: float):
    """Sorted positions of the two values the q-quantile selects when every
    weight is one power of two w[0], else None; t = q * total / w0 is exact
    (w0 only shifts the exponent; a t that underflows gives index 0 anyway)."""
    if not _equal_power_of_two(w):
        return None
    n, w0 = w.size, float(w[0])
    t = q * (n * w0) / w0
    return min(max(math.ceil(t) - 1, 0), n - 1), min(math.floor(t), n - 1)


def _quantile(v: np.ndarray, w: np.ndarray, q: float, ks=...):
    """``weighted_quantile`` on checked arrays, given ks = _picks(w, q) or not.
    Selection takes tied zeros, -0.0 and 0.0, in input order as sorting does."""
    ks = _picks(w, q) if ks is ... else ks
    if ks is not None:
        part = v.copy()  # np.partition without its wrapper
        part.partition(ks)
        ends = [part[k] or v[v == 0.0][k - np.count_nonzero(v < 0.0)] for k in ks]
    else:
        order = np.argsort(v, kind="stable")
        cw = np.cumsum(w[order])
        target = q * cw[-1]
        ends = [v[order[min(int(np.searchsorted(cw, target, side)), v.size - 1)]]
                for side in ("left", "right")]
    return 0.5 * (ends[0] + ends[1])


def weighted_quantile(values, weights, q: float) -> float:
    """Midpoint of the q-quantile interval of a weighted sample.

    With W the cumulative weight of the sorted values and target t = q * total,
    returns (lo + hi) / 2 where lo is the smallest value with W >= t and hi the
    smallest value with W > t (clamped to the largest value).
    """
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty input")
    if v.shape != w.shape:
        raise ValueError("values and weights must have equal length")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    _check_weights(w)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return _quantile(v, w, q)


def _split(points: np.ndarray, weights: np.ndarray, ks=...):
    """``split_at_median`` on checked arrays in id order, ks as in _quantile;
    returns (alpha, rows, cut, w): the low half's cut input rows, then the high
    half's, each in id order (a split point in both), and their weights w."""
    coord = points[:, 0]
    alpha = _quantile(coord, weights, 0.5, ks)
    in_low, in_high = coord < alpha, coord > alpha
    need = 0.5 * float(np.sum(weights)) - float(np.sum(np.compress(in_low, weights)))

    # only the tied block is walked; a split point keeps its id on both sides
    low_w, high_w = weights.copy(), weights.copy()
    for i in np.flatnonzero(coord == alpha):
        wi = weights[i]
        if need >= wi:
            in_low[i] = True
            need -= wi
        elif need > 0.0:
            in_low[i] = in_high[i] = True
            low_w[i], high_w[i] = need, wi - need
            need = 0.0
        else:
            in_high[i] = True

    low, high = np.flatnonzero(in_low), np.flatnonzero(in_high)
    w = np.concatenate([np.take(low_w, low), np.take(high_w, high)])
    return float(alpha), np.concatenate([low, high]), low.size, w


def split_at_median(
    cloud: WeightedPointCloud,
) -> tuple[float, WeightedPointCloud, WeightedPointCloud]:
    """Cut the cloud at the weighted median of coordinate 1 into exact halves.

    Points strictly below the median value go low, strictly above go high.
    Mass tied at the median is assigned greedily by ascending id to the low
    side until it holds exactly half the total, splitting at most one point's
    weight; a split point appears in both halves with the same id.
    """
    alpha, rows, cut, w = _split(cloud.points, cloud.weights)
    return alpha, *(WeightedPointCloud(np.take(cloud.points, rows[s], axis=0), w[s],
                                       np.take(cloud.ids, rows[s]))
                    for s in (slice(cut), slice(cut, None)))


def _slide(tail: np.ndarray, reach: np.ndarray, axis_tail: np.ndarray) -> np.ndarray:
    """``project_measure`` on checked arrays: tail - reach * axis_tail row by
    row, for reach = x_1 - alpha and tail, axis_tail without coordinate 1."""
    shifted = tail - reach[:, None] * axis_tail
    if not np.isfinite(shifted).all():
        raise ValueError("points must be finite")
    return shifted


def project_measure(
    side: WeightedPointCloud, alpha: float, axis: np.ndarray
) -> WeightedPointCloud:
    """Slide each point along the axis into the cut plane and drop coordinate 1.

    x maps to x - (x_1 - alpha) * axis, whose first coordinate is alpha for a
    normalized axis (axis_1 = 1); the remaining n-1 coordinates are returned.
    The identical formula handles both halves, since projecting along -axis
    from below the plane traces the same line.  Weights and ids are preserved.
    """
    axis = np.asarray(axis, dtype=float)
    if side.dimension < 2:
        raise ValueError("projection needs dimension >= 2")
    if axis.shape != (side.dimension,):
        raise ValueError("axis dimension mismatch")
    if axis[0] != 1.0:
        raise ValueError("axis must be normalized: first component exactly 1")
    # an overflowing product is reported by _slide as a ValueError, not a warning
    with np.errstate(over="ignore"):
        shifted = _slide(side.points[:, 1:], side.points[:, 0] - alpha, axis[1:])
    return WeightedPointCloud(shifted, side.weights, side.ids)


#: Entries of one block of half-space products: a block takes as many rows as
#: fit, and the row count decides whether BLAS runs gemm or gemv, and so how a
#: boundary anchor rounds; fixed, so a result never depends on a setting.
_BLOCK_ENTRIES = 1 << 18
#: Entries of one column chunk of a block's product (256 KiB, which stays in cache).
_CHUNK_ENTRIES = 1 << 15


def _row_counts(sides: np.ndarray) -> np.ndarray:
    """True entries of each row of a C-contiguous (rows, 8k) bool table, exactly.

    The table is read as uint64 words of eight 0/1 bytes.  Each row's words are
    summed in runs of at most 255, so no byte lane of a run's sum can carry;
    then the eight lanes of every run are added."""
    words = sides.view(np.uint64)
    runs = np.add.reduceat(words, np.arange(0, words.shape[1], 255), axis=1)
    return runs.view(np.uint8).sum(axis=1)


def _halfspace_masses(points: np.ndarray, weights: np.ndarray,
                      normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``halfspace_mass`` on checked arrays, for every row of (normals, offsets).

    Rows are taken in blocks of _BLOCK_ENTRIES // N (at least one).  A block's
    product with the points is made in column chunks of about _CHUNK_ENTRIES
    entries, into one reused buffer, and compared into one reused (rows, N)
    bool block.  A chunk keeps the block's rows, and so BLAS's choice of gemm
    or gemv, and at least two columns (one column would be gemv); the last
    chunk takes the rest.  So each product rounds as in one product per block,
    except that BLAS rounds a row's last few products (its last partial kernel
    tile, within the last N mod 64 points) otherwise in the whole row than in a
    chunk.  The bool block is padded to a width of whole uint64 words, its pad
    columns False.  On equal power-of-two weights a mass is the count inside
    (``_row_counts``, for every block shape) times w0, which is the id-order
    sum bit for bit; other weights are summed in id order, one row at a time.
    """
    size, count = points.shape[0], normals.shape[0]
    step = max(1, _BLOCK_ENTRIES // size)
    rows = max(1, min(step, count))
    width = max(2, _CHUNK_ENTRIES // rows)
    edges = [width * i for i in range(max(1, size // width))] + [size]
    table = np.ascontiguousarray(points.T) if rows > 1 else None  # gemm's layout
    counted = _equal_power_of_two(weights)
    product = np.empty(rows * (size - edges[-2]))
    inside, masses = np.zeros((rows, -(-size // 8) * 8), dtype=bool), np.empty(count)
    for lo in range(0, count, step):
        block, sides = normals[lo:lo + step], inside[:min(step, count - lo)]
        for a, b in zip(edges, edges[1:]):
            # one row is gemv, which rounds by the layout it reads: read the points
            chunk = points[a:b].T if len(block) == 1 else table[:, a:b]
            out = product[:len(block) * (b - a)].reshape(len(block), b - a)
            np.greater_equal(np.matmul(block, chunk, out=out),
                             offsets[lo:lo + step, None], out=sides[:, a:b])
        masses[lo:lo + step] = _row_counts(sides) if counted else [
            np.sum(np.compress(row, weights)) for row in sides[:, :size]]
    return masses * weights[0] if counted else masses


def _prefix_masses(labels: np.ndarray, weights: np.ndarray) -> list[list[float]]:
    """Mass of every sign prefix of an (N, n) label table, one list per depth
    k = 1..n of 2^k masses indexed by prefix in lexicographic order (-1 first).

    When every weight is one power of two w0, a prefix's mass is its point
    count times w0, which is exact, so it has the bits of any sum of its
    weights.  Otherwise each depth stable-sorts the prefix codes, held in the
    smallest unsigned dtype that fits them so that numpy radix-sorts them, and
    sums each prefix's contiguous slice of the sorted weights: the slice holds
    the prefix's weights in id order, so ``np.sum`` adds them in the same
    pairwise blocks, with the same bits, as it adds
    ``np.compress(code == c, weights)``."""
    n = labels.shape[1]
    code = np.zeros(len(weights), dtype=np.min_scalar_type(2**n - 1))
    counted, out = _equal_power_of_two(weights), []
    for k in range(n):
        code = 2 * code + (labels[:, k] > 0)
        sizes = np.bincount(code, minlength=2**(k + 1))
        if counted:
            out.append((sizes * weights[0]).tolist())
        else:
            grouped = weights[np.argsort(code, kind="stable")]
            ends = np.cumsum(sizes).tolist()
            out.append([float(np.sum(grouped[lo:hi])) for lo, hi in zip([0] + ends, ends)])
    return out


def halfspace_mass(cloud: WeightedPointCloud, h: HalfSpace) -> float:
    """Total weight on the closed side normal . x >= offset, summed in id order."""
    if h.dimension != cloud.dimension:
        raise ValueError("half-space dimension mismatch")
    return float(_halfspace_masses(cloud.points, cloud.weights,
                                   h.normal[None, :], np.array([h.offset]))[0])


def regularize(
    cloud: WeightedPointCloud,
    background: MeasureSpec,
    p: float,
    count: int,
    seed: int,
) -> WeightedPointCloud:
    """Mix in a sampled background carrying 1/p of the cloud's mass.

    The result has the original points unchanged plus ``count`` background
    samples of equal weight totalling mass(cloud) / p, so total mass becomes
    (1 + 1/p) times the original.  Fresh ids continue past the current maximum.
    """
    if not 0.0 < p < math.inf:  # NaN fails both comparisons
        raise ValueError("p must be finite and > 0")
    if background.dimension != cloud.dimension:
        raise ValueError("background dimension mismatch")
    extra = sample(background, count, seed)
    extra_mass = cloud.total_mass / p
    new_ids = cloud.ids.max() + 1 + np.arange(count)
    return WeightedPointCloud(
        np.vstack([cloud.points, extra.points]),
        np.concatenate([cloud.weights, np.full(count, extra_mass / count)]),
        np.concatenate([cloud.ids, new_ids]),
    )


def symmetrize(cloud: WeightedPointCloud, z) -> WeightedPointCloud:
    """The average of the cloud and its reflection through z.

    Every point keeps half its weight and contributes a mirror image 2z - x,
    so the output is reflection-invariant as a weighted multiset.  Ids are
    reassigned 0..2N-1 (originals first, mirrors second, both in id order).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (cloud.dimension,):
        raise ValueError("symmetry center dimension mismatch")
    mirrored = 2.0 * z - cloud.points
    return WeightedPointCloud(
        np.vstack([cloud.points, mirrored]),
        np.concatenate([0.5 * cloud.weights, 0.5 * cloud.weights]),
        np.arange(2 * cloud.size),
    )


def write_csv(cloud: WeightedPointCloud, path_or_file) -> None:
    """Write ``x1,...,xn,w`` rows, decimal point, shortest round-trip floats."""
    header = ",".join([f"x{i + 1}" for i in range(cloud.dimension)] + ["w"])
    rows = np.column_stack([cloud.points, cloud.weights]).tolist()
    text = "".join([header + "\n"] + [",".join(map(repr, row)) + "\n" for row in rows])
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


# numpy's field parser strips these as whitespace; ``float`` rejects them.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def read_csv(path_or_file) -> WeightedPointCloud:
    """Read a ``x1,...,xn[,w]`` table (n >= 1); a missing weight column means 1.0.

    Fields are unquoted and separated by commas; each is a number as Python's
    ``float`` spells it, spaces around it allowed.  Lines end in LF or CRLF,
    and blank lines are skipped.

    The non-blank lines go to numpy's C reader, which gives the floats
    ``float`` gives (both round with ``PyOS_string_to_double``).
    A character only numpy takes for whitespace, any ``ValueError`` from
    numpy or a column count off the header's width sends them to the
    row-by-row reader instead: that one reads ``1_000`` and non-ASCII digits,
    and raises the errors that name a bad row.
    """
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    else:
        text = path_or_file.read()
    if not text:
        raise ValueError("empty CSV: missing header")
    lines = text.split("\n")
    if '"' in text:
        lineno = next(i for i, line in enumerate(lines, start=1) if '"' in line)
        raise ValueError(
            f"CSV line {lineno} has a quoted field; fields must be unquoted"
        )
    header = [h.strip() for h in lines[0].split(",")]
    has_w = header[-1] == "w"
    coord_names = header[:-1] if has_w else header
    expected = [f"x{i + 1}" for i in range(len(coord_names))]
    if not coord_names or coord_names != expected:
        raise ValueError(f"CSV header must be x1,...,xn[,w] with n >= 1; got {header}")
    width = len(header)
    rows = [line for line in lines[1:] if line and not line.isspace()]
    if not rows:
        raise ValueError("CSV contains no data rows")
    table = None
    if not any(c in text for c in _NUMPY_ONLY_SPACES):
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            pass
    if table is None or table.shape[1] != width:
        table = _read_rows(lines, rows, width)
    if has_w:
        return WeightedPointCloud.from_points(table[:, :-1], table[:, -1])
    return WeightedPointCloud.from_points(table)


def _read_rows(lines: list[str], rows: list[str], width: int) -> np.ndarray:
    """The row-by-row reader: names a row whose field count is off, then
    converts every field with ``float``'s grammar."""
    if [line.count(",") for line in rows].count(width - 1) != len(rows):
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.count(",") + 1
            if line and not line.isspace() and fields != width:
                raise ValueError(
                    f"CSV row {lineno} has {fields} fields, expected {width}"
                )
    return np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), width)
