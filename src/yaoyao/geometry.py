"""Affine coordinate frames, half-spaces, and simplicial cone regions.

A partition region is an apex plus the cone of signed *sub-diagonal*
generators u^1..u^k, expressed in the coordinates of an owning
``CoordinateSystem``, with

    u^i_j = 0 for j < i      and      u^i_i = 1   (both exact, by construction).

Stacking the signed generators column-wise therefore gives a unit lower
triangular matrix (up to the +-1 signs on the diagonal), so membership tests
reduce to an exact forward substitution and the half-space representation to an
exact triangular inversion.  No pivoting, no least squares, no sampling.

All types are immutable values (arrays are frozen); every operation is a pure
function, safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoordinateSystem",
    "HalfSpace",
    "SignSequence",
    "ConeRegion",
    "cone_coefficients",
    "cone_contains",
    "halfspace_contains_region",
    "region_halfspace_rep",
    "membership_tolerance",
]

#: Condition-number bound above which a coordinate system is rejected.
DEFAULT_CONDITION_BOUND = 1e12


def _frozen(a, dtype=float) -> np.ndarray:
    """Copy ``a`` into a read-only float array."""
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def membership_tolerance(apex: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Facet fuzz per row of an (m, n) batch: 1e-9 * (1 + |apex| + |p_i|)."""
    return 1e-9 * (1.0 + np.linalg.norm(apex) + np.linalg.norm(points, axis=1))


@dataclass(frozen=True, eq=False)
class CoordinateSystem:
    """n affine forms x |-> matrix @ x + offset acting as coordinates.

    ``matrix`` holds the linear part of each form as a row; ``offset`` the
    scalar parts.  The dual basis (directions along which exactly one
    coordinate moves) consists of the columns of ``matrix``'s inverse.
    """

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        b = _frozen(self.offset)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"coordinate matrix must be square, got {m.shape}")
        if b.shape != (m.shape[0],):
            raise ValueError("offset length must match matrix dimension")
        if not np.all(np.isfinite(b)):
            raise ValueError("offset must be finite")
        cond = np.linalg.cond(m)
        if not np.isfinite(cond) or cond > DEFAULT_CONDITION_BOUND:
            raise ValueError(
                f"coordinate matrix is ill conditioned (cond={cond:.3g} > "
                f"{DEFAULT_CONDITION_BOUND:.3g})"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)
        inv = np.linalg.inv(m)
        inv.setflags(write=False)
        object.__setattr__(self, "_inverse", inv)

    @classmethod
    def standard(cls, dimension: int) -> "CoordinateSystem":
        """The identity frame on R^dimension."""
        return cls(np.eye(dimension), np.zeros(dimension))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def to_coordinates(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all forms at ambient point(s): x_i = row_i . p + offset_i."""
        p = np.asarray(points, dtype=float)
        return p @ self.matrix.T + self.offset

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        """Invert ``to_coordinates``."""
        x = np.asarray(coords, dtype=float)
        return (x - self.offset) @ self._inverse.T

    def dual_basis(self) -> np.ndarray:
        """Ambient directions e^1..e^n with form i moving only coordinate i (columns)."""
        return self._inverse

    def __eq__(self, other):
        if not isinstance(other, CoordinateSystem):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix) and np.array_equal(
            self.offset, other.offset
        )


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Closed half-space {y : normal . y >= offset}; boundary {normal . y = offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = _frozen(self.normal)
        if a.ndim != 1:
            raise ValueError("half-space normal must be a vector")
        offset = float(self.offset)
        nonzero = False
        for x in a.tolist():  # one pass: faster than a.any() on short normals
            if not math.isfinite(x):
                raise ValueError("half-space normal must be finite")
            nonzero = nonzero or x != 0.0
        if not nonzero:
            raise ValueError("half-space normal must be nonzero")
        if not math.isfinite(offset):
            raise ValueError("half-space offset must be finite")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", offset)

    @property
    def dimension(self) -> int:
        return self.normal.shape[0]

    def value(self, points: np.ndarray) -> np.ndarray:
        """Signed form value normal . p - offset (>= 0 means inside)."""
        return np.asarray(points, dtype=float) @ self.normal - self.offset

    def contains(self, points: np.ndarray) -> np.ndarray:
        # same sign as value(points) >= 0 for finite values, one pass fewer
        return np.asarray(points, dtype=float) @ self.normal >= self.offset


class SignSequence(tuple):
    """A tuple of +-1 signs indexing regions and their prefixes."""

    def __new__(cls, values=()):
        vals = tuple(map(int, values))
        if not set(vals) <= {-1, 1}:
            raise ValueError(f"signs must be +-1, got {vals}")
        return super().__new__(cls, vals)


@dataclass(frozen=True, eq=False)
class ConeRegion:
    """apex + pos(sign_1 u^1, ..., sign_k u^k) + lin(e_{k+1}, ..., e_n).

    The generators u^1..u^k are the rows of a (k, n) array in coordinate space,
    unit sub-diagonal bit for bit: u^i_j = 0 for j < i and u^i_i = 1.  The
    lineality directions are simply the last n-k standard basis vectors, so a
    full region (k = n) has no free directions.  In a partition the apex is the
    center and the generators are the node axes along one root-to-leaf path
    (a prefix path for k < n).
    """

    apex: np.ndarray
    generators: np.ndarray
    signs: SignSequence

    def __post_init__(self):
        g = _frozen(self.generators)
        if g.ndim != 2:
            raise ValueError("generators must be a k x n array")
        k, n = g.shape
        if k > n:
            raise ValueError(f"more generators ({k}) than dimensions ({n})")
        for i in range(k):
            if g[i, i] != 1.0:
                raise ValueError(f"generator {i} must have unit entry at index {i}")
            if i > 0 and np.any(g[i, :i] != 0.0):
                raise ValueError(f"generator {i} must vanish before index {i}")
        apex = _frozen(self.apex)
        if apex.shape != (n,):
            raise ValueError("apex dimension does not match generators")
        signs = SignSequence(self.signs)
        if len(signs) != k:
            raise ValueError("one sign per generator required")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "signs", signs)

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]

    @property
    def size(self) -> int:
        return self.generators.shape[0]

    def signed_generators(self) -> np.ndarray:
        """Rows sign_i * u^i."""
        return self.generators * np.asarray(self.signs, dtype=float)[:, None]

    def __eq__(self, other):
        if not isinstance(other, ConeRegion):
            return NotImplemented
        return (
            np.array_equal(self.apex, other.apex)
            and np.array_equal(self.generators, other.generators)
            and self.signs == other.signs
        )


def _check_point(region: ConeRegion, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != region.dimension:
        raise ValueError(
            f"point dimension {p.shape[-1]} != region dimension {region.dimension}"
        )
    return p


def cone_coefficients(region: ConeRegion, p: np.ndarray) -> np.ndarray:
    """Coefficients c with p - apex = sum_i c_i (sign_i u^i) + lineality part.

    The first k coordinates of the signed generators form a lower triangular
    matrix with +-1 diagonal, so c is obtained by exact forward substitution.
    Accepts a single point or an (m, n) batch; returns shape (k,) or (m, k).
    """
    p = _check_point(region, p)
    single = p.ndim == 1
    pts = np.atleast_2d(p)
    k = region.size
    rhs = pts[:, :k] - region.apex[:k]
    gens = region.signed_generators()
    coeffs = np.empty((pts.shape[0], k))
    for i in range(k):
        acc = rhs[:, i]
        if i:
            acc = acc - coeffs[:, :i] @ gens[:i, i]
        # diagonal entry is sign_i = +-1, so dividing is an exact sign flip
        coeffs[:, i] = acc * region.signs[i]
    return coeffs[0] if single else coeffs


def cone_contains(region: ConeRegion, p: np.ndarray) -> bool | np.ndarray:
    """Membership test: every cone coefficient >= -``membership_tolerance``."""
    p = _check_point(region, p)
    single = p.ndim == 1
    pts = np.atleast_2d(p)
    tols = membership_tolerance(region.apex, pts)
    coeffs = np.atleast_2d(cone_coefficients(region, pts))
    inside = np.all(coeffs >= -tols[:, None], axis=1)
    return bool(inside[0]) if single else inside


def halfspace_contains_region(h: HalfSpace, region: ConeRegion) -> bool:
    """Exact certificate that a full region lies in the closed half-space.

    True iff the form is >= 0 at the apex and its linear part is >= 0 on every
    signed generator; then every point apex + sum c_i (sign_i u^i) with c >= 0
    satisfies the form.  No sampling: sign checks on one product, whose rows are
    those ``witness_region`` reads, so a witness passes it by construction.
    """
    if region.size != region.dimension:
        raise ValueError("half-space certificates require a full region (k = n)")
    if h.dimension != region.dimension:
        raise ValueError("half-space and region dimensions differ")
    if h.value(region.apex) < 0.0:
        return False
    d = (region.generators @ h.normal).tolist()
    return all(x >= 0.0 if s > 0 else x <= 0.0 for x, s in zip(d, region.signs))


def _invert_unit_lower(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular matrix with +-1 diagonal, by forward
    substitution on identity columns.  Keeps the strict upper zeros exact."""
    k = lower.shape[0]
    inv = np.zeros((k, k))
    for i in range(k):
        inv[i, i] = 1.0 / lower[i, i]
        for j in range(i):
            inv[i, j] = -np.dot(lower[i, j:i], inv[j:i, j]) / lower[i, i]
    return inv


def region_halfspace_rep(region: ConeRegion) -> list[HalfSpace]:
    """The k half-spaces whose intersection (with the lineality span) is the region.

    Row i of the inverse signed-generator matrix gives normal a_i supported on
    coordinates 1..i with a_i[i] = sign_i; offset is a_i . apex.  A point lies
    in all returned half-spaces exactly when its cone coefficients are all
    nonnegative.
    """
    gens = region.signed_generators()
    k = region.size
    lower = gens[:, :k].T  # column i = signed u^i restricted to first k coords
    if np.any(np.abs(np.diag(lower)) != 1.0):
        raise ValueError("corrupted generators: diagonal must be +-1")
    inv = _invert_unit_lower(lower)
    halves = []
    for i in range(k):
        normal = np.zeros(region.dimension)
        normal[: i + 1] = inv[i, : i + 1]
        halves.append(HalfSpace(normal, float(normal @ region.apex)))
    return halves
