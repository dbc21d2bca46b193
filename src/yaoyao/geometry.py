"""Affine coordinate frames, half-spaces, and simplicial cone regions.

A partition region is an apex plus the cone of n signed *sub-diagonal*
generators u^1..u^n, expressed in the coordinates of an owning
``CoordinateSystem``, with

    u^i_j = 0 for j < i      and      u^i_i = 1   (both exact, by construction).

Stacking the signed generators column-wise therefore gives a unit lower
triangular matrix (up to the +-1 signs on the diagonal), so cone coefficients,
membership and the half-space representation all come from one forward
substitution, whose one kernel ``_take_out`` also steps the partition's point
location, so the two agree bit for bit.  No inversion, no pivoting, no least
squares, no sampling.

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


def _holds_bool(value) -> bool:
    """Whether a JSON value is or holds true or false, which numpy reads as 1 or 0."""
    todo = [value]
    while todo:  # a loop, not recursion: a document may nest deeper than the stack
        v = todo.pop()
        if isinstance(v, bool):
            return True
        todo.extend(v.values() if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else ())
    return False


def _square_sums(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row of an (m, n) table, the sum of the squares of columns lo..hi-1,
    added in the order ``membership_tolerance`` gives."""
    count = hi - lo
    if count > 128:
        mid = lo + count // 2 - count // 2 % 8
        return _square_sums(points, lo, mid) + _square_sums(points, mid, hi)
    if count < 8:
        total, tail = np.zeros(len(points)), lo
    else:
        r, tail = [np.square(points[:, lo + j]) for j in range(8)], hi - count % 8
        for i in range(lo + 8, tail, 8):
            for j, lane in enumerate(r):
                lane += np.square(points[:, i + j])
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    square = np.empty(len(points))
    for j in range(tail, hi):
        total += np.square(points[:, j], out=square)
    return total


def membership_tolerance(apex: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Facet fuzz per row of an (m, n) batch about an (n,) apex: 1e-9 * (1 + |apex| + |p_i|).

    |p_i| sums the row's squares one column at a time, in the order numpy's
    pairwise sum takes along a contiguous row: below 8 terms left to right;
    from 8 to 128 terms in eight lanes (term i into lane i mod 8), combined
    pairwise, then the leftover terms; above 128 terms the sums of two halves
    split at a multiple of 8.  So the fuzz keeps the bits of
    ``np.linalg.norm(points, axis=1)`` on a C-contiguous batch, without its
    strided pass over each row, for every memory layout of the batch and
    every split of it into chunks of rows, as point location takes it.

    Rows where that overflows (squares past the float range, from coordinates
    above about 1e154) take it again at the exact scale 2^-600, so every finite
    point gets a finite fuzz; every other row keeps its plain bits."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or np.shape(apex) != points.shape[1:]:
        raise ValueError(f"expected (m, n) points, (n,) apex; got {points.shape}, {np.shape(apex)}")
    n = points.shape[1]
    with np.errstate(over="ignore"):
        tol = np.sqrt(_square_sums(points, 0, n))
        tol += 1.0 + np.linalg.norm(apex)
        tol *= 1e-9
    big = np.isinf(tol)
    if big.any():
        a, r = np.linalg.norm(apex * 2.0**-600), np.sqrt(_square_sums(points[big] * 2.0**-600, 0, n))
        tol[big] = 1e-9 * 2.0**600 * (2.0**-600 + a + r)
    return tol


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


@dataclass(frozen=True, eq=False)
class ConeRegion:
    """apex + pos(sign_1 u^1, ..., sign_n u^n): one full region.

    The generators u^1..u^n are the rows of an (n, n) array in coordinate
    space, unit sub-diagonal bit for bit: u^i_j = 0 for j < i and u^i_i = 1.
    ``signs`` is the region's sign word, a tuple of n ints, each +-1.  The
    apex and every generator entry must be finite.  In a partition the apex is
    the center and the generators are the node axes along one root-to-leaf
    path.
    """

    apex: np.ndarray
    generators: np.ndarray
    signs: tuple[int, ...]

    def __post_init__(self):
        g = _frozen(self.generators)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"generators must be an n x n array, got shape {g.shape}")
        n = g.shape[0]
        bad = np.flatnonzero((np.tril(g) != np.eye(n)).any(axis=1))
        if bad.size:
            i = bad[0]
            if g[i, i] != 1.0:
                raise ValueError(f"generator {i} must have unit entry at index {i}")
            raise ValueError(f"generator {i} must vanish before index {i}")
        apex = _frozen(self.apex)
        if apex.shape != (n,):
            raise ValueError("apex dimension does not match generators")
        if not (np.isfinite(apex).all() and np.isfinite(g).all()):
            raise ValueError("apex and generators must be finite")
        if any(isinstance(s, (bool, np.bool_)) or s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be +-1, got {tuple(self.signs)}")
        signs = tuple(map(int, self.signs))
        if len(signs) != n:
            raise ValueError("one sign per generator required")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "signs", signs)

    @property
    def dimension(self) -> int:
        return self.generators.shape[0]

    def signed_generators(self) -> np.ndarray:
        """Rows sign_i * u^i."""
        return self.generators * np.asarray(self.signs, dtype=float)[:, None]


def _as_batch(region: ConeRegion, p) -> tuple[np.ndarray, bool]:
    """``p`` as an (m, n) batch of finite points, and whether it was one point."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != region.dimension:
        raise ValueError(f"expected one point or an (m, {region.dimension}) batch, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("points must be finite (NaN or inf found)")
    return np.atleast_2d(p), p.ndim == 1


def _take_out(rest: np.ndarray, k: int, entries: np.ndarray, out=None) -> None:
    """Take level k's axis out of an (n, m) table of offsets, one column per
    point, in place: row j > k becomes rest[j] - rest[k] * entry.  ``entries``
    is (n-k-1, m), one axis per point, or (n-k-1, 1), one axis for all; the
    products go to ``out`` (which may be ``entries``) or a new table."""
    np.subtract(rest[k + 1:], np.multiply(rest[k], entries, out=out), out=rest[k + 1:])


def _substitute(region: ConeRegion, rest: np.ndarray) -> np.ndarray:
    """Cone coefficients of an (n, m) table of offsets from the apex, one column
    per point (overwritten): the generators taken out with ``_take_out``, the
    kernel of ``locate_points``' walk, then coefficient i is row i times sign_i."""
    for k in range(region.dimension - 1):
        _take_out(rest, k, region.generators[k, k + 1:, None])
    return rest * np.asarray(region.signs, dtype=float)[:, None]


def cone_coefficients(region: ConeRegion, p: np.ndarray) -> np.ndarray:
    """Coefficients c with p - apex = sum_i c_i (sign_i u^i), by one forward
    substitution.  Accepts a single point or an (m, n) batch of finite points;
    returns shape (n,) or a C-contiguous (m, n).
    """
    pts, single = _as_batch(region, p)
    coeffs = np.ascontiguousarray(_substitute(region, pts.T - region.apex[:, None]).T)
    return coeffs[0] if single else coeffs


def cone_contains(region: ConeRegion, p: np.ndarray) -> bool | np.ndarray:
    """Membership test: every cone coefficient >= -``membership_tolerance``."""
    pts, single = _as_batch(region, p)
    tols = membership_tolerance(region.apex, pts)
    inside = np.all(_substitute(region, pts.T - region.apex[:, None]) >= -tols, axis=0)
    return bool(inside[0]) if single else inside


def _value_at(h: HalfSpace, x: np.ndarray) -> float:
    """``h.value(x)`` at one float point x: the same formula, one ddot less the
    offset, as the 1-D ``@`` is, so the same bits, without ``value``'s
    conversion and ufunc call.  Witness search and its certificate both gate
    the center with it."""
    return x.dot(h.normal) - h.offset


def halfspace_contains_region(h: HalfSpace, region: ConeRegion) -> bool:
    """Exact certificate that a region lies in the closed half-space.

    True iff the form is >= 0 at the apex and its linear part is >= 0 on every
    signed generator; then every point apex + sum c_i (sign_i u^i) with c >= 0
    satisfies the form.  No sampling: the apex's gate is ``HalfSpace.value``'s
    formula (``_value_at``), and the sign checks read one product, an
    ``ndarray.dot`` gemv with the bits of ``@``, whose rows are those
    ``witness_region`` reads; so a witness passes it by construction.  A
    normal so large that the product overflows warns as ``@`` does, with
    numpy's "overflow encountered in dot".
    """
    normal, apex = h.normal, region.apex
    if normal.shape != apex.shape:
        raise ValueError("half-space and region dimensions differ")
    if _value_at(h, apex) < 0.0:
        return False
    d = region.generators.dot(normal).tolist()
    return all([x >= 0.0 if s > 0 else x <= 0.0 for x, s in zip(d, region.signs)])


def region_halfspace_rep(region: ConeRegion) -> list[HalfSpace]:
    """The n half-spaces whose intersection is the region.

    Coefficient i is linear in p - apex, so substituting the identity's columns
    gives its normal a_i as row i: supported on coordinates 1..i with
    a_i[i] = sign_i and zeros of sign +.  The offset is a_i . apex, taken as a
    strided row of an F-ordered table, which numpy's ``@`` rounds otherwise
    than a contiguous row.  A point lies in all returned half-spaces exactly
    when its cone coefficients are all nonnegative.
    """
    normals = np.asfortranarray(_substitute(region, np.eye(region.dimension))) + 0.0  # no -0.0
    return [HalfSpace(a, float(a @ region.apex)) for a in normals]
