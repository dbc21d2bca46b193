"""The partition tree: one global center, one axis per node, 2^n cone regions.

A tree over R^n is the coordinate frame, the center x and the table of its
2^n - 1 normalized axes in level order: row 0 is the root's, row i has
children 2i + 1 (-) and 2i + 2 (+).  The cut value at depth k is the center's
k-th coordinate, so the shared-center requirement is structural rather than
checked.  The axis of a depth-k node is sub-diagonal (zero below index k,
exactly 1 at index k), and the region for a sign word (e_1, ..., e_n) is

    x + pos(e_1 u^1, ..., e_n u^n),

where u^k is the axis of the node reached by the prefix (e_1, ..., e_{k-1}).
Sign words are plain tuples of n ints, each +-1.

Witness search gates the center with ``HalfSpace.value``'s formula, then
takes one product of the axis table with the half-space's normal (one
``ndarray.dot`` gemv, with the bits of ``@``) and walks it, picking +1 wherever
it is nonnegative; the certificate reads the same gate and the same rows of a
product, so the region passes it by construction, for every half-space holding
the center.  Point location walks the same indices, picking -1 wherever the
point's coefficient along the node's axis is within tolerance of <= 0; since
that choice never leads to a dead end, it finds the lexicographically first
region (-1 first), deterministically.  It steps a chunk of 2^13 points at a
time, along one contiguous row per coordinate, the root's axis broadcast and
the leaf reached indexing the sign words; its scratch (two (n, chunk) float
tables, a bool row, an index row) is O(n * chunk) whatever the batch size,
and each point's label has the same bits whatever chunk it falls in.

Documents use the ``yaoyao-partition/v1`` JSON schema, which nests the nodes
as ``{"axis", "neg", "pos"}`` objects; the nesting exists only in the file.
Floats survive the round trip exactly (shortest round-trip decimal both ways).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .geometry import (
    ConeRegion,
    HalfSpace,
    CoordinateSystem,
    _frozen,
    _take_out,
    _value_at,
    _holds_bool,
    membership_tolerance,
)

__all__ = [
    "PartitionTree",
    "PartitionFormatError",
    "regions",
    "witness_region",
    "region_of_point",
    "locate_points",
    "serialize",
    "deserialize",
    "save",
    "load",
]

SCHEMA = "yaoyao-partition/v1"
_CHUNK = 2**13  # points per step of the location walk: its tables stay in cache


class PartitionFormatError(ValueError):
    """Schema violation, version mismatch, or invariant failure on load."""


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """Coordinate frame, global center (in that frame), axis table, provenance.

    ``axes`` is the read-only (2^n - 1, n) table of the node axes in level
    order: row 0 is the root's, row i has children 2i + 1 (-) and 2i + 2 (+),
    and the rows 2^k - 1 .. 2^(k+1) - 2 of depth k + 1 are 1 at index k and 0
    before it."""

    system: CoordinateSystem
    center: np.ndarray
    axes: np.ndarray
    meta: dict

    def __post_init__(self):
        center, axes = _frozen(self.center), _frozen(self.axes)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axes", axes)
        n = self.system.dimension
        if center.shape != (n,):
            raise PartitionFormatError("center length must equal the dimension")
        if axes.shape != (2**n - 1, n):
            raise PartitionFormatError(f"axis table must have shape ({2**n - 1}, {n})")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(axes))):
            raise PartitionFormatError("center and axes must be finite")
        for k in range(n):
            level = axes[2**k - 1:2**(k + 1) - 1]
            if np.any(level[:, k] != 1.0):
                raise PartitionFormatError(
                    f"axis at depth {k + 1} is not normalized (component {k + 1} must be 1)"
                )
            if np.any(level[:, :k] != 0.0):
                raise PartitionFormatError(
                    f"axis at depth {k + 1} must vanish below its own coordinate"
                )

    @property
    def dimension(self) -> int:
        return self.system.dimension

    def __eq__(self, other):
        if not isinstance(other, PartitionTree):
            return NotImplemented
        return (
            self.system == other.system
            and np.array_equal(self.center, other.center)
            and np.array_equal(self.axes, other.axes)
            and self.meta == other.meta
        )


def regions(tree: PartitionTree) -> dict[tuple[int, ...], ConeRegion]:
    """All 2^n regions keyed by sign word, in lexicographic order (-1 first).

    Generator k of region(e) is the axis of the node at prefix (e_1..e_{k-1});
    in particular generator 1 is the root axis for every region.
    """
    out = {}
    for signs in product((-1, 1), repeat=tree.dimension):
        rows, i = [], 0
        for s in signs:
            rows.append(i)
            i = 2 * i + 1 + (s > 0)
        out[signs] = ConeRegion(tree.center, tree.axes[rows], signs)
    return out


def witness_region(tree: PartitionTree, h: HalfSpace) -> tuple[int, ...]:
    """Sign word of a region inside the half-space (which must hold the
    center): the path through one product of the axis table with the normal,
    taking +1 at a node iff its product is >= 0.

    The product is one ``ndarray.dot`` gemv, with the bits of ``@``, and the
    center's gate is ``HalfSpace.value``'s formula (``geometry._value_at``);
    ``halfspace_contains_region`` reads the same products and gate the same
    way, so the witness passes its certificate by construction.  A normal so
    large that the product overflows warns as ``@`` does, with numpy's
    "overflow encountered in dot"."""
    normal, center = h.normal, tree.center
    if normal.shape != center.shape:
        raise ValueError("half-space dimension mismatch")
    if _value_at(h, center) < 0.0:
        raise ValueError("half-space does not contain the center")
    d, signs, i = tree.axes.dot(normal).tolist(), [], 0
    for _ in range(len(center)):
        plus = d[i] >= 0.0
        signs.append(1 if plus else -1)
        i = 2 * i + 1 + plus
    return tuple(signs)


@lru_cache(maxsize=None)
def _leaf_words(n: int) -> np.ndarray:
    """The 2^n leaves' sign words, read-only: row i's sign k is +1 iff bit n-1-k of i is set."""
    return _frozen(2 * (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1) - 1, np.int64)


def locate_points(tree: PartitionTree, points: np.ndarray) -> np.ndarray:
    """Sign words of the lexicographically first region (-1 first) containing
    each point, as a C-contiguous (N, n) int64 array of +-1, found by one walk
    down the tree, a chunk of points one level at a time.

    At a depth-k node a point's coefficient along the node's axis is the k-th
    coordinate of what remains of p - center after the ancestors' axes are
    taken out.  Sign -1 holds it within tolerance exactly when that coefficient
    is <= ``membership_tolerance``, and +1 does otherwise, so every feasible
    prefix extends to a full region and taking -1 wherever feasible yields the
    first region of the lexicographic order.  Costs O(N n^2) instead of a scan over 2^n regions.

    The walk takes 2^13 points at a time, on the (n, chunk) transpose of their
    p - center, one contiguous row per coordinate: level k reads row k into a
    bool row, then takes the node axis out of the later rows, in place, with
    ``geometry._take_out``, the kernel the region functions use: the root's
    broadcast to all points (a gather's products, so its bits), a deeper one
    gathered per point.  The leaf reached, node - (2^n - 1), is the label's row
    in the table of sign words.  Its tables and rows are reused for every
    chunk, so beside the result it holds O(n * chunk) memory whatever N is,
    and each label has the bits of a walk over the whole batch at once.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != tree.dimension:
        raise ValueError("point dimension mismatch")
    count, n = pts.shape
    labels = np.empty((count, n), dtype=np.int64)
    width = min(count, _CHUNK)
    columns = np.ascontiguousarray(tree.axes.T)  # row j: entry j of every node's axis
    rest_buf, tmp_buf = np.empty(n * width), np.empty((n - 1) * width)
    neg_buf, node_buf = np.empty(width, dtype=bool), np.empty(width, dtype=np.intp)
    for lo in range(0, count, _CHUNK):
        chunk = pts[lo:lo + _CHUNK]
        if not np.all(np.isfinite(chunk)):
            raise ValueError("points must be finite (NaN or inf found)")
        m = len(chunk)
        rest, neg, node = rest_buf[:n * m].reshape(n, m), neg_buf[:m], node_buf[:m]
        node[:] = 0
        tols = membership_tolerance(tree.center, chunk)
        np.subtract(chunk.T, tree.center[:, None], out=rest)
        for k in range(n):
            np.less_equal(rest[k], tols, out=neg)
            if k + 1 < n:
                tmp = tmp_buf[:(n - k - 1) * m].reshape(n - k - 1, m)
                if k:  # every node index is in range; "clip" skips the buffered bounds check
                    np.take(columns[k + 1:], node, axis=1, out=tmp, mode="clip")
                _take_out(rest, k, tmp if k else columns[1:, :1], out=tmp)  # the root's axis, one for all
            node *= 2  # to child 2i + 1 (-) or 2i + 2 (+)
            node += 2
            node -= neg
        node -= 2**n - 1  # the leaf's place in the lexicographic order
        np.take(_leaf_words(n), node, axis=0, out=labels[lo:lo + m], mode="clip")
    return labels


def region_of_point(tree: PartitionTree, p) -> tuple[int, ...]:
    """Sign word of the lexicographically first region containing the point
    (-1 before +1), so boundary points and the center itself resolve
    deterministically to all -1 choices.  Takes one n-vector; a batch goes
    to ``locate_points``."""
    if np.ndim(p) != 1:
        raise ValueError(f"region_of_point takes one point, got shape {np.shape(p)}")
    return tuple(locate_points(tree, np.asarray(p, dtype=float)[None])[0].tolist())


def _node_to_json(axes: np.ndarray, i: int):
    if i >= len(axes):
        return None
    return {
        "axis": axes[i].tolist(),
        "neg": _node_to_json(axes, 2 * i + 1),
        "pos": _node_to_json(axes, 2 * i + 2),
    }


def _numbers(value) -> bool:
    """Whether a JSON value is a list of numbers."""
    return isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)


def _system(matrix, offset) -> CoordinateSystem:
    """The coordinate system of a document's matrix and offset, which must be
    lists (of lists) of numbers: numpy would read a string as a number."""
    if not (isinstance(matrix, list) and all(map(_numbers, matrix)) and _numbers(offset)):
        raise ValueError("matrix and offset must be lists of numbers")
    return CoordinateSystem(matrix, offset)


def _axes_from_json(root, n: int) -> np.ndarray:
    """The axis table of a nested document, read one level at a time, so the
    table is built only from nodes the document holds."""
    rows, level = [], [root]
    for depth in range(1, n + 1):
        if None in level:
            raise PartitionFormatError(f"missing node at depth {depth} (paths must reach depth {n})")
        if not all(isinstance(node, dict) for node in level):
            raise PartitionFormatError("node must be an object or null")
        for node in level:
            missing = {"axis", "neg", "pos"} - set(node)
            if missing:
                raise PartitionFormatError(f"node is missing keys {sorted(missing)}")
            axis = node["axis"]
            if not _numbers(axis):
                raise PartitionFormatError("node axis must be a list of numbers")
            if len(axis) != n:
                raise PartitionFormatError(f"axis at depth {depth} has wrong length")
            rows.append(axis)
        level = [child for node in level for child in (node["neg"], node["pos"])]
    if any(node is not None for node in level):
        raise PartitionFormatError("paths must end exactly at the dimension")
    return np.array(rows, dtype=float)


def serialize(tree: PartitionTree) -> dict:
    """JSON-ready document; floats keep their exact binary64 values."""
    return {
        "schema": SCHEMA,
        "dim": tree.dimension,
        "system": {
            "matrix": [[float(v) for v in row] for row in tree.system.matrix],
            "offset": [float(v) for v in tree.system.offset],
        },
        "center": [float(v) for v in tree.center],
        "root": _node_to_json(tree.axes, 0),
        "meta": tree.meta,
    }


def deserialize(doc: dict) -> PartitionTree:
    """Parse and fully re-validate a ``yaoyao-partition/v1`` document."""
    if not isinstance(doc, dict):
        raise PartitionFormatError("partition document must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA:
        if isinstance(schema, str) and schema.startswith("yaoyao-partition/"):
            raise PartitionFormatError(f"unsupported schema version {schema!r}")
        raise PartitionFormatError(f"not a partition document (schema={schema!r})")
    missing = {"dim", "system", "center", "root", "meta"} - set(doc)
    if missing:
        raise PartitionFormatError(f"document is missing keys {sorted(missing)}")
    for key in ("dim", "system", "center", "root"):
        if _holds_bool(doc[key]):
            raise PartitionFormatError(f"{key!r} must not hold true or false")
    if not _numbers(doc["center"]):
        raise PartitionFormatError("center must be a list of numbers")
    try:
        system = _system(doc["system"]["matrix"], doc["system"]["offset"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PartitionFormatError(f"bad coordinate system: {exc}") from exc
    if system.dimension != doc["dim"]:
        raise PartitionFormatError("'dim' does not match the coordinate system")
    try:
        axes = _axes_from_json(doc["root"], system.dimension)
        return PartitionTree(system, doc["center"], axes, doc["meta"])
    except PartitionFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise PartitionFormatError(str(exc)) from exc


def save(tree: PartitionTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(tree), fh, indent=2)
        fh.write("\n")


def load(path) -> PartitionTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PartitionFormatError(f"invalid JSON: {exc}") from exc
    return deserialize(doc)
