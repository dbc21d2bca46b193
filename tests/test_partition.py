"""Region enumeration, witnesses, point location, and the JSON round trip."""

import hashlib
import json
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yaoyao.geometry import (
    ConeRegion,
    CoordinateSystem,
    HalfSpace,
    cone_coefficients,
    cone_contains,
    halfspace_contains_region,
    membership_tolerance,
)
from yaoyao.measures import MeasureSpec, WeightedPointCloud, sample
from yaoyao.partition import (
    _CHUNK,
    PartitionFormatError,
    PartitionTree,
    deserialize,
    locate_points,
    region_of_point,
    regions,
    serialize,
    witness_region,
)
from yaoyao.solver import compute_center_partition

SYS2 = CoordinateSystem.standard(2)

ASYMMETRIC = WeightedPointCloud.from_points([(0, 0), (1, 2), (2, 1), (3, 3)])
SQUARE = WeightedPointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def scan_labels(tree, pts):
    """Reference location: scan all 2^n regions in lexicographic order (-1
    first) and give each point the first region holding it within tolerance."""
    tols = membership_tolerance(tree.center, pts)
    labels = np.zeros(pts.shape, dtype=np.int64)
    remaining = np.ones(pts.shape[0], dtype=bool)
    for signs, region in regions(tree).items():
        idx = np.nonzero(remaining)[0]
        coeffs = np.atleast_2d(cone_coefficients(region, pts[idx]))
        hit = idx[np.all(coeffs >= -tols[idx, None], axis=1)]
        labels[hit] = signs
        remaining[hit] = False
    assert not np.any(remaining), "scan left a point in no region"
    return labels


def exact_walk(tree, p):
    """Reference location of one point in exact rational arithmetic (every
    float is a dyadic rational): the level-order walk of ``locate_points``,
    a_k = r[k], then r[k+1:] -= a_k * axis[k+1:], with -1 iff a_k <= tol, where
    r starts as the exact p - center and tol is the point's float fuzz, taken
    exactly.  Returns the label, the exact a_k met at each level, tol, and
    whether some a_k is exactly 0 (the point lies on a facet of its region)."""
    n = tree.dimension
    tol = Fraction(float(membership_tolerance(tree.center, p[None])[0]))
    r = [Fraction(x) - Fraction(c) for x, c in zip(p.tolist(), tree.center.tolist())]
    label, coeffs, node = [], [], 0
    for k in range(n):
        a = r[k]
        axis = tree.axes[node].tolist()
        for j in range(k + 1, n):
            r[j] -= a * Fraction(axis[j])
        coeffs.append(a)
        label.append(-1 if a <= tol else 1)
        node = 2 * node + 1 + (label[-1] > 0)
    return tuple(label), coeffs, tol, 0 in coeffs


def random_tree(rng, n):
    """A valid tree with a random center and random sub-diagonal axes, drawn
    node by node in the document's nesting order (node, - subtree, + subtree)."""
    center, axes = rng.standard_normal(n), np.zeros((2**n - 1, n))

    def fill(i, k):
        if i < len(axes):
            axes[i, k] = 1.0
            axes[i, k + 1:] = rng.standard_normal(n - k - 1)
            fill(2 * i + 1, k + 1)
            fill(2 * i + 2, k + 1)

    fill(0, 0)
    return PartitionTree(CoordinateSystem.standard(n), center, axes, {})


def synthetic_tree(rng, n):
    """A tree shaped like the benchmark's synthetic one: center 0.1 * normal,
    and below each node's 1 its axis holds 0.7 * normal, drawn level by level."""
    center, axes = 0.1 * rng.standard_normal(n), np.zeros((2**n - 1, n))
    for k in range(n):
        level = axes[2**k - 1:2**(k + 1) - 1]
        level[:, k] = 1.0
        level[:, k + 1:] = 0.7 * rng.standard_normal((2**k, n - k - 1))
    return PartitionTree(CoordinateSystem.standard(n), center, axes, {})


def level_order_nodes(tree):
    """Every node of the tree's document, root first, each level left (-) to
    right (+)."""
    out, level = [], [serialize(tree)["root"]]
    while level[0] is not None:
        out += level
        level = [child for node in level for child in (node["neg"], node["pos"])]
    return out


def walked_generators(tree, signs):
    """Reference generators of a region: the axes met on a walk from the root
    through the document's nodes, one child per sign."""
    gens, node = np.empty((len(signs), tree.dimension)), serialize(tree)["root"]
    for k, s in enumerate(signs):
        gens[k] = node["axis"]
        node = node["pos"] if s > 0 else node["neg"]
    return gens


def facet_points(rng, tree, count):
    """Points on region facets: a random region's cone with some coefficients 0."""
    n = tree.dimension
    regs = regions(tree)
    out = np.empty((count, n))
    for j in range(count):
        signs = tuple(rng.choice([-1, 1], size=n).tolist())
        coeffs = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.5)
        out[j] = tree.center + coeffs @ regs[signs].signed_generators()
    return out


def fuzz_edge_points(rng, tree, count):
    """Points whose coefficient along one generator of a random region is
    -tol * (1 +- 1e-15), tol the membership tolerance: on the edge of the facet
    fuzz, where the last bits of the substitution decide membership."""
    n = tree.dimension
    regs = regions(tree)
    out = np.empty((count, n))
    for j in range(count):
        r = regs[tuple(rng.choice([-1, 1], size=n).tolist())]
        coeffs = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.5)
        i = rng.integers(n)
        coeffs[i] = 0.0
        tol = membership_tolerance(r.apex, (r.apex + coeffs @ r.signed_generators())[None])[0]
        coeffs[i] = -tol * (1.0 + rng.choice([-1.0, 1.0]) * 1e-15)
        out[j] = r.apex + coeffs @ r.signed_generators()
    return out


@pytest.fixture(scope="module")
def square_tree():
    return compute_center_partition(SQUARE, SYS2)


@pytest.fixture(scope="module")
def asym_tree():
    return compute_center_partition(ASYMMETRIC, SYS2)


@pytest.fixture(scope="module")
def tree_3d():
    cloud = sample(MeasureSpec.uniform_box([0, 0, 0], [1, 1, 1]), 128, seed=77)
    return compute_center_partition(cloud, CoordinateSystem.standard(3))


def standard_doc(n):
    """Document of the tree with standard axes about the origin."""
    axes = np.zeros((2**n - 1, n))
    for k in range(n):
        axes[2**k - 1:2**(k + 1) - 1, k] = 1.0
    return serialize(PartitionTree(CoordinateSystem.standard(n), np.zeros(n), axes, {}))


class TestTreeInvariants:
    def test_axis_must_be_normalized(self):
        axes = [[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        with pytest.raises(PartitionFormatError, match="depth 1 is not normalized"):
            PartitionTree(SYS2, np.zeros(2), axes, {})

    def test_axis_must_be_sub_diagonal(self):
        axes = [[1.0, 0.0], [0.0, 1.0], [0.5, 1.0]]
        with pytest.raises(PartitionFormatError, match="depth 2 must vanish below"):
            PartitionTree(SYS2, np.zeros(2), axes, {})

    @pytest.mark.parametrize("axes", [np.eye(2), np.ones((3, 3)), np.ones(3), np.ones((7, 2))])
    def test_table_shape_checked(self, axes):
        with pytest.raises(PartitionFormatError, match="shape"):
            PartitionTree(SYS2, np.zeros(2), axes, {})

    def test_center_length_checked(self):
        axes = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        with pytest.raises(PartitionFormatError, match="center length must equal the dimension"):
            PartitionTree(SYS2, np.zeros(3), axes, {})

    @pytest.mark.parametrize("where, message", [
        ("document", "partition document must be a JSON object"),
        ("keys", r"node is missing keys \['pos'\]"),
        ("axis", "node axis must be a list of numbers"),
        ("dim", "'dim' does not match the coordinate system"),
        # numpy would read "0.0" as 0.0 and load the standard tree
        ("center", "^center must be a list of numbers$"),
        ("nested-center", "^center must be a list of numbers$"),
        ("matrix", "^bad coordinate system: matrix and offset must be lists of numbers$"),
        ("offset", "^bad coordinate system: matrix and offset must be lists of numbers$"),
    ])
    def test_malformed_document_rejected(self, where, message):
        doc = standard_doc(2)
        if where == "document":
            doc = [doc]
        elif where == "keys":
            del doc["root"]["neg"]["pos"]
        elif where == "axis":
            doc["root"]["pos"]["axis"] = ["0", 1.0]
        elif where == "center":
            doc["center"] = ["0.0", "0.0"]
        elif where == "nested-center":
            doc["center"] = [[0.0], [0.0]]
        elif where == "matrix":
            doc["system"]["matrix"][1][1] = "1"
        elif where == "offset":
            doc["system"]["offset"] = ["0", 0.0]
        else:
            doc["dim"] = 3
        with pytest.raises(PartitionFormatError, match=message):
            deserialize(doc)

    def test_paths_must_reach_the_dimension(self):
        doc = standard_doc(2)
        doc["root"]["neg"] = doc["root"]["pos"] = None
        with pytest.raises(PartitionFormatError, match="missing node at depth 2"):
            deserialize(doc)

    def test_one_missing_child_rejected(self):
        doc = standard_doc(3)
        doc["root"]["pos"]["neg"] = None
        with pytest.raises(PartitionFormatError, match="missing node at depth 3"):
            deserialize(doc)

    def test_paths_must_end_at_the_dimension(self):
        doc = standard_doc(2)
        doc["root"]["pos"]["neg"] = {"axis": [0.0, 1.0], "neg": None, "pos": None}
        with pytest.raises(PartitionFormatError, match="end exactly"):
            deserialize(doc)

    def test_axis_of_wrong_length_rejected(self):
        doc = standard_doc(2)
        doc["root"]["neg"]["axis"] = [0.0, 1.0, 0.0]
        with pytest.raises(PartitionFormatError, match="depth 2 has wrong length"):
            deserialize(doc)

    @pytest.mark.parametrize("node", [[0.0, 1.0], 1.0, "node"])
    def test_node_must_be_an_object(self, node):
        doc = standard_doc(2)
        doc["root"]["pos"] = node
        with pytest.raises(PartitionFormatError, match="object or null"):
            deserialize(doc)

    def test_shallow_document_sizes_nothing_from_its_dimension(self):
        # a (2^40 - 1, 40) table would take 320 TiB; the reader stops at the
        # first missing node instead
        n = 40
        doc = {
            "schema": "yaoyao-partition/v1",
            "dim": n,
            "system": {"matrix": np.eye(n).tolist(), "offset": [0.0] * n},
            "center": [0.0] * n,
            "root": {"axis": [1.0] + [0.0] * (n - 1), "neg": None, "pos": None},
            "meta": {},
        }
        with pytest.raises(PartitionFormatError, match="missing node at depth 2"):
            deserialize(doc)


class TestNumbersOutOfRange:
    """Every number of a tree is finite and fits a float; a file that breaks
    this is a format error, not a tree the checks then run on."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, bad):
        axes = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        with pytest.raises(PartitionFormatError, match="finite"):
            PartitionTree(SYS2, [0.0, bad], axes, {})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_axis_entry_rejected(self, bad):
        axes = [[1.0, bad], [0.0, 1.0], [0.0, 1.0]]
        with pytest.raises(PartitionFormatError, match="finite"):
            PartitionTree(SYS2, np.zeros(2), axes, {})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_offset_rejected(self, bad):
        doc = standard_doc(2)
        doc["system"]["offset"][1] = bad
        with pytest.raises(PartitionFormatError, match="offset must be finite"):
            deserialize(doc)

    @pytest.mark.parametrize("where, message", [
        ("dim", "'dim' must not hold true or false"),
        ("center", "'center' must not hold true or false"),
        ("matrix", "'system' must not hold true or false"),
        ("offset", "'system' must not hold true or false"),
        ("axis", "'root' must not hold true or false"),
    ])
    def test_boolean_rejected(self, where, message):
        # a 1-D tree about the origin: true and false read as 1.0 and 0.0
        # would give the same tree
        doc = standard_doc(1)
        doc["meta"]["synthetic"] = True  # meta is provenance, not numbers
        if where == "dim":
            doc["dim"] = True
        else:
            row = {"center": doc["center"], "axis": doc["root"]["axis"],
                   "matrix": doc["system"]["matrix"][0], "offset": doc["system"]["offset"]}[where]
            row[0] = bool(row[0])  # the same number, spelled true or false
        with pytest.raises(PartitionFormatError, match=message):
            deserialize(doc)

    def test_boolean_check_survives_deep_nesting(self):
        # the check walks the document without recursion, so a center nested
        # past the interpreter's stack is still an input error
        doc, deep = standard_doc(1), [True]
        for _ in range(5000):
            deep = [deep]
        doc["center"] = deep
        with pytest.raises(PartitionFormatError, match="'center' must not hold true or false"):
            deserialize(doc)

    def test_boolean_in_meta_accepted(self):
        doc = standard_doc(1)
        doc["meta"]["synthetic"] = True
        assert deserialize(doc).meta == {"synthetic": True}

    @pytest.mark.parametrize("where", ["center", "axis", "matrix"])
    def test_integer_too_large_for_a_float_rejected(self, where):
        doc = standard_doc(2)
        row = {"center": doc["center"], "axis": doc["root"]["axis"],
               "matrix": doc["system"]["matrix"][1]}[where]
        row[1] = 10**400
        with pytest.raises(PartitionFormatError, match="too large"):
            deserialize(doc)


class TestRegions:
    def test_region_count(self, square_tree, tree_3d):
        assert len(regions(square_tree)) == 4
        assert len(regions(tree_3d)) == 8

    def test_square_plus_plus(self, square_tree):
        r = regions(square_tree)[(1, 1)]
        assert np.array_equal(r.apex, [0.5, 0.5])
        assert np.array_equal(r.generators, [[1.0, 0.0], [0.0, 1.0]])

    def test_first_generator_is_root_axis(self, asym_tree):
        regs = regions(asym_tree)
        for signs, r in regs.items():
            assert np.array_equal(r.generators[0], asym_tree.axes[0])
            assert r.signs == signs
            assert np.array_equal(r.apex, asym_tree.center)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_keys_are_int_tuples_in_lexicographic_order(self, n):
        regs = regions(random_tree(np.random.default_rng(60 + n), n))
        assert list(regs) == list(product((-1, 1), repeat=n))
        for signs, r in regs.items():
            assert type(signs) is tuple and all(type(s) is int for s in signs)
            assert type(r.signs) is tuple and r.signs == signs

    def test_asymmetric_first_generator_value(self, asym_tree):
        r = regions(asym_tree)[(1, -1)]
        assert abs(r.generators[0][1] - 0.5) <= 1e-9

    def test_regions_tile_random_points(self, tree_3d):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 2, size=(2000, 3))
        labels = locate_points(tree_3d, pts)
        # every located label really contains its point
        regs = regions(tree_3d)
        for i in range(0, 2000, 97):
            r = regs[tuple(labels[i].tolist())]
            assert cone_contains(r, pts[i])

    def test_unique_region_off_boundaries(self, asym_tree):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 4, size=(3000, 2))
        regs = regions(asym_tree)
        counts = np.zeros(len(pts), dtype=int)
        margins = np.full(len(pts), np.inf)
        from yaoyao.geometry import cone_coefficients
        for r in regs.values():
            coeffs = cone_coefficients(r, pts)
            counts += np.all(coeffs >= 0.0, axis=1)
            margins = np.minimum(margins, np.min(np.abs(coeffs), axis=1))
        clear = margins > 1e-9 * (1 + np.max(np.abs(pts)))
        assert np.all(counts[clear] == 1)
        assert np.all(counts >= 1 - (margins <= 1e-9))  # near-facet points may miss by fuzz


class TestWitness:
    def test_diagonal_through_center(self, square_tree):
        signs = witness_region(square_tree, HalfSpace(np.array([1.0, 1.0]), 1.0))
        assert signs == (1, 1)

    def test_flipped_normal_starts_negative(self, square_tree):
        signs = witness_region(square_tree, HalfSpace(np.array([-1.0, 0.0]), -0.5))
        assert signs[0] == -1

    def test_whole_space_still_certifies(self, asym_tree):
        from yaoyao.geometry import halfspace_contains_region
        h = HalfSpace(np.array([0.3, -0.8]), -1e9)
        signs = witness_region(asym_tree, h)
        assert halfspace_contains_region(h, regions(asym_tree)[signs])

    def test_center_outside_rejected(self, square_tree):
        with pytest.raises(ValueError):
            witness_region(square_tree, HalfSpace(np.array([1.0, 0.0]), 10.0))

    def test_dimension_mismatch_rejected(self, square_tree):
        with pytest.raises(ValueError, match="half-space dimension mismatch"):
            witness_region(square_tree, HalfSpace(np.ones(3), -10.0))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_words_are_int_tuples_that_index_regions(self, n):
        rng = np.random.default_rng(70 + n)
        tree = random_tree(rng, n)
        regs = regions(tree)
        for _ in range(50):
            a = rng.standard_normal(n)
            h = HalfSpace(a, float(a @ tree.center) - abs(rng.standard_normal()))
            word = witness_region(tree, h)
            assert type(word) is tuple and all(type(s) is int for s in word)
            assert word in regs and halfspace_contains_region(h, regs[word])

    def test_thousand_random_halfspaces_all_certify(self, tree_3d):
        from yaoyao.geometry import halfspace_contains_region
        rng = np.random.default_rng(99)
        regs = regions(tree_3d)
        hits = 0
        for _ in range(1000):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            c = float(a @ (tree_3d.center + rng.standard_normal(3)))
            if float(a @ tree_3d.center) < c:
                a, c = -a, -c
            h = HalfSpace(a, c)
            hits += halfspace_contains_region(h, regs[witness_region(tree_3d, h)])
        assert hits == 1000


def axis_orthogonal_halfspaces(n):
    """A random tree and 400 half-spaces per node of its first six, each normal
    orthogonal to that node's axis and each holding the center by 1."""
    tree = random_tree(np.random.default_rng(11), n)
    rng = np.random.default_rng(n)
    normals, offsets = [], []
    for node in level_order_nodes(tree)[:6]:
        u = np.array(node["axis"])
        for _ in range(400):
            a = rng.standard_normal(n)
            a -= (a @ u) / (u @ u) * u
            normals.append(a)
            offsets.append(float(a @ tree.center) - 1.0)
    return tree, np.array(normals), np.array(offsets)


class TestWitnessCertificateAgreement:
    """The witness and the certificate read the same derivatives, rounded the
    same way, so every witness passes its own certificate, even where the
    half-space's normal is orthogonal to a tree axis and a derivative sits at
    the rounding level of zero."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_axis_orthogonal_normals_certify(self, n):
        tree, normals, offsets = axis_orthogonal_halfspaces(n)
        # and normals +-e_j through the center: every product below depth j + 1
        # is an exact +-0.0 under any BLAS kernel, a tie the rule breaks to +1
        ties = np.concatenate([np.eye(n), -np.eye(n)])
        regs = regions(tree)
        failures, words = 0, []
        for a, c in zip([*normals, *ties], [*offsets, *(ties @ tree.center)]):
            h = HalfSpace(a, c)
            words.append(witness_region(tree, h))
            failures += not halfspace_contains_region(h, regs[words[-1]])
        assert failures == 0
        for j, word in enumerate(words[len(normals):]):
            assert word[j % n + 1:] == (1,) * (n - 1 - j % n)

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_path_derivatives_equal_region_product(self, n, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n)
        regs = regions(tree)
        nodes = level_order_nodes(tree)
        for j in range(30):
            a = rng.standard_normal(n)
            if j % 2:  # orthogonal to one axis, so one derivative is near zero
                u = np.array(nodes[rng.integers(len(nodes))]["axis"])
                a -= (a @ u) / (u @ u) * u
            if not a.any():
                continue
            h = HalfSpace(a, float(a @ tree.center) - abs(rng.standard_normal()))
            signs = witness_region(tree, h)
            product = regs[signs].generators @ a
            rows, i = [], 0
            for s in signs:
                rows.append(i)
                i = 2 * i + 1 + (s > 0)
            assert (tree.axes @ a)[rows].tobytes() == product.tobytes()
            assert list(signs) == [1 if d >= 0.0 else -1 for d in product]


def reference_witness(tree, h):
    """Witness search read with ``HalfSpace.value`` and the ``@`` product."""
    if h.value(tree.center) < 0.0:
        raise ValueError("half-space does not contain the center")
    return reference_walk(tree, h.normal)


def outcome(f, *args):
    """What f(*args) returns, or the text of the ValueError it raises, and the
    warnings it gives on the way, ``matmul`` read as ``dot``: numpy names the
    operator's product and the method's after themselves."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = f(*args)
        except ValueError as e:
            result = str(e)
    return result, [(w.category, str(w.message).replace("matmul", "dot")) for w in caught]


def reference_walk(tree, a):
    """The witness walk over the ``@`` product of the axis table with ``a``."""
    d, signs, i = (tree.axes @ a).tolist(), [], 0
    for _ in range(tree.dimension):
        plus = d[i] >= 0.0
        signs.append(1 if plus else -1)
        i = 2 * i + 1 + plus
    return tuple(signs)


def reference_certificate(h, region):
    """The certificate read with ``HalfSpace.value`` and the ``@`` product."""
    if h.value(region.apex) < 0.0:
        return False
    d = (region.generators @ h.normal).tolist()
    return all(x >= 0.0 if s > 0 else x <= 0.0 for x, s in zip(d, region.signs))


def path_region(tree, signs):
    """The region of a sign word, built from its path's rows of the axis table
    (``regions`` would build all 2^n of them)."""
    rows, i = [], 0
    for s in signs:
        rows.append(i)
        i = 2 * i + 1 + (s > 0)
    return ConeRegion(tree.center, tree.axes[rows], signs)


class TestWitnessReferenceBits:
    """Witness search and its certificate read their products with
    ``ndarray.dot`` and gate the center with ``HalfSpace.value``'s formula
    written out; both must keep, bit for bit, the answers of the ``@`` product
    and of ``HalfSpace.value`` itself.  A numpy or BLAS release whose ``dot``
    and ``@`` round differently fails here."""

    KINDS = ("generic", "orthogonal", "boundary", "outside", "huge")

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_words_and_certificates_keep_the_reference_bits(self, n, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n)
        for kind in self.KINDS * 4:
            a = rng.standard_normal(n)
            if kind == "orthogonal":  # one product at the rounding level of zero
                u = tree.axes[rng.integers(len(tree.axes))]
                a -= (a @ u) / (u @ u) * u
            elif kind == "huge":  # products and the center's value overflow to inf or NaN
                a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(307.0, 308.2, n)
            if not a.any():
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                value = float(HalfSpace(a, 0.0).value(tree.center))
                product_bytes = (tree.axes @ a).tobytes(), tree.axes.dot(a).tobytes()
            assert product_bytes[0] == product_bytes[1]
            offset = {"boundary": value, "outside": value + 1.0,
                      "huge": float(rng.choice([-1e300, 0.0, 1e300]))}.get(
                kind, value - abs(rng.standard_normal()))
            h = HalfSpace(a, offset)
            if kind == "boundary":
                assert h.value(tree.center) == 0.0
            word, caught = outcome(witness_region, tree, h)
            assert (word, caught) == outcome(reference_witness, tree, h)
            if kind != "huge":
                assert not caught
            if isinstance(word, str):
                assert word == "half-space does not contain the center"
                continue
            other = list(word)
            other[rng.integers(n)] *= -1
            for signs in (word, tuple(other)):
                r = path_region(tree, signs)
                assert outcome(halfspace_contains_region, h, r) == outcome(reference_certificate, h, r)
            if kind != "huge":
                assert halfspace_contains_region(h, path_region(tree, word))

    def test_an_overflowing_product_warns_as_the_reference_does(self):
        tree = PartitionTree(SYS2, np.zeros(2), np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]), {})
        h = HalfSpace(np.array([1.5e308, 1.5e308]), 0.0)  # the root's product is inf
        overflow = [(RuntimeWarning, "overflow encountered in dot")]
        assert outcome(witness_region, tree, h) == outcome(reference_witness, tree, h) == ((1, 1), overflow)
        r = path_region(tree, (1, 1))
        assert outcome(halfspace_contains_region, h, r) == outcome(reference_certificate, h, r) == (True, overflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                witness_region(tree, h)
            with pytest.raises(RuntimeWarning, match="overflow"):
                halfspace_contains_region(h, r)


class TestLevelOrderTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_regions_and_prefixes_match_the_node_walk(self, n):
        """Generator k of each region is the axis of the node at its k-1 prefix."""
        tree = random_tree(np.random.default_rng(40 + n), n)
        for signs, region in regions(tree).items():
            ref = walked_generators(tree, signs)
            assert region.generators.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_table_rows_are_the_nodes_in_level_order(self, n):
        tree = random_tree(np.random.default_rng(50 + n), n)
        nodes = level_order_nodes(tree)
        assert tree.axes.shape == (2**n - 1, n) == (len(nodes), n)
        assert tree.axes.tobytes() == np.array([v["axis"] for v in nodes]).tobytes()

    def test_table_is_read_only(self, tree_3d):
        with pytest.raises(ValueError):
            tree_3d.axes[0, 1] = 5.0
        assert not tree_3d.axes.flags.writeable

    def test_deserialized_tree_has_the_same_table(self, tree_3d):
        again = deserialize(json.loads(json.dumps(serialize(tree_3d))))
        assert again.axes.tobytes() == tree_3d.axes.tobytes()
        assert not again.axes.flags.writeable


# sha256 of locate_points' label bytes on 8192 gaussian points, the center and
# 256 facet and 256 fuzz-edge points of a synthetic tree, recorded while the
# walk still ran on the (N, n) table of points (n = 1, 5, 8) or on the whole
# (n, N) table at once (n = 12, the largest dimension the solver once took,
# whose fuzz sums eight lanes of squares and then 4 leftover terms)
LOCATE_GOLDEN = {
    1: "7fde0ea2892843c1100f86ce5b4465e784128f32122ba4d61a4b3d6d973d789b",
    5: "66bfe03dd53b6ef2bacd33514420563e8f030d067b24361d1617a0f2be20ddb2",
    8: "2c95c8451dcb954be43ade17254b2435bcf266cc66abb0c60bf4158a3309ee86",
    12: "cbbead228c09cbf9359ea8cddcec5d70380dca200b5ef03e24b98fc7919c1b5c",
}


class TestPointLocation:
    def test_interior_point(self, square_tree):
        assert region_of_point(square_tree, (2.0, 3.0)) == (1, 1)

    def test_center_resolves_all_negative(self, square_tree):
        assert region_of_point(square_tree, (0.5, 0.5)) == (-1, -1)

    def test_asymmetric_example(self, asym_tree):
        assert region_of_point(asym_tree, (2.5, 3.0)) == (1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, square_tree, bad):
        pts = np.array([[0.6, 0.6], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            locate_points(square_tree, pts)

    @given(st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_region_scan(self, n, seed):
        # n = 8 is the solver's dimension cap, and the first n at which the row
        # norm in membership_tolerance no longer sums squares left to right
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, n)
        pts = np.vstack([
            tree.center + rng.standard_normal((200, n)) * 10.0 ** rng.integers(-3, 3),
            tree.center,
        ])
        both = np.vstack([pts, facet_points(rng, tree, 40), fuzz_edge_points(rng, tree, 40)])
        assert np.array_equal(locate_points(tree, both), scan_labels(tree, both))

    @pytest.mark.parametrize("n", sorted(LOCATE_GOLDEN))
    def test_labels_match_the_golden_digest(self, n):
        rng = np.random.default_rng([61, n])
        tree = synthetic_tree(rng, n)
        pts = np.vstack([rng.standard_normal((8192, n)), tree.center[None],
                         facet_points(rng, tree, 256), fuzz_edge_points(rng, tree, 256)])
        labels = locate_points(tree, pts)
        assert hashlib.sha256(labels.tobytes()).hexdigest() == LOCATE_GOLDEN[n]

    @pytest.mark.parametrize("make", [random_tree, synthetic_tree])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_each_leaf_gives_its_lexicographic_word(self, n, make):
        # one point deep inside each region, center + sum_i sign_i u^i, in
        # regions' order: the leaves reached are 0 .. 2^n - 1 in turn, so the
        # labels are the whole table of sign words; n = 1 takes no axis out,
        # n = 2 only the broadcast root's.  Single points are every word up
        # to n = 8 and every 16th at n = 12, as each takes a whole call
        tree = make(np.random.default_rng([17, n]), n)
        regs = regions(tree)
        pts = np.array([tree.center + r.signed_generators().sum(axis=0) for r in regs.values()])
        assert locate_points(tree, pts).tolist() == [list(w) for w in regs]
        step = max(1, len(pts) // 256)
        assert [region_of_point(tree, p) for p in pts[::step]] == list(regs)[::step]

    def test_labels_do_not_depend_on_the_chunking(self):
        # a batch of three chunks and 5 points, against slices that end before,
        # on and after every chunk boundary; single points are sampled, every
        # 61st and the two around each boundary, as each takes a whole call
        rng = np.random.default_rng(91)
        tree = synthetic_tree(rng, 5)
        count = 3 * _CHUNK + 5
        pts = np.vstack([rng.standard_normal((count - 512, 5)), facet_points(rng, tree, 256),
                         fuzz_edge_points(rng, tree, 256)])
        pts = pts[rng.permutation(count)]
        whole = locate_points(tree, pts)
        for step in [_CHUNK - 1, _CHUNK, _CHUNK + 1]:
            parts = [locate_points(tree, pts[lo:lo + step]) for lo in range(0, count, step)]
            assert np.vstack(parts).tobytes() == whole.tobytes()
        edges = [c + d for c in range(_CHUNK, count, _CHUNK) for d in (-1, 0)]
        for i in sorted({*range(0, count, 61), *edges}):
            assert locate_points(tree, pts[i:i + 1]).tobytes() == whole[i].tobytes()

    def test_scratch_memory_does_not_grow_with_the_batch(self):
        # the walk before chunking held about 13.7 MiB beside the 5 MiB of labels
        rng = np.random.default_rng(92)
        tree = synthetic_tree(rng, 5)
        pts = rng.standard_normal((2**17, 5))
        tracemalloc.start()
        try:
            labels = locate_points(tree, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < labels.nbytes + 2 * 2**20

    @pytest.mark.parametrize("layout", ["fortran", "strided", "int64", "lists", "empty"])
    def test_every_input_layout_gives_the_labels_of_a_float_copy(self, layout):
        rng = np.random.default_rng(71)
        tree = synthetic_tree(rng, 4)
        pts = np.round(3.0 * rng.standard_normal((64, 4)))
        pts[::5] = facet_points(rng, tree, 13)
        given_pts = {
            "fortran": np.asfortranarray(pts),
            "strided": pts[::2],
            "int64": pts.astype(np.int64),
            "lists": pts.tolist(),
            "empty": pts[:0],
        }[layout]
        before = np.array(given_pts, copy=True)
        labels = locate_points(tree, given_pts)
        assert np.array_equal(np.asarray(given_pts), before)
        expected = locate_points(tree, np.array(given_pts, dtype=float, order="C"))
        assert labels.dtype == np.int64 and labels.flags.c_contiguous
        assert labels.shape == before.shape == expected.shape
        assert labels.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_located_points_lie_in_their_regions(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            tree = random_tree(rng, n)
            regs = regions(tree)
            pts = np.vstack([facet_points(rng, tree, 50), fuzz_edge_points(rng, tree, 200)])
            labels = locate_points(tree, pts)
            for word in {tuple(w) for w in labels.tolist()}:
                mask = np.all(labels == word, axis=1)
                assert np.all(cone_contains(regs[word], pts[mask]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_words_are_int_tuples_that_index_regions(self, n):
        rng = np.random.default_rng(80 + n)
        tree = random_tree(rng, n)
        regs = regions(tree)
        for p in tree.center + rng.standard_normal((50, n)):
            word = region_of_point(tree, p)
            assert type(word) is tuple and all(type(s) is int for s in word)
            assert word in regs and cone_contains(regs[word], p)
            assert word == tuple(locate_points(tree, p[None])[0].tolist())

    def test_region_of_point_takes_one_point(self, square_tree):
        with pytest.raises(ValueError, match="one point"):
            region_of_point(square_tree, np.zeros((2, 2)))

    def test_batch_must_be_a_table(self, square_tree):
        with pytest.raises(ValueError, match="dimension mismatch"):
            locate_points(square_tree, np.zeros((2, 2, 2)))


class TestExactWalk:
    """The float walk against ``exact_walk``: labels part only where rounding
    moves a coefficient across the fuzz."""

    # center 0, root axis (1, 0.7); both children's axes are (0, 1)
    TREE = PartitionTree(SYS2, np.zeros(2), np.array([[1.0, 0.7], [0.0, 1.0], [0.0, 1.0]]), {})

    def test_a_point_on_a_facet_has_an_exact_zero(self):
        # 2.0 * 0.7 is exact, so the level-1 coefficient is exactly 0
        p = np.array([2.0, 2.0 * 0.7])
        label, coeffs, _, zero = exact_walk(self.TREE, p)
        assert coeffs == [2, 0] and zero
        assert label == (1, -1) == region_of_point(self.TREE, p)

    def test_a_rounded_zero_is_exactly_a_tiny_negative(self):
        # 0.1 * 0.7 rounds: the float walk takes it out to 0.0, the exact one
        # leaves 0.1 * 0.7 - (0.1 * 0.7 exactly), about -6.66e-18
        p = np.array([0.1, 0.1 * 0.7])
        label, coeffs, _, zero = exact_walk(self.TREE, p)
        assert not zero and float(coeffs[1]) == pytest.approx(-6.661338147750939e-18)
        assert cone_coefficients(regions(self.TREE)[(1, 1)], p)[1] == 0.0
        assert label == (1, -1) == region_of_point(self.TREE, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_labels_part_only_within_rounding_of_the_fuzz(self, n):
        rng = np.random.default_rng([17, n])
        tree = synthetic_tree(rng, n)
        scales = 10.0 ** rng.integers(-3, 4, size=(400, 1))
        generic = tree.center + rng.standard_normal((400, n)) * scales
        edge = fuzz_edge_points(rng, tree, 400)
        parted = 0
        for pts, may_part in [(generic, False), (edge, True)]:
            for p, got in zip(pts, locate_points(tree, pts).tolist()):
                label, coeffs, tol, _ = exact_walk(tree, p)
                if tuple(got) == label:
                    continue
                assert may_part, f"generic point {p.tolist()} parts"
                k = next(k for k in range(n) if got[k] != label[k])
                bound = 1e-15 * (1.0 + np.linalg.norm(tree.center) + np.linalg.norm(p))
                assert abs(float(coeffs[k] - tol)) <= bound
                parted += 1
        # at n = 1 the one rounding is p - center's, which is monotone, so it
        # can carry a coefficient onto a float fuzz but never past it; from
        # n = 2 the fuzz-edge points reach the parting case
        assert parted > 0 or n == 1


class TestSerialization:
    def test_round_trip_exact(self, asym_tree):
        doc = json.loads(json.dumps(serialize(asym_tree)))
        again = deserialize(doc)
        assert again == asym_tree

    def test_schema_field_checked(self, square_tree):
        doc = serialize(square_tree)
        doc["schema"] = "yaoyao-partition/v999"
        with pytest.raises(PartitionFormatError):
            deserialize(doc)
        doc["schema"] = "something-else"
        with pytest.raises(PartitionFormatError):
            deserialize(doc)

    def test_denormalized_axis_rejected(self, square_tree):
        doc = serialize(square_tree)
        doc["root"]["axis"] = [0.5, 0.0]
        with pytest.raises(PartitionFormatError):
            deserialize(doc)

    def test_missing_child_rejected(self, square_tree):
        doc = serialize(square_tree)
        doc["root"]["neg"] = None
        with pytest.raises(PartitionFormatError):
            deserialize(doc)

    def test_missing_key_rejected(self, square_tree):
        doc = serialize(square_tree)
        del doc["center"]
        with pytest.raises(PartitionFormatError):
            deserialize(doc)

    def test_meta_survives(self, asym_tree):
        doc = json.loads(json.dumps(serialize(asym_tree)))
        again = deserialize(doc)
        assert again.meta == asym_tree.meta
