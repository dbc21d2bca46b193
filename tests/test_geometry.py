"""Cone regions: coefficient solves, certificates, and the H-representation."""

import warnings

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
    region_halfspace_rep,
)


def region(apex, gens, signs):
    return ConeRegion(np.asarray(apex, float), np.asarray(gens, float), signs)


def column_walk(r, offsets):
    """Reference cone coefficients of an (m, n) table of offsets from the apex
    (overwritten): the generators taken out column by column, the formula the
    region functions used before they shared point location's kernel."""
    g = r.generators
    for i in range(r.dimension - 1):
        offsets[:, i + 1:] -= offsets[:, i, None] * g[i, i + 1:]
    return offsets * np.asarray(r.signs, dtype=float)


def hexes(a):
    return [x.hex() for x in np.ravel(a).tolist()]


IDENTITY_2D = region((0, 0), [(1, 0), (0, 1)], (1, 1))
SHEARED = region((1.5, 1.5), [(1, 0.5), (0, 1)], (1, 1))


class TestCoordinateSystem:
    def test_standard_round_trip(self):
        sys3 = CoordinateSystem.standard(3)
        p = np.array([1.0, -2.0, 0.25])
        assert np.array_equal(sys3.to_coordinates(p), p)
        assert np.array_equal(sys3.to_ambient(p), p)

    def test_round_trip_general(self):
        sys2 = CoordinateSystem(np.array([[2.0, 1.0], [0.5, -1.0]]), np.array([3.0, -1.0]))
        p = np.array([0.7, -2.3])
        back = sys2.to_ambient(sys2.to_coordinates(p))
        assert np.max(np.abs(back - p)) <= 1e-12 * (1 + np.max(np.abs(p)))

    def test_dual_basis_moves_one_coordinate(self):
        sys2 = CoordinateSystem(np.array([[2.0, 1.0], [0.5, -1.0]]), np.array([3.0, -1.0]))
        dual = sys2.dual_basis()
        assert np.allclose(sys2.matrix @ dual, np.eye(2))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            CoordinateSystem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))

    def test_ill_conditioned_rejected(self):
        m = np.array([[1.0, 0.0], [0.0, 1e-15]])
        with pytest.raises(ValueError):
            CoordinateSystem(m, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, bad):
        with pytest.raises(ValueError, match="offset must be finite"):
            CoordinateSystem(np.eye(2), np.array([0.0, bad]))

    @pytest.mark.parametrize("matrix, offset, message", [
        (np.ones((2, 3)), np.zeros(2), r"coordinate matrix must be square, got \(2, 3\)"),
        (np.ones(2), np.zeros(2), r"coordinate matrix must be square, got \(2,\)"),
        (np.eye(2), np.zeros(3), "offset length must match matrix dimension"),
    ])
    def test_shapes_rejected(self, matrix, offset, message):
        with pytest.raises(ValueError, match=message):
            CoordinateSystem(matrix, offset)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 3 * np.eye(n)
        if np.linalg.cond(m) > 1e6:
            return
        system = CoordinateSystem(m, rng.standard_normal(n))
        p = rng.standard_normal(n)
        back = system.to_ambient(system.to_coordinates(p))
        assert np.max(np.abs(back - p)) <= 1e-10 * (1 + np.max(np.abs(p)))


class TestSignSequence:
    """A region's sign word, as ConeRegion checks and stores it."""

    def test_validation(self):
        gens = [(1, 0.5, 0), (0, 1, 2), (0, 0, 1)]
        r = region((0, 0, 0), gens, np.array([1, -1, 1]))
        assert type(r.signs) is tuple and r.signs == (1, -1, 1)
        assert all(type(s) is int for s in r.signs)
        with pytest.raises(ValueError, match=r"signs must be \+-1"):
            region((0, 0), [(1, 0), (0, 1)], (1, 0))

    @pytest.mark.parametrize("signs", [(1.7, -1), (1, -1.2), (True, -1), (1, np.False_)])
    def test_non_unit_and_bool_signs_rejected(self, signs):
        # a sign is not truncated to an int, and a bool is not one
        with pytest.raises(ValueError, match=r"signs must be \+-1"):
            region((0, 0), [(1, 0), (0, 1)], signs)

    def test_numpy_and_float_unit_signs_accepted(self):
        r = region((0, 0), [(1, 0), (0, 1)], (np.int64(-1), 1.0))
        assert r.signs == (-1, 1) and all(type(s) is int for s in r.signs)

    def test_length_bounded_by_basis(self):
        for signs in [(1,), (1, 1, 1)]:
            with pytest.raises(ValueError, match="one sign per generator"):
                region((0, 0), [(1, 0), (0, 1)], signs)


class TestSubDiagonalBasis:
    """The unit sub-diagonal generators that a ConeRegion checks itself."""

    def test_exact_structure_enforced(self):
        with pytest.raises(ValueError, match="generator 1 must vanish before index 1"):
            region((0, 0), [(1.0, 0.0), (1e-17, 1.0)], (1, 1))
        with pytest.raises(ValueError, match="generator 1 must have unit entry at index 1"):
            region((0, 0), [(1.0, 0.0), (0.0, 1.0 + 1e-15)], (1, 1))

    def test_stored_bits(self):
        gens = np.array([[1.0, 0.3, -2.0], [0.0, 1.0, 7.5], [0.0, 0.0, 1.0]])
        r = region((0, 0, 0), gens, (1, -1, 1))
        assert r.generators.tobytes() == gens.tobytes()
        assert r.dimension == 3
        assert not r.generators.flags.writeable

    def test_more_generators_than_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"n x n array, got shape \(3, 2\)"):
            region((0, 0), [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)], (1, 1, 1))

    @pytest.mark.parametrize("k, n", [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    def test_fewer_generators_than_dimensions_rejected(self, k, n):
        # a region has exactly n generators: no cone with free directions
        gens = np.eye(n)[:k]
        with pytest.raises(ValueError, match=rf"n x n array, got shape \({k}, {n}\)"):
            region(np.zeros(n), gens, (1,) * k)

    @pytest.mark.parametrize("gens", [np.ones(2), np.ones((1, 1, 2))])
    def test_generators_must_be_a_table(self, gens):
        with pytest.raises(ValueError, match="n x n array"):
            ConeRegion(np.zeros(2), gens, (1,))

    def test_apex_must_match_the_dimension(self):
        with pytest.raises(ValueError, match="apex dimension"):
            region((0, 0, 0), [(1.0, 0.0), (0.0, 1.0)], (1, 1))

    @pytest.mark.parametrize("apex, gens, message", [
        ((0.0, np.nan), [(1.0, 0.0), (0.0, 1.0)], "apex and generators must be finite"),
        ((0.0, 0.0), [(1.0, np.inf), (0.0, 1.0)], "apex and generators must be finite"),
        ((0.0, 0.0), [(1.0, 0.5), (np.nan, 1.0)], "generator 1 must vanish before index 1"),
    ])
    def test_non_finite_numbers_rejected(self, apex, gens, message):
        # a region holding NaN or inf gives its certificate NaN products to compare
        with pytest.raises(ValueError, match=message):
            region(apex, gens, (1, 1))


class TestConeCoefficients:
    def test_identity_basis(self):
        assert np.array_equal(cone_coefficients(IDENTITY_2D, (2.0, 3.0)), (2.0, 3.0))

    def test_sign_flip(self):
        r = region((0, 0), [(1, 0), (0, 1)], (-1, 1))
        assert np.array_equal(cone_coefficients(r, (-2.0, 3.0)), (2.0, 3.0))

    def test_sheared_forward_substitution(self):
        # c1 = x - 1.5, c2 = (y - 1.5) - 0.5 (x - 1.5)
        assert np.allclose(cone_coefficients(SHEARED, (2.5, 3.0)), (1.0, 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone_coefficients(IDENTITY_2D, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("test", [cone_coefficients, cone_contains])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, test, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            test(IDENTITY_2D, (bad, 0.0))
        with pytest.raises(ValueError, match="points must be finite"):
            test(IDENTITY_2D, [(1.0, 1.0), (0.0, bad)])

    @pytest.mark.parametrize("test", [cone_coefficients, cone_contains])
    def test_more_than_two_dimensions_rejected(self, test):
        with pytest.raises(ValueError, match="one point or an \\(m, 2\\) batch"):
            test(IDENTITY_2D, np.zeros((2, 2, 2)))

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_left_inverse_of_synthesis(self, n, seed):
        rng = np.random.default_rng(seed)
        gens = np.triu(rng.standard_normal((n, n)), 1) + np.eye(n)
        signs = rng.choice([-1, 1], size=n)
        r = region(rng.standard_normal(n), gens, signs)
        c = np.abs(rng.standard_normal(n)) * 3
        p = r.apex + c @ r.signed_generators()
        got = cone_coefficients(r, p)
        assert np.max(np.abs(got - c)) <= 1e-12 * (1 + np.max(np.abs(c)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_region_functions_keep_the_bits_of_the_column_walk(self, n):
        # the region functions and point location share one kernel, so this is
        # the one check of their arithmetic against an independent formula; the
        # offsets a . apex take a strided row of the normals, which numpy's @
        # rounds otherwise than a contiguous one
        rng = np.random.default_rng([29, n])
        for _ in range(40):
            gens = np.triu(rng.standard_normal((n, n)), 1) + np.eye(n)
            apex_scale, point_scale = 10.0 ** rng.choice([-5, 0, 5], size=2)
            r = region(rng.standard_normal(n) * apex_scale, gens, rng.choice([-1, 1], size=n))
            pts = r.apex + rng.standard_normal((9, n)) * point_scale
            for x in (pts, np.asfortranarray(pts), pts[::2], pts[4]):
                batch = np.atleast_2d(x)
                want = column_walk(r, batch - r.apex)
                inside = np.all(want >= -membership_tolerance(r.apex, batch)[:, None], axis=1)
                if x.ndim == 1:
                    want, inside = want[0], inside[0]
                assert hexes(cone_coefficients(r, x)) == hexes(want)
                assert np.array_equal(cone_contains(r, x), inside)
            normals = column_walk(r, np.eye(n)).T + 0.0
            for h, a in zip(region_halfspace_rep(r), normals, strict=True):
                assert hexes(h.normal) == hexes(a)
                assert h.offset.hex() == float(a @ r.apex).hex()


class TestConeContains:
    def test_trivial_cases(self):
        assert cone_contains(IDENTITY_2D, (2.0, 3.0))
        assert not cone_contains(IDENTITY_2D, (-1.0, 0.0))

    def test_apex_is_member(self):
        assert cone_contains(SHEARED, (1.5, 1.5))


class TestMembershipTolerance:
    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar_formula(self, n, seed):
        rng = np.random.default_rng(seed)
        apex = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        pts = rng.standard_normal((50, n)) * 10.0 ** rng.integers(-6, 7, size=(50, 1))
        got = membership_tolerance(apex, pts)
        want = np.array([1e-9 * (1.0 + float(np.linalg.norm(apex)) + float(np.linalg.norm(p)))
                         for p in pts])
        assert got.shape == (50,)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("n", [*range(1, 21), 130])
    def test_bits_of_the_row_norm_formula(self, n):
        # the column sums must add in numpy's order for a C-contiguous row norm:
        # left to right below 8 terms, eight lanes up to 128, halves above
        rng = np.random.default_rng([5, n])
        apex = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7)
        pts = rng.standard_normal((400, n)) * 10.0 ** rng.integers(-6, 7, size=(400, 1))
        want = 1e-9 * (1.0 + np.linalg.norm(apex) + np.linalg.norm(pts, axis=1))
        got = membership_tolerance(apex, pts)
        assert got.tobytes() == want.tobytes()
        # the same bits whatever the memory layout of the batch
        for layout in (np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
            assert membership_tolerance(apex, layout).tobytes() == want.tobytes()

    def test_bits_of_the_retaken_rows(self):
        pts = np.array([[1.0, 2.0], [3e200, -4e200], [1e308, 1e308], [0.5, 2e154],
                        [1.5e308, -1.5e308]])
        for apex in [np.zeros(2), np.array([-3e300, 4e300])]:
            with np.errstate(over="ignore"):
                want = 1e-9 * (1.0 + np.linalg.norm(apex) + np.linalg.norm(pts, axis=1))
            big = np.isinf(want)
            a = np.linalg.norm(apex * 2.0**-600)
            r = np.linalg.norm(pts[big] * 2.0**-600, axis=1)
            want[big] = 1e-9 * 2.0**600 * (2.0**-600 + a + r)
            assert membership_tolerance(apex, pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("apex, points", [(np.zeros(3), np.ones((2, 2))),
                                              (np.zeros(2), np.zeros(2))])
    def test_an_apex_and_a_batch_of_other_shapes_rejected(self, apex, points):
        with pytest.raises(ValueError, match=r"expected \(m, n\) points, \(n,\) apex"):
            membership_tolerance(apex, points)

    def test_overflowing_squares_keep_a_finite_fuzz(self):
        # squares of coordinates above about 1e154 overflow a plain norm, and
        # the last row's norm is past the float range itself
        pts = np.array([[1.0, 2.0], [3e200, -4e200], [1e308, 1e308], [0.5, 2e154],
                        [1.5e308, -1.5e308]])
        fuzz = np.array([1e-9 * 5.0**0.5, 5e191, 1e-9 * 2.0**0.5 * 1e308, 2e145,
                         2.0**0.5 * 1.5e299])
        for apex, a in [(np.zeros(2), 0.0), (np.array([-3e300, 4e300]), 5e300)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = membership_tolerance(apex, pts)
                assert got[0] == membership_tolerance(apex, pts[:1])[0]
            assert np.allclose(got, 1e-9 * (1.0 + a) + fuzz, rtol=1e-15, atol=0.0)


class TestHalfspaceCertificate:
    def test_contains_sheared_region(self):
        h = HalfSpace(np.array([1.0, 0.0]), 1.0)  # x >= 1
        assert halfspace_contains_region(h, SHEARED)

    def test_flipped_generator_breaks_certificate(self):
        h = HalfSpace(np.array([1.0, 0.0]), 1.0)
        r = region((1.5, 1.5), [(1, 0.5), (0, 1)], (-1, 1))
        assert not halfspace_contains_region(h, r)

    def test_apex_outside_breaks_certificate(self):
        # both signed generators pass (products 1 and 0); the apex x = 1.5 does not
        h = HalfSpace(np.array([1.0, 0.0]), 2.0)  # x >= 2
        assert not halfspace_contains_region(h, SHEARED)

    def test_boundary_apex_closed(self):
        h = HalfSpace(np.array([1.0, 0.0]), 0.0)  # x >= 0, apex on boundary
        assert halfspace_contains_region(h, IDENTITY_2D)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="half-space and region dimensions differ"):
            halfspace_contains_region(HalfSpace(np.ones(3), 0.0), IDENTITY_2D)

    @pytest.mark.parametrize("normal, offset, part", [
        ([0.0, np.nan], 0.0, "normal"), ([np.inf, 1.0], 0.0, "normal"),
        ([1.0, -np.inf], 0.0, "normal"), ([1.0, 0.0], np.nan, "offset"),
        ([1.0, 0.0], np.inf, "offset"), ([1.0, 0.0], -np.inf, "offset"),
    ])
    def test_non_finite_halfspace_rejected(self, normal, offset, part):
        # a NaN offset used to certify the (+, +) region of the unit square
        with pytest.raises(ValueError, match=f"{part} must be finite"):
            HalfSpace(np.array(normal), offset)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            HalfSpace(np.zeros(3), 0.0)

    @pytest.mark.parametrize("normal", [np.ones((2, 2)), np.float64(1.0)])
    def test_normal_must_be_a_vector(self, normal):
        with pytest.raises(ValueError, match="half-space normal must be a vector"):
            HalfSpace(normal, 0.0)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_certificate_soundness(self, n, seed):
        """A certified half-space holds every sampled member of the region."""
        rng = np.random.default_rng(seed)
        gens = np.triu(rng.standard_normal((n, n)), 1) + np.eye(n)
        signs = rng.choice([-1, 1], size=n)
        r = region(rng.standard_normal(n), gens, signs)
        a = rng.standard_normal(n)
        h = HalfSpace(a, float(a @ r.apex) - abs(rng.standard_normal()))
        if not halfspace_contains_region(h, r):
            return
        c = np.abs(rng.standard_normal((10_000, n))) * 5
        members = r.apex + c @ r.signed_generators()
        scale = 1e-12 * (1 + np.max(np.abs(members)))
        assert np.all(h.value(members) >= -scale)


class TestHalfspaceRep:
    def test_identity_cone(self):
        halves = region_halfspace_rep(IDENTITY_2D)
        assert np.array_equal(halves[0].normal, (1.0, 0.0)) and halves[0].offset == 0.0
        assert np.array_equal(halves[1].normal, (0.0, 1.0)) and halves[1].offset == 0.0

    def test_sheared_plus_plus(self):
        halves = region_halfspace_rep(SHEARED)
        assert np.array_equal(halves[0].normal, (1.0, 0.0)) and halves[0].offset == 1.5
        assert np.allclose(halves[1].normal, (-0.5, 1.0)) and halves[1].offset == 0.75

    def test_sheared_minus_plus(self):
        # first coefficient flips: -x >= -1.5; the second facet stays y - x/2 >= 3/4
        r = region((1.5, 1.5), [(1, 0.5), (0, 1)], (-1, 1))
        halves = region_halfspace_rep(r)
        assert np.array_equal(halves[0].normal, (-1.0, 0.0)) and halves[0].offset == -1.5
        assert np.allclose(halves[1].normal, (-0.5, 1.0)) and halves[1].offset == 0.75
        inner = r.apex + np.array([1.0, 1.0]) @ r.signed_generators()
        assert halves[0].value(inner) >= 0 and halves[1].value(inner) >= 0

    def test_normal_k_spans_first_k_coordinates(self):
        rng = np.random.default_rng(0)
        n = 4
        gens = np.triu(rng.standard_normal((n, n)), 1) + np.eye(n)
        r = region(rng.standard_normal(n), gens, rng.choice([-1, 1], size=n))
        for k, h in enumerate(region_halfspace_rep(r)):
            assert np.all(h.normal[k + 1:] == 0.0)
            assert h.normal[k] == r.signs[k]

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hrep_vrep_agreement(self, n, seed):
        """Both representations classify random points identically off facets."""
        rng = np.random.default_rng(seed)
        gens = np.triu(rng.standard_normal((n, n)), 1) + np.eye(n)
        r = region(rng.standard_normal(n), gens, rng.choice([-1, 1], size=n))
        pts = r.apex + rng.standard_normal((2000, n)) * 3
        halves = region_halfspace_rep(r)
        assert len(halves) == r.dimension
        coeffs = cone_coefficients(r, pts)
        v_in = np.all(coeffs >= 0, axis=1)
        h_vals = np.array([h.value(pts) for h in halves]).T
        h_in = np.all(h_vals >= 0, axis=1)
        margin = np.minimum(np.min(np.abs(coeffs), axis=1), np.min(np.abs(h_vals), axis=1))
        off_facets = margin > 1e-9 * (1 + np.max(np.abs(pts)))
        assert np.array_equal(v_in[off_facets], h_in[off_facets])
