"""Group arithmetic: algebraic laws, norms, distances, differentials."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heis.group import (
    IDENTITY,
    AlgebraElement,
    GroupElement,
    TangentVector,
    bracket,
    coordinate_distance,
    dilate,
    group_distance,
    group_distance_array,
    group_mul,
    homogeneous_norm,
    homogeneous_norm_array,
    inverse,
    left_diff,
    mul_array,
    omega,
    quotient_array,
    right_diff,
    sq_norm,
)

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
elements = st.builds(GroupElement, coord, coord, coord)


def test_product_example():
    g = group_mul(GroupElement(1, 0, 0), GroupElement(0, 1, 0))
    assert g == GroupElement(1.0, 1.0, 0.5)


def test_omega_forms():
    assert omega([1, 0], [0, 1]) == 1.0
    assert omega([0, 1], [1, 0]) == -1.0
    a = np.random.default_rng(0).normal(size=(7, 2))
    np.testing.assert_array_equal(omega(a, a), np.zeros(7))


@given(elements)
def test_identity_and_inverse(g):
    assert group_mul(g, IDENTITY) == g
    assert group_mul(IDENTITY, g) == g
    gi = group_mul(inverse(g), g)
    assert gi.x == 0.0 and gi.y == 0.0
    assert abs(gi.z) < 1e-12


@given(elements, elements, elements)
@settings(max_examples=200)
def test_associativity(g, h, k):
    left = group_mul(group_mul(g, h), k)
    right = group_mul(g, group_mul(h, k))
    assert math.isclose(left.z, right.z, abs_tol=1e-12)
    assert math.isclose(left.x, right.x, abs_tol=1e-12)
    assert math.isclose(left.y, right.y, abs_tol=1e-12)


@given(elements, elements, elements)
@settings(max_examples=200)
@example(GroupElement(0.0, 0.0, 1.0), GroupElement(0.0, 0.0, 0.0), GroupElement(0.0, 0.0, 1e-15))
def test_distance_left_invariance(k, g, h):
    """d(kg, kh) = d(g, h) because (kg)^{-1}(kh) = g^{-1}h; compare those
    increments. Rounding moves them apart by at most 8 u M in the plane and
    34 u (1 + M)^2 vertically, to first order in the unit roundoff u, where
    M is the largest input coordinate (derivation in CHANGES.md); the test
    allows 10 u (1 + M) and 40 u (1 + M)^2. The distance, a fourth root,
    magnifies that near a vertical gap: at the pinned example the
    increments differ by 1.1e-16 but the distances by 1.7e-9."""
    u = 2.0 ** -53
    m = max(abs(c) for e in (k, g, h) for c in (e.x, e.y, e.z))
    a = group_mul(inverse(g), h)
    b = group_mul(inverse(group_mul(k, g)), group_mul(k, h))
    assert abs(a.x - b.x) <= 10 * u * (1 + m) and abs(a.y - b.y) <= 10 * u * (1 + m)
    assert abs(a.z - b.z) <= 40 * u * (1 + m) ** 2


@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(np.array([[0.0, -0.0], [-0.0, -0.0], [5e-324, -2.2e-308], [np.inf, -np.inf],
                   [np.nan, 1.0], [-np.inf, np.nan], [1.3e154, 1.4e154]]))
def test_sq_norm_is_bitwise_the_planar_sum(v):
    with np.errstate(all="ignore"):
        expected = np.sum(v * v, axis=-1)
        got = sq_norm(v)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@given(elements, st.floats(min_value=0.05, max_value=20.0))
def test_dilation_homogeneity(g, lam):
    assert math.isclose(
        homogeneous_norm(dilate(lam, g)), lam * homogeneous_norm(g),
        rel_tol=1e-13, abs_tol=1e-13,
    )


@pytest.mark.parametrize("lam", [0.0, -1.0, -0.25])
def test_dilation_rejects_nonpositive(lam):
    with pytest.raises(ValueError):
        dilate(lam, GroupElement(1, 1, 1))


def test_dilation_is_automorphism():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = (GroupElement(*rng.uniform(-3, 3, 3)) for _ in range(2))
        lam = float(rng.uniform(0.1, 4.0))
        lhs = dilate(lam, group_mul(a, b))
        rhs = group_mul(dilate(lam, a), dilate(lam, b))
        assert np.allclose(lhs.as_array(), rhs.as_array(), atol=1e-12)


def test_bracket_is_central_symplectic():
    a = AlgebraElement(1.0, 0.0, 3.0)
    b = AlgebraElement(0.0, 1.0, -7.0)
    c = bracket(a, b)
    assert (c.a1, c.a2, c.c) == (0.0, 0.0, 1.0)
    assert bracket(b, a).c == -1.0
    # vertical directions are central
    assert bracket(AlgebraElement(0, 0, 5), a).c == 0.0


def test_norm_symmetry_and_zero():
    assert homogeneous_norm(IDENTITY) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = GroupElement(*rng.uniform(-4, 4, 3))
        assert homogeneous_norm(inverse(g)) == homogeneous_norm(g)


def test_norm_quasi_triangle_constant():
    """|g h| <= C (|g| + |h|) holds empirically with C well below 4."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100000):
        g = GroupElement(*rng.uniform(-5, 5, 3))
        h = GroupElement(*rng.uniform(-5, 5, 3))
        denom = homogeneous_norm(g) + homogeneous_norm(h)
        worst = max(worst, homogeneous_norm(group_mul(g, h)) / denom)
    assert worst <= 4.0


def test_coordinate_distance_agrees_when_a_side_vanishes():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = GroupElement(0.0, 0.0, float(rng.uniform(-2, 2)))
        h = GroupElement(*rng.uniform(-2, 2, 3))
        assert math.isclose(coordinate_distance(g, h), group_distance(g, h),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_coordinate_distance_ratio_bounded_on_moderate_pairs():
    """The two distance forms stay within a fixed ratio band on a bounded
    sample; no global equivalence is claimed."""
    rng = np.random.default_rng(23)
    ratios = []
    for _ in range(20000):
        g = GroupElement(*rng.uniform(-2, 2, 3))
        h = GroupElement(*rng.uniform(-2, 2, 3))
        d = group_distance(g, h)
        if d < 1e-6:
            continue
        ratios.append(coordinate_distance(g, h) / d)
    lo, hi = min(ratios), max(ratios)
    assert 0.2 < lo <= hi < 5.0


def test_left_diff_example():
    """Translating the vertical-twist frame: at k = (1,0,0), the second
    coordinate field picks up vertical component -1/2 and the base moves to
    k^{-1}."""
    v = TangentVector(0.0, 1.0, 0.0, IDENTITY)
    w = left_diff(GroupElement(1.0, 0.0, 0.0), v)
    assert (w.v1, w.v2, w.v3) == (0.0, 1.0, -0.5)
    assert w.base == GroupElement(-1.0, 0.0, 0.0)


def test_right_diff_moves_base_forward():
    v = TangentVector(1.0, 0.0, 0.0, IDENTITY)
    k = GroupElement(0.0, -1.0, 0.0)
    w = right_diff(k, v)
    assert (w.v1, w.v2, w.v3) == (1.0, 0.0, -0.5)
    assert w.base == GroupElement(0.0, -1.0, 0.0)


def test_left_diff_intertwines_multiplication():
    """Pushing a curve's velocity through g -> k^{-1} g matches the finite
    difference of the translated curve."""
    rng = np.random.default_rng(29)
    for _ in range(50):
        k = GroupElement(*rng.uniform(-2, 2, 3))
        g = GroupElement(*rng.uniform(-2, 2, 3))
        v = rng.uniform(-1, 1, 3)
        eps = 1e-6
        # curve through g with velocity v (coordinate straight line)
        def curve(t):
            return GroupElement(g.x + t * v[0], g.y + t * v[1], g.z + t * v[2])
        moved0 = group_mul(inverse(k), curve(0.0)).as_array()
        moved1 = group_mul(inverse(k), curve(eps)).as_array()
        fd = (moved1 - moved0) / eps
        w = left_diff(k, TangentVector(v[0], v[1], v[2], g))
        assert np.allclose(fd, [w.v1, w.v2, w.v3], atol=1e-5)


def test_array_kernels_match_scalar_ops():
    rng = np.random.default_rng(41)
    pa, pb = rng.normal(size=(2, 64, 2))
    za, zb = rng.normal(size=(2, 64))
    mp, mz = mul_array(pa, za, pb, zb)
    qp, qz = quotient_array(pa, za, pb, zb)
    dist = group_distance_array(pa, za, pb, zb)
    norm = homogeneous_norm_array(pa, za)
    for i in range(0, 64, 7):
        a = GroupElement(pa[i, 0], pa[i, 1], za[i])
        b = GroupElement(pb[i, 0], pb[i, 1], zb[i])
        m = group_mul(a, b)
        assert m.x == mp[i, 0] and m.y == mp[i, 1] and m.z == mz[i]
        q = group_mul(inverse(a), b)
        assert q.x == qp[i, 0] and q.y == qp[i, 1] and q.z == qz[i]
        assert math.isclose(dist[i], group_distance(a, b), rel_tol=1e-15)
        assert math.isclose(norm[i], homogeneous_norm(a), rel_tol=1e-15)
