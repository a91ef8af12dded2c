"""Heisenberg group arithmetic.

The group is R^2 x R with multiplication twisted by the standard symplectic
form on the plane:

    (v1, z1) * (v2, z2) = (v1 + v2, z1 + z2 + omega(v1, v2) / 2)

Everything here is plain double precision. Scalar operations work on
GroupElement values; the *_array helpers are the vectorized forms used by the
path and simulation modules.
"""

from dataclasses import dataclass

import numpy as np


def omega(u, w):
    """Standard symplectic form x1*y2 - x2*y1 on the plane.

    Accepts length-2 sequences or arrays with a trailing axis of size 2 and
    broadcasts like a ufunc.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return u[..., 0] * w[..., 1] - w[..., 0] * u[..., 1]


@dataclass(frozen=True)
class GroupElement:
    """Point (x, y, z) of the group; (x, y) is the planar part."""

    x: float
    y: float
    z: float

    @property
    def planar(self):
        return np.array([self.x, self.y])

    def as_array(self):
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class AlgebraElement:
    """Lie algebra element (a1, a2, c); c is the vertical component."""

    a1: float
    a2: float
    c: float


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector (v1, v2, v3) attached to a base point."""

    v1: float
    v2: float
    v3: float
    base: GroupElement


IDENTITY = GroupElement(0.0, 0.0, 0.0)


def group_mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    cross = 0.5 * (g1.x * g2.y - g2.x * g1.y)
    return GroupElement(g1.x + g2.x, g1.y + g2.y, g1.z + g2.z + cross)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.x, -g.y, -g.z)


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Lie bracket; planar components always vanish (step-2 nilpotency)."""
    return AlgebraElement(0.0, 0.0, a.a1 * b.a2 - b.a1 * a.a2)


def left_diff(k: GroupElement, v: TangentVector) -> TangentVector:
    """Differential of g -> k^{-1} g applied to v.

    The vertical component picks up omega(v_planar, k_planar)/2; the new base
    point is k^{-1} * base.
    """
    w3 = v.v3 + 0.5 * (v.v1 * k.y - k.x * v.v2)
    return TangentVector(v.v1, v.v2, w3, group_mul(inverse(k), v.base))


def right_diff(k: GroupElement, v: TangentVector) -> TangentVector:
    """Differential of g -> g k applied to v; same vertical formula as
    left_diff, but the base point moves to base * k."""
    w3 = v.v3 + 0.5 * (v.v1 * k.y - k.x * v.v2)
    return TangentVector(v.v1, v.v2, w3, group_mul(v.base, k))


def homogeneous_norm(g: GroupElement) -> float:
    """(|planar|^4 + z^2)^(1/4); homogeneous of degree 1 under dilations."""
    sq = g.x * g.x + g.y * g.y
    return (sq * sq + g.z * g.z) ** 0.25


def group_distance(g1: GroupElement, g2: GroupElement) -> float:
    """Left-invariant quotient distance |g1^{-1} g2|."""
    return homogeneous_norm(group_mul(inverse(g1), g2))


def coordinate_distance(g1: GroupElement, g2: GroupElement) -> float:
    """Coordinate form carrying the symplectic cross term with coefficient 1.

    The quotient form group_distance carries omega/2 in its vertical slot;
    this variant keeps the full omega(x1, x2). The two agree when either
    planar part vanishes. They are compared empirically on bounded random
    pairs in the tests, and are deliberately not assumed equivalent.
    """
    dx = g1.x - g2.x
    dy = g1.y - g2.y
    planar_sq = dx * dx + dy * dy
    vert = g1.z - g2.z + (g1.x * g2.y - g2.x * g1.y)
    return (planar_sq * planar_sq + vert * vert) ** 0.25


def dilate(lam: float, g: GroupElement) -> GroupElement:
    """Anisotropic dilation (lam x, lam y, lam^2 z); lam must be positive."""
    if lam <= 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return GroupElement(lam * g.x, lam * g.y, lam * lam * g.z)


# Vectorized kernels. planar arrays have shape (..., 2), z arrays (...).


def mul_array(planar_a, z_a, planar_b, z_b):
    """Pointwise group product of two batches of elements."""
    return planar_a + planar_b, z_a + z_b + 0.5 * omega(planar_a, planar_b)


def quotient_z_array(planar_a, z_a, planar_b, z_b):
    """Vertical component of a^{-1} b, pointwise."""
    return z_b - z_a - 0.5 * omega(planar_a, planar_b)


def sq_norm(v):
    """Squared length over the trailing planar axis of size 2.

    The two products and one sum round exactly as np.sum(v * v, axis=-1)
    does, so the results are bitwise equal, at a fraction of the cost.
    """
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]


def homogeneous_norm_array(planar, z):
    sq = sq_norm(planar)
    return (sq * sq + z * z) ** 0.25


def group_distance_array(planar_a, z_a, planar_b, z_b):
    """|a^{-1} b| pointwise over batches of elements."""
    dv = planar_b - planar_a
    dz = quotient_z_array(planar_a, z_a, planar_b, z_b)
    sq = sq_norm(dv)
    return (sq * sq + dz * dz) ** 0.25
