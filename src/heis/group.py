"""Heisenberg group arithmetic.

The group is R^2 x R with multiplication twisted by the standard symplectic
form on the plane:

    (v1, z1) * (v2, z2) = (v1 + v2, z1 + z2 + omega(v1, v2) / 2)

Everything here is plain double precision. Scalar operations work on
GroupElement values; the *_array helpers are the vectorized forms used by the
path and simulation modules. The blocked kernels (_area_into here, and those
of heis.sde and heis.girsanov built on it) take their scratch from one
per-process pool, _scratch, so a trial worker reuses the same pages chunk
after chunk instead of mapping fresh temporaries for each.
"""

import math
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


# Elements of one block of the blocked kernels (_area_into, the Ito sums of
# heis.girsanov, the dds clock): 512 KB of float64 (one row for longer
# paths), so a batch takes its output plus pooled scratch, not whole-batch
# temporaries. Every kernel reads it from this module when it runs.
_AREA_BLOCK = 1 << 16

# The blocked kernels' scratch, one buffer per slot, grown on demand and kept.
# Like rng._POOL, each process that runs a kernel (the caller, or a forked
# worker with its own copy) has its own, so chunk after chunk reuses the same
# pages instead of mapping fresh ones. Slot _LEAF serves code that calls no
# pooled kernel while it holds its view (_area_into, the Ito sums); slot
# _HELD serves a caller that holds a block across such a call (the levy-law
# increments, the dds clock). Views of one slot alias, views of different
# slots never do.
_SCRATCH = [np.empty(0), np.empty(0)]
_LEAF, _HELD = 0, 1


def _scratch(slot: int, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array over pooled scratch slot.

    It stays valid until the next _scratch call for the same slot in the
    same process, which may hand out the same memory.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if _SCRATCH[slot].nbytes < size:
        _SCRATCH[slot] = np.empty(-(-size // 8))
    return _SCRATCH[slot].view(np.uint8)[:size].view(dtype).reshape(shape)


def _area_into(planar: np.ndarray, out: np.ndarray) -> None:
    """Write omega(B_k, dB_k)/2 of planar, shape (m, n+1, 2), into out, (m, n).

    The left-point area increments of piecewise-linear planar paths, the one
    implementation behind the Brownian Levy area and the horizontal lift.
    Works through blocks of whole rows, as many as fit in _AREA_BLOCK
    elements and at least one: dy goes into out, dx into pooled scratch
    (slot _LEAF), and x dy - dx y and the halving happen in place. These are
    the operations of 0.5 * omega(B[:-1], diff(B)) in the same order, so
    every value is bitwise the same. out may be any float64 view, such as the
    real part of a complex array.
    """
    m, n = out.shape
    if m == 0 or n == 0:
        return
    rows = max(1, _AREA_BLOCK // n)
    scratch = _scratch(_LEAF, (min(rows, m), n))
    for r in range(0, m, rows):
        p = planar[r:r + rows]
        o = out[r:r + rows]
        dx = scratch[:o.shape[0]]
        x, y = p[:, :-1, 0], p[:, :-1, 1]
        np.subtract(p[:, 1:, 1], y, out=o)
        np.subtract(p[:, 1:, 0], x, out=dx)
        np.multiply(x, o, out=o)
        np.multiply(dx, y, out=dx)
        np.subtract(o, dx, out=o)
        np.multiply(o, 0.5, out=o)


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
