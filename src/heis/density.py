"""Helix approximants and explicit horizontal joins.

A linear curve xi(t) = (a1 t, a2 t, a3 t) with a3 != 0 is not horizontal, yet
it is a uniform limit of horizontal curves: a planar spiral of amplitude
O(1/n) and frequency n^2 a3 pumps vertical displacement at exactly the rate
a3 while its planar footprint shrinks. Two anchorings are provided:

  - "verbatim": the classical display ((2/n)cos(n^2 a3 s), (1/n)sin(n^2 a3 s))
    plus the linear drift; it starts at (2/n, 0, 0), not at the identity.
  - "identity": the cosine is phase-shifted so the curve starts at e; this is
    the variant used by the path-space constructions, which require curves
    anchored at the identity.

Both variants are exactly horizontal: the vertical component is the closed
form antiderivative of omega(x, x')/2.

cc_upper_bound realizes an admissible curve from e to any g: a straight
segment to the planar part (its lift is flat), then a planar loop whose
enclosed signed area equals the remaining vertical gap.
"""

import math
from dataclasses import dataclass

import numpy as np

from .girsanov import ReferenceCurve
from .group import GroupElement, area_increments, group_distance_array, sq_norm
from .paths import AnalyticBundle, HorizontalCurve, SampledPath, TimeGrid, horizontal_lift, path_distance
from .results import ResultTable

_VARIANTS = ("identity", "verbatim")


@dataclass(frozen=True)
class HelixSpec:
    """Helix index against the linear target (a1 t, a2 t, a3 t)."""

    a1: float
    a2: float
    a3: float
    n: int
    variant: str = "identity"

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")


def _next_pow2(m: int) -> int:
    return 1 << max(0, (int(m) - 1)).bit_length()


def helix_grid_steps(spec: HelixSpec) -> int:
    """Grid resolving the n^2 a3 oscillation: >= 64 n^2 per unit frequency."""
    return _next_pow2(max(2 ** 14, 64 * spec.n ** 2 * max(1, math.ceil(abs(spec.a3)))))


def _helix_functions(a1, a2, a3, big_r, small_r, nu):
    """Closed forms for the spiral-plus-drift planar curve and its lift.

    x(s) = (a1 s + R (cos(nu s) - 1), a2 s + r sin(nu s)) and z is the
    elementary antiderivative of omega(x, x')/2.
    """

    def x_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        return np.stack([a1 * t + big_r * (np.cos(th) - 1.0),
                         a2 * t + small_r * np.sin(th)], axis=-1)

    def dx_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        return np.stack([a1 - big_r * nu * np.sin(th),
                         a2 + small_r * nu * np.cos(th)], axis=-1)

    def z_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        c, s = np.cos(th), np.sin(th)
        term1 = 0.5 * a1 * small_r * (t * s + 2.0 * (c - 1.0) / nu)
        term2 = 0.5 * a2 * big_r * (2.0 * s / nu - t * c - t)
        term3 = 0.5 * big_r * small_r * (nu * t - s)
        return term1 + term2 + term3

    def dz_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        c, s = np.cos(th), np.sin(th)
        return 0.5 * (nu * t * (a1 * small_r * c + a2 * big_r * s)
                      + a2 * big_r * (c - 1.0) - a1 * small_r * s
                      + big_r * small_r * nu * (1.0 - c))

    return x_fn, dx_fn, z_fn, dz_fn


def _verbatim_functions(a1, a2, a3, n):
    """The classical displayed helix; starts at (2/n, 0), z(0) = 0."""
    nu = n * n * a3

    def x_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        return np.stack([a1 * t + (2.0 / n) * np.cos(th),
                         a2 * t + (1.0 / n) * np.sin(th)], axis=-1)

    def dx_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        return np.stack([a1 - (2.0 * nu / n) * np.sin(th),
                         a2 + (nu / n) * np.cos(th)], axis=-1)

    def z_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        c, s = np.cos(th), np.sin(th)
        return (a3 * t - (a2 / n) * t * c + (a1 / (2.0 * n)) * t * s
                + (a1 / (n * nu)) * (c - 1.0) + (2.0 * a2 / (n * nu)) * s)

    def dz_fn(t):
        t = np.asarray(t, float)
        th = nu * t
        c, s = np.cos(th), np.sin(th)
        return (a3 + (a2 / n) * c - (a1 / (2.0 * n)) * s
                + n * a3 * t * (a2 * s + 0.5 * a1 * c))

    return x_fn, dx_fn, z_fn, dz_fn


def helix_linear(spec: HelixSpec, n_steps: int = 0) -> HorizontalCurve:
    """Helix of index n against the linear target (a1 t, a2 t, a3 t).

    a3 = 0 short-circuits to the straight horizontal lift of (a1 t, a2 t),
    that of ReferenceCurve.line.
    """
    grid = TimeGrid.uniform(n_steps or helix_grid_steps(spec))
    if spec.a3 == 0.0:
        return ReferenceCurve.line(spec.a1, spec.a2).lift(grid)
    if spec.variant == "identity":
        nu = spec.n ** 2 * spec.a3
        fns = _helix_functions(spec.a1, spec.a2, spec.a3, 2.0 / spec.n, 1.0 / spec.n, nu)
        return horizontal_lift(fns[0], grid, dx_fn=fns[1], z_fn=fns[2], dz_fn=fns[3])
    x_fn, dx_fn, z_fn, dz_fn = _verbatim_functions(spec.a1, spec.a2, spec.a3, spec.n)
    return HorizontalCurve(grid, x_fn(grid.times), z_fn(grid.times),
                           AnalyticBundle(x_fn, dx_fn, z_fn, dz_fn))


def linear_target_nodes(spec: HelixSpec, times: np.ndarray):
    """Node arrays of the target xi(t) = (a1 t, a2 t, a3 t)."""
    times = np.asarray(times, float)
    planar = np.stack([spec.a1 * times, spec.a2 * times], axis=-1)
    return planar, spec.a3 * times


def verbatim_quotient_nodes(spec: HelixSpec, times: np.ndarray):
    """Closed form of phi_n(s)^{-1} xi(s) for the verbatim variant.

    Planar part (-(2/n)cos(nu s), -(1/n)sin(nu s)); vertical part
    (1/n) int_0^s (a1 sin(nu u) - 2 a2 cos(nu u)) du, integrated exactly.
    """
    if spec.a3 == 0.0:
        raise ValueError("quotient display requires a3 != 0")
    times = np.asarray(times, float)
    n = spec.n
    nu = n * n * spec.a3
    th = nu * times
    planar = np.stack([-(2.0 / n) * np.cos(th), -(1.0 / n) * np.sin(th)], axis=-1)
    z = (spec.a1 * (1.0 - np.cos(th)) - 2.0 * spec.a2 * np.sin(th)) / (n * nu)
    return planar, z


def helix_distance(spec: HelixSpec, n_steps: int = 0) -> float:
    """Uniform group distance between the helix and its linear target."""
    curve = helix_linear(spec, n_steps)
    tp, tz = linear_target_nodes(spec, curve.grid.times)
    return float(np.max(group_distance_array(curve.planar, curve.lifted_z, tp, tz)))


def helix_convergence(ns, a1=0.0, a2=0.0, a3=1.0, variant="identity",
                      refine: int = 4) -> ResultTable:
    """Distance-to-target table over an index ladder, with a fitted constant.

    The fitted constant is max(n * d_n), the least C with d_n <= C / n on the
    ladder. The same constant recomputed on a `refine`-times finer grid is
    reported in the metadata so rate claims can be checked for grid artifacts.
    """
    if refine < 2:
        raise ValueError(f"refine must be at least 2 (1 recomputes the same grid), got {refine}")
    rows = []
    scaled = []
    scaled_fine = []
    for n in ns:
        spec = HelixSpec(a1, a2, a3, int(n), variant)
        steps = helix_grid_steps(spec)
        d = helix_distance(spec, steps)
        d_fine = helix_distance(spec, steps * int(refine))
        rows.append((int(n), steps, d, n * d))
        scaled.append(n * d)
        scaled_fine.append(n * d_fine)
    return ResultTable(
        ["n", "grid_steps", "distance", "n_times_distance"],
        rows,
        {
            "experiment": "helix",
            "target": (a1, a2, a3),
            "variant": variant,
            "fitted_C": max(scaled),
            "fitted_C_refined": max(scaled_fine),
        },
    )


@dataclass(frozen=True)
class ApproximationResult:
    curve: HorizontalCurve
    distance: float
    n: int
    segments: int


def _segment_helix_nodes(a1, a2, a3, n, u):
    """Identity-anchored helix nodes over local time u in [0, 1].

    The frequency is snapped to a whole number of turns so the planar
    endpoint is exactly (a1, a2); the amplitude is rescaled so the vertical
    production is exactly a3 up to the drift term of size O(|a2| / n).
    """
    if a3 == 0.0:
        planar = np.stack([a1 * u, a2 * u], axis=-1)
        return planar, np.zeros_like(u)
    turns = max(1, round(n * n * abs(a3) / (2.0 * math.pi)))
    nu = math.copysign(2.0 * math.pi * turns, a3)
    beta = math.sqrt(n * n * abs(a3) / (2.0 * math.pi * turns))
    fns = _helix_functions(a1, a2, a3, 2.0 * beta / n, beta / n, nu)
    return fns[0](u), fns[2](u)


def approximate_path(target: SampledPath, n: int, segments: int) -> ApproximationResult:
    """Horizontal approximant of a continuous path from e.

    The target is replaced by its piecewise-linear interpolant on `segments`
    pieces; each piece's group increment (d1, d2, d3) is matched by an
    identity-anchored helix of index n, and pieces are chained by left
    translation, so the result is one horizontal curve from e. Returns the
    curve together with the achieved uniform group distance to the target.
    """
    if target.interpolation != "linear":
        raise ValueError("target must be a piecewise-linear sample")
    if segments < 1:
        raise ValueError("segments must be positive")
    knots = target.resample(np.linspace(0.0, 1.0, segments + 1))
    tp, tz = knots.planar, knots.z
    dv = np.diff(tp, axis=0)
    # group increment of the interpolant: a3 is the vertical gap left over
    # after the chord's own lift
    d3 = np.diff(tz) - area_increments(tp)
    max_turns = max(1, round(n * n * float(np.max(np.abs(d3))) / (2.0 * math.pi)))
    sub = _next_pow2(max(256, 64 * max_turns))
    u = np.linspace(0.0, 1.0, sub + 1)

    total = segments * sub
    planar = np.empty((total + 1, 2))
    planar[0] = 0.0
    for j in range(segments):
        xp, _ = _segment_helix_nodes(dv[j, 0], dv[j, 1], float(d3[j]), n, u)
        # left translation only shifts the planar part; the final lift from
        # the chained planar nodes is then exact piece by piece
        planar[j * sub + 1:(j + 1) * sub + 1] = planar[j * sub] + xp[1:]
    grid = TimeGrid.uniform(total)
    curve = horizontal_lift(planar, grid)
    dist = path_distance(curve.sample(), target.resample(grid.times))
    return ApproximationResult(curve, dist, int(n), int(segments))


def cc_upper_bound(g: GroupElement) -> float:
    """Length of an explicit admissible join e -> g.

    Straight segment to the planar part (lift stays at z = 0), then a planar
    circle enclosing signed area g.z: length |x| + 2 sqrt(pi |z|).
    """
    return math.hypot(g.x, g.y) + 2.0 * math.sqrt(math.pi * abs(g.z))


def cc_join_curve(g: GroupElement, arc_nodes: int = 256) -> HorizontalCurve:
    """Constant-speed horizontal curve realizing the cc_upper_bound join.

    The area loop is an arc_nodes-gon whose radius is chosen so the polygon
    area equals |g.z| exactly, hence the endpoint matches g to roundoff. Time
    is allocated proportionally to chord length, so length^2 equals the
    Dirichlet energy exactly (Cauchy-Schwarz equality at constant speed).
    """
    pieces = [np.zeros((1, 2))]
    xy = np.array([g.x, g.y])
    if g.x != 0.0 or g.y != 0.0:
        pieces.append(xy[None, :])
    if g.z != 0.0:
        m = int(arc_nodes)
        if m < 3:
            raise ValueError("arc_nodes must be at least 3")
        radius = math.sqrt(2.0 * abs(g.z) / (m * math.sin(2.0 * math.pi / m)))
        angles = math.copysign(2.0 * math.pi, g.z) * np.arange(1, m + 1) / m
        loop = xy + radius * np.stack([np.cos(angles) - 1.0, np.sin(angles)], axis=-1)
        loop[-1] = xy  # closes exactly
        pieces.append(loop)
    nodes = np.concatenate(pieces, axis=0)
    if nodes.shape[0] == 1:
        nodes = np.zeros((2, 2))
    chords = np.sqrt(sq_norm(np.diff(nodes, axis=0)))
    total = float(np.sum(chords))
    if total == 0.0:
        times = np.array([0.0, 1.0])
    else:
        times = np.concatenate([[0.0], np.cumsum(chords / total)])
        times[-1] = 1.0
    return horizontal_lift(nodes, TimeGrid(times))


def pl_length(curve: HorizontalCurve) -> float:
    """Planar arc length of the piecewise-linear node representation."""
    return float(np.sum(np.sqrt(sq_norm(np.diff(curve.planar, axis=0)))))
