"""Paths with values in the group: distance, horizontality, lifts.

Paths are stored at grid nodes with a declared interpolation class.
SampledPath is the generic container (piecewise-linear or node-only);
HorizontalCurve carries planar nodes and a lifted vertical component, and may
carry an analytic backend (vectorized callables) when the curve has
closed-form pieces.

Horizontality means z'(t) = omega(x(t), x'(t)) / 2 along the curve. For a
piecewise-linear planar path the lift has the exact per-interval increment
omega(x_i, dx_i) / 2, because omega(dx, dx) = 0 on each linear piece.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .group import (AlgebraElement, GroupElement, area_increments, group_distance_array, levy_area, mul_array,
                    omega, sq_norm)


class GridMismatchError(ValueError):
    """Two paths were combined on different time grids."""


class NotDifferentiableError(ValueError):
    """A derivative was requested from a node-only representation."""


class NotHorizontalError(ValueError):
    """An operation restricted to horizontal curves got a non-horizontal one."""


# Defect above this is treated as genuinely non-horizontal (construction
# roundoff sits near 1e-13, real violations are O(1)).
HORIZONTAL_DEFECT_TOL = 1e-8

# Gauss-Legendre rule used to sample analytic representations per interval.
_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing node times covering exactly [0, 1]."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two nodes")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid times must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        try:
            times = np.linspace(0.0, 1.0, n_steps + 1)
        except ValueError as exc:  # more nodes than numpy can index
            raise MemoryError(str(exc)) from None
        return cls(times)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def step(self) -> float:
        h = self.times[1] - self.times[0]
        if np.max(np.abs(np.diff(self.times) - h)) > 1e-15:
            raise ValueError("grid is not uniform")
        return float(h)

    def restrict(self, every: int) -> "TimeGrid":
        """Keep every `every`-th node; `every` must divide n_steps."""
        if self.n_steps % every:
            raise ValueError(f"{every} does not divide {self.n_steps} steps")
        return TimeGrid(self.times[::every])

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.times, other.times)


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledPath:
    """Group-valued path at grid nodes, starting at the identity.

    interpolation: "linear" for curves read as piecewise-linear in
    coordinates, "nodes" for samples with no declared interpolant
    (diffusion paths).
    """

    grid: TimeGrid
    planar: np.ndarray  # (n+1, 2)
    z: np.ndarray  # (n+1,)
    interpolation: str = "linear"

    def __post_init__(self):
        planar = _freeze(self.planar)
        z = _freeze(self.z)
        n = self.grid.times.size
        if planar.shape != (n, 2) or z.shape != (n,):
            raise ValueError("value arrays do not match the grid")
        if self.interpolation not in ("linear", "nodes"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if planar[0, 0] != 0.0 or planar[0, 1] != 0.0 or z[0] != 0.0:
            raise ValueError("paths start at the identity")
        object.__setattr__(self, "planar", planar)
        object.__setattr__(self, "z", z)

    def resample(self, times) -> "SampledPath":
        """Linear-in-coordinates resampling; requires interpolation='linear'."""
        if self.interpolation != "linear":
            raise NotDifferentiableError("node-only path cannot be resampled")
        times = np.asarray(times, dtype=float)
        x = np.interp(times, self.grid.times, self.planar[:, 0])
        y = np.interp(times, self.grid.times, self.planar[:, 1])
        z = np.interp(times, self.grid.times, self.z)
        return SampledPath(TimeGrid(times), np.stack([x, y], axis=1), z, "linear")


@dataclass(frozen=True)
class AnalyticBundle:
    """Vectorized callables for a curve with closed-form pieces.

    z_fn/dz_fn are the curve's vertical value and derivative; dz_fn should be
    an independent expression when one exists so the horizontality defect
    check is informative.
    """

    x_fn: Callable
    dx_fn: Callable
    z_fn: Callable
    dz_fn: Callable


@dataclass(frozen=True)
class HorizontalCurve:
    """Horizontal curve: planar nodes and the lifted vertical component.

    With no analytic backend the curve is read as piecewise-linear and
    lifted_z must be the exact per-interval lift. With a backend, the arrays
    are samples of the callables at the grid nodes.
    """

    grid: TimeGrid
    planar: np.ndarray  # (n+1, 2)
    lifted_z: np.ndarray  # (n+1,)
    analytic: Optional[AnalyticBundle] = None

    def __post_init__(self):
        planar = _freeze(self.planar)
        z = _freeze(self.lifted_z)
        n = self.grid.times.size
        if planar.shape != (n, 2) or z.shape != (n,):
            raise ValueError("value arrays do not match the grid")
        object.__setattr__(self, "planar", planar)
        object.__setattr__(self, "lifted_z", z)

    @property
    def end(self) -> GroupElement:
        return GroupElement(self.planar[-1, 0], self.planar[-1, 1], self.lifted_z[-1])

    def sample(self) -> SampledPath:
        """Node samples as a SampledPath; requires the curve to start at e."""
        interp = "linear" if self.analytic is None else "nodes"
        return SampledPath(self.grid, self.planar, self.lifted_z, interp)


def horizontal_lift(planar, grid: TimeGrid, dx_fn=None, z_fn=None, dz_fn=None):
    """Lift a planar path based at 0 to a horizontal curve.

    planar may be an (n+1, 2) array of nodes (read piecewise-linearly; the
    lift increments are then exact) or a vectorized callable (then dx_fn is
    required and the lift integral is evaluated by per-interval Gauss-Legendre
    quadrature unless a closed-form z_fn is supplied).
    """
    if callable(planar):
        if dx_fn is None:
            raise ValueError("callable planar input needs dx_fn")
        return _lift_analytic(planar, dx_fn, grid, z_fn, dz_fn)

    nodes = np.asarray(planar, dtype=float)
    if nodes.shape != (grid.times.size, 2):
        raise ValueError("planar nodes do not match the grid")
    if nodes[0, 0] != 0.0 or nodes[0, 1] != 0.0:
        raise ValueError("planar path must start at 0")
    return HorizontalCurve(grid, nodes, levy_area(nodes))


def _gl_sample_times(grid: TimeGrid):
    """Gauss-Legendre nodes and weights mapped into every grid interval."""
    t0 = grid.times[:-1]
    dt = np.diff(grid.times)
    # shape (n_intervals, order)
    tt = t0[:, None] + dt[:, None] * (0.5 * (_GL_NODES[None, :] + 1.0))
    ww = dt[:, None] * (0.5 * _GL_WEIGHTS[None, :])
    return tt, ww


def _lift_analytic(x_fn, dx_fn, grid, z_fn, dz_fn):
    times = grid.times
    nodes = np.asarray(x_fn(times), dtype=float)
    if nodes.shape != (times.size, 2):
        raise ValueError("x_fn must return shape (len(times), 2)")
    if nodes[0, 0] != 0.0 or nodes[0, 1] != 0.0:
        raise ValueError("planar path must start at 0")
    if z_fn is None:
        tt, ww = _gl_sample_times(grid)
        integrand = 0.5 * omega(x_fn(tt.ravel()), dx_fn(tt.ravel()))
        inc = np.sum(integrand.reshape(ww.shape) * ww, axis=1)
        z = np.concatenate([[0.0], np.cumsum(inc)])
        z_eval = lambda t: np.interp(t, times, z)  # noqa: E731
    else:
        z = np.asarray(z_fn(times), dtype=float)
        z_eval = z_fn
    if dz_fn is None:
        dz_fn = lambda t: 0.5 * omega(x_fn(t), dx_fn(t))  # noqa: E731
    bundle = AnalyticBundle(x_fn, dx_fn, z_eval, dz_fn)
    return HorizontalCurve(grid, nodes, z, bundle)


def left_translate_curve(k: GroupElement, c: HorizontalCurve) -> HorizontalCurve:
    """The curve t -> k * c(t); left translation preserves horizontality."""
    kp = np.array([k.x, k.y])
    planar, z = mul_array(kp, k.z, c.planar, c.lifted_z)
    analytic = None
    if c.analytic is not None:
        a = c.analytic
        analytic = AnalyticBundle(
            x_fn=lambda t, a=a: kp + a.x_fn(t),
            dx_fn=a.dx_fn,
            z_fn=lambda t, a=a: mul_array(kp, k.z, a.x_fn(t), a.z_fn(t))[1],
            dz_fn=lambda t, a=a: a.dz_fn(t) + 0.5 * omega(kp, a.dx_fn(t)),
        )
    return HorizontalCurve(c.grid, planar, z, analytic)


def path_distance(p: SampledPath, q: SampledPath) -> float:
    """Uniform distance max_t |p(t)^{-1} q(t)| over the shared grid nodes."""
    if p.grid != q.grid:
        raise GridMismatchError("paths live on different grids")
    return float(np.max(group_distance_array(p.planar, p.z, q.planar, q.z)))


def _pl_arrays(obj):
    """(times, planar, z) of a piecewise-linear representation."""
    if isinstance(obj, HorizontalCurve):
        return obj.grid.times, obj.planar, obj.lifted_z
    if isinstance(obj, SampledPath):
        if obj.interpolation != "linear":
            raise NotDifferentiableError(
                "node-only sample has no declared derivative"
            )
        return obj.grid.times, obj.planar, obj.z
    raise TypeError(f"expected a path type, got {type(obj).__name__}")


def horizontality_defect(obj) -> float:
    """sup_t |z'(t) - omega(x, x')(t) / 2| for the declared representation.

    Piecewise-linear representations evaluate the exact per-interval constant;
    analytic representations are sampled at Gauss-Legendre nodes plus the
    interval endpoints.
    """
    if isinstance(obj, HorizontalCurve) and obj.analytic is not None:
        a = obj.analytic
        tt, _ = _gl_sample_times(obj.grid)
        samples = np.concatenate([tt.ravel(), obj.grid.times])
        gap = a.dz_fn(samples) - 0.5 * omega(a.x_fn(samples), a.dx_fn(samples))
        return float(np.max(np.abs(gap)))
    times, planar, z = _pl_arrays(obj)
    gap = np.diff(z) - area_increments(planar)
    return float(np.max(np.abs(gap) / np.diff(times)))


def maurer_cartan(obj, t: float) -> AlgebraElement:
    """Left logarithmic derivative (x', z' - omega(x, x')/2) at time t.

    Piecewise representations use the right-sided interval at nodes.
    """
    if isinstance(obj, HorizontalCurve) and obj.analytic is not None:
        a = obj.analytic
        ta = np.asarray([t], dtype=float)
        dx = np.asarray(a.dx_fn(ta), dtype=float).reshape(2)
        x = np.asarray(a.x_fn(ta), dtype=float).reshape(2)
        c = float(a.dz_fn(ta)[0] - 0.5 * omega(x, dx))
        return AlgebraElement(float(dx[0]), float(dx[1]), c)
    times, planar, z = _pl_arrays(obj)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t outside [0, 1]")
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(max(i, 0), times.size - 2)
    dt = times[i + 1] - times[i]
    dx = (planar[i + 1] - planar[i]) / dt
    dz = (z[i + 1] - z[i]) / dt
    # omega(x(t), slope) is constant on the interval and equals its node value
    c = dz - 0.5 * omega(planar[i], dx)
    return AlgebraElement(float(dx[0]), float(dx[1]), float(c))


def energy(c: HorizontalCurve) -> float:
    """Dirichlet energy int |x'|^2 dt of a horizontal curve.

    Piecewise-linear curves use the exact per-piece closed form; analytic
    curves use composite Gauss-Legendre over the grid intervals (absolute
    accuracy well below 1e-10 at the enforced grid resolutions).
    """
    defect = horizontality_defect(c)
    if defect > HORIZONTAL_DEFECT_TOL:
        raise NotHorizontalError(f"defect {defect:.3e} exceeds {HORIZONTAL_DEFECT_TOL}")
    if c.analytic is not None:
        tt, ww = _gl_sample_times(c.grid)
        dx = np.asarray(c.analytic.dx_fn(tt.ravel()), dtype=float)
        speed_sq = sq_norm(dx).reshape(ww.shape)
        return float(np.sum(speed_sq * ww))
    dt = np.diff(c.grid.times)
    dx = np.diff(c.planar, axis=0)
    return float(np.sum(sq_norm(dx) / dt))


def read_path_csv(fh, interpolation="linear") -> SampledPath:
    """The t,x,y,z table that the simulate command writes, as a path."""
    header = fh.readline().strip()
    if header != "t,x,y,z":
        raise ValueError(f"unexpected header {header!r}")
    data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 4:
        raise ValueError("expected four columns")
    return SampledPath(TimeGrid(data[:, 0]), data[:, 1:3], data[:, 3], interpolation)
