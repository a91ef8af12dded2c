"""Hypoelliptic Brownian motion and its horizontal approximations.

The diffusion is g_t = (B_t, A_t): planar Brownian motion together with its
Levy area A_t = (1/2) int_0^t omega(B_s, dB_s), discretized by left-point Ito
sums on a uniform fine grid. The smoothed approximations replace B by a
piecewise interpolation on a coarser step delta and A by the exact lift
integral of the interpolated path, which is horizontal by construction.

Conventions fixed here and relied on by the tests:
  - stochastic integrals use left-point sums on the fine grid;
  - trial i of any experiment draws from rng.child(i), so estimates depend
    neither on the chunk size nor on which thread draws a trial, or when:
    one helper thread draws the next chunk while the caller reduces the
    current one, and on grids of 1024 steps or more the caller draws the
    blocks of a chunk that the helper has not reached when it asks for it;
  - aggregation is plain ordered numpy reduction over the trial axis.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import group_distance_array, omega
from .paths import _GL_NODES, _GL_WEIGHTS, AnalyticBundle, HorizontalCurve, TimeGrid, horizontal_lift
from .results import ResultTable, mean_and_stderr, variance_and_stderr
from .rng import RngSpec, child_generators


def sample_bm(grid: TimeGrid, rng: RngSpec) -> np.ndarray:
    """Planar Brownian path at the grid nodes, started at 0; shape (n+1, 2).

    The path of trial 0 of rng, drawn as _trial_chunks draws every row.
    """
    out = np.empty((1, grid.n_steps + 1, 2))
    _draw_rows(rng, 0, out, math.sqrt(grid.step))
    return out[0]


def area_increments(planar: np.ndarray) -> np.ndarray:
    """Left-point area increments omega(B_k, dB_k)/2 along the node axis."""
    d = np.diff(planar, axis=-2)
    return 0.5 * omega(planar[..., :-1, :], d)


def levy_area(planar: np.ndarray) -> np.ndarray:
    """Left-point Ito sum for the Levy area at every node.

    Grid-free: depends only on the node values. Supports a leading batch
    axis.
    """
    inc = area_increments(planar)
    out = np.zeros(planar.shape[:-2] + (planar.shape[-2],))
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


@dataclass(frozen=True)
class DiffusionSample:
    """One realization of g = (B, A) on a uniform grid.

    planar and area may carry a leading batch axis of trials; rng is then the
    stream of the first of them.
    """

    grid: TimeGrid
    planar: np.ndarray
    area: np.ndarray
    rng: RngSpec


def hypoelliptic_bm(grid: TimeGrid, rng: RngSpec) -> DiffusionSample:
    planar = sample_bm(grid, rng)
    return DiffusionSample(grid, planar, levy_area(planar), rng)


@dataclass(frozen=True)
class Interpolant:
    """C^1 connector f with f(0) = 0, f(1) = 1 used inside coarse steps."""

    name: str
    f: Callable
    df: Callable

    def __post_init__(self):
        if abs(float(self.f(0.0))) > 1e-12 or abs(float(self.f(1.0)) - 1.0) > 1e-12:
            raise ValueError(f"interpolant {self.name!r} must map 0 -> 0 and 1 -> 1")


LINEAR = Interpolant("linear", lambda u: np.asarray(u, dtype=float), lambda u: np.ones_like(np.asarray(u, dtype=float)))
SMOOTHSTEP = Interpolant(
    "smoothstep",
    lambda u: np.asarray(u) ** 2 * (3.0 - 2.0 * np.asarray(u)),
    lambda u: 6.0 * np.asarray(u) * (1.0 - np.asarray(u)),
)


def _as_pair(interpolant):
    if isinstance(interpolant, Interpolant):
        return interpolant, interpolant
    ip1, ip2 = interpolant
    if not isinstance(ip1, Interpolant) or not isinstance(ip2, Interpolant):
        raise TypeError("interpolant must be an Interpolant or a pair of them")
    return ip1, ip2


def _coarse_factor(grid: TimeGrid, delta: float) -> int:
    h = grid.step
    m = round(delta / h)
    if m < 1 or m * h != delta:
        raise ValueError(f"delta {delta} is not a multiple of the fine step {h}")
    if grid.n_steps % m:
        raise ValueError("coarse step does not divide the grid")
    return m


def _cross_profile(ip1: Interpolant, ip2: Interpolant, m: int) -> np.ndarray:
    """G(r/m) = int_0^{r/m} (f1 f2' - f2 f1'), r = 0..m, by Gauss-Legendre.

    Identically zero when both coordinates share one connector.
    """
    if ip1 is ip2:
        return np.zeros(m + 1)
    edges = np.arange(m + 1) / m
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / m
    uu = mid[:, None] + half * _GL_NODES[None, :]
    integrand = ip1.f(uu) * ip2.df(uu) - ip2.f(uu) * ip1.df(uu)
    inc = half * np.sum(integrand * _GL_WEIGHTS[None, :], axis=1)
    out = np.zeros(m + 1)
    np.cumsum(inc, out=out[1:])
    return out


def _wz_fine(planar: np.ndarray, m: int, ip1: Interpolant, ip2: Interpolant):
    """Fine-grid node values (planar, area) of the smoothed path.

    For the linear connector the area at coarse nodes is bitwise the coarse
    left-point Ito sum, and within pieces it interpolates linearly.
    """
    n = planar.shape[0] - 1
    coarse = planar[::m]
    d = np.diff(coarse, axis=0)
    u = np.arange(m) / m
    if ip1 is LINEAR and ip2 is LINEAR:
        inc = area_increments(coarse)
        area_c = np.zeros(coarse.shape[0])
        np.cumsum(inc, out=area_c[1:])
        pieces = coarse[:-1, None, :] + u[None, :, None] * d[:, None, :]
        area_pieces = area_c[:-1, None] + u[None, :] * inc[:, None]
    else:
        f1u, f2u = ip1.f(u), ip2.f(u)
        cross = _cross_profile(ip1, ip2, m)
        alpha = coarse[:-1, 0] * d[:, 1]
        beta = coarse[:-1, 1] * d[:, 0]
        gamma = d[:, 0] * d[:, 1]
        inc = 0.5 * (alpha - beta + gamma * cross[-1])
        area_c = np.zeros(coarse.shape[0])
        np.cumsum(inc, out=area_c[1:])
        pieces = np.empty((d.shape[0], m, 2))
        pieces[:, :, 0] = coarse[:-1, 0, None] + f1u[None, :] * d[:, 0, None]
        pieces[:, :, 1] = coarse[:-1, 1, None] + f2u[None, :] * d[:, 1, None]
        area_pieces = area_c[:-1, None] + 0.5 * (
            alpha[:, None] * f2u[None, :]
            - beta[:, None] * f1u[None, :]
            + gamma[:, None] * cross[None, :-1]
        )
    fine_planar = np.concatenate([pieces.reshape(n, 2), coarse[-1:]], axis=0)
    fine_area = np.concatenate([area_pieces.reshape(n), area_c[-1:]])
    return fine_planar, fine_area


@dataclass(frozen=True)
class WongZakaiPath:
    """Horizontal smoothed approximation of a diffusion sample."""

    coarse_step: float
    interpolants: tuple
    grid: TimeGrid
    planar: np.ndarray
    area: np.ndarray
    horizontal: HorizontalCurve


def wong_zakai(sample: DiffusionSample, delta: float, interpolant=LINEAR) -> WongZakaiPath:
    """Smoothed horizontal path: coarse-step interpolation of B plus the lift.

    The returned object carries the fine-grid node values and a
    HorizontalCurve realization whose horizontality defect is at roundoff
    level.
    """
    ip1, ip2 = _as_pair(interpolant)
    m = _coarse_factor(sample.grid, delta)
    fine_planar, fine_area = _wz_fine(sample.planar, m, ip1, ip2)
    if ip1 is LINEAR and ip2 is LINEAR:
        horizontal = horizontal_lift(fine_planar, sample.grid)
    else:
        horizontal = _wz_horizontal_curve(
            sample.grid, sample.planar[::m], delta, ip1, ip2, fine_planar, fine_area
        )
    return WongZakaiPath(delta, (ip1, ip2), sample.grid, fine_planar, fine_area, horizontal)


def _wz_horizontal_curve(grid, coarse, delta, ip1, ip2, fine_planar, fine_area):
    d = np.diff(coarse, axis=0)
    n_pieces = d.shape[0]
    times = grid.times

    def _piece(t):
        t = np.asarray(t, dtype=float)
        k = np.clip((t // delta).astype(int), 0, n_pieces - 1)
        return k, t / delta - k

    def x_fn(t):
        k, u = _piece(t)
        return np.stack(
            [coarse[k, 0] + ip1.f(u) * d[k, 0], coarse[k, 1] + ip2.f(u) * d[k, 1]],
            axis=-1,
        )

    def dx_fn(t):
        k, u = _piece(t)
        return np.stack(
            [ip1.df(u) * d[k, 0] / delta, ip2.df(u) * d[k, 1] / delta], axis=-1
        )

    def z_fn(t):
        return np.interp(t, times, fine_area)

    def dz_fn(t):
        x = x_fn(t)
        dx = dx_fn(t)
        return 0.5 * omega(x, dx)

    dt = np.diff(times)
    slope = np.diff(fine_planar, axis=0) / dt[:, None]
    bundle = AnalyticBundle(x_fn, dx_fn, z_fn, dz_fn)
    return HorizontalCurve(grid, fine_planar, slope, fine_area, bundle)


# Byte budget of the path chunks alive at once: one being reduced by the
# caller and one being drawn, so each gets half. 256 rows fit a half up to
# 2^12 steps, and a finer grid gets fewer rows instead of a chunk that grows
# with it.
_CHUNK_BYTES = 64 << 20

# Grids of at least this many steps let the caller draw blocks of the chunk
# it asks for that the helper thread has not claimed yet (see _trial_chunks).
_ASSIST_STEPS = 1024


def _draw_rows(rng: RngSpec, first: int, rows: np.ndarray, s: float) -> None:
    """Fill rows, shape (nb, n+1, 2), with trials first .. first + nb - 1.

    Each path starts at 0 and sums its normals, scaled by s, in order. Runs
    on the helper thread of _trial_chunks and on the caller, and draws the
    one path of sample_bm. It draws through its own re-keyed generator and
    calls only RngSpec.child and child_generators: perfbench/tracing.py
    times the package's public functions on one span stack, which a call
    from a second thread would corrupt.
    """
    rows[:, 0] = 0.0
    steps = rows[:, 1:]
    for row, generator in zip(steps, child_generators(rng.child(first), rows.shape[0])):
        generator.standard_normal(out=row)
    steps *= s
    # Read as one complex number per node, the running sum makes the same
    # additions in the same order, in about half the time of the real one.
    walk = rows.view(np.complex128)[:, 1:, 0]
    np.cumsum(walk, axis=1, out=walk)


class _Chunk:
    """The paths of trials start .. start + nb - 1, split into blocks of
    rows that each thread claims under a lock, so every block is drawn once,
    by whichever thread takes it first."""

    def __init__(self, rng: RngSpec, start: int, nb: int, n: int, s: float, block: int):
        self.paths = np.empty((nb, n + 1, 2))
        self._rng = rng
        self._start = start
        self._s = s
        self._block = block
        self._unclaimed = iter(range(0, nb, block))
        self._lock = threading.Lock()

    def draw(self) -> None:
        """Draw unclaimed blocks until none is left."""
        while True:
            with self._lock:
                lo = next(self._unclaimed, None)
            if lo is None:
                return
            _draw_rows(self._rng, self._start + lo, self.paths[lo:lo + self._block], self._s)


def _trial_chunks(grid: TimeGrid, rng: RngSpec, n_trials: int, chunk: int = 256):
    """Trial-keyed Brownian paths in batches of shape (nb, n+1, 2).

    Row i holds trial start + i, drawn from rng.child(start + i), scaled by
    sqrt(h) and summed in order along the time axis, so the values do not
    depend on the chunk size. A chunk holds at most `chunk` rows and at most
    _CHUNK_BYTES // 2 bytes (at least one row). Chunks are yielded in trial
    order. One helper thread draws the next chunk while the caller reduces
    the current one. Closing the generator early waits for the draw in
    flight.

    Who draws: on grids of at least _ASSIST_STEPS steps a chunk is split
    into blocks of about rows // 8, and when the caller asks for a chunk
    it also draws the blocks the helper has not claimed yet, so it draws
    only when it has nothing left to reduce. On coarser grids the helper
    draws each chunk as one block. Every row re-keys its generator with the
    interpreter lock held, so two drawing threads gain only where a row's
    normals are long enough to draw beside that: on a 2-vCPU x86 VM they
    drew keyed rows 1.03 times as fast as one thread at 256 steps, 1.61
    times at 1024 and 1.70 times at 4096. A row's values do not depend on
    which thread draws it.
    """
    n = grid.n_steps
    s = math.sqrt(grid.step)
    rows = max(1, min(chunk, _CHUNK_BYTES // 2 // ((n + 1) * 16)))
    assist = n >= _ASSIST_STEPS
    block = max(1, rows // 8) if assist else rows
    with ThreadPoolExecutor(1) as helper:

        def draw(start):
            job = _Chunk(rng, start, min(rows, n_trials - start), n, s, block)
            return job, helper.submit(job.draw)

        pending = draw(0) if n_trials > 0 else None
        for start in range(0, n_trials, rows):
            current, drawn = pending
            if assist:
                current.draw()
            drawn.result()
            if start + rows < n_trials:
                pending = draw(start + rows)
            yield start, current.paths


def ws_convergence_experiment(
    deltas, fine_step: float, n_trials: int, rng: RngSpec, interpolant=LINEAR
) -> ResultTable:
    """Mean squared uniform distance between g and its smoothed approximation.

    One fine path per trial is shared across all coarse steps (common random
    numbers), which is what makes the per-level drops cleanly resolvable.
    """
    ip1, ip2 = _as_pair(interpolant)
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    ms = [_coarse_factor(grid, float(dl)) for dl in deltas]
    dsq = np.empty((n_trials, len(ms)))
    for start, paths in _trial_chunks(grid, rng, n_trials):
        for i, planar in enumerate(paths, start):
            area = levy_area(planar)
            for j, m in enumerate(ms):
                wp, wa = _wz_fine(planar, m, ip1, ip2)
                dist = group_distance_array(wp, wa, planar, area)
                dsq[i, j] = np.max(dist) ** 2
    rows = []
    for j, dl in enumerate(deltas):
        est, se = mean_and_stderr(dsq[:, j])
        rows.append((float(dl), est, se, n_trials, fine_step, rng.seed))
    return ResultTable(
        ["delta", "estimate", "stderr", "n_trials", "fine_step", "seed"],
        rows,
        {"experiment": "ws-converge", "seed": rng.seed, "fine_step": fine_step,
         "interpolants": (ip1.name, ip2.name)},
    )


def energy_divergence_experiment(
    steps, n_trials: int, rng: RngSpec, wz_delta: float = 2.0 ** -3
) -> ResultTable:
    """Discrete energy of g blows up like 2/h; the smoothed path's plateaus.

    Rows with delta == fine_step are the raw path measured at step h (its
    step-h piecewise-linear interpolant is exactly the delta = h smoothed
    path). Rows with delta == wz_delta evaluate the fixed smoothed path on
    finer and finer grids; chords of straight pieces make the value exactly
    h-independent.
    """
    steps = sorted(float(s) for s in steps)
    h_min = steps[0]
    grid = TimeGrid.uniform(round(1.0 / h_min))
    factors = [_coarse_factor(grid, s) for s in steps]
    m_delta = _coarse_factor(grid, wz_delta)
    raw = np.empty((n_trials, len(steps)))
    smoothed = np.empty((n_trials, len(steps)))
    for start, paths in _trial_chunks(grid, rng, n_trials):
        for i, planar in enumerate(paths, start):
            fine_wz, _ = _wz_fine(planar, m_delta, LINEAR, LINEAR)
            for j, (h, m) in enumerate(zip(steps, factors)):
                raw[i, j] = np.sum(np.diff(planar[::m], axis=0) ** 2) / h
                smoothed[i, j] = np.sum(np.diff(fine_wz[::m], axis=0) ** 2) / h
    rows = []
    for j, h in enumerate(steps):
        est, se = mean_and_stderr(raw[:, j])
        rows.append((h, est, se, n_trials, h, rng.seed))
    for j, h in enumerate(steps):
        if h <= wz_delta:
            est, se = mean_and_stderr(smoothed[:, j])
            rows.append((wz_delta, est, se, n_trials, h, rng.seed))
    return ResultTable(
        ["delta", "estimate", "stderr", "n_trials", "fine_step", "seed"],
        rows,
        {"experiment": "energy-diverge", "seed": rng.seed, "wz_delta": wz_delta,
         "steps": steps},
    )


def levy_area_law_experiment(
    fine_step: float, n_trials: int, lambdas, rng: RngSpec
) -> ResultTable:
    """Second moment and cosine moments of the time-1 Levy area.

    Targets: Var A_1 = 1/4 and E cos(lambda A_1) = 1 / cosh(lambda / 2).
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    a1 = np.empty(n_trials)
    for start, paths in _trial_chunks(grid, rng, n_trials):
        a1[start:start + paths.shape[0]] = np.sum(area_increments(paths), axis=-1)
    var, var_se = variance_and_stderr(a1)
    # row 0 is Var(A_1) with a NaN marker in the delta slot; the remaining
    # rows put lambda there (the shared experiment schema has no lambda field)
    rows = [(float("nan"), var, var_se, n_trials, fine_step, rng.seed)]
    targets = {"var_A1": 0.25}
    for lam in lambdas:
        lam = float(lam)
        est, se = mean_and_stderr(np.cos(lam * a1))
        targets[f"cos_{lam:g}"] = 1.0 / math.cosh(lam / 2.0)
        rows.append((lam, est, se, n_trials, fine_step, rng.seed))
    return ResultTable(
        ["delta", "estimate", "stderr", "n_trials", "fine_step", "seed"],
        rows,
        {"experiment": "levy-law", "seed": rng.seed, "fine_step": fine_step,
         "lambdas": [float(l) for l in lambdas], "targets": targets},
    )
