"""Hypoelliptic Brownian motion and its horizontal approximations.

The diffusion is g_t = (B_t, A_t): planar Brownian motion together with its
Levy area A_t = (1/2) int_0^t omega(B_s, dB_s), discretized by left-point Ito
sums on a uniform fine grid. The smoothed approximations replace B by a
piecewise interpolation on a coarser step delta and A by the exact lift
integral of the interpolated path, which is horizontal by construction.

Conventions fixed here and relied on by the tests:
  - stochastic integrals use left-point sums on the fine grid;
  - trial i of any experiment draws from rng.child(i), so estimates depend
    neither on the chunk size nor on which process draws a trial, or when;
  - _trial_chunks is the one trial source, and it yields per-trial values,
    not paths: an experiment passes a reduce(paths) -> (nb, width) array,
    and two forked worker processes each draw a chunk of paths, reduce it
    and hand the caller only the values (the caller draws and reduces them
    itself where os.fork is missing);
  - aggregation is plain ordered numpy reduction over the trial axis.
"""

import math
import mmap
import os
import signal
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import _AREA_BLOCK, _area_into, group_distance_array, omega, sq_norm
from .paths import AnalyticBundle, HorizontalCurve, TimeGrid, horizontal_lift
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
    planar = np.asarray(planar)
    *lead, n1, _ = planar.shape
    m = math.prod(lead)
    out = np.empty((*lead, n1 - 1))
    _area_into(planar.reshape(m, n1, 2), out.reshape(m, n1 - 1))
    return out


def levy_area(planar: np.ndarray) -> np.ndarray:
    """Left-point Ito sum for the Levy area at every node.

    Grid-free: depends only on the node values. Supports leading batch
    axes. The increments are summed in place after the leading 0.
    """
    planar = np.asarray(planar)
    *lead, n1, _ = planar.shape
    m = math.prod(lead)
    out = np.empty((*lead, n1))
    flat = out.reshape(m, n1)
    flat[:, 0] = 0.0
    _area_into(planar.reshape(m, n1, 2), flat[:, 1:])
    np.cumsum(flat[:, 1:], axis=-1, out=flat[:, 1:])
    return out


@dataclass(frozen=True)
class DiffusionSample:
    """One realization of g = (B, A) on a uniform grid.

    planar and area may carry a leading batch axis of trials.
    """

    grid: TimeGrid
    planar: np.ndarray
    area: np.ndarray


def hypoelliptic_bm(grid: TimeGrid, rng: RngSpec) -> DiffusionSample:
    planar = sample_bm(grid, rng)
    return DiffusionSample(grid, planar, levy_area(planar))


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


def _coarse_factor(grid: TimeGrid, delta: float) -> int:
    h = grid.step
    m = round(delta / h)
    if m < 1 or m * h != delta:
        raise ValueError(f"delta {delta} is not a multiple of the fine step {h}")
    if grid.n_steps % m:
        raise ValueError("coarse step does not divide the grid")
    return m


def _wz_fine(planar: np.ndarray, m: int, interpolant: Interpolant):
    """Fine-grid node values (planar, area) of the smoothed path.

    Both coordinates share the connector, so each piece is a chord and the
    area at coarse nodes is the coarse left-point Ito sum. The linear branch
    interpolates the area as u * inc, the other one as alpha f - beta f; the
    two round differently, so LINEAR keeps its own branch.
    """
    n = planar.shape[0] - 1
    coarse = planar[::m]
    d = np.diff(coarse, axis=0)
    u = np.arange(m) / m
    if interpolant is LINEAR:
        inc = area_increments(coarse)
        area_c = np.zeros(coarse.shape[0])
        np.cumsum(inc, out=area_c[1:])
        pieces = coarse[:-1, None, :] + u[None, :, None] * d[:, None, :]
        area_pieces = area_c[:-1, None] + u[None, :] * inc[:, None]
    else:
        fu = interpolant.f(u)
        alpha = coarse[:-1, 0] * d[:, 1]
        beta = coarse[:-1, 1] * d[:, 0]
        inc = 0.5 * (alpha - beta)
        area_c = np.zeros(coarse.shape[0])
        np.cumsum(inc, out=area_c[1:])
        pieces = coarse[:-1, None, :] + fu[None, :, None] * d[:, None, :]
        area_pieces = area_c[:-1, None] + 0.5 * (alpha[:, None] * fu - beta[:, None] * fu)
    fine_planar = np.concatenate([pieces.reshape(n, 2), coarse[-1:]], axis=0)
    fine_area = np.concatenate([area_pieces.reshape(n), area_c[-1:]])
    return fine_planar, fine_area


@dataclass(frozen=True)
class WongZakaiPath:
    """Horizontal smoothed approximation of a diffusion sample."""

    coarse_step: float
    interpolant: Interpolant
    grid: TimeGrid
    planar: np.ndarray
    area: np.ndarray
    horizontal: HorizontalCurve


def wong_zakai(sample: DiffusionSample, delta: float, interpolant: Interpolant = LINEAR) -> WongZakaiPath:
    """Smoothed horizontal path: coarse-step interpolation of B plus the lift.

    The returned object carries the fine-grid node values and a
    HorizontalCurve realization whose horizontality defect is at roundoff
    level.
    """
    m = _coarse_factor(sample.grid, delta)
    fine_planar, fine_area = _wz_fine(sample.planar, m, interpolant)
    if interpolant is LINEAR:
        horizontal = horizontal_lift(fine_planar, sample.grid)
    else:
        horizontal = _wz_horizontal_curve(
            sample.grid, sample.planar[::m], delta, interpolant, fine_planar, fine_area
        )
    return WongZakaiPath(delta, interpolant, sample.grid, fine_planar, fine_area, horizontal)


def _wz_horizontal_curve(grid, coarse, delta, interpolant, fine_planar, fine_area):
    d = np.diff(coarse, axis=0)
    n_pieces = d.shape[0]
    times = grid.times

    def _piece(t):
        t = np.asarray(t, dtype=float)
        k = np.clip((t // delta).astype(int), 0, n_pieces - 1)
        return k, t / delta - k

    def x_fn(t):
        k, u = _piece(t)
        return coarse[k] + np.expand_dims(interpolant.f(u), -1) * d[k]

    def dx_fn(t):
        k, u = _piece(t)
        return np.expand_dims(interpolant.df(u), -1) * d[k] / delta

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


# Byte budget of the drawn paths: a worker draws one chunk at a time into a
# private buffer of at most a quarter of it, so 128 rows fit on grids up to
# 2^12 steps, and a finer grid gets fewer rows instead of a buffer that grows
# with it. The shared buffer holds _SLOTS chunks of reduced values.
_CHUNK_BYTES = 64 << 20
_SLOTS = 4
_WORKERS = 2

# Node stride of the lower bound of a path's planar gap to a curve that the
# tube draw and tube_deviation take before the full sup.
_TUBE_STRIDE = 8

# One-byte tokens. From a worker: a chunk is reduced, or the worker failed and
# its traceback follows. To a worker: the caller is done with a slot.
_DRAWN, _FAILED, _FREED = b"+", b"!", b"-"


def _strided_gap(planar: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Largest |B - phi| over every _TUBE_STRIDE-th node, per row.

    planar has shape (m, k, 2) and nodes (k, 2). A lower bound of the sup
    over all k nodes.
    """
    return np.sqrt(np.max(sq_norm(planar[:, ::_TUBE_STRIDE] - nodes[::_TUBE_STRIDE]), axis=-1))


def _draw_rows(rng: RngSpec, first: int, rows: np.ndarray, s: float, tube=None) -> None:
    """Fill rows, shape (nb, n+1, 2), with trials first .. first + nb - 1.

    Each path starts at 0 and sums its normals, scaled by s, in order. Runs
    in the worker processes of _trial_chunks (on the caller where os.fork is
    missing), and draws the one path of sample_bm. It draws through its own
    re-keyed generators and calls only RngSpec.child and child_generators,
    so a worker touches nothing but numpy's generators and its buffers.

    With tube = (nodes, widest), nodes being a curve at the n + 1 grid
    nodes, each row is drawn in two parts. First every row up to the split
    node, the largest multiple of _TUBE_STRIDE not above n/2. A row whose
    _strided_gap to nodes up to the split, tube_deviation's strided bound on
    those nodes, is at least widest has a sup at least widest: every node
    after the split is set to +inf, so tube_deviation with a cap of widest
    gives it a value of at least that cap. Only the other rows are drawn on,
    each from its own generator where the first part stopped, so each kept
    row is bitwise its whole-row draw. A split of 0 draws whole rows.
    """
    n = rows.shape[1] - 1
    split = n // 2 // _TUBE_STRIDE * _TUBE_STRIDE if tube is not None else 0
    generators = child_generators(rng.child(first), rows.shape[0])
    drawn = range(rows.shape[0])
    rows[:, 0] = 0.0
    # Read as one complex number per node, the running sum makes the same
    # additions in the same order, in about half the time of the real one.
    walk = rows.view(np.complex128)[:, :, 0]
    for lo, hi in ((0, split), (split, n)) if split else ((0, n),):
        if lo:
            nodes, widest = tube
            left = _strided_gap(rows[:, :lo + 1], nodes[:lo + 1]) >= widest
            rows[left, lo + 1:] = np.inf
            drawn = np.flatnonzero(~left)
        for i in drawn:
            generators[i].standard_normal(out=rows[i, lo + 1:hi + 1])
        rows[:, lo + 1:hi + 1] *= s
        # node lo holds its sum already (node 0 holds 0 and is left out)
        part = walk[:, max(lo, 1):hi + 1]
        np.cumsum(part, axis=1, out=part)


def _reduce_chunk(rng, start, paths, s, tube, reduce, out) -> None:
    """Draw trials start .. into paths and write reduce's values into out."""
    _draw_rows(rng, start, paths, s, tube)
    shown = paths.view()
    shown.flags.writeable = False
    values = reduce(shown)
    if np.shape(values) != out.shape:
        raise ValueError(f"reduce gave shape {np.shape(values)} for {out.shape} values")
    out[...] = values


def _work(rng, starts, rows, n_trials, n, s, reduce, tube, slots, w, ends):
    """Body of worker w, forked by _trial_chunks: reduce chunks w, w + 2, ...

    ends holds the four pipe ends of each worker (see _trial_chunks); this
    one closes all but its own two. Chunk c is drawn into a private buffer,
    allocated here after the fork, and its values go into slot c % 4 once
    the caller has handed that slot back by a byte on free (its first two
    slots start free); each is then a _DRAWN byte on ready. An error sends
    _FAILED and its traceback. An end of file on free means the caller is
    gone. Leaves only by os._exit, so nothing of the caller's (atexit hooks,
    buffered output) runs twice.
    """
    code = 0
    ready, free = ends[4 * w + 1], ends[4 * w + 2]
    try:
        for fd in ends:
            if fd not in (ready, free):
                os.close(fd)
        paths = np.empty((rows, n + 1, 2))
        for c in range(w, len(starts), _WORKERS):
            if c >= _SLOTS and not os.read(free, 1):
                break
            nb = min(rows, n_trials - starts[c])
            _reduce_chunk(rng, starts[c], paths[:nb], s, tube, reduce, slots[c % _SLOTS, :nb])
            os.write(ready, _DRAWN)
    except BaseException:
        code = 1
        try:
            os.write(ready, _FAILED + traceback.format_exc().encode())
        except OSError:  # the caller is gone
            pass
    finally:
        os._exit(code)


def _worker_error(ready: int, token: bytes, start: int) -> RuntimeError:
    """The error a worker reported on ready after token, or its silent death."""
    if token != _FAILED:
        return RuntimeError(f"the worker drawing trials {start} on exited without a result")
    text = b"".join(iter(lambda: os.read(ready, 1 << 16), b"")).decode(errors="replace")
    return RuntimeError(f"a trial worker failed:\n{text}")


def _trial_chunks(grid: TimeGrid, rng: RngSpec, n_trials: int, reduce, width: int,
                  chunk: int = 128, tube=None):
    """Per-trial values of trial-keyed Brownian paths, chunk by chunk.

    Row i of a chunk's paths, shape (nb, n+1, 2), holds trial start + i,
    drawn from rng.child(start + i), scaled by sqrt(h) and summed in order
    along the time axis, so the paths do not depend on the chunk size. A
    chunk holds at most `chunk` rows and at most _CHUNK_BYTES // 4 bytes of
    paths (at least one row). reduce(paths) gets each chunk's paths as a
    read-only array and returns an (nb, width) float array of per-trial
    values; the values are what is yielded, as (start, values) in trial
    order, each a read-only view that stays valid until the next chunk is
    requested: copy what must outlive that. reduce must be deterministic per
    row, so the values do not depend on the chunk size either. tube =
    (nodes, widest) draws the rows as _draw_rows says: a row whose strided
    gap to nodes passes widest on the first half of the grid is not drawn
    on, and its nodes after the split are +inf.

    Two worker processes, forked per call, draw and reduce the chunks:
    worker c % 2 draws chunk c into a private buffer, reduces it and writes
    the values into slot c % 4 of one anonymous shared mmap of
    4 x rows x width x 8 bytes, so each works up to two chunks ahead while
    the caller only sums values; the caller maps no path memory. One-byte
    pipe tokens hand each slot between a worker and the caller. Each worker
    keeps only its own two pipe ends, so a worker whose caller dies sees an
    end of file or a broken pipe and exits. A worker's error, reduce's
    included, reaches the caller as a RuntimeError carrying the worker's
    traceback. However the caller leaves (exhausted, closed early, an
    exception), it SIGKILLs and reaps every worker. Where os.fork is
    missing, the caller draws and reduces each chunk itself into reused
    buffers.
    """
    n = grid.n_steps
    s = math.sqrt(grid.step)
    rows = max(1, min(chunk, _CHUNK_BYTES // _SLOTS // ((n + 1) * 16)))
    starts = range(0, n_trials, rows)
    if not hasattr(os, "fork"):
        paths, values = np.empty((rows, n + 1, 2)), np.empty((rows, width))
        shown = values.view()
        shown.flags.writeable = False
        for start in starts:
            nb = min(rows, n_trials - start)
            _reduce_chunk(rng, start, paths[:nb], s, tube, reduce, values[:nb])
            yield start, shown[:nb]
        return
    buf = mmap.mmap(-1, _SLOTS * rows * width * 8)
    slots = np.frombuffer(buf).reshape(_SLOTS, rows, width)
    shown = np.frombuffer(memoryview(buf).toreadonly()).reshape(slots.shape)
    ends, pids = [], []  # the pipe ends the caller holds, the workers' ids
    try:
        workers = min(_WORKERS, len(starts))
        for _ in range(workers):
            ends += [*os.pipe(), *os.pipe()]  # ready: read, write; free: read, write
        for w in range(workers):
            pid = os.fork()
            if pid == 0:
                _work(rng, starts, rows, n_trials, n, s, reduce, tube, slots, w, ends)
            pids.append(pid)
        for fd in ends[1::4] + ends[2::4]:
            os.close(fd)
        ready, free = ends[0::4], ends[3::4]
        ends = ready + free
        for c, start in enumerate(starts):
            w = c % _WORKERS
            token = os.read(ready[w], 1)
            if token != _DRAWN:
                raise _worker_error(ready[w], token, start)
            yield start, shown[c % _SLOTS, :min(rows, n_trials - start)]
            if c + _SLOTS < len(starts):
                try:
                    os.write(free[w], _FREED)
                except BrokenPipeError:  # the worker failed; its error is read next
                    pass
    finally:
        for fd in ends:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _trial_values(grid: TimeGrid, rng: RngSpec, n_trials: int, reduce, width: int) -> np.ndarray:
    """Every trial's values of _trial_chunks in one (n_trials, width) array."""
    out = np.empty((n_trials, width))
    for start, values in _trial_chunks(grid, rng, n_trials, reduce, width):
        out[start:start + values.shape[0]] = values
    return out


def ws_convergence_experiment(
    deltas, fine_step: float, n_trials: int, rng: RngSpec, interpolant: Interpolant = LINEAR
) -> ResultTable:
    """Mean squared uniform distance between g and its smoothed approximation.

    One fine path per trial is shared across all coarse steps (common random
    numbers), which is what makes the per-level drops cleanly resolvable.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    ms = [_coarse_factor(grid, float(dl)) for dl in deltas]

    def reduce(paths):
        dsq = np.empty((paths.shape[0], len(ms)))
        for i, planar in enumerate(paths):
            area = levy_area(planar)
            for j, m in enumerate(ms):
                wp, wa = _wz_fine(planar, m, interpolant)
                dist = group_distance_array(wp, wa, planar, area)
                dsq[i, j] = np.max(dist) ** 2
        return dsq

    dsq = _trial_values(grid, rng, n_trials, reduce, len(ms))
    rows = []
    for j, dl in enumerate(deltas):
        est, se = mean_and_stderr(dsq[:, j])
        rows.append((float(dl), est, se, n_trials, fine_step, rng.seed))
    return ResultTable(
        ["delta", "estimate", "stderr", "n_trials", "fine_step", "seed"],
        rows,
        {"experiment": "ws-converge", "seed": rng.seed, "fine_step": fine_step,
         "interpolant": interpolant.name},
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

    def reduce(paths):
        """Per trial, the raw energies at each step, then the smoothed ones."""
        out = np.empty((paths.shape[0], 2 * len(steps)))
        for i, planar in enumerate(paths):
            fine_wz, _ = _wz_fine(planar, m_delta, LINEAR)
            for j, (h, m) in enumerate(zip(steps, factors)):
                out[i, j] = np.sum(np.diff(planar[::m], axis=0) ** 2) / h
                out[i, len(steps) + j] = np.sum(np.diff(fine_wz[::m], axis=0) ** 2) / h
        return out

    energies = _trial_values(grid, rng, n_trials, reduce, 2 * len(steps))
    raw, smoothed = energies[:, :len(steps)], energies[:, len(steps):]
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
    rows = max(1, _AREA_BLOCK // grid.n_steps)

    def reduce(paths):
        # Blocks of whole rows hold at most 512 KB of increments; a row's sum
        # is the one over the whole chunk's increments, bit for bit.
        a1 = np.empty((paths.shape[0], 1))
        for r in range(0, paths.shape[0], rows):
            a1[r:r + rows, 0] = np.sum(area_increments(paths[r:r + rows]), axis=-1)
        return a1

    a1 = _trial_values(grid, rng, n_trials, reduce, 1)[:, 0]
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
