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
  - _trial_chunks is the one trial source: forked workers draw chunks of
    paths, reduce them with the experiment's reduce and send the caller
    only the per-trial values; an experiment's keep may drop rows halfway,
    and the source knows nothing of what keep tests;
  - the reduces' kernels (the area, the levy-law row sums, the Ito sums and
    the dds clock of heis.girsanov, which copies its rows time-major) work
    through the row blocks of group._row_blocks in heis.group's per-process
    scratch pool, so a worker reuses the same pages chunk after chunk;
  - aggregation is plain ordered numpy reduction over the trial axis.
"""

import math
import os
import signal
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import (_HELD, _area_into, _row_blocks, _scratch, area_increments, group_distance_array,
                    levy_area, omega)
from .paths import AnalyticBundle, HorizontalCurve, SampledPath, TimeGrid
from .results import ResultTable, mean_and_stderr, variance_and_stderr
from .rng import RngSpec, child_generators


def sample_bm(grid: TimeGrid, rng: RngSpec) -> np.ndarray:
    """Planar Brownian path at the grid nodes, started at 0; shape (n+1, 2).

    The path of trial 0 of rng, drawn as _trial_chunks draws every row.
    """
    out = np.empty((1, grid.n_steps + 1, 2))
    _draw_rows(rng, 0, out, math.sqrt(grid.step))
    return out[0]


def hypoelliptic_bm(grid: TimeGrid, rng: RngSpec) -> SampledPath:
    """One path of g = (B, A) at the grid nodes, as a "nodes" SampledPath.

    planar is sample_bm's path and z its levy_area.
    """
    planar = sample_bm(grid, rng)
    return SampledPath(grid, planar, levy_area(planar), "nodes")


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
    if not delta <= 1.0:
        raise ValueError(f"delta {delta} is beyond the unit interval")
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
    fu = interpolant.f(np.arange(m) / m)
    inc = area_increments(coarse)
    area_c = np.zeros(coarse.shape[0])
    np.cumsum(inc, out=area_c[1:])
    pieces = coarse[:-1, None, :] + fu[None, :, None] * d[:, None, :]
    if interpolant is LINEAR:
        area_pieces = area_c[:-1, None] + fu[None, :] * inc[:, None]
    else:
        alpha = coarse[:-1, 0] * d[:, 1]
        beta = coarse[:-1, 1] * d[:, 0]
        area_pieces = area_c[:-1, None] + 0.5 * (alpha[:, None] * fu - beta[:, None] * fu)
    fine_planar = np.concatenate([pieces.reshape(n, 2), coarse[-1:]], axis=0)
    fine_area = np.concatenate([area_pieces.reshape(n), area_c[-1:]])
    return fine_planar, fine_area


def wong_zakai(sample: SampledPath, delta: float, interpolant: Interpolant = LINEAR) -> HorizontalCurve:
    """Smoothed horizontal path: coarse-step interpolation of B plus the lift.

    planar and lifted_z are _wz_fine's node values, the path that
    ws_convergence_experiment measures. A LINEAR smoothing is read
    piecewise-linearly; any other interpolant carries the analytic bundle of
    its pieces. Either way the horizontality defect is at roundoff level.
    """
    grid = sample.grid
    m = _coarse_factor(grid, delta)
    fine_planar, fine_area = _wz_fine(sample.planar, m, interpolant)
    bundle = None
    if interpolant is not LINEAR:
        bundle = _wz_bundle(grid, sample.planar[::m], delta, interpolant, fine_area)
    return HorizontalCurve(grid, fine_planar, fine_area, bundle)


def _wz_bundle(grid, coarse, delta, interpolant, fine_area) -> AnalyticBundle:
    """Closed-form pieces of a smoothing through the coarse nodes; z between
    the grid nodes is read linearly from fine_area."""
    d = np.diff(coarse, axis=0)
    n_pieces = d.shape[0]

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
        return np.interp(t, grid.times, fine_area)

    def dz_fn(t):
        return 0.5 * omega(x_fn(t), dx_fn(t))

    return AnalyticBundle(x_fn, dx_fn, z_fn, dz_fn)


# The chunk plan (_chunk_rows), measured with perfbench's workloads on a
# 2-vCPU VM. Each chunk costs a fixed amount beyond its rows: its generators'
# keying, a pipe frame, the caller's wake-up and copy. So a chunk draws at
# least _CHUNK_STEPS steps, those of 128 rows at 2^-10: 512 rows at 2^-8,
# where a 45 000-trial tube scan took 0.64 s of worker CPU (0.76 s with
# 128-row chunks) and its workers 65 involuntary context switches (185).
# At most _CHUNK_ROWS: one 2^19-step rule without bounds (2 048 rows at 2^-8)
# ran tube at 106.4k and 94.7k trials/s against 111.2k and 103.8k (slower in
# 3 of 3 pairs in both sets; dds and support did not move). At least
# _CHUNK_FLOOR: 32-row chunks at 2^-12 showed levy no gain, 6 952 against
# 7 271 (5 of 6 pairs slower) in one set, 7 182 against 7 142 in another.
# At most _CHUNK_BYTES of paths per worker, so a grid finer than 2^-12 gets
# fewer rows (128 rows at 2^-20 would be 2 GB). A pass holds at least eight
# chunks (or one per trial), so a short pass on a coarse grid does not map a
# 512-row buffer in each worker for one chunk: 1 000 trials at 2^-8 draw
# 125-row chunks.
_CHUNK_STEPS = 1 << 17
_CHUNK_ROWS = 512
_CHUNK_FLOOR = 128
_CHUNK_BYTES = 16 << 20
_WORKERS = 2

# One-byte tokens from a worker: a chunk's values follow, or the worker failed
# and its traceback follows.
_DRAWN, _FAILED = b"+", b"!"


class WorkerError(RuntimeError):
    """A trial worker of _trial_chunks failed or died. The first line of the
    message says which; a failed worker's traceback follows it."""


def _draw_rows(rng: RngSpec, first: int, rows: np.ndarray, s: float, keep=None) -> np.ndarray:
    """Fill rows, shape (nb, n+1, 2), with trials first .. first + nb - 1;
    return the offsets of the k rows drawn whole, now in rows[:k].

    Each path starts at 0 and sums its normals, scaled by s, in order. Runs
    in the worker processes of _trial_chunks (on the caller where os.fork is
    missing), and draws the one path of sample_bm. It draws through its own
    re-keyed generators and calls only RngSpec.child and child_generators,
    so a worker touches nothing but numpy's generators and its buffers.

    With keep, every row is drawn up to the split node n // 2 (0 for one
    step: whole rows), and keep(prefix), on those nodes as a read-only
    array, says which rows go on. Those move to the front and go on from
    where their generators stopped, each bitwise its whole-row draw; the
    others are not drawn on, scaled or summed.
    """
    n = rows.shape[1] - 1
    split = n // 2 if keep is not None else 0
    generators = child_generators(rng.child(first), rows.shape[0])
    kept = np.arange(rows.shape[0])
    rows[:, 0] = 0.0
    for lo, hi in ((0, split), (split, n)) if split else ((0, n),):
        if lo:
            prefix = rows[:, :lo + 1]
            prefix.flags.writeable = False
            kept = np.flatnonzero(keep(prefix))
            rows = rows[:kept.size]
            rows[:, :lo + 1] = prefix[kept]
        for i, segment in zip(kept.tolist(), rows[:, lo + 1:hi + 1]):
            generators[i].standard_normal(out=segment)
        rows[:, lo + 1:hi + 1] *= s
        # Read as one complex number per node, the running sum makes the same
        # additions in the same order, in about half the time of the real one;
        # node lo holds its sum already (node 0 holds 0 and is left out).
        part = rows.view(np.complex128)[:, max(lo, 1):hi + 1, 0]
        np.cumsum(part, axis=1, out=part)
    return kept


def _chunk_rows(n_steps: int, n_trials: int) -> int:
    """Rows per chunk of _trial_chunks for n_trials trials on a grid of
    n_steps steps: enough for _CHUNK_STEPS steps, within _CHUNK_FLOOR ..
    _CHUNK_ROWS rows and _CHUNK_BYTES bytes of paths, at most an eighth of
    the trials, rounded up, and at least one."""
    rows = max(-(-_CHUNK_STEPS // n_steps), _CHUNK_FLOOR)
    cap = min(_CHUNK_ROWS, _CHUNK_BYTES // ((n_steps + 1) * 16), -(-n_trials // 8))
    return max(1, min(rows, cap))


def _work(values_of, starts, w, ends):
    """Body of worker w, forked by _trial_chunks: write a _DRAWN byte and
    values_of(start) for chunks w, w + 2, ... into its own pipe.

    ends holds the read and write end of each worker's pipe; this one
    closes all but its own write end. An error sends _FAILED and its
    traceback. Leaves only by os._exit, so nothing of the caller's (atexit
    hooks, buffered output) runs twice.
    """
    code = 0
    ready = ends[2 * w + 1]
    try:
        for fd in ends:
            if fd != ready:
                os.close(fd)
        for start in starts[w::_WORKERS]:
            frame = memoryview(_DRAWN + values_of(start).tobytes())
            while frame:
                frame = frame[os.write(ready, frame):]
    except BaseException:
        code = 1
        try:
            os.write(ready, _FAILED + traceback.format_exc().encode())
        except OSError:  # the caller is gone
            pass
    finally:
        os._exit(code)


def _read_values(ready: int, nb: int, width: int, start: int) -> np.ndarray:
    """The next chunk a worker sends on ready, as a new read-only (nb, width)
    array. A WorkerError carries the traceback the worker sent after
    _FAILED, or reports its death if the pipe ends before a whole chunk."""
    token = os.read(ready, 1)
    if token == _FAILED:
        text = b"".join(iter(lambda: os.read(ready, 1 << 16), b"")).decode(errors="replace")
        raise WorkerError(f"a trial worker failed:\n{text}")
    if token == _DRAWN:
        values = np.empty((nb, width))
        buf, got = memoryview(values).cast("B"), 0
        while got < buf.nbytes and (k := os.readv(ready, [buf[got:]])):
            got += k
        if got == buf.nbytes:
            values.flags.writeable = False
            return values
    raise WorkerError(f"the worker drawing trials {start} on exited without a result")


def _trial_chunks(grid: TimeGrid, rng: RngSpec, n_trials: int, reduce, width: int, keep=None):
    """Per-trial values of trial-keyed Brownian paths, chunk by chunk.

    Row i of a chunk's paths, shape (nb, n+1, 2), holds trial start + i,
    drawn from rng.child(start + i), scaled by sqrt(h) and summed in order
    along the time axis, so the paths do not depend on the chunk size. Every
    chunk but the last holds _chunk_rows(n, n_trials) rows. reduce(paths)
    gets each chunk's paths as a read-only array and returns a
    (len(paths), width) float array of per-trial values; the values are what
    is yielded, as (start, values) in trial order, each a new read-only
    (nb, width) array of the caller's own.
    reduce must be deterministic per row, so the values do not depend on the
    chunk size either. With keep, the rows are drawn as _draw_rows says, and
    a row keep drops is not drawn on and not reduced: its values are +inf.

    Two worker processes, forked per call, run values_of: worker c % 2 sends
    chunk c's values down its own pipe, which the caller reads in trial
    order; the caller maps no path memory, and the pipe's buffer bounds how
    far a worker runs ahead. Each worker keeps only its own write end, so a
    worker whose caller dies gets a broken pipe and exits. A worker's error,
    reduce's included, reaches the caller as a WorkerError carrying the
    worker's traceback. However the caller leaves (exhausted, closed early,
    an exception), it SIGKILLs and reaps every worker. Where os.fork is
    missing, the caller runs values_of itself.
    """
    n = grid.n_steps
    s = math.sqrt(grid.step)
    rows = _chunk_rows(n, n_trials)
    starts = range(0, n_trials, rows)
    buffer = []  # the paths, allocated on first use: in a worker, after the fork

    def values_of(start):
        """The values of trials start ..., a new read-only (nb, width) array."""
        if not buffer:
            buffer.append(np.empty((rows, n + 1, 2)))
        nb = min(rows, n_trials - start)
        kept = _draw_rows(rng, start, buffer[0][:nb], s, keep)
        paths = buffer[0][:kept.size]
        paths.flags.writeable = False
        got = reduce(paths)
        if np.shape(got) != (kept.size, width):
            raise ValueError(f"reduce gave shape {np.shape(got)} for {(kept.size, width)} values")
        values = np.full((nb, width), np.inf)
        values[kept] = got  # a copy: reduce may return a view of paths
        values.flags.writeable = False
        return values

    if not hasattr(os, "fork"):
        for start in starts:
            yield start, values_of(start)
        return
    ends, pids = [], []  # the pipe ends the caller holds, the workers' ids
    try:
        workers = min(_WORKERS, len(starts))
        for _ in range(workers):
            ends += os.pipe()  # read, write
        for w in range(workers):
            pid = os.fork()
            if pid == 0:
                _work(values_of, starts, w, ends)
            pids.append(pid)
        for fd in ends[1::2]:
            os.close(fd)
        ends = ends[0::2]
        for c, start in enumerate(starts):
            yield start, _read_values(ends[c % _WORKERS], min(rows, n_trials - start), width, start)
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


def cosine_target(lam: float) -> float:
    """E cos(lam A_1) = 1 / cosh(lam / 2); 0.0 where cosh overflows."""
    try:
        return 1.0 / math.cosh(lam / 2.0)
    except OverflowError:
        return 0.0


def levy_area_law_experiment(
    fine_step: float, n_trials: int, lambdas, rng: RngSpec
) -> ResultTable:
    """Second moment and cosine moments of the time-1 Levy area.

    Targets: Var A_1 = 1/4 and E cos(lambda A_1) = cosine_target(lambda).
    The trial workers reduce each path to A_1, a row sum of its area
    increments, formed block by block in pooled scratch.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))

    def reduce(paths):
        # Blocks of whole rows form at most 512 KB of increments in pooled
        # scratch; a row's sum is the one over the whole chunk's increments,
        # bit for bit.
        a1 = np.empty((paths.shape[0], 1))
        for rows in _row_blocks(paths.shape[0], grid.n_steps):
            p = paths[rows]
            inc = _scratch(_HELD, (p.shape[0], grid.n_steps))
            _area_into(p, inc)
            np.sum(inc, axis=-1, out=a1[rows, 0])
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
        targets[f"cos_{lam:g}"] = cosine_target(lam)
        rows.append((lam, est, se, n_trials, fine_step, rng.seed))
    return ResultTable(
        ["delta", "estimate", "stderr", "n_trials", "fine_step", "seed"],
        rows,
        {"experiment": "levy-law", "seed": rng.seed, "fine_step": fine_step,
         "lambdas": [float(l) for l in lambdas], "targets": targets},
    )
