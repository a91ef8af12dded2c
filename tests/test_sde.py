"""Brownian sampling, stochastic area, smoothing transforms."""

import contextlib
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heis import girsanov, group, sde
from heis.density import pl_length
from heis.group import group_distance_array, omega
from heis.paths import SampledPath, TimeGrid, horizontal_lift, horizontality_defect, maurer_cartan
from heis.rng import RngSpec
from heis.sde import (
    LINEAR,
    SMOOTHSTEP,
    Interpolant,
    _CHUNK_BYTES,
    _trial_chunks,
    area_increments,
    energy_divergence_experiment,
    hypoelliptic_bm,
    levy_area,
    levy_area_law_experiment,
    sample_bm,
    wong_zakai,
    ws_convergence_experiment,
)

GRID = TimeGrid.uniform(256)


def test_same_spec_same_path():
    a = sample_bm(GRID, RngSpec(42))
    b = sample_bm(GRID, RngSpec(42))
    np.testing.assert_array_equal(a, b)


def test_child_streams_differ():
    a = sample_bm(GRID, RngSpec(42, 0))
    b = sample_bm(GRID, RngSpec(42, 1))
    assert not np.array_equal(a, b)


def test_bm_moments():
    grid = TimeGrid.uniform(64)
    ends = np.array([sample_bm(grid, RngSpec(1, i))[-1] for i in range(4000)])
    var = np.var(ends, axis=0, ddof=1)
    # spread of a sample variance of 4000 standard normals is ~sqrt(2/4000)
    assert np.all(np.abs(var - 1.0) < 4 * math.sqrt(2 / 4000))
    cross = np.mean(ends[:, 0] * ends[:, 1])
    assert abs(cross) < 4 / math.sqrt(4000)


def test_area_is_the_pl_lift():
    s = hypoelliptic_bm(GRID, RngSpec(5))
    lifted = horizontal_lift(s.planar, GRID)
    np.testing.assert_array_equal(s.z, lifted.lifted_z)
    assert s.z[0] == 0.0


def test_levy_area_scaling_exact():
    """Planar doubling multiplies the area by 4, bitwise for powers of two."""
    b = sample_bm(GRID, RngSpec(9))
    np.testing.assert_array_equal(levy_area(2.0 * b), 4.0 * levy_area(b))


def test_levy_area_reflection_antisymmetry():
    b = sample_bm(GRID, RngSpec(10))
    flipped = b * np.array([1.0, -1.0])
    np.testing.assert_array_equal(levy_area(flipped), -levy_area(b))


def test_levy_area_law_symmetric():
    """A_1 and -A_1 agree in law (two-sample KS at the 1% level)."""
    a = np.array([levy_area(sample_bm(GRID, RngSpec(3, i)))[-1]
                  for i in range(1500)])
    b = np.array([levy_area(sample_bm(GRID, RngSpec(4, i)))[-1]
                  for i in range(1500)])
    stat = scipy.stats.ks_2samp(a, -b)
    assert stat.pvalue > 0.01


def _old_increments(p):
    """The area increments as written before the blocked kernel."""
    return 0.5 * omega(p[..., :-1, :], np.diff(p, axis=-2))


def _old_levy_area(p):
    out = np.zeros(p.shape[:-2] + (p.shape[-2],))
    np.cumsum(_old_increments(p), axis=-1, out=out[..., 1:])
    return out


def _assert_same_bytes(new, old):
    """Equal shapes and bytes, so -0.0 and 0.0 count as different."""
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


@st.composite
def _planar_views(draw):
    """(..., n+1, 2) arrays with 0-2 batch axes, some of them strided views."""
    lead = draw(st.lists(st.integers(0, 4), max_size=2))
    n = draw(st.integers(0, 40))
    tstep = draw(st.integers(1, 3))
    bstep = draw(st.integers(1, 3)) if lead else 1
    shape = [*lead, n * tstep + 1, 2]
    if lead:
        shape[0] *= bstep
    base = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    view = base[..., ::tstep, :]
    return view[::bstep] if lead else view


@settings(max_examples=200, deadline=None)
@given(planar=_planar_views(), block=st.sampled_from([1, 2, 5, 64, group._AREA_BLOCK]))
def test_area_kernel_is_bitwise_the_old_expressions(planar, block):
    """Any block size, batch shape, row count or stride gives the bytes of
    0.5 * omega(B[:-1], diff(B)) and its running sum."""
    with mock.patch.object(group, "_AREA_BLOCK", block):
        inc, area = area_increments(planar), levy_area(planar)
    _assert_same_bytes(inc, _old_increments(planar))
    _assert_same_bytes(area, _old_levy_area(planar))


@pytest.mark.parametrize("view", [
    lambda p: p,
    lambda p: p[::2],
    lambda p: p[:, ::3],
    lambda p: p[3],
    lambda p: p[:0],
    lambda p: p[:, :1],
], ids=["chunk", "every-2nd-row", "every-3rd-node", "one-path", "no-rows", "n=0"])
def test_area_kernel_matches_on_a_chunk_of_many_blocks(view):
    """At the module's block size: 37 rows of 4095 steps take three blocks of
    16 rows, the last one partial."""
    p = view(sample_bm(TimeGrid.uniform(37 * 4096 - 1), RngSpec(12)).reshape(37, 4096, 2))
    _assert_same_bytes(area_increments(p), _old_increments(p))
    _assert_same_bytes(levy_area(p), _old_levy_area(p))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 70), time_major_planar=st.booleans(),
       block=st.sampled_from([1, 7, 64, 1 << 16]), seed=st.integers(0, 2 ** 32 - 1))
def test_area_kernel_into_a_time_major_view_gives_the_row_major_bytes(
        m, n, time_major_planar, block, seed):
    """out laid out (node, row), from planar laid out either way: the bytes
    of the row-major call, at any block size."""
    planar = np.cumsum(np.random.default_rng(seed).standard_normal((m, n + 1, 2)), axis=1)
    if time_major_planar:
        planar = np.ascontiguousarray(planar.transpose(2, 1, 0)).transpose(2, 1, 0)
    row_major, time_major = np.empty((m, n)), np.empty((n, m)).T
    with mock.patch.object(group, "_AREA_BLOCK", block):
        group._area_into(planar, row_major)
        group._area_into(planar, time_major)
    _assert_same_bytes(np.ascontiguousarray(time_major), row_major)


@pytest.mark.parametrize("fn", [area_increments, levy_area])
def test_area_kernel_holds_no_chunk_sized_temporaries(fn):
    """On a 256 x 4097 chunk the area takes its output plus at most 1 MB of
    traced memory; the whole-chunk temporaries of the old expression took
    about four times the output."""
    paths = np.cumsum(np.random.default_rng(14).standard_normal((256, 4097, 2)), axis=1)
    out_bytes = fn(paths).nbytes
    tracemalloc.start()
    try:
        fn(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out_bytes + (1 << 20)


def _old_wz_fine(planar, m, interpolant):
    """sde._wz_fine as written before it called area_increments for both
    connectors."""
    n = planar.shape[0] - 1
    coarse = planar[::m]
    d = np.diff(coarse, axis=0)
    u = np.arange(m) / m
    if interpolant is LINEAR:
        inc = _old_increments(coarse)
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
    return (np.concatenate([pieces.reshape(n, 2), coarse[-1:]], axis=0),
            np.concatenate([area_pieces.reshape(n), area_c[-1:]]))


@st.composite
def _node_pairs(draw):
    """Two (m k + 1, 2) node arrays, their (m k + 1,) verticals and m: normal
    draws at a drawn scale, with some entries replaced by drawn values, among
    them zeros (-0.0 included) and negative numbers."""
    m, k = draw(st.sampled_from([1, 2, 3, 4, 8])), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    coords = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, -1.0, -2.5])

    def values(shape):
        drawn = draw(hnp.arrays(np.float64, shape, elements=coords))
        return np.where(draw(hnp.arrays(bool, shape)), drawn, scale * rng.standard_normal(shape))

    return values((m * k + 1, 2)), values((m * k + 1, 2)), values(m * k + 1), values(m * k + 1), m


@settings(max_examples=200, deadline=None)
@given(case=_node_pairs())
def test_the_area_and_the_quotient_keep_the_bits_of_every_expression_they_replaced(case):
    """Each site that wrote the left-point area, the group quotient or a
    squared length out by hand now calls heis.group's one implementation,
    with the same bits: the CLI's simulate verdict, the smoothstep connector
    of _wz_fine, maurer_cartan, horizontality_defect, approximate_path's
    increments, horizontal_lift, quotient_nodes and group_distance_array,
    and the chords of cc_join_curve and pl_length."""
    p, q, za, zb, m = case
    assert sde.levy_area is group.levy_area and sde.area_increments is group.area_increments
    inc = area_increments(p)
    x, y, d = p[:, 0], p[:, 1], np.diff(p, axis=0)
    for old in (0.5 * (x[:-1] * np.diff(y) - np.diff(x) * y[:-1]),  # cli simulate
                0.5 * (x[:-1] * d[:, 1] - y[:-1] * d[:, 0]),  # _wz_fine, smoothstep
                0.5 * omega(p[:-1], p[1:] - p[:-1])):  # approximate_path, defect
        _assert_same_bytes(inc, old)
    _assert_same_bytes(0.5 * omega(p, q), 0.5 * (p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))
    for new, old in zip(group.quotient_array(p, za, q, zb),
                        (q - p, zb - za - 0.5 * omega(p, q))):
        _assert_same_bytes(new, old)
    _assert_same_bytes(group.sq_norm(d), np.sum(d ** 2, axis=1))
    for interpolant in (LINEAR, SMOOTHSTEP):
        for new, old in zip(sde._wz_fine(p, m, interpolant), _old_wz_fine(p, m, interpolant)):
            _assert_same_bytes(new, old)
    # the path-level sites start at the identity
    p[0], za[0] = 0.0, 0.0
    grid = TimeGrid.uniform(p.shape[0] - 1)
    lift = horizontal_lift(p, grid)
    _assert_same_bytes(lift.lifted_z, _old_levy_area(p))
    assert pl_length(lift) == float(np.sum(np.sqrt(np.sum(np.diff(p, axis=0) ** 2, axis=1))))
    path = SampledPath(grid, p, za)
    old = np.max(np.abs(np.diff(za) - 0.5 * omega(p[:-1], np.diff(p, axis=0))) / np.diff(grid.times))
    assert horizontality_defect(path) == float(old)
    for i, t in enumerate(grid.times[:-1]):
        dt = grid.times[i + 1] - t
        dx, dz = (p[i + 1] - p[i]) / dt, (za[i + 1] - za[i]) / dt
        c = maurer_cartan(path, t).c
        assert np.float64(c).tobytes() == np.float64(dz - 0.5 * (p[i, 0] * dx[1] - dx[0] * p[i, 1])).tobytes()


def _per_trial_paths(grid, rng, n_trials):
    """Reference trial source: one freshly built generator per trial."""
    n = grid.n_steps
    s = math.sqrt(grid.step)
    out = np.empty((n_trials, n + 1, 2))
    out[:, 0] = 0.0
    for i in range(n_trials):
        gen = rng.child(i).generator()
        np.cumsum(gen.standard_normal((n, 2)) * s, axis=0, out=out[i, 1:])
    return out


def _rows(paths):
    """A reduce that keeps whole paths, one flat row per trial."""
    return paths.reshape(paths.shape[0], math.prod(paths.shape[1:]))


def _chunks(grid, rng, n_trials, **kwargs):
    """_trial_chunks with a reduce whose values are the paths themselves."""
    return _trial_chunks(grid, rng, n_trials, _rows, 2 * (grid.n_steps + 1), **kwargs)


def _drawn(grid, rng, n_trials, **kwargs):
    """(start, paths) of every chunk of _chunks."""
    return [(start, values.reshape(values.shape[0], -1, 2))
            for start, values in _chunks(grid, rng, n_trials, **kwargs)]


def _starts(n_trials, chunk):
    """The chunk starts of a pass of n_trials under a patched cap of chunk
    rows, on a grid whose plan the cap binds: a pass holds at least eight
    chunks, or one per trial."""
    return list(range(0, n_trials, max(1, min(chunk, -(-n_trials // 8)))))


@contextlib.contextmanager
def _without_fork():
    """os as on a platform without os.fork, where the caller draws."""
    fork = os.fork
    del os.fork
    try:
        yield
    finally:
        os.fork = fork


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _nothing_left():
    """Around a scan: as many open fds after it as before, and no child."""
    fds = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    before = len(os.listdir(fds))
    yield
    assert len(os.listdir(fds)) == before
    _no_child_left()


@pytest.mark.parametrize("n_steps", [1, 64, 1023, 1024, 4096])
@pytest.mark.parametrize("rng", [RngSpec(78), RngSpec(-6, 2 ** 64 - 1)],
                         ids=["plain", "wraps-2^64"])
def test_sample_bm_is_row_zero_of_the_trial_source(n_steps, rng):
    grid = TimeGrid.uniform(n_steps)
    path = sample_bm(grid, rng)
    (_, paths), *_ = _drawn(grid, rng, 16)
    assert paths.shape[0] == 2
    np.testing.assert_array_equal(path, paths[0])
    np.testing.assert_array_equal(path, _per_trial_paths(grid, rng, 1)[0])


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("rng", [RngSpec(77), RngSpec(-5, 2 ** 64 - 3)],
                         ids=["plain", "wraps-2^64"])
def test_trial_chunks_match_per_trial_generators(chunk, rng, monkeypatch):
    """Chunked draws equal the per-trial reference bit for bit, for a trial
    count that is not a multiple of the chunk and for streams past 2^64. A
    cap of 512 rows gives 8-row chunks here, an eighth of the 60 trials."""
    monkeypatch.setattr(sde, "_CHUNK_ROWS", chunk)
    grid = TimeGrid.uniform(32)
    n_trials = 60
    items = _drawn(grid, rng, n_trials)
    assert [start for start, _ in items] == _starts(n_trials, chunk)
    np.testing.assert_array_equal(np.concatenate([p for _, p in items]),
                                  _per_trial_paths(grid, rng, n_trials))


@settings(max_examples=40, deadline=None)
@given(n_trials=st.integers(0, 40), chunk=st.integers(1, 16), k=st.integers(0, 10),
       fork=st.booleans(), workers=st.integers(1, 3))
def test_trial_chunks_match_per_trial_generators_property(n_trials, chunk, k, fork, workers):
    """A reduce that returns the paths gives the per-trial reference bit for
    bit on grids of 2^-k, with 1, 2 or 3 workers and without os.fork."""
    grid = TimeGrid.uniform(2 ** k)
    rng = RngSpec(91, 7)
    with contextlib.nullcontext() if fork else _without_fork(), \
            mock.patch.object(sde, "_CHUNK_ROWS", chunk), \
            mock.patch.object(sde, "_WORKERS", workers):
        items = _drawn(grid, rng, n_trials)
    assert [start for start, _ in items] == _starts(n_trials, chunk)
    drawn = np.concatenate([np.empty((0, 2 ** k + 1, 2))] + [p for _, p in items])
    np.testing.assert_array_equal(drawn, _per_trial_paths(grid, rng, n_trials))


@pytest.mark.parametrize("n_steps", [1, 8, 15, 16, 17, 64, 1000, 1024])
def test_tube_draw_keeps_rows_bitwise_and_drops_only_rows_out_of_the_tube(n_steps):
    """With _tube_scan's keep, the kept rows come first, each its whole-row
    draw bit for bit; the dropped rows are exactly those whose strided gap
    up to the split node n // 2 reaches the radius, their sup does too, and
    the trial source gives their trials +inf in every column. One step
    splits at 0: whole rows; under 16 steps the prefix holds no strided node
    but node 0, so no row is dropped."""
    grid, rng = TimeGrid.uniform(n_steps), RngSpec(17, 5)
    s = math.sqrt(grid.step)
    nodes = np.stack([grid.times, 0.5 * grid.times], axis=-1)
    whole = np.empty((300, n_steps + 1, 2))
    sde._draw_rows(rng, 0, whole, s)
    sup = np.sqrt(np.max(np.sum((whole - nodes) ** 2, axis=-1), axis=-1))
    split = n_steps // 2
    gap = girsanov._strided_gap(whole[:, :split + 1], nodes[:split + 1])
    dropped = 0
    for widest in [*np.quantile(sup, [0.05, 0.5, 0.95]), np.inf]:
        def keep(prefix):
            return girsanov._strided_gap(prefix, nodes[:prefix.shape[1]]) < widest

        two = np.empty_like(whole)
        kept = sde._draw_rows(rng, 0, two, s, keep)
        np.testing.assert_array_equal(kept, np.flatnonzero(gap < widest) if split else range(300))
        np.testing.assert_array_equal(two[:kept.size], whole[kept])
        out = np.ones(300, dtype=bool)
        out[kept] = False
        assert np.all(sup[out] >= widest)
        values = np.concatenate([v for _, v in _chunks(grid, rng, 300, keep=keep)])
        np.testing.assert_array_equal(values[kept], _rows(whole[kept]))
        assert np.all(values[out] == np.inf)
        dropped += int(np.sum(out))
    assert (dropped > 0) == (split >= girsanov._TUBE_STRIDE)


@settings(max_examples=40, deadline=None)
@given(n_trials=st.integers(0, 40), chunk=st.integers(1, 16), k=st.integers(0, 7),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       c=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-np.inf, np.inf])),
       fork=st.booleans(), workers=st.integers(1, 3))
def test_trial_chunks_drop_the_rows_keep_drops(n_trials, chunk, k, a, b, c, fork, workers):
    """A random row predicate on the prefix up to node n // 2, with 1, 2 or
    3 workers and without os.fork: kept trials' values are their per-trial
    reference paths, dropped trials' values are +inf, and reduce never gets
    a dropped row."""
    grid, rng = TimeGrid.uniform(2 ** k), RngSpec(93, 4)
    split = 2 ** k // 2

    def kept_rows(prefix):
        return a * prefix[:, -1, 0] + b * prefix[:, -1, 1] < c

    def keep(prefix):
        assert not prefix.flags.writeable and prefix.shape[1:] == (split + 1, 2)
        return kept_rows(prefix)

    def reduce(paths):
        if split:
            assert np.all(kept_rows(paths[:, :split + 1]))
        return _rows(paths)

    ref = _per_trial_paths(grid, rng, n_trials)
    with contextlib.nullcontext() if fork else _without_fork(), \
            mock.patch.object(sde, "_CHUNK_ROWS", chunk), \
            mock.patch.object(sde, "_WORKERS", workers):
        items = list(_trial_chunks(grid, rng, n_trials, reduce, 2 * (2 ** k + 1), keep))
    assert [start for start, _ in items] == _starts(n_trials, chunk)
    values = np.concatenate([np.empty((0, 2 * (2 ** k + 1)))] + [v for _, v in items])
    kept = kept_rows(ref[:, :split + 1]) if split else np.ones(n_trials, dtype=bool)
    np.testing.assert_array_equal(values[kept], _rows(ref[kept]))
    assert np.all(values[~kept] == np.inf)


@pytest.mark.parametrize("chunk", [1, 7, 37, 256])
def test_caller_assisted_chunks_match_per_trial_generators(chunk, monkeypatch):
    """On a 1024-step grid, where the caller once drew blocks of the chunks
    it waited for, and with enough chunks that each worker sends many, the
    rows are still the per-trial reference bit for bit. A cap above the
    128 rows of a 2^-10 chunk leaves them at 128 (1 100 trials, whose
    eighth, 138 rows, does not bind)."""
    monkeypatch.setattr(sde, "_CHUNK_ROWS", chunk)
    grid = TimeGrid.uniform(1024)
    rng = RngSpec(29, 11)
    items = _drawn(grid, rng, 1100)
    assert [start for start, _ in items] == list(range(0, 1100, min(chunk, 128)))
    np.testing.assert_array_equal(np.concatenate([p for _, p in items]),
                                  _per_trial_paths(grid, rng, 1100))


def test_without_fork_the_caller_draws_the_same_rows(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 8)
    grid, rng = TimeGrid.uniform(64), RngSpec(31, 5)
    items = _drawn(grid, rng, 70)
    assert [start for start, _ in items] == list(range(0, 70, 8))
    np.testing.assert_array_equal(np.concatenate([p for _, p in items]),
                                  _per_trial_paths(grid, rng, 70))
    assert not next(_chunks(grid, rng, 70))[1].flags.writeable


def test_yielded_chunks_are_read_only(monkeypatch):
    def reduce(paths):
        assert not paths.flags.writeable  # in the worker
        return _rows(paths)

    monkeypatch.setattr(sde, "_CHUNK_ROWS", 7)
    for start, values in _trial_chunks(GRID, RngSpec(3), 30, reduce, 2 * 257):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
    _no_child_left()


def test_closing_trial_chunks_early_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 7)
    with _nothing_left():
        chunks = _chunks(TimeGrid.uniform(1024), RngSpec(3), 1000)
        next(chunks)
        chunks.close()


def test_a_consumer_error_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 7)
    with _nothing_left(), pytest.raises(KeyError):
        for start, values in _chunks(GRID, RngSpec(3), 1000):
            if start > 20:
                raise KeyError(start)


def test_draw_error_reaches_the_caller(monkeypatch):
    draw = sde._draw_rows

    def failing(rng, first, *args):
        if first > 0:
            raise RuntimeError(f"draw of trial {first} failed")
        return draw(rng, first, *args)

    monkeypatch.setattr(sde, "_draw_rows", failing)
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 10)
    chunks = _chunks(GRID, RngSpec(3), 80)
    assert next(chunks)[0] == 0
    with pytest.raises(RuntimeError, match="trial 10 failed"):
        next(chunks)


def test_a_worker_error_leaves_no_worker(monkeypatch):
    """A late chunk fails while the other worker still has chunks to send."""
    draw = sde._draw_rows

    def failing(rng, first, *args):
        if first == 70:
            raise RuntimeError(f"draw of trial {first} failed")
        return draw(rng, first, *args)

    monkeypatch.setattr(sde, "_draw_rows", failing)
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 10)
    with _nothing_left(), pytest.raises(RuntimeError, match="trial 70 failed"):
        for _ in _chunks(GRID, RngSpec(3), 200):
            pass


def test_a_worker_that_dies_is_an_error(monkeypatch):
    """A worker that exits before sending its chunk, with no traceback."""
    monkeypatch.setattr(sde, "_draw_rows", lambda *args: os._exit(3))
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 10)
    with _nothing_left(), pytest.raises(RuntimeError, match="trials 0 on exited without a result"):
        list(_chunks(GRID, RngSpec(3), 20))


def test_a_chunk_cut_short_is_an_error():
    """A _DRAWN byte, half of a chunk's values and an end of file."""
    r, w = os.pipe()
    try:
        os.write(w, sde._DRAWN + np.arange(6.0).tobytes()[:24])
        os.close(w)
        with pytest.raises(RuntimeError, match="trials 5 on exited without a result"):
            sde._read_values(r, 3, 2, 5)
    finally:
        os.close(r)


@pytest.mark.parametrize("fork", [True, False], ids=["workers", "without-fork"])
def test_yielded_chunks_outlive_the_next_request(fork, monkeypatch):
    """Chunk 0 is unchanged after a whole pass, which leaves no fd open."""
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 7)
    with _nothing_left(), contextlib.nullcontext() if fork else _without_fork():
        chunks = _chunks(GRID, RngSpec(3), 1000)
        first = next(chunks)[1]
        kept = first.copy()
        for _ in chunks:
            pass
    np.testing.assert_array_equal(first, kept)


_KILLED_SCAN = """
import sys, time
from heis.paths import TimeGrid
from heis.rng import RngSpec
from heis import sde
sde._CHUNK_ROWS = 16
for start, values in sde._trial_chunks(TimeGrid.uniform(1024), RngSpec(3), 10 ** 6,
                                       lambda paths: paths[:, -1], 2):
    if start == 0:
        print("first chunk", flush=True)
    time.sleep(0.001)
"""


def _live_members(pgid):
    """Processes of group pgid that have not exited (zombies excluded)."""
    live = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
def test_a_killed_scan_leaves_no_worker():
    """SIGKILL gives the caller no finally: its workers must notice the
    closed pipes themselves."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_SCAN], stdout=subprocess.PIPE,
                            env=env, start_new_session=True)
    try:
        assert proc.stdout.readline() == b"first chunk\n"
    finally:
        proc.kill()
        proc.wait(10)
        proc.stdout.close()
    deadline = time.monotonic() + 2.0
    try:
        while _live_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _live_members(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a failed check
        except ProcessLookupError:
            pass


@pytest.mark.parametrize("k, rows", [(0, 512), (6, 512), (7, 512), (8, 512), (9, 256),
                                     (10, 128), (12, 128), (13, 127), (18, 3), (20, 1)])
def test_chunk_plan_draws_the_steps_of_a_2_to_the_minus_10_chunk(k, rows):
    """A coarse grid's chunk draws at least the 2^17 steps of 128 rows at
    2^-10, up to 512 rows; 2^-10 and finer keep 128 rows while their paths
    fit 16 MB, then fewer, and at least one. A pass of 4 096 trials, whose
    eighth is 512 rows, gets these rows."""
    assert sde._chunk_rows(2 ** k, 4096) == rows


@pytest.mark.parametrize("n_trials, k, rows", [
    (1000, 8, 125), (2000, 8, 250), (5000, 8, 512), (45000, 8, 512), (1, 8, 1), (2, 8, 1),
    (9, 6, 2), (1000, 10, 125), (1024, 10, 128), (4000, 12, 128), (0, 8, 1)])
def test_a_short_pass_holds_at_least_eight_chunks(n_trials, k, rows):
    """A pass draws chunks of at most an eighth of its trials, rounded up,
    so a short pass on a coarse grid does not map a 512-row buffer per
    worker; 5 000 or more trials at 2^-8, and 1 024 or more at 2^-10 to
    2^-12, keep the rows of the plan."""
    assert sde._chunk_rows(2 ** k, n_trials) == rows


def test_a_patched_cap_sets_the_rows_of_a_coarse_grid(monkeypatch):
    """The tests that patch _CHUNK_ROWS still get several chunks at 2^-6."""
    monkeypatch.setattr(sde, "_CHUNK_ROWS", 7)
    assert sde._chunk_rows(64, 60) == 7
    items = _drawn(TimeGrid.uniform(64), RngSpec(5), 60)
    assert [start for start, _ in items] == list(range(0, 60, 7))


def test_trial_chunks_stay_within_byte_budget():
    """A chunk's paths, drawn in a worker's private buffer, fit the budget."""
    grid = TimeGrid.uniform(2 ** 18)
    rng = RngSpec(4)
    rows = []
    for start, paths in _chunks(grid, rng, 20):
        assert paths.nbytes <= _CHUNK_BYTES
        paths = paths.reshape(paths.shape[0], -1, 2)
        if start > 0:  # the first row of a later chunk is still trial `start`
            np.testing.assert_array_equal(paths[0], _per_trial_paths(grid, rng.child(start), 1)[0])
        rows.append(paths.shape[0])
    assert sum(rows) == 20 and len(rows) > 1


def test_a_reduce_of_the_wrong_shape_is_an_error(monkeypatch):
    def reduce(paths):
        return paths[:, -1]  # width 2, not 3

    monkeypatch.setattr(sde, "_CHUNK_ROWS", 10)
    with pytest.raises(RuntimeError, match="reduce gave shape"):
        list(_trial_chunks(GRID, RngSpec(3), 20, reduce, 3))
    _no_child_left()
    with _without_fork(), pytest.raises(ValueError, match="reduce gave shape"):
        list(_trial_chunks(GRID, RngSpec(3), 20, reduce, 3))


@pytest.mark.parametrize("n", [1, 7, 64, 1023, 1024, 4096, 5000])
def test_blockwise_row_sums_equal_the_whole_chunk_sum(n):
    """levy-law sums each block of _AREA_BLOCK // n whole rows on its own;
    every row's sum is bitwise the one over the whole chunk."""
    rows = max(1, group._AREA_BLOCK // n)
    inc = np.random.default_rng(n).standard_normal((2 * rows + 3, n))
    blocks = [np.sum(inc[r:r + rows], axis=-1) for r in range(0, inc.shape[0], rows)]
    _assert_same_bytes(np.concatenate(blocks), np.sum(inc, axis=-1))


def test_cosine_target_is_zero_where_cosh_overflows():
    """Finite targets keep their bits; beyond cosh's range the target is 0."""
    for lam in (0.5, 1.0, 2.0, -3.0, 1419.0):
        assert sde.cosine_target(lam) == 1.0 / math.cosh(lam / 2.0)
    for lam in (1421.0, -1e308, 1e308, math.inf):
        assert sde.cosine_target(lam) == 0.0


def test_levy_law_reduce_outlives_its_experiment(monkeypatch):
    """The reduce keeps its own block count: called after the experiment
    returns, it still gives each row's A_1."""
    reduces = []
    trial_values = sde._trial_values

    def keep(grid, rng, n_trials, reduce, width):
        reduces.append(reduce)
        return trial_values(grid, rng, n_trials, reduce, width)

    monkeypatch.setattr(sde, "_trial_values", keep)
    levy_area_law_experiment(2.0 ** -6, 10, [1.0], RngSpec(7))
    paths = np.cumsum(np.random.default_rng(7).standard_normal((5, 65, 2)), axis=1)
    _assert_same_bytes(reduces[0](paths), np.sum(area_increments(paths), axis=-1)[:, None])


def test_interpolant_validation():
    with pytest.raises(ValueError):
        Interpolant("bad", lambda u: 2 * np.asarray(u), lambda u: np.full_like(u, 2.0))


@pytest.mark.parametrize("interp", [LINEAR, SMOOTHSTEP], ids=["linear", "smoothstep"])
def test_wz_coarse_nodes_are_coarse_ito_sums(interp):
    """With one shared connector the smoothed path passes through the coarse
    planar nodes and its area there equals the coarse left-point sum, bitwise,
    whatever the profile in between."""
    for seed in range(20):
        s = hypoelliptic_bm(TimeGrid.uniform(512), RngSpec(seed))
        w = wong_zakai(s, 2.0 ** -3, interp)
        m = 512 // 8
        np.testing.assert_array_equal(w.planar[::m], s.planar[::m])
        np.testing.assert_array_equal(w.lifted_z[::m], levy_area(s.planar[::m]))


def test_wz_at_fine_step_is_identity():
    s = hypoelliptic_bm(GRID, RngSpec(8))
    w = wong_zakai(s, 1.0 / 256, LINEAR)
    d = group_distance_array(w.planar, w.lifted_z, s.planar, s.z)
    assert float(np.max(d)) == 0.0


def test_wz_linear_is_horizontal():
    s = hypoelliptic_bm(TimeGrid.uniform(1024), RngSpec(12))
    w = wong_zakai(s, 2.0 ** -4, LINEAR)
    assert horizontality_defect(w) <= 1e-10


def test_wz_smoothstep_node_increments_exact():
    # both coordinates share the connector, so each fine piece is a chord and
    # the node-to-node area increment is the exact lift integral
    s = hypoelliptic_bm(TimeGrid.uniform(1024), RngSpec(12))
    w = wong_zakai(s, 2.0 ** -4, SMOOTHSTEP)
    gap = np.abs(np.diff(w.lifted_z) - area_increments(w.planar))
    assert float(np.max(gap)) <= 1e-12


@pytest.mark.parametrize("interp", [LINEAR, SMOOTHSTEP], ids=["linear", "smoothstep"])
def test_wz_is_the_path_ws_converge_measures(interp):
    """wong_zakai's curve is, bit for bit, the smoothed path whose squared
    sup distance to the diffusion ws_convergence_experiment averages."""
    grid = TimeGrid.uniform(512)
    for seed in range(3):
        s = hypoelliptic_bm(grid, RngSpec(seed))
        for delta in (2.0 ** -2, 2.0 ** -4):
            w = wong_zakai(s, delta, interp)
            dsq = float(np.max(group_distance_array(w.planar, w.lifted_z, s.planar, s.z))) ** 2
            table = ws_convergence_experiment([delta], grid.step, 1, RngSpec(seed), interp)
            assert dsq == table.column("estimate")[0]


def test_wz_rejects_nonaligned_delta():
    s = hypoelliptic_bm(GRID, RngSpec(1))
    with pytest.raises(ValueError):
        wong_zakai(s, 0.3, LINEAR)
    with pytest.raises(ValueError):
        wong_zakai(s, 1.0 / 512, LINEAR)


def test_ws_convergence_decreasing():
    table = ws_convergence_experiment([2.0 ** -2, 2.0 ** -3, 2.0 ** -4],
                                      2.0 ** -9, 400, RngSpec(1))
    est = table.column("estimate")
    assert np.all(np.diff(est) < 0)
    assert np.all(table.column("stderr") > 0)


def test_ws_convergence_smoothstep_also_converges():
    table = ws_convergence_experiment([2.0 ** -2, 2.0 ** -4], 2.0 ** -9, 200,
                                      RngSpec(2), SMOOTHSTEP)
    est = table.column("estimate")
    assert est[1] < est[0]


def test_energy_divergence_families():
    steps = [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    table = energy_divergence_experiment(steps, 64, RngSpec(3), wz_delta=2.0 ** -3)
    raw = {}
    smooth = {}
    for d, est, se, n, h, seed in table.rows:
        if d == h:
            raw[h] = (est, se)
        else:
            assert d == 2.0 ** -3
            smooth[h] = est
    assert set(raw) == set(steps) and set(smooth) == set(steps)
    for h, (est, se) in raw.items():
        assert abs(est - 2.0 / h) < 4 * se
    # subdividing straight pieces leaves the discrete energy unchanged
    vals = list(smooth.values())
    assert max(vals) - min(vals) < 1e-9


def test_levy_law_table_schema():
    table = levy_area_law_experiment(2.0 ** -7, 400, [1.0], RngSpec(6))
    assert table.columns == ["delta", "estimate", "stderr", "n_trials",
                             "fine_step", "seed"]
    assert math.isnan(table.rows[0][0])
    assert table.rows[1][0] == 1.0
    assert abs(table.rows[0][1] - 0.25) < 5 * table.rows[0][2]
    assert table.meta["targets"]["cos_1"] == 1.0 / math.cosh(0.5)
