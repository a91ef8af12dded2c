"""Brownian sampling, stochastic area, smoothing transforms."""

import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heis import sde
from heis.group import group_distance_array, omega
from heis.paths import TimeGrid, horizontal_lift, horizontality_defect
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
    np.testing.assert_array_equal(s.area, lifted.lifted_z)
    assert s.area[0] == 0.0


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
@given(planar=_planar_views(), block=st.sampled_from([1, 2, 5, 64, sde._AREA_BLOCK]))
def test_area_kernel_is_bitwise_the_old_expressions(planar, block):
    """Any block size, batch shape, row count or stride gives the bytes of
    0.5 * omega(B[:-1], diff(B)) and its running sum."""
    with mock.patch.object(sde, "_AREA_BLOCK", block):
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


@pytest.mark.parametrize("n_steps", [1, 64, 1023, 1024, 4096])
@pytest.mark.parametrize("rng", [RngSpec(78), RngSpec(-6, 2 ** 64 - 1)],
                         ids=["plain", "wraps-2^64"])
def test_sample_bm_is_row_zero_of_the_trial_source(n_steps, rng):
    grid = TimeGrid.uniform(n_steps)
    path = sample_bm(grid, rng)
    (_, paths), = _trial_chunks(grid, rng, 2)
    np.testing.assert_array_equal(path, paths[0])
    np.testing.assert_array_equal(path, _per_trial_paths(grid, rng, 1)[0])


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("rng", [RngSpec(77), RngSpec(-5, 2 ** 64 - 3)],
                         ids=["plain", "wraps-2^64"])
def test_trial_chunks_match_per_trial_generators(chunk, rng):
    """Chunked draws equal the per-trial reference bit for bit, for a trial
    count that is not a multiple of the chunk and for streams past 2^64."""
    grid = TimeGrid.uniform(32)
    n_trials = 25
    starts, parts = [], []
    for start, paths in _trial_chunks(grid, rng, n_trials, chunk=chunk):
        starts.append(start)
        parts.append(paths)
    assert starts == list(range(0, n_trials, chunk))
    np.testing.assert_array_equal(np.concatenate(parts),
                                  _per_trial_paths(grid, rng, n_trials))


@settings(max_examples=40, deadline=None)
@given(n_trials=st.integers(0, 40), chunk=st.integers(1, 16), n_steps=st.integers(1, 16))
def test_trial_chunks_match_per_trial_generators_property(n_trials, chunk, n_steps):
    grid = TimeGrid.uniform(n_steps)
    rng = RngSpec(91, 7)
    items = list(_trial_chunks(grid, rng, n_trials, chunk=chunk))
    assert [start for start, _ in items] == list(range(0, n_trials, chunk))
    drawn = np.concatenate([np.empty((0, n_steps + 1, 2))] + [p for _, p in items])
    np.testing.assert_array_equal(drawn, _per_trial_paths(grid, rng, n_trials))


@pytest.mark.parametrize("chunk", [1, 7, 37, 256])
def test_caller_assisted_chunks_match_per_trial_generators(chunk):
    """From 1024 steps on, the caller draws blocks of the chunks it waits
    for; the rows are still the per-trial reference bit for bit."""
    grid = TimeGrid.uniform(1024)
    rng = RngSpec(29, 11)
    items = list(_trial_chunks(grid, rng, 300, chunk=chunk))
    assert [start for start, _ in items] == list(range(0, 300, chunk))
    np.testing.assert_array_equal(np.concatenate([p for _, p in items]),
                                  _per_trial_paths(grid, rng, 300))


def test_coarse_grids_are_drawn_by_the_helper_alone(monkeypatch):
    """Below 1024 steps the helper draws each chunk as one block."""
    draw = sde._draw_rows
    calls = []

    def recording(rng, first, rows, s):
        calls.append((first, rows.shape[0], threading.current_thread() is threading.main_thread()))
        draw(rng, first, rows, s)

    monkeypatch.setattr(sde, "_draw_rows", recording)
    list(_trial_chunks(TimeGrid.uniform(1023), RngSpec(3), 50, chunk=16))
    assert calls == [(0, 16, False), (16, 16, False), (32, 16, False), (48, 2, False)]


def test_closing_trial_chunks_early_joins_the_helper_thread():
    for n_steps in (256, 1024):  # helper alone, and caller-assisted
        before = threading.active_count()
        chunks = _trial_chunks(TimeGrid.uniform(n_steps), RngSpec(3), 100, chunk=7)
        next(chunks)
        assert threading.active_count() == before + 1  # drawing the next chunk
        chunks.close()
        assert threading.active_count() == before


def test_draw_error_reaches_the_caller(monkeypatch):
    draw = sde._draw_rows

    def failing(rng, first, *args):
        if first > 0:
            raise RuntimeError(f"draw of trial {first} failed")
        return draw(rng, first, *args)

    monkeypatch.setattr(sde, "_draw_rows", failing)
    chunks = _trial_chunks(GRID, RngSpec(3), 20, chunk=10)
    assert next(chunks)[0] == 0
    with pytest.raises(RuntimeError, match="trial 10 failed"):
        next(chunks)


@pytest.mark.parametrize("failing_thread", ["caller", "helper"])
def test_block_draw_error_reaches_the_caller(monkeypatch, failing_thread):
    """On a caller-assisted grid, an error in a block reaches the caller
    whichever thread drew it. The other thread draws only after a block of
    the failing one has failed, so the failing thread surely claims one."""
    draw = sde._draw_rows
    failed = threading.Event()

    def failing(rng, first, rows, s):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing_thread == "caller"):
            failed.set()
            raise RuntimeError(f"{failing_thread} block failed")
        assert failed.wait(10)
        draw(rng, first, rows, s)

    monkeypatch.setattr(sde, "_draw_rows", failing)
    before = threading.active_count()
    chunks = _trial_chunks(TimeGrid.uniform(1024), RngSpec(3), 64, chunk=32)
    with pytest.raises(RuntimeError, match=f"{failing_thread} block failed"):
        next(chunks)
    assert threading.active_count() == before


def test_trial_chunks_stay_within_byte_budget():
    """Two chunks are alive at once, the one the caller reduces and the one
    being drawn, so each stays within half the budget."""
    grid = TimeGrid.uniform(2 ** 18)
    rng = RngSpec(4)
    rows = []
    for start, paths in _trial_chunks(grid, rng, 20):
        assert 2 * paths.nbytes <= _CHUNK_BYTES
        if start > 0:  # the first row of a later chunk is still trial `start`
            np.testing.assert_array_equal(paths[0], _per_trial_paths(grid, rng.child(start), 1)[0])
        rows.append(paths.shape[0])
    assert sum(rows) == 20 and len(rows) > 1


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
        np.testing.assert_array_equal(w.area[::m], levy_area(s.planar[::m]))


def test_wz_at_fine_step_is_identity():
    s = hypoelliptic_bm(GRID, RngSpec(8))
    w = wong_zakai(s, 1.0 / 256, LINEAR)
    d = group_distance_array(w.planar, w.area, s.planar, s.area)
    assert float(np.max(d)) == 0.0


def test_wz_linear_is_horizontal():
    s = hypoelliptic_bm(TimeGrid.uniform(1024), RngSpec(12))
    w = wong_zakai(s, 2.0 ** -4, LINEAR)
    assert horizontality_defect(w.horizontal) <= 1e-10


def test_wz_smoothstep_node_increments_exact():
    # both coordinates share the connector, so each fine piece is a chord and
    # the node-to-node area increment is the exact lift integral
    s = hypoelliptic_bm(TimeGrid.uniform(1024), RngSpec(12))
    w = wong_zakai(s, 2.0 ** -4, SMOOTHSTEP)
    gap = np.abs(np.diff(w.area) - area_increments(w.planar))
    assert float(np.max(gap)) <= 1e-12


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
