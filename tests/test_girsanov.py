"""Martingale weights, tube conditioning, time-change diagnostics."""

import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heis import girsanov, group
from heis.girsanov import (
    ConsistencyError,
    ReferenceCurve,
    dds_experiment,
    distance_to_curve,
    girsanov_ratio_experiment,
    girsanov_shift_sampler,
    ito_by_parts,
    ito_left_sum,
    shift_weight,
    support_positivity,
    time_change_diagnostics,
    tube_decay_experiment,
    tube_deviation,
    tube_regime_ok,
)
from heis.paths import SampledPath, TimeGrid, horizontality_defect
from heis.results import binomial_stderr
from heis.rng import RngSpec
from heis.group import sq_norm
from heis.sde import _trial_values, hypoelliptic_bm, levy_area, levy_area_law_experiment

GRID = TimeGrid.uniform(256)


def _paths(n, rng, grid=GRID):
    """Trials 0 .. n - 1 of rng, through a reduce that keeps whole paths."""
    return _trial_values(grid, rng, n, lambda p: p.reshape(p.shape[0], -1),
                         2 * (grid.n_steps + 1)).reshape(n, -1, 2)


class TestReferenceCurve:
    def test_line_lift_is_flat(self):
        phi = ReferenceCurve.line(2.0, -1.0)
        assert phi.z_at(1.0) == 0.0
        assert phi.planar_energy == 5.0
        assert phi.total_variation == 3.0
        assert phi.dd_sup == 0.0
        lift = phi.lift(GRID)
        assert horizontality_defect(lift) <= 1e-12
        assert float(np.max(np.abs(lift.lifted_z))) <= 1e-12

    def test_poly2_closed_forms(self):
        a, b = 1.5, -0.75
        phi = ReferenceCurve.poly2(a, b)
        assert math.isclose(float(phi.z_at(1.0)), a * b / 6.0, rel_tol=1e-14)
        energy, _ = scipy.integrate.quad(
            lambda t: np.sum(phi.dplanar_fn(t) ** 2), 0.0, 1.0
        )
        assert math.isclose(phi.planar_energy, energy, rel_tol=1e-12)
        assert phi.dd_sup == 2.0 * abs(b)
        assert horizontality_defect(phi.lift(GRID)) <= 1e-10

    def test_line_energy_quad_oracle(self):
        phi = ReferenceCurve.line(0.6, 0.8)
        energy, _ = scipy.integrate.quad(
            lambda t: np.sum(phi.dplanar_fn(t) ** 2), 0.0, 1.0
        )
        assert math.isclose(phi.planar_energy, energy, rel_tol=1e-12)
        assert math.isclose(phi.planar_energy, 1.0, rel_tol=1e-12)

    def test_zero_curve(self):
        phi = ReferenceCurve.zero()
        assert phi.planar_energy == 0.0
        assert np.all(phi.planar_at([0.3, 0.9]) == 0.0)


class TestItoDiscretizations:
    def test_by_parts_matches_left_sum(self):
        paths = _paths(40, RngSpec(11))
        for phi in (ReferenceCurve.line(1.0, -2.0), ReferenceCurve.poly2(0.5, 1.25)):
            left = ito_left_sum(phi, paths, GRID)
            parts = ito_by_parts(phi, paths, GRID)
            assert float(np.max(np.abs(left - parts))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["line", "poly2"]),
           a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           k=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1))
    def test_by_parts_agrees_with_left_sum_within_the_ratio_tolerance(self, kind, a, b, k, seed):
        """The bound girsanov_ratio_experiment enforces on every trial,
        10 h (1 + dd_sup), holds on random curves and 2^-k grids: the
        experiment raises ConsistencyError beyond it."""
        phi = getattr(ReferenceCurve, kind)(a, b)
        girsanov_ratio_experiment(phi, [1.0], 8, RngSpec(seed), 2.0 ** -k)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["line", "poly2"]), lead=st.lists(st.integers(0, 5), max_size=2),
           k=st.integers(0, 7), block=st.sampled_from([1, 2, 5, 64, group._AREA_BLOCK]),
           data=st.data())
    def test_blocked_increment_sums_are_bitwise_the_old_expressions(
            self, kind, lead, k, block, data):
        """ito_left_sum and shift_weight, worked through blocks of whole
        rows, give the bytes of their whole-batch expressions."""
        phi = getattr(ReferenceCurve, kind)(1.5, -0.75)
        grid = TimeGrid.uniform(2 ** k)
        planar = data.draw(hnp.arrays(np.float64, (*lead, 2 ** k + 1, 2),
                                      elements=st.floats(-1e3, 1e3)))
        dphi = np.diff(phi.planar_at(grid.times), axis=0)
        with np.errstate(over="ignore"):
            old_left = np.sum(phi.dplanar_fn(grid.times[:-1]) * np.diff(planar, axis=-2),
                              axis=(-2, -1))
            old_shift = np.exp(-np.sum(dphi * np.diff(planar, axis=-2), axis=(-2, -1)) / grid.step
                               - 0.5 * float(np.sum(dphi * dphi)) / grid.step)
            with mock.patch.object(group, "_AREA_BLOCK", block):
                left, shift = ito_left_sum(phi, planar, grid), shift_weight(phi, planar, grid)
        for new, old in ((left, old_left), (shift, old_shift)):
            assert np.shape(new) == np.shape(old)
            assert np.asarray(new).tobytes() == np.asarray(old).tobytes()

    def test_blocked_increment_sums_on_a_chunk_of_many_blocks(self):
        """At the module's block size, a 300-row chunk on 2^-10 takes ten
        blocks of 32 rows, the last one partial."""
        phi = ReferenceCurve.poly2(1.0, 1.0)
        grid = TimeGrid.uniform(1024)
        paths = _paths(300, RngSpec(23), grid)
        old = np.sum(phi.dplanar_fn(grid.times[:-1]) * np.diff(paths, axis=-2), axis=(-2, -1))
        assert ito_left_sum(phi, paths, grid).tobytes() == old.tobytes()

    def test_martingale_on_the_curve_itself(self):
        # B identical to phi(t) = (t, 0): the stochastic term is exactly 1
        phi = ReferenceCurve.line(1.0, 0.0)
        nodes = phi.planar_at(GRID.times)
        val = float(girsanov._martingale_weight(phi, ito_left_sum(phi, nodes, GRID)))
        assert math.isclose(val, math.exp(-1.5), rel_tol=1e-14)

    def test_martingale_mean_one(self):
        meta = girsanov_ratio_experiment(ReferenceCurve.line(1.0, 0.0), [1.0], 4000,
                                         RngSpec(21), GRID.step).meta
        assert abs(meta["mean_weight"] - 1.0) < 3 * meta["mean_weight_stderr"]

    def test_shift_weight_mean_one(self):
        phi = ReferenceCurve.poly2(1.0, 0.5)
        w = shift_weight(phi, _paths(4000, RngSpec(22)), GRID)
        se = float(np.std(w, ddof=1) / math.sqrt(w.size))
        assert abs(float(np.mean(w)) - 1.0) < 3 * se

    def test_consistency_check_catches_wrong_curvature(self):
        # second derivative data that contradicts the first derivative
        wavy = ReferenceCurve(
            label="broken",
            planar_fn=lambda t: np.stack(
                [np.sin(2 * np.pi * np.asarray(t, float)), np.zeros(np.shape(t))],
                axis=-1),
            dplanar_fn=lambda t: np.stack(
                [2 * np.pi * np.cos(2 * np.pi * np.asarray(t, float)),
                 np.zeros(np.shape(t))], axis=-1),
            ddplanar_fn=lambda t: np.zeros(np.shape(t) + (2,)),
            z_fn=lambda t: np.zeros(np.shape(t)),
            dz_fn=lambda t: np.zeros(np.shape(t)),
            planar_energy=2 * math.pi ** 2,
            total_variation=8.0,
            dd_sup=0.0,
        )
        with pytest.raises(ConsistencyError):
            girsanov_ratio_experiment(wavy, [1.0], 64, RngSpec(1), 2.0 ** -8)


class TestTubeEstimates:
    def test_regime_predicate(self):
        phi = ReferenceCurve.line(1.0, 0.0)
        assert tube_regime_ok(phi, 0.1, 0.9)
        assert not tube_regime_ok(phi, 1.0, 0.5)

    def test_out_of_regime_flag(self):
        table = tube_decay_experiment(
            ReferenceCurve.line(1.0, 0.0), 0.5, [1.0, 0.1], 500, RngSpec(2), 2.0 ** -7)
        assert table.meta["out_of_regime"] == [1.0]

    def test_matched_seed_ladder(self):
        phi = ReferenceCurve.line(1.0, 0.0)
        table = tube_decay_experiment(
            phi, 1.0, [1.5, 1.2, 1.0, 0.8], 20000, RngSpec(7), 2.0 ** -7)
        acc = table.column("accepted").astype(int)
        assert np.all(np.diff(acc) <= 0)  # nested events, one sample pass
        assert acc[-1] > 100
        p = table.column("p_hat")
        se = table.column("stderr")
        assert p[-1] < p[0]
        for i in range(len(p) - 1):
            assert p[i + 1] <= p[i] + 2 * (se[i] + se[i + 1])

    def test_ladder_partial_emptiness_marked(self):
        phi = ReferenceCurve.line(1.0, 0.0)
        table = tube_decay_experiment(phi, 0.9, [1.5, 0.01], 300, RngSpec(8), 2.0 ** -7)
        assert table.meta["inconclusive"]
        assert table.rows[1][4] == 0 and math.isnan(table.rows[1][2])

    @pytest.mark.parametrize("deltas,n,seed", [([0.01], 100, 9), ([0.02, 0.01], 200, 3)],
                             ids=["one-level", "two-level"])
    def test_all_empty_ladder_gives_nan_rows(self, deltas, n, seed):
        """A ladder no trial reaches is a table of NaN rows, inconclusive."""
        table = tube_decay_experiment(
            ReferenceCurve.line(1.0, 0.0), 0.9, deltas, n, RngSpec(seed), 2.0 ** -7)
        assert table.meta["inconclusive"] and table.meta["n_trials"] == n
        for row, delta in zip(table.rows, deltas, strict=True):
            assert row[:2] == (delta, 0.9) and row[4:] == (0, n, seed)
            assert math.isnan(row[2]) and math.isnan(row[3])

    @settings(max_examples=40, deadline=None)
    @given(deltas=st.lists(st.one_of(st.floats(0.0, 0.05), st.floats(0.05, 3.0)),
                           min_size=1, max_size=5),
           n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
           phi=st.sampled_from([ReferenceCurve.line(1.0, 0.0), ReferenceCurve.poly2(1.0, 1.0),
                                ReferenceCurve.zero()]))
    def test_ladder_counts_property(self, deltas, n, seed, phi):
        """Any ladder, unreachable radii included, gives a table whose counts
        are brute-force counts of tube_deviation < delta, nested over delta."""
        grid, rng = TimeGrid.uniform(64), RngSpec(seed)
        dev = tube_deviation(phi, _paths(n, rng, grid), grid)
        table = tube_decay_experiment(phi, 0.9, deltas, n, rng, grid.step)
        counts = [int(np.sum(dev < d)) for d in deltas]
        assert [row[4] for row in table.rows] == counts
        by_radius = [k for _, k in sorted(zip(deltas, counts), reverse=True)]
        assert all(b <= a for a, b in zip(by_radius, by_radius[1:]))
        assert table.meta["inconclusive"] == (0 in counts)
        for row in table.rows:
            assert math.isnan(row[2]) == (row[4] == 0)

    @pytest.mark.parametrize("phi", [ReferenceCurve.line(1.0, 0.0),
                                     ReferenceCurve.poly2(1.0, 1.0)],
                             ids=["line", "poly2"])
    def test_ladder_matches_per_trial_brute_force(self, phi):
        """Rows equal a per-trial count that forms every trial's distance."""
        grid = TimeGrid.uniform(128)
        rng = RngSpec(12)
        n, eps, deltas = 400, 0.9, [1.5, 1.0, 0.8]
        dev, dist = np.empty(n), np.empty(n)
        for i in range(n):
            s = hypoelliptic_bm(grid, rng.child(i))
            dev[i] = tube_deviation(phi, s.planar, grid)
            dist[i] = distance_to_curve(phi, s.planar, s.z, grid)
        assert np.any(dev >= max(deltas))  # some trials are rejected
        table = tube_decay_experiment(phi, eps, deltas, n, rng, grid.step)
        for (d, _, p, se, k, total, _), delta in zip(table.rows, deltas):
            acc = dev < delta
            exceed = int(np.sum(acc & (dist > eps)))
            assert (d, k, total) == (delta, int(np.sum(acc)), n)
            assert p == exceed / k and se == binomial_stderr(exceed, k)
        assert all(0 < row[2] < 1 for row in table.rows[:2])  # not trivially 0 or 1

    def test_min_accepted_escalates_trials(self):
        phi = ReferenceCurve.line(1.0, 0.0)
        table = tube_decay_experiment(
            phi, 1.0, [0.8], 100, RngSpec(10), 2.0 ** -7,
            min_accepted=50, budget=20000)
        assert table.meta["n_trials"] > 100
        assert int(table.rows[0][4]) >= 50

    def test_escalation_resumes_instead_of_rescanning(self, monkeypatch):
        """A x10 escalation draws only the new trials, and its rows equal one
        scan of the final trial count."""
        phi = ReferenceCurve.line(1.0, 0.0)
        n0, eps, deltas, rng = 300, 0.9, [1.2, 1.0], RngSpec(13)
        first = tube_decay_experiment(phi, eps, deltas, n0, rng, 2.0 ** -7)
        min_accepted = int(first.rows[-1][4]) + 1  # the first pass falls short
        drawn = []
        trial_chunks = girsanov._trial_chunks

        def counting(*args, **kwargs):
            for start, paths in trial_chunks(*args, **kwargs):
                drawn.append(paths.shape[0])
                yield start, paths

        monkeypatch.setattr(girsanov, "_trial_chunks", counting)
        escalated = tube_decay_experiment(phi, eps, deltas, n0, rng, 2.0 ** -7,
                                          min_accepted=min_accepted, budget=10 * n0)
        assert sum(drawn) == 10 * n0
        monkeypatch.undo()
        single = tube_decay_experiment(phi, eps, deltas, 10 * n0, rng, 2.0 ** -7)
        assert escalated.meta["n_trials"] == 10 * n0
        assert escalated.rows == single.rows
        assert all(row[4] > 0 for row in single.rows)


class TestTubeDeviationCap:
    @staticmethod
    def _check(phi, paths, grid, cap):
        full = tube_deviation(phi, paths, grid)
        capped = tube_deviation(phi, paths, grid, cap=cap)
        below = full < cap
        np.testing.assert_array_equal(capped[below], full[below])
        assert np.all(capped[~below] >= cap) and np.all(capped[~below] <= full[~below])
        for path, value in zip(paths[:3], capped):  # one path gives a scalar
            one = tube_deviation(phi, path, grid, cap=cap)
            assert np.ndim(one) == 0 and one == value
        return capped

    @pytest.mark.parametrize("n_steps", [1, 5, 7, 8, 9, 20, 127, 128, 1023])
    def test_exact_below_the_cap_and_at_least_the_cap_above(self, n_steps):
        """Grids shorter than the stride, and node counts that the stride
        does not divide, included."""
        phi = ReferenceCurve.poly2(1.0, 1.0)
        grid = TimeGrid.uniform(n_steps)
        paths = _paths(200, RngSpec(40 + n_steps), grid)
        full = tube_deviation(phi, paths, grid)
        bounded = 0
        for cap in [0.0, *np.quantile(full, [0.1, 0.5, 0.9]), full[7], np.inf]:
            capped = self._check(phi, paths, grid, cap)
            bounded += int(np.sum(capped != full))
        assert bounded > 0 or n_steps < 8  # the strided bound is used

    @settings(max_examples=40, deadline=None)
    @given(n_steps=st.integers(1, 40), n_paths=st.integers(0, 12),
           q=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_cap_property(self, n_steps, n_paths, q, seed):
        phi = ReferenceCurve.line(1.0, 0.0)
        grid = TimeGrid.uniform(n_steps)
        paths = _paths(n_paths, RngSpec(seed), grid) if n_paths else np.empty((0, n_steps + 1, 2))
        full = tube_deviation(phi, paths, grid)
        cap = float(np.quantile(full, q)) if n_paths else 1.0
        self._check(phi, paths, grid, cap)


class TestTubeScan:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["line", "poly2"]), a=st.floats(-1.5, 1.5),
           b=st.floats(-1.5, 1.5), k=st.integers(3, 10),
           radii=st.lists(st.floats(0.3, 1.5), min_size=1, max_size=3),
           epsilon=st.floats(0.3, 1.5), n=st.integers(1, 60), seed=st.integers(0, 2 ** 16))
    def test_counts_equal_full_path_counts(self, kind, a, b, k, radii, epsilon, n, seed):
        """Dropping the trials that leave the widest tube on the first half of
        the grid, and capping the deviation, change no count: the counts are
        those of whole paths with the uncapped deviation."""
        phi = getattr(ReferenceCurve, kind)(a, b)
        grid, rng = TimeGrid.uniform(2 ** k), RngSpec(seed, 3)
        paths = _paths(n, rng, grid)
        dev = tube_deviation(phi, paths, grid)[:, None]
        dist = distance_to_curve(phi, paths, levy_area(paths), grid)[:, None]
        acc = dev < np.array(radii)
        accepted, below, above = girsanov._tube_scan(phi, n, rng, grid, radii, epsilon)
        np.testing.assert_array_equal(accepted, np.count_nonzero(acc, axis=0))
        np.testing.assert_array_equal(below, np.count_nonzero(acc & (dist < epsilon), axis=0))
        np.testing.assert_array_equal(above, np.count_nonzero(acc & (dist > epsilon), axis=0))


    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        """Tube and support share the scan, and both refuse such an epsilon."""
        phi = ReferenceCurve.line(1.0, 0.0)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            tube_decay_experiment(phi, epsilon, [0.9], 10, RngSpec(1), 2.0 ** -6)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            support_positivity(phi, epsilon, 10, RngSpec(1), 2.0 ** -6)


class TestShiftSampler:
    def test_tube_probability_matches_rejection(self):
        phi = ReferenceCurve.line(1.0, 0.0)
        n = 20000
        grid = TimeGrid.uniform(128)
        # rejection estimate of P(sup |B - phi| < 1)
        dev = tube_deviation(phi, _paths(n, RngSpec(30), grid), grid)
        k = int(np.sum(dev < 1.0))
        p_rej = k / n
        se_rej = math.sqrt(p_rej * (1 - p_rej) / n)
        res = girsanov_shift_sampler(phi, n, RngSpec(31), 2.0 ** -7)
        p_shift, se_shift = res.tube_probability(1.0)
        assert abs(p_shift - p_rej) < 3 * (se_rej + se_shift)


class TestRatioExperiment:
    def test_trend_toward_small_ball_limit(self):
        phi = ReferenceCurve.line(1.0, 0.0)
        table = girsanov_ratio_experiment(phi, [1.5, 1.0, 0.7], 30000,
                                          RngSpec(40), 2.0 ** -7)
        target = table.meta["target"]
        assert target == math.exp(-0.5)
        est = table.column("estimate")
        assert abs(est[-1] - target) < abs(est[0] - target)
        mw = table.meta["mean_weight"]
        assert abs(mw - 1.0) < 4 * table.meta["mean_weight_stderr"]

    def test_all_levels_empty_is_inconclusive(self):
        table = girsanov_ratio_experiment(ReferenceCurve.line(1.0, 0.0), [0.02, 0.01],
                                          100, RngSpec(41), 2.0 ** -7)
        assert table.meta["inconclusive"]
        assert [row[3:5] for row in table.rows] == [(0, 100), (0, 100)]
        assert all(math.isnan(row[1]) and math.isnan(row[2]) for row in table.rows)


class TestTimeChange:
    def test_variance_matches_clock(self):
        table = dds_experiment(4000, 2.0 ** -7, [0.5, 1.0], RngSpec(50))
        for t, var, mt, c1, c2, var_se, mt_se, c1_se, c2_se in table.rows:
            assert abs(var - mt) < 3 * (var_se + mt_se)
            assert abs(var - t * t / 4) < 4 * var_se
            assert abs(c1) < 4 * c1_se and abs(c2) < 4 * c2_se

    def test_times_must_be_grid_nodes(self):
        """Off the grid, or a multiple of the step outside [0, 1]."""
        for t in (0.3, 2.0, -0.25):
            with pytest.raises(ValueError):
                dds_experiment(10, 2.0 ** -7, [t], RngSpec(51))

    def test_batched_samples_give_the_per_trial_table(self):
        grid, rng, times = TimeGrid.uniform(128), RngSpec(52), [0.25, 0.5, 1.0]
        paths = _paths(300, rng, grid)
        areas = levy_area(paths)
        per_trial = [SampledPath(grid, p, a, "nodes") for p, a in zip(paths, areas)]
        table = time_change_diagnostics(per_trial, times)
        assert dds_experiment(300, grid.step, times, rng).rows == table.rows

    def test_diagnostics_read_the_area_of_the_planar_path(self):
        """time_change_diagnostics forms A from each sample's planar path,
        which for hypoelliptic_bm's samples is bitwise their z."""
        grid, times = TimeGrid.uniform(64), [0.25, 0.5, 1.0]
        samples = [hypoelliptic_bm(grid, RngSpec(53, i)) for i in range(50)]
        zeroed = [SampledPath(grid, s.planar, np.zeros_like(s.z), "nodes") for s in samples]
        assert time_change_diagnostics(zeroed, times).rows == \
            time_change_diagnostics(samples, times).rows


def _old_clock_values(planar, idx, h):
    """The dds values as formed before the fused kernel: levy_area, and the
    trapezoid rule's running sum over sq_norm."""
    planar = planar.reshape(-1, *planar.shape[-2:])
    area = levy_area(planar)
    sq = sq_norm(planar)
    cum = np.zeros(sq.shape)
    np.cumsum(0.5 * (sq[:, :-1] + sq[:, 1:]) * h, axis=-1, out=cum[:, 1:])
    return np.concatenate([area[:, idx], 0.25 * cum[:, idx],
                           planar[:, idx].reshape(sq.shape[0], 2 * len(idx))], axis=1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(0, 40), step=st.integers(1, 2),
       block=st.sampled_from([1, 7, 64, 301, group._AREA_BLOCK]),
       inner=st.lists(st.integers(0, 300), max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_clock_is_bitwise_levy_area_and_the_trapezoid_cumsum(n, m, step, block, inner, seed):
    """Any node count, row count, row stride and block size (n + 1 nodes
    above and below it), at times that include 0 and 1: the one-pass kernel
    gives the bytes of levy_area and the trapezoid cumsum."""
    rng = np.random.default_rng(seed)
    planar = np.cumsum(rng.standard_normal((m * step, n + 1, 2)), axis=1)[::step]
    grid = TimeGrid.uniform(n)
    idx = girsanov._node_indices(grid, [0.0, *(j % (n + 1) / n for j in inner), 1.0])
    with mock.patch.object(group, "_AREA_BLOCK", block):
        new = girsanov._clock_values(planar, idx, grid.step)
    old = _old_clock_values(planar, idx, grid.step)
    assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_pooled_scratch_reused_in_turns_gives_the_values_of_fresh_buffers(monkeypatch):
    """Shape A, then a longer shape B that grows the pool, then A again on
    B's leftovers: each kernel gives the bytes it gives on a fresh pool."""
    gen = np.random.default_rng(33)
    shapes = [(40, 1025), (2, 70001), (40, 1025)]
    paths = [np.cumsum(gen.standard_normal((m, n1, 2)), axis=1) for m, n1 in shapes]
    coefs = [gen.standard_normal((n1 - 1, 2)) for _, n1 in shapes]

    def values(p, coef):
        n = p.shape[1] - 1
        return [levy_area(p), girsanov._clock_values(p, np.array([0, n // 3, n]), 1.0 / n),
                girsanov._increment_sums(coef, p)]

    fresh = []
    for p, coef in zip(paths, coefs):
        monkeypatch.setattr(group, "_SCRATCH", [np.empty(0), np.empty(0)])
        fresh.append(values(p, coef))
    monkeypatch.setattr(group, "_SCRATCH", [np.empty(0), np.empty(0)])
    for (p, coef), want in zip(zip(paths, coefs), fresh):
        assert [v.tobytes() for v in values(p, coef)] == [v.tobytes() for v in want]


def test_scratch_slots_never_alias():
    held = group._scratch(group._HELD, (300, 5), np.complex128)
    leaf = group._scratch(group._LEAF, (70000,))
    assert not np.shares_memory(held, leaf)
    assert np.shares_memory(leaf, group._scratch(group._LEAF, (3, 4)))
    assert held.flags.c_contiguous and held.dtype == np.complex128


# Run in a fresh interpreter, as perfbench runs a command: how often a
# temporary maps fresh pages depends on what the process allocated before.
_FAULT_PROBE = """
import resource, sys
from heis.girsanov import dds_experiment
from heis.rng import RngSpec
from heis.sde import levy_area_law_experiment
run = {
    "dds": lambda n: dds_experiment(n, 2.0 ** -10, [0.25, 0.5, 1.0], RngSpec(90)),
    "levy-law": lambda n: levy_area_law_experiment(2.0 ** -10, n, [1.0], RngSpec(91)),
}[sys.argv[1]]
def faults(n_trials):
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    run(n_trials)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
few, many = faults(4 * 128), faults(36 * 128)
print((many - few) / 32)
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of forked trial workers on Linux")
@pytest.mark.parametrize("name", ["dds", "levy-law"])
def test_forked_pass_faults_few_pages_per_chunk(name):
    """The workers' minor page faults grow by under 100 per extra 128-row
    chunk at 2^-10: their kernels reuse pooled scratch instead of mapping
    fresh temporaries, which took about 1 000 (dds) and 450 (levy-law) a
    chunk."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, name], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def _peak_traced_bytes(run, n):
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [
    lambda n: support_positivity(ReferenceCurve.line(1.0, 0.0), 1.0, n, RngSpec(80), 2.0 ** -6),
    lambda n: tube_decay_experiment(ReferenceCurve.line(1.0, 0.0), 0.9, [0.9, 0.8, 0.7, 0.6],
                                    n, RngSpec(81), 2.0 ** -6),
], ids=["support", "tube"])
def test_scan_memory_does_not_grow_with_trials(run):
    """Tube and support reduce each chunk to counts, so 64 times the trials
    leave the peak traced allocation within one chunk of paths; one float
    per trial would add 512 kB here, two would add 1 MB."""
    chunk = 256 * 65 * 16  # rows x nodes x (2 float64) of a 2^-6 chunk
    run(256)  # first-call allocations (imports, caches) stay out of the peaks
    small, large = _peak_traced_bytes(run, 1024), _peak_traced_bytes(run, 65536)
    assert abs(large - small) < chunk


def _support_row(*args):
    table = support_positivity(*args)
    assert table.columns == ["epsilon", "p_hat", "stderr", "lower_99", "hits", "total", "seed"]
    (row,) = table.rows
    return dict(zip(table.columns, row))


class TestSupport:
    def test_positive_mass_near_flat_curve(self):
        est = _support_row(ReferenceCurve.zero(), 1.5, 4000, RngSpec(60), 2.0 ** -7)
        assert est["hits"] > 0 and est["total"] == 4000 and est["seed"] == 60
        assert est["p_hat"] == est["hits"] / 4000
        assert 0.0 < est["lower_99"] < est["p_hat"]

    @pytest.mark.parametrize("phi", [ReferenceCurve.line(1.0, 0.0), ReferenceCurve.zero(),
                                     ReferenceCurve.poly2(1.0, 1.0)],
                             ids=["line", "zero", "poly2"])
    def test_hits_match_per_trial_brute_force(self, phi):
        """Skipping trials outside the planar tube loses no hit."""
        grid, n, rng = TimeGrid.uniform(128), 1500, RngSpec(62)
        dist = np.empty(n)
        for i in range(n):
            s = hypoelliptic_bm(grid, rng.child(i))
            dist[i] = distance_to_curve(phi, s.planar, s.z, grid)
        hits = []
        for eps in (0.3, 0.6, 1.0, 1.5):
            hits.append(_support_row(phi, eps, n, rng, grid.step)["hits"])
            assert hits[-1] == int(np.sum(dist < eps))
        assert any(0 < k < n for k in hits)

    def test_zero_hits_gives_zero_bound(self):
        est = _support_row(ReferenceCurve.line(8.0, 8.0), 0.1, 200, RngSpec(61), 2.0 ** -7)
        assert est["hits"] == 0
        assert est["p_hat"] == 0.0
        assert est["lower_99"] == 0.0


def test_distance_dominates_planar_deviation():
    """The group distance to the lift is at least the planar gap."""
    phi = ReferenceCurve.poly2(1.0, 0.5)
    grid = TimeGrid.uniform(128)
    paths = _paths(50, RngSpec(70), grid)
    dev = tube_deviation(phi, paths, grid)
    dist = distance_to_curve(phi, paths, levy_area(paths), grid)
    assert np.all(dist >= dev - 1e-12)
