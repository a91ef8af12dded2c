"""Exponential martingale weights, tube conditioning, time-change diagnostics.

The reference curves are horizontal lifts of piecewise-C^2 planar curves
(built by the small grammar in the CLI). Two estimation routes exist for tube
quantities:

  - rejection sampling (exact conditioning), the primary estimator. The tube
    ladder and support positivity share one scan, _tube_scan, which reduces
    each chunk of trials to integer counts per radius, so their memory does
    not grow with the trial count. Like every estimate here, it hands the
    trial workers of sde._trial_chunks a reduce that turns each path into a
    few values, so the paths never leave the workers. Every conditioned
    estimate returns a ResultTable: a level that no trial reaches is a NaN
    row that marks the table inconclusive, even when every level is empty;
  - the mean-shift sampler: simulate centered paths, translate by phi, weight
    with the finite-grid likelihood ratio. It returns a ResultTable of tube
    probabilities, one row per radius, and serves as a cross-check of the
    rejection estimate; the shift does not remove the small-ball cost,
    because the acceptance event becomes the centered tube.

Stochastic integrals are left-point sums on the fine grid. The martingale
weight uses the exact integral of |phi'|^2 for its compensator. The shift
sampler uses the increment-based discrete likelihood ratio, which is unbiased
at any step size.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .group import _HELD, _LEAF, _area_into, _row_blocks, _scratch, group_distance_array, sq_norm
from .paths import SampledPath, TimeGrid, horizontal_lift
from .results import ResultTable, binomial_stderr, clopper_pearson_lower, mean_and_stderr, variance_and_stderr
from .rng import RngSpec
from .sde import _trial_chunks, _trial_values, levy_area

class ConsistencyError(ValueError):
    """Left-point and by-parts discretizations disagreed beyond O(h)."""


@dataclass(frozen=True)
class ReferenceCurve:
    """Horizontal lift of a smooth planar curve phi with cached functionals.

    planar_energy = int |phi'|^2, total_variation = int |phi1'| + |phi2'|
    (the constant controlling the tube regime), dd_sup = sup |phi''|.
    """

    label: str
    planar_fn: Callable
    dplanar_fn: Callable
    ddplanar_fn: Callable
    z_fn: Callable
    dz_fn: Callable
    planar_energy: float
    total_variation: float
    dd_sup: float

    @classmethod
    def line(cls, a: float, b: float) -> "ReferenceCurve":
        """Lift of t -> (a t, b t); the lift is flat (z = 0)."""
        a, b = float(a), float(b)
        return cls(
            label=f"line {a:g} {b:g}",
            planar_fn=lambda t: np.stack([a * np.asarray(t, float), b * np.asarray(t, float)], axis=-1),
            dplanar_fn=lambda t: np.stack([np.full_like(np.asarray(t, float), a), np.full_like(np.asarray(t, float), b)], axis=-1),
            ddplanar_fn=lambda t: np.zeros(np.shape(t) + (2,)),
            z_fn=lambda t: np.zeros(np.shape(t)),
            dz_fn=lambda t: np.zeros(np.shape(t)),
            planar_energy=a * a + b * b,
            total_variation=abs(a) + abs(b),
            dd_sup=0.0,
        )

    @classmethod
    def poly2(cls, a: float, b: float) -> "ReferenceCurve":
        """Lift of t -> (a t, b t^2); lifted z(t) = a b t^3 / 6."""
        a, b = float(a), float(b)
        return cls(
            label=f"poly2 {a:g} {b:g}",
            planar_fn=lambda t: np.stack([a * np.asarray(t, float), b * np.asarray(t, float) ** 2], axis=-1),
            dplanar_fn=lambda t: np.stack([np.full_like(np.asarray(t, float), a), 2.0 * b * np.asarray(t, float)], axis=-1),
            ddplanar_fn=lambda t: np.stack([np.zeros(np.shape(t)), np.full_like(np.asarray(t, float), 2.0 * b)], axis=-1),
            z_fn=lambda t: a * b * np.asarray(t, float) ** 3 / 6.0,
            dz_fn=lambda t: a * b * np.asarray(t, float) ** 2 / 2.0,
            planar_energy=a * a + 4.0 * b * b / 3.0,
            total_variation=abs(a) + abs(b),
            dd_sup=2.0 * abs(b),
        )

    def lift(self, grid: TimeGrid) -> SampledPath:
        return horizontal_lift(self.planar_fn, grid, dx_fn=self.dplanar_fn,
                               z_fn=self.z_fn, dz_fn=self.dz_fn)


def _increment_sums(coef: np.ndarray, planar: np.ndarray) -> np.ndarray:
    """sum_k <coef_k, B_{k+1} - B_k> per path of planar, shape (..., n+1, 2).

    Works through the blocks of group._row_blocks, in pooled scratch (slot
    _LEAF), so a batch takes its result and no whole-batch temporaries. Each
    row's sum makes the operations of
    np.sum(coef * np.diff(planar, axis=-2), axis=(-2, -1)) in the same order,
    so every value is bitwise the same.
    """
    planar = np.asarray(planar)
    *lead, n1, _ = planar.shape
    flat = planar.reshape(-1, n1, 2)
    out = np.empty(flat.shape[0])
    for rows in _row_blocks(flat.shape[0], 2 * n1):
        p = flat[rows]
        d = _scratch(_LEAF, (p.shape[0], n1 - 1, 2))
        np.subtract(p[:, 1:], p[:, :-1], out=d)
        np.multiply(coef, d, out=d)
        np.sum(d, axis=(-2, -1), out=out[rows])
    return out.reshape(lead)[()]


def ito_left_sum(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Left-point sum of <phi'(t_k), dB_k>; supports a leading batch axis."""
    return _increment_sums(phi.dplanar_fn(grid.times[:-1]), planar)


def ito_by_parts(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """phi'(1).B(1) - sum phi''(t_{k+1}) B(t_{k+1}) h (right-point rule).

    For piecewise-polynomial phi of degree <= 2 this reproduces the Abel
    summation of the left-point form exactly.
    """
    h = grid.step
    dphi1 = phi.dplanar_fn(np.asarray(1.0))
    end = np.sum(dphi1 * planar[..., -1, :], axis=-1)
    dd = phi.ddplanar_fn(grid.times[1:])
    corr = np.sum(dd * planar[..., 1:, :], axis=(-2, -1)) * h
    return end - corr


def _martingale_weight(phi: ReferenceCurve, left: np.ndarray) -> np.ndarray:
    """exp(-int <phi', dB> - int |phi'|^2 / 2) from the left-point sums
    left = ito_left_sum(...)."""
    return np.exp(-left - 0.5 * phi.planar_energy)


def shift_weight(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Exact finite-grid likelihood ratio for the shift B -> B + phi.

    E[F(B)] = E[weight(B) F(B + phi)] holds exactly for Gaussian increments.
    """
    h = grid.step
    dphi = np.diff(phi.planar_fn(grid.times), axis=0)
    stoch = _increment_sums(dphi, planar) / h
    quad = float(np.sum(dphi * dphi)) / h
    return np.exp(-stoch - 0.5 * quad)


# Node stride of the lower bound of a path's planar gap to a curve that
# _tube_scan's draw and tube_deviation take before the full sup.
_TUBE_STRIDE = 8


def _strided_gap(planar: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Per row of planar, (m, k, 2), its largest gap to nodes, (k, 2), over
    every _TUBE_STRIDE-th node: a lower bound of the sup over all k."""
    return np.sqrt(np.max(sq_norm(planar[:, ::_TUBE_STRIDE] - nodes[::_TUBE_STRIDE]), axis=-1))


def tube_deviation(
    phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid, cap: Optional[float] = None
) -> np.ndarray:
    """sup over nodes of |B_t - phi(t)| in the plane.

    With a cap, a path's largest gap over every _TUBE_STRIDE-th node
    (_strided_gap) is taken first. It is a lower bound of the sup, and a path
    whose bound is at least cap gets that bound instead of its sup. Every
    returned value below cap is therefore the exact sup, and every other one
    is at least cap: a caller that compares the result with radii no wider
    than cap decides exactly as with the full sup, at the cost of the strided
    pass for the paths that leave the tube early.
    """
    nodes = phi.planar_fn(grid.times)
    if cap is None:
        return np.sqrt(np.max(sq_norm(planar - nodes), axis=-1))
    rows = planar.reshape(-1, *planar.shape[-2:])
    out = _strided_gap(rows, nodes)
    near = out < cap
    out[near] = np.sqrt(np.max(sq_norm(rows[near] - nodes), axis=-1))
    return out.reshape(planar.shape[:-2])[()]


def distance_to_curve(phi: ReferenceCurve, planar: np.ndarray, area: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Uniform group distance between g = (B, A) and the lift of phi."""
    t = grid.times
    return np.max(group_distance_array(phi.planar_fn(t), phi.z_fn(t), planar, area), axis=-1)


def tube_regime_ok(phi: ReferenceCurve, delta: float, epsilon: float) -> bool:
    """Whether epsilon^2 > delta C_phi + delta^2 (the estimate's regime)."""
    return epsilon * epsilon > delta * phi.total_variation + delta * delta


def _tube_scan(phi, n_trials, rng, grid, deltas, epsilon):
    """One pass of rejection trials, reduced chunk by chunk to counts.

    Returns three integer arrays, one entry per radius in deltas: accepted
    (trials with deviation < delta), and among those below (distance <
    epsilon) and above (distance > epsilon); a trial at exactly epsilon is
    in neither. A path whose strided gap to phi on the first half of the
    grid reaches the widest radius has a sup that does too: the trial
    source's keep drops it, so it is not drawn on, not reduced, and its
    values are +inf. The workers reduce every other path to its deviation,
    capped at the widest radius (exact below it), and its distance, formed
    only inside the widest tube (+inf elsewhere); the caller only counts,
    so the counts are those of whole paths, in the memory of a chunk.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    radii = np.asarray(deltas, dtype=float)
    widest = float(radii.max())
    accepted = np.zeros(radii.size, dtype=np.int64)
    below = np.zeros_like(accepted)
    above = np.zeros_like(accepted)

    def reduce(paths):
        out = np.full((paths.shape[0], 2), np.inf)
        out[:, 0] = tube_deviation(phi, paths, grid, cap=widest)
        inside = np.flatnonzero(out[:, 0] < widest)
        sub = paths[inside]
        out[inside, 1] = distance_to_curve(phi, sub, levy_area(sub), grid)
        return out

    nodes = phi.planar_fn(grid.times)
    for _, values in _trial_chunks(grid, rng, n_trials, reduce, 2,
                                   keep=lambda p: _strided_gap(p, nodes[:p.shape[1]]) < widest):
        acc = values[:, :1] < radii
        dist = values[:, 1:]
        accepted += np.count_nonzero(acc, axis=0)
        below += np.count_nonzero(acc & (dist < epsilon), axis=0)
        above += np.count_nonzero(acc & (dist > epsilon), axis=0)
    return accepted, below, above


def tube_decay_experiment(
    phi: ReferenceCurve,
    epsilon: float,
    deltas,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
    min_accepted: int = 0,
    budget: int = 0,
) -> ResultTable:
    """Matched-seed rejection estimates of the tube exceedance over a ladder.

    All levels reuse one pass of trials, so acceptance sets are nested and the
    acceptance rate is exactly monotone in delta. While some level holds
    fewer than min_accepted accepted samples and fewer than budget trials
    have run, the raw trial count is raised (x10, at most to budget). Each
    raise scans only the new trials and adds their counts, which trial
    keying makes the same as a single scan of all n. A level that no trial
    reaches is a NaN row and marks the table inconclusive, on an all-empty
    ladder too.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    n = n_trials
    accepted, _, above = _tube_scan(phi, n, rng, grid, deltas, epsilon)
    while accepted.min() < min_accepted and n < budget:
        n_prev, n = n, min(n * 10, budget)
        more_accepted, _, more_above = _tube_scan(
            phi, n - n_prev, rng.child(n_prev), grid, deltas, epsilon)
        accepted += more_accepted
        above += more_above
    rows = []
    for d, k, exceed in zip(deltas, accepted.tolist(), above.tolist()):
        if k == 0:
            rows.append((float(d), float(epsilon), float("nan"), float("nan"), 0, n, rng.seed))
            continue
        rows.append((float(d), float(epsilon), exceed / k, binomial_stderr(exceed, k), k, n, rng.seed))
    return ResultTable(
        ["delta", "epsilon", "p_hat", "stderr", "accepted", "total", "seed"],
        rows,
        {
            "experiment": "tube",
            "phi": phi.label,
            "seed": rng.seed,
            "fine_step": fine_step,
            "n_trials": n,
            "out_of_regime": [float(d) for d in deltas if not tube_regime_ok(phi, float(d), epsilon)],
            "inconclusive": any(r[4] == 0 for r in rows),
        },
    )


def girsanov_shift_sampler(
    phi: ReferenceCurve,
    deltas,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
) -> ResultTable:
    """P(sup |B - phi| < delta) over a delta ladder, by shift plus weight.

    Simulates centered B and weights it by the discrete likelihood of
    B + phi. The shifted path leaves the tube around phi exactly when B
    leaves the centered tube, so each trial gives its weight and sup |B|,
    capped at the widest radius as in _tube_scan. A row's estimate is the
    mean of weight * (sup |B| < delta) over every trial, with its stderr.
    The weights are positive and the acceptance sets nested, so the
    estimates never increase as delta shrinks.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    origin = ReferenceCurve.line(0.0, 0.0)
    widest = max(float(d) for d in deltas)

    def reduce(paths):
        return np.stack([shift_weight(phi, paths, grid),
                         tube_deviation(origin, paths, grid, cap=widest)], axis=1)

    values = _trial_values(grid, rng, n_trials, reduce, 2)
    weights, dev = values[:, 0], values[:, 1]
    rows = []
    for d in deltas:
        est, se = mean_and_stderr(weights * (dev < float(d)))
        rows.append((float(d), est, se, n_trials, rng.seed))
    return ResultTable(
        ["delta", "estimate", "stderr", "total", "seed"],
        rows,
        {"experiment": "girsanov-shift", "phi": phi.label, "seed": rng.seed,
         "fine_step": fine_step, "n_trials": n_trials},
    )


def girsanov_ratio_experiment(
    phi: ReferenceCurve,
    deltas,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
) -> ResultTable:
    """E[martingale weight | sup |B| < delta] over a delta ladder.

    The target of the trend is exp(-planar_energy / 2). A built-in check
    verifies the two Ito discretizations agree to O(h) on every trial: the
    trial workers give each path's gap between them beside its weight and
    its deviation.
    Levels that were never hit, all of them included, appear with NaN
    estimates and mark the table inconclusive. sup |B| is capped at the
    widest radius, as in _tube_scan.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    h = grid.step
    origin = ReferenceCurve.line(0.0, 0.0)
    widest = max(float(d) for d in deltas)

    def reduce(paths):
        left = ito_left_sum(phi, paths, grid)
        return np.stack([_martingale_weight(phi, left),
                         tube_deviation(origin, paths, grid, cap=widest),
                         np.abs(left - ito_by_parts(phi, paths, grid))], axis=1)

    values = _trial_values(grid, rng, n_trials, reduce, 3)
    weights, dev = values[:, 0], values[:, 1]
    gap = float(np.max(values[:, 2], initial=0.0))
    tol = 10.0 * h * (1.0 + phi.dd_sup)
    if gap > tol:
        raise ConsistencyError(f"integration-by-parts gap {gap:.3e} exceeds {tol:.3e}")
    target = math.exp(-0.5 * phi.planar_energy)
    rows = []
    for d in deltas:
        acc = dev < float(d)
        k = int(np.sum(acc))
        est, se = mean_and_stderr(weights[acc]) if k else (float("nan"), float("nan"))
        rows.append((float(d), est, se, k, n_trials, target, rng.seed))
    mean_w, mean_w_se = mean_and_stderr(weights)
    return ResultTable(
        ["delta", "estimate", "stderr", "accepted", "total", "target", "seed"],
        rows,
        {
            "experiment": "girsanov-ratio",
            "phi": phi.label,
            "seed": rng.seed,
            "fine_step": fine_step,
            "n_trials": n_trials,
            "mean_weight": mean_w,
            "mean_weight_stderr": mean_w_se,
            "target": target,
            "inconclusive": any(r[3] == 0 for r in rows),
        },
    )


def _node_indices(grid: TimeGrid, times) -> np.ndarray:
    """The grid node of each time; ValueError for a time that is not one."""
    idx = []
    for t in times:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} is outside [0, 1]")
        j = round(t / grid.step)
        if abs(j * grid.step - t) > 1e-12:
            raise ValueError(f"time {t} is not a grid node")
        idx.append(j)
    return np.array(idx, dtype=int)


def _clock_values(planar: np.ndarray, idx: np.ndarray, h: float) -> np.ndarray:
    """Per trial: A at the nodes idx, then tau there, then B^1, B^2 of each.

    planar (..., n+1, 2) holds m trials; the result has shape (m, 4 len(idx)).
    A is the Levy area, tau the quarter integral of |B|^2 by the trapezoid
    rule. One pass over the blocks of group._row_blocks, each copied
    time-major into pooled scratch (slot _HELD) as planes (x, y, increments)
    of shape (nodes, rows): _area_into writes the area increments into the
    third plane, |B|^2 as sq_norm forms it goes into x, and the trapezoid
    terms 0.5 * (|B_k|^2 + |B_{k+1}|^2) * h into y. The running sums at the
    nodes idx, in sorted order, are reductions over the node axis, each
    started from the sum at the previous node, written into that node's
    consumed slot; these are cumsum's additions in its order, vectorised
    across rows (the -0.0 start is exact for any first term, the sign of
    zero included). Node 0 gives 0. Every value is bitwise that of levy_area
    and the trapezoid cumsum.
    """
    planar = planar.reshape(-1, *planar.shape[-2:])
    m, n1, _ = planar.shape
    k = len(idx)
    out = np.empty((m, 4 * k))
    out[:, 2 * k:] = planar[:, idx].reshape(m, 2 * k)
    nodes = np.unique(idx)
    nodes = nodes[nodes > 0].tolist()
    for rows in _row_blocks(m, 3 * n1):
        p = planar[rows]
        # A lone row would collapse the row axis, and numpy would then sum the
        # node axis pairwise: it is broadcast into two columns instead.
        cols = max(2, p.shape[0])
        block = _scratch(_HELD, (3, n1, cols))
        x, clock, area = block
        copy = block[:2].transpose(2, 1, 0)
        np.copyto(copy, p)
        _area_into(copy, area[1:].T)
        np.multiply(x, x, out=x)
        np.multiply(clock, clock, out=clock)
        np.add(x, clock, out=x)
        np.add(x[:-1], x[1:], out=clock[1:])
        np.multiply(clock[1:], 0.5, out=clock[1:])
        np.multiply(clock[1:], h, out=clock[1:])
        sums, acc = block[1:], _scratch(_LEAF, (2, cols))
        start = 1
        for j in nodes:
            np.add.reduce(sums[:, start:j + 1], axis=1, out=acc, initial=-0.0)
            sums[:, j] = acc
            start = j
        sums[:, 0] = 0.0
        o = out[rows]
        o[:, :k] = area[idx, :p.shape[0]].T
        np.multiply(clock[idx, :p.shape[0]].T, 0.25, out=o[:, k:2 * k])
    return out


def time_change_diagnostics(samples, times) -> ResultTable:
    """Variance of A_t against the mean clock E tau(t), plus independence.

    samples: iterable of SampledPaths, one trial each (hypoelliptic_bm's
    node-only paths), on a shared uniform grid; only their planar nodes are
    read. A is the Levy area of a sample's planar path, formed by
    _clock_values as dds_experiment forms it (each sample is one lone-row
    block there); for hypoelliptic_bm's samples that is bitwise their z. tau
    is the quarter integral of |B|^2, evaluated by the trapezoid rule (exact
    in mean for this integrand). Correlations are between A_t and the planar
    coordinates at the same time. A_t and B_t are uncorrelated but not
    independent (E[A_1^2 (B^1_1)^2] = 5/12, not 1/4), so the null scale of a
    correlation is sqrt(E[a^2 b^2] / (E[a^2] E[b^2]) / N) over the centred
    samples, about sqrt(5/3 / N), and that is the stderr reported.
    """
    times = [float(t) for t in times]
    values = []
    grid = None
    for sample in samples:
        if grid is None:
            grid = sample.grid
            idx = _node_indices(grid, times)
        elif sample.grid != grid:
            raise ValueError("samples live on different grids")
        values.append(_clock_values(sample.planar, idx, grid.step))
    return _clock_table(np.concatenate(values), times)


def _clock_table(values: np.ndarray, times) -> ResultTable:
    """The table of time_change_diagnostics from every trial's _clock_values."""
    k = len(times)
    a = np.ascontiguousarray(values[:, :k])
    tau = np.ascontiguousarray(values[:, k:2 * k])
    b = np.ascontiguousarray(values[:, 2 * k:]).reshape(-1, k, 2)
    n = a.shape[0]
    rows = []
    for j, t in enumerate(times):
        var, var_se = variance_and_stderr(a[:, j])
        mt, mt_se = mean_and_stderr(tau[:, j])
        c1 = float(np.corrcoef(a[:, j], b[:, j, 0])[0, 1])
        c2 = float(np.corrcoef(a[:, j], b[:, j, 1])[0, 1])
        ca = a[:, j] - np.mean(a[:, j])
        cb = b[:, j] - np.mean(b[:, j], axis=0)
        se1, se2 = np.sqrt(np.mean((ca[:, None] * cb) ** 2, axis=0)
                           / (np.mean(ca * ca) * np.mean(cb * cb, axis=0)) / n)
        rows.append((t, var, mt, c1, c2, var_se, mt_se, float(se1), float(se2)))
    return ResultTable(
        ["t", "var_A", "mean_tau", "corr_A_B1", "corr_A_B2",
         "stderr_var_A", "stderr_mean_tau", "stderr_corr_A_B1", "stderr_corr_A_B2"],
        rows,
        {"experiment": "dds-diagnostics", "n_trials": n},
    )


def dds_experiment(n_trials: int, fine_step: float, times, rng: RngSpec) -> ResultTable:
    """The time_change_diagnostics table of freshly simulated trials.

    The trial workers reduce each path to its _clock_values, one pass over
    pooled blocks, so the caller holds 4 len(times) values per trial and no
    paths.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    times = [float(t) for t in times]
    idx = _node_indices(grid, times)

    def reduce(paths):
        return _clock_values(paths, idx, grid.step)

    table = _clock_table(_trial_values(grid, rng, n_trials, reduce, 4 * len(times)), times)
    table.meta.update({"seed": rng.seed, "fine_step": fine_step, "n_trials": n_trials})
    return table


def support_positivity(
    phi: ReferenceCurve,
    epsilon: float,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
) -> ResultTable:
    """Estimate P(d(g, phi) < epsilon) with an exact 99% lower bound.

    One row: epsilon, p_hat, stderr, lower_99, hits, total, seed. The scan
    is _tube_scan with the one radius epsilon (1 + 1e-9), and the hits are
    its below count. The distance is at least the planar gap at every node,
    (|x|^4 + z^2)^(1/4) >= |x|, so no trial outside that tube can hit; the
    margin covers the few ulps by which rounding in the quartic and the 1/4
    power can put the computed distance below the computed gap.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    _, below, _ = _tube_scan(phi, n_trials, rng, grid, [epsilon * (1.0 + 1e-9)], epsilon)
    hits = int(below[0])
    return ResultTable(
        ["epsilon", "p_hat", "stderr", "lower_99", "hits", "total", "seed"],
        [(float(epsilon), hits / n_trials, binomial_stderr(hits, n_trials),
          clopper_pearson_lower(hits, n_trials, 0.99), hits, n_trials, rng.seed)],
        {"experiment": "support", "seed": rng.seed, "fine_step": fine_step},
    )
