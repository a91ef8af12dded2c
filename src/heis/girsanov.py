"""Exponential martingale weights, tube conditioning, time-change diagnostics.

The reference curves are horizontal lifts of piecewise-C^2 planar curves
(built by the small grammar in the CLI). Two estimation routes exist for tube
quantities:

  - rejection sampling (exact conditioning), the primary estimator;
  - the mean-shift sampler: simulate centered paths, translate by phi, weight
    with the finite-grid likelihood ratio. It serves as a cross-check; the
    shift does not remove the small-ball cost, because the acceptance event
    becomes the centered tube.

Stochastic integrals are left-point sums on the fine grid. The martingale
weight uses the exact integral of |phi'|^2 for its compensator. The shift
sampler uses the increment-based discrete likelihood ratio, which is unbiased
at any step size.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .group import group_distance_array, sq_norm
from .paths import HorizontalCurve, SampledPath, TimeGrid, horizontal_lift
from .results import ResultTable, binomial_stderr, clopper_pearson_lower, mean_and_stderr, variance_and_stderr
from .rng import RngSpec
from .sde import DiffusionSample, _trial_chunks, levy_area

# Columns of the tube and girsanov-ratio tables; the CLI writes them alone
# when no trial lands in any tube.
TUBE_COLUMNS = ("delta", "epsilon", "p_hat", "stderr", "accepted", "total", "seed")
RATIO_COLUMNS = ("delta", "estimate", "stderr", "accepted", "total", "target", "seed")


class InsufficientAcceptanceError(RuntimeError):
    """Conditioning event was never hit; carries the raw counts."""

    def __init__(self, accepted: int, total: int, context: str = ""):
        self.accepted = accepted
        self.total = total
        msg = f"conditioning event hit {accepted} of {total} trials"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed (effective sample size < 10)."""

    def __init__(self, ess: float):
        self.ess = ess
        super().__init__(f"effective sample size {ess:.2f} < 10")


class ConsistencyError(AssertionError):
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

    @classmethod
    def zero(cls) -> "ReferenceCurve":
        return cls.line(0.0, 0.0)

    def planar_at(self, times) -> np.ndarray:
        return self.planar_fn(np.asarray(times, float))

    def z_at(self, times) -> np.ndarray:
        return self.z_fn(np.asarray(times, float))

    def sampled(self, grid: TimeGrid) -> SampledPath:
        return SampledPath(grid, self.planar_at(grid.times), self.z_at(grid.times), "linear")

    def lift(self, grid: TimeGrid) -> HorizontalCurve:
        return horizontal_lift(self.planar_fn, grid, dx_fn=self.dplanar_fn,
                               z_fn=self.z_fn, dz_fn=self.dz_fn)


def ito_left_sum(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Left-point sum of <phi'(t_k), dB_k>; supports a leading batch axis."""
    dphi = phi.dplanar_fn(grid.times[:-1])
    db = np.diff(planar, axis=-2)
    return np.sum(dphi * db, axis=(-2, -1))


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


def consistency_gap(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> float:
    return float(np.max(np.abs(ito_left_sum(phi, planar, grid) - ito_by_parts(phi, planar, grid))))


def exp_martingale(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """exp(-int <phi', dB> - int |phi'|^2 / 2), left-point Ito discretization."""
    return np.exp(-ito_left_sum(phi, planar, grid) - 0.5 * phi.planar_energy)


def shift_weight(phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Exact finite-grid likelihood ratio for the shift B -> B + phi.

    E[F(B)] = E[weight(B) F(B + phi)] holds exactly for Gaussian increments.
    """
    h = grid.step
    dphi = np.diff(phi.planar_at(grid.times), axis=0)
    db = np.diff(planar, axis=-2)
    stoch = np.sum(dphi * db, axis=(-2, -1)) / h
    quad = float(np.sum(dphi * dphi)) / h
    return np.exp(-stoch - 0.5 * quad)


# Node stride of the lower bound that tube_deviation takes before the full sup.
_TUBE_STRIDE = 8


def tube_deviation(
    phi: ReferenceCurve, planar: np.ndarray, grid: TimeGrid, cap: Optional[float] = None
) -> np.ndarray:
    """sup over nodes of |B_t - phi(t)| in the plane.

    With a cap, a path's largest gap over every 8th node is taken first. It
    is a lower bound of the sup, computed by the same expression, and a path
    whose bound is at least cap gets that bound instead of its sup. Every
    returned value below cap is therefore the exact sup, and every other one
    is at least cap: a caller that compares the result with radii no wider
    than cap decides exactly as with the full sup, at the cost of the strided
    pass for the paths that leave the tube early.
    """
    nodes = phi.planar_at(grid.times)
    if cap is None:
        return np.sqrt(np.max(sq_norm(planar - nodes), axis=-1))
    rows = planar.reshape(-1, *planar.shape[-2:])
    out = np.sqrt(np.max(sq_norm(rows[:, ::_TUBE_STRIDE] - nodes[::_TUBE_STRIDE]), axis=-1))
    near = out < cap
    out[near] = np.sqrt(np.max(sq_norm(rows[near] - nodes), axis=-1))
    return out.reshape(planar.shape[:-2])[()]


def distance_to_curve(phi: ReferenceCurve, planar: np.ndarray, area: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Uniform group distance between g = (B, A) and the lift of phi."""
    pp = phi.planar_at(grid.times)
    pz = phi.z_at(grid.times)
    return np.max(group_distance_array(pp, pz, planar, area), axis=-1)


def tube_regime_ok(phi: ReferenceCurve, delta: float, epsilon: float) -> bool:
    """Whether epsilon^2 > delta C_phi + delta^2 (the estimate's regime)."""
    return epsilon * epsilon > delta * phi.total_variation + delta * delta


def _tube_scan(phi, n_trials, rng, grid, delta_max):
    """One pass of rejection trials; returns per-trial (deviation, distance).

    The deviation is exact for trials inside the widest tube (deviation <
    delta_max); every other trial gets a lower bound of it that is at least
    delta_max (tube_deviation's cap), so it is rejected at every level as
    before. The area and the distance are formed only for trials inside the
    widest tube; every other trial gets distance NaN. A rejected trial's
    distance is never read, and each trial's distance is a row-wise
    function of its own path, so the estimates are unchanged.
    """
    dev = np.empty(n_trials)
    dist = np.full(n_trials, np.nan)
    for start, paths in _trial_chunks(grid, rng, n_trials):
        nb = paths.shape[0]
        d = tube_deviation(phi, paths, grid, cap=delta_max)
        dev[start:start + nb] = d
        inside = np.flatnonzero(d < delta_max)
        sub = paths[inside]
        dist[start + inside] = distance_to_curve(phi, sub, levy_area(sub), grid)
    return dev, dist


def tube_decay_experiment(
    phi: ReferenceCurve,
    epsilon: float,
    deltas,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
    min_accepted: Optional[int] = None,
    budget: Optional[int] = None,
) -> ResultTable:
    """Matched-seed rejection estimates of the tube exceedance over a ladder.

    All levels reuse one pass of trials, so acceptance sets are nested and the
    acceptance rate is exactly monotone in delta. If min_accepted is given,
    the raw trial count is raised (x10) until every level holds that many
    accepted samples or the budget is exhausted. Each raise scans only the
    new trials and appends them, which trial keying makes the same as a
    single scan of all n.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    widest = max(float(d) for d in deltas)
    n = n_trials
    dev, dist = _tube_scan(phi, n, rng, grid, widest)
    while True:
        counts = [int(np.sum(dev < d)) for d in deltas]
        if min_accepted is None or min(counts) >= min_accepted:
            break
        if budget is None or n >= budget:
            break
        n_prev, n = n, min(n * 10, budget)
        more_dev, more_dist = _tube_scan(phi, n - n_prev, rng.child(n_prev), grid, widest)
        dev = np.concatenate([dev, more_dev])
        dist = np.concatenate([dist, more_dist])
    if max(counts) == 0:
        raise InsufficientAcceptanceError(0, n, f"all levels empty, phi={phi.label}")
    rows = []
    for d in deltas:
        acc = dev < d
        k = int(np.sum(acc))
        if k == 0:
            rows.append((float(d), float(epsilon), float("nan"), float("nan"), 0, n, rng.seed))
            continue
        exceed = int(np.sum(acc & (dist > epsilon)))
        rows.append((float(d), float(epsilon), exceed / k, binomial_stderr(exceed, k), k, n, rng.seed))
    return ResultTable(
        list(TUBE_COLUMNS),
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


@dataclass(frozen=True)
class ShiftSamplerResult:
    """Weighted samples from the mean-shift proposal B + phi."""

    phi_label: str
    weights: np.ndarray  # finite-grid likelihood ratio per trial
    centered_dev: np.ndarray  # sup |B| per trial (tube event after shifting)
    shifted_distance: np.ndarray  # d(g(B + phi), phi) per trial
    seed: int

    def mean_weight(self):
        return mean_and_stderr(self.weights)

    def tube_probability(self, delta: float):
        """Estimate of P(sup |B - phi| < delta) by shift plus weight."""
        vals = self.weights * (self.centered_dev < delta)
        return mean_and_stderr(vals)

    def conditional_exceedance(self, delta: float, epsilon: float):
        """Weighted estimate of P(d > epsilon | tube); checks weight health."""
        acc = self.centered_dev < delta
        w = self.weights[acc]
        if w.size == 0:
            raise InsufficientAcceptanceError(0, self.weights.size, f"delta={delta}")
        ess = float(np.sum(w) ** 2 / np.sum(w * w))
        if ess < 10.0:
            raise DegenerateWeightsError(ess)
        x = (self.shifted_distance[acc] > epsilon).astype(float)
        total = float(np.sum(w))
        p = float(np.sum(w * x) / total)
        se = float(np.sqrt(np.sum((w * (x - p)) ** 2)) / total)
        return p, se, ess


def girsanov_shift_sampler(
    phi: ReferenceCurve,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
) -> ShiftSamplerResult:
    """Simulate centered B, form B + phi, weight by the discrete likelihood.

    The area of the shifted path is the same left-point functional applied to
    the shifted node values, so every estimate is a plain path functional.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    nodes = phi.planar_at(grid.times)
    w = np.empty(n_trials)
    dev = np.empty(n_trials)
    dist = np.empty(n_trials)
    for start, paths in _trial_chunks(grid, rng, n_trials):
        nb = paths.shape[0]
        w[start:start + nb] = shift_weight(phi, paths, grid)
        dev[start:start + nb] = np.sqrt(np.max(sq_norm(paths), axis=-1))
        shifted = paths + nodes
        dist[start:start + nb] = distance_to_curve(phi, shifted, levy_area(shifted), grid)
    return ShiftSamplerResult(phi.label, w, dev, dist, rng.seed)


def girsanov_ratio_experiment(
    phi: ReferenceCurve,
    deltas,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
) -> ResultTable:
    """E[martingale weight | sup |B| < delta] over a delta ladder.

    The target of the trend is exp(-planar_energy / 2). A built-in check
    verifies the two Ito discretizations agree to O(h) on the first chunk.
    Levels that were never hit appear with NaN estimates and mark the table
    inconclusive; if no level is ever hit the experiment raises.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    h = grid.step
    weights = np.empty(n_trials)
    dev = np.empty(n_trials)
    checked = False
    for start, paths in _trial_chunks(grid, rng, n_trials):
        nb = paths.shape[0]
        if not checked:
            gap = consistency_gap(phi, paths, grid)
            tol = 10.0 * h * (1.0 + phi.dd_sup)
            if gap > tol:
                raise ConsistencyError(
                    f"integration-by-parts gap {gap:.3e} exceeds {tol:.3e}"
                )
            checked = True
        weights[start:start + nb] = exp_martingale(phi, paths, grid)
        dev[start:start + nb] = np.sqrt(np.max(sq_norm(paths), axis=-1))
    target = math.exp(-0.5 * phi.planar_energy)
    rows = []
    for d in deltas:
        acc = dev < float(d)
        k = int(np.sum(acc))
        if k == 0:
            rows.append((float(d), float("nan"), float("nan"), 0, n_trials, target, rng.seed))
            continue
        est, se = mean_and_stderr(weights[acc]) if k > 1 else (float(weights[acc][0]), float("nan"))
        rows.append((float(d), est, se, k, n_trials, target, rng.seed))
    if all(r[3] == 0 for r in rows):
        raise InsufficientAcceptanceError(0, n_trials, "every delta level empty")
    mean_w, mean_w_se = mean_and_stderr(weights)
    return ResultTable(
        list(RATIO_COLUMNS),
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


def time_change_diagnostics(samples, times) -> ResultTable:
    """Variance of A_t against the mean clock E tau(t), plus independence.

    samples: iterable of DiffusionSample on a shared uniform grid, each one
    trial or a batch of trials along a leading axis of planar and area. tau
    is the quarter integral of |B|^2, evaluated by the trapezoid rule (exact
    in mean for this integrand). Correlations are between A_t and the planar
    coordinates at the same time. A_t and B_t are uncorrelated but not
    independent (E[A_1^2 (B^1_1)^2] = 5/12, not 1/4), so the null scale of a
    correlation is sqrt(E[a^2 b^2] / (E[a^2] E[b^2]) / N) over the centred
    samples, about sqrt(5/3 / N), and that is the stderr reported.
    """
    times = [float(t) for t in times]
    a_vals, tau_vals, b_vals = [], [], []
    grid = None
    idx = None
    for sample in samples:
        if grid is None:
            grid = sample.grid
            h = grid.step
            idx = []
            for t in times:
                j = round(t / h)
                if abs(j * h - t) > 1e-12:
                    raise ValueError(f"time {t} is not a grid node")
                idx.append(j)
            idx = np.array(idx, dtype=int)
        elif sample.grid != grid:
            raise ValueError("samples live on different grids")
        planar = sample.planar.reshape(-1, *sample.planar.shape[-2:])
        sq = sq_norm(planar)
        cum = np.zeros(sq.shape)
        np.cumsum(0.5 * (sq[:, :-1] + sq[:, 1:]) * h, axis=-1, out=cum[:, 1:])
        a_vals.append(sample.area.reshape(sq.shape)[:, idx])
        tau_vals.append(0.25 * cum[:, idx])
        b_vals.append(planar[:, idx])
    a = np.concatenate(a_vals)
    tau = np.concatenate(tau_vals)
    b = np.concatenate(b_vals)
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
    """time_change_diagnostics over freshly simulated trial-keyed samples."""
    grid = TimeGrid.uniform(round(1.0 / fine_step))

    batches = (DiffusionSample(grid, paths, levy_area(paths), rng.child(start))
               for start, paths in _trial_chunks(grid, rng, n_trials))
    table = time_change_diagnostics(batches, times)
    table.meta.update({"seed": rng.seed, "fine_step": fine_step, "n_trials": n_trials})
    return table


@dataclass(frozen=True)
class SupportEstimate:
    epsilon: float
    p_hat: float
    stderr: float
    lower_99: float
    hits: int
    total: int
    seed: int


def support_positivity(
    phi: ReferenceCurve,
    epsilon: float,
    n_trials: int,
    rng: RngSpec,
    fine_step: float = 2.0 ** -10,
) -> SupportEstimate:
    """Estimate P(d(g, phi) < epsilon) with an exact 99% lower bound.

    The area and the distance are formed only for trials whose planar
    deviation is below epsilon (1 + 1e-9). The distance is at least the
    planar gap at every node, (|x|^4 + z^2)^(1/4) >= |x|, so no other trial
    can hit; the margin covers the few ulps by which rounding in the quartic
    and the 1/4 power can put the computed distance below the computed gap.
    """
    grid = TimeGrid.uniform(round(1.0 / fine_step))
    hits = 0
    for start, paths in _trial_chunks(grid, rng, n_trials):
        cap = epsilon * (1.0 + 1e-9)
        near = paths[tube_deviation(phi, paths, grid, cap=cap) < cap]
        dist = distance_to_curve(phi, near, levy_area(near), grid)
        hits += int(np.sum(dist < epsilon))
    p = hits / n_trials
    return SupportEstimate(
        epsilon=float(epsilon),
        p_hat=p,
        stderr=binomial_stderr(hits, n_trials),
        lower_99=clopper_pearson_lower(hits, n_trials, 0.99),
        hits=hits,
        total=n_trials,
        seed=rng.seed,
    )
