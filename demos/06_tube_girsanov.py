"""Girsanov weights on small balls, and tube sampling by mean shift.

Two related experiments around a finite-energy reference curve phi.

First, condition the planar Brownian motion on staying in a small ball
around the origin (sup_t |B_t| < delta) and average the exponential
martingale weight for the shift toward phi. As delta shrinks this
conditional mean converges to exp(-energy(phi)/2): on a tiny ball the
stochastic integral term dies and only the energy term survives.

Second, estimate the probability of the tube around phi itself. Rejection
sampling counts paths with sup_t |B_t - phi(t)| < delta; the mean-shift
importance sampler simulates B + phi and reweights. The two must agree,
and the shifted version keeps working at radii where rejection starves.
"""

import argparse
import math

import numpy as np

from heis import (
    ReferenceCurve,
    RngSpec,
    TimeGrid,
    girsanov_ratio_experiment,
    girsanov_shift_sampler,
    sample_bm,
    support_positivity,
    tube_deviation,
)

FINE = 2.0 ** -8


def rejection_tube_probability(phi, delta, n, rng, grid):
    paths = np.stack([sample_bm(grid, rng.child(i)) for i in range(n)])
    k = int(np.sum(tube_deviation(phi, paths, grid) < delta))
    p = k / n
    return p, math.sqrt(p * (1.0 - p) / n)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=40000)
    args = ap.parse_args()

    phi = ReferenceCurve.line(1.0, 0.0)
    target = math.exp(-0.5)
    print(f"reference curve {phi.label}, planar energy 1, "
          f"target exp(-1/2) = {target:.5f}")

    table = girsanov_ratio_experiment(
        phi, [1.5, 1.0, 0.7], args.trials, RngSpec(args.seed), fine_step=FINE
    )
    print()
    print(f"E[weight | sup|B| < delta] over shrinking balls "
          f"({args.trials} trials):")
    print(f"  {'delta':>6}  {'estimate':>9}  {'stderr':>8}  {'accepted':>9}")
    for d, est, se, acc, total, _, _ in table.rows:
        print(f"  {d:6g}  {est:9.5f}  {se:8.5f}  {acc:9d}")
    print(f"  unconditional E[weight] = {table.meta['mean_weight']:.5f} "
          f"+- {table.meta['mean_weight_stderr']:.5f}  (target 1)")

    print()
    print("tube probability around phi: mean shift vs rejection:")
    n_half = args.trials // 2
    shift = girsanov_shift_sampler(phi, n_half, RngSpec(args.seed + 1), FINE)
    grid = TimeGrid.uniform(round(1.0 / FINE))
    for delta in (1.0, 0.7):
        sp, sp_se = shift.tube_probability(delta)
        rp, rp_se = rejection_tube_probability(
            phi, delta, n_half, RngSpec(args.seed + 2), grid
        )
        print(f"  delta={delta:3}: shifted {sp:.5f} +- {sp_se:.5f}, "
              f"rejection {rp:.5f} +- {rp_se:.5f}")

    print()
    print("positive mass near the lifted curve at unit scale (group distance):")
    table = support_positivity(phi, 1.0, 20000, RngSpec(args.seed), FINE)
    (_, p_hat, _, lower_99, hits, total, _), = table.rows
    print(f"  P(d(g, phi-lift) < 1) = {p_hat:.5f}, "
          f"99% lower bound {lower_99:.5f} ({hits}/{total} hits)")


if __name__ == "__main__":
    main()
