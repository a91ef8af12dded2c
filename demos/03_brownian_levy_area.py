"""Hypoelliptic Brownian motion and the law of its area component.

g_t = (B_t, A_t) pairs a planar Brownian motion with its running signed
area (the left-point stochastic integral of omega(B, dB)/2). The script
draws one path, prints a few checkpoints, and then estimates the moments
of A_1: the variance is 1/4 and E[cos(lambda A_1)] = 1/cosh(lambda/2).
"""

import argparse
import math

from heis import RngSpec, TimeGrid, hypoelliptic_bm, levy_area_law_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--step", type=float, default=2.0 ** -10)
    args = ap.parse_args()

    grid = TimeGrid.uniform(round(1.0 / args.step))
    s = hypoelliptic_bm(grid, RngSpec(args.seed))
    print(f"one sample at step {args.step:g} (seed {args.seed}):")
    for frac in (0.25, 0.5, 1.0):
        i = round(frac * grid.n_steps)
        print(f"  t={frac:4}: B = ({s.planar[i, 0]:+.4f}, {s.planar[i, 1]:+.4f}), "
              f"A = {s.z[i]:+.4f}")

    print()
    print(f"law of A_1 from {args.trials} trials:")
    table = levy_area_law_experiment(
        args.step, args.trials, [0.5, 1.0, 2.0], RngSpec(args.seed)
    )
    est = table.column("estimate")
    se = table.column("stderr")
    lam = table.column("delta")

    print(f"  Var(A_1)        = {est[0]:.5f} +- {se[0]:.5f}   (target 0.25)")
    for j in range(1, len(est)):
        target = 1.0 / math.cosh(lam[j] / 2.0)
        print(f"  E[cos({lam[j]:g} A_1)]{' ' * (4 - len(f'{lam[j]:g}'))}= "
              f"{est[j]:.5f} +- {se[j]:.5f}   (target {target:.5f})")

    print()
    print("targets stored with the table:",
          {k: round(v, 6) for k, v in table.meta["targets"].items()})


if __name__ == "__main__":
    main()
