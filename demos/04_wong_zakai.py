"""Piecewise-smooth approximations of the diffusion and their limit.

Sampling Brownian motion on a coarse mesh and interpolating gives an
ordinary differentiable curve; its horizontal lift is a bona fide path in
the group. Two facts are on display. First, at the coarse nodes the lifted
area agrees bit for bit with the left-point area sums of the coarse
Brownian increments, so the smooth approximation is an exact coupling at
its own resolution. Second, as the mesh shrinks the lifted paths converge
to the diffusion in mean square, uniformly in time.
"""

import numpy as np

from heis import (
    LINEAR,
    SMOOTHSTEP,
    RngSpec,
    TimeGrid,
    hypoelliptic_bm,
    levy_area,
    wong_zakai,
    ws_convergence_experiment,
)

FINE = 2.0 ** -9
TRIALS = 600
SEED = 1


def main():
    grid = TimeGrid.uniform(round(1.0 / FINE))
    s = hypoelliptic_bm(grid, RngSpec(SEED))

    print("coarse-node coupling (one path, delta = 1/8):")
    delta = 2.0 ** -3
    m = round(delta / FINE)
    for name, ip in (("linear", LINEAR), ("smoothstep", SMOOTHSTEP)):
        w = wong_zakai(s, delta, ip)
        gap_b = np.max(np.abs(w.planar[::m] - s.planar[::m]))
        gap_a = np.max(np.abs(w.z[::m] - levy_area(s.planar[::m])))
        print(f"  {name:>10}: max node gap in B = {gap_b:.1e}, "
              f"in A vs coarse area sums = {gap_a:.1e}")

    print()
    print(f"mean-square uniform distance to the diffusion "
          f"({TRIALS} trials, fine step {FINE:g}):")
    table = ws_convergence_experiment(
        [2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
        FINE, TRIALS, RngSpec(SEED),
    )
    print(f"  {'delta':>8}  {'E[sup d^2]':>12}  {'stderr':>10}  {'ratio':>6}")
    est = table.column("estimate")
    se = table.column("stderr")
    for j, d in enumerate(table.column("delta")):
        ratio = est[j - 1] / est[j] if j else float("nan")
        print(f"  {d:8g}  {est[j]:12.5f}  {se[j]:10.5f}  {ratio:6.2f}")
    print("  (each halving of delta shrinks the error; the coupling is")
    print("   trial-keyed, so coarse and fine share the same Brownian draw)")


if __name__ == "__main__":
    main()
