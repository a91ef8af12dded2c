"""Helix approximations: reaching vertical displacement at rate 1/n.

No horizontal curve moves straight up, but a helix of winding index n
tracks the segment t -> (a1 t, a2 t, a3 t) within C/n in the homogeneous
distance, with planar amplitude shrinking like 1/sqrt(n). The script
measures the rate on a ladder of indices, checks the closed-form
displacement quotient against direct group arithmetic, and then chains
helices to approximate an arbitrary continuous target. It closes with the
explicit two-stage join behind the a-priori distance bound.
"""

import math

import numpy as np

from heis import (
    GroupElement,
    HelixSpec,
    SampledPath,
    TimeGrid,
    approximate_path,
    cc_join_curve,
    cc_upper_bound,
    energy,
    helix_convergence,
    horizontality_defect,
    pl_length,
)


def main():
    print("distance to the vertical segment (0, 0, t) by winding index:")
    table = helix_convergence([4, 8, 16, 32, 64], a3=1.0, variant="identity")
    print(f"  {'n':>4}  {'grid':>7}  {'distance':>10}  {'n * distance':>12}")
    for n, steps, d, nd in table.rows:
        print(f"  {n:4d}  {steps:7d}  {d:10.6f}  {nd:12.6f}")
    print(f"  fitted C = {table.meta['fitted_C']:.6f}  "
          f"(refined grid: {table.meta['fitted_C_refined']:.6f})")

    print()
    print("general slope (1, 1, 1), verbatim variant:")
    table = helix_convergence([8, 16, 32], a1=1.0, a2=1.0, a3=1.0,
                              variant="verbatim")
    for n, steps, d, nd in table.rows:
        print(f"  n={n:3d}: distance {d:.6f}, n * distance {nd:.4f}")

    print()
    print("chaining helices to follow an arbitrary continuous path:")
    grid = TimeGrid.uniform(64)
    t = grid.times
    target = SampledPath(grid, np.stack([np.sin(math.pi * t), np.zeros_like(t)], axis=1), t)
    print("  target: (sin(pi t), 0, t), 8 piecewise-linear segments")
    for n in (4, 16, 64):
        res = approximate_path(target, n, segments=8)
        defect = horizontality_defect(res.curve)
        print(f"  n={n:3d}: uniform distance {res.distance:.5f}, "
              f"lift defect {defect:.1e}")

    print()
    print("explicit join: segment plus an area-closing circle:")
    g = GroupElement(1.0, 2.0, -1.5)
    curve = cc_join_curve(g, arc_nodes=512)
    end = curve.end
    print(f"  endpoint reached: ({end.x:+.4f}, {end.y:+.4f}, {end.z:+.6f}) "
          f"vs target ({g.x:+.4f}, {g.y:+.4f}, {g.z:+.6f})")
    print(f"  polygon length {pl_length(curve):.6f} vs bound "
          f"{cc_upper_bound(g):.6f}")
    print(f"  energy {energy(curve):.6f} = length^2 "
          f"{pl_length(curve) ** 2:.6f} (constant speed)")


if __name__ == "__main__":
    main()
