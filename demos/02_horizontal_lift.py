"""Horizontal lifts: planar curves determine their vertical motion.

A curve is horizontal when z' = omega(x, x') / 2, meaning the vertical
speed equals the rate at which the planar trace sweeps signed area around
the origin. Lifting a circle therefore produces a helix whose height after
a full turn is the enclosed area. The script verifies that on a sampled
circle, evaluates the defect functional on an honest lift and on a path
that climbs in a straight vertical line instead, and confirms energy and
the defect are unchanged by left translation.
"""

import math

import numpy as np

from heis import (
    GroupElement,
    SampledPath,
    TimeGrid,
    energy,
    horizontal_lift,
    horizontality_defect,
    left_translate_curve,
)

RADIUS = 0.8
STEPS = 4096


def main():
    grid = TimeGrid.uniform(STEPS)
    th = 2.0 * math.pi * grid.times
    planar = RADIUS * np.stack([np.cos(th) - 1.0, np.sin(th)], axis=-1)

    lift = horizontal_lift(planar, grid)
    swept = float(lift.z[-1])
    enclosed = math.pi * RADIUS ** 2

    print("lifting a circle gives a helix; height = enclosed area:")
    print(f"  z(1)   = {swept:.8f}")
    print(f"  pi r^2 = {enclosed:.8f}")
    print(f"  gap    = {abs(swept - enclosed):.2e}  "
          "(the inscribed polygon encloses slightly less)")
    print(f"  lift defect sup|z' - omega(x, x')/2| = "
          f"{horizontality_defect(lift):.2e}")

    # A path with the same endpoints that takes the vertical shortcut is
    # cheap in coordinates but loudly non-horizontal. It is the same kind of
    # object as the lift: horizontality is measured, not declared.
    cheat = SampledPath(grid, planar, swept * grid.times)
    print(f"  straight-z climb defect              = "
          f"{horizontality_defect(cheat):.4f}")

    print()
    print("energy and defect are left-invariant:")
    moved = left_translate_curve(GroupElement(2.0, -1.0, 0.5), lift)
    print(f"  energy(lift)  = {energy(lift):.10f}")
    print(f"  energy(moved) = {energy(moved):.10f}")
    print(f"  defect(moved) = {horizontality_defect(moved):.2e}")
    print(f"  moved start   = ({moved.planar[0, 0]:+.1f}, "
          f"{moved.planar[0, 1]:+.1f}, {moved.z[0]:+.1f})")

    print()
    print("energy of the circle vs the unit-speed minimum:")
    length = 2.0 * math.pi * RADIUS
    print(f"  energy = {energy(lift):.6f}, length^2 = {length ** 2:.6f}")
    print("  (constant speed makes energy = length^2; the residual gap is "
          "the polygon's shortfall against the true circle)")


if __name__ == "__main__":
    main()
