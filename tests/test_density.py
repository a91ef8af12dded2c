"""Helix approximants, quotient displays, explicit horizontal joins."""

import math

import numpy as np
import pytest

from heis.density import (
    HelixSpec,
    approximate_path,
    cc_join_curve,
    cc_upper_bound,
    helix_convergence,
    helix_distance,
    helix_grid_steps,
    helix_linear,
    linear_target_nodes,
    pl_length,
    verbatim_quotient_nodes,
)
from heis.group import GroupElement, group_distance, homogeneous_norm, quotient_array
from heis.paths import SampledPath, TimeGrid, energy, horizontal_lift, horizontality_defect


class TestHelixSpec:
    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            HelixSpec(0.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            HelixSpec(0.0, 0.0, 1.0, 2.5)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            HelixSpec(0.0, 0.0, 1.0, 4, "spiral")

    def test_grid_steps_power_of_two(self):
        s = helix_grid_steps(HelixSpec(0.0, 0.0, 1.0, 32))
        assert s >= 2 ** 14 and s & (s - 1) == 0


class TestHorizontality:
    @pytest.mark.parametrize("variant", ["identity", "verbatim"])
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0),
                                        (0.5, -1.5, -2.0)])
    def test_helix_is_horizontal(self, variant, coeffs):
        curve = helix_linear(HelixSpec(*coeffs, 8, variant))
        assert horizontality_defect(curve) <= 1e-9

    def test_identity_variant_starts_at_e(self):
        curve = helix_linear(HelixSpec(1.0, 2.0, 3.0, 4))
        assert np.all(curve.planar[0] == 0.0)
        assert curve.lifted_z[0] == 0.0

    def test_verbatim_variant_starts_off_axis(self):
        n = 4
        curve = helix_linear(HelixSpec(0.0, 0.0, 1.0, n, "verbatim"))
        assert math.isclose(curve.planar[0, 0], 2.0 / n, rel_tol=1e-15)
        assert curve.planar[0, 1] == 0.0

    def test_zero_vertical_rate_gives_straight_lift(self):
        curve = helix_linear(HelixSpec(1.0, 2.0, 0.0, 5), n_steps=512)
        assert float(np.max(np.abs(curve.lifted_z))) == 0.0
        assert helix_distance(HelixSpec(1.0, 2.0, 0.0, 5), n_steps=512) == 0.0


class TestConvergenceRate:
    def test_verbatim_vertical_distance_is_two_over_n(self):
        # the quotient against (0,0,t) has zero vertical part, so the sup is
        # the planar amplitude 2/n, attained already at s = 0
        for n in (4, 8, 16):
            d = helix_distance(HelixSpec(0.0, 0.0, 1.0, n, "verbatim"))
            assert math.isclose(d, 2.0 / n, rel_tol=1e-9)

    def test_identity_vertical_rate_constant(self):
        table = helix_convergence([4, 8, 16], refine=2)
        assert np.all(np.diff(table.column("distance")) < 0)
        c = table.meta["fitted_C"]
        assert math.isclose(c, 4.0, rel_tol=5e-3)
        assert math.isclose(c, table.meta["fitted_C_refined"], rel_tol=1e-3)

    @pytest.mark.parametrize("refine", [0, 1])
    def test_refine_below_two_is_refused(self, refine):
        """refine 1 recomputes the same grid, so its stability check is empty."""
        with pytest.raises(ValueError, match="refine must be at least 2"):
            helix_convergence([4], refine=refine)

    def test_general_target_converges(self):
        d8 = helix_distance(HelixSpec(1.0, 1.0, 1.0, 8))
        d16 = helix_distance(HelixSpec(1.0, 1.0, 1.0, 16))
        assert d16 < d8
        assert 16 * d16 < 8.0  # rate constant stays bounded

    def test_vertical_energy_closed_form(self):
        for n in (4, 8):
            e = energy(helix_linear(HelixSpec(0.0, 0.0, 1.0, n)))
            target = 2.5 * n * n - 0.75 * math.sin(2.0 * n * n)
            assert math.isclose(e, target, rel_tol=1e-10)


class TestQuotientDisplay:
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    def test_closed_form_matches_group_quotient(self, coeffs):
        spec = HelixSpec(*coeffs, 6, "verbatim")
        curve = helix_linear(spec)
        times = curve.grid.times
        tp, tz = linear_target_nodes(spec, times)
        qp, qz = quotient_array(curve.planar, curve.lifted_z, tp, tz)
        cp, cz = verbatim_quotient_nodes(spec, times)
        assert float(np.max(np.abs(qp - cp))) <= 1e-10
        assert float(np.max(np.abs(qz - cz))) <= 1e-10

    def test_quotient_display_requires_vertical_rate(self):
        with pytest.raises(ValueError):
            verbatim_quotient_nodes(HelixSpec(1.0, 0.0, 0.0, 4, "verbatim"),
                                    np.linspace(0, 1, 5))

    def test_self_quotient_is_identity(self):
        spec = HelixSpec(1.0, 2.0, 3.0, 4)
        curve = helix_linear(spec)
        qp, qz = quotient_array(curve.planar, curve.lifted_z,
                                curve.planar, curve.lifted_z)
        assert float(np.max(np.abs(qp))) == 0.0
        assert float(np.max(np.abs(qz))) == 0.0


class TestApproximatePath:
    def _vertical(self):
        g = TimeGrid.uniform(64)
        return SampledPath(g, np.zeros((65, 2)), g.times.copy(), "linear")

    def _wavy(self):
        g = TimeGrid.uniform(256)
        planar = np.stack([np.sin(np.pi * g.times), np.zeros(257)], axis=-1)
        return SampledPath(g, planar, g.times.copy(), "linear")

    def test_vertical_single_segment_matches_helix(self):
        for n in (8, 16):
            res = approximate_path(self._vertical(), n, 1)
            ref = helix_distance(HelixSpec(0.0, 0.0, 1.0, n))
            assert 0.8 * ref < res.distance < 1.2 * ref
            assert horizontality_defect(res.curve) <= 1e-9

    def test_distance_ladder_decreases(self):
        dists = [approximate_path(self._wavy(), n, 8).distance
                 for n in (4, 16, 64)]
        assert dists[2] < dists[1] < dists[0]

    def test_planar_endpoint_exact(self):
        res = approximate_path(self._wavy(), 16, 8)
        gap = np.abs(res.curve.planar[-1] - self._wavy().planar[-1])
        assert float(np.max(gap)) <= 1e-12

    def test_horizontal_target_needs_no_vertical_pumping(self):
        grid = TimeGrid.uniform(128)
        planar = np.stack([np.cos(2 * np.pi * grid.times) - 1.0,
                           np.sin(2 * np.pi * grid.times)], axis=-1)
        lift = horizontal_lift(planar, grid)
        target = SampledPath(grid, lift.planar, lift.lifted_z, "linear")
        d16 = approximate_path(target, 8, 16).distance
        d32 = approximate_path(target, 8, 32).distance
        assert d32 < d16 < 0.3

    def test_rejects_node_only_sample(self):
        g = TimeGrid.uniform(8)
        p = SampledPath(g, np.zeros((9, 2)), g.times.copy(), "nodes")
        with pytest.raises(ValueError):
            approximate_path(p, 4, 2)

    def test_offset_start_rejected_at_construction(self):
        g = TimeGrid.uniform(8)
        planar = np.zeros((9, 2))
        planar[:, 0] = 1.0
        with pytest.raises(ValueError):
            SampledPath(g, planar, np.zeros(9), "linear")


class TestExplicitJoin:
    def test_upper_bound_examples(self):
        assert cc_upper_bound(GroupElement(0.0, 0.0, 0.0)) == 0.0
        assert cc_upper_bound(GroupElement(3.0, 4.0, 0.0)) == 5.0
        assert math.isclose(cc_upper_bound(GroupElement(0.0, 0.0, 1.0)),
                            2.0 * math.sqrt(math.pi), rel_tol=1e-15)

    def test_join_reaches_endpoint(self):
        # the vertical gap is pure roundoff; the group metric takes a square
        # root of it, hence the 1e-6 scale
        for g in (GroupElement(1.0, -2.0, 0.7), GroupElement(0.0, 0.0, -1.3),
                  GroupElement(0.5, 0.5, 0.0)):
            c = cc_join_curve(g)
            assert c.planar[-1, 0] == g.x and c.planar[-1, 1] == g.y
            assert abs(c.lifted_z[-1] - g.z) <= 1e-12
            end = GroupElement(c.planar[-1, 0], c.planar[-1, 1], c.lifted_z[-1])
            assert group_distance(end, g) <= 1e-6
            assert horizontality_defect(c) <= 1e-10

    def test_constant_speed_length_energy_identity(self):
        c = cc_join_curve(GroupElement(1.0, 2.0, -0.8))
        length = pl_length(c)
        assert math.isclose(length * length, energy(c), rel_tol=1e-12)

    def test_polygon_length_approaches_bound(self):
        # the area-exact polygon is slightly larger than the circle, so its
        # perimeter converges to the bound from above
        g = GroupElement(1.0, -1.0, 2.0)
        coarse = pl_length(cc_join_curve(g, arc_nodes=64))
        fine = pl_length(cc_join_curve(g, arc_nodes=1024))
        bound = cc_upper_bound(g)
        assert abs(fine - bound) < abs(coarse - bound)
        assert math.isclose(fine, bound, rel_tol=1e-4)
        assert math.isclose(coarse, bound, rel_tol=1e-2)

    def test_rejects_degenerate_polygon(self):
        with pytest.raises(ValueError):
            cc_join_curve(GroupElement(0.0, 0.0, 1.0), arc_nodes=2)

    def test_norm_below_admissible_length(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x, y, z = rng.uniform(-3, 3, size=3)
            g = GroupElement(float(x), float(y), float(z))
            assert homogeneous_norm(g) <= cc_upper_bound(g) + 1e-12
