"""Lifts, defects, grids, energies, serialization."""

import io
import math

import numpy as np
import pytest

from heis.cli import EXPERIMENTS
from heis.girsanov import ReferenceCurve
from heis.group import GroupElement, omega
from heis.paths import (
    GridMismatchError,
    NotDifferentiableError,
    NotHorizontalError,
    SampledPath,
    TimeGrid,
    energy,
    horizontal_lift,
    horizontality_defect,
    left_translate_curve,
    maurer_cartan,
    path_distance,
    read_path_csv,
)
from heis.rng import RngSpec
from heis.sde import hypoelliptic_bm


def random_pl_path(rng, n_steps=128):
    """Piecewise-linear planar path with nodes in the unit box, from 0."""
    nodes = rng.uniform(-1.0, 1.0, size=(n_steps + 1, 2))
    nodes[0] = 0.0
    return nodes


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(8)
        assert g.times[0] == 0.0 and g.times[-1] == 1.0
        assert g.n_steps == 8
        assert g.step == 0.125

    def test_uniform_beyond_what_numpy_can_index_is_a_memory_error(self):
        """numpy refuses the node array outright; that is out of memory too."""
        with pytest.raises(MemoryError, match="Maximum allowed size"):
            TimeGrid.uniform(2 ** 70)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.25, 1.0]))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5]))

    def test_step_requires_uniformity(self):
        g = TimeGrid(np.array([0.0, 0.4, 1.0]))
        with pytest.raises(ValueError):
            _ = g.step


def test_pl_lift_defect_small_on_unit_box_paths():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        nodes = random_pl_path(rng)
        c = horizontal_lift(nodes, TimeGrid.uniform(128))
        worst = max(worst, horizontality_defect(c))
    assert worst <= 1e-12


def test_pl_lift_increments_are_exact():
    rng = np.random.default_rng(19)
    nodes = random_pl_path(rng, 64)
    c = horizontal_lift(nodes, TimeGrid.uniform(64))
    inc = 0.5 * omega(nodes[:-1], np.diff(nodes, axis=0))
    np.testing.assert_array_equal(c.z, np.concatenate([[0.0], np.cumsum(inc)]))


def test_lift_requires_zero_start():
    nodes = np.ones((5, 2))
    with pytest.raises(ValueError):
        horizontal_lift(nodes, TimeGrid.uniform(4))


def test_callable_lift_requires_derivative():
    with pytest.raises(ValueError):
        horizontal_lift(lambda t: np.stack([t, t], axis=-1), TimeGrid.uniform(4))


def circle_bundle():
    """Unit circle traversed once; closed forms for every component."""
    x_fn = lambda t: np.stack(  # noqa: E731
        [np.cos(2 * np.pi * np.asarray(t)) - 1.0, np.sin(2 * np.pi * np.asarray(t))],
        axis=-1)
    dx_fn = lambda t: 2 * np.pi * np.stack(  # noqa: E731
        [-np.sin(2 * np.pi * np.asarray(t)), np.cos(2 * np.pi * np.asarray(t))],
        axis=-1)
    z_fn = lambda t: (2 * np.pi * np.asarray(t) - np.sin(2 * np.pi * np.asarray(t))) / 2  # noqa: E731
    dz_fn = lambda t: np.pi * (1.0 - np.cos(2 * np.pi * np.asarray(t)))  # noqa: E731
    return x_fn, dx_fn, z_fn, dz_fn


class TestCircleLift:
    """The full loop encloses area pi, and its energy is (2 pi)^2."""

    def test_quadrature_matches_closed_form(self):
        x_fn, dx_fn, _, _ = circle_bundle()
        c = horizontal_lift(x_fn, TimeGrid.uniform(256), dx_fn=dx_fn)
        assert math.isclose(c.z[-1], math.pi, abs_tol=1e-10)

    def test_closed_form_defect_and_energy(self):
        x_fn, dx_fn, z_fn, dz_fn = circle_bundle()
        c = horizontal_lift(x_fn, TimeGrid.uniform(256), dx_fn=dx_fn,
                            z_fn=z_fn, dz_fn=dz_fn)
        assert horizontality_defect(c) <= 1e-10
        assert math.isclose(energy(c), 4 * math.pi ** 2, rel_tol=1e-12)

    def test_pl_lift_converges_to_area(self):
        x_fn = circle_bundle()[0]
        gaps = []
        for n in (64, 256):
            nodes = x_fn(TimeGrid.uniform(n).times)
            c = horizontal_lift(nodes, TimeGrid.uniform(n))
            gaps.append(abs(c.z[-1] - math.pi))
        # polygon area error is O(n^-2)
        assert gaps[1] < gaps[0] / 8


def test_energy_straight_line():
    nodes = np.stack([np.linspace(0, 3, 33), np.linspace(0, -4, 33)], axis=-1)
    c = horizontal_lift(nodes, TimeGrid.uniform(32))
    assert math.isclose(energy(c), 25.0, rel_tol=1e-12)


def test_energy_rejects_broken_lift():
    rng = np.random.default_rng(2)
    nodes = random_pl_path(rng, 32)
    c = horizontal_lift(nodes, TimeGrid.uniform(32))
    z = c.z.copy()
    z[10] += 0.05
    broken = SampledPath(c.grid, c.planar, z)
    with pytest.raises(NotHorizontalError):
        energy(broken)


def test_left_translation_preserves_horizontality_and_distance():
    rng = np.random.default_rng(3)
    grid = TimeGrid.uniform(64)
    p = horizontal_lift(random_pl_path(rng, 64), grid)
    q = horizontal_lift(random_pl_path(rng, 64), grid)
    k = GroupElement(0.7, -1.2, 0.4)
    kp, kq = left_translate_curve(k, p), left_translate_curve(k, q)
    assert horizontality_defect(kp) <= 1e-11
    assert math.isclose(path_distance(p, q), path_distance(kp, kq), abs_tol=1e-12)


def test_maurer_cartan_left_invariant():
    """The logarithmic derivative is unchanged by left translation."""
    rng = np.random.default_rng(13)
    grid = TimeGrid.uniform(32)
    c = horizontal_lift(random_pl_path(rng, 32), grid)
    k = GroupElement(-0.3, 0.9, -1.1)
    kc = left_translate_curve(k, c)
    for t in (0.0, 0.3, 0.55, 1.0):
        a = maurer_cartan(c, t)
        b = maurer_cartan(kc, t)
        assert math.isclose(a.a1, b.a1, abs_tol=1e-12)
        assert math.isclose(a.a2, b.a2, abs_tol=1e-12)
        assert math.isclose(a.c, b.c, abs_tol=1e-11)


def test_maurer_cartan_horizontal_curve_has_no_vertical_part():
    x_fn, dx_fn, z_fn, dz_fn = circle_bundle()
    c = horizontal_lift(x_fn, TimeGrid.uniform(64), dx_fn=dx_fn,
                        z_fn=z_fn, dz_fn=dz_fn)
    for t in (0.1, 0.5, 0.9):
        assert abs(maurer_cartan(c, t).c) < 1e-12


def test_path_distance_grid_mismatch():
    rng = np.random.default_rng(4)
    p = horizontal_lift(random_pl_path(rng, 16), TimeGrid.uniform(16))
    q = horizontal_lift(random_pl_path(rng, 32), TimeGrid.uniform(32))
    with pytest.raises(GridMismatchError):
        path_distance(p, q)


def test_node_sample_refuses_derivative_queries():
    grid = TimeGrid.uniform(8)
    p = SampledPath(grid, np.zeros((9, 2)), np.zeros(9), "nodes")
    with pytest.raises(NotDifferentiableError):
        maurer_cartan(p, 0.5)
    with pytest.raises(NotDifferentiableError):
        horizontality_defect(p)


def _path(reading, grid, seed):
    """A path on grid read as reading: "nodes" or "analytic"."""
    if reading == "nodes":
        return hypoelliptic_bm(grid, RngSpec(seed))
    return ReferenceCurve.poly2(seed, 1.0).lift(grid)


@pytest.mark.parametrize("reading", ["nodes", "analytic"])
def test_left_translation_and_distance_take_every_path(reading):
    """As test_left_translation_preserves_horizontality_and_distance does for
    piecewise-linear lifts."""
    grid = TimeGrid.uniform(64)
    p, q = _path(reading, grid, 1), _path(reading, grid, 2)
    k = GroupElement(0.7, -1.2, 0.4)
    kp, kq = left_translate_curve(k, p), left_translate_curve(k, q)
    assert (kp.interpolation, kp.analytic is None) == (p.interpolation, p.analytic is None)
    assert math.isclose(path_distance(kp, kq), path_distance(p, q), abs_tol=1e-12)
    if reading == "analytic":
        assert horizontality_defect(kp) <= 1e-10


@pytest.mark.parametrize("reading", ["nodes", "analytic"])
def test_only_a_piecewise_linear_path_resamples(reading):
    p = _path(reading, TimeGrid.uniform(64), 1)
    with pytest.raises(NotDifferentiableError):
        p.resample(np.linspace(0.0, 1.0, 5))


def test_sampled_path_resample_linear():
    grid = TimeGrid.uniform(4)
    planar = np.stack([grid.times, 2 * grid.times], axis=-1)
    p = SampledPath(grid, planar, np.zeros(5), "linear")
    q = p.resample(np.array([0.0, 0.125, 1.0]))
    assert math.isclose(q.planar[1, 0], 0.125)
    assert math.isclose(q.planar[1, 1], 0.25)


def test_csv_round_trip_is_exact():
    """simulate's table reads back as the path it was written from."""
    table = EXPERIMENTS["simulate"].run(
        {"seed": 21, "trials": 1, "fine_step": "2^-6", "parameters": {}})
    buf = io.StringIO()
    table.to_csv(buf)
    buf.seek(0)
    q = read_path_csv(buf, "nodes")
    s = hypoelliptic_bm(TimeGrid.uniform(64), RngSpec(21))
    np.testing.assert_array_equal(s.planar, q.planar)
    np.testing.assert_array_equal(s.z, q.z)
    np.testing.assert_array_equal(s.grid.times, q.grid.times)
    assert q.interpolation == s.interpolation == "nodes"


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        read_path_csv(io.StringIO("a,b,c\n0,0,0\n"))


def test_csv_rejects_a_path_off_the_identity():
    """The table's first row must be 0,0,0 after its time."""
    with pytest.raises(ValueError, match="must start at the identity"):
        read_path_csv(io.StringIO("t,x,y,z\n0,0,0,0.5\n1,1,1,1\n"))
