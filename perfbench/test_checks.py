"""Each benchmark check accepts a well-formed table and rejects a tampered one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import tracing  # noqa: E402

H_LEVY = 2.0 ** -12
H_DDS = 2.0 ** -10
LAMBDAS = [0.5, 1.0, 2.0]
TIMES = [0.25, 0.5, 1.0]
DELTAS = [0.9, 0.8, 0.7, 0.6]


def levy_rows():
    var, cos = checks.levy_targets(round(1 / H_LEVY), LAMBDAS)
    rows = [{"delta": math.nan, "estimate": var, "stderr": 0.0035, "n_trials": 8000}]
    for lam in LAMBDAS:
        rows.append({"delta": lam, "estimate": cos[lam], "stderr": 0.003, "n_trials": 8000})
    return rows


def dds_rows():
    return [{"t": t, "var_A": 0.25 * t * (t - H_DDS), "mean_tau": 0.25 * t * t,
             "corr_A_B1": 0.0, "corr_A_B2": 0.0, "stderr_var_A": 0.003 * t * t,
             "stderr_mean_tau": 0.0015 * t * t} for t in TIMES]


def support_rows(hits=1160, total=20000):
    return [{"epsilon": 1.0, "p_hat": hits / total, "stderr": 0.0016, "hits": hits,
             "total": total, "lower_99": checks.clopper_pearson_lower(hits, total, 0.99)}]


def tube_rows():
    acc = [2700, 1100, 290, 40]
    p = [0.12, 0.005, 0.0, 0.0]
    return [{"delta": d, "epsilon": 0.9, "p_hat": pi, "accepted": a, "total": 80000,
             "stderr": math.sqrt(max(pi * (1 - pi), 0.25 / a) / a)}
            for d, a, pi in zip(DELTAS, acc, p)]


def levy(rows):
    return checks.check_levy(rows, H_LEVY, LAMBDAS, 8000)


def dds(rows):
    return checks.check_dds(rows, H_DDS, TIMES, 20000)


def support(rows, ref=(1170, 20000)):
    return checks.check_support(rows, 20000, *ref)


def tube(rows, ref=(680, 20000)):
    return checks.check_tube(rows, DELTAS, 16, 80000, *ref)


def test_well_formed_tables_pass():
    assert levy(levy_rows()) == []
    assert dds(dds_rows()) == []
    assert support(support_rows()) == []
    assert tube(tube_rows()) == []


@pytest.mark.parametrize("row,col,shift", [
    (0, "estimate", 0.03),   # Var A_1 off by about 9 se
    (3, "estimate", -0.03),  # E cos(2 A_1) off by 10 se
    (2, "estimate", 0.02),
])
def test_levy_rejects_tampered_moment(row, col, shift):
    rows = levy_rows()
    rows[row][col] += shift
    assert levy(rows)


def test_levy_rejects_the_continuum_target_at_tiny_stderr():
    rows = levy_rows()
    rows[0]["estimate"], rows[0]["stderr"] = 0.25, 1e-7
    assert levy(rows)


@pytest.mark.parametrize("col,shift", [
    ("var_A", 0.05), ("mean_tau", 0.02), ("corr_A_B1", 0.05), ("corr_A_B2", -0.05),
])
def test_dds_rejects_tampered_column(col, shift):
    rows = dds_rows()
    rows[2][col] += shift
    assert dds(rows)


def test_support_rejects_tampered_lower_bound():
    rows = support_rows()
    rows[0]["lower_99"] *= 1.001
    assert support(rows)


def test_support_rejects_estimate_far_from_reference():
    assert support(support_rows(hits=1500))


def test_support_rejects_p_hat_not_hits_over_total():
    rows = support_rows()
    rows[0]["p_hat"] += 1e-3
    assert support(rows)


def test_tube_rejects_increasing_acceptance():
    rows = tube_rows()
    rows[2]["accepted"] = 1200
    assert tube(rows)


def test_tube_rejects_level_below_min_accepted():
    rows = tube_rows()
    rows[3]["accepted"] = 15
    assert tube(rows)


def test_tube_rejects_missing_drop():
    rows = tube_rows()
    rows[3]["p_hat"] = 0.1
    assert tube(rows)


def test_tube_rejects_acceptance_far_from_reference():
    assert tube(tube_rows(), ref=(450, 20000))


def test_tube_rejects_unequal_totals():
    rows = tube_rows()
    rows[3]["total"] = 8000
    assert tube(rows)


@pytest.mark.parametrize("passed,inconclusive,code,ok", [
    (True, False, 0, True), (False, False, 1, True), (True, True, 2, True),
    (True, False, 1, False), (False, False, 0, False), (True, True, 0, False),
])
def test_verdict_must_match_exit_code(passed, inconclusive, code, ok):
    summary = {"assertions": [{"passed": True}, {"passed": passed}],
               "inconclusive": inconclusive, "pass": passed and not inconclusive}
    assert (checks.check_verdict(summary, code) == []) == ok


def test_verdict_rejects_summary_that_contradicts_its_assertions():
    summary = {"assertions": [{"passed": False}], "inconclusive": False, "pass": True}
    assert checks.check_verdict(summary, 0)


def test_levy_targets_match_the_determinant_formula():
    n = 32
    s = np.tril(np.ones((n, n)), -1) - np.triu(np.ones((n, n)), 1)
    q = 0.25 * s.T @ s / (n * n)
    var, cos = checks.levy_targets(n, LAMBDAS)
    assert var == pytest.approx(np.trace(q), rel=1e-12)
    for lam in LAMBDAS:
        det = np.linalg.det(np.eye(n) + lam * lam * q)
        assert cos[lam] == pytest.approx(det ** -0.5, rel=1e-10)
    _, fine = checks.levy_targets(2 ** 16, LAMBDAS)
    for lam in LAMBDAS:
        assert fine[lam] == pytest.approx(1 / math.cosh(lam / 2), abs=1e-5)


@pytest.mark.parametrize("k,n", [(1, 10), (37, 500), (1160, 20000)])
def test_clopper_pearson_matches_beta_quantile(k, n):
    stats = pytest.importorskip("scipy.stats")
    assert checks.clopper_pearson_lower(k, n, 0.99) == pytest.approx(
        stats.beta.ppf(0.01, k, n - k + 1), rel=1e-9)


def test_reference_counts_every_path_in_a_wide_tube():
    tube_hits, support_hits = checks.reference_line([1], 300, 64, delta=50.0, epsilon=50.0)
    assert (tube_hits, support_hits) == (300, 300)


def test_self_time_subtracts_direct_children():
    spans = [["cli.command", 0.0, 10.0, -1], ["girsanov.scan", 1.0, 9.0, 0],
             ["sde.trial_source", 2.0, 5.0, 1], ["rng.generator", 2.5, 3.5, 2]]
    own = tracing.self_times(spans)
    assert own == {"cli.command": 2.0, "girsanov.scan": 5.0,
                   "sde.trial_source": 2.0, "rng.generator": 1.0}


def test_layer_metrics_cover_every_per_layer_metric_but_the_run_level_ones():
    spans = [["cli.command", 0.0, 10.0, -1], ["girsanov.scan", 1.0, 9.0, 0],
             ["sde.trial_source", 2.0, 5.0, 1], ["rng.generator", 2.5, 3.5, 2]]
    counts = {"sde.trial_source.paths": 4, "sde.trial_source.steps": 4096,
              "girsanov.scans": 1, "girsanov.scan_paths": 4}
    m = tracing.layer_metrics(spans, counts, trials_in_table=4)
    run_level = {"trace.overhead_s", "setup.import.heis_results_s", "setup.import.heis_cli_s",
                 "machine.kernel_s"}
    assert set(m) == set(tracing.UNITS) - run_level
    assert m["trace.unattributed_s"] == pytest.approx(10.0 - 2.0 - 1.0)
    assert m["sde.trial_source.ns_per_step"] == pytest.approx(1e9 * 2.0 / 4096)
    assert m["girsanov.rescanned_paths"] == 0


def test_tracer_sees_every_binding_of_a_tube_run(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "heis").is_dir():
        pytest.skip("no heis sources next to the benchmark")
    sys.path.insert(0, str(src))
    import heis.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.open("cli.command")
    with pytest.raises(SystemExit):
        heis.cli.main.main(args=[
            "tube", "--phi", "line 1 0", "--epsilon", "0.9", "--deltas", "3,2",
            "--fine-step", "2^-6", "--trials", "100", "--min-accepted", "1000",
            "--budget", "1000", "--seed", "1", "--out", str(tmp_path)],
            prog_name="heis", standalone_mode=False)
    tracer.close()
    m = tracing.layer_metrics(tracer.spans, tracer.counts, trials_in_table=1000)
    assert m["girsanov.scans"] == 2
    assert m["rng.generator.calls"] == m["sde.trial_source.paths"] == 1100
    assert m["girsanov.tube_deviation.rows"] == 1100
    assert m["girsanov.rescanned_paths"] == 100
    assert m["girsanov.distance_to_curve.rows"] == m["sde.levy_area.rows"] > 0
    assert m["group.group_distance_array.elements"] == 65 * m["girsanov.distance_to_curve.rows"]
    assert m["cli.csv_bytes"] == (tmp_path / "tube.csv").stat().st_size
