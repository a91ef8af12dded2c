"""Correctness checks for the benchmark's CLI tables, independent of heis.

Nothing here imports the package under test. Each check reads the CSV rows
a command wrote and compares them with analytic targets, method properties
or a small reference simulator that uses plain numpy and a random stream of
its own. Every check returns a list of problems; an empty list is a pass.

Statistical tolerances are Z standard errors (Z = 5, a two-sided false-alarm
rate of about 6e-7 per comparison), so a correct program fails a check with
negligible probability on any seed.
"""

import csv
import math

import numpy as np

Z = 5.0

# sd of sqrt(n) * corr(A_t, B_t^i): A_t and B_t are uncorrelated but not
# independent, and E[A_t^2 (B_t^1)^2] / (E[A_t^2] E[(B_t^1)^2]) = 5/3 for
# every t by Brownian scaling (derivation in README.md).
CORR_SD_FACTOR = math.sqrt(5.0 / 3.0)


def read_table(path):
    """CSV rows as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def levy_targets(n_steps, lambdas):
    """Exact Var A_1 and E cos(lambda A_1) of the left-point area on n steps.

    Given B^1, the left-point sum is linear in the B^2 increments with
    coefficients (1/2) S xi, where S_ij = sign(i - j) has eigenvalues
    +-i cot((2k - 1) pi / 2n). Hence Var = (1 - h) / 4 and
    E cos(lambda A) = prod_k (1 + lambda^2 cot^2(theta_k) / 4n^2)^(-1/2),
    which tends to 1 / cosh(lambda / 2) as n grows.
    """
    theta = (2.0 * np.arange(1, n_steps + 1) - 1.0) * math.pi / (2.0 * n_steps)
    q = (1.0 / np.tan(theta)) ** 2 / (4.0 * n_steps * n_steps)
    cos = {float(lam): float(np.exp(-0.5 * np.sum(np.log1p(lam * lam * q))))
           for lam in lambdas}
    return 0.25 * (1.0 - 1.0 / n_steps), cos


def check_levy(rows, fine_step, lambdas, n_trials):
    problems = []
    var_target, cos_targets = levy_targets(round(1.0 / fine_step), lambdas)
    if len(rows) != 1 + len(lambdas):
        return [f"levy: {len(rows)} rows, expected {1 + len(lambdas)}"]
    if any(int(r["n_trials"]) != n_trials for r in rows):
        problems.append("levy: n_trials column differs from the requested trials")
    var = rows[0]
    if not math.isnan(var["delta"]):
        problems.append("levy: first row is not the variance row")
    if not abs(var["estimate"] - var_target) <= Z * var["stderr"]:
        problems.append(f"levy: Var A_1 {var['estimate']:.5f} vs {var_target:.5f}"
                        f" beyond {Z:g} se ({var['stderr']:.5f})")
    for row, lam in zip(rows[1:], lambdas):
        tgt = cos_targets[float(lam)]
        if row["delta"] != float(lam):
            problems.append(f"levy: row for lambda {row['delta']:g}, expected {lam:g}")
        elif not abs(row["estimate"] - tgt) <= Z * row["stderr"]:
            problems.append(f"levy: E cos({lam:g} A_1) {row['estimate']:.5f} vs {tgt:.5f}"
                            f" beyond {Z:g} se ({row['stderr']:.5f})")
    return problems


def check_dds(rows, fine_step, times, n_trials):
    """Var A_t = t(t - h)/4, E tau(t) = t^2/4 and corr(A_t, B_t) = 0."""
    problems = []
    if [r["t"] for r in rows] != [float(t) for t in times]:
        return [f"dds: rows for t = {[r['t'] for r in rows]}, expected {times}"]
    corr_tol = Z * CORR_SD_FACTOR / math.sqrt(n_trials)
    for r in rows:
        t = r["t"]
        var_target = 0.25 * t * (t - fine_step)
        if not abs(r["var_A"] - var_target) <= Z * r["stderr_var_A"]:
            problems.append(f"dds: Var A_{t:g} {r['var_A']:.5f} vs {var_target:.5f}")
        if not abs(r["mean_tau"] - 0.25 * t * t) <= Z * r["stderr_mean_tau"]:
            problems.append(f"dds: E tau({t:g}) {r['mean_tau']:.5f} vs {0.25 * t * t:.5f}")
        for col in ("corr_A_B1", "corr_A_B2"):
            if not abs(r[col]) <= corr_tol:
                problems.append(f"dds: {col} at t={t:g} is {r[col]:.4f}, beyond {corr_tol:.4f}")
    return problems


def _agrees(k1, n1, k2, n2):
    """Two binomial proportions agree within Z pooled standard errors."""
    p = (k1 + k2) / (n1 + n2)
    se = math.sqrt(max(p * (1.0 - p), 0.0) * (1.0 / n1 + 1.0 / n2))
    return abs(k1 / n1 - k2 / n2) <= Z * se


def clopper_pearson_lower(k, n, confidence):
    """Exact one-sided lower bound: the p with P(Bin(n, p) >= k) = 1 - confidence.

    Bisection on a log-space binomial tail; no special functions needed.
    """
    if k <= 0:
        return 0.0
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    j = np.arange(k, n + 1)
    log_comb = log_fact[n] - log_fact[j] - log_fact[n - j]

    def upper_tail(p):
        terms = log_comb + j * math.log(p) + (n - j) * math.log1p(-p)
        top = terms.max()
        return math.exp(top) * float(np.sum(np.exp(terms - top)))

    lo, hi = 0.0, k / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if upper_tail(mid) < 1.0 - confidence:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def check_support(rows, n_trials, ref_hits, ref_n):
    if len(rows) != 1:
        return [f"support: {len(rows)} rows, expected 1"]
    r = rows[0]
    hits, total = int(r["hits"]), int(r["total"])
    problems = []
    if total != n_trials:
        problems.append(f"support: total {total}, expected {n_trials}")
    if r["p_hat"] != hits / total:
        problems.append(f"support: p_hat {r['p_hat']} is not hits/total")
    if not _agrees(hits, total, ref_hits, ref_n):
        problems.append(f"support: {hits}/{total} disagrees with the reference "
                        f"{ref_hits}/{ref_n}")
    lower = clopper_pearson_lower(hits, total, 0.99)
    if not abs(r["lower_99"] - lower) <= 1e-6 * lower:
        problems.append(f"support: lower_99 {r['lower_99']:.8f}, recomputed {lower:.8f}")
    return problems


def check_tube(rows, deltas, min_accepted, n_trials, ref_accepted, ref_n):
    """Nested non-increasing acceptance, enough paths per level, a real drop
    in exceedance from the widest to the narrowest tube, and the widest
    tube's acceptance rate against the reference simulator."""
    if [r["delta"] for r in rows] != sorted((float(d) for d in deltas), reverse=True):
        return [f"tube: rows for delta = {[r['delta'] for r in rows]}, expected {deltas}"]
    problems = []
    acc = [int(r["accepted"]) for r in rows]
    if any(int(r["total"]) != n_trials for r in rows):
        problems.append(f"tube: totals {[int(r['total']) for r in rows]}, expected {n_trials}")
    if any(b > a for a, b in zip(acc, acc[1:])):
        problems.append(f"tube: accepted counts {acc} increase as delta shrinks")
    if min(acc) < min_accepted:
        problems.append(f"tube: accepted counts {acc} below min_accepted {min_accepted}")
    first, last = rows[0], rows[-1]
    gap = 3.0 * math.hypot(first["stderr"], last["stderr"])
    if not last["p_hat"] <= first["p_hat"] - gap:
        problems.append(f"tube: exceedance {last['p_hat']:.4f} at delta={last['delta']:g} "
                        f"not below {first['p_hat']:.4f} by 3 se ({gap:.4f})")
    if not _agrees(acc[0], n_trials, ref_accepted, ref_n):
        problems.append(f"tube: acceptance {acc[0]}/{n_trials} at delta={first['delta']:g} "
                        f"disagrees with the reference {ref_accepted}/{ref_n}")
    return problems


def check_verdict(summary, exit_code):
    """The exit code agrees with the verdict the command wrote in its summary."""
    all_pass = all(a["passed"] for a in summary["assertions"])
    expected = 2 if summary["inconclusive"] else (0 if all_pass else 1)
    problems = []
    if summary["pass"] != (all_pass and not summary["inconclusive"]):
        problems.append("verdict: summary 'pass' disagrees with its assertions")
    if exit_code != expected:
        problems.append(f"verdict: exit code {exit_code}, summary implies {expected}")
    return problems


def reference_line(seed, n_paths, n_steps, delta, epsilon, chunk=1000):
    """Plain-numpy simulation around phi(t) = (t, 0), whose lift has z = 0.

    Returns (tube hits, support hits): paths with sup_t |B_t - phi(t)| < delta,
    and paths with sup_t |phi(t)^-1 g_t| < epsilon, where the homogeneous norm
    is (|x|^4 + z^2)^(1/4), phi^-1 g has vertical part A_t - t B^2_t / 2, and
    A is the left-point Levy area. Uses its own PCG64 stream.
    """
    rng = np.random.default_rng(seed)
    h = 1.0 / n_steps
    t = np.linspace(0.0, 1.0, n_steps + 1)
    tube = support = 0
    for start in range(0, n_paths, chunk):
        nb = min(chunk, n_paths - start)
        inc = rng.standard_normal((2, nb, n_steps)) * math.sqrt(h)
        x = np.zeros((nb, n_steps + 1))
        y = np.zeros((nb, n_steps + 1))
        np.cumsum(inc[0], axis=1, out=x[:, 1:])
        np.cumsum(inc[1], axis=1, out=y[:, 1:])
        area = np.zeros((nb, n_steps + 1))
        np.cumsum(0.5 * (x[:, :-1] * inc[1] - y[:, :-1] * inc[0]), axis=1, out=area[:, 1:])
        gx = x - t
        r2 = gx * gx + y * y
        tube += int(np.sum(np.max(r2, axis=1) < delta * delta))
        dz = area - 0.5 * t * y
        support += int(np.sum(np.max(r2 * r2 + dz * dz, axis=1) < epsilon ** 4))
    return tube, support
