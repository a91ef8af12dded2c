import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import scipy.stats
from hypothesis import given, strategies as st

from heis import results
from heis.results import (
    ResultTable,
    binomial_stderr,
    clopper_pearson_lower,
    mean_and_stderr,
    variance_and_stderr,
    wilson_center,
)


def test_mean_and_stderr_known_values():
    m, se = mean_and_stderr([1.0, 2.0, 3.0, 4.0])
    assert m == 2.5
    assert math.isclose(se, np.std([1, 2, 3, 4], ddof=1) / 2.0, rel_tol=1e-15)


def test_mean_single_sample_has_nan_stderr():
    m, se = mean_and_stderr([7.0])
    assert m == 7.0 and math.isnan(se)


def test_variance_on_normal_sample():
    x = np.random.default_rng(0).standard_normal(20000)
    var, se = variance_and_stderr(x)
    assert abs(var - 1.0) < 4 * se
    # the stderr itself should sit near the Gaussian value sqrt(2/n)
    assert math.isclose(se, math.sqrt(2 / 20000), rel_tol=0.1)


def test_binomial_stderr_small_count_wilson():
    se = binomial_stderr(5, 50)
    p = 0.1
    expected = math.sqrt(p * 0.9 / 50 + 0.25 / 2500) / (1 + 1 / 50)
    assert math.isclose(se, expected, rel_tol=1e-14)


def test_binomial_stderr_large_count_wald():
    se = binomial_stderr(400, 1000)
    assert math.isclose(se, math.sqrt(0.4 * 0.6 / 1000), rel_tol=1e-14)


def test_binomial_stderr_degenerate():
    assert math.isnan(binomial_stderr(0, 0))
    assert binomial_stderr(0, 50) > 0.0  # never claims certainty


def test_wilson_center_shrinks_toward_half():
    assert wilson_center(0, 10) == 0.5 / 11
    assert abs(wilson_center(5, 10) - 0.5) < 1e-15


@given(st.integers(0, 200), st.integers(1, 400))
def test_clopper_pearson_is_a_lower_bound(k, n):
    k = min(k, n)
    lo = clopper_pearson_lower(k, n, 0.99)
    assert 0.0 <= lo <= k / n + 1e-12
    if k == 0:
        assert lo == 0.0


def test_clopper_pearson_coverage_meaning():
    # with the true p at the bound, seeing >= k successes has prob ~1%
    lo = clopper_pearson_lower(10, 100, 0.99)
    tail = 1.0 - scipy.stats.binom.cdf(9, 100, lo)
    assert math.isclose(tail, 0.01, rel_tol=1e-8)


def test_clopper_pearson_equals_beta_quantile():
    """The incomplete-beta inverse gives scipy.stats.beta.ppf bit for bit."""
    for n in (1, 2, 3, 10, 37, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6):
        for k in sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1))):
            for confidence in (0.9, 0.95, 0.99, 0.999):
                expected = float(scipy.stats.beta.ppf(1.0 - confidence, k, n - k + 1))
                assert clopper_pearson_lower(k, n, confidence) == expected, (k, n, confidence)


def _spread():
    """C10's (hits, trials), a grid of (k, n) and 200 random ones, n up to 10^6."""
    pairs = [(5785, 100000)]
    for n in (1, 2, 3, 10, 37, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6):
        pairs += [(k, n) for k in sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1)))]
    rng = np.random.default_rng(26)
    return pairs + [(int(rng.integers(1, n + 1)), int(n)) for n in rng.integers(1, 10 ** 6, 200)]


_SPREAD = _spread()


def _bits(values):
    return [float(v).hex() for v in values]


_FRESH_IMPORT = """
import json, sys
import heis.cli
from heis.results import _betaincinv, clopper_pearson_lower
absent = [m for m in ("scipy.special", "numpy.f2py", "numpy.testing") if m in sys.modules]
stubs = [m for m in sys.modules if m.startswith("scipy.special")]
bits = [clopper_pearson_lower(k, n).hex() for k, n in json.loads(sys.argv[1])]
import scipy.special
print(json.dumps([absent, stubs, bits, _betaincinv is scipy.special.betaincinv]))
"""


def test_a_fresh_import_loads_only_the_ufunc_with_the_same_bits():
    """Under pytest scipy.special is imported already, so only a fresh
    interpreter takes the route that skips scipy.special's package import."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT, json.dumps(_SPREAD)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    loaded, left, bits, same = json.loads(proc.stdout)
    assert loaded == [] and left == []
    assert bits == _bits(clopper_pearson_lower(k, n) for k, n in _SPREAD)
    assert same


def test_a_failed_fast_route_falls_back_to_scipy_special(monkeypatch):
    import scipy.special
    expected = _bits(clopper_pearson_lower(k, n) for k, n in _SPREAD)
    kept = {m for m in sys.modules if m.startswith("scipy.special.")}

    def fails(name, package=None):
        raise ImportError(f"no spec for {name}")

    monkeypatch.setattr(importlib.util, "find_spec", fails)
    monkeypatch.setattr(scipy, "special", scipy.special)  # the fallback re-imports it
    monkeypatch.delitem(sys.modules, "scipy.special")  # so the loader tries find_spec
    monkeypatch.setattr(results, "_betaincinv", results._load_betaincinv())
    assert _bits(clopper_pearson_lower(k, n) for k, n in _SPREAD) == expected
    assert kept <= set(sys.modules)  # only what the loader added left sys.modules


def test_clopper_pearson_monotone_in_k():
    vals = [clopper_pearson_lower(k, 100) for k in range(0, 50, 5)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_result_table_column_and_csv():
    t = ResultTable(
        ["name", "flag", "count", "value"],
        [("a", True, 3, 0.125), ("b", False, -1, float("nan"))],
        {"seed": 1},
    )
    assert list(t.column("count")) == [3, -1]
    buf = io.StringIO()
    t.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "name,flag,count,value"
    assert lines[1] == "a,true,3,0.125"
    assert lines[2] == "b,false,-1,nan"


def test_csv_float_precision_round_trips():
    x = math.pi / 7
    t = ResultTable(["v"], [(x,)])
    buf = io.StringIO()
    t.to_csv(buf)
    assert float(buf.getvalue().splitlines()[1]) == x
