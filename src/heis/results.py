"""Experiment result tables and the small-sample statistics conventions."""

import importlib.util
import os
import sys
import types
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ResultTable:
    """Column-named rows plus provenance metadata (seed, fine_step, ...)."""

    columns: list
    rows: list
    meta: dict = field(default_factory=dict)

    def column(self, name):
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])

    def to_csv(self, fh):
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def mean_and_stderr(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return m, se


def variance_and_stderr(x):
    """Sample variance with stderr sqrt((m4 - m2^2)/n), valid without
    normality assumptions."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = np.mean(x)
    c = x - m
    m2 = float(np.mean(c * c))
    m4 = float(np.mean(c ** 4))
    var = float(np.var(x, ddof=1))
    se = float(np.sqrt(max(m4 - m2 * m2, 0.0) / n))
    return var, se


def binomial_stderr(k: int, n: int) -> float:
    """Wilson half-width (z=1) below 100 successes, else sqrt(p(1-p)/n)."""
    if n <= 0:
        return float("nan")
    p = k / n
    if k < 100:
        return float(np.sqrt(p * (1.0 - p) / n + 0.25 / (n * n)) / (1.0 + 1.0 / n))
    return float(np.sqrt(p * (1.0 - p) / n))


def wilson_center(k: int, n: int) -> float:
    """Wilson (z=1) center; pairs with the small-count stderr above."""
    return (k + 0.5) / (n + 1.0)


def _load_betaincinv():
    """scipy.special.betaincinv, the one function heis needs from scipy.

    scipy/special/__init__.py took most of heis's import time (its array-API
    shim pulls in numpy.f2py, numpy.testing and numpy.ma) for this one ufunc.
    So unless scipy.special is imported already, a stub package whose
    __path__ is scipy's special directory stands in while the compiled
    scipy.special._ufuncs loads, and every scipy.special entry this added
    leaves sys.modules again: a later `import scipy.special` runs in full,
    and its betaincinv is this same object, kept by the extension. If any
    step fails (another scipy layout, a missing extension), the package
    import gives the function, so its bits never depend on the route.
    """
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded.betaincinv
    before = set(sys.modules)
    try:
        import scipy
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
        sys.modules["scipy.special"] = stub
        spec = importlib.util.find_spec("scipy.special._ufuncs")
        ufuncs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ufuncs)
        return ufuncs.betaincinv
    except Exception:  # any failure only rules out this route; the import below decides
        pass
    finally:
        for name in set(sys.modules) - before:
            if name == "scipy.special" or name.startswith("scipy.special."):
                del sys.modules[name]
    import scipy.special
    return scipy.special.betaincinv


_betaincinv = _load_betaincinv()


def clopper_pearson_lower(k: int, n: int, confidence: float = 0.99) -> float:
    """One-sided exact lower confidence bound for a binomial proportion."""
    if k <= 0:
        return 0.0
    return float(_betaincinv(k, n - k + 1, 1.0 - confidence))
