"""The demos and README's quick start run against the current API, and the
package keeps its public names."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


# The public names of heis, by the submodule that defines each, as the
# package exported them when it imported every submodule eagerly.
SURFACE = {
    "group": ["IDENTITY", "AlgebraElement", "GroupElement", "TangentVector", "area_increments",
              "bracket", "coordinate_distance", "dilate", "group_distance", "group_mul",
              "homogeneous_norm", "inverse", "left_diff", "levy_area", "omega",
              "quotient_array", "right_diff"],
    "paths": ["AnalyticBundle", "GridMismatchError", "NotDifferentiableError",
              "NotHorizontalError", "SampledPath", "TimeGrid", "energy", "horizontal_lift",
              "horizontality_defect", "left_translate_curve", "maurer_cartan", "path_distance",
              "read_path_csv"],
    "rng": ["RngSpec"],
    "sde": ["LINEAR", "SMOOTHSTEP", "Interpolant", "energy_divergence_experiment",
            "hypoelliptic_bm", "levy_area_law_experiment", "sample_bm", "wong_zakai",
            "ws_convergence_experiment"],
    "girsanov": ["ConsistencyError", "ReferenceCurve", "dds_experiment", "distance_to_curve",
                 "girsanov_ratio_experiment", "girsanov_shift_sampler", "ito_by_parts",
                 "ito_left_sum", "shift_weight", "support_positivity", "time_change_diagnostics",
                 "tube_decay_experiment", "tube_deviation", "tube_regime_ok"],
    "density": ["ApproximationResult", "HelixSpec", "approximate_path", "cc_join_curve",
                "cc_upper_bound", "helix_convergence", "helix_distance", "helix_linear",
                "linear_target_nodes", "pl_length", "verbatim_quotient_nodes"],
    "results": ["ResultTable", "binomial_stderr", "clopper_pearson_lower", "mean_and_stderr",
                "variance_and_stderr", "wilson_center"],
}

_FRESH_DIR = """
import json, sys
import heis
listed = dir(heis)
before = sorted(m for m in sys.modules if m.startswith("heis."))
from heis import helix_linear
import heis.density
print(json.dumps([listed, before, helix_linear is heis.density.helix_linear]))
"""


def test_the_lazy_package_keeps_its_surface():
    import heis
    assert sorted(heis.__all__) == sorted([*SURFACE, *(n for names in SURFACE.values() for n in names)])
    for module, names in SURFACE.items():
        own = importlib.import_module(f"heis.{module}")
        assert getattr(heis, module) is own
        for name in names:
            assert getattr(heis, name) is getattr(own, name), (module, name)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _FRESH_DIR], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    listed, before, same = json.loads(proc.stdout)
    assert set(heis.__all__) <= set(listed)
    assert before == [] and same  # dir() lists the names without importing a submodule
