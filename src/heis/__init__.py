"""Heisenberg group geometry, hypoelliptic diffusion, and limit experiments.

The public names load on first use (PEP 562): `from heis import helix_linear`
imports heis.density then, and `import heis.cli` loads only the modules its
commands share. _EXPORTS names the submodule that defines each of them.
"""

import importlib

_EXPORTS = {
    "group": """IDENTITY AlgebraElement GroupElement TangentVector area_increments bracket
        coordinate_distance dilate group_distance group_mul homogeneous_norm inverse left_diff
        levy_area omega quotient_array right_diff""",
    "paths": """AnalyticBundle GridMismatchError NotDifferentiableError NotHorizontalError
        SampledPath TimeGrid energy horizontal_lift horizontality_defect left_translate_curve
        maurer_cartan path_distance read_path_csv""",
    "rng": "RngSpec",
    "sde": """LINEAR SMOOTHSTEP Interpolant energy_divergence_experiment hypoelliptic_bm
        levy_area_law_experiment sample_bm wong_zakai ws_convergence_experiment""",
    "girsanov": """ConsistencyError ReferenceCurve dds_experiment distance_to_curve
        girsanov_ratio_experiment girsanov_shift_sampler ito_by_parts ito_left_sum shift_weight
        support_positivity time_change_diagnostics tube_decay_experiment tube_deviation
        tube_regime_ok""",
    "density": """ApproximationResult HelixSpec approximate_path cc_join_curve cc_upper_bound
        helix_convergence helix_distance helix_linear linear_target_nodes pl_length
        verbatim_quotient_nodes""",
    "results": """ResultTable binomial_stderr clopper_pearson_lower mean_and_stderr
        variance_and_stderr wilson_center""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
