"""Heisenberg group geometry, hypoelliptic diffusion, and limit experiments."""

from .group import (
    IDENTITY,
    AlgebraElement,
    GroupElement,
    TangentVector,
    bracket,
    coordinate_distance,
    dilate,
    group_distance,
    group_mul,
    homogeneous_norm,
    inverse,
    left_diff,
    omega,
    right_diff,
)
from .paths import (
    AnalyticBundle,
    GridMismatchError,
    HorizontalCurve,
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
from .rng import RngSpec
from .sde import (
    LINEAR,
    SMOOTHSTEP,
    Interpolant,
    area_increments,
    energy_divergence_experiment,
    hypoelliptic_bm,
    levy_area,
    levy_area_law_experiment,
    sample_bm,
    wong_zakai,
    ws_convergence_experiment,
)
from .girsanov import (
    ConsistencyError,
    ReferenceCurve,
    ShiftSamplerResult,
    dds_experiment,
    distance_to_curve,
    exp_martingale,
    girsanov_ratio_experiment,
    girsanov_shift_sampler,
    ito_by_parts,
    ito_left_sum,
    shift_weight,
    support_positivity,
    time_change_diagnostics,
    tube_decay_experiment,
    tube_deviation,
    tube_regime_ok,
)
from .density import (
    ApproximationResult,
    HelixSpec,
    approximate_path,
    cc_join_curve,
    cc_upper_bound,
    helix_convergence,
    helix_distance,
    helix_linear,
    helix_vertical,
    linear_target_nodes,
    pl_length,
    quotient_nodes,
    verbatim_quotient_nodes,
)
from .results import (
    ResultTable,
    binomial_stderr,
    clopper_pearson_lower,
    mean_and_stderr,
    variance_and_stderr,
    wilson_center,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
