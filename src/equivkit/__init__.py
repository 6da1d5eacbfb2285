"""equivkit: average equivalence testing with corrected TOST procedures.

Exact power and size evaluation for one- and multi-dimensional
equivalence problems in canonical summary form, size-matched margin and
level adjustments (ctost, ctost-star, alpha-TOST, delta-TOST), the
multivariate equal-marginal-size margin fit, reproducible simulation
harnesses, and a bundled cutaneous-bioequivalence case study.
"""

from importlib import metadata as _metadata

from .base import (
    ALPHA0_DEFAULT,
    C0_DEFAULT,
    METHODS,
    DecisionReport,
    DegenerateDataError,
    EquivError,
    EquivalenceSpec,
    ExtrapolationError,
    InputError,
    NonConvergenceError,
)
from .ingest import (
    PairedDataset,
    case_study_labels,
    load_case_study,
    read_paired_csv,
    read_summary_json,
    summarize,
)
from .mvt import (
    LambdaResult,
    MvtAdjustment,
    MvtSummary,
    ctost_mvt_adjust,
    lambda_argsup,
    mvt_decide,
    repair_correlation,
)
from .powerkernel import (
    MvtPowerQuery,
    UnivPowerQuery,
    power_mvt,
    power_uni,
    size_uni,
)
from .simkit import (
    SimulationConfig,
    SimulationResult,
    emit_plot_data,
    mvt_kappa_config,
    run_mvt_kappa,
    run_simulation,
    run_univariate_sweep,
    univariate_sweep_config,
)
from .univariate import (
    CalibrationTable,
    UnivAdjustment,
    UnivSummary,
    alpha_tost_adjust,
    build_calibration_table,
    ctost_adjust,
    ctost_star_calibrate,
    decide,
    default_calibration_table,
    delta_tost_adjust,
    margin_for_multiplier,
)

try:
    __version__ = _metadata.version("equivkit")
except _metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0+unknown"

__all__ = [
    "__version__",
    "ALPHA0_DEFAULT",
    "C0_DEFAULT",
    "METHODS",
    "DecisionReport",
    "DegenerateDataError",
    "EquivError",
    "EquivalenceSpec",
    "ExtrapolationError",
    "InputError",
    "NonConvergenceError",
    "PairedDataset",
    "case_study_labels",
    "load_case_study",
    "read_paired_csv",
    "read_summary_json",
    "summarize",
    "LambdaResult",
    "MvtAdjustment",
    "MvtSummary",
    "ctost_mvt_adjust",
    "lambda_argsup",
    "mvt_decide",
    "repair_correlation",
    "MvtPowerQuery",
    "UnivPowerQuery",
    "power_mvt",
    "power_uni",
    "size_uni",
    "SimulationConfig",
    "SimulationResult",
    "emit_plot_data",
    "mvt_kappa_config",
    "run_mvt_kappa",
    "run_simulation",
    "run_univariate_sweep",
    "univariate_sweep_config",
    "CalibrationTable",
    "UnivAdjustment",
    "UnivSummary",
    "alpha_tost_adjust",
    "build_calibration_table",
    "ctost_adjust",
    "ctost_star_calibrate",
    "decide",
    "default_calibration_table",
    "delta_tost_adjust",
    "margin_for_multiplier",
]
