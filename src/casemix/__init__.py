"""Transporting randomized-trial treatment effects across trial populations.

Standardizes each trial's effect to every trial's covariate distribution
(outcome regression or inverse odds weighting), attaches a joint covariance
(stacked estimating equations or stratified bootstrap), pools per target
population with random-effects meta-analysis, and tests whether heterogeneity
survives after case-mix differences are removed.
"""

import numpy as _np

from .errors import (
    AllSameResponse,
    CasemixError,
    DimensionMismatch,
    DivisionByZero,
    EmptyDataset,
    InvalidFormula,
    MissingColumn,
    NoConvergence,
    NoEstimableInputs,
    NonBinaryValue,
    NonNumericCovariate,
    PositivityWarning,
    RankDeficient,
    SeparationWarning,
    SingleArmStudy,
    SingularBread,
    SingularContrastCovariance,
    TooManyFailedReplicates,
    UndefinedMeasure,
    UnknownReference,
    UnknownStudy,
)
from .formula import ModelFormula, parse
from .glm import (
    FittedLogistic,
    FittedMultinomial,
    backward_eliminate,
    fit_logistic,
    fit_multinomial,
)
from .het import (
    RAW,
    TRANSFORMED,
    WaldTestResult,
    all_tests,
    beyond_casemix_test,
    casemix_test,
    conventional_test,
    report_records,
    wald_test,
)
from .ipd import (
    CovariateSchema,
    IpdDataset,
    arm_counts,
    load_ipd,
    save_ipd,
)
from .meta import (
    MetaSummary,
    forest_rows,
    pool_matrix,
    pool_row,
)
from .simlab import (
    GENERIC,
    Analysis,
    OracleTruth,
    SettingConfig,
    SimulationReport,
    analysis_preset,
    generate_setting,
    preset_config,
    run_study,
    true_values_oracle,
    write_csv,
)
from .transport import (
    IPW,
    IPW_STABILIZED,
    OCR,
    POSITIVITY_THRESHOLD,
    CommonControlReport,
    EffectEstimate,
    EffectMatrix,
    FittedGrid,
    GridSettings,
    StandardizedEstimate,
    WeightDiagnostics,
    common_control_check,
    effect_matrix,
    effect_transform,
    standardized_grid,
)
from .variance import (
    CovarianceResult,
    EstimatingSystem,
    attach_covariance,
    bootstrap_cov,
    build_system,
    sandwich_cov,
)

__version__ = "0.1.0"

# glibc gives the top of the heap back to the OS whenever more than its trim
# threshold (128 KiB by default) lies free there, so the multi-MiB
# temporaries of the CSV load, the sandwich and the batched bootstrap would
# fault their pages in again on every use. Freeing one 16 MiB block, which
# glibc serves by mmap, raises its dynamic mmap threshold to 16 MiB and its
# trim threshold to 32 MiB for the rest of the process (mallopt(3)), and
# those temporaries then reuse heap pages: done once, on import, so the CLI
# and every library caller get it.
_np.empty(1 << 21)

__all__ = [
    "AllSameResponse",
    "Analysis",
    "CasemixError",
    "CommonControlReport",
    "CovarianceResult",
    "CovariateSchema",
    "DimensionMismatch",
    "DivisionByZero",
    "EffectEstimate",
    "EffectMatrix",
    "EmptyDataset",
    "EstimatingSystem",
    "FittedGrid",
    "FittedLogistic",
    "FittedMultinomial",
    "GENERIC",
    "GridSettings",
    "IPW",
    "IPW_STABILIZED",
    "InvalidFormula",
    "IpdDataset",
    "MetaSummary",
    "MissingColumn",
    "ModelFormula",
    "NoConvergence",
    "NoEstimableInputs",
    "NonBinaryValue",
    "NonNumericCovariate",
    "OCR",
    "OracleTruth",
    "POSITIVITY_THRESHOLD",
    "PositivityWarning",
    "RAW",
    "RankDeficient",
    "SeparationWarning",
    "SettingConfig",
    "SimulationReport",
    "SingleArmStudy",
    "SingularBread",
    "SingularContrastCovariance",
    "StandardizedEstimate",
    "TRANSFORMED",
    "TooManyFailedReplicates",
    "UndefinedMeasure",
    "UnknownReference",
    "UnknownStudy",
    "WaldTestResult",
    "WeightDiagnostics",
    "all_tests",
    "analysis_preset",
    "arm_counts",
    "attach_covariance",
    "backward_eliminate",
    "beyond_casemix_test",
    "bootstrap_cov",
    "build_system",
    "casemix_test",
    "common_control_check",
    "conventional_test",
    "effect_matrix",
    "effect_transform",
    "fit_logistic",
    "fit_multinomial",
    "forest_rows",
    "generate_setting",
    "load_ipd",
    "parse",
    "pool_matrix",
    "pool_row",
    "preset_config",
    "report_records",
    "run_study",
    "sandwich_cov",
    "save_ipd",
    "standardized_grid",
    "true_values_oracle",
    "wald_test",
    "write_csv",
]
