"""AoA-based physical layer authentication and impersonation analysis."""

# The one definition of the version: set before the submodule imports so that
# `experiments` can read it, and read by pyproject.toml (setuptools `attr`).
__version__ = "0.1.0"

from .arrays import (
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    SignalBlock,
    derive_rng,
    steering_vector,
    synthesize_attack,
    synthesize_covariance,
    synthesize_legitimate,
)
from .attack import (
    MseBreakdown,
    monte_carlo_mse,
    mse_closed_form,
    mse_delta,
    optimal_precoders,
)
from .auth import (
    AoaProfile,
    AuthDecision,
    enroll,
    far_frr_sweep,
    load_acl,
    save_acl,
    verify,
)
from .experiments import (
    CheckResult,
    ExperimentConfig,
    FIGURE_IDS,
    ResultTable,
    emit_plot,
    evaluate_checks,
    reproduce,
    run_figure,
    write_csv,
)
from .music import (
    DEFAULT_GRID_STEP,
    DegenerateSpectrumError,
    MusicSpectrum,
    NonHermitianError,
    estimate_aoa,
    estimate_aoa_from_covariance,
    hermitian_eig,
    pseudospectrum,
    sample_covariance,
)

__all__ = [
    "ArrayGeometry",
    "AttackerConfig",
    "NoiseModel",
    "SignalBlock",
    "derive_rng",
    "steering_vector",
    "synthesize_attack",
    "synthesize_covariance",
    "synthesize_legitimate",
    "MseBreakdown",
    "monte_carlo_mse",
    "mse_closed_form",
    "mse_delta",
    "optimal_precoders",
    "AoaProfile",
    "AuthDecision",
    "enroll",
    "far_frr_sweep",
    "load_acl",
    "save_acl",
    "verify",
    "CheckResult",
    "ExperimentConfig",
    "FIGURE_IDS",
    "ResultTable",
    "emit_plot",
    "evaluate_checks",
    "reproduce",
    "run_figure",
    "write_csv",
    "DEFAULT_GRID_STEP",
    "DegenerateSpectrumError",
    "MusicSpectrum",
    "NonHermitianError",
    "estimate_aoa",
    "estimate_aoa_from_covariance",
    "hermitian_eig",
    "pseudospectrum",
    "sample_covariance",
    "__version__",
]
