"""Learnability threshold estimation for the information bottleneck
objective, with a tabular solver for empirical verification."""

from .dist import (
    ConditionalMatrix,
    DiscreteJoint,
    conditional_from_joint,
    entropy,
    joint_from_conditional,
    load_conditional_csv,
    load_joint_csv,
    mutual_information,
    save_conditional_csv,
    save_joint_csv,
)
from .errors import (
    IndependenceError,
    InvalidDirectionError,
    OnsetError,
    UninformativeSubsetError,
    ValidationError,
)
from .estimators import (
    BetaEstimate,
    Method,
    SubsetResult,
    beta_for_scores,
    beta_for_subset,
    class_conditional_beta,
    info_density_beta,
    max_correlation,
    max_correlation_beta,
    minimize_beta,
    onset_correction,
    subset_search,
)
from .solver import (
    Encoder,
    SweepPoint,
    SweepResult,
    detect_onset,
    info_plane,
    save_sweep_csv,
    solve,
    sweep,
)
from .synth import (
    MixtureSpec,
    SampleSet,
    analytic_posterior,
    discretize,
    get_preset,
    load_spec_json,
    noise_preset,
    overlap_preset,
    sample,
    save_samples_csv,
    save_spec_json,
    symmetric_flip,
)

__version__ = "0.1.0"
