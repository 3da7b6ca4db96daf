"""Learnability threshold estimation for the information bottleneck
objective, with a tabular solver for empirical verification."""

import importlib

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

#: names of ``solver``, which is loaded on first access to one of them: only
#: ``sweep`` and ``table --sweep-column`` run it, and compiling and running it
#: is a fixed cost of every other command
_SOLVER_NAMES = frozenset({
    "solver", "Encoder", "SweepPoint", "SweepResult", "detect_onset", "info_plane",
    "save_sweep_csv", "solve", "sweep",
})


def __getattr__(name: str):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import solver``, whose attribute check would land here again
    solver = importlib.import_module(".solver", __name__)
    value = solver if name == "solver" else getattr(solver, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOLVER_NAMES)
