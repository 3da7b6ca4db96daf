"""Learnability threshold estimation for the information bottleneck
objective, with a tabular solver for empirical verification.

``import ibonset`` loads no submodule and no numpy: each public name below is
imported from its submodule on first use and then kept, so a command line
front end can choose numpy's start-up settings before anything loads it.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it exports through the package
_EXPORTS = {
    "dist": (
        "ConditionalMatrix", "DiscreteJoint", "conditional_from_joint", "entropy",
        "joint_from_conditional", "load_conditional_csv", "load_joint_csv",
        "mutual_information", "save_conditional_csv", "save_joint_csv",
    ),
    "errors": (
        "IndependenceError", "InvalidDirectionError", "OnsetError", "ValidationError",
    ),
    "estimators": (
        "BetaEstimate", "Method", "beta_for_scores", "certify",
        "class_conditional_beta", "info_density_beta", "max_correlation",
        "max_correlation_beta", "minimize_beta", "onset_correction", "subset_search",
    ),
    "synth": (
        "MixtureSpec", "SampleSet", "analytic_posterior", "discretize", "get_preset",
        "load_spec_json", "noise_preset", "overlap_preset", "sample",
        "save_samples_csv", "save_spec_json", "symmetric_flip",
    ),
    "solver": (
        "Encoder", "SweepPoint", "SweepResult", "detect_onset", "info_plane",
        "save_sweep_csv", "solve", "sweep",
    ),
}

#: public name (a submodule names itself) -> the submodule that defines it
_HOME = {**{m: m for m in _EXPORTS}, **{n: m for m, ns in _EXPORTS.items() for n in ns}}

# ``from ibonset import *`` leaves out solver, which only ``sweep`` and
# ``table --sweep-column`` run, so a star import does not load it
__all__ = [n for m in ("dist", "errors", "estimators", "synth") for n in (m, *_EXPORTS[m])]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import <module>``, whose attribute check would land here again
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
