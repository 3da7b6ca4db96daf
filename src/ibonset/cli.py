"""Command-line front end: dataset generation, threshold estimation, beta
sweeps, and the noise table, with machine-readable outputs.

Exit codes: 0 success, 1 input error, 2 the dataset is independent (no
finite threshold), 3 solver non-convergence, 4 the solver's free energy rose
at some sweep point (a broken monotone invariant).  All randomness flows
from the single ``--seed`` flag, fanned out deterministically per task, so
reruns with the same config produce identical outputs up to the report
timestamp.
Every integer option is checked against its least value (``_LEAST``) before
any input is read.
The ``IBONSET_OUT_DIR`` environment variable redirects relative output
paths; nothing else is read from the environment.  One default is written
to it: when none of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` is set and numpy is not loaded yet, importing this module
sets ``OPENBLAS_NUM_THREADS=1``, because every table here is small enough
that OpenBLAS's worker threads cost start-up time and never pay it back.  A
count you set wins, for example ``OPENBLAS_NUM_THREADS=4 ibonset sweep ...``.

The process entry :func:`run` freezes the collector's heap once the command
has returned, so the interpreter's exit skips collecting the ~22k objects
that numpy, the standard library and this package created at import.  That
takes about 15 ms off a command: ``maxcorr --preset noise-0.2`` ran in a
median 137 ms without the freeze and 122 ms with it (20 interleaved runs;
Python 3.11, numpy 2.4, a 2-core x86-64 machine).  :func:`main` does not
touch the collector, so tests and programs that call it keep a normal one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

# the BLAS default of the module docstring; OpenBLAS reads it once, at load
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

# solver and classifier are imported where a command runs them, so commands
# that do not run them skip their start-up
from . import dist, estimators, synth
from .errors import IndependenceError, OnsetError, ValidationError

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_INDEPENDENT = 2
_EXIT_NO_CONVERGENCE = 3
_EXIT_NON_MONOTONE = 4

_DEFAULT_RATES = [round(0.02 * k, 2) for k in range(1, 25)]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _split_list(value: str) -> list[str]:
    return [p for p in value.replace(",", " ").split() if p]


def _float_list(value: str) -> list[float]:
    return [float(x) for x in _split_list(value)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: kind -> (argparse type of the flag, check of a config-document value,
#: conversion of a value that passed the check)
_KINDS = {
    str: (str, lambda v: isinstance(v, str), None),
    int: (int, lambda v: isinstance(v, int) and not isinstance(v, bool), None),
    float: (float, _is_number, float),
    list: (_float_list, lambda v: isinstance(v, list) and all(map(_is_number, v)),
           lambda v: [float(x) for x in v]),
    bool: (None, lambda v: isinstance(v, bool), None),
}

#: integer option -> least value (a grid brackets an onset with 2 points)
_LEAST = {"seed": 0, "n": 1, "samples": 1, "bins": 1, "beta_points": 2}


def _build_config(command: str, cli_values: dict, config_path: str | None) -> dict:
    """Merge defaults, an optional JSON document, and explicit flags.

    The document is checked strictly: unknown keys and values of the wrong
    JSON type are rejected, never coerced; ``null`` leaves a key unset.
    """
    _, _, options = _COMMANDS[command]
    config = {key: default for key, (_, default, _) in options.items()}
    if config_path:
        try:
            with open(config_path) as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise ValidationError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{config_path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"{config_path}: config must be a JSON object")
        unknown = set(doc) - set(options)
        if unknown:
            raise ValidationError(
                f"{command}: unknown config keys {sorted(unknown)}"
            )
        for key, value in doc.items():
            if value is None:
                continue
            _, check, convert = _KINDS[options[key][0]]
            if not check(value):
                raise ValidationError(f"{command}: bad value for {key!r}: {value!r}")
            config[key] = convert(value) if convert else value
    config.update({k: v for k, v in cli_values.items() if v is not None})
    for key, least in _LEAST.items():
        value = config.get(key)
        if value is not None and value < least:
            raise ValidationError(f"{command}: {key} must be at least {least}, got {value}")
    return config


def _out_path(path_str: str) -> Path:
    path = Path(path_str)
    base = os.environ.get("IBONSET_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(path_str: str | None, payload: dict) -> None:
    if not path_str:
        return
    payload = {"timestamp": datetime.now(timezone.utc).isoformat(), **payload}
    with open(_out_path(path_str), "w") as fh:
        json.dump(payload, fh, indent=2)


def _task_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

class _Problem:
    """A resolved estimation input: conditional table, joint table, and a
    mixture's noise table and class priors when it has them."""

    def __init__(self, cond, joint, noise=None, prior=None):
        self.cond = cond
        self.joint = joint
        self.noise = noise
        self.prior = prior


def _input_kind(config) -> str:
    """The one input option of ``_INPUT`` the command was given."""
    names = [k for k in _INPUT if k in config]
    given = [k for k in names if config[k]]
    if len(given) != 1:
        raise ValidationError(
            f"give exactly one input ({', '.join(names)}); got {given or 'none'}"
        )
    return given[0]


#: mixture input option -> reader of its value
_SPEC_READERS = {"spec": synth.load_spec_json, "preset": synth.get_preset}


def _spec_problem(spec: synth.MixtureSpec, *, samples: int | None = None, seed: int = 0,
                  bins: int = 32) -> _Problem:
    """The estimation input of a mixture spec: the analytic posteriors of
    ``samples`` sampled points or, without ``samples``, its joint table
    binned at ``bins`` per axis, the one ``sweep`` solves."""
    if samples is None:
        joint = synth.discretize(spec, bins_per_axis=bins)
        cond = dist.conditional_from_joint(joint)
    else:
        points = synth.sample(spec, samples, seed=_task_seed(seed, 0)).points
        cond = synth.analytic_posterior(spec, points)
        joint = dist.joint_from_conditional(cond)
    return _Problem(cond, joint, spec.noise, spec.class_priors())


def _load_problem(config) -> _Problem:
    """Build the estimation input from exactly one of cond/joint/spec/preset;
    a mixture goes through :func:`_spec_problem`."""
    kind = _input_kind(config)
    if kind == "cond":
        cond = dist.load_conditional_csv(config["cond"])
        return _Problem(cond, dist.joint_from_conditional(cond))
    if kind == "joint":
        joint = dist.load_joint_csv(config["joint"])
        return _Problem(dist.conditional_from_joint(joint), joint)
    return _spec_problem(_SPEC_READERS[kind](config[kind]), samples=config.get("samples"),
                         seed=config.get("seed", 0), bins=config["bins"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(config) -> int:
    kind = _input_kind(config)
    spec = _SPEC_READERS[kind](config[kind])
    samples = synth.sample(spec, config["n"], seed=_task_seed(config["seed"], 0))
    samples_path = _out_path(config["out_samples"])
    synth.save_samples_csv(samples, samples_path)
    spec_path = _out_path(config["out_spec"])
    synth.save_spec_json(spec, spec_path)
    print(f"wrote {len(samples)} samples to {samples_path} (spec: {spec_path})")
    return _EXIT_OK


#: method name -> estimator of a problem, None when it does not apply (the
#: class-conditional one reads a spec's true-class table, not the problem's
#: rows: the mixture's threshold only when every true class is certain)
_ESTIMATORS = {
    "subset": lambda problem: estimators.subset_search(problem.cond),
    "class-conditional": lambda problem: (
        None if problem.noise is None
        else estimators.class_conditional_beta(problem.noise, problem.prior)
    ),
    "functional": lambda problem: estimators.minimize_beta(problem.joint),
    "maxcorr": lambda problem: estimators.max_correlation_beta(problem.joint),
    "info-density": lambda problem: estimators.info_density_beta(problem.cond),
}


def _theory(problem: _Problem, names) -> dict[str, float]:
    """Values of the named estimators keyed by method, leaving out those
    that do not apply to the input or find X and Y independent."""
    theory = {}
    for name in names:
        try:
            est = _ESTIMATORS[name](problem)
        except IndependenceError:
            continue
        if est is not None:
            theory[est.method.value] = est.value
    return theory


def _cmd_estimate(config) -> int:
    problem = _load_problem(config)
    raw = config["method"]
    # each named method runs and reports once, in the order first given
    methods = tuple(_ESTIMATORS) if raw == "all" else tuple(dict.fromkeys(_split_list(raw)))
    if not methods:
        raise ValidationError("estimate: method must list at least one estimator")
    unknown = [name for name in methods if name not in _ESTIMATORS]
    if unknown:
        raise ValidationError(
            f"unknown method {unknown[0]!r}; choose from {', '.join(_ESTIMATORS)} or all"
        )
    results = [
        est for est in (_ESTIMATORS[name](problem) for name in methods)
        if est is not None
    ]
    if not results:
        raise ValidationError(
            "no applicable estimator for this input (the class-conditional "
            "closed form needs a noisy mixture spec or preset)"
        )

    width = max(len(r.method.value) for r in results)
    print(f"{'method'.ljust(width)}  beta0")
    for r in results:
        print(f"{r.method.value.ljust(width)}  {r.value:.6f}")
    _write_report(
        config.get("out"),
        {
            "command": "estimate",
            "config": config,
            "estimates": [r.to_dict() for r in results],
        },
    )
    return _EXIT_OK


def _geometric_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if not (0.0 < lo < hi < np.inf):
        raise ValidationError("need 0 < beta_min < beta_max, both finite")
    return np.geomspace(lo, hi, points)


def _cmd_sweep(config) -> int:
    from . import solver

    problem = _load_problem(config)
    grid = _geometric_grid(config["beta_min"], config["beta_max"], config["beta_points"])
    # before any point is solved, so an input a route rejects fails first
    theory = _theory(problem, ("subset", "class-conditional", "maxcorr"))
    result = solver.sweep(problem.joint, grid, seed=_task_seed(config["seed"], 1))

    for p in result.points:
        flag = "" if p.converged else "  [not converged]"
        print(
            f"beta={p.beta:9.4f}  I(X;Z)={p.i_xz_nats:12.6e}  I(Y;Z)={p.i_yz_nats:12.6e}"
            f"  obj={p.objective:12.6e}{flag}"
        )
    if result.protocol["onset_below_grid"]:
        lowest = result.points[0].beta
        print(f"detected onset: below the grid (beta={lowest:.4f} already learns)")
    elif result.detected_beta0 is None:
        print("detected onset: none (no grid point beat the trivial encoder's 0)")
    else:
        print(f"detected onset: {result.detected_beta0:.4f}")
    for name, value in theory.items():
        print(f"theory[{name}] = {value:.4f}")

    solver.save_sweep_csv(result, _out_path(config["out_csv"]))
    _write_report(
        config["out_json"],
        {
            "command": "sweep",
            "config": config,
            "sweep": result.to_dict(),
            "theory": theory,
        },
    )
    if not any(p.converged for p in result.points):
        print("warning: no grid point converged", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    return _check_monotone([("", result.protocol["non_monotone_betas"])])


def _check_monotone(non_monotone: list[tuple[str, list[float]]]) -> int:
    """Warn about the grid betas, labelled per sweep, at which the solver's
    free energy rose, and return the exit code they call for."""
    rose = [(label, betas) for label, betas in non_monotone if betas]
    if not rose:
        return _EXIT_OK
    from . import solver

    print(
        f"warning: solver free energy rose by more than {solver.MONOTONE_TOL:g} at "
        + "; ".join(f"{label}beta = " + ", ".join(f"{b:.4f}" for b in betas)
                    for label, betas in rose),
        file=sys.stderr,
    )
    return _EXIT_NON_MONOTONE


def _table_row(rho: float, spec, config) -> tuple[dict, list[float]]:
    """One noise-table row of ``spec`` (``noise-<rho>``) and the betas at
    which its sweep column's free energy rose; the theory and sweep columns
    read the one binned table of :func:`_spec_problem`."""
    problem = _spec_problem(spec)
    theory = _theory(problem, ("class-conditional", "subset", "functional"))
    row: dict[str, float | None] = {
        "noise_rate": rho,
        "class_conditional": theory.get("class_conditional"),
        "subset_true_posterior": theory.get("subset_search"),
        "functional": theory.get("functional"),
    }
    non_monotone = []

    if config["learned"]:
        from . import classifier

        samples = synth.sample(spec, config["samples"], seed=_task_seed(config["seed"], 2))
        try:
            model = classifier.fit(
                samples, classifier.TrainConfig(seed=config["seed"])
            )
            learned_cond = classifier.predict_proba(model, samples.points)
            row["subset_learned_posterior"] = estimators.subset_search(learned_cond).value
        except (IndependenceError, ValidationError):
            row["subset_learned_posterior"] = None

    if config["sweep_column"]:
        from . import solver

        target = row["class_conditional"] or 2.0
        grid = _geometric_grid(max(0.5, target / 2.0), target * 2.0, config["beta_points"])
        result = solver.sweep(problem.joint, grid, seed=_task_seed(config["seed"], 3))
        row["observed_onset"] = result.detected_beta0
        non_monotone = result.protocol["non_monotone_betas"]
    return row, non_monotone


def _cmd_table(config) -> int:
    if not config["rates"]:
        raise ValidationError("table: rates must list at least one flip rate")
    # before any row: check every rate
    specs = [synth.noise_preset(rho) for rho in config["rates"]]
    results = [_table_row(rho, spec, config) for rho, spec in zip(config["rates"], specs)]
    rows = [row for row, _ in results]
    columns = list(rows[0].keys())
    header = "  ".join(f"{c:>22}" for c in columns)
    print(header)
    for row in rows:
        print(
            "  ".join(
                f"{row[c]:>22.4f}" if isinstance(row[c], float) else f"{'-':>22}"
                for c in columns
            )
        )
    _write_report(
        config.get("out"),
        {"command": "table", "config": config, "rows": rows},
    )
    return _check_monotone([(f"rate {row['noise_rate']:g}: ", betas) for row, betas in results])


def _cmd_maxcorr(config) -> int:
    problem = _load_problem(config)
    rho = estimators.max_correlation(problem.joint)
    inverse = _theory(problem, ("maxcorr",)).get("max_correlation_inverse")
    print(f"rho_m           = {rho:.10f}")
    print(f"rho_m^2         = {rho * rho:.10f}")
    if inverse is None:
        print("1/rho_m^2       = inf (independent)")
    else:
        print(f"1/rho_m^2       = {inverse:.10f}")
    _write_report(
        config.get("out"),
        {
            "command": "maxcorr",
            "config": config,
            "rho_m": rho,
            "beta_lower_inverse": inverse,
        },
    )
    return _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: options every command reading an estimation input shares:
#: key -> (kind, default, help)
_INPUT = {
    "cond": (str, None, "conditional table CSV (classes + optional weight column)"),
    "joint": (str, None, "dense joint table CSV"),
    "spec": (str, None, "mixture spec JSON"),
    "preset": (str, None, "noise-<rate> or overlap-<distance>"),
}

#: subcommand -> (help, handler, options).  Each option is key -> (kind,
#: default, help); its flag is the key with dashes, and a config document
#: uses the key itself.  A kind is str, int, float, list (of floats) or bool
#: (an on/off switch).
_COMMANDS = {
    "gen": ("generate a synthetic dataset", _cmd_gen, {
        "preset": (str, None, None),
        "spec": (str, None, None),
        "n": (int, 10_000, None),
        "seed": (int, 0, None),
        "out_samples": (str, "samples.csv", None),
        "out_spec": (str, "spec.json", None),
    }),
    "estimate": ("run the threshold estimators", _cmd_estimate, {
        **_INPUT,
        "method": (str, "all", f"comma list of {', '.join(_ESTIMATORS)}, or 'all'"),
        "samples": (int, None, "sample the mixture and use analytic posteriors"),
        "bins": (int, 32, None),
        "seed": (int, 0, None),
        "out": (str, None, "JSON report path"),
    }),
    "sweep": ("solve a beta grid and detect the onset", _cmd_sweep, {
        **_INPUT,
        "beta_min": (float, 1.5, None),
        "beta_max": (float, 4.5, None),
        "beta_points": (int, 25, None),
        "bins": (int, 32, None),
        "seed": (int, 0, None),
        "out_csv": (str, "sweep.csv", None),
        "out_json": (str, "sweep.json", None),
    }),
    "table": ("reproduce the noise-rate threshold table", _cmd_table, {
        "rates": (list, _DEFAULT_RATES, "comma list of flip rates"),
        "learned": (bool, False,
                    "add the learned-posterior column (trains a classifier per rate)"),
        "sweep_column": (bool, False,
                         "add the observed-onset column (runs a solver sweep per rate)"),
        "samples": (int, 10_000, None),
        "beta_points": (int, 25, None),
        "seed": (int, 0, None),
        "out": (str, None, None),
    }),
    "maxcorr": ("maximum correlation of the input table", _cmd_maxcorr, {
        **_INPUT,
        "bins": (int, 32, None),
        "out": (str, None, None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibonset",
        description="Estimate the learnability threshold of a finite dataset "
        "and verify it with a tabular bottleneck sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (kind, _, option_help) in options.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=option_help)
            else:
                p.add_argument(flag, type=_KINDS[kind][0], help=option_help)
        p.add_argument("--config", help="JSON config document (flags override)")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config")
    _, handler, _ = _COMMANDS[command]
    try:
        return handler(_build_config(command, args, config_path))
    except (OnsetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INDEPENDENT if isinstance(exc, IndependenceError) else _EXIT_INPUT


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit with its code.

    A library warning prints as a ``warning: <message>`` line on stderr,
    the form of the commands' own warnings.  Every report is written and
    closed inside ``main``, and finalization flushes stdout and stderr, so
    freezing the heap afterwards changes no output; it only spares the exit
    a collection of objects that die with the process anyway, about 15 ms
    a command (module docstring).
    """
    warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
