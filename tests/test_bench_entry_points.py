"""The benchmark's traced run wraps and calls library functions by name,
and its workloads run CLI commands with fixed flags.

``bench/`` is kept fixed so its numbers stay comparable from change to
change; these checks catch a library or CLI change that would break it,
without running the benchmark.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ibonset import cli, discretize, noise_preset

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: (module, function) -> the keywords ``tracing.suite`` passes to it
SUITE_KEYWORDS = {
    ("solver", "sweep"): ("seed", "workers", "warm_start"),
    ("solver", "solve"): ("seed", "restarts", "max_iters", "tol"),
    ("estimators", "subset_search"): ("variant",),
    ("estimators", "minimize_beta"): ("seed",),
    ("synth", "sample"): ("seed",),
    ("synth", "discretize"): ("bins_per_axis",),
    ("classifier", "TrainConfig"): ("seed",),
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_layer_functions_resolve(tracing):
    missing = [
        f"{module}.{name}"
        for module, names in tracing.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"ibonset.{module}"), name, None))
    ]
    # the suite also seeds its probes as the CLI does
    if not callable(getattr(importlib.import_module("ibonset.cli"), "_task_seed", None)):
        missing.append("cli._task_seed")
    assert missing == []


@pytest.mark.parametrize("module, name", list(SUITE_KEYWORDS))
def test_suite_keywords_bind(tracing, module, name):
    fn = getattr(importlib.import_module(f"ibonset.{module}"), name)
    inspect.signature(fn).bind_partial(**dict.fromkeys(SUITE_KEYWORDS[module, name]))


def test_workload_commands_parse(workloads, tmp_path):
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        work = tmp_path / workload
        work.mkdir()
        inputs = workloads.make_inputs(workload, 1, work)
        for command in workloads.commands(workload, 1, work, inputs):
            args = parser.parse_args(command.argv)
            methods = cli._split_list(getattr(args, "method", None) or "all")
            unknown = [m for m in methods if m != "all" and m not in cli._ESTIMATORS]
            assert unknown == [], f"{workload}: {command.name}"


def _passes_checks_through_the_module_entry_point(workloads, tmp_path, workload, subcommand=None):
    # as the benchmark runs them: a fresh `python -m ibonset.cli` per command,
    # so an exit path that lost or truncated a report fails its check here
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    inputs = workloads.make_inputs(workload, 1, tmp_path)
    ran = 0
    for command in workloads.commands(workload, 1, tmp_path, inputs):
        if subcommand not in (None, command.argv[0]):
            continue
        ran += 1
        proc = subprocess.run([sys.executable, "-m", "ibonset.cli", *command.argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, f"{command.name}: {proc.stderr}"
        _, failure = command.verify()
        assert failure == "", f"{command.name}: {failure}"
    return ran


def test_quick_workload_passes_its_checks_through_the_module_entry_point(workloads, tmp_path):
    _passes_checks_through_the_module_entry_point(workloads, tmp_path, "cli-quick")


def test_estimate_workload_estimates_pass_their_checks_through_the_module_entry_point(
        workloads, tmp_path):
    # the 6000-sample and 3000x4 reports, whose estimate entries the
    # benchmark reads by method and value
    assert _passes_checks_through_the_module_entry_point(
        workloads, tmp_path, "estimate", "estimate") == 2


def test_sweep_workload_passes_its_checks_through_the_module_entry_point(workloads, tmp_path):
    # onsets inside their windows, 25 points, 26 CSV lines, subset >= 1/rho^2
    assert _passes_checks_through_the_module_entry_point(workloads, tmp_path, "sweep") == 2


#: the onset each sweep workload command detects, the same at every seed:
#: a grid midpoint, so a change to the restarts' draws that moves it to a
#: neighbouring grid interval shows here before the workload's window
SWEEP_WORKLOAD_ONSETS = {"sweep noise-0.2": 2.7834646321418948,
                         "sweep noise-0.0": 1.003505835835561}


def test_sweep_workload_onsets_hold_at_seeds_0_to_19(workloads, tmp_path):
    for seed in range(20):
        for command in workloads.commands("sweep", seed, tmp_path, {}):
            assert cli.main(command.argv) == 0, f"{command.name} at seed {seed}"
            with open(command.reports[-1]) as fh:
                doc = json.load(fh)["sweep"]
            assert doc["detected_beta0"] == SWEEP_WORKLOAD_ONSETS[command.name], seed
            assert all(p["converged"] for p in doc["points"])
            assert doc["protocol"]["non_monotone_betas"] == []


@pytest.mark.parametrize("module, name, argv", [
    ("solver", "sweep", ["sweep", "--preset", "noise-0.2", "--beta-points", "7"]),
    ("classifier", "fit", ["table", "--learned", "--rates", "0.2", "--samples", "200"]),
])
def test_replay_wrappers_see_layers_loaded_on_use(tmp_path, monkeypatch, module, name, argv):
    # the traced replay wraps layer functions at their module attributes
    # before calling cli.main; a layer that cli imports inside a command
    # must still be called through that attribute
    layer = importlib.import_module(f"ibonset.{module}")
    original, calls = getattr(layer, name), []

    def recorder(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(layer, name, recorder)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert calls


def test_sweep_calls_solve_once_per_grid_beta(monkeypatch):
    # the traced run times each sweep point by wrapping the module attribute
    # solver.solve and reading beta from its second positional argument; a
    # sweep that solved its grid some other way would leave that probe no
    # spans to take a median of
    solver = importlib.import_module("ibonset.solver")
    original, calls = solver.solve, []

    def recorder(*args, **kwargs):
        enc = original(*args, **kwargs)
        calls.append((args[1], enc))
        return enc

    monkeypatch.setattr(solver, "solve", recorder)
    grid = np.geomspace(1.5, 4.5, 7)
    solver.sweep(discretize(noise_preset(0.2)), grid, seed=1)
    assert [beta for beta, _ in calls] == grid.tolist()
    assert all(isinstance(enc, solver.Encoder) for _, enc in calls)


def test_results_carry_the_fields_the_traced_run_reads():
    # tracing.suite reads these off its results; without any of them
    # `bench/run.py --trace 1` dies before it writes a number
    estimators = importlib.import_module("ibonset.estimators")
    solver = importlib.import_module("ibonset.solver")
    joint = discretize(noise_preset(0.2))
    est = estimators.minimize_beta(joint, seed=1)
    assert isinstance(est.diagnostics["iterations"], int)
    assert isinstance(est.diagnostics["converged"], bool)
    enc = solver.solve(joint, 3.0, 2, seed=1, restarts=1, max_iters=10, tol=0.0)
    assert isinstance(enc, solver.Encoder) and enc.iterations >= 1
    result = solver.sweep(joint, np.geomspace(1.5, 4.5, 3), seed=1)
    assert [isinstance(p.converged, bool) for p in result.points] == [True] * 3
