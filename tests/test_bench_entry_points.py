"""The benchmark's traced run wraps and calls library functions by name.

``bench/`` is kept fixed so its numbers stay comparable from change to
change; these checks catch a library change that would break it, without
running the benchmark.
"""

import importlib
import inspect
from pathlib import Path

import pytest

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
