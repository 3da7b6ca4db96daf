"""Self-tests of the benchmark itself (not of ibonset).

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _fake_passes():
    inv = run.Invocation
    return [
        [inv("a", 1.0 + k, 1.5, 60.0, True), inv("b", 0.5 + k, 0.4, 70.0, True)]
        for k in range(3)
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = workloads.make_inputs(workload, 7, first)
    b = workloads.make_inputs(workload, 7, second)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()
    argv_a = [c.argv for c in workloads.commands(workload, 7, first, a)]
    argv_b = [[arg.replace(str(second), str(first)) for arg in c.argv]
              for c in workloads.commands(workload, 7, second, b)]
    assert argv_a == argv_b


def test_quick_table_follows_the_seed(tmp_path):
    a = workloads.make_inputs("cli-quick", 1, tmp_path)["table"].read_bytes()
    b = workloads.make_inputs("cli-quick", 2, tmp_path)["table"].read_bytes()
    assert a != b


def test_metric_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += list(tracing.PER_LAYER) + list(run.end_to_end(_fake_passes(), [0.5], 0.0))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(set(m["name"] for m in BENCHMARK["per_layer"])) == len(BENCHMARK["per_layer"])


def test_benchmark_file_matches_the_emitted_metrics():
    emitted = run.end_to_end(_fake_passes(), [0.5], 0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == {k: m["unit"] for k, m in emitted.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["command"][1] == "bench/run.py"


def test_every_percentile_carries_its_sample_count():
    emitted = run.end_to_end(_fake_passes(), [0.5, 0.6, 0.7], 0.0)
    for name, m in emitted.items():
        if re.search(r"\.p\d+$", name):
            assert m["samples"] == 6, name
    for line in run.report_lines(emitted):
        if re.search(r"\.p\d+ ", line):
            assert "(n=" in line, line
    assert "solver.solve_s.p50" in tracing.PER_LAYER


def test_error_floor_keeps_accuracy_metric_positive():
    emitted = run.end_to_end(_fake_passes(), [0.5], 0.0)
    assert emitted["beta0_rel_err"]["value"] == workloads.REL_TOL
    assert run.end_to_end(_fake_passes(), [0.5], 0.02)["beta0_rel_err"]["value"] == 0.02


def test_sweep_gate_rejects_an_onset_outside_its_window(tmp_path):
    cmd = workloads.commands("sweep", 1, tmp_path, {})[0]
    points = [{"beta": 1.0, "i_xz_nats": 0.0, "i_yz_nats": 0.0, "objective": 0.0,
               "converged": True}] * 25
    doc = {"sweep": {"detected_beta0": 3.5, "points": points},
           "theory": {"subset_search": 2.78, "max_correlation_inverse": 2.78}}
    cmd.reports[1].write_text(json.dumps(doc))
    cmd.reports[0].write_text("beta\n" + "1\n" * 25)
    with pytest.raises(workloads.CheckFailed):
        cmd.check()
    doc["sweep"]["detected_beta0"] = 2.8
    cmd.reports[1].write_text(json.dumps(doc))
    errors = cmd.check()
    assert errors["sweep.noise-0.2.detected"] == pytest.approx(0.008)


def test_replay_comparison_tolerance():
    a = {"timestamp": "x", "estimates": [{"value": 2.0}]}
    assert tracing._same(a, {"timestamp": "y", "estimates": [{"value": 2.0 + 1e-13}]}, "r") is None
    assert tracing._same(a, {"timestamp": "x", "estimates": [{"value": 2.0 + 1e-9}]}, "r")
    assert tracing._same({"a": 1}, {"b": 1}, "r")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-quick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
