"""Golden outputs of the command line: the cases, how one is recorded, and
how a recording is compared with a fixture.

Every case is one CLI invocation run in-process through ``cli.main``: the
benchmark's commands (``bench/workloads.py``, on the tables it generates)
plus a few that pin other paths.  A recording holds the exit code, stdout,
stderr, the warnings the command raised, and every file it wrote, each
report without its ``timestamp``.  A list of more than ``DIGEST_ABOVE``
entries (a long witness, a large CSV's lines) is kept as its SHA-256, its
length and its first entries.

Regenerate the fixtures under ``tests/golden/`` from the repository root::

    PYTHONPATH=src python tests/golden_cases.py

A change that regenerates them lists every moved line in CHANGES.md.

Float rule.  The fixtures are exact in the environment recorded in
``tests/golden/environment.json`` (numpy version, BLAS and machine); there
every value, digest and printed character must match bit for bit.  In any
other environment a number compares equal within 1e-12 relative (a
printed number also within one unit of its last printed digit), every
other character and every integer still exactly, and a digested list by
its length and first entries only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (1, 3)

#: lists longer than this are kept as a digest
DIGEST_ABOVE = 64

#: relative tolerance of a number outside the recorded environment
FOREIGN_RTOL = 1e-12

#: an overlapping mixture with symmetric 20% flips: a point's true class is
#: uncertain, so its threshold is not that of the true-class table
OVERLAP_NOISY_SPEC = {
    "components": [
        {"mean": [-0.6, 0.0], "variances": [0.25, 0.25], "weight": 0.6, "class_id": 0},
        {"mean": [0.6, 0.0], "variances": [0.25, 0.25], "weight": 0.4, "class_id": 1},
    ],
    "noise": [[0.8, 0.2], [0.2, 0.8]],
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def cases(seed: int) -> list[tuple[str, list[str], list[str]]]:
    """(name, argv, written files) of every case at ``seed``, with paths
    relative to the current directory, whose inputs this writes."""
    wl = _workloads()
    here = Path(".")
    found = []
    for workload in wl.WORKLOADS:
        inputs = wl.make_inputs(workload, seed, here)
        found += [(c.name, c.argv, [str(p) for p in c.reports])
                  for c in wl.commands(workload, seed, here, inputs)]
    Path("one_row.csv").write_text("y0,y1\n0.3,0.7\n")
    Path("overlap_noisy.json").write_text(json.dumps(OVERLAP_NOISY_SPEC))
    s = str(seed)
    return found + [
        ("sweep overlap-3.2",
         ["sweep", "--preset", "overlap-3.2", "--seed", s,
          "--out-csv", "sweep_overlap32.csv", "--out-json", "sweep_overlap32.json"],
         ["sweep_overlap32.csv", "sweep_overlap32.json"]),
        ("maxcorr noise-0.5",
         ["maxcorr", "--preset", "noise-0.5", "--out", "maxcorr_noise05.json"],
         ["maxcorr_noise05.json"]),
        ("estimate cond one-row",
         ["estimate", "--cond", "one_row.csv", "--method", "all", "--seed", s,
          "--out", "est_one_row.json"],
         ["est_one_row.json"]),
        ("maxcorr cond one-row",
         ["maxcorr", "--cond", "one_row.csv", "--out", "maxcorr_one_row.json"],
         ["maxcorr_one_row.json"]),
        ("estimate spec overlap-noisy",
         ["estimate", "--spec", "overlap_noisy.json", "--method", "all", "--seed", s,
          "--out", "est_overlap_noisy.json"],
         ["est_overlap_noisy.json"]),
        ("table sweep-column",
         ["table", "--rates", "0.2", "--sweep-column", "--seed", s,
          "--out", "table_sweep_column.json"],
         ["table_sweep_column.json"]),
        ("table beta-points 1",
         ["table", "--rates", "0.2", "--beta-points", "1", "--out", "t.json"],
         ["t.json"]),
    ]


def fixture_path(name: str, seed: int) -> Path:
    return GOLDEN / f"s{seed}" / (re.sub(r"[^\w.-]+", "_", name) + ".json")


def _digest(items: list) -> dict:
    text = json.dumps(items)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "len": len(items),
            "head": items[:3]}


def _compact(value):
    """``value`` with every list longer than ``DIGEST_ABOVE`` digested."""
    if isinstance(value, dict):
        return {k: _compact(v) for k, v in value.items()}
    if isinstance(value, list):
        items = [_compact(v) for v in value]
        return _digest(items) if len(items) > DIGEST_ABOVE else items
    return value


def _read_output(path: Path):
    if not path.exists():
        return None
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        doc.pop("timestamp", None)
        return _compact(doc)
    return _compact(text.split("\n"))


def record(argv: list[str], outputs: list[str]) -> dict:
    """Run one case in the current directory and record what it did."""
    from ibonset.cli import main

    for name in outputs:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # once per location, as in a fresh process
        warnings.simplefilter("default")
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": {name: _read_output(Path(name)) for name in outputs},
    }


def run_all(seed: int, work: Path) -> dict[str, dict]:
    """Record every case at ``seed`` in the directory ``work``."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {name: record(argv, outputs) for name, argv, outputs in cases(seed)}
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _close(a: float, b: float, slack: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(FOREIGN_RTOL * max(abs(a), abs(b)), slack)


def _last_digit_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _same_text(want: str, got: str) -> bool:
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    pairs = zip(_NUMBER.findall(want), _NUMBER.findall(got))
    return all(_close(float(a), float(b), _last_digit_unit(a)) for a, b in pairs)


def differences(want, got, exact: bool, where: str = "") -> list[str]:
    """Where ``got`` departs from the fixture ``want`` under the float rule
    of the module docstring."""
    if isinstance(want, dict) and isinstance(got, dict):
        if not exact and "sha256" in want and "sha256" in got:
            return differences({k: want[k] for k in ("len", "head")},
                               {k: got[k] for k in ("len", "head")}, exact, where)
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], exact, f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(want)} entries != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, exact, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = want.hex() == got.hex() if exact else _close(want, got)
    elif isinstance(want, str) and isinstance(got, str) and not exact:
        same = _same_text(want, got)
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{where}: {want!r} != {got!r}"]


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")
    for seed in SEEDS:
        (GOLDEN / f"s{seed}").mkdir(exist_ok=True)
        for old in (GOLDEN / f"s{seed}").glob("*.json"):
            old.unlink()
        with tempfile.TemporaryDirectory() as work:
            for name, rec in run_all(seed, Path(work)).items():
                fixture_path(name, seed).write_text(json.dumps(rec, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
