"""Workload definitions: seeded inputs, the CLI commands of one pass, and
the checks every command's report must pass.

Each workload is a list of :class:`Command`.  A command knows its argv
(without the interpreter prefix), the report files it writes, and a check
that reads those files and returns the relative errors of every answer that
has an exact reference.  A check raises :class:`CheckFailed` when an output
is wrong; the caller counts that invocation as failed and never retries it.

References come from the acceptance suite: the closed form
``1/(1-2 rho)^2`` for symmetric label flips (and its published two-decimal
table), the onset windows of criteria 4 and 5, the ordering
``subset >= 1/rho_m^2`` and ``functional >= 1/rho_m^2``, and the 15% window
of criterion 8.  For the conditional tables the benchmark writes itself,
``1/rho_m^2`` is recomputed here with a plain numpy SVD, independently of
the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("sweep", "estimate", "cli-quick")

#: acceptance-suite tolerance; relative errors below it count as zero
REL_TOL = 1e-6

#: slack of the ordering gates (subset and functional never below 1/rho_m^2)
ORDER_SLACK = 1e-9

# published thresholds for symmetric label flips at rate rho (two decimals)
PUBLISHED = {
    0.02: 1.09, 0.04: 1.18, 0.06: 1.29, 0.08: 1.42, 0.10: 1.56, 0.12: 1.73,
    0.14: 1.93, 0.16: 2.16, 0.18: 2.44, 0.20: 2.78, 0.22: 3.19, 0.24: 3.70,
    0.26: 4.34, 0.28: 5.17, 0.30: 6.25, 0.32: 7.72, 0.34: 9.77, 0.36: 12.76,
    0.38: 17.36, 0.40: 25.00, 0.42: 39.06, 0.44: 69.44, 0.46: 156.25,
    0.48: 625.00,
}

#: the estimate workload's weighted table is a fixed fixture, not derived
#: from the workload seed: score-functional descent does not converge on it
#: (a known defect), and its final error ranges from 0.4% to 6% across
#: table seeds, so a seeded table would make beta0_rel_err unreadable
DEFECT_TABLE_SEED = 0
DEFECT_TABLE_SHAPE = (3000, 4)

QUICK_TABLE_SHAPE = (200, 3)

#: the report names of every estimator `--method all` runs on a noise preset
NOISE_METHODS = frozenset({"subset_search", "class_conditional", "functional",
                           "max_correlation_inverse", "info_density"})


class CheckFailed(Exception):
    """An invocation's exit code or report is wrong."""


def closed_form(rho: float) -> float:
    """Class-conditional threshold for symmetric binary flips at rate rho."""
    return 1.0 / (1.0 - 2.0 * rho) ** 2


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def weighted_table(seed: int, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet(1) rows and Gamma(2) example weights, normalized."""
    rng = np.random.default_rng(seed)
    n, c = shape
    rows = rng.dirichlet(np.ones(c), size=n)
    weights = rng.gamma(2.0, size=n)
    return rows, weights / weights.sum()


def write_table_csv(path: Path, rows: np.ndarray, weights: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*(f"y{j}" for j in range(rows.shape[1])), "weight"])
        for row, w in zip(rows, weights):
            writer.writerow([*(format(float(v), ".17g") for v in row), format(float(w), ".17g")])


def read_table_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        body = [r for r in csv.reader(fh) if r][1:]
    data = np.array([[float(v) for v in r] for r in body])
    return data[:, :-1], data[:, -1]


def svd_beta_lower(rows: np.ndarray, weights: np.ndarray) -> float:
    """1/rho_m^2 of a conditional table, from numpy's SVD of
    Q = p(x,y)/sqrt(p(x)p(y)) (thin, so memory stays O(NC))."""
    w = weights / weights.sum()
    r = rows / rows.sum(axis=1, keepdims=True)
    joint = w[:, None] * r
    q = joint / np.sqrt(np.outer(joint.sum(axis=1), joint.sum(axis=0)))
    svals = np.linalg.svd(q, compute_uv=False)
    return 1.0 / float(svals[1]) ** 2


def make_inputs(workload: str, seed: int, work: Path) -> dict[str, Path]:
    """Write the workload's input files into ``work``; same seed, same bytes."""
    files: dict[str, Path] = {}
    if workload == "estimate":
        files["table"] = work / "table_3000x4.csv"
        write_table_csv(files["table"], *weighted_table(DEFECT_TABLE_SEED, DEFECT_TABLE_SHAPE))
    elif workload == "cli-quick":
        files["table"] = work / "table_200x3.csv"
        write_table_csv(files["table"], *weighted_table(seed, QUICK_TABLE_SHAPE))
    return files


# ---------------------------------------------------------------------------
# commands and their checks
# ---------------------------------------------------------------------------

@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[], dict[str, float]]
    reports: list[Path] = field(default_factory=list)

    def verify(self) -> tuple[dict[str, float], str]:
        """Run the check: (relative errors, failure message or "")."""
        try:
            return self.check(), ""
        except CheckFailed as exc:
            return {}, str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return {}, f"malformed report ({type(exc).__name__}: {exc})"


def _load(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"report {path.name} unreadable: {exc}") from exc


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _estimates(doc: dict) -> dict[str, float]:
    return {e["method"]: float(e["value"]) for e in doc.get("estimates", [])}


def _order_gates(values: dict[str, float], lower: float, label: str) -> None:
    for method in ("subset_search", "functional"):
        if method in values:
            _require(
                values[method] >= lower - ORDER_SLACK,
                f"{label}: {method} {values[method]!r} below 1/rho^2 {lower!r}",
            )


def _check_noise_estimates(doc: dict, rho: float, label: str, expect: set[str],
                           sampled: bool) -> dict[str, float]:
    """Estimates on a noise preset.  On the exact (unsampled) input every
    route must equal the closed form; on sampled points only the
    class-conditional route has that reference, and the functional is held
    to the sampled table's own 1/rho^2."""
    values = _estimates(doc)
    _require(expect <= set(values), f"{label}: missing estimates {sorted(expect - set(values))}")
    exact = closed_form(rho)
    lower = values["max_correlation_inverse"]
    _order_gates(values, lower, label)
    errors = {f"{label}.class_conditional": rel_err(values["class_conditional"], exact)}
    if sampled:
        errors[f"{label}.functional"] = rel_err(values["functional"], lower)
    else:
        for method in ("subset_search", "functional", "max_correlation_inverse"):
            errors[f"{label}.{method}"] = rel_err(values[method], exact)
    return errors


def _check_table_estimates(doc: dict, oracle: float, label: str, expect: set[str]) -> dict[str, float]:
    values = _estimates(doc)
    _require(expect <= set(values), f"{label}: missing estimates {sorted(expect - set(values))}")
    mc = values["max_correlation_inverse"]
    _require(
        rel_err(mc, oracle) <= ORDER_SLACK,
        f"{label}: maxcorr {mc!r} differs from the SVD oracle {oracle!r}",
    )
    _order_gates(values, oracle, label)
    errors = {f"{label}.max_correlation_inverse": rel_err(mc, oracle)}
    if "functional" in values:
        errors[f"{label}.functional"] = rel_err(values["functional"], oracle)
    return errors


def _check_table_rows(doc: dict, rates: list[float], label: str, learned: bool) -> dict[str, float]:
    rows = doc.get("rows", [])
    _require(len(rows) == len(rates), f"{label}: {len(rows)} rows, expected {len(rates)}")
    errors = {}
    for row in rows:
        rho = round(float(row["noise_rate"]), 2)
        exact = closed_form(rho)
        cc = row["class_conditional"]
        published = PUBLISHED[rho]
        _require(
            abs(cc - published) <= 0.01 or rel_err(cc, published) <= 0.005,
            f"{label}: rho={rho} class_conditional {cc!r} vs published {published}",
        )
        for col in ("class_conditional", "subset_true_posterior", "functional"):
            _require(row.get(col) is not None, f"{label}: rho={rho} {col} missing")
            errors[f"{label}.rho{rho}.{col}"] = rel_err(row[col], exact)
        _require(row["subset_true_posterior"] >= exact - ORDER_SLACK, f"{label}: subset below closed form")
        _require(row["functional"] >= exact - ORDER_SLACK, f"{label}: functional below closed form")
        if learned:
            got = row.get("subset_learned_posterior")
            _require(
                got is not None and rel_err(got, exact) <= 0.15,
                f"{label}: learned-posterior threshold {got!r} not within 15% of {exact:.4f}",
            )
    return errors


def _sweep_command(work: Path, seed: int, tag: str, preset: str, rho: float,
                   window: tuple[float, float], extra: list[str]) -> Command:
    out_csv, out_json = work / f"sweep_{tag}.csv", work / f"sweep_{tag}.json"

    def check() -> dict[str, float]:
        doc = _load(out_json)
        detected = doc["sweep"]["detected_beta0"]
        lo, hi = window
        _require(detected is not None and lo <= detected <= hi,
                 f"sweep {preset}: detected onset {detected!r} outside [{lo}, {hi}]")
        _require(len(doc["sweep"]["points"]) == 25, f"sweep {preset}: expected 25 grid points")
        with open(out_csv, newline="") as fh:
            _require(sum(1 for _ in fh) == 26, f"sweep {preset}: CSV must hold 25 rows")
        theory = doc["theory"]
        exact = closed_form(rho)
        _require(theory["subset_search"] >= theory["max_correlation_inverse"] - ORDER_SLACK,
                 f"sweep {preset}: subset below 1/rho^2")
        errors = {f"sweep.{preset}.detected": rel_err(detected, exact)}
        for name, value in theory.items():
            errors[f"sweep.{preset}.{name}"] = rel_err(value, exact)
        return errors

    argv = ["sweep", "--preset", preset, *extra, "--seed", str(seed),
            "--out-csv", str(out_csv), "--out-json", str(out_json)]
    return Command(f"sweep {preset}", argv, check, [out_csv, out_json])


def _report_command(name: str, argv: list[str], out: Path, check_doc) -> Command:
    return Command(name, [*argv, "--out", str(out)], lambda: check_doc(_load(out)), [out])


def _gen_command(work: Path, seed: int, n: int) -> Command:
    out_samples, out_spec = work / "gen_samples.csv", work / "gen_spec.json"
    digests: list[str] = []

    def check() -> dict[str, float]:
        spec = _load(out_spec)
        _require(len(spec.get("components", [])) == 2, "gen: spec must hold two components")
        raw = out_samples.read_bytes()
        lines = raw.decode().splitlines()
        _require(lines[0] == "x1,x2,observed_label,true_label", "gen: bad CSV header")
        _require(len(lines) == n + 1, f"gen: {len(lines) - 1} samples, expected {n}")
        labels = np.array([[int(c) for c in line.split(",")[2:]] for line in lines[1:]])
        flips = float(np.mean(labels[:, 0] != labels[:, 1]))
        sigma = math.sqrt(0.2 * 0.8 / n)
        _require(abs(flips - 0.2) <= 6.0 * sigma, f"gen: flip rate {flips:.4f} far from 0.2")
        # the same seed must give the same file on every pass
        digests.append(hashlib.sha256(raw).hexdigest())
        _require(len(set(digests)) == 1, "gen: output changed between passes with one seed")
        return {}

    argv = ["gen", "--preset", "noise-0.2", "--n", str(n), "--seed", str(seed),
            "--out-samples", str(out_samples), "--out-spec", str(out_spec)]
    return Command("gen noise-0.2", argv, check, [out_samples, out_spec])


def _quick_commands(seed: int, work: Path, table: Path) -> list[Command]:
    """Short commands on tiny inputs, where start-up and imports dominate."""
    s = str(seed)
    oracle = svd_beta_lower(*read_table_csv(table))

    def check_maxcorr(doc: dict) -> dict[str, float]:
        value = doc["beta_lower_inverse"]
        _require(value is not None, "maxcorr: no finite 1/rho^2")
        return {"maxcorr.noise-0.2": rel_err(value, closed_form(0.2))}

    def check_overlap(doc: dict) -> dict[str, float]:
        values = _estimates(doc)
        expect = {"subset_search", "max_correlation_inverse", "info_density"}
        _require(expect <= set(values), "estimate overlap-3.2: missing estimates")
        _order_gates(values, values["max_correlation_inverse"], "estimate overlap-3.2")
        return {}

    return [
        _report_command("table", ["table", "--seed", s], work / "table.json",
                          lambda d: _check_table_rows(d, sorted(PUBLISHED), "table", learned=False)),
        _report_command("maxcorr noise-0.2", ["maxcorr", "--preset", "noise-0.2"],
                          work / "maxcorr.json", check_maxcorr),
        _report_command(
            "estimate noise-0.3",
            ["estimate", "--preset", "noise-0.3", "--method", "all", "--seed", s],
            work / "est_noise03.json",
            lambda d: _check_noise_estimates(d, 0.3, "estimate.noise-0.3", NOISE_METHODS, sampled=False),
        ),
        _report_command(
            "estimate overlap-3.2",
            ["estimate", "--preset", "overlap-3.2", "--method", "subset,maxcorr,info-density"],
            work / "est_overlap.json", check_overlap,
        ),
        _gen_command(work, seed, 20_000),
        _report_command(
            "estimate cond 200x3",
            ["estimate", "--cond", str(table), "--method", "subset,maxcorr", "--seed", s],
            work / "est_table200.json",
            lambda d: _check_table_estimates(
                d, oracle, "estimate.table200x3",
                {"subset_search", "max_correlation_inverse"}),
        ),
    ]


def commands(workload: str, seed: int, work: Path, inputs: dict[str, Path]) -> list[Command]:
    """The CLI invocations of one pass, in order."""
    s = str(seed)
    if workload == "sweep":
        return [
            _sweep_command(work, seed, "noise02", "noise-0.2", 0.2, (2.5, 3.1), []),
            _sweep_command(work, seed, "noise00", "noise-0.0", 0.0, (1.0, 1.1),
                           ["--beta-min", "0.82", "--beta-max", "1.45"]),
        ]
    if workload == "estimate":
        table = inputs["table"]
        oracle = svd_beta_lower(*read_table_csv(table))
        return [
            _report_command(
                "estimate noise-0.2 samples",
                ["estimate", "--preset", "noise-0.2", "--samples", "6000",
                 "--method", "all", "--seed", s],
                work / "est_samples.json",
                lambda d: _check_noise_estimates(d, 0.2, "estimate.samples6000", NOISE_METHODS, sampled=True),
            ),
            _report_command(
                "estimate cond 3000x4",
                ["estimate", "--cond", str(table), "--method", "all",
                 "--seed", str(DEFECT_TABLE_SEED)],
                work / "est_table.json",
                lambda d: _check_table_estimates(
                    d, oracle, "estimate.table3000x4",
                    {"subset_search", "functional", "max_correlation_inverse", "info_density"}),
            ),
            _report_command(
                "table learned",
                ["table", "--learned", "--rates", "0.2", "--samples", "4000", "--seed", s],
                work / "table_learned.json",
                lambda d: _check_table_rows(d, [0.2], "table.learned", learned=True),
            ),
        ]
    if workload == "cli-quick":
        return _quick_commands(seed, work, inputs["table"])
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
