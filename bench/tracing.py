"""Traced run: per-layer metrics from spans recorded by the benchmark.

No span lives inside ``src/``.  The benchmark (with ``src`` on sys.path)
wraps the public functions of ``dist``, ``synth``, ``classifier``,
``estimators`` and ``solver`` at their module attributes (which is where
``cli`` and ``solver.sweep`` look them up), replays the workload's
commands in-process through ``cli.main``, and restores the originals
afterwards.  Spans are kept in memory and written to ``result.json`` when
the run ends.

Per command ``c`` with untraced subprocess wall ``W_c`` (median over the
untraced passes), traced in-process ``cli.main`` wall ``T_c`` and top-level
layer time ``L_c`` (the layer spans directly under ``cli.main``)::

    cli.self_c       = T_c - L_c                (argparse, printing, reports)
    trace.overhead_c = setup_s + T_c - W_c      (traced minus untraced wall)
    W_c              = setup_s + L_c + cli.self_c - trace.overhead_c

``cli.self_s`` and ``trace.overhead_s`` sum these over the commands.

A fixed suite of layer probes follows: import times from ``-X importtime``,
CSV and sampling costs, discretization at 32/64/128 bins, classifier
training, the estimators at fixed sizes and along a scaling curve in N,
the criterion-4 sweep with per-point solve spans (seeded exactly as the CLI
seeds ``sweep --preset noise-0.2``), the solver kernel per iteration as
|X| grows, and the process-pool and warm-start sweep baselines.  The probes
are the same on every workload; their inputs come from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads

#: functions wrapped during the replay, per layer module
LAYER_FUNCTIONS = {
    "dist": ("load_conditional_csv", "load_joint_csv", "joint_from_conditional",
             "conditional_from_joint", "mutual_information"),
    "synth": ("get_preset", "load_spec_json", "save_spec_json", "sample",
              "save_samples_csv", "analytic_posterior", "discretize", "noise_preset",
              "symmetric_flip"),
    "classifier": ("fit", "predict_proba"),
    "estimators": ("subset_search", "info_density_beta", "class_conditional_beta",
                   "minimize_beta", "max_correlation", "max_correlation_beta"),
    "solver": ("sweep", "solve", "save_sweep_csv"),
}

#: estimator probes expected to fail at this revision; they count in
#: estimators.failed_ops but not as failed invocations.  subset_search on the
#: N=1e5 analytic posterior: the full prefix's cumulative mass rounds to
#: 1 - 1.9e-12, passes the ``mass < 1 - 1e-15`` guard of ``_subset_ratio``
#: and yields a threshold of about 0.359, which the result rejects as below 1
KNOWN_FAILURES = frozenset({"estimators.subset_search_s.n1e5"})

#: fidelity tolerance between the CLI's reports and the in-process replay's
FIDELITY_TOL = 1e-12

IMPORT_REPEATS = 3
SMALL_PROBE_REPEATS = 3
SCALING_N = {"n1e3": 1_000, "n6e3": 6_000, "n1e4": 10_000, "n1e5": 100_000}
DISCRETIZE_BINS = (32, 64, 128)
KERNEL_ITERATIONS = 200
SWEEP_GRID = (1.5, 4.5, 25)

#: every per-layer metric with its unit, in report order
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_special_s": "s",
    "import.ibonset_self_s": "s",
    "cli.self_s": "s",
    "dist.load_conditional_csv_s": "s",
    "synth.sample_s": "s",
    "synth.analytic_posterior_s": "s",
    "synth.save_samples_csv_s": "s",
    **{f"synth.discretize_s.bins{b}": "s" for b in DISCRETIZE_BINS},
    "classifier.fit_s": "s",
    "classifier.predict_proba_s": "s",
    "estimators.minimize_beta_s": "s",
    "estimators.minimize_beta_iters": "count",
    "estimators.minimize_beta_converged_ratio": "ratio",
    "estimators.max_correlation_beta_s.n1e3": "s",
    "estimators.max_correlation_beta_s.n6e3": "s",
    "estimators.max_correlation_beta_peak_mb.n1e3": "MB",
    "estimators.max_correlation_beta_peak_mb.n6e3": "MB",
    "estimators.subset_search_s.n1e3": "s",
    "estimators.subset_search_s.n1e4": "s",
    "estimators.subset_search_s.n1e5": "s",
    "estimators.subset_search_range_s.n1e4": "s",
    "estimators.info_density_beta_s": "s",
    "estimators.failed_ops": "count",
    "solver.sweep_s": "s",
    "solver.solve_s.p50": "s",
    "solver.solve_s.max": "s",
    "solver.iterations_sum": "count",
    "solver.iterations_max": "count",
    "solver.slowest_point_share": "ratio",
    "solver.converged_ratio": "ratio",
    **{f"solver.iter_us.bins{b}": "us" for b in DISCRETIZE_BINS},
    "solver.sweep_workers2_s": "s",
    "solver.sweep_workers2_cpu_s": "s",
    "solver.sweep_warm_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans around calls to module attributes, with a parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.command = ""

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "command": self.command, "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def children_time(self, parent: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == parent)


# ---------------------------------------------------------------------------
# replay fidelity
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FIDELITY_TOL * max(1.0, abs(a), abs(b))


def _same(a, b, where: str) -> str | None:
    """First difference between two report values, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = (set(a) | set(b)) - {"timestamp"}
        for key in sorted(keys):
            if key not in a or key not in b:
                return f"{where}.{key} present on one side only"
            diff = _same(a[key], b[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: lengths {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _same(x, y, f"{where}[{i}]")
            if diff:
                return diff
        return None
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric) and not isinstance(a, bool):
        return None if _close(float(a), float(b)) else f"{where}: {a!r} vs {b!r}"
    return None if a == b else f"{where}: {a!r} vs {b!r}"


def _csv_cells(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    out = []
    for row in rows:
        parsed = []
        for cell in row:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        out.append(parsed)
    return out


def compare_outputs(cli_copy: Path, replay: Path) -> str | None:
    if replay.suffix == ".json":
        with open(cli_copy) as a, open(replay) as b:
            return _same(json.load(a), json.load(b), replay.name)
    return _same(_csv_cells(cli_copy), _csv_cells(replay), replay.name)


# ---------------------------------------------------------------------------
# replay of the workload's commands
# ---------------------------------------------------------------------------

def replay(passes, commands, setup_s: float):
    """Replay each command in-process under spans and split its untraced
    wall (the median over ``passes``) into setup, layers and CLI self time."""
    from ibonset import cli

    tracer = Tracer()
    rows, errors = [], []
    failed = 0
    for i, cmd in enumerate(commands):
        wall = statistics.median(p[i].wall_s for p in passes)
        copies = []
        for path in cmd.reports:
            if path.exists():
                copy = path.with_name(path.name + ".cli")
                path.replace(copy)
                copies.append((copy, path))

        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"ibonset.{layer}")
            for attr in names:
                tracer.wrap(module, attr, f"{layer}.{attr}")
        tracer.command = cmd.name
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span("cli.main") as root:
                    code = cli.main(list(cmd.argv))
        finally:
            tracer.restore()
        traced_s = root["end"] - root["start"]
        layers_s = tracer.children_time(root["id"])
        problem = f"exit code {code}: {sink.getvalue()[-300:]}" if code != 0 else cmd.verify()[1]
        for copy, path in copies:
            problem = problem or compare_outputs(copy, path) or ""
        if problem:
            failed += 1
            errors.append(f"{cmd.name} (replay): {problem}")
        rows.append({
            "command": cmd.name,
            "wall_s": wall,
            "wall_samples": len(passes),
            "setup_s": setup_s,
            "layers_s": layers_s,
            "cli_self_s": traced_s - layers_s,
            "traced_s": traced_s,
            "overhead_s": setup_s + traced_s - wall,
        })
    return rows, tracer.spans, len(commands), failed, errors


# ---------------------------------------------------------------------------
# fixed-size layer probes
# ---------------------------------------------------------------------------

def import_times(env: dict) -> dict[str, float]:
    """Medians over fresh interpreters of ``-X importtime`` figures."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy_special": [], "ibonset_self": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ibonset.cli"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: import of ibonset.cli failed: {proc.stderr[-400:]}")
        cumulative, own = {}, 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            cumulative.setdefault(name, int(cum_us) / 1e6)
            if name == "ibonset" or name.startswith("ibonset."):
                own += int(self_us) / 1e6
        samples["numpy"].append(cumulative.get("numpy", 0.0))
        samples["scipy_special"].append(cumulative.get("scipy.special", 0.0))
        samples["ibonset_self"].append(own)
    return {k: statistics.median(v) for k, v in samples.items()}


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def median_time(repeats: int, fn, *args, **kwargs) -> tuple[float, object]:
    runs = [timed(fn, *args, **kwargs) for _ in range(repeats)]
    return statistics.median(t for t, _ in runs), runs[-1][1]


class EstimatorProbes:
    """Times estimator calls and counts their failures."""

    def __init__(self):
        self.failed_ops = 0
        self.unexpected: list[str] = []

    def run(self, metric: str, fn, *args, **kwargs):
        from ibonset.errors import OnsetError

        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (OnsetError, ValueError, np.linalg.LinAlgError) as exc:
            self.failed_ops += 1
            if metric not in KNOWN_FAILURES:
                self.unexpected.append(f"{metric}: {type(exc).__name__}: {exc}")
            result = None
        return time.perf_counter() - start, result


def suite(seed: int, work: Path) -> tuple[dict[str, float], dict, list[str]]:
    """Fixed-size probes of every layer.  Returns metrics, notes (sizes and
    sample counts) and unexpected failures."""
    from ibonset import classifier, dist, estimators, solver, synth
    from ibonset.cli import _task_seed

    out: dict[str, float] = {}
    notes: dict = {}
    spec = synth.get_preset("noise-0.2")

    # dist: the estimate workload's weighted table
    table = work / "probe_table_3000x4.csv"
    workloads.write_table_csv(table, *workloads.weighted_table(
        workloads.DEFECT_TABLE_SEED, workloads.DEFECT_TABLE_SHAPE))
    out["dist.load_conditional_csv_s"], cond_table = median_time(
        SMALL_PROBE_REPEATS, dist.load_conditional_csv, table)

    # synth: the gen command's size, then exact discretization
    out["synth.sample_s"], samples = median_time(
        SMALL_PROBE_REPEATS, synth.sample, spec, 20_000, seed=_task_seed(seed, 0))
    out["synth.analytic_posterior_s"], _ = median_time(
        SMALL_PROBE_REPEATS, synth.analytic_posterior, spec, samples.points)
    out["synth.save_samples_csv_s"], _ = median_time(
        SMALL_PROBE_REPEATS, synth.save_samples_csv, samples, work / "probe_samples.csv")
    joints = {}
    for bins in DISCRETIZE_BINS:
        out[f"synth.discretize_s.bins{bins}"], joints[bins] = median_time(
            SMALL_PROBE_REPEATS, synth.discretize, spec, bins_per_axis=bins)
        notes[f"cells.bins{bins}"] = joints[bins].shape[0]

    # classifier: the table --learned training set
    train = synth.sample(spec, 4000, seed=_task_seed(seed, 2))
    out["classifier.fit_s"], model = timed(classifier.fit, train, classifier.TrainConfig(seed=seed))
    out["classifier.predict_proba_s"], _ = median_time(
        SMALL_PROBE_REPEATS, classifier.predict_proba, model, train.points)

    # estimators: the non-converging table, small random joints, and the
    # scaling curve on analytic posteriors of the noise-0.2 mixture
    probes = EstimatorProbes()
    joint_table = dist.joint_from_conditional(cond_table)
    out["estimators.minimize_beta_s"], est = probes.run(
        "estimators.minimize_beta_s", estimators.minimize_beta, joint_table,
        seed=workloads.DEFECT_TABLE_SEED)
    rng = np.random.default_rng(seed)
    runs = [est]
    for k in range(4):
        small = dist.DiscreteJoint(rng.dirichlet(np.ones(200)).reshape(20, 10))
        runs.append(probes.run("estimators.minimize_beta.20x10",
                               estimators.minimize_beta, small, seed=seed + k)[1])
    done = [r for r in runs if r is not None]
    out["estimators.minimize_beta_iters"] = float(est.diagnostics["iterations"]) if est else 0.0
    out["estimators.minimize_beta_converged_ratio"] = (
        sum(bool(r.diagnostics["converged"]) for r in done) / len(runs))
    notes["minimize_beta_runs"] = len(runs)

    posteriors = {}
    for tag, n in SCALING_N.items():
        pts = synth.sample(spec, n, seed=_task_seed(seed, 0)).points
        posteriors[tag] = synth.analytic_posterior(spec, pts)
    for tag in ("n1e3", "n6e3"):
        joint = dist.joint_from_conditional(posteriors[tag])
        tracemalloc.start()
        try:
            out[f"estimators.max_correlation_beta_s.{tag}"], _ = probes.run(
                f"estimators.max_correlation_beta_s.{tag}",
                estimators.max_correlation_beta, joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"estimators.max_correlation_beta_peak_mb.{tag}"] = peak / 2**20
    for tag in ("n1e3", "n1e4", "n1e5"):
        out[f"estimators.subset_search_s.{tag}"], _ = probes.run(
            f"estimators.subset_search_s.{tag}", estimators.subset_search, posteriors[tag])
    out["estimators.subset_search_range_s.n1e4"], _ = probes.run(
        "estimators.subset_search_range_s.n1e4", estimators.subset_search,
        posteriors["n1e4"], variant="range")
    out["estimators.info_density_beta_s"], _ = probes.run(
        "estimators.info_density_beta_s", estimators.info_density_beta, posteriors["n1e4"])
    out["estimators.failed_ops"] = float(probes.failed_ops)

    # solver: the criterion-4 sweep exactly as `sweep --preset noise-0.2`
    # seeds it, with one span per grid point
    joint32 = joints[32]
    grid = np.geomspace(*SWEEP_GRID)
    per_point: list[dict] = []
    original_solve = solver.solve

    def traced_solve(*args, **kwargs):
        seconds, enc = timed(original_solve, *args, **kwargs)
        per_point.append({"beta": args[1], "wall_s": seconds, "iterations": enc.iterations})
        return enc

    solver.solve = traced_solve
    try:
        out["solver.sweep_s"], result = timed(solver.sweep, joint32, grid, seed=_task_seed(seed, 1))
    finally:
        solver.solve = original_solve
    walls = [p["wall_s"] for p in per_point]
    iters = [p["iterations"] for p in per_point]
    out["solver.solve_s.p50"] = statistics.median(walls)
    out["solver.solve_s.max"] = max(walls)
    out["solver.iterations_sum"] = float(sum(iters))
    out["solver.iterations_max"] = float(max(iters))
    out["solver.slowest_point_share"] = max(walls) / sum(walls)
    out["solver.converged_ratio"] = sum(p.converged for p in result.points) / len(result.points)
    slowest = max(per_point, key=lambda p: p["wall_s"])
    notes["solve_points"] = len(per_point)
    notes["slowest_beta"] = slowest["beta"]
    notes["detected_beta0"] = result.detected_beta0

    for bins in DISCRETIZE_BINS:
        seconds, _ = timed(solver.solve, joints[bins], 3.0, seed=_task_seed(seed, 1),
                           restarts=1, max_iters=KERNEL_ITERATIONS, tol=0.0)
        out[f"solver.iter_us.bins{bins}"] = seconds / KERNEL_ITERATIONS * 1e6

    cpu_before = _cpu_self_and_children()
    out["solver.sweep_workers2_s"], parallel = timed(
        solver.sweep, joint32, grid, seed=_task_seed(seed, 1), workers=2)
    out["solver.sweep_workers2_cpu_s"] = _cpu_self_and_children() - cpu_before
    out["solver.sweep_warm_s"], _ = timed(
        solver.sweep, joint32, grid, seed=_task_seed(seed, 1), warm_start=True)

    unexpected = list(probes.unexpected)
    if parallel.detected_beta0 != result.detected_beta0:
        unexpected.append(
            f"solver.sweep workers=2 onset {parallel.detected_beta0} differs from serial "
            f"{result.detected_beta0}")
    return out, notes, unexpected


def _cpu_self_and_children() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def traced_run(passes, commands, seed: int, setup_s: float, work: Path, env: dict) -> dict:
    rows, spans, attempted, failed, errors = replay(passes, commands, setup_s)
    imports = import_times(env)
    probes, notes, unexpected = suite(seed, work)
    failed += len(unexpected)
    errors.extend(unexpected)

    cli_sweep = work / "sweep_noise02.json"
    if cli_sweep.exists():
        # the probe sweep must reproduce the CLI's `sweep --preset noise-0.2`
        with open(cli_sweep) as fh:
            cli_onset = json.load(fh)["sweep"]["detected_beta0"]
        if cli_onset != notes["detected_beta0"]:
            failed += 1
            errors.append(f"solver probe onset {notes['detected_beta0']} != CLI {cli_onset}")

    values = {
        "import.numpy_s": imports["numpy"],
        "import.scipy_special_s": imports["scipy_special"],
        "import.ibonset_self_s": imports["ibonset_self"],
        "cli.self_s": sum(r["cli_self_s"] for r in rows),
        **probes,
        "trace.overhead_s": sum(r["overhead_s"] for r in rows),
    }
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
    metrics["solver.solve_s.p50"]["samples"] = notes["solve_points"]
    for name in ("import.numpy_s", "import.scipy_special_s", "import.ibonset_self_s"):
        metrics[name]["samples"] = IMPORT_REPEATS
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "commands": rows,
        "notes": notes,
        "spans": spans,
    }
