"""End-to-end benchmark of the ``ibonset`` command line.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 26 --trace 0

One closed-loop client runs the workload's CLI commands as subprocesses,
one at a time, pass after pass, while the next pass is expected to end
within ``--seconds`` (at least three passes).  Every invocation's exit code and report files
are checked; a failed check counts as a failed invocation and is never
retried.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` one untraced pass is followed by an in-process replay with
spans around the calls into each layer, plus fixed-size layer probes and
scaling curves (see ``tracing.py``), and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes goes under ``.bench_work/`` in the repository root, including
``result.json`` with the environment block, per-command samples and (for
traced runs) the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (sibling module; the benchmark is not a package)

#: fresh interpreter imports averaged into setup_s
SETUP_REPEATS = 5

#: no single CLI invocation may take longer than this
COMMAND_TIMEOUT_S = 120.0

#: stop starting passes after this much wall time, whatever --seconds says
PASS_BUDGET_S = 120.0

#: passes in a trace-0 run, at least; the metrics are medians over passes
MIN_PASSES = 3

UNMEASURED = (
    "cold-cache and machine-wide counters are unmeasured: the benchmark drops "
    "no caches and runs no perf or system-wide tracing; all timings are "
    "warm-cache wall clock (perf_counter) and child rusage from os.wait4"
)


@dataclass
class Invocation:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    error: str = ""


class Child:
    """Runs ``python -m ibonset.cli`` (or any interpreter argv) in the work
    directory and measures wall time, CPU and peak RSS with os.wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("IBONSET_OUT_DIR", None)

    def run(self, args: list[str]) -> tuple[float, float, float, int, str]:
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=self.env,
                cwd=self.work,
            )
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        stderr_tail = err_path.read_text(errors="replace")[-400:].strip()
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stderr_tail

    def invoke(self, cmd: workloads.Command) -> tuple[Invocation, dict[str, float]]:
        """Run one CLI command and check its outputs."""
        for path in cmd.reports:
            path.unlink(missing_ok=True)
        wall, cpu, rss, code, stderr_tail = self.run(["-m", "ibonset.cli", *cmd.argv])
        if code != 0:
            errors, error = {}, f"exit code {code}: {stderr_tail}"
        else:
            errors, error = cmd.verify()
        return Invocation(cmd.name, wall, cpu, rss, not error, error), errors


def run_passes(child: Child, commands, seconds: float, min_passes: int):
    """Closed loop: whole passes while the next one is expected to end
    within ``seconds`` (at least ``min_passes``).  Returns the passes and,
    per answer, the worst relative error against its exact reference."""
    passes: list[list[Invocation]] = []
    worst: dict[str, float] = {}
    budget = min(seconds, PASS_BUDGET_S)
    start = time.perf_counter()
    durations: list[float] = []
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(durations) <= budget
    ):
        began = time.perf_counter()
        invocations = []
        for cmd in commands:
            inv, errors = child.invoke(cmd)
            invocations.append(inv)
            for key, value in errors.items():
                worst[key] = max(worst.get(key, 0.0), value)
        passes.append(invocations)
        durations.append(time.perf_counter() - began)
    return passes, worst


def setup_times(child: Child) -> list[float]:
    """Wall seconds of fresh interpreters that only import the CLI."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, code, stderr_tail = child.run(["-c", "import ibonset.cli"])
        if code != 0:
            raise SystemExit(f"bench: cannot import ibonset.cli: {stderr_tail}")
        times.append(wall)
    return times


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(passes: list[list[Invocation]], setup: list[float], worst_err: float) -> dict:
    """The end-to-end metrics of a trace-0 run.  ``samples`` is kept for the
    human report and result.json; the JSON line carries value and unit."""
    flat = [inv for p in passes for inv in p]
    cmd_walls = [inv.wall_s for inv in flat]
    attempted = len(flat)
    failed = sum(not inv.ok for inv in flat)
    return {
        "wall_s": metric(statistics.median(sum(i.wall_s for i in p) for p in passes), "s", len(passes)),
        "cmd_s.p50": metric(percentile(cmd_walls, 50), "s", len(cmd_walls)),
        "cmd_s.p90": metric(percentile(cmd_walls, 90), "s", len(cmd_walls)),
        "cpu_s": metric(statistics.median(sum(i.cpu_s for i in p) for p in passes), "s", len(passes)),
        "peak_rss_mb": metric(statistics.median(max(i.rss_mb for i in p) for p in passes), "MB", len(passes)),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        # errors below the acceptance tolerance count as zero; the floor
        # keeps the metric positive so a relative bound stays meaningful
        "beta0_rel_err": metric(max(worst_err, workloads.REL_TOL), "ratio"),
        "success_rate": metric((attempted - failed) / attempted, "ratio", attempted),
    }


def environment(args) -> dict:
    import platform
    from importlib import metadata

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unmeasured": UNMEASURED,
    }


def blas_threads() -> int | None:
    """OpenBLAS's run-time thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def report_lines(metrics: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        count = f"  (n={m['samples']})" if "samples" in m else ""
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}{count}")
    return lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ibonset" / "cli.py").is_file():
        print(f"bench: no ibonset sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = Child(work)
    env = environment(args)

    setup = setup_times(child)
    inputs = workloads.make_inputs(args.workload, args.seed, work)
    commands = workloads.commands(args.workload, args.seed, work, inputs)

    if args.trace:
        # untraced walls for the additive split, then the in-process replay
        sys.path.insert(0, str(SRC))
        import tracing

        passes, _ = run_passes(child, commands, args.seconds / 2, min_passes=2)
        result = tracing.traced_run(passes, commands, args.seed, statistics.median(setup), work, child.env)
        metrics = result["metrics"]
        extra = {k: result[k] for k in ("commands", "notes", "errors", "spans")}
        flat = [inv for p in passes for inv in p]
        attempted = len(flat) + result["attempted"]
        failed = sum(not inv.ok for inv in flat) + result["failed"]
        extra["errors"] = [f"{inv.name}: {inv.error}" for inv in flat if not inv.ok] + extra["errors"]
    else:
        passes, worst = run_passes(child, commands, args.seconds, min_passes=MIN_PASSES)
        metrics = end_to_end(passes, setup, max(worst.values(), default=0.0))
        flat = [inv for p in passes for inv in p]
        attempted, failed = len(flat), sum(not inv.ok for inv in flat)
        extra = {
            "passes": [[vars(inv) for inv in p] for p in passes],
            "worst_errors": dict(sorted(worst.items(), key=lambda kv: -kv[1])[:10]),
            "errors": [f"{inv.name}: {inv.error}" for inv in flat if not inv.ok],
        }

    with open(ROOT / ".bench_work" / "result.json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics, **extra}, fh, indent=1)

    print(f"ibonset benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "unmeasured"))
    print(f"note: {UNMEASURED}")
    print(f"invocations: {attempted} attempted, {failed} failed")
    for line in extra["errors"]:
        print(f"  FAILED {line}")
    for row in extra.get("commands", []):
        print(f"  {row['command']:28s} wall {row['wall_s']:.3f} s (n={row['wall_samples']})"
              f" = setup {row['setup_s']:.3f} + layers {row['layers_s']:.3f}"
              f" + cli.self {row['cli_self_s']:.3f} - trace.overhead {row['overhead_s']:+.3f}")
    if "notes" in extra:
        print("notes: " + ", ".join(f"{k}={v}" for k, v in extra["notes"].items()))
    print("metrics:")
    print("\n".join(report_lines(metrics)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
