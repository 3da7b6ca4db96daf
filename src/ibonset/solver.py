"""Tabular solver for the bottleneck objective I(X;Z) - beta I(Y;Z).

The encoder p(z|x) is iterated to a fixed point of the self-consistent
equations

    p(z|x) <- p(z) exp(-beta KL(p(y|x) || p(y|z))) / normalizer

with p(z) and p(y|z) recomputed from the current encoder each step.  The
free energy never increases along this iteration (the update is a coordinate
minimization of it), which is recorded per sweep point and checked; an
extrapolated step is accepted only when it keeps that property.

The exactly uniform encoder is a stationary point for every beta, so
initialization perturbs uniform rows with Dirichlet noise; several restarts
are run and the best final objective wins, ties within roundoff going to the
first restart.  A sweep over an ascending beta grid locates the empirical
learnability onset: the first grid point whose converged I(X;Z) escapes the
noise band of the lowest grid points (see :func:`detect_onset`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dist import ConditionalMatrix, DiscreteJoint, _write_csv_table, entropy, rel_entr
from .errors import ValidationError

_LOG_TINY = 1e-300
_LOG_FLOOR = math.log(_LOG_TINY)
# a sweep point whose free energy rose by more than this is reported
MONOTONE_TOL = 1e-9
# restarts whose final objectives lie within this much (relative, floored at
# an absolute 1) of the lowest are tied, and the lowest index among them wins
RESTART_TIE_RTOL = 1e-12
# an encoder whose one-update max-norm change is below this has converged
CONVERGENCE_TOL = 1e-10
# Dirichlet concentration of the perturbed-uniform initial rows
INIT_CONCENTRATION = 10.0
# the onset band of detect_onset
ONSET_BASELINE_POINTS = 5
ONSET_SIGMAS = 3.0
ONSET_FLOOR = 1e-6
# an objective below -ONSET_LEARNED_TOL beats the trivial encoder's 0
ONSET_LEARNED_TOL = 1e-9


@dataclass(frozen=True)
class Encoder:
    """Row-stochastic table p(z|x) produced by the solver, checked and
    renormalized as the rows of a :class:`ConditionalMatrix` are."""

    probs: np.ndarray
    beta: float
    converged: bool
    iterations: int
    objective: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "probs", ConditionalMatrix(self.probs).rows)


@dataclass(frozen=True)
class SweepPoint:
    beta: float
    i_xz: float
    i_yz: float
    objective: float
    converged: bool
    iterations: int
    restart: int
    max_objective_increase: float


@dataclass(frozen=True)
class SweepResult:
    """Converged information coordinates per beta plus the detected onset."""

    points: tuple[SweepPoint, ...]
    detected_beta0: float | None
    protocol: dict

    def __post_init__(self):
        for p in self.points:
            if p.i_yz > p.i_xz + 1e-9 or p.i_yz < -1e-9:
                raise ValidationError(
                    f"information pair ({p.i_xz}, {p.i_yz}) at beta={p.beta} "
                    "violates the processing inequality"
                )
            # the trivial encoder achieves 0, so a converged minimizer can
            # never end above it; points cut off mid-descent may
            if p.converged and p.objective > 1e-9:
                raise ValidationError(
                    f"objective {p.objective} at beta={p.beta} exceeds the "
                    "trivial solution's 0"
                )

    def to_dict(self) -> dict:
        return {
            "points": [
                {
                    "beta": p.beta,
                    "i_xz_nats": p.i_xz,
                    "i_yz_nats": p.i_yz,
                    "objective": p.objective,
                    "converged": p.converged,
                    "iterations": p.iterations,
                    "restart": p.restart,
                    "max_objective_increase": p.max_objective_increase,
                }
                for p in self.points
            ],
            "detected_beta0": self.detected_beta0,
            "protocol": dict(self.protocol),
        }


def _information_pairs(probs: np.ndarray, joint: DiscreteJoint) -> tuple[np.ndarray, np.ndarray]:
    """(I(X;Z), I(Y;Z)) of each encoder in a ``(n, |X|, |Z|)`` stack."""
    p_z = joint.p_x @ probs
    i_xz = np.add.reduce(joint.p_x[:, None] * rel_entr(probs, p_z[:, None, :]), axis=(1, 2))
    p_zy = probs.transpose(0, 2, 1) @ joint.probs
    i_yz = np.add.reduce(rel_entr(p_zy, p_z[:, :, None] * joint.p_y), axis=(1, 2))
    return i_xz, i_yz


def info_plane(encoder, joint: DiscreteJoint) -> tuple[float, float]:
    """Information coordinates (I(X;Z), I(Y;Z)) in nats for an encoder.

    Accepts an :class:`Encoder` or a raw row-stochastic matrix.
    """
    pzx = encoder.probs if isinstance(encoder, Encoder) else np.asarray(encoder, float)
    if pzx.ndim != 2 or pzx.shape[0] != joint.shape[0]:
        raise ValidationError("encoder rows do not match joint x alphabet")
    i_xz, i_yz = _information_pairs(pzx[None], joint)
    return float(i_xz[0]), float(i_yz[0])


def default_z_card(joint: DiscreteJoint) -> int:
    """Representation cardinality used when none is given:
    max(2, min(|X|, 2|Y|)), so that a one-row table still gets the two
    clusters :func:`solve` needs."""
    return max(2, min(joint.shape[0], 2 * joint.shape[1]))


def solve(
    joint: DiscreteJoint,
    beta: float,
    z_card: int | None = None,
    *,
    seed=0,
    max_iters: int = 5000,
    tol: float = CONVERGENCE_TOL,
    restarts: int = 5,
    init_probs: np.ndarray | None = None,
) -> Encoder:
    """Iterate the self-consistent equations to a fixed point at one beta.

    ``restarts`` random initializations (Dirichlet-perturbed uniform rows,
    concentration ``INIT_CONCENTRATION``) are iterated together as one
    ``(R, |T|, |Z|)`` stack (T the distinct rows of p(y|x), see below) for
    up to ``max_iters`` (at least 1) map evaluations each, stopping when
    the max-norm change of one plain update of p(z|x) drops below ``tol``;
    the restart with the lowest final objective is returned.
    Objectives within ``RESTART_TIE_RTOL`` (relative, floored at 1) of the
    lowest count as tied and the first of them wins, so the choice does not
    follow roundoff among restarts that reach the same encoder.
    ``init_probs``, when given, is tried as an additional deterministic
    initialization (used for warm starts and stationarity checks; the
    exactly uniform encoder is itself a fixed point, so random perturbation
    is what breaks that symmetry).

    Each cycle takes two plain updates and then a SQUAREM extrapolation
    (Varadhan & Roland 2008) on log p(z|x), followed by one stabilizing
    update; the extrapolated point is kept only if the free energy of that
    update is no higher than that of the second plain one, so the free
    energy never rises along the accepted iterates.  This removes the
    critical slowing down of plain iteration next to a transition.

    The update sees x only through the row p(y|x), so the kernel runs on
    the distinct rows t of p(y|x) (bitwise equality; nearly equal rows are
    a different problem and stay apart) with p(t, y) the summed mass of
    their x.  This is exact: an encoder equal on the rows of each t has the
    same I(X;Z) = I(T;Z), I(Y;Z) and free energy on both tables, and every
    update produces such an encoder.  The merge is kept on the table
    (:attr:`DiscreteJoint.merged`), so a sweep merges once.  Each
    initialization, still drawn on all |X| rows, enters as its p(x)-weighted
    mean over the rows of each t; one plain update of the unmerged
    iteration reaches the same point, so only the first extrapolation
    differs.  All restarts are scored in one stacked pass.  ``probs`` has
    all |X| rows, the rows of one t being copies.

    Non-convergence is not an error: the best iterate comes back with
    ``converged=False``.  ``diagnostics`` holds the winning ``restart``
    index, ``restarts_run``, the largest free-energy rise between accepted
    updates (``max_objective_increase``), the winner's information pair
    (``i_xz``, ``i_yz``) and the number of rows the kernel ran on
    (``distinct_rows``).
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValidationError(f"beta must be positive, got {beta!r}")
    if z_card is None:
        z_card = default_z_card(joint)
    if z_card < 2:
        raise ValidationError(f"z_card must be at least 2, got {z_card}")
    if restarts < 0:
        raise ValidationError("restarts must be non-negative")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")

    n_x = joint.shape[0]
    inits: list[np.ndarray] = []
    if init_probs is not None:
        arr = np.asarray(init_probs, dtype=float)
        if arr.shape != (n_x, z_card):
            raise ValidationError(
                f"init_probs shape {arr.shape} does not match ({n_x}, {z_card})"
            )
        inits.append(arr)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for child in seq.spawn(restarts):
        rng = np.random.default_rng(child)
        inits.append(rng.dirichlet(np.full(z_card, INIT_CONCENTRATION), size=n_x))
    if not inits:
        raise ValidationError("no initialization: give init_probs or restarts >= 1")

    merged, group = joint.merged
    n_t = merged.shape[0]
    # one bincount per initialization adds each (t, z) bin's rows in
    # ascending x, as np.add.at does, so the sums are bitwise the same
    bins = (group[:, None] * z_card + np.arange(z_card)).ravel()
    start = np.stack([
        np.bincount(bins, weights=(init * joint.p_x[:, None]).ravel(), minlength=n_t * z_card)
        for init in inits
    ]).reshape(len(inits), n_t, z_card)
    start /= np.bincount(group, weights=joint.p_x)[:, None]

    probs, iterations, converged, increases = _fixed_point(
        start, merged, beta, max_iters, tol
    )
    i_xz, i_yz = _information_pairs(probs, merged)
    objectives = (i_xz - beta * i_yz).tolist()
    lowest = min(objectives)
    cutoff = lowest + RESTART_TIE_RTOL * max(1.0, abs(lowest))
    win = next(k for k, obj in enumerate(objectives) if obj <= cutoff)
    return Encoder(
        probs=probs[win][group],
        beta=beta,
        converged=bool(converged[win]),
        iterations=int(iterations[win]),
        objective=objectives[win],
        diagnostics={
            "restart": win,
            "restarts_run": len(inits),
            "max_objective_increase": float(increases[win]),
            "i_xz": float(i_xz[win]),
            "i_yz": float(i_yz[win]),
            "distinct_rows": n_t,
        },
    )


def _fixed_point(
    stack: np.ndarray, joint: DiscreteJoint, beta: float, max_iters: int, tol: float
):
    """Run the safeguarded-accelerated iteration on a stack of encoders.

    Returns per-restart final tables, map evaluations, convergence flags and
    the largest free-energy rise between accepted updates.
    """
    p_x = joint.p_x
    p_yx = joint.probs / p_x[:, None]
    # F = -sum_x p(x) log Z(x) - beta I(X;Y) of one update satisfies
    # L(new) <= F <= L(old) for L = I(X;Z) - beta I(Y;Z) (Tishby, Pereira &
    # Bialek 1999); with Z(x) written without its p(y|x) log p(y|x) part the
    # constant left over is -beta H(Y)
    offset = -beta * entropy(joint.p_y)

    def update(pzx):
        p_z = p_x @ pzx
        p_y_given_z = (pzx.transpose(0, 2, 1) @ joint.probs) / np.maximum(
            p_z, _LOG_TINY
        )[:, :, None]
        logits = np.log(p_z)[:, None, :] + beta * (
            p_yx @ np.log(np.maximum(p_y_given_z, _LOG_TINY)).transpose(0, 2, 1)
        )
        peak = np.maximum.reduce(logits, axis=2, keepdims=True)
        new = np.exp(logits - peak)
        total = np.add.reduce(new, axis=2, keepdims=True)
        new /= total
        log_norm = peak + np.log(total)
        free = offset - np.add.reduce(log_norm[:, :, 0] * p_x, axis=1)
        return new, np.maximum(logits - log_norm, _LOG_FLOOR), free

    n = len(stack)
    out_probs = np.empty_like(stack)
    out_iters = np.zeros(n, dtype=int)
    out_converged = np.zeros(n, dtype=bool)
    out_increase = np.zeros(n)

    active = np.arange(n)
    cur = stack
    last_free = np.full(n, np.inf)
    increase = np.zeros(n)
    evals = 0

    def record(free, mask=None):
        # a member left out by ``mask`` keeps its last free energy and rise
        nonlocal last_free, increase
        if mask is None or mask.all():
            increase = np.maximum(increase, free - last_free)
            last_free = free
        elif mask.any():
            increase = np.maximum(increase, np.where(mask, free - last_free, 0.0))
            last_free = np.where(mask, free, last_free)

    # log(0) marks an empty cluster; an extrapolation that overflows yields a
    # non-finite free energy and is rejected by the comparison below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cur_log = np.maximum(np.log(np.maximum(stack, 0.0)), _LOG_FLOOR)
        while active.size and evals < max_iters:
            log0 = cur_log
            new, cur_log, free = update(cur)
            evals += 1
            record(free)
            done = np.maximum.reduce(np.abs(new - cur), axis=(1, 2)) < tol
            cur = new
            if done.any():
                out_probs[active[done]] = cur[done]
                out_iters[active[done]] = evals
                out_converged[active[done]] = True
                out_increase[active[done]] = increase[done]
                keep = ~done
                active, cur, cur_log, log0, last_free, increase = (
                    a[keep] for a in (active, cur, cur_log, log0, last_free, increase)
                )
            if not active.size or evals >= max_iters:
                break

            log1 = cur_log
            plain, log2, plain_free = update(cur)
            evals += 1
            record(plain_free)
            cur, cur_log = plain, log2
            if evals >= max_iters:
                break

            # SQUAREM step length alpha <= -1; alpha = -1 lands on the plain
            # two-step iterate
            r = log1 - log0
            v = log2 - 2.0 * log1 + log0
            r_norm = np.sqrt(np.add.reduce(r * r, axis=(1, 2)))
            v_norm = np.sqrt(np.add.reduce(v * v, axis=(1, 2)))
            alpha = np.minimum(-1.0, -r_norm / np.where(v_norm > 0.0, v_norm, np.inf))
            alpha = alpha[:, None, None]
            jump = log0 - 2.0 * alpha * r + alpha * alpha * v
            jump = np.exp(jump - np.maximum.reduce(jump, axis=2, keepdims=True))
            jump /= np.add.reduce(jump, axis=2, keepdims=True)
            stable, log3, stable_free = update(jump)
            evals += 1
            ok = stable_free <= plain_free
            record(stable_free, ok)
            if ok.all():
                cur, cur_log = stable, log3
            elif ok.any():
                cur = np.where(ok[:, None, None], stable, plain)
                cur_log = np.where(ok[:, None, None], log3, log2)

    out_probs[active] = cur
    out_iters[active] = evals
    out_increase[active] = increase
    return out_probs, out_iters, out_converged, out_increase


def _sweep_point(beta: float, enc: Encoder) -> SweepPoint:
    d = enc.diagnostics
    return SweepPoint(
        beta, d["i_xz"], d["i_yz"], enc.objective, enc.converged,
        enc.iterations, d["restart"], d["max_objective_increase"],
    )


def _sweep_task(args) -> SweepPoint:
    joint, beta, z_card, seed, max_iters, restarts = args
    enc = solve(joint, beta, z_card, seed=seed, max_iters=max_iters, restarts=restarts)
    return _sweep_point(beta, enc)


def detect_onset(betas: np.ndarray, i_xz_values: np.ndarray) -> tuple[float | None, dict]:
    """First beta where I(X;Z) escapes the low-beta noise band.

    The band is the mean plus ``ONSET_SIGMAS`` standard deviations of the
    ``ONSET_BASELINE_POINTS`` lowest grid points; ``ONSET_FLOOR`` (in nats)
    guards a zero standard deviation.  The onset is reported as the
    midpoint of the first escaping beta and its predecessor.
    """
    baseline = i_xz_values[:ONSET_BASELINE_POINTS]
    mu = float(np.mean(baseline))
    sigma = float(np.std(baseline))
    threshold = mu + ONSET_SIGMAS * sigma + ONSET_FLOOR
    detected = None
    for i in range(1, len(betas)):
        if i_xz_values[i] > threshold:
            detected = float((betas[i] + betas[i - 1]) / 2.0)
            break
    stats = {
        "baseline_mean": mu,
        "baseline_std": sigma,
        "threshold": threshold,
        "baseline_points": ONSET_BASELINE_POINTS,
        "sigma_multiplier": ONSET_SIGMAS,
        "floor": ONSET_FLOOR,
    }
    return detected, stats


def check_grid_points(points: int) -> None:
    """Reject a beta grid of ``points`` points, as :func:`sweep` does, when
    it is too short for :func:`detect_onset`'s baseline band plus two; a
    front end can call this before it builds the grid."""
    if points < ONSET_BASELINE_POINTS + 2:
        raise ValidationError(
            f"beta grid must be one-dimensional with >= {ONSET_BASELINE_POINTS + 2} points"
        )


def sweep(
    joint: DiscreteJoint,
    beta_grid,
    z_card: int | None = None,
    *,
    seed=0,
    max_iters: int = 5000,
    restarts: int = 5,
    warm_start: bool = False,
    workers: int | None = None,
) -> SweepResult:
    """Solve an ascending beta grid and detect the learnability onset.

    Every point is one call of the module-level :func:`solve` at its grid
    beta with its own derived seed, on the distinct rows of p(y|x) merged
    once per table.  One serial loop solves the grid: in ascending order
    from the random restarts alone, or, with ``warm_start``, in descending
    order with each point's encoder as an extra initialization
    (``init_probs``) of the next lower beta.  That annealing can reach a
    lower objective than the cold restarts, which can stay in a higher
    local minimum; it is off by default.

    Without ``warm_start`` the points are independent, so ``workers``
    processes give the same result; the pool never holds more processes
    than grid points or CPUs, and 0 or 1 worker runs serially.  It does not
    pay: on 2 cores, the 25-point ``noise-0.2`` sweep at seed 1, run end to
    end as a command, took a median 0.46 s with two workers against 0.38 s
    serially, slower in 8 of 8 alternating runs.  No command sets
    ``workers``; it stays only for the benchmark probes in
    ``bench/tracing.py`` that call it and goes once they are retired.  A
    non-positive or non-finite beta or ``max_iters`` below 1 is rejected
    before any point is solved.

    ``protocol`` records the detection band, the solver settings, the
    points whose free energy rose (``non_monotone_betas``), the rows the
    kernel ran on (``distinct_rows``) and the grid beta whose point took
    the most solver iterations, the first on ties (``slowdown_peak_beta``).
    An objective below the trivial encoder's 0 at the lowest grid point
    proves that beta0 lies below the grid: ``onset_below_grid`` is then
    true and ``detected_beta0`` None, since the band was built from points
    that had already learned.
    """
    betas = np.asarray(beta_grid, dtype=float)
    check_grid_points(len(betas) if betas.ndim == 1 else 0)
    if not np.all((betas > 0.0) & np.isfinite(betas)):
        raise ValidationError("beta grid must be positive and finite")
    if np.any(np.diff(betas) <= 0.0):
        raise ValidationError("beta grid must be strictly ascending")
    if workers is not None and workers < 0:
        raise ValidationError(f"workers must be non-negative, got {workers}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    if z_card is None:
        z_card = default_z_card(joint)
    distinct_rows = joint.merged[0].shape[0]  # before the pool pickles joint

    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(len(betas))

    # the fork start method launches every worker up front
    workers = min(workers or 1, len(betas), os.cpu_count() or 1)
    if workers > 1 and not warm_start:
        # imported here so that the serial path never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        tasks = [
            (joint, float(beta), z_card, child, max_iters, restarts)
            for beta, child in zip(betas, children)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_task, tasks))
    else:
        points = [None] * len(betas)
        prev = None
        for i in reversed(range(len(betas))) if warm_start else range(len(betas)):
            beta = float(betas[i])
            enc = solve(joint, beta, z_card, seed=children[i], max_iters=max_iters,
                        restarts=restarts, init_probs=prev)
            points[i] = _sweep_point(beta, enc)
            if warm_start:
                prev = enc.probs

    detected, stats = detect_onset(betas, np.array([p.i_xz for p in points]))
    below_grid = points[0].objective < -ONSET_LEARNED_TOL
    if below_grid:
        detected = None
    protocol = {
        **stats,
        "z_card": z_card,
        "restarts": restarts,
        "max_iters": max_iters,
        "tol": CONVERGENCE_TOL,
        "warm_start": warm_start,
        "onset_below_grid": below_grid,
        "non_monotone_betas": [
            p.beta for p in points if p.max_objective_increase > MONOTONE_TOL
        ],
        "distinct_rows": distinct_rows,
        # first of the points with the most solver iterations: where the
        # iteration slows down most, next to a transition
        "slowdown_peak_beta": points[int(np.argmax([p.iterations for p in points]))].beta,
    }
    return SweepResult(points=tuple(points), detected_beta0=detected, protocol=protocol)


def save_sweep_csv(result: SweepResult, path) -> None:
    """Plot-ready CSV: one row per grid point."""
    _write_csv_table(path, ["beta", "i_xz_nats", "i_yz_nats", "objective"],
                     [[p.beta, p.i_xz, p.i_yz, p.objective] for p in result.points])
