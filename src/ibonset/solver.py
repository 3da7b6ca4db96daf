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
first restart.  A sweep anneals down an ascending beta grid and locates the
empirical learnability onset: the first grid point whose objective beats
the trivial encoder's 0 (see :func:`detect_onset`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dist import ConditionalMatrix, DiscreteJoint, _Frozen, _write_csv_table, entropy, rel_entr
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
# an objective below -ONSET_LEARNED_TOL beats the trivial encoder's 0
ONSET_LEARNED_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Encoder(_Frozen):
    """Row-stochastic table p(z|x) produced by the solver, checked and
    renormalized as the rows of a :class:`ConditionalMatrix` are."""

    probs: np.ndarray
    beta: float
    converged: bool
    iterations: int
    objective: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self._store(probs=ConditionalMatrix(self.probs).rows)


@dataclass(frozen=True)
class SweepPoint:
    beta: float
    i_xz_nats: float
    i_yz_nats: float
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
            if p.i_yz_nats > p.i_xz_nats + 1e-9 or p.i_yz_nats < -1e-9:
                raise ValidationError(
                    f"information pair ({p.i_xz_nats}, {p.i_yz_nats}) at beta={p.beta} "
                    "violates the processing inequality"
                )
            # the trivial encoder achieves 0, so a converged minimizer can
            # never end above it; points cut off mid-descent may
            if p.converged and p.objective > ONSET_LEARNED_TOL:
                raise ValidationError(
                    f"objective {p.objective} at beta={p.beta} exceeds the "
                    "trivial solution's 0"
                )

    def to_dict(self) -> dict:
        return {
            "points": [asdict(p) for p in self.points],
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


def _settings(joint: DiscreteJoint, z_card: int | None, max_iters: int) -> int:
    """Check the settings :func:`solve` and :func:`sweep` share and return
    ``z_card``, which defaults to max(2, min(|X|, 2|Y|)) so that a one-row
    table still gets the two clusters the solver needs."""
    if z_card is None:
        z_card = max(2, min(joint.shape[0], 2 * joint.shape[1]))
    if z_card < 2:
        raise ValidationError(f"z_card must be at least 2, got {z_card}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    return z_card


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
    initialization (the sweep's annealing passes the encoder of the next
    higher beta; the exactly uniform encoder is itself a fixed point, so
    random perturbation is what breaks that symmetry).

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
    (:attr:`DiscreteJoint.merged`), so a sweep merges once.  The restarts
    are one Dirichlet draw of shape ``(restarts, |T|)`` from
    ``default_rng(seed)``, so the problem depends only on the merged table:
    splitting a row into equal copies or permuting the rows changes no
    draw.  ``init_probs`` enters as its p(x)-weighted mean over the rows of
    each t, added in sorted order as the merge adds p(t, y).  All restarts
    are scored in one stacked pass.  ``probs`` has all |X| rows, the rows
    of one t being copies.

    Non-convergence is not an error: the best iterate comes back with
    ``converged=False``.  ``diagnostics`` holds the winning ``restart``
    index, ``restarts_run``, the largest free-energy rise between accepted
    updates (``max_objective_increase``), the winner's information pair
    (``i_xz``, ``i_yz``) and the number of rows the kernel ran on
    (``distinct_rows``).
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValidationError(f"beta must be positive, got {beta!r}")
    z_card = _settings(joint, z_card, max_iters)
    if restarts < 0:
        raise ValidationError("restarts must be non-negative")

    merged, group = joint.merged
    n_t = merged.shape[0]
    start = np.random.default_rng(seed).dirichlet(
        np.full(z_card, INIT_CONCENTRATION), size=(restarts, n_t)
    )
    if init_probs is not None:
        arr = np.asarray(init_probs, dtype=float)
        if arr.shape != (joint.shape[0], z_card):
            raise ValidationError(
                f"init_probs shape {arr.shape} does not match ({joint.shape[0]}, {z_card})"
            )
        # the p(x)-weighted mean over the rows of each t, in sorted order
        order = np.lexsort((*arr.T, *joint.probs.T, group))
        warm = np.zeros((n_t, z_card))
        np.add.at(warm, group[order], arr[order] * joint.p_x[order, None])
        warm /= np.bincount(group[order], weights=joint.p_x[order])[:, None]
        start = np.concatenate([warm[None], start])
    if not len(start):
        raise ValidationError("no initialization: give init_probs or restarts >= 1")

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
            "restarts_run": len(start),
            "max_objective_increase": float(increases[win]),
            "i_xz": float(i_xz[win]),
            "i_yz": float(i_yz[win]),
            "distinct_rows": n_t,
        },
    )


def _fixed_point(
    stack: np.ndarray, joint: DiscreteJoint, beta: float, max_iters: int, tol: float
):
    """Run the safeguarded-accelerated iteration on a stack of encoders,
    each cycle ending in one masked step: a member takes the extrapolated
    update where its free energy is no higher than the plain update's.

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

    def record(free, mask=True):
        # a member left out by ``mask`` keeps its last free energy and rise
        nonlocal last_free, increase
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
            cur = np.where(ok[:, None, None], stable, plain)
            cur_log = np.where(ok[:, None, None], log3, log2)

    out_probs[active] = cur
    out_iters[active] = evals
    out_increase[active] = increase
    return out_probs, out_iters, out_converged, out_increase


def detect_onset(betas: np.ndarray, objectives: np.ndarray) -> tuple[float | None, bool]:
    """First grid beta whose objective beats the trivial encoder's 0.

    Below beta0 the trivial encoder, objective 0, is the global minimum, so
    an objective below ``-ONSET_LEARNED_TOL`` at beta proves beta0 <= beta,
    converged or not.  Returns ``(detected_beta0, below_grid)``: the first
    such point at index 0 puts the onset below the grid, ``(None, True)``;
    at index i >= 1 the onset is the midpoint of points i-1 and i; with no
    such point there is no onset, ``(None, False)``.
    """
    for i, objective in enumerate(objectives):
        if objective < -ONSET_LEARNED_TOL:
            if i == 0:
                return None, True
            return float((betas[i] + betas[i - 1]) / 2.0), False
    return None, False


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
    once per table.  One serial loop anneals down the grid (Tishby, Pereira
    & Bialek 1999): each point's encoder is an extra initialization
    (``init_probs``) of the next lower beta, so a learned solution reaches
    below 1/rho^2, where the restarts around uniform can stay trivial at a
    first-order onset.  A grid of fewer than 2 points, a non-positive or
    non-finite beta, a ``z_card`` below 2, or ``max_iters`` or ``restarts``
    below 1 is rejected before any point is solved.

    ``workers`` and ``warm_start`` are ignored: the benchmark's traced run
    passes ``workers=2, warm_start=True``; both go with ROADMAP item 1, as
    ``estimators.minimize_beta(seed=)`` does.

    ``detected_beta0`` and ``onset_below_grid`` are :func:`detect_onset`
    of the points' objectives.  ``protocol`` records its tolerance
    (``learned_tol``), the resolved solver settings (``z_card``,
    ``restarts``, ``max_iters``, ``tol``), the points whose free energy rose
    (``non_monotone_betas``) and the rows the kernel ran on
    (``distinct_rows``); each point keeps its own solver ``iterations``.
    """
    betas = np.asarray(beta_grid, dtype=float)
    if betas.ndim != 1 or len(betas) < 2:
        raise ValidationError("beta grid must be one-dimensional with >= 2 points")
    if not np.all((betas > 0.0) & np.isfinite(betas)):
        raise ValidationError("beta grid must be positive and finite")
    if np.any(np.diff(betas) <= 0.0):
        raise ValidationError("beta grid must be strictly ascending")
    z_card = _settings(joint, z_card, max_iters)
    if restarts < 1:
        raise ValidationError(f"restarts must be at least 1, got {restarts}")

    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(len(betas))
    points = [None] * len(betas)
    prev = None
    for i in reversed(range(len(betas))):
        beta = float(betas[i])
        enc = solve(joint, beta, z_card, seed=children[i], max_iters=max_iters,
                    restarts=restarts, init_probs=prev)
        d = enc.diagnostics
        points[i] = SweepPoint(beta, d["i_xz"], d["i_yz"], enc.objective, enc.converged,
                               enc.iterations, d["restart"], d["max_objective_increase"])
        prev = enc.probs

    detected, below_grid = detect_onset(betas, [p.objective for p in points])
    protocol = {
        "learned_tol": ONSET_LEARNED_TOL,
        "z_card": z_card,
        "restarts": restarts,
        "max_iters": max_iters,
        "tol": CONVERGENCE_TOL,
        "onset_below_grid": below_grid,
        "non_monotone_betas": [
            p.beta for p in points if p.max_objective_increase > MONOTONE_TOL
        ],
        "distinct_rows": joint.merged[0].shape[0],
    }
    return SweepResult(points=tuple(points), detected_beta0=detected, protocol=protocol)


def save_sweep_csv(result: SweepResult, path) -> None:
    """Plot-ready CSV: one row per grid point."""
    _write_csv_table(path, ["beta", "i_xz_nats", "i_yz_nats", "objective"],
                     [[p.beta, p.i_xz_nats, p.i_yz_nats, p.objective] for p in result.points])
