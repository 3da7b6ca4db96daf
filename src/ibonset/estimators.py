"""Estimators for the learnability threshold beta0 of a finite dataset.

Five routes are provided, all upper bounds on (or exact values of) the
smallest trade-off coefficient at which the bottleneck objective prefers a
non-trivial encoder:

* ``subset_search``: sort examples by confidence toward a pivot class and
  scan contiguous subsets for the one minimizing the threshold ratio.
* ``info_density_beta``: the same scan for the information-density ratio of
  the subset conditional p(x|S).
* ``class_conditional_beta``: closed form when label noise depends only on
  the true class.
* ``beta_for_scores`` / ``minimize_beta``: the variance-ratio functional of
  an arbitrary per-example score vector, and its minimization by power
  iteration.
* ``max_correlation``: the second singular value of the normalized joint
  table; its squared inverse equals the functional's infimum.

All thresholds are computed from exact probability tables, never from
information estimates, so they are deterministic given their inputs.  Each
route returns a :class:`BetaEstimate` whose witness proves its value, and
:func:`certify` recomputes the value from that witness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dist import ConditionalMatrix, DiscreteJoint, _freeze, rel_entr
from .errors import IndependenceError, InvalidDirectionError, ValidationError

#: denominators at or below this are treated as "no label information"
DENOM_TOL = 1e-12

#: the range search scans every range of a pivot order while there are at
#: most this many (N <= 723); beyond, coordinate descent, which can stop at a
#: local minimum, bounds the work at O(N C) per step
_RANGE_SCAN_LIMIT = 1 << 18

#: thresholds may dip this far below 1 from floating-point roundoff
_BETA_SLACK = 1e-9

#: minimize_beta has converged when its value changed by at most conv_rtol
#: (relative) over this many steps
_CONV_WINDOW = 50


class Method(str, enum.Enum):
    """How a threshold estimate was produced."""

    SUBSET_SEARCH = "subset_search"
    CLASS_CONDITIONAL = "class_conditional"
    FUNCTIONAL = "functional"
    MAX_CORRELATION_INVERSE = "max_correlation_inverse"
    INFO_DENSITY = "info_density"


@dataclass(frozen=True)
class BetaEstimate:
    """A threshold value, the method that produced it, and its witness.

    Every method's value is an upper bound on beta0, finite and at least 1,
    proved by ``witness``: a vector with one entry per row of the table the
    method ran on.  For ``info_density`` it holds the weights t of a tilted
    input distribution r(x) = p(x) t(x) / sum_x' p(x') t(x'), whose ratio
    D(r || p(x)) / D(rK || p(y)) (K = p(y|x)) is the value; data processing
    keeps that ratio at least 1.  For every other method it is a score
    vector whose :func:`beta_for_scores` ratio is the value.  A 0/1 witness
    is the indicator of a subset S of rows; as a tilt it gives
    r = p(x | S).  :func:`certify` recomputes the value from the witness.
    """

    value: float
    method: Method
    witness: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 1.0 - _BETA_SLACK:
            raise ValidationError(
                f"{self.method.value} produced threshold {self.value!r}, "
                "not a finite value of at least 1"
            )
        object.__setattr__(self, "witness", _freeze(np.array(self.witness, dtype=float)))

    def to_dict(self) -> dict:
        """The report entry; a 0/1 witness is written as the indices of its
        1 entries, ``{"members": [...]}``, any other as its list of values."""
        w = self.witness
        indicator = bool(np.all((w == 0.0) | (w == 1.0)))
        return {
            "method": self.method.value,
            "value": self.value,
            "witness": {"members": np.flatnonzero(w).tolist()} if indicator else w.tolist(),
            "diagnostics": dict(self.diagnostics),
        }


# ---------------------------------------------------------------------------
# subset thresholds
# ---------------------------------------------------------------------------

def _beta_ratio(mass, label_dist, p_y):
    """(1/p(S) - 1) / (sum_j q_j^2/p_j - 1) per candidate subset, +inf where
    uninformative.  ``label_dist`` holds one distribution q per row (last
    axis over labels) with ``mass`` its subset masses."""
    den = (label_dist * label_dist / p_y).sum(axis=-1) - 1.0
    return np.divide(1.0 / mass - 1.0, den, out=np.full(den.shape, np.inf),
                     where=den > DENOM_TOL)


def _info_density_ratio(mass, label_dist, p_y):
    """(-ln p(S)) / KL(q || p(y)) per candidate subset, +inf where uninformative."""
    den = rel_entr(label_dist, p_y).sum(axis=-1)
    return np.divide(-np.log(mass), den, out=np.full(den.shape, np.inf),
                     where=den > DENOM_TOL)


def _require_two_values(num_x: int, num_y: int) -> None:
    if num_x < 2 or num_y < 2:
        raise IndependenceError("X or Y takes a single value, so they are independent")


class _PrefixTables:
    """Cumulative statistics along one pivot ordering.

    After the O(N C) setup, the contiguous ranges [lo, hi] (1-based,
    inclusive) are evaluated for whole arrays of ``lo`` and ``hi`` at once.
    """

    def __init__(self, cond: ConditionalMatrix, order: np.ndarray):
        self.order = order
        w = cond.weights[order]
        # a leading zero row makes every range a difference of two entries
        self.cum_w = np.concatenate(([0.0], np.cumsum(w)))
        self.cum_wr = np.vstack((
            np.zeros(cond.num_classes),
            np.cumsum(w[:, None] * cond.rows[order], axis=0),
        ))
        self.p_y = cond.p_y
        self.n = len(order)

    def stats(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        mass = self.cum_w[hi] - self.cum_w[lo - 1]
        acc = self.cum_wr[hi] - self.cum_wr[lo - 1]
        return mass, acc / np.expand_dims(mass, -1)

    def argmin(self, objective, lo, hi) -> tuple[float, int, int]:
        """Exact minimum of ``objective`` over the ranges [lo[i], hi[i]];
        ties go to the first."""
        lo, hi = np.broadcast_arrays(lo, hi)
        values = objective(*self.stats(lo, hi), self.p_y)
        i = int(np.argmin(values))
        return float(values[i]), int(lo[i]), int(hi[i])


def _pivot_order(rows: np.ndarray, pivot: int) -> np.ndarray:
    # stable sort keeps original index order among ties
    return np.argsort(-rows[:, pivot], kind="stable")


def _search_pivot(tables: _PrefixTables, objective, variant: str):
    """Best (value, lo, hi) for one pivot ordering.

    The full set is the one candidate excluded, by index: its cumulative
    mass rounds near but not to 1 at large N, and its ratio is then noise.
    """
    n = tables.n
    if variant == "range" and n * (n + 1) // 2 <= _RANGE_SCAN_LIMIT:
        lo, hi = np.triu_indices(n)
        strict = (lo > 0) | (hi < n - 1)
        return tables.argmin(objective, lo[strict] + 1, hi[strict] + 1)
    best = tables.argmin(objective, 1, np.arange(1, n))
    if variant == "prefix":
        return best
    # coordinate descent from the best prefix: the exact minimum over the
    # left edge with the right fixed, then over the right edge with the left
    # fixed; each step keeps the current range as a candidate, so the value
    # never rises, and the loop ends when a round no longer lowers it
    while True:
        value, lo, hi = best
        _, lo, _ = tables.argmin(objective, np.arange(1 + (hi == n), hi + 1), hi)
        best = tables.argmin(objective, lo, np.arange(lo, n + (lo > 1)))
        if not best[0] < value:
            return best


def _best_subset(cond: ConditionalMatrix, objective, method: Method,
                 variant: str) -> BetaEstimate:
    """Minimum of ``objective`` over the candidates of every pivot order,
    witnessed by the indicator of the minimizing range."""
    if variant not in ("prefix", "range"):
        raise ValidationError(f"unknown search variant {variant!r}")
    _require_two_values(cond.num_examples, cond.num_classes)
    best = None
    for pivot in range(cond.num_classes):
        tables = _PrefixTables(cond, _pivot_order(cond.rows, pivot))
        value, lo, hi = _search_pivot(tables, objective, variant)
        if best is None or value < best[0]:
            best = (value, pivot, lo, hi, tables)
    if not math.isfinite(best[0]):
        raise IndependenceError(
            "every candidate subset has the marginal label distribution; "
            "X and Y are independent"
        )
    value, pivot, lo, hi, tables = best
    mass, q = tables.stats(lo, hi)
    members = np.zeros(cond.num_examples)
    members[tables.order[lo - 1:hi]] = 1.0
    return BetaEstimate(value, method, members, diagnostics={
        "variant": variant,
        "pivot_class": pivot,
        "mass": float(mass),
        # the cumulative-sum differences sum to 1 only up to roundoff
        "label_dist": (q / q.sum()).tolist(),
    })


def subset_search(cond: ConditionalMatrix, *, variant: str = "prefix") -> BetaEstimate:
    """Find the contiguous subset minimizing the threshold ratio.

    For each pivot class the rows are sorted by that class's probability in
    decreasing order (stable, original index as tie-break) and contiguous
    strict subsets are searched: the exact minimum over every prefix
    anchored at the top row by default (``variant='prefix'``), or over free
    ranges (``variant='range'``), exact while N(N+1)/2 is at most
    ``_RANGE_SCAN_LIMIT`` and by coordinate descent with exact steps from
    the best prefix beyond, a local search that missed the exhaustive
    minimum by up to 23% in forced small-N tests.  The minimum over pivot
    classes is returned, witnessed by the subset's indicator.  The result
    is an upper bound on the true threshold.  Every command runs the prefix
    search; ``variant`` stays only for the benchmark probes in
    ``bench/tracing.py`` that call it and goes once they are retired.

    Raises :class:`IndependenceError` when no candidate subset carries any
    label information.
    """
    return _best_subset(cond, _beta_ratio, Method.SUBSET_SEARCH, variant)


def info_density_beta(cond: ConditionalMatrix) -> BetaEstimate:
    """Information-density threshold of the best subset conditional.

    Minimizes (-ln p(S)) / KL(p(y|S) || p(y)) over the prefixes that
    :func:`subset_search` searches by default.  That ratio is
    D(r || p(x)) / D(rK || p(y)) for the tilt r = p(x | S), which bounds the
    global threshold from above; the witness is the subset's indicator.
    """
    return _best_subset(cond, _info_density_ratio, Method.INFO_DENSITY, "prefix")


def class_conditional_beta(noise, prior=None) -> BetaEstimate:
    """Closed-form threshold under class-conditional label noise.

    ``noise`` is the row-stochastic confusion table p(observed | true) and
    ``prior`` an array of true-class probabilities (uniform by default).
    Returns the minimum over true classes of (1/p(c) - 1) / (sum_y p(y|c)^2/p(y) - 1),
    witnessed by the indicator of the minimizing class c on the compact
    table ``ConditionalMatrix(noise, prior)``.
    """
    table = ConditionalMatrix(np.asarray(noise, dtype=float), prior)
    if table.p_y.min() <= 0.0:
        raise ValidationError("induced label marginal has a zero entry")
    per_class = _beta_ratio(table.weights, table.rows, table.p_y).tolist()
    pivot = int(np.argmin(per_class))
    value = per_class[pivot]
    if not math.isfinite(value):
        raise IndependenceError(
            "no class shifts the label distribution; X and Y are independent"
        )
    return BetaEstimate(
        value=value,
        method=Method.CLASS_CONDITIONAL,
        witness=np.arange(len(per_class)) == pivot,
        diagnostics={
            "pivot_true_class": pivot,
            "per_class": [v if math.isfinite(v) else None for v in per_class],
        },
    )


# ---------------------------------------------------------------------------
# score-vector functional and maximum correlation
# ---------------------------------------------------------------------------

def _centered_scores(joint: DiscreteJoint, scores) -> tuple[np.ndarray, float]:
    """A per-example score vector centred to mean 0 under p(x), and its
    variance.  Raises :class:`InvalidDirectionError` when the variance is at
    most ``DENOM_TOL`` times the square of the larger of 1 and the largest
    score magnitude: such scores are constant on the support."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or len(s) != joint.shape[0]:
        raise ValidationError("scores length does not match joint rows")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores contain non-finite entries")
    # centering first keeps the quadratic forms non-negative and makes
    # affine invariance hold to roundoff instead of suffering cancellation
    centered = s - float(joint.p_x @ s)
    var = float(joint.p_x @ (centered * centered))
    if var <= DENOM_TOL * max(1.0, float(np.abs(s).max())) ** 2:
        raise InvalidDirectionError("scores are constant on the support")
    return centered, var


def beta_for_scores(joint: DiscreteJoint, scores) -> float:
    """Threshold ratio of one per-example score vector.

    Var(s) / (E_y[(E[s|y])^2] - E[s]^2) under the joint.  Invariant under
    affine maps of the scores.  For the 0/1 indicator of a subset S of rows
    it is S's threshold (1/p(S) - 1) / (sum_y p(y|S)^2/p(y) - 1).  Raises
    :class:`InvalidDirectionError` for scores constant on the support or
    blind to the labels.
    """
    centered, var = _centered_scores(joint, scores)
    cond_mean = (joint.probs.T @ centered) / joint.p_y
    den = float(joint.p_y @ (cond_mean * cond_mean))
    if den <= DENOM_TOL * var:
        raise InvalidDirectionError(
            "scores are uncorrelated with the labels (denominator ~ 0)"
        )
    return var / den


def _correlation_pair(joint: DiscreteJoint) -> tuple[float, float, np.ndarray | None]:
    """Top singular value of Q[x, y] = p(x, y) / sqrt(p(x) p(y)), the
    maximum correlation rho (its second singular value), and the score
    vector u_2(x) / sqrt(p(x)) of rho (None when Y takes one value).

    A thin SVD keeps time O(|X| |Y|^2) and memory O(|X| |Y|).
    """
    q = joint.probs / np.sqrt(np.outer(joint.p_x, joint.p_y))
    u, svals, _ = np.linalg.svd(q, full_matrices=False)
    if abs(svals[0] - 1.0) > 1e-9:
        raise ValidationError(
            f"top singular value {float(svals[0])!r} deviates from 1; joint table invalid"
        )
    if len(svals) < 2:
        return float(svals[0]), 0.0, None
    rho = float(min(max(svals[1], 0.0), 1.0))
    return float(svals[0]), rho, u[:, 1] / np.sqrt(joint.p_x)


def max_correlation(joint: DiscreteJoint) -> float:
    """Maximum correlation between transforms of X and of Y.

    Equals the second-largest singular value of Q with
    Q[x, y] = p(x, y) / sqrt(p(x) p(y)).  The top singular value of Q is 1
    for any valid joint; a deviation beyond 1e-9 means the table is broken
    and raises.
    """
    return _correlation_pair(joint)[1]


def max_correlation_beta(joint: DiscreteJoint) -> BetaEstimate:
    """Threshold 1/rho^2 from the maximum correlation rho, with the
    minimizing score vector recovered from the singular decomposition."""
    top, rho, scores = _correlation_pair(joint)
    if rho * rho <= DENOM_TOL:
        raise IndependenceError("maximum correlation is zero; X and Y are independent")
    return BetaEstimate(
        value=1.0 / (rho * rho),
        method=Method.MAX_CORRELATION_INVERSE,
        witness=scores,
        diagnostics={"rho_m": rho, "top_singular_value": top},
    )


def minimize_beta(
    joint: DiscreteJoint,
    *,
    iters: int = 30_000,
    seed: int = 0,
    conv_rtol: float = 1e-12,
    init_scores=None,
) -> BetaEstimate:
    """Minimize the score-vector threshold by power iteration.

    From a random non-constant start (or ``init_scores``), each step maps
    the scores h to D^-1 M h (D = diag p(x), M as below) and re-centers
    them to weighted mean 0 and variance 1 under p(x).  This is the
    gradient step of size 1/2 on the log of the ratio in the p(x) metric:
    the value never rises and approaches 1/rho^2 at rate
    (sigma_3/sigma_2)^2 per step, sigma_k the k-th singular value of the
    normalized joint (sigma_2 = rho).  Convergence is declared when the
    value's relative change over ``_CONV_WINDOW`` steps drops below
    ``conv_rtol``; otherwise the best iterate is returned with a warning in
    the diagnostics.

    The result matches 1/max_correlation^2; the singular-value route is
    the exact minimizer and this iteration cross-validates it.
    """
    _require_two_values(*joint.shape)
    if iters < 0:
        raise ValidationError(f"iters must be non-negative, got {iters}")
    p_x, p_y = joint.p_x, joint.p_y
    # the quadratic form h M h with M[x,x'] = sum_y p(x,y)p(x',y)/p(y) is
    # what the centered unit-variance ratio inverts; M is kept factored so
    # one multiply costs O(|X||Y|) even for large discretized alphabets, and
    # D^-1 M h = p(y|x) @ (P^T h / p(y)) needs no division by p(x) per step
    p_y_given_x = joint.probs / p_x[:, None]

    def project(h: np.ndarray) -> np.ndarray:
        h = h - p_x @ h
        v = float(p_x @ (h * h))
        if v <= 0.0:
            raise InvalidDirectionError("scores collapsed to a constant")
        return h / math.sqrt(v)

    def label_means(h: np.ndarray) -> tuple[float, np.ndarray]:
        # E[h|y] and the gain sum_y p(y) E[h|y]^2 = 1/ratio of a projected h
        v = joint.probs.T @ h
        means = v / p_y
        gain = float(v @ means)
        if gain <= DENOM_TOL:
            raise IndependenceError(
                "label-conditional means carry no variance; X and Y are independent"
            )
        return gain, means

    if init_scores is not None:
        h = np.asarray(init_scores, dtype=float).copy()
        if h.shape != p_x.shape:
            raise ValidationError("init_scores length does not match joint rows")
        if not np.all(np.isfinite(h)):
            raise ValidationError("init_scores contain non-finite entries")
    else:
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(len(p_x))
    h = project(h)

    gain, means = label_means(h)
    history = [gain]
    best_gain, best_h = gain, h
    converged = False
    iterations = 0
    for iterations in range(1, iters + 1):
        h = project(p_y_given_x @ means)
        gain, means = label_means(h)
        history.append(gain)
        if gain > best_gain:
            best_gain, best_h = gain, h
        if iterations > _CONV_WINDOW:
            prev = history[-_CONV_WINDOW - 1]
            if abs(gain - prev) <= conv_rtol * abs(gain):
                converged = True
                break

    diagnostics = {
        "converged": converged,
        "iterations": iterations,
        "seed": seed,
    }
    if not converged:
        diagnostics["warning"] = (
            f"no convergence after {iters} iterations; best iterate returned"
        )
    return BetaEstimate(
        value=1.0 / best_gain,
        method=Method.FUNCTIONAL,
        witness=best_h,
        diagnostics=diagnostics,
    )


def certify(joint: DiscreteJoint, estimate: BetaEstimate) -> float:
    """Recompute ``estimate.value`` from its witness (see
    :class:`BetaEstimate`) on ``joint``, the joint table of the rows the
    estimator ran on (``joint_from_conditional`` of a conditional input).

    Raises :class:`ValidationError` for a witness that does not fit the
    table and :class:`InvalidDirectionError` for one that proves nothing.
    """
    t = estimate.witness
    if estimate.method is not Method.INFO_DENSITY:
        return beta_for_scores(joint, t)
    if t.shape != joint.p_x.shape:
        raise ValidationError("witness length does not match joint rows")
    if not (np.all(np.isfinite(t)) and t.min() >= 0.0 and t.max() > 0.0):
        raise ValidationError("tilt weights must be finite, non-negative and not all zero")
    mass = float(joint.p_x @ t)
    r_y = t @ joint.probs
    den = float(rel_entr(r_y / r_y.sum(), joint.p_y).sum())
    if den <= DENOM_TOL:
        raise InvalidDirectionError("the tilt leaves the label distribution unchanged")
    return float(rel_entr(joint.p_x * t / mass, joint.p_x).sum()) / den


def onset_correction(joint: DiscreteJoint, scores) -> np.ndarray:
    """Direction in which p(y|x) first departs from p(y) at the onset.

    Returns the matrix (s(x) - mean) * sum_x' p(x', y)(s(x') - mean), one
    entry per (x, y) cell, normalized up to an arbitrary positive scale
    (set to 1 by convention).  Every row sums to zero.  Raises
    :class:`InvalidDirectionError` for scores constant on the support, by
    the rule of :func:`beta_for_scores`.
    """
    centered, _ = _centered_scores(joint, scores)
    per_label = joint.probs.T @ centered
    return np.outer(centered, per_label)
