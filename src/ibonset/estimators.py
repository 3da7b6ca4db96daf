"""Estimators for the learnability threshold beta0 of a finite dataset.

Five routes are provided.  Each is an upper bound on (or the exact value
of) the smallest trade-off coefficient at which the bottleneck objective
prefers a non-trivial encoder on the table it runs on, which is the
dataset's for every route but the class-conditional one:

* ``subset_search``: sort examples by confidence toward a pivot class and
  take the prefix of that order minimizing the threshold ratio.
* ``info_density_beta``: the same search for the information-density ratio
  of the subset conditional p(x|S).
* ``class_conditional_beta``: closed form on the true-class table when label
  noise depends only on the true class; it bounds that table's threshold.
* ``beta_for_scores`` / ``minimize_beta``: the variance-ratio functional of
  an arbitrary per-example score vector, and its value at the exact
  minimizer, the maximal-correlation score vector.
* ``max_correlation``: the second singular value of the normalized joint
  table; its squared inverse equals the functional's minimum.

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

from .dist import ConditionalMatrix, DiscreteJoint, _Frozen, _prob_array, rel_entr
from .errors import IndependenceError, InvalidDirectionError, ValidationError

#: denominators at or below this are treated as "no label information"
DENOM_TOL = 1e-12

#: thresholds may dip this far below 1 from floating-point roundoff
_BETA_SLACK = 1e-9


class Method(str, enum.Enum):
    """How a threshold estimate was produced."""

    SUBSET_SEARCH = "subset_search"
    CLASS_CONDITIONAL = "class_conditional"
    FUNCTIONAL = "functional"
    MAX_CORRELATION_INVERSE = "max_correlation_inverse"
    INFO_DENSITY = "info_density"


@dataclass(frozen=True, eq=False)
class BetaEstimate(_Frozen):
    """A threshold value, the method that produced it, and its witness.

    Every value is finite, at least 1, and an upper bound on the threshold
    of the table its method ran on: beta0, or for ``class_conditional`` the
    threshold of the true-class table.  ``witness`` proves it, with one entry
    per row of that table.  For ``info_density`` it holds the weights t of a
    tilted input distribution r(x) = p(x) t(x) / sum_x' p(x') t(x'), whose
    ratio D(r || p(x)) / D(rK || p(y)) (K = p(y|x)) is the value; data
    processing keeps that ratio at least 1.  For every other method it is a
    score vector whose :func:`beta_for_scores` ratio is the value.  A 0/1
    witness is the indicator of a subset S of rows; as a tilt it gives
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
        self._store(witness=np.array(self.witness, dtype=float))

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
    axis over labels) with ``mass`` its subset masses.  A label of zero
    mass (p_j = 0, so q_j = 0 on every subset) adds nothing to the sum."""
    sq = label_dist * label_dist
    den = np.divide(sq, p_y, out=sq, where=p_y > 0.0).sum(axis=-1) - 1.0
    return np.divide(1.0 / mass - 1.0, den, out=np.full(den.shape, np.inf),
                     where=den > DENOM_TOL)


def _info_density_ratio(mass, label_dist, p_y):
    """(-ln p(S)) / KL(q || p(y)) per candidate subset, +inf where uninformative."""
    den = rel_entr(label_dist, p_y).sum(axis=-1)
    return np.divide(-np.log(mass), den, out=np.full(den.shape, np.inf),
                     where=den > DENOM_TOL)


def _best_subset(cond: ConditionalMatrix, objective, method: Method) -> BetaEstimate:
    """Minimum of ``objective`` over the strict prefixes of every pivot
    order, witnessed by the indicator of the minimizing prefix.

    A pivot order sorts the rows by the pivot class's probability, highest
    first (stable, so ties keep their original index order).  Its prefixes
    of 1..N-1 rows are scored at once from cumulative sums; the full set is
    the one candidate excluded, by index: its cumulative mass rounds near
    but not to 1 at large N, and its ratio is then noise.  Ties go to the
    shortest prefix and then to the lowest pivot.
    """
    if cond.num_examples < 2 or cond.num_classes < 2:
        raise IndependenceError("X or Y takes a single value, so they are independent")
    best = None
    for pivot in range(cond.num_classes):
        order = np.argsort(-cond.rows[:, pivot], kind="stable")
        w = cond.weights[order]
        mass = np.cumsum(w)[:-1]
        q = np.cumsum(w[:, None] * cond.rows[order], axis=0)[:-1] / mass[:, None]
        values = objective(mass, q, cond.p_y)
        k = int(np.argmin(values))
        if best is None or values[k] < best[0]:
            best = (float(values[k]), pivot, order[:k + 1], float(mass[k]), q[k])
    value, pivot, members, mass, q = best
    if not math.isfinite(value):
        raise IndependenceError(
            "every candidate subset has the marginal label distribution; "
            "X and Y are independent"
        )
    witness = np.zeros(cond.num_examples)
    witness[members] = 1.0
    return BetaEstimate(value, method, witness, diagnostics={
        "pivot_class": pivot,
        "mass": mass,
        # the cumulative sums sum to 1 only up to roundoff
        "label_dist": (q / q.sum()).tolist(),
    })


def subset_search(cond: ConditionalMatrix, *, variant: str = "prefix") -> BetaEstimate:
    """Find the prefix subset minimizing the threshold ratio.

    For each pivot class the rows are sorted by that class's probability in
    decreasing order (stable, original index as tie-break), and the exact
    minimum over every strict prefix of that order is taken.  The minimum
    over pivot classes is returned, witnessed by the subset's indicator.
    The result is an upper bound on the true threshold.

    ``variant`` is ignored: it stays only because the benchmark's traced
    run passes ``variant="range"``, and goes with ROADMAP item 1, as
    ``minimize_beta(seed=)`` does.

    Raises :class:`IndependenceError` when no candidate subset carries any
    label information.
    """
    return _best_subset(cond, _beta_ratio, Method.SUBSET_SEARCH)


def info_density_beta(cond: ConditionalMatrix) -> BetaEstimate:
    """Information-density threshold of the best subset conditional.

    Minimizes (-ln p(S)) / KL(p(y|S) || p(y)) over the prefixes that
    :func:`subset_search` searches.  That ratio is
    D(r || p(x)) / D(rK || p(y)) for the tilt r = p(x | S), which bounds the
    global threshold from above; the witness is the subset's indicator.
    """
    return _best_subset(cond, _info_density_ratio, Method.INFO_DENSITY)


def class_conditional_beta(noise, prior=None) -> BetaEstimate:
    """Closed-form threshold under class-conditional label noise.

    ``noise`` is the row-stochastic confusion table p(observed | true) and
    ``prior`` an array of true-class probabilities (uniform by default).
    Returns the minimum over true classes of (1/p(c) - 1) / (sum_y p(y|c)^2/p(y) - 1),
    witnessed by the indicator of the minimizing class c on the true-class
    table ``ConditionalMatrix(noise, prior)`` of the classes of positive
    prior.  The value bounds that table's threshold, which is a dataset's
    only when every point's true class is certain, as on well-separated
    mixtures.  Where the classes overlap, X reaches the labels only through
    the true class, so by data processing the dataset's threshold is at
    least that table's.
    """
    noise = _prob_array(noise, "rows", 2)  # the table's first check, made before indexing
    classes = np.arange(len(noise))
    if prior is not None and np.shape(prior) == classes.shape and np.any(prior):
        # a class of zero prior holds no point: it leaves the table like a zero-mass label
        classes = np.flatnonzero(np.asarray(prior, dtype=float) != 0.0)
        prior = np.asarray(prior, dtype=float)[classes]
    table = ConditionalMatrix(noise[classes], prior)
    per_class = np.full(len(noise), math.inf)
    per_class[classes] = _beta_ratio(table.weights, table.rows, table.p_y)
    pivot = int(np.argmin(per_class))
    value = float(per_class[pivot])
    if not math.isfinite(value):
        raise IndependenceError(
            "no class shifts the label distribution; X and Y are independent"
        )
    return BetaEstimate(
        value=value,
        method=Method.CLASS_CONDITIONAL,
        witness=classes == pivot,
        diagnostics={
            "pivot_true_class": pivot,
            "per_class": [v if math.isfinite(v) else None for v in per_class.tolist()],
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
    top = max(1.0, float(np.abs(s).max()))
    if top > 1e150:  # squares would overflow: rescale by a power of two, exactly
        s, top = np.ldexp(s, -math.frexp(top)[1]), math.frexp(top)[0]
    # centering first keeps the quadratic forms non-negative and makes
    # affine invariance hold to roundoff instead of suffering cancellation
    centered = s - float(joint.p_x @ s)
    var = float(joint.p_x @ (centered * centered))
    if var <= DENOM_TOL * top**2:
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


def minimize_beta(joint: DiscreteJoint, *, seed: int = 0) -> BetaEstimate:
    """Minimum of the score-vector threshold over all score vectors.

    The ratio of :func:`beta_for_scores` is minimized exactly by the
    Hirschfeld-Gebelein-Renyi maximal-correlation direction, the score
    vector u_2(x) / sqrt(p(x)) that :func:`max_correlation_beta` returns;
    the value is the functional evaluated there, so the witness proves it
    and it equals 1/rho^2 to roundoff.

    ``seed`` is ignored and the diagnostics are the constant
    ``{"iterations": 0, "converged": True}``: both stay only because the
    benchmark's traced run passes the one and reads the other, and go with
    ROADMAP item 1, as ``classifier.TrainConfig`` does.
    """
    witness = max_correlation_beta(joint).witness
    return BetaEstimate(beta_for_scores(joint, witness), Method.FUNCTIONAL, witness,
                        diagnostics={"iterations": 0, "converged": True})


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
