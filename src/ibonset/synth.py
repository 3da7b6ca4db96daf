"""Synthetic 2D Gaussian-mixture datasets with class-conditional label noise.

Covers the two standard experiment families: well-separated components with
labels flipped at a chosen rate (noise study), and components moved toward
each other at zero noise (overlap study).  Provides sampling, the exact
posterior p(y|x) by Bayes' rule through the confusion table, and
discretization of a spec to a finite joint table of exact cell masses
(Gaussian CDF differences).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dist import ConditionalMatrix, DiscreteJoint, _write_csv_table
from .errors import ValidationError


def _finite(value, name: str) -> np.ndarray:
    """A float array of a number or a nested sequence of numbers, which must
    be finite; a ValidationError names the field otherwise.  Strings and
    booleans are not numbers here, although ``float`` would take them."""
    try:
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in np.array(value, dtype=object).ravel()):
            raise TypeError("not a number")
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"{name} must be a number or a rectangular array of numbers, got {value!r}"
        ) from exc
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} must be finite, got {out.tolist()}")
    return out


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """A 2D diagonal-covariance Gaussian mixture with optional label noise.

    Component k has mean ``means[k]`` and per-axis variances
    ``variances[k]`` (both K x 2), mixing weight ``weights[k]`` and true
    class ``class_ids[k]`` (0..C-1); all are read-only arrays, and the
    weights are renormalized to sum to 1.  ``noise`` is a row-stochastic
    confusion table p(observed | true); None means labels are observed
    exactly.
    """

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    class_ids: np.ndarray
    noise: np.ndarray | None = None

    def __post_init__(self):
        means = _finite(self.means, "component mean")
        variances = _finite(self.variances, "component variances")
        weights = _finite(self.weights, "component weight")
        ids = _finite(self.class_ids, "component class_id")
        if weights.ndim != 1 or not len(weights):
            raise ValidationError("mixture needs at least one component")
        k = len(weights)
        if means.shape != (k, 2) or variances.shape != (k, 2) or ids.shape != (k,):
            raise ValidationError(
                f"{k} components in 2 dimensions need K x 2 means and variances and "
                f"K class_ids; got {means.shape}, {variances.shape} and {ids.shape}"
            )
        if variances.min() <= 0.0:
            raise ValidationError("variances must be positive")
        if weights.min() < 0.0:
            raise ValidationError("component weights must be non-negative")
        if np.any(ids != np.round(ids)):
            raise ValidationError(f"component class_id must be integers, got {ids.tolist()}")
        total = sum(weights.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"component weights sum to {total!r}, expected 1")
        weights = weights / total
        ids = ids.astype(int)
        n_classes = len(set(ids.tolist()))
        if ids.min() != 0 or ids.max() != n_classes - 1:
            raise ValidationError("class ids must be 0..C-1")
        noise = self.noise
        if noise is not None:
            noise = _finite(noise, "noise (confusion table)")
            if noise.ndim != 2 or noise.shape[0] != n_classes:
                raise ValidationError("confusion table rows must match class count")
            if noise.min() < 0.0 or np.any(np.abs(noise.sum(axis=1) - 1.0) > 1e-9):
                raise ValidationError("confusion rows must be stochastic")
            noise = noise / noise.sum(axis=1, keepdims=True)
        for name, value in (("means", means), ("variances", variances),
                            ("weights", weights), ("class_ids", ids), ("noise", noise)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_true_classes(self) -> int:
        return int(self.class_ids.max()) + 1

    def class_priors(self) -> np.ndarray:
        return np.bincount(self.class_ids, self.weights, self.num_true_classes)

    def to_dict(self) -> dict:
        keys = ("mean", "variances", "weight", "class_id")
        columns = (a.tolist() for a in (self.means, self.variances, self.weights, self.class_ids))
        return {
            "components": [dict(zip(keys, component)) for component in zip(*columns)],
            "noise": None if self.noise is None else self.noise.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MixtureSpec":
        try:
            columns = [[c[key] for c in doc["components"]]
                       for key in ("mean", "variances", "weight", "class_id")]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed mixture document: {exc}") from exc
        return cls(*columns, doc.get("noise"))


def save_spec_json(spec: MixtureSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2)


def load_spec_json(path) -> MixtureSpec:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return MixtureSpec.from_dict(doc)


def _whole_numbers(values, name: str) -> np.ndarray:
    """An int array of ``values``; a fraction, NaN or infinity raises a
    ValidationError that names the field, where a cast would truncate it
    or make up a number."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f" and not (np.isfinite(raw) & (np.trunc(raw) == raw)).all():
        raise ValidationError(f"{name} must be whole numbers")
    return np.array(raw, dtype=int)


@dataclass(frozen=True)
class SampleSet:
    """Drawn points with both observed (possibly flipped) and true labels."""

    points: np.ndarray
    observed_labels: np.ndarray
    true_labels: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        obs = _whole_numbers(self.observed_labels, "observed_labels")
        true = _whole_numbers(self.true_labels, "true_labels")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError("points must be N x 2")
        if not np.isfinite(pts).all():
            raise ValidationError("points must be finite")
        if len(obs) != len(pts) or len(true) != len(pts):
            raise ValidationError("label arrays must match point count")
        if len(pts) and (obs.min() < 0 or true.min() < 0):
            raise ValidationError("labels must be non-negative")
        for a in (pts, obs, true):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "observed_labels", obs)
        object.__setattr__(self, "true_labels", true)

    def __len__(self) -> int:
        return len(self.points)


def save_samples_csv(samples: SampleSet, path) -> None:
    table = np.column_stack([samples.points, samples.observed_labels, samples.true_labels])
    _write_csv_table(path, ["x1", "x2", "observed_label", "true_label"], table)


def sample(spec: MixtureSpec, n: int, seed: int | np.random.SeedSequence) -> SampleSet:
    """Draw n points: component by weight, point from its Gaussian, observed
    label flipped through the confusion table.  Deterministic given seed."""
    if n < 1:
        raise ValidationError("need at least one sample")
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(spec.weights), size=n, p=spec.weights)
    points = spec.means[comp] + rng.standard_normal((n, 2)) * np.sqrt(spec.variances)[comp]
    true = spec.class_ids[comp]
    if spec.noise is None:
        observed = true.copy()
    else:
        observed = np.empty(n, dtype=int)
        for c in range(spec.num_true_classes):
            mask = true == c
            if mask.any():
                observed[mask] = rng.choice(
                    spec.noise.shape[1], size=int(mask.sum()), p=spec.noise[c]
                )
    return SampleSet(points, observed, true)


def _class_log_densities(spec: MixtureSpec, points: np.ndarray) -> np.ndarray:
    """log sum_k w_k N(x; mu_k, Sigma_k) per true class, shape N x C*."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be N x 2")
    live = spec.weights > 0.0
    var = spec.variances[live]
    log_norm = -0.5 * np.log(2.0 * np.pi * var).sum(axis=1)
    d = pts[:, None, :] - spec.means[live]
    logpdf = log_norm - 0.5 * ((d * d) / var).sum(axis=2)
    # math.log, not np.log: numpy's vectorized log can differ in the last bit
    terms = np.array([math.log(w) for w in spec.weights[live]]) + logpdf
    ids = spec.class_ids[live]
    out = np.full((len(pts), spec.num_true_classes), -np.inf)
    for c in set(ids.tolist()):
        out[:, c] = np.logaddexp.reduce(terms[:, ids == c], axis=1)
    return out


def analytic_posterior(spec: MixtureSpec, points) -> ConditionalMatrix:
    """Exact p(y|x): Bayes over mixture densities, then the confusion table.

    Evaluated in log space, so far-out points underflow gracefully instead
    of erroring.
    """
    log_dens = _class_log_densities(spec, points)
    shifted = log_dens - log_dens.max(axis=1, keepdims=True)
    post = np.exp(shifted)
    post /= post.sum(axis=1, keepdims=True)
    rows = post if spec.noise is None else post @ spec.noise
    return ConditionalMatrix(rows)


#: the default box reaches this many standard deviations beyond the means
BOX_SIGMAS = 4.0

#: grid cells holding at most this share of the total mass are dropped
MASS_FLOOR = 1e-12


def default_box(spec: MixtureSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Axis-aligned box reaching ``BOX_SIGMAS`` standard deviations beyond
    the extreme component means."""
    reach = BOX_SIGMAS * np.sqrt(spec.variances)
    lo, hi = (spec.means - reach).min(axis=0), (spec.means + reach).max(axis=0)
    return (lo[0], hi[0]), (lo[1], hi[1])


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF; erfc keeps the lower tail accurate."""
    return np.reshape([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(z)], np.shape(z))


def discretize(spec: MixtureSpec, bins_per_axis: int = 32) -> DiscreteJoint:
    """Reduce a mixture spec to a joint table of exact cell masses.

    :func:`default_box` is cut into ``bins_per_axis`` intervals per axis; a
    cell's mass per true class is a sum of products of per-axis Gaussian CDF
    differences, composed with the confusion table.  Cells holding at most
    ``MASS_FLOOR`` of the total mass are dropped and the table renormalized.
    """
    if bins_per_axis < 1:
        raise ValidationError("bins_per_axis must be at least 1")
    (x_lo, x_hi), (y_lo, y_hi) = default_box(spec)
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValidationError("box must have positive extent")
    edges_x = np.linspace(x_lo, x_hi, bins_per_axis + 1)
    edges_y = np.linspace(y_lo, y_hi, bins_per_axis + 1)

    # per component (rows): CDF differences along each axis, then the cell
    # masses as their outer product times the weight
    sds = np.sqrt(spec.variances)
    mass_x = np.diff(_normal_cdf((edges_x - spec.means[:, :1]) / sds[:, :1]), axis=1)
    mass_y = np.diff(_normal_cdf((edges_y - spec.means[:, 1:]) / sds[:, 1:]), axis=1)
    cells = mass_x[:, :, None] * mass_y[:, None, :] * spec.weights[:, None, None]
    class_mass = np.zeros((bins_per_axis * bins_per_axis, spec.num_true_classes))
    # np.add.at sums each class column in component order, as a loop would
    np.add.at(class_mass.T, spec.class_ids, cells.reshape(len(cells), -1))

    table = class_mass if spec.noise is None else class_mass @ spec.noise
    total = table.sum()
    if total <= 1e-12:
        raise ValidationError("all probability mass falls outside the box")
    keep = table.sum(axis=1) > MASS_FLOOR * total
    if not keep.any():
        raise ValidationError("no grid cell holds appreciable mass")
    kept = table[keep]
    return DiscreteJoint(kept / kept.sum())


# ---------------------------------------------------------------------------
# experiment presets
# ---------------------------------------------------------------------------

#: component variance shared by both presets
PRESET_VARIANCE = 0.25

#: component separation in the noise-study preset (virtually no overlap)
NOISE_PRESET_DISTANCE = 16.0

#: component weights in the overlap-study preset
OVERLAP_PRESET_WEIGHTS = (0.6, 0.4)


def symmetric_flip(rho: float, classes: int = 2) -> np.ndarray:
    """Confusion table that keeps a label with probability 1 - rho and
    spreads rho uniformly over the other classes."""
    if not 0.0 <= rho <= 1.0:
        raise ValidationError("flip rate must lie in [0, 1]")
    off = rho / (classes - 1)
    return np.full((classes, classes), off) + (1.0 - rho - off) * np.eye(classes)


def _pair(distance: float, weights, noise) -> MixtureSpec:
    """Classes 0 and 1 as Gaussians of variance ``PRESET_VARIANCE`` on the
    first axis, ``distance`` apart."""
    half = distance / 2.0
    return MixtureSpec([(-half, 0.0), (half, 0.0)], np.full((2, 2), PRESET_VARIANCE),
                       weights, [0, 1], noise)


def noise_preset(rho: float) -> MixtureSpec:
    """Two equal Gaussians ``NOISE_PRESET_DISTANCE`` apart with labels
    flipped at rate rho."""
    return _pair(NOISE_PRESET_DISTANCE, (0.5, 0.5), symmetric_flip(rho))


def overlap_preset(distance: float) -> MixtureSpec:
    """Two unequal-weight Gaussians ``distance`` apart with exact labels."""
    return _pair(distance, OVERLAP_PRESET_WEIGHTS, None)


def get_preset(name: str) -> MixtureSpec:
    """Resolve preset names like ``noise-0.2`` or ``overlap-3.2``."""
    kind, _, raw = name.partition("-")
    make = {"noise": noise_preset, "overlap": overlap_preset}.get(kind)
    try:
        value = float(raw)
    except ValueError:
        make = None
    if make is None:
        raise ValidationError(
            f"unknown preset {name!r}; expected noise-<rate> or overlap-<distance>"
        )
    return make(value)
