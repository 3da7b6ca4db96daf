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


@dataclass(frozen=True)
class MixtureComponent:
    mean: tuple[float, float]
    variances: tuple[float, float]
    weight: float
    class_id: int


def _finite(value, name: str, convert):
    """``convert(value)`` of a number or a nested sequence of numbers, which
    must be finite; a ValidationError names the field otherwise.  Strings
    and booleans are not numbers here, although ``float`` would take them."""
    try:
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in np.array(value, dtype=object).ravel()):
            raise TypeError("not a number")
        out = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be numeric, got {value!r}") from exc
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class MixtureSpec:
    """A 2D diagonal-covariance Gaussian mixture with optional label noise.

    ``noise`` is a row-stochastic confusion table p(observed | true); None
    means labels are observed exactly.
    """

    components: tuple[MixtureComponent, ...]
    noise: np.ndarray | None = None

    def __post_init__(self):
        if not self.components:
            raise ValidationError("mixture needs at least one component")
        comps = tuple(
            MixtureComponent(
                mean=_finite(c.mean, "component mean", _floats),
                variances=_finite(c.variances, "component variances", _floats),
                weight=_finite(c.weight, "component weight", float),
                class_id=_finite(c.class_id, "component class_id", float),
            )
            for c in self.components
        )
        for c in comps:
            if len(c.mean) != 2 or len(c.variances) != 2:
                raise ValidationError("components live in 2 dimensions")
            if min(c.variances) <= 0.0:
                raise ValidationError("variances must be positive")
            if c.weight < 0.0:
                raise ValidationError("component weights must be non-negative")
            if not c.class_id.is_integer():
                raise ValidationError(f"component class_id must be an integer, got {c.class_id!r}")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"component weights sum to {total!r}, expected 1")
        comps = tuple(
            MixtureComponent(c.mean, c.variances, c.weight / total, int(c.class_id))
            for c in comps
        )
        ids = sorted({c.class_id for c in comps})
        if ids != list(range(len(ids))):
            raise ValidationError("class ids must be 0..C-1")
        noise = self.noise
        if noise is not None:
            noise = _finite(noise, "noise (confusion table)", lambda v: np.array(v, dtype=float))
            if noise.ndim != 2 or noise.shape[0] != len(ids):
                raise ValidationError("confusion table rows must match class count")
            if noise.min() < 0.0 or np.any(np.abs(noise.sum(axis=1) - 1.0) > 1e-9):
                raise ValidationError("confusion rows must be stochastic")
            noise = noise / noise.sum(axis=1, keepdims=True)
            noise.setflags(write=False)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "noise", noise)

    @property
    def num_true_classes(self) -> int:
        return max(c.class_id for c in self.components) + 1

    def class_priors(self) -> np.ndarray:
        priors = np.zeros(self.num_true_classes)
        for c in self.components:
            priors[c.class_id] += c.weight
        return priors

    def to_dict(self) -> dict:
        return {
            "components": [
                {
                    "mean": list(c.mean),
                    "variances": list(c.variances),
                    "weight": c.weight,
                    "class_id": c.class_id,
                }
                for c in self.components
            ],
            "noise": None if self.noise is None else self.noise.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MixtureSpec":
        try:
            comps = tuple(
                MixtureComponent(
                    mean=tuple(c["mean"]),
                    variances=tuple(c["variances"]),
                    weight=c["weight"],
                    class_id=c["class_id"],
                )
                for c in doc["components"]
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed mixture document: {exc}") from exc
        return cls(comps, doc.get("noise"))


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


@dataclass(frozen=True)
class SampleSet:
    """Drawn points with both observed (possibly flipped) and true labels."""

    points: np.ndarray
    observed_labels: np.ndarray
    true_labels: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        obs = np.array(self.observed_labels, dtype=int)
        true = np.array(self.true_labels, dtype=int)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError("points must be N x 2")
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
    weights = np.array([c.weight for c in spec.components])
    means = np.array([c.mean for c in spec.components])
    stds = np.sqrt([c.variances for c in spec.components])
    class_ids = np.array([c.class_id for c in spec.components])

    comp = rng.choice(len(weights), size=n, p=weights)
    points = means[comp] + rng.standard_normal((n, 2)) * stds[comp]
    true = class_ids[comp]
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
    n_classes = spec.num_true_classes
    out = np.full((len(pts), n_classes), -np.inf)
    per_class: dict[int, list[np.ndarray]] = {c: [] for c in range(n_classes)}
    for comp in spec.components:
        if comp.weight <= 0.0:
            continue
        mean = np.array(comp.mean)
        var = np.array(comp.variances)
        log_norm = -0.5 * float(np.log(2.0 * np.pi * var).sum())
        d = pts - mean
        logpdf = log_norm - 0.5 * ((d * d) / var).sum(axis=1)
        per_class[comp.class_id].append(math.log(comp.weight) + logpdf)
    for c, terms in per_class.items():
        if terms:
            out[:, c] = np.logaddexp.reduce(terms, axis=0)
    return out


def analytic_posterior(spec: MixtureSpec, points) -> ConditionalMatrix:
    """Exact p(y|x): Bayes over mixture densities, then the confusion table.

    Evaluated in log space, so far-out points underflow gracefully instead
    of erroring.
    """
    log_dens = _class_log_densities(spec, np.asarray(points, dtype=float))
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
    means = np.array([c.mean for c in spec.components])
    reach = BOX_SIGMAS * np.sqrt([c.variances for c in spec.components])
    lo, hi = (means - reach).min(axis=0), (means + reach).max(axis=0)
    return (lo[0], hi[0]), (lo[1], hi[1])


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF; erfc keeps the lower tail accurate."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])


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

    class_mass = np.zeros((bins_per_axis * bins_per_axis, spec.num_true_classes))
    for comp in spec.components:
        sx, sy = np.sqrt(comp.variances)
        cdf_x = _normal_cdf((edges_x - comp.mean[0]) / sx)
        cdf_y = _normal_cdf((edges_y - comp.mean[1]) / sy)
        cells = np.outer(np.diff(cdf_x), np.diff(cdf_y)) * comp.weight
        class_mass[:, comp.class_id] += cells.ravel()

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
    var = (PRESET_VARIANCE, PRESET_VARIANCE)
    comps = (
        MixtureComponent((-half, 0.0), var, weights[0], 0),
        MixtureComponent((half, 0.0), var, weights[1], 1),
    )
    return MixtureSpec(comps, noise)


def noise_preset(rho: float) -> MixtureSpec:
    """Two equal Gaussians ``NOISE_PRESET_DISTANCE`` apart with labels
    flipped at rate rho."""
    return _pair(NOISE_PRESET_DISTANCE, (0.5, 0.5), symmetric_flip(rho))


def overlap_preset(distance: float) -> MixtureSpec:
    """Two unequal-weight Gaussians ``distance`` apart with exact labels."""
    return _pair(distance, OVERLAP_PRESET_WEIGHTS, None)


def get_preset(name: str) -> MixtureSpec:
    """Resolve preset names like ``noise-0.2`` or ``overlap-3.2``."""
    parts = name.split("-", 1)
    if len(parts) == 2:
        kind, raw = parts
        try:
            value = float(raw)
        except ValueError:
            value = None
        if value is not None:
            if kind == "noise":
                return noise_preset(value)
            if kind == "overlap":
                return overlap_preset(value)
    raise ValidationError(
        f"unknown preset {name!r}; expected noise-<rate> or overlap-<distance>"
    )
