import csv
import json
import math

import numpy as np
import pytest

from ibonset import (
    IndependenceError,
    MixtureSpec,
    ValidationError,
    analytic_posterior,
    class_conditional_beta,
    conditional_from_joint,
    discretize,
    get_preset,
    load_spec_json,
    mutual_information,
    noise_preset,
    overlap_preset,
    sample,
    save_samples_csv,
    save_spec_json,
    subset_search,
    symmetric_flip,
)
from ibonset import synth

# ln 2 - binary entropy of 0.2, in nats
MI_TWO_CLUSTER_NATS = 0.2780719051126377 * math.log(2.0)


def _one(mean=(0.0, 0.0), variances=(0.25, 0.25), weight=1.0, class_id=0, noise=None):
    """A one-component spec."""
    return MixtureSpec([mean], [variances], [weight], [class_id], noise)


def test_spec_validation():
    with pytest.raises(ValidationError):
        _one(variances=(0.25, -1.0))
    with pytest.raises(ValidationError):
        _one(weight=0.4)
    with pytest.raises(ValidationError):
        _one(noise=[[0.5, 0.4]])
    with pytest.raises(ValidationError):
        # class ids must be contiguous from 0
        _one(class_id=1)
    nan = float("nan")
    for fields, name in [
        (dict(mean=(nan, 0.0)), "mean"),
        (dict(mean=(float("inf"), 0.0)), "mean"),
        (dict(variances=(0.25, float("inf"))), "variances"),
        (dict(variances=(nan, 0.25)), "variances"),
        (dict(weight=nan), "weight"),
    ]:
        with pytest.raises(ValidationError, match=name):
            _one(**fields)
    with pytest.raises(ValidationError, match="confusion"):
        _one(noise=[[nan]])
    # strings where numbers belong once escaped as a bare ValueError
    for fields, name in [
        (dict(mean=("abc", 0.0)), "mean"),
        (dict(class_id="b"), "class_id"),
    ]:
        with pytest.raises(ValidationError, match=name):
            _one(**fields)
    for noise in ("abc", [["x", 0.2], [0.2, 0.8]]):
        with pytest.raises(ValidationError, match="noise"):
            _one(noise=noise)
    # strings, booleans and fractional class ids were once coerced: "1",
    # true and 1.7 all read as class 1, "0.5" as a weight of 0.5
    doc = noise_preset(0.2).to_dict()
    for field, edit in [
        ("class_id", lambda d: d["components"][1].update(class_id=1.7)),
        ("class_id", lambda d: d["components"][1].update(class_id=True)),
        ("class_id", lambda d: d["components"][1].update(class_id="1")),
        ("weight", lambda d: d["components"][0].update(weight="0.5")),
        ("mean", lambda d: d["components"][0].update(mean=["8", 0.0])),
        ("variances", lambda d: d["components"][0].update(variances=[True, 0.25])),
        ("noise", lambda d: d.update(noise=[["0.8", 0.2], [0.2, 0.8]])),
        ("noise", lambda d: d.update(noise=[[True, 0.0], [0.2, 0.8]])),
    ]:
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(ValidationError, match=field):
            MixtureSpec.from_dict(bad)
    # ints, integral floats and numpy scalars are numbers
    spec = MixtureSpec(
        [(np.float64(-8.0), 0), (8, 0.0)],
        [(0.25, np.float32(0.25)), (1, 0.25)],
        [0.5, np.float64(0.5)],
        [np.int64(0), 1.0],
        noise=np.eye(2, dtype=np.float32),
    )
    assert spec.class_ids.tolist() == [0, 1]
    assert all(type(c) is int for c in spec.class_ids.tolist())
    np.testing.assert_array_equal(spec.means, [[-8.0, 0.0], [8.0, 0.0]])


@pytest.mark.parametrize("fields", [
    dict(means=[[0.0, 0.0], [1.0]]),
    dict(means=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    dict(means=[0.0, 0.0]),
    dict(means=[[0.0, 0.0]]),
    dict(variances=[[0.25, 0.25], [0.25]]),
    dict(variances=[[0.25], [0.25]]),
    dict(variances=[0.25, 0.25, 0.25, 0.25]),
    dict(class_ids=[0, [1]]),
    dict(class_ids=[[0], [1]]),
    dict(class_ids=[0, 1, 1]),
    dict(weights=[[0.5, 0.5]]),
    dict(weights=[], means=np.zeros((0, 2)), variances=np.zeros((0, 2)), class_ids=[]),
])
def test_spec_rejects_ragged_or_misshapen_arrays(fields):
    good = dict(means=[[-1.0, 0.0], [1.0, 0.0]], variances=[[0.25, 0.25], [0.25, 0.25]],
                weights=[0.5, 0.5], class_ids=[0, 1])
    MixtureSpec(**good)
    with pytest.raises(ValidationError):
        MixtureSpec(**{**good, **fields})


@pytest.mark.parametrize("call, message", [
    (lambda path: sample(noise_preset(0.2), 0, seed=0), "need at least one sample"),
    (lambda path: MixtureSpec.from_dict({}), "malformed mixture document: 'components'"),
    (lambda path: load_spec_json(path), r"bad\.json: invalid JSON \(Expecting property name"),
    (lambda path: discretize(noise_preset(0.2), 0), "bins_per_axis must be at least 1"),
], ids=["sample-0", "from-dict-empty", "spec-invalid-json", "discretize-0"])
def test_synth_input_checks(tmp_path, call, message):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ValidationError, match=message):
        call(path)


def test_spec_arrays_are_read_only_copies():
    means = np.array([[-1.0, 0.0], [1.0, 0.0]])
    spec = MixtureSpec(means, np.full((2, 2), 0.25), [0.5, 0.5], [0, 1], symmetric_flip(0.2))
    for name in ("means", "variances", "weights", "class_ids", "noise"):
        assert not getattr(spec, name).flags.writeable, name
    assert means.flags.writeable
    means[0, 0] = 5.0
    assert spec.means[0, 0] == -1.0


def _three_class_spec():
    """3 classes, 5 components, one of class 0 with zero weight, noisy labels."""
    return MixtureSpec(
        means=[[-2.0, 0.0], [1.5, 1.0], [0.0, -1.0], [2.0, -2.0], [40.0, 40.0]],
        variances=[[0.5, 0.3], [0.2, 0.6], [1.0, 1.0], [0.4, 0.1], [0.3, 0.3]],
        weights=[0.3, 0.1, 0.35, 0.25, 0.0],
        class_ids=[0, 1, 1, 2, 0],
        noise=[[0.8, 0.1, 0.1], [0.05, 0.9, 0.05], [0.2, 0.0, 0.8]],
    )


def test_many_class_spec_json_round_trip_is_bitwise(tmp_path):
    spec = _three_class_spec()
    np.testing.assert_allclose(spec.class_priors(), [0.3, 0.45, 0.25], rtol=1e-15)
    path = tmp_path / "spec.json"
    save_spec_json(spec, path)
    back = load_spec_json(path)
    for name in ("means", "variances", "weights", "class_ids", "noise"):
        got, want = getattr(back, name), getattr(spec, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert json.dumps(back.to_dict()) == json.dumps(spec.to_dict())


def _bayes_reference(means, variances, weights, class_ids, noise, points):
    """p(observed y | x) by Bayes' rule in linear space, one component at a
    time: sum_k w_k N(x; mu_k, diag var_k) per true class, normalized, then
    the confusion table."""
    points = np.asarray(points, dtype=float)
    dens = np.zeros((len(points), len(noise)))
    for mean, var, w, c in zip(means, variances, weights, class_ids):
        d = points - np.asarray(mean)
        quad = (d * d / np.asarray(var)).sum(axis=1)
        dens[:, c] += w * np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(np.prod(var)))
    return (dens / dens.sum(axis=1, keepdims=True)) @ np.asarray(noise)


def test_many_class_analytic_posterior_matches_bayes_reference():
    spec = _three_class_spec()
    pts = sample(spec, 400, seed=5).points
    expected = _bayes_reference(spec.means, spec.variances, spec.weights,
                                spec.class_ids, spec.noise, pts)
    rows = analytic_posterior(spec, pts).rows
    np.testing.assert_allclose(rows, expected, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_zero_weight_component_leaves_the_posterior_unchanged():
    spec = _three_class_spec()
    live = spec.weights > 0
    pruned = MixtureSpec(spec.means[live], spec.variances[live], spec.weights[live],
                         spec.class_ids[live], spec.noise)
    # near the zero-weight component's mean too, where it would dominate
    pts = np.vstack([sample(spec, 200, seed=6).points, [[40.0, 40.0], [39.0, 41.0]]])
    np.testing.assert_array_equal(analytic_posterior(spec, pts).rows,
                                  analytic_posterior(pruned, pts).rows)
    np.testing.assert_array_equal(spec.class_priors(), pruned.class_priors())


def test_sample_identity_noise_keeps_labels():
    spec = noise_preset(0.0)
    samples = sample(spec, 500, seed=1)
    np.testing.assert_array_equal(samples.observed_labels, samples.true_labels)


def test_sample_flip_fraction_concentrates():
    spec = noise_preset(0.2)
    samples = sample(spec, 100_000, seed=2)
    flipped = (samples.observed_labels != samples.true_labels).mean()
    assert flipped == pytest.approx(0.2, abs=0.01)


def test_sample_well_separated_components():
    spec = noise_preset(0.2)
    samples = sample(spec, 100_000, seed=3)
    nearest = np.argmin(
        ((samples.points[:, None, :] - spec.means[None]) ** 2).sum(axis=2), axis=1
    )
    assert (nearest != samples.true_labels).mean() < 1e-10


def test_sample_deterministic_given_seed():
    spec = noise_preset(0.2)
    a = sample(spec, 100, seed=7)
    b = sample(spec, 100, seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.observed_labels, b.observed_labels)


def test_analytic_posterior_at_component_mean():
    spec = noise_preset(0.2)
    rows = analytic_posterior(spec, [spec.means[0]]).rows
    np.testing.assert_allclose(rows[0], [0.8, 0.2], atol=1e-9)


def test_analytic_posterior_midpoint_symmetric():
    spec = noise_preset(0.2)
    rows = analytic_posterior(spec, [(0.0, 0.0)]).rows
    np.testing.assert_allclose(rows[0], [0.5, 0.5], atol=1e-12)


def test_analytic_posterior_zero_noise_far_point():
    spec = noise_preset(0.0)
    rows = analytic_posterior(spec, [(-8.0, 0.3)]).rows
    np.testing.assert_allclose(rows[0], [1.0, 0.0], atol=1e-12)


def test_analytic_posterior_survives_extreme_points():
    spec = noise_preset(0.2)
    rows = analytic_posterior(spec, [(1e8, -1e8), (-1e8, 1e8)]).rows
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_discretize_exact_mutual_information():
    joint = discretize(noise_preset(0.2))
    assert mutual_information(joint) == pytest.approx(
        MI_TWO_CLUSTER_NATS, abs=1e-3 * math.log(2.0)
    )
    finer = discretize(noise_preset(0.2), bins_per_axis=64)
    assert mutual_information(finer) == pytest.approx(
        MI_TWO_CLUSTER_NATS, abs=1e-3 * math.log(2.0)
    )


def test_discretize_one_bin_gives_independent_joint():
    joint = discretize(noise_preset(0.2), bins_per_axis=1)
    assert joint.shape[0] == 1
    with pytest.raises(IndependenceError):
        subset_search(conditional_from_joint(joint))


def test_discretize_sample_mode_close_to_exact():
    # the cell masses on the default box's grid, computed with scipy's
    # normal CDF and counted from a million samples, against discretize
    stats = pytest.importorskip("scipy.stats")
    bins = 16
    for preset in ("noise-0.2", "overlap-1.2"):
        spec = get_preset(preset)
        joint = discretize(spec, bins_per_axis=bins)
        (x_lo, x_hi), (y_lo, y_hi) = synth.default_box(spec)
        edges_x = np.linspace(x_lo, x_hi, bins + 1)
        edges_y = np.linspace(y_lo, y_hi, bins + 1)

        class_mass = np.zeros((bins * bins, spec.num_true_classes))
        for mean, var, w, c in zip(spec.means, spec.variances, spec.weights, spec.class_ids):
            sx, sy = np.sqrt(var)
            px = np.diff(stats.norm.cdf(edges_x, loc=mean[0], scale=sx))
            py = np.diff(stats.norm.cdf(edges_y, loc=mean[1], scale=sy))
            class_mass[:, c] += w * np.outer(px, py).ravel()
        reference = class_mass if spec.noise is None else class_mass @ spec.noise
        kept = reference.sum(axis=1) > synth.MASS_FLOOR * reference.sum()
        np.testing.assert_allclose(
            joint.probs, reference[kept] / reference[kept].sum(), rtol=0, atol=1e-12
        )

        samples = sample(spec, 1_000_000, seed=4)
        counts = np.stack([
            np.histogram2d(*samples.points[samples.observed_labels == y].T,
                           bins=(edges_x, edges_y))[0].ravel()
            for y in range(joint.shape[1])
        ], axis=1)
        full = np.zeros_like(reference)
        full[kept] = joint.probs
        tv = 0.5 * np.abs(full - counts / len(samples)).sum()
        assert tv <= 0.01, preset


def test_closed_form_closure_through_discretization():
    # exact-mode tables of well-separated flipped mixtures reproduce the
    # closed-form threshold
    for rho in (0.1, 0.2, 0.3, 0.4):
        joint = discretize(noise_preset(rho))
        searched = subset_search(conditional_from_joint(joint)).value
        assert searched == pytest.approx(1.0 / (1.0 - 2.0 * rho) ** 2, rel=0.01)


def test_overlap_monotonicity():
    values = []
    for distance in (8.0, 3.2, 1.6, 0.8):
        joint = discretize(overlap_preset(distance))
        values.append(subset_search(conditional_from_joint(joint)).value)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(1.0, abs=1e-3)


def test_spec_json_round_trip(tmp_path):
    spec = noise_preset(0.3)
    path = tmp_path / "spec.json"
    save_spec_json(spec, path)
    back = load_spec_json(path)
    older = MixtureSpec.from_dict({**spec.to_dict(), "seed": 11})
    for name in ("means", "variances", "weights", "class_ids", "noise"):
        np.testing.assert_array_equal(getattr(back, name), getattr(spec, name))
        # older files carry a "seed" key, which is ignored
        np.testing.assert_array_equal(getattr(older, name), getattr(spec, name))
    assert "seed" not in spec.to_dict()


def _reference_samples_csv(samples, path):
    """The samples writer as a csv loop over numpy scalars."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "observed_label", "true_label"])
        for (x1, x2), o, t in zip(samples.points, samples.observed_labels, samples.true_labels):
            writer.writerow([format(x1, ".17g"), format(x2, ".17g"), int(o), int(t)])


def test_samples_csv_bytes_match_the_reference_loop(tmp_path):
    drawn = sample(noise_preset(0.2), 500, seed=7)
    extreme = synth.SampleSet(
        [[-0.0, 1e-300], [1e20, -3.5], [0.1, 2.0 / 3.0]], [0, 2, 11], [1, 0, 11]
    )
    for samples in (drawn, extreme):
        save_samples_csv(samples, tmp_path / "got.csv")
        _reference_samples_csv(samples, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_samples_csv_round_trip(tmp_path):
    samples = sample(noise_preset(0.2), 64, seed=12)
    path = tmp_path / "samples.csv"
    save_samples_csv(samples, path)
    assert path.read_text().splitlines()[0] == "x1,x2,observed_label,true_label"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(back[:, :2], samples.points, rtol=1e-15)
    np.testing.assert_array_equal(back[:, 2], samples.observed_labels)
    np.testing.assert_array_equal(back[:, 3], samples.true_labels)


def test_symmetric_flip_three_classes():
    table = symmetric_flip(0.3, classes=3)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.diag(table), 0.7, atol=1e-12)
    assert class_conditional_beta(table).value > 1.0


def test_get_preset_parsing():
    spec = get_preset("noise-0.2")
    assert spec.noise is not None
    np.testing.assert_allclose(spec.noise, symmetric_flip(0.2))
    spec = get_preset("overlap-3.2")
    assert spec.noise is None
    assert spec.means[1, 0] - spec.means[0, 0] == pytest.approx(3.2)
    with pytest.raises(ValidationError):
        get_preset("bogus-1.0")
    with pytest.raises(ValidationError):
        get_preset("noise-high")


def test_normal_cdf_matches_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    z = np.concatenate([np.linspace(-37.0, 37.0, 2001), [0.0, -1e-300, 1e-300]])
    np.testing.assert_allclose(synth._normal_cdf(z), special.ndtr(z), rtol=1e-10, atol=0)


def test_class_log_densities_match_scipy_logsumexp():
    special = pytest.importorskip("scipy.special")
    means = [(-1.0, 0.0), (2.0, 1.0), (0.0, 3.0)]
    variances = [(0.25, 0.25), (0.5, 0.1), (0.2, 0.2)]
    weights = [0.3, 0.5, 0.2]
    # the last two points are far enough out that exp underflows to 0
    pts = np.array([[0.0, 0.0], [2.0, 1.0], [40.0, -30.0], [-1e3, 1e3]])

    def alone(k):
        return synth._class_log_densities(_one(means[k], variances[k]), pts)[:, 0]

    expected = special.logsumexp(
        [math.log(weights[0]) + alone(0), math.log(weights[1]) + alone(1)], axis=0
    )
    spec = MixtureSpec(means, variances, weights, [0, 0, 1])
    got = synth._class_log_densities(spec, pts)[:, 0]
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_sample_set_rejects_non_finite_points(bad):
    # one NaN point once made every weight the classifier trained NaN
    points = np.zeros((4, 2))
    points[2, 1] = bad
    with pytest.raises(ValidationError, match="points must be finite"):
        synth.SampleSet(points, [0, 1, 0, 1], [0, 1, 0, 1])


@pytest.mark.parametrize("field, labels", [
    # the int cast truncated 1.5 to 1
    ("observed_labels", [0.0, 1.5, 1.0]),
    ("true_labels", [0.0, 1.5, 1.0]),
    ("observed_labels", [0.0, np.nan, 1.0]),
    ("true_labels", [0.0, np.inf, 1.0]),
], ids=["observed-fraction", "true-fraction", "observed-nan", "true-inf"])
def test_sample_set_rejects_labels_that_are_not_whole_numbers(field, labels):
    whole = [0, 1, 1]
    kwargs = {"observed_labels": whole, "true_labels": whole, field: labels}
    with pytest.raises(ValidationError, match=f"{field} must be whole numbers"):
        synth.SampleSet(np.zeros((3, 2)), **kwargs)


def test_sample_set_keeps_whole_float_labels_as_ints():
    samples = synth.SampleSet(np.zeros((3, 2)), [0.0, 2.0, 1.0], np.array([1, 0, 2]))
    assert samples.observed_labels.dtype.kind == "i"
    np.testing.assert_array_equal(samples.observed_labels, [0, 2, 1])
    np.testing.assert_array_equal(samples.true_labels, [1, 0, 2])
