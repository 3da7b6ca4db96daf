import warnings

import numpy as np
import pytest

from ibonset import (
    ConditionalMatrix,
    ValidationError,
    noise_preset,
    sample,
    subset_search,
)
from ibonset import classifier
from ibonset.classifier import (
    TrainConfig,
    fit,
    loss_and_gradients,
    predict_proba,
)
from ibonset.synth import SampleSet

TWO_CLUSTER_BETA = 1.0 / 0.36


def _finite_difference_grads(weights, biases, x, labels, eps=1e-6):
    """Central-difference oracle for every parameter."""
    def loss():
        return loss_and_gradients(weights, biases, x, labels)[0]

    fd_w = [np.zeros_like(w) for w in weights]
    fd_b = [np.zeros_like(b) for b in biases]
    for arr, out in [*zip(weights, fd_w), *zip(biases, fd_b)]:
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss()
            flat[i] = keep - eps
            down = loss()
            flat[i] = keep
            out.ravel()[i] = (up - down) / (2.0 * eps)
    return fd_w, fd_b


def _with_ones(x):
    return np.hstack([x, np.ones((len(x), 1))])


def _reference_forward(weights, biases, x):
    """Softmax probabilities and the hidden activations, with the hidden
    bias as one more weight row that a ones input column multiplies."""
    first = np.vstack([weights[0], biases[0]])
    hidden = np.maximum(_with_ones(x) @ first, 0.0)
    shifted = hidden @ weights[1] + biases[1]
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True), hidden


def _reference_loss_and_gradients(weights, biases, x, labels, scale=None):
    """The step :mod:`classifier` takes, in fresh arrays: loss, then the
    gradients times ``scale`` (1/n: those of the mean loss)."""
    n = len(x)
    probs, hidden = _reference_forward(weights, biases, x)
    loss = -np.log(probs[np.arange(n), labels]).mean()
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta *= 1.0 / n if scale is None else scale
    below = (delta @ weights[1].T) * (hidden > 0.0)
    first = _with_ones(x).T @ below
    return loss, [first[:-1], hidden.T @ delta], [first[-1], np.ones(n) @ delta]


def _sgd(samples, seed, step):
    """Plain mini-batch SGD at the module's constants: gather each batch
    through the permutation and subtract what ``step(weights, biases, x,
    labels, lr)`` returns; returns the weights and biases."""
    labels = samples.observed_labels
    mean = samples.points.mean(axis=0)
    std = samples.points.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    x = (samples.points - mean) / std
    rng = np.random.default_rng(seed)
    sizes = [x.shape[1], classifier.HIDDEN, int(labels.max()) + 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    batch_size, lr = classifier.BATCH_SIZE, classifier.LEARNING_RATE
    for _ in range(classifier.EPOCHS):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            batch = order[start:start + batch_size]
            dw, db = step(weights, biases, x[batch], labels[batch], lr)
            for param, change in zip(weights + biases, dw + db):
                param -= change
    return weights, biases


def _reference_fit(samples, seed):
    """The loop :func:`classifier.fit` runs: ``lr/n`` folded into the
    output delta, so each step subtracts the scaled gradients."""
    def step(weights, biases, x, labels, lr):
        return _reference_loss_and_gradients(weights, biases, x, labels, lr / len(x))[1:]
    return _sgd(samples, seed, step)


def _log_softmax_forward(weights, biases, x):
    """The log-softmax form: separate bias adds, log-probabilities."""
    hidden = np.maximum(x @ weights[0] + biases[0], 0.0)
    shifted = hidden @ weights[1] + biases[1]
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)), hidden


def _log_softmax_fit(samples, seed):
    """The loop ``classifier`` ran before its step was folded: mean-loss
    gradients through log-probabilities, then ``w -= lr * dw``."""
    def step(weights, biases, x, labels, lr):
        n = len(x)
        log_probs, hidden = _log_softmax_forward(weights, biases, x)
        delta = np.exp(log_probs)
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        below = (delta @ weights[1].T) * (hidden > 0.0)
        return ([lr * (x.T @ below), lr * (hidden.T @ delta)],
                [lr * below.sum(axis=0), lr * delta.sum(axis=0)])
    return _sgd(samples, seed, step)


def _labeled_points(n, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    points = rng.standard_normal((n, 2)) + 2.0 * np.stack(
        [np.cos(labels), np.sin(labels)], axis=1
    )
    return SampleSet(points, labels, labels)


@pytest.mark.parametrize("samples, seed, epochs", [
    # 1000 % 128 = 104: the last batch is short
    (sample(noise_preset(0.2), 1000, seed=11), 4, 6),
    (_labeled_points(1000, 5, seed=12), 5, 4),
    # one batch of fewer rows than the batch size, at the shipped constants
    (_labeled_points(100, 3, seed=13), 6, None),
    (_labeled_points(128, 2, seed=14), 7, 5),
    (_labeled_points(100, 2, seed=15), 8, 5),
    # 640 = 5 * 128, at the shipped constants
    (_labeled_points(640, 2, seed=16), 9, None),
    # 129 = 128 + 1: the last batch is a single row
    (_labeled_points(129, 2, seed=17), 10, 5),
], ids=["2-classes", "5-classes", "3-classes", "one-batch-of-n", "one-batch-above-n",
        "n-divisible", "last-batch-one-row"])
def test_fit_is_bitwise_the_reference_loop(monkeypatch, samples, seed, epochs):
    if epochs is not None:
        monkeypatch.setattr(classifier, "EPOCHS", epochs)
    model = fit(samples, TrainConfig(seed=seed))
    weights, biases = _reference_fit(samples, seed)
    assert [w.shape for w in model.weights] == [(2, classifier.HIDDEN),
                                                 (classifier.HIDDEN, weights[1].shape[1])]
    for got, want in [*zip(model.weights, weights), *zip(model.biases, biases)]:
        assert np.array_equal(got, want)

    x = (samples.points - model.input_mean) / model.input_std
    want = ConditionalMatrix(_reference_forward(weights, biases, x)[0])
    assert np.array_equal(predict_proba(model, samples.points).rows, want.rows)


@pytest.mark.parametrize("samples, seed", [
    (sample(noise_preset(0.2), 1000, seed=11), 4),
    (_labeled_points(1000, 5, seed=12), 5),
], ids=["noise-0.2", "5-classes"])
def test_fit_moves_only_roundoff_from_the_log_softmax_loop(samples, seed):
    # the folded step reorders roundoff only: at the shipped constants the
    # trained model stays within 1e-12 of the log-softmax loop's
    model = fit(samples, TrainConfig(seed=seed))
    weights, biases = _log_softmax_fit(samples, seed)
    for got, want in [*zip(model.weights, weights), *zip(model.biases, biases)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    x = (samples.points - model.input_mean) / model.input_std
    want = np.exp(_log_softmax_forward(weights, biases, x)[0])
    assert np.abs(predict_proba(model, samples.points).rows - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("n", [60, classifier.BATCH_SIZE])
def test_fit_steps_by_the_gradients_of_loss_and_gradients(monkeypatch, n):
    # one epoch of one batch is one step: init - lr * grads
    samples = _labeled_points(n, 3, seed=19)
    monkeypatch.setattr(classifier, "EPOCHS", 0)
    init = fit(samples, TrainConfig(seed=2))
    monkeypatch.setattr(classifier, "EPOCHS", 1)
    trained = fit(samples, TrainConfig(seed=2))
    x = (samples.points - init.input_mean) / init.input_std
    _, gw, gb = loss_and_gradients(init.weights, init.biases, x, samples.observed_labels)
    for got, start, grad in [*zip(trained.weights, init.weights, gw),
                             *zip(trained.biases, init.biases, gb)]:
        want = start - classifier.LEARNING_RATE * grad
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n_classes", [2, 3, 5, 7])
@pytest.mark.parametrize("width", [1, 2, 32])
def test_loss_and_gradients_are_bitwise_the_reference(rng, n_classes, width):
    x = rng.standard_normal((40, 3))
    labels = rng.integers(0, n_classes, size=40)
    sizes = [3, width, n_classes]
    weights = [rng.uniform(-0.8, 0.8, size=shape) for shape in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(k) * 0.1 for k in sizes[1:]]
    loss, gw, gb = loss_and_gradients(weights, biases, x, labels)
    ref_loss, ref_gw, ref_gb = _reference_loss_and_gradients(weights, biases, x, labels)
    assert loss == ref_loss
    assert len(gw) == len(ref_gw) and len(gb) == len(ref_gb)
    for got, want in [*zip(gw, ref_gw), *zip(gb, ref_gb)]:
        assert got.shape == want.shape and np.array_equal(got, want)


def test_fit_returns_arrays_independent_of_each_other_and_of_training(monkeypatch):
    monkeypatch.setattr(classifier, "EPOCHS", 2)
    samples = _labeled_points(300, 3, seed=18)
    model = fit(samples, TrainConfig(seed=1))
    arrays = [*model.weights, *model.biases, model.input_mean, model.input_std]
    # each owns its memory, so none is a view of the flat training vectors
    assert all(a.flags.owndata for a in arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kwargs, field", [
    # numpy's ValueError from default_rng
    ({"seed": -1}, "seed"),
], ids=["seed-neg"])
def test_train_config_rejects_bad_settings(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        TrainConfig(**kwargs)


def test_ten_class_step_matches_reference(rng):
    # from 8 classes numpy sums a row pairwise, so only the last bits may move
    x = rng.standard_normal((64, 2))
    labels = rng.integers(0, 10, size=64)
    weights = [rng.uniform(-0.7, 0.7, size=(2, 12)), rng.uniform(-0.3, 0.3, size=(12, 10))]
    biases = [rng.standard_normal(12) * 0.1, rng.standard_normal(10) * 0.1]
    loss, gw, gb = loss_and_gradients(weights, biases, x, labels)
    ref_loss, ref_gw, ref_gb = _reference_loss_and_gradients(weights, biases, x, labels)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for got, want in [*zip(gw, ref_gw), *zip(gb, ref_gb)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gradients_match_finite_differences(rng):
    x = rng.standard_normal((8, 2))
    labels = rng.integers(0, 3, size=8)
    bound = 1.0 / np.sqrt(2.0)
    weights = [rng.uniform(-bound, bound, size=(2, 5)), rng.uniform(-0.45, 0.45, size=(5, 3))]
    biases = [rng.standard_normal(5) * 0.1, np.zeros(3)]
    _, gw, gb = loss_and_gradients(weights, biases, x, labels)
    fd_w, fd_b = _finite_difference_grads(weights, biases, x, labels)
    for analytic, numeric in [*zip(gw, fd_w), *zip(gb, fd_b)]:
        denom = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_separable_data_high_accuracy(monkeypatch):
    monkeypatch.setattr(classifier, "EPOCHS", 30)
    samples = sample(noise_preset(0.0), 2000, seed=1)
    model = fit(samples, TrainConfig(seed=0))
    predicted = predict_proba(model, samples.points).rows.argmax(axis=1)
    accuracy = (predicted == samples.true_labels).mean()
    assert accuracy > 0.99


def test_noisy_posteriors_near_bayes_at_cores():
    spec = noise_preset(0.2)
    samples = sample(spec, 10_000, seed=2)
    model = fit(samples, TrainConfig(seed=0))
    core = (
        ((samples.points[:, None, :] - spec.means[None]) ** 2).sum(axis=2).min(axis=1)
        < 0.5
    )
    rows = predict_proba(model, samples.points[core]).rows
    expected = np.where(
        samples.true_labels[core, None] == 0, [[0.8, 0.2]], [[0.2, 0.8]]
    )
    assert np.abs(rows - expected).max() < 0.05


def test_zero_epochs_leaves_init_untouched(monkeypatch):
    samples = sample(noise_preset(0.2), 500, seed=3)
    monkeypatch.setattr(classifier, "EPOCHS", 0)
    a = fit(samples, TrainConfig(seed=9))
    b = fit(samples, TrainConfig(seed=9))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    monkeypatch.setattr(classifier, "EPOCHS", 3)
    trained = fit(samples, TrainConfig(seed=9))
    assert any(
        not np.array_equal(wa, wt) for wa, wt in zip(a.weights, trained.weights)
    )


def test_training_reduces_loss(monkeypatch):
    samples = sample(noise_preset(0.2), 4000, seed=4)

    def full_data_loss(model):
        x = (samples.points - model.input_mean) / model.input_std
        return loss_and_gradients(
            model.weights, model.biases, x, samples.observed_labels
        )[0]

    monkeypatch.setattr(classifier, "EPOCHS", 0)
    untrained = fit(samples, TrainConfig(seed=0))
    monkeypatch.setattr(classifier, "EPOCHS", 40)
    trained = fit(samples, TrainConfig(seed=0))
    assert full_data_loss(trained) <= full_data_loss(untrained)


def test_single_class_rejected():
    points = np.random.default_rng(0).standard_normal((50, 2))
    labels = np.zeros(50, dtype=int)
    with pytest.raises(ValidationError):
        fit(SampleSet(points, labels, labels))


def test_predict_rows_stochastic(rng, monkeypatch):
    monkeypatch.setattr(classifier, "EPOCHS", 5)
    samples = sample(noise_preset(0.2), 1000, seed=5)
    model = fit(samples, TrainConfig(seed=0))
    rows = predict_proba(model, rng.standard_normal((40, 2)) * 8.0).rows
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    assert rows.min() >= 0.0


def test_predict_dimension_mismatch(monkeypatch):
    monkeypatch.setattr(classifier, "EPOCHS", 1)
    samples = sample(noise_preset(0.2), 200, seed=6)
    model = fit(samples, TrainConfig(seed=0))
    with pytest.raises(ValidationError):
        predict_proba(model, np.zeros((4, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_points(monkeypatch, bad):
    monkeypatch.setattr(classifier, "EPOCHS", 1)
    model = fit(sample(noise_preset(0.2), 200, seed=6), TrainConfig(seed=0))
    points = np.zeros((4, 2))
    points[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="points contain non-finite"):
            predict_proba(model, points)


@pytest.mark.parametrize("point", [[1e308, 1e308], [0.0, -1e308]])
def test_predict_rejects_points_that_overflow_the_input_scale(monkeypatch, point):
    # finite points whose standardized value is not finite
    monkeypatch.setattr(classifier, "EPOCHS", 1)
    model = fit(sample(noise_preset(0.2), 200, seed=6), TrainConfig(seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="overflow the model's input scale"):
            predict_proba(model, [[0.0, 0.0], point])


def test_learned_posterior_pipeline_recovers_threshold():
    # train on noisy labels, run the subset search on the learned table
    samples = sample(noise_preset(0.2), 10_000, seed=3)
    model = fit(samples, TrainConfig(seed=0))
    learned = predict_proba(model, samples.points)
    value = subset_search(learned).value
    assert value == pytest.approx(TWO_CLUSTER_BETA, rel=0.15)
