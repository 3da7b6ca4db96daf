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


def _reference_forward(weights, biases, x):
    activations = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        activations.append(h)
    return h @ weights[-1] + biases[-1], activations


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_loss_and_gradients(weights, biases, x, labels):
    """The straightforward step: loss, then backpropagation, in fresh arrays."""
    logits, activations = _reference_forward(weights, biases, x)
    log_probs = _reference_log_softmax(logits)
    n = len(x)
    loss = -log_probs[np.arange(n), labels].mean()
    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w, grads_b = [None] * len(weights), [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grads_w, grads_b


def _reference_fit(samples, seed):
    """Plain mini-batch SGD at the module's constants: gather each batch
    through the permutation, step by ``w -= lr * dw``; returns weights and
    biases."""
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
            _, gw, gb = _reference_loss_and_gradients(
                weights, biases, x[batch], labels[batch]
            )
            for w, b, dw, db in zip(weights, biases, gw, gb):
                w -= lr * dw
                b -= lr * db
    return weights, biases


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
], ids=["2-classes", "5-classes", "3-classes", "one-batch-of-n", "one-batch-above-n",
        "n-divisible"])
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
    logits, _ = _reference_forward(weights, biases, x)
    want = ConditionalMatrix(np.exp(_reference_log_softmax(logits)))
    assert np.array_equal(predict_proba(model, samples.points).rows, want.rows)


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


def test_learned_posterior_pipeline_recovers_threshold():
    # train on noisy labels, run the subset search on the learned table
    samples = sample(noise_preset(0.2), 10_000, seed=3)
    model = fit(samples, TrainConfig(seed=0))
    learned = predict_proba(model, samples.points)
    value = subset_search(learned).value
    assert value == pytest.approx(TWO_CLUSTER_BETA, rel=0.15)
