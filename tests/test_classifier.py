import numpy as np
import pytest

from ibonset import ValidationError, noise_preset, sample, subset_search
from ibonset.classifier import (
    MlpModel,
    TrainConfig,
    fit,
    load_model_json,
    loss_and_gradients,
    predict_labels,
    predict_proba,
    save_model_json,
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


def test_gradients_match_finite_differences(rng):
    x = rng.standard_normal((8, 2))
    labels = rng.integers(0, 3, size=8)
    bound = 1.0 / np.sqrt(2.0)
    weights = [
        rng.uniform(-bound, bound, size=(2, 5)),
        rng.uniform(-0.45, 0.45, size=(5, 4)),
        rng.uniform(-0.5, 0.5, size=(4, 3)),
    ]
    biases = [rng.standard_normal(5) * 0.1, rng.standard_normal(4) * 0.1, np.zeros(3)]
    _, gw, gb = loss_and_gradients(weights, biases, x, labels)
    fd_w, fd_b = _finite_difference_grads(weights, biases, x, labels)
    for analytic, numeric in [*zip(gw, fd_w), *zip(gb, fd_b)]:
        denom = np.maximum(np.abs(numeric), 1.0)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_separable_data_high_accuracy():
    samples = sample(noise_preset(0.0), 2000, seed=1)
    model = fit(samples, TrainConfig(epochs=30, seed=0))
    accuracy = (predict_labels(model, samples.points) == samples.true_labels).mean()
    assert accuracy > 0.99


def test_noisy_posteriors_near_bayes_at_cores():
    spec = noise_preset(0.2)
    samples = sample(spec, 10_000, seed=2)
    model = fit(samples, TrainConfig(seed=0))
    means = np.array([c.mean for c in spec.components])
    core = (
        ((samples.points[:, None, :] - means[None]) ** 2).sum(axis=2).min(axis=1)
        < 0.5
    )
    rows = predict_proba(model, samples.points[core]).rows
    expected = np.where(
        samples.true_labels[core, None] == 0, [[0.8, 0.2]], [[0.2, 0.8]]
    )
    assert np.abs(rows - expected).max() < 0.05


def test_zero_epochs_leaves_init_untouched():
    samples = sample(noise_preset(0.2), 500, seed=3)
    a = fit(samples, TrainConfig(epochs=0, seed=9))
    b = fit(samples, TrainConfig(epochs=0, seed=9))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    trained = fit(samples, TrainConfig(epochs=3, seed=9))
    assert any(
        not np.array_equal(wa, wt) for wa, wt in zip(a.weights, trained.weights)
    )
    assert len(a.history) == 1


def test_training_reduces_loss():
    samples = sample(noise_preset(0.2), 4000, seed=4)
    model = fit(samples, TrainConfig(epochs=40, seed=0))
    assert model.history[-1] <= model.history[0]


def test_history_ends_with_full_data_loss_of_final_params():
    samples = sample(noise_preset(0.2), 500, seed=3)
    model = fit(samples, TrainConfig(epochs=5, seed=2))
    x = (samples.points - model.input_mean) / model.input_std
    loss, _, _ = loss_and_gradients(
        model.weights, model.biases, x, samples.observed_labels
    )
    assert model.history[-1] == loss


def test_single_class_rejected():
    points = np.random.default_rng(0).standard_normal((50, 2))
    labels = np.zeros(50, dtype=int)
    with pytest.raises(ValidationError):
        fit(SampleSet(points, labels, labels))


def test_predict_rows_stochastic(rng):
    samples = sample(noise_preset(0.2), 1000, seed=5)
    model = fit(samples, TrainConfig(epochs=5, seed=0))
    rows = predict_proba(model, rng.standard_normal((40, 2)) * 8.0).rows
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    assert rows.min() >= 0.0


def test_predict_dimension_mismatch():
    samples = sample(noise_preset(0.2), 200, seed=6)
    model = fit(samples, TrainConfig(epochs=1, seed=0))
    with pytest.raises(ValidationError):
        predict_proba(model, np.zeros((4, 3)))


def test_model_json_round_trip(tmp_path):
    samples = sample(noise_preset(0.2), 1000, seed=7)
    model = fit(samples, TrainConfig(epochs=10, seed=0))
    path = tmp_path / "model.json"
    save_model_json(model, path)
    back = load_model_json(path)
    assert isinstance(back, MlpModel)
    probe = sample(noise_preset(0.2), 100, seed=8).points
    np.testing.assert_allclose(
        predict_proba(back, probe).rows, predict_proba(model, probe).rows, atol=1e-15
    )


def test_learned_posterior_pipeline_recovers_threshold():
    # train on noisy labels, run the subset search on the learned table
    samples = sample(noise_preset(0.2), 10_000, seed=3)
    model = fit(samples, TrainConfig(seed=0))
    learned = predict_proba(model, samples.points)
    value = subset_search(learned).beta0
    assert value == pytest.approx(TWO_CLUSTER_BETA, rel=0.15)
