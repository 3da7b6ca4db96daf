"""Small feed-forward network for estimating p(y|x) from labeled samples.

Pure numpy, trained by mini-batch gradient descent on mean cross-entropy,
fully deterministic given a seed.  Inputs are standardized with statistics
frozen at fit time; predictions are softmax rows, so they plug straight
into the subset-search estimator as a learned conditional table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dist import ConditionalMatrix
from .errors import ValidationError
from .synth import SampleSet


@dataclass(frozen=True)
class TrainConfig:
    hidden: tuple[int, ...] = (32,)
    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 128
    seed: int = 0


@dataclass
class MlpModel:
    """Rectified-linear network: input -> hidden layers -> class logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray
    config: TrainConfig
    history: list[float] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[1]


def _init_params(sizes: list[int], rng: np.random.Generator):
    # scaled uniform by fan-in
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(weights, biases, x):
    activations = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        activations.append(h)
    logits = h @ weights[-1] + biases[-1]
    return logits, activations


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _cross_entropy(log_probs, labels):
    return -log_probs[np.arange(len(labels)), labels].mean()


def _loss(weights, biases, x, labels):
    """Mean cross-entropy alone, equal to ``loss_and_gradients(...)[0]``."""
    return _cross_entropy(_log_softmax(_forward(weights, biases, x)[0]), labels)


def loss_and_gradients(weights, biases, x, labels):
    """Mean cross-entropy and its exact gradients for one batch."""
    logits, activations = _forward(weights, biases, x)
    log_probs = _log_softmax(logits)
    n = len(x)
    loss = _cross_entropy(log_probs, labels)

    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grads_w, grads_b


def fit(samples: SampleSet, config: TrainConfig | None = None) -> MlpModel:
    """Train on the observed labels.  Final loss never exceeds the initial
    loss at the default learning rate; the per-epoch trail is kept in
    ``model.history`` (entry 0 is the pre-training loss)."""
    cfg = config or TrainConfig()
    labels = samples.observed_labels
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValidationError("training data contains a single class")
    n_classes = int(labels.max()) + 1

    mean = samples.points.mean(axis=0)
    std = samples.points.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    x = (samples.points - mean) / std

    rng = np.random.default_rng(cfg.seed)
    sizes = [x.shape[1], *cfg.hidden, n_classes]
    weights, biases = _init_params(sizes, rng)

    history = [_loss(weights, biases, x, labels)]
    n = len(x)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, gw, gb = loss_and_gradients(weights, biases, x[batch], labels[batch])
            for w, b, dw, db in zip(weights, biases, gw, gb):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
        history.append(_loss(weights, biases, x, labels))

    return MlpModel(weights, biases, mean, std, cfg, history)


def predict_proba(model: MlpModel, points) -> ConditionalMatrix:
    """Softmax class probabilities for each point, as a conditional table
    with uniform example weights."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(model.input_mean):
        raise ValidationError("points do not match the model's input width")
    x = (pts - model.input_mean) / model.input_std
    logits, _ = _forward(model.weights, model.biases, x)
    return ConditionalMatrix(np.exp(_log_softmax(logits)))


def predict_labels(model: MlpModel, points) -> np.ndarray:
    return np.argmax(predict_proba(model, points).rows, axis=1)


def save_model_json(model: MlpModel, path) -> None:
    doc = {
        "sizes": [model.weights[0].shape[0]]
        + [w.shape[1] for w in model.weights],
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_mean": model.input_mean.tolist(),
        "input_std": model.input_std.tolist(),
        "config": {
            "hidden": list(model.config.hidden),
            "learning_rate": model.config.learning_rate,
            "epochs": model.config.epochs,
            "batch_size": model.config.batch_size,
            "seed": model.config.seed,
        },
        "history": list(model.history),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model_json(path) -> MlpModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    try:
        sizes = doc["sizes"]
        weights = [
            np.array(flat, dtype=float).reshape(fan_in, fan_out)
            for flat, fan_in, fan_out in zip(doc["weights"], sizes[:-1], sizes[1:])
        ]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        cfg = TrainConfig(
            hidden=tuple(doc["config"]["hidden"]),
            learning_rate=doc["config"]["learning_rate"],
            epochs=doc["config"]["epochs"],
            batch_size=doc["config"]["batch_size"],
            seed=doc["config"]["seed"],
        )
        return MlpModel(
            weights,
            biases,
            np.array(doc["input_mean"], dtype=float),
            np.array(doc["input_std"], dtype=float),
            cfg,
            list(doc.get("history", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed model document ({exc})") from exc
