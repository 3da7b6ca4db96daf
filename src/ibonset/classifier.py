"""Small feed-forward network for estimating p(y|x) from labeled samples.

Pure numpy, trained by plain mini-batch SGD on mean cross-entropy, fully
deterministic given a seed.  Inputs are standardized with statistics frozen
at fit time; predictions are softmax rows, so they plug straight into the
subset-search estimator as a learned conditional table.

The training step does less work than the straightforward loop (one
shuffled copy of the data per epoch, one-hot targets, no loss evaluated
during training, column-wise softmax reductions, in-place updates) but
rounds exactly as it does: for fewer than 8 classes the trained weights,
biases and predictions are bit for bit those of that loop.  From 8 classes
up, numpy's pairwise row sums make the last bit differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
        # bias and ReLU written into the matmul's fresh result
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    logits = h @ weights[-1]
    logits += biases[-1]
    return logits, activations


def _log_softmax(logits):
    # Row max and row sum taken column by column: on the narrow rows of
    # class logits, numpy's axis=1 reductions cost many times the
    # elementwise ops.  Below 8 columns numpy sums a row left to right, as
    # this does, so the result is bitwise the same; from 8 columns up numpy
    # sums pairwise and the last bit may differ.
    top = functools.reduce(np.maximum, logits.T)
    shifted = logits - top[:, None]
    total = functools.reduce(np.add, np.exp(shifted).T)
    return shifted - np.log(total)[:, None]


def _backward(weights, biases, x, targets):
    """One batch's log-probabilities and the exact gradients of its mean
    cross-entropy against one-hot ``targets``.  Every gradient is a fresh
    array the caller may scale in place."""
    logits, activations = _forward(weights, biases, x)
    log_probs = _log_softmax(logits)
    # subtracting 0.0 leaves a probability unchanged, so this rounds as
    # subtracting 1.0 at each label alone
    delta = np.exp(log_probs)
    delta -= targets
    delta /= len(x)

    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
            delta *= activations[layer] > 0.0
    return log_probs, grads_w, grads_b


def loss_and_gradients(weights, biases, x, labels):
    """Mean cross-entropy and its exact gradients for one batch."""
    targets = np.eye(weights[-1].shape[1])[labels]
    log_probs, grads_w, grads_b = _backward(weights, biases, x, targets)
    return -log_probs[np.arange(len(labels)), labels].mean(), grads_w, grads_b


def fit(samples: SampleSet, config: TrainConfig | None = None) -> MlpModel:
    """Train on the observed labels by plain mini-batch SGD for
    ``config.epochs`` epochs.  No loss is evaluated during training; apply
    :func:`loss_and_gradients` to the returned weights to measure one."""
    cfg = config or TrainConfig()
    labels = samples.observed_labels
    # not np.unique, which imports numpy.ma for this one check
    if labels.size == 0 or labels.min() == labels.max():
        raise ValidationError("training data contains a single class")
    n_classes = int(labels.max()) + 1

    mean = samples.points.mean(axis=0)
    std = samples.points.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    x = (samples.points - mean) / std

    rng = np.random.default_rng(cfg.seed)
    sizes = [x.shape[1], *cfg.hidden, n_classes]
    weights, biases = _init_params(sizes, rng)
    params = [*weights, *biases]
    targets = np.eye(n_classes)[labels]

    n = len(x)
    for _ in range(cfg.epochs):
        # one gather per epoch; the batches are row slices of it
        order = rng.permutation(n)
        x_epoch, targets_epoch = x[order], targets[order]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            _, gw, gb = _backward(
                weights, biases, x_epoch[start:stop], targets_epoch[start:stop]
            )
            # lr * grad, then the subtraction: the rounding of
            # ``w -= lr * dw`` without its temporary
            for param, grad in zip(params, [*gw, *gb]):
                grad *= cfg.learning_rate
                param -= grad

    return MlpModel(weights, biases, mean, std)


def predict_proba(model: MlpModel, points) -> ConditionalMatrix:
    """Softmax class probabilities for each point, as a conditional table
    with uniform example weights."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(model.input_mean):
        raise ValidationError("points do not match the model's input width")
    x = (pts - model.input_mean) / model.input_std
    logits, _ = _forward(model.weights, model.biases, x)
    return ConditionalMatrix(np.exp(_log_softmax(logits)))

