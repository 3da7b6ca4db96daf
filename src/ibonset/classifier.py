"""Small feed-forward network for estimating p(y|x) from labeled samples.

Pure numpy, trained by plain mini-batch SGD on mean cross-entropy, fully
deterministic given a seed.  Inputs are standardized with statistics frozen
at fit time; predictions are softmax rows, so they plug straight into the
subset-search estimator as a learned conditional table.

Training runs in fixed buffers.  All weights and biases are views into one
flat parameter vector and all gradients into a second one, so an SGD step
is one ``grads *= lr`` and one ``params -= grads``.  Each epoch gathers the
shuffled inputs and one-hot targets into two fixed buffers; the batches are
row slices of them, and every batch's views and the activation, delta,
ReLU mask and softmax buffers of each batch size are built once before the
first epoch, so a step is a fixed sequence of in-place ufunc and matmul
calls.  ``loss_and_gradients`` and ``predict_proba`` run the same forward
and backward code on a workspace of their own.  No loss is evaluated
during training and the softmax reductions go column by column, yet every
operation rounds as in the straightforward loop: for fewer than 8 classes
the trained weights, biases and predictions are bit for bit those of that
loop.  From 8 classes up, numpy's pairwise row sums make the last bit
differ.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if any(width < 1 for width in self.hidden):
            raise ValidationError(f"hidden widths must be positive, got {self.hidden}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValidationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ValidationError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


@dataclass
class MlpModel:
    """Rectified-linear network: input -> hidden layers -> class logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray


def _layer_sizes(weights) -> list[int]:
    return [weights[0].shape[0], *(w.shape[1] for w in weights)]


def _flat_layers(sizes: list[int]):
    """A zeroed flat vector with every layer's weight matrix and bias as
    views into it."""
    layers = list(zip(sizes[:-1], sizes[1:]))
    flat = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in layers))
    weights, biases, start = [], [], 0
    for fan_in, fan_out in layers:
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return flat, weights, biases


class _Workspace:
    """The buffers of one forward and backward pass over ``rows`` examples:
    hidden activations, class log-probabilities, one delta per layer, the
    ReLU masks, the softmax row max and row sum, and the views onto them
    that the pass reads."""

    def __init__(self, sizes: list[int], rows: int):
        self.hidden = [np.empty((rows, width)) for width in sizes[1:-1]]
        self.hidden_t = [h.T for h in self.hidden]
        self.masks = [np.empty((rows, width), dtype=bool) for width in sizes[1:-1]]
        self.log_probs = np.empty((rows, sizes[-1]))
        self.deltas = [np.empty((rows, width)) for width in sizes[1:]]
        self.top = np.empty(rows)
        self.total = np.empty(rows)
        self.top_col = self.top[:, None]
        self.total_col = self.total[:, None]
        self.log_prob_columns = list(self.log_probs.T)
        self.exp_columns = list(self.deltas[-1].T)


def _fold_columns(ufunc, columns, out) -> None:
    """``functools.reduce(ufunc, columns)``, left to right, into ``out``."""
    if len(columns) == 1:
        np.copyto(out, columns[0])
        return
    ufunc(columns[0], columns[1], out=out)
    for column in columns[2:]:
        ufunc(out, column, out=out)


def _forward(ws: _Workspace, weights, biases, x) -> None:
    """Class log-probabilities of ``x`` into ``ws.log_probs``, with the
    hidden activations left in ``ws.hidden``."""
    h = x
    for w, b, out in zip(weights[:-1], biases[:-1], ws.hidden):
        np.matmul(h, w, out=out)
        out += b
        np.maximum(out, 0.0, out=out)
        h = out
    logits = np.matmul(h, weights[-1], out=ws.log_probs)
    logits += biases[-1]
    # Row max and row sum taken column by column: on the narrow rows of
    # class logits, numpy's axis=1 reductions cost many times the
    # elementwise ops.  Below 8 columns numpy sums a row left to right, as
    # this does, so the result is bitwise the same; from 8 columns up numpy
    # sums pairwise and the last bit may differ.
    _fold_columns(np.maximum, ws.log_prob_columns, ws.top)
    logits -= ws.top_col
    # the last delta buffer holds exp(shifted) until the backward pass
    np.exp(logits, out=ws.deltas[-1])
    _fold_columns(np.add, ws.exp_columns, ws.total)
    np.log(ws.total, out=ws.total)
    logits -= ws.total_col


def _backward(ws: _Workspace, weights_t, x_t, targets, grad_w, grad_b) -> None:
    """The exact gradients of the mean cross-entropy against one-hot
    ``targets``, written into ``grad_w`` and ``grad_b``; reads the pass
    :func:`_forward` left in ``ws``."""
    delta = np.exp(ws.log_probs, out=ws.deltas[-1])
    # subtracting 0.0 leaves a probability unchanged, so this rounds as
    # subtracting 1.0 at each label alone
    delta -= targets
    delta /= len(targets)
    inputs_t = [x_t, *ws.hidden_t]
    for layer in range(len(grad_w) - 1, -1, -1):
        delta = ws.deltas[layer]
        np.matmul(inputs_t[layer], delta, out=grad_w[layer])
        np.add.reduce(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            below = np.matmul(delta, weights_t[layer], out=ws.deltas[layer - 1])
            below *= np.greater(ws.hidden[layer - 1], 0.0, out=ws.masks[layer - 1])


def loss_and_gradients(weights, biases, x, labels):
    """Mean cross-entropy and its exact gradients for one batch."""
    sizes = _layer_sizes(weights)
    ws = _Workspace(sizes, len(x))
    _, grad_w, grad_b = _flat_layers(sizes)
    _forward(ws, weights, biases, x)
    targets = np.eye(sizes[-1])[labels]
    _backward(ws, [w.T for w in weights], x.T, targets, grad_w, grad_b)
    return -ws.log_probs[np.arange(len(labels)), labels].mean(), grad_w, grad_b


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
    params, weights, biases = _flat_layers(sizes)
    for w, (fan_in, fan_out) in zip(weights, zip(sizes[:-1], sizes[1:])):
        # scaled uniform by fan-in; biases start at zero
        bound = 1.0 / np.sqrt(fan_in)
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    grads, grad_w, grad_b = _flat_layers(sizes)
    weights_t = [w.T for w in weights]
    targets = np.eye(n_classes)[labels]

    # Each epoch gathers into these two buffers; every batch is a fixed
    # row slice of them, with one workspace per batch size.
    n = len(x)
    x_epoch, targets_epoch = np.empty_like(x), np.empty_like(targets)
    workspaces: dict[int, _Workspace] = {}
    batches = []
    for start in range(0, n, cfg.batch_size):
        x_batch = x_epoch[start:start + cfg.batch_size]
        rows = len(x_batch)
        if rows not in workspaces:
            workspaces[rows] = _Workspace(sizes, rows)
        batches.append((workspaces[rows], x_batch, x_batch.T,
                        targets_epoch[start:start + cfg.batch_size]))

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        # a permutation is always in range; mode="raise" would buffer the output
        np.take(x, order, axis=0, out=x_epoch, mode="clip")
        np.take(targets, order, axis=0, out=targets_epoch, mode="clip")
        for ws, x_batch, x_batch_t, targets_batch in batches:
            _forward(ws, weights, biases, x_batch)
            _backward(ws, weights_t, x_batch_t, targets_batch, grad_w, grad_b)
            # lr * grad, then the subtraction: the rounding of
            # ``w -= lr * dw`` without its temporary
            grads *= cfg.learning_rate
            params -= grads

    return MlpModel(
        [w.copy() for w in weights], [b.copy() for b in biases], mean, std
    )


def predict_proba(model: MlpModel, points) -> ConditionalMatrix:
    """Softmax class probabilities for each point, as a conditional table
    with uniform example weights."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(model.input_mean):
        raise ValidationError("points do not match the model's input width")
    x = (pts - model.input_mean) / model.input_std
    ws = _Workspace(_layer_sizes(model.weights), len(x))
    _forward(ws, model.weights, model.biases, x)
    return ConditionalMatrix(np.exp(ws.log_probs))
