"""Small feed-forward network for estimating p(y|x) from labeled samples.

Every fit trains one network, fully deterministic given a seed: a hidden
layer of ``HIDDEN`` rectified-linear units, trained on mean cross-entropy
by plain SGD at rate ``LEARNING_RATE`` for ``EPOCHS`` epochs in batches of
``BATCH_SIZE``.  Inputs are standardized with statistics frozen at fit
time; predictions are softmax rows, so they plug straight into the
subset-search estimator as a learned conditional table.
:class:`TrainConfig` holds only the seed and stays only for the benchmark
probe in ``bench/tracing.py``, until ROADMAP item 1 lets :func:`fit` take
the seed directly.

Training runs in fixed buffers.  All weights and biases are views into one
flat parameter vector and all gradients into a second one, so an SGD step
is one ``grads *= lr`` and one ``params -= grads``.  Each epoch gathers the
shuffled inputs and one-hot targets into two fixed buffers; the batches are
row slices of them, and every batch's views and the pass buffers of each
batch size are built once before the first epoch.  ``loss_and_gradients``
and ``predict_proba`` run the same forward and backward code.  No loss is
evaluated during training and the softmax reductions go column by column,
yet every operation rounds as in the straightforward loop: for fewer than 8
classes the trained weights, biases and predictions are bit for bit those
of that loop.  From 8 classes up, numpy's pairwise row sums make the last
bit differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import ConditionalMatrix
from .errors import ValidationError
from .synth import SampleSet

# the one network every fit trains
HIDDEN = 32
LEARNING_RATE = 0.1
EPOCHS = 200
BATCH_SIZE = 128


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


@dataclass
class MlpModel:
    """Input -> one rectified-linear hidden layer -> class logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray


def _flat_layers(sizes: list[int]):
    """A zeroed flat vector with each layer's weights and bias as views."""
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
    hidden activations, class log-probabilities, the ReLU mask, the hidden
    and output deltas, the softmax row max and row sum, and the views onto
    them that the pass reads."""

    def __init__(self, width: int, n_classes: int, rows: int):
        self.hidden = np.empty((rows, width))
        self.hidden_t = self.hidden.T
        self.mask = np.empty((rows, width), dtype=bool)
        self.log_probs = np.empty((rows, n_classes))
        self.delta_hidden = np.empty((rows, width))
        self.delta_out = np.empty((rows, n_classes))
        self.top = np.empty(rows)
        self.total = np.empty(rows)
        self.top_col = self.top[:, None]
        self.total_col = self.total[:, None]
        self.log_prob_columns = list(self.log_probs.T)
        self.exp_columns = list(self.delta_out.T)


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
    hidden = np.matmul(x, weights[0], out=ws.hidden)
    hidden += biases[0]
    np.maximum(hidden, 0.0, out=hidden)
    logits = np.matmul(hidden, weights[1], out=ws.log_probs)
    logits += biases[1]
    # Row max and row sum taken column by column: on the narrow rows of
    # class logits, numpy's axis=1 reductions cost many times the
    # elementwise ops.  Below 8 columns numpy sums a row left to right, as
    # this does, so the result is bitwise the same; from 8 columns up numpy
    # sums pairwise and the last bit may differ.
    _fold_columns(np.maximum, ws.log_prob_columns, ws.top)
    logits -= ws.top_col
    # the output delta buffer holds exp(shifted) until the backward pass
    np.exp(logits, out=ws.delta_out)
    _fold_columns(np.add, ws.exp_columns, ws.total)
    np.log(ws.total, out=ws.total)
    logits -= ws.total_col


def _backward(ws: _Workspace, out_weights_t, x_t, targets, grad_w, grad_b) -> None:
    """The exact gradients of the mean cross-entropy against one-hot
    ``targets``, written into ``grad_w`` and ``grad_b``; reads the pass
    :func:`_forward` left in ``ws`` and the transposed output weights."""
    delta = np.exp(ws.log_probs, out=ws.delta_out)
    # subtracting 0.0 leaves a probability unchanged, so this rounds as
    # subtracting 1.0 at each label alone
    delta -= targets
    delta /= len(targets)
    np.matmul(ws.hidden_t, delta, out=grad_w[1])
    np.add.reduce(delta, axis=0, out=grad_b[1])
    below = np.matmul(delta, out_weights_t, out=ws.delta_hidden)
    below *= np.greater(ws.hidden, 0.0, out=ws.mask)
    np.matmul(x_t, below, out=grad_w[0])
    np.add.reduce(below, axis=0, out=grad_b[0])


def loss_and_gradients(weights, biases, x, labels):
    """Mean cross-entropy and its exact gradients for one batch, for a
    network of one hidden layer of any width."""
    width, n_classes = weights[1].shape
    ws = _Workspace(width, n_classes, len(x))
    _, grad_w, grad_b = _flat_layers([x.shape[1], width, n_classes])
    _forward(ws, weights, biases, x)
    targets = np.eye(n_classes)[labels]
    _backward(ws, weights[1].T, x.T, targets, grad_w, grad_b)
    return -ws.log_probs[np.arange(len(labels)), labels].mean(), grad_w, grad_b


def fit(samples: SampleSet, config: TrainConfig | None = None) -> MlpModel:
    """Train the network on the observed labels by plain mini-batch SGD
    for ``EPOCHS`` epochs.  No loss is evaluated during training; apply
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
    sizes = [x.shape[1], HIDDEN, n_classes]
    params, weights, biases = _flat_layers(sizes)
    for w in weights:
        # scaled uniform by fan-in; biases start at zero
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    grads, grad_w, grad_b = _flat_layers(sizes)
    out_weights_t = weights[1].T
    targets = np.eye(n_classes)[labels]

    # Each epoch gathers into these two buffers; every batch is a fixed
    # row slice of them, with one workspace per batch size.
    n = len(x)
    x_epoch, targets_epoch = np.empty_like(x), np.empty_like(targets)
    workspaces: dict[int, _Workspace] = {}
    batches = []
    for start in range(0, n, BATCH_SIZE):
        x_batch = x_epoch[start:start + BATCH_SIZE]
        rows = len(x_batch)
        if rows not in workspaces:
            workspaces[rows] = _Workspace(HIDDEN, n_classes, rows)
        batches.append((workspaces[rows], x_batch, x_batch.T,
                        targets_epoch[start:start + BATCH_SIZE]))

    for _ in range(EPOCHS):
        order = rng.permutation(n)
        # a permutation is always in range; mode="raise" would buffer the output
        np.take(x, order, axis=0, out=x_epoch, mode="clip")
        np.take(targets, order, axis=0, out=targets_epoch, mode="clip")
        for ws, x_batch, x_batch_t, targets_batch in batches:
            _forward(ws, weights, biases, x_batch)
            _backward(ws, out_weights_t, x_batch_t, targets_batch, grad_w, grad_b)
            # lr * grad, then the subtraction: the rounding of
            # ``w -= lr * dw`` without its temporary
            grads *= LEARNING_RATE
            params -= grads

    return MlpModel([w.copy() for w in weights], [b.copy() for b in biases], mean, std)


def predict_proba(model: MlpModel, points) -> ConditionalMatrix:
    """Softmax class probabilities for each point, as a conditional table
    with uniform example weights."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(model.input_mean):
        raise ValidationError("points do not match the model's input width")
    x = (pts - model.input_mean) / model.input_std
    ws = _Workspace(*model.weights[1].shape, len(x))
    _forward(ws, model.weights, model.biases, x)
    return ConditionalMatrix(np.exp(ws.log_probs))
