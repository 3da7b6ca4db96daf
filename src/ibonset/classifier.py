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
flat parameter vector and all gradients into a second one.  The hidden
bias is one more row of the hidden weights and the inputs carry a column of
ones, so one product applies it and one gives its gradient with the
weights'; the output bias's gradient is a row of ones times the output
delta.  Every product is the ``ndarray.dot`` method into a C-contiguous
buffer: the BLAS call of ``np.dot`` without its ``__array_function__``
dispatch, and without the ufunc dispatch of ``np.matmul``.  Probabilities
are ``exp(shift) / sum``, and the output delta ``(p - onehot) * lr / rows``
is already the step, so an update is one ``params -= grads``: 18 numpy
calls a step at two classes.  Each epoch gathers the shuffled inputs and
one-hot targets into two fixed buffers; the batches are row slices of them,
and every batch's views and the pass buffers of each batch size are built
once before the first epoch.
``fit``, ``loss_and_gradients`` and ``predict_proba`` run the same forward
and backward code.  For fewer than 8 classes the results are bit for bit
those of this arithmetic in fresh arrays (from 8 classes numpy's pairwise
row sums move the last bit); against the log-softmax loop with separate
bias adds that it replaced, at most 3e-15 relative moves on weights and
predictions.  The tests keep both loops as references.
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

# the step's ReLU compares with this 0-d zero: a Python 0.0 would be
# converted to an array on every call
_ZERO = np.zeros(())


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


@dataclass(eq=False)
class MlpModel:
    """Input -> one rectified-linear hidden layer -> class logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray


class _Layers:
    """One flat vector, zeros or a copy of the given per-layer lists, and
    its views: the hidden weights with the bias as one more row (``first``,
    which a ones input column multiplies), the output weights and bias,
    and the per-layer lists ``weights`` and ``biases``."""

    def __init__(self, fan_in: int, width: int, n_classes: int, weights=(), biases=()):
        stop = (fan_in + 1) * width
        self.flat = np.zeros(stop + (width + 1) * n_classes)
        self.first = self.flat[:stop].reshape(fan_in + 1, width)
        self.out = self.flat[stop:stop + width * n_classes].reshape(width, n_classes)
        self.out_t = self.out.T
        self.out_bias = self.flat[stop + width * n_classes:]
        self.weights = [self.first[:-1], self.out]
        self.biases = [self.first[-1], self.out_bias]
        for dst, src in zip(self.weights + self.biases, [*weights, *biases]):
            dst[...] = src


def _with_ones(x) -> np.ndarray:
    """``x`` with a column of ones appended, the input of the hidden bias."""
    return np.column_stack((x, np.ones(len(x))))


class _Workspace:
    """The buffers of one forward and backward pass over ``rows`` examples:
    hidden activations, class probabilities (the output delta once the
    backward pass runs), the ReLU mask, the hidden delta, the softmax row
    max and row sum, the views onto them that the pass reads, and the row
    of ones that sums the output delta into the output bias's gradient."""

    def __init__(self, width: int, n_classes: int, rows: int):
        self.hidden = np.empty((rows, width))
        self.hidden_t = self.hidden.T
        self.mask = np.empty((rows, width), dtype=bool)
        self.probs = np.empty((rows, n_classes))
        self.delta_hidden = np.empty((rows, width))
        self.top = np.empty(rows)
        self.total = np.empty(rows)
        self.top_col = self.top[:, None]
        self.total_col = self.total[:, None]
        self.prob_columns = list(self.probs.T)
        self.ones = np.ones(rows)


def _fold_columns(ufunc, columns, out) -> None:
    """``functools.reduce(ufunc, columns)``, left to right, into ``out``."""
    if len(columns) == 1:
        np.copyto(out, columns[0])
        return
    ufunc(columns[0], columns[1], out=out)
    for column in columns[2:]:
        ufunc(out, column, out=out)


def _forward(ws: _Workspace, layers: _Layers, x) -> None:
    """Class probabilities of the ones-augmented inputs ``x`` into
    ``ws.probs``, with the hidden activations left in ``ws.hidden``."""
    hidden = x.dot(layers.first, out=ws.hidden)
    np.maximum(hidden, _ZERO, out=hidden)
    logits = hidden.dot(layers.out, out=ws.probs)
    logits += layers.out_bias
    # Row max and row sum taken column by column: on the narrow rows of
    # class logits, numpy's axis=1 reductions cost many times the
    # elementwise ops.  Below 8 columns numpy sums a row left to right, as
    # this does, so the result is bitwise the same; from 8 columns up numpy
    # sums pairwise and the last bit may differ.
    _fold_columns(np.maximum, ws.prob_columns, ws.top)
    logits -= ws.top_col
    np.exp(logits, out=logits)
    _fold_columns(np.add, ws.prob_columns, ws.total)
    np.divide(logits, ws.total_col, out=logits)


def _backward(ws: _Workspace, layers: _Layers, x_t, targets, scale, grads: _Layers) -> None:
    """``scale`` times the gradients of the summed cross-entropy against
    one-hot ``targets``, written into ``grads``; reads the pass
    :func:`_forward` left in ``ws`` and overwrites its probabilities."""
    delta = ws.probs
    # subtracting 0.0 leaves a probability unchanged, so this rounds as
    # subtracting 1.0 at each label alone
    delta -= targets
    delta *= scale
    ws.hidden_t.dot(delta, out=grads.out)
    ws.ones.dot(delta, out=grads.out_bias)
    below = delta.dot(layers.out_t, out=ws.delta_hidden)
    below *= np.greater(ws.hidden, _ZERO, out=ws.mask)
    # the ones column makes this the hidden weights' and bias's gradients
    x_t.dot(below, out=grads.first)


def loss_and_gradients(weights, biases, x, labels):
    """Mean cross-entropy and its exact gradients for one batch, for a
    network of one hidden layer of any width."""
    n, sizes = len(x), (x.shape[1], *weights[1].shape)
    layers, grads = _Layers(*sizes, weights, biases), _Layers(*sizes)
    ws = _Workspace(*sizes[1:], n)
    augmented = _with_ones(x)
    _forward(ws, layers, augmented)
    loss = -np.log(ws.probs[np.arange(n), labels]).mean()
    _backward(ws, layers, augmented.T, np.eye(sizes[2])[labels], 1.0 / n, grads)
    return loss, grads.weights, grads.biases


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
    x = _with_ones((samples.points - mean) / std)

    rng = np.random.default_rng(cfg.seed)
    layers = _Layers(len(mean), HIDDEN, n_classes)
    for w in layers.weights:
        # scaled uniform by fan-in; biases start at zero
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    grads = _Layers(len(mean), HIDDEN, n_classes)
    targets = np.eye(n_classes)[labels]

    # Each epoch gathers into these two buffers; every batch is a fixed
    # row slice of them, with one workspace per batch size.  A batch's
    # scale lr/rows turns its delta into the step itself.
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
                        targets_epoch[start:start + BATCH_SIZE], LEARNING_RATE / rows))

    for _ in range(EPOCHS):
        order = rng.permutation(n)
        # a permutation is always in range; mode="raise" would buffer the output
        np.take(x, order, axis=0, out=x_epoch, mode="clip")
        np.take(targets, order, axis=0, out=targets_epoch, mode="clip")
        for ws, x_batch, x_batch_t, targets_batch, scale in batches:
            _forward(ws, layers, x_batch)
            _backward(ws, layers, x_batch_t, targets_batch, scale, grads)
            layers.flat -= grads.flat

    return MlpModel([w.copy() for w in layers.weights],
                    [b.copy() for b in layers.biases], mean, std)


def predict_proba(model: MlpModel, points) -> ConditionalMatrix:
    """Softmax class probabilities for each point, as a conditional table
    with uniform example weights."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(model.input_mean):
        raise ValidationError("points do not match the model's input width")
    if not np.isfinite(pts).all():
        raise ValidationError("points contain non-finite entries")
    layers = _Layers(pts.shape[1], *model.weights[1].shape, model.weights, model.biases)
    ws = _Workspace(*model.weights[1].shape, len(pts))
    # finite points far outside the training scale overflow in the
    # standardization or the hidden layer, and only then is a probability
    # not finite
    with np.errstate(over="ignore", invalid="ignore"):
        _forward(ws, layers, _with_ones((pts - model.input_mean) / model.input_std))
    if not np.isfinite(ws.probs).all():
        raise ValidationError("points overflow the model's input scale")
    return ConditionalMatrix(ws.probs)
