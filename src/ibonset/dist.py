"""Discrete probability containers over finite alphabets.

Joint tables and row-stochastic conditionals, which carry their marginals,
mutual information and entropy, and the CSV formats used to move tables
between runs.  All containers are immutable after construction, and stay
so through a pickle round trip.

Probabilities are validated to a stochasticity tolerance of 1e-9 and then
renormalized exactly, so downstream arithmetic always sees sums of 1.
Every information quantity is in nats.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: inputs whose mass deviates from 1 by more than this are rejected
STOCHASTIC_ATOL = 1e-9


def _prob_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if arr.min() < -STOCHASTIC_ATOL:
        raise ValidationError(f"{name} has negative entries (min={arr.min():.3g})")
    return np.clip(arr, 0.0, None)


def _unit_mass(arr: np.ndarray, what: str) -> np.ndarray:
    total = arr.sum()
    if abs(total - 1.0) > STOCHASTIC_ATOL:
        raise ValidationError(f"{what} mass is {float(total)!r}, expected 1")
    return arr / total


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _Frozen:
    """Base of the containers: frozen dataclasses whose fields are set by
    :meth:`_store`, which makes every array among them (or in a tuple, as a
    kept ``merged``) read-only.  Pickle and ``copy.deepcopy`` hand back
    writeable arrays, so ``__setstate__`` stores through it too."""

    def _store(self, **fields) -> None:
        for name, value in fields.items():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    _freeze(item)
            object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        self._store(**state)


@dataclass(frozen=True, eq=False)
class DiscreteJoint(_Frozen):
    """Full joint probability table p(x, y), rows indexed by x.

    Rows or columns of exactly zero mass are pruned with a warning, so both
    marginals ``p_x`` and ``p_y`` are strictly positive after construction.
    """

    probs: np.ndarray
    p_x: np.ndarray = field(init=False, repr=False)
    p_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = _unit_mass(_prob_array(self.probs, "probs", 2), "joint")

        keep_x = arr.sum(axis=1) > 0.0
        keep_y = arr.sum(axis=0) > 0.0
        if not (keep_x.all() and keep_y.all()):
            dropped = int((~keep_x).sum() + (~keep_y).sum())
            warnings.warn(
                f"pruned {dropped} zero-mass rows/columns from joint table",
                # past the dataclass-generated __init__, to its caller
                stacklevel=3,
            )
            arr = arr[keep_x][:, keep_y]
        # a contiguous axis is summed pairwise, not one row at a time
        self._store(probs=arr, p_x=arr.sum(axis=1),
                    p_y=np.ascontiguousarray(arr.T).sum(axis=1))

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    @cached_property
    def merged(self) -> tuple[DiscreteJoint, np.ndarray]:
        """Joint p(t, y) over the bitwise-distinct rows t of p(y|x), and the
        read-only index t(x) per row x; computed on first use and kept.
        Each t adds its rows in sorted order, so permuting the rows of the
        table leaves the merged table bitwise the same."""
        _, group = np.unique(self.probs / self.p_x[:, None], axis=0, return_inverse=True)
        group = group.reshape(-1)
        order = np.lexsort((*self.probs.T, group))
        merged = np.zeros((group.max() + 1, self.shape[1]))
        np.add.at(merged, group[order], self.probs[order])
        return DiscreteJoint(merged), _freeze(group)


@dataclass(frozen=True, eq=False)
class ConditionalMatrix(_Frozen):
    """Row-stochastic table of p(y | x_i) plus example weights p(x_i).

    Weights default to uniform 1/N and must be strictly positive.  ``p_y``
    is the label marginal sum_i p(x_i) p(y | x_i).
    """

    rows: np.ndarray
    weights: np.ndarray | None = None
    p_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = _prob_array(self.rows, "rows", 2)
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > STOCHASTIC_ATOL):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(
                f"row {worst} sums to {float(sums[worst])!r}, expected 1"
            )
        rows = rows / sums[:, None]

        if self.weights is None:
            w = np.full(rows.shape[0], 1.0 / rows.shape[0])
        else:
            w = _prob_array(self.weights, "weights", 1)
            if len(w) != rows.shape[0]:
                raise ValidationError("weights length does not match number of rows")
            if w.min() <= 0.0:
                raise ValidationError("weights must be strictly positive")
            w = _unit_mass(w, "weight")

        p_y = w @ rows
        self._store(rows=rows, weights=w, p_y=p_y / p_y.sum())

    @property
    def num_examples(self) -> int:
        return self.rows.shape[0]

    @property
    def num_classes(self) -> int:
        return self.rows.shape[1]


def joint_from_conditional(cond: ConditionalMatrix) -> DiscreteJoint:
    """Assemble the joint table p(x, y) = p(x) p(y|x)."""
    return DiscreteJoint(cond.weights[:, None] * cond.rows)


def conditional_from_joint(joint: DiscreteJoint) -> ConditionalMatrix:
    """Rows p(y|x) weighted by p(x).  Marginals are positive after joint
    construction, so no row can be empty here."""
    return ConditionalMatrix(joint.probs / joint.p_x[:, None], joint.p_x)


def xlogy(x, y) -> np.ndarray:
    """Elementwise x log(y) with 0 log(y) := 0, for non-negative inputs."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log(0) cells are masked
        return np.where(x != 0.0, x * np.log(y), 0.0)


def rel_entr(x, y) -> np.ndarray:
    """Elementwise x log(x / y) with 0 log(0 / y) := 0, for non-negative
    inputs: the terms of a Kullback-Leibler divergence."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 cells are masked
        return xlogy(x, x / y)


def mutual_information(joint: DiscreteJoint) -> float:
    """Mutual information of the joint table, in nats.

    Computed as sum of p(x,y) log[p(x,y) / (p(x)p(y))] with the 0 log 0 := 0
    convention.  The result is mathematically non-negative; floating point
    may return values as low as -1e-12.
    """
    return float(rel_entr(joint.probs, np.outer(joint.p_x, joint.p_y)).sum())


def entropy(probs) -> float:
    """Shannon entropy in nats of a probability vector, validated and
    renormalized as a joint table is."""
    arr = _unit_mass(_prob_array(probs, "probs", 1), "probability")
    return float(-xlogy(arr, arr).sum())


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def save_conditional_csv(cond: ConditionalMatrix, path) -> None:
    """Write a conditional table as CSV: one class column ``y<j>`` per label
    plus a trailing ``weight`` column."""
    names = [f"y{j}" for j in range(cond.num_classes)]
    _write_csv_table(path, [*names, "weight"], np.column_stack([cond.rows, cond.weights]))


def load_conditional_csv(path) -> ConditionalMatrix:
    """Read a conditional table written by :func:`save_conditional_csv`.

    The ``weight`` column is optional; without it weights are uniform.
    A headerless all-numeric file is also accepted.
    """
    header, data = _read_csv_table(path)
    if header is not None and header[-1].strip().lower() == "weight":
        return ConditionalMatrix(data[:, :-1], data[:, -1])
    return ConditionalMatrix(data)


def save_joint_csv(joint: DiscreteJoint, path) -> None:
    """Write a joint table as a dense CSV matrix under a header row of
    class names ``y<j>``."""
    _write_csv_table(path, [f"y{j}" for j in range(joint.shape[1])], joint.probs)


def load_joint_csv(path) -> DiscreteJoint:
    """Read a dense joint table; a header row, if present, is skipped."""
    _, data = _read_csv_table(path)
    return DiscreteJoint(data)


def _write_csv_table(path, header: list[str], table) -> None:
    """A header row, then the rows of ``table`` with 17 significant digits,
    which read back exactly (integers as integers)."""
    arr = np.asarray(table, dtype=float)
    # the body is one %-format of a row template repeated per row: '%.17g'
    # of a Python float is format(v, ".17g"), and csv.writer ends rows with
    # \r\n, so the bytes are those of writing each cell through csv.writer
    row = ",".join(["%.17g"] * arr.shape[-1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(row * len(arr) % tuple(arr.ravel().tolist()))


def _read_csv_table(path) -> tuple[list[str] | None, np.ndarray]:
    """The header row (None when the first row is numeric) and the numeric
    body of a CSV table, skipping blank lines.  Empty, header-only, ragged
    and non-numeric files are rejected."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = None if _is_numeric_row(rows[0]) else rows[0]
    body = rows if header is None else rows[1:]
    if not body:
        raise ValidationError(f"{path}: no data rows")
    if len({len(r) for r in rows}) > 1:
        raise ValidationError(f"{path}: ragged rows")
    try:
        data = np.array(body, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric cell ({exc})") from exc
    return header, data


def _is_numeric_row(cells: list[str]) -> bool:
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True
