import math

import numpy as np
import pytest

from ibonset import ConditionalMatrix, DiscreteJoint


def two_cluster_cond(rho: float, per_class: int = 4) -> ConditionalMatrix:
    """Uniform-weight table: per_class copies of (1-rho, rho) then of
    (rho, 1-rho)."""
    rows = [[1.0 - rho, rho]] * per_class + [[rho, 1.0 - rho]] * per_class
    return ConditionalMatrix(np.array(rows))


def two_cluster_joint(rho: float) -> DiscreteJoint:
    """Balanced binary joint with flip rate rho."""
    return DiscreteJoint(
        np.array([[1.0 - rho, rho], [rho, 1.0 - rho]]) / 2.0
    )


def random_joint(rng: np.random.Generator, max_x: int = 8, max_y: int = 6) -> DiscreteJoint:
    nx = int(rng.integers(2, max_x + 1))
    ny = int(rng.integers(2, max_y + 1))
    return DiscreteJoint(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))


def random_cond(rng: np.random.Generator, n: int, c: int) -> ConditionalMatrix:
    rows = rng.dirichlet(np.ones(c), size=n)
    weights = rng.dirichlet(np.ones(n) * 5.0)
    return ConditionalMatrix(rows, weights)


def oracle_subset_beta(rows, weights, members):
    """Direct evaluation of the subset threshold ratio
    (1/p(S) - 1) / (sum_y p(y|S)^2/p(y) - 1); inf for an uninformative S."""
    rows = np.asarray(rows, float)
    weights = np.asarray(weights, float)
    p_y = weights @ rows
    mass = weights[members].sum()
    if mass >= 1.0 - 1e-15:
        return math.inf
    q = (weights[members, None] * rows[members]).sum(axis=0) / mass
    den = (q * q / p_y).sum() - 1.0
    if den <= 1e-12:
        return math.inf
    return (1.0 / mass - 1.0) / den


def indicator(n: int, members) -> np.ndarray:
    """The 0/1 score vector of the rows ``members`` among ``n``."""
    scores = np.zeros(n)
    scores[members] = 1.0
    return scores


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
