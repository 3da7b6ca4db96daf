import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ibonset import (
    BetaEstimate,
    ConditionalMatrix,
    DiscreteJoint,
    IndependenceError,
    InvalidDirectionError,
    Method,
    ValidationError,
    analytic_posterior,
    beta_for_scores,
    certify,
    class_conditional_beta,
    conditional_from_joint,
    discretize,
    get_preset,
    info_density_beta,
    joint_from_conditional,
    max_correlation,
    max_correlation_beta,
    minimize_beta,
    noise_preset,
    onset_correction,
    sample,
    subset_search,
    symmetric_flip,
)
from conftest import (
    indicator,
    oracle_subset_beta,
    random_cond,
    random_joint,
    two_cluster_cond,
    two_cluster_joint,
)

TWO_CLUSTER_BETA = 1.0 / 0.36  # 2.7777...


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_subset_info_density(rows, weights, members):
    rows = np.asarray(rows, float)
    weights = np.asarray(weights, float)
    p_y = weights @ rows
    mass = weights[members].sum()
    if mass >= 1.0 - 1e-15:
        return math.inf
    q = (weights[members, None] * rows[members]).sum(axis=0) / mass
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(q / p_y), 0.0)
    den = terms.sum()
    if den <= 1e-12:
        return math.inf
    return -math.log(mass) / den


def oracle_enumerate_prefixes(cond, objective=oracle_subset_beta):
    """Exhaustive minimum over the strict prefixes of every pivot-sorted
    order; this is the ground truth the search must reproduce."""
    best = math.inf
    for pivot in range(cond.num_classes):
        order = np.argsort(-cond.rows[:, pivot], kind="stable")
        for k in range(1, cond.num_examples):
            best = min(best, objective(cond.rows, cond.weights, order[:k]))
    return best


def oracle_binary_max_correlation(joint):
    """Pearson correlation of the two indicator variables; for 2x2 tables
    this is the maximum correlation."""
    p = joint.probs
    px, py = p.sum(1), p.sum(0)
    cov = p[1, 1] - px[1] * py[1]
    return abs(cov) / math.sqrt(px[0] * px[1] * py[0] * py[1])


# ---------------------------------------------------------------------------
# subset threshold: the score functional of the subset's indicator
# ---------------------------------------------------------------------------

def _subset_beta(cond, members):
    return beta_for_scores(joint_from_conditional(cond), indicator(cond.num_examples, members))


def test_subset_beta_deterministic_half():
    cond = ConditionalMatrix([[1, 0], [1, 0], [0, 1], [0, 1]])
    assert _subset_beta(cond, [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_subset_beta_two_cluster():
    value = _subset_beta(two_cluster_cond(0.2), [0, 1, 2, 3])
    assert value == pytest.approx(TWO_CLUSTER_BETA, abs=1e-12)
    assert value == pytest.approx(2.78, abs=0.01)


def test_subset_beta_whole_set_uninformative():
    # the whole set's indicator is constant, so it proves nothing
    cond = two_cluster_cond(0.2)
    with pytest.raises(InvalidDirectionError, match="constant"):
        _subset_beta(cond, list(range(cond.num_examples)))


def test_subset_beta_matches_oracle_on_random_subsets(rng):
    for _ in range(30):
        cond = random_cond(rng, int(rng.integers(3, 10)), int(rng.integers(2, 5)))
        size = int(rng.integers(1, cond.num_examples))
        members = rng.choice(cond.num_examples, size=size, replace=False)
        expected = oracle_subset_beta(cond.rows, cond.weights, members)
        if math.isfinite(expected):
            assert _subset_beta(cond, members) == pytest.approx(expected, rel=1e-12)


def _assert_subset_witness(cond, result):
    """The reported subset achieves the reported value, by the oracle and
    by certify."""
    members = np.flatnonzero(result.witness)
    direct = oracle_subset_beta(cond.rows, cond.weights, members)
    assert direct == pytest.approx(result.value, rel=1e-12)
    assert certify(joint_from_conditional(cond), result) == pytest.approx(result.value, rel=1e-12)


def test_subset_search_two_cluster():
    result = subset_search(two_cluster_cond(0.2))
    assert result.value == pytest.approx(TWO_CLUSTER_BETA, rel=1e-12)
    # the conspicuous subset is one full cluster
    assert tuple(np.flatnonzero(result.witness)) in ((0, 1, 2, 3), (4, 5, 6, 7))
    assert result.diagnostics["mass"] == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(sorted(result.diagnostics["label_dist"]), [0.2, 0.8], atol=1e-12)
    with pytest.raises(ValueError):
        result.witness[0] = 0.5


def test_subset_search_deterministic_is_one():
    cond = ConditionalMatrix([[1, 0], [1, 0], [0, 1], [0, 1]])
    assert subset_search(cond).value == pytest.approx(1.0, abs=1e-9)


def test_subset_search_identical_rows_independent():
    cond = ConditionalMatrix([[0.4, 0.6]] * 5)
    with pytest.raises(IndependenceError):
        subset_search(cond)


def test_subset_search_single_row_independent():
    with pytest.raises(IndependenceError):
        subset_search(ConditionalMatrix([[0.3, 0.7]]))


@pytest.mark.parametrize("rows", [
    [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]],
    [[0.5, 0.0, 0.5], [0.2, 0.0, 0.8]],
], ids=["empty-last", "empty-middle"])
def test_subset_search_ignores_a_label_of_zero_mass(rows):
    # the empty label's q^2/p(y) was 0/0, so every candidate read NaN and the
    # search reported independence; the value is the two-label table's 91/9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = subset_search(ConditionalMatrix(rows)).value
    assert value == pytest.approx(91.0 / 9.0, rel=1e-12)


def test_subset_search_matches_exhaustive_prefix_oracle(rng):
    # small instances, including duplicated rows to exercise tie-breaking,
    # then N in the thousands
    tables = []
    for trial in range(40):
        n = int(rng.integers(2, 13))
        c = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(c), size=n)
        if trial % 3 == 0 and n >= 4:
            rows[1] = rows[0]
            rows[3] = rows[2]
        weights = rng.dirichlet(np.ones(n) * 5.0) if trial % 2 else None
        tables.append(ConditionalMatrix(rows, weights))
    tables += [random_cond(rng, 1000, 2), random_cond(rng, 2000, 3)]
    for cond in tables:
        expected = oracle_enumerate_prefixes(cond)
        if not math.isfinite(expected):
            continue
        result = subset_search(cond)
        assert result.value == pytest.approx(expected, rel=1e-12)
        _assert_subset_witness(cond, result)


def test_subset_search_excludes_full_set_at_large_n():
    # at N=1e5 the full prefix's cumulative mass rounds to 1 - 1.9e-12; a
    # mass tolerance let it in with a threshold of about 0.36
    spec = noise_preset(0.2)
    cond = analytic_posterior(spec, sample(spec, 100_000, seed=0).points)
    result = subset_search(cond)
    assert np.count_nonzero(result.witness) < cond.num_examples
    assert result.value == pytest.approx(TWO_CLUSTER_BETA, rel=1e-3)


def test_subset_search_handles_large_inputs(rng):
    # sampled two-cluster rows with mild perturbation; the search must stay
    # close to the closed form at N in the thousands
    n = 4000
    flips = rng.random(n) < 0.5
    base = np.where(flips[:, None], [[0.2, 0.8]], [[0.8, 0.2]])
    jitter = rng.normal(0.0, 0.002, size=(n, 1))
    rows = np.clip(base + jitter * [1, -1], 1e-6, None)
    rows /= rows.sum(axis=1, keepdims=True)
    value = subset_search(ConditionalMatrix(rows)).value
    assert value == pytest.approx(TWO_CLUSTER_BETA, rel=0.02)


# ---------------------------------------------------------------------------
# class-conditional closed form
# ---------------------------------------------------------------------------

def test_class_conditional_symmetric_flip_values():
    for rho, expected in [(0.2, 2.78), (0.3, 6.25), (0.4, 25.00), (0.48, 625.00)]:
        est = class_conditional_beta(symmetric_flip(rho))
        assert est.value == pytest.approx(1.0 / (1.0 - 2.0 * rho) ** 2, rel=1e-12)
        assert est.value == pytest.approx(expected, abs=0.01)
        assert est.method is Method.CLASS_CONDITIONAL


def test_class_conditional_identity_noise_is_one():
    est = class_conditional_beta(np.eye(3))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_class_conditional_independent_noise():
    with pytest.raises(IndependenceError):
        class_conditional_beta([[0.5, 0.5], [0.5, 0.5]])


def test_class_conditional_ignores_an_observed_label_that_never_occurs():
    # p(y) = 0 for the third label, which was rejected as a zero entry of
    # the label marginal; the value is the two-label table's 25/9
    noise = [[0.8, 0.2, 0.0], [0.2, 0.8, 0.0]]
    est = class_conditional_beta(noise)
    assert est.value == pytest.approx(25.0 / 9.0, rel=1e-12)
    with pytest.warns(UserWarning, match="pruned 1 zero-mass"):
        compact = joint_from_conditional(ConditionalMatrix(noise))
    assert certify(compact, est) == pytest.approx(est.value, rel=1e-12)


def test_class_conditional_leaves_out_a_true_class_of_zero_prior():
    # ConditionalMatrix(noise, prior) rejected the zero weight; the value is
    # that of the table of the classes that hold points, and the pivot and
    # per-class entries keep the original class indices
    noise = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    prior = np.array([0.0, 0.5, 0.5])
    est = class_conditional_beta(noise, prior)
    kept = class_conditional_beta(noise[1:], prior[1:])
    assert est.value == kept.value
    assert est.diagnostics["pivot_true_class"] == kept.diagnostics["pivot_true_class"] + 1
    assert est.diagnostics["per_class"] == [None, *kept.diagnostics["per_class"]]
    assert np.array_equal(est.witness, kept.witness)
    table = joint_from_conditional(ConditionalMatrix(noise[1:], prior[1:]))
    assert certify(table, est) == pytest.approx(est.value, rel=1e-12)


def test_class_conditional_reports_per_class():
    est = class_conditional_beta(symmetric_flip(0.2), [0.7, 0.3])
    assert len(est.diagnostics["per_class"]) == 2
    assert est.value == pytest.approx(min(est.diagnostics["per_class"]), rel=1e-12)


def test_class_conditional_agreement_with_subset_search(rng):
    # binary flip noise: the search lands exactly on the per-class formula,
    # for uniform and skewed priors alike
    for rho in (0.05, 0.2, 0.35):
        for prior in ([0.5, 0.5], [0.6, 0.4], [0.8, 0.2]):
            noise = symmetric_flip(rho)
            reps = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
            rows = np.repeat(noise, reps, axis=0)
            weights = np.concatenate(
                [np.full(reps[k], prior[k] / reps[k]) for k in (0, 1)]
            )
            searched = subset_search(ConditionalMatrix(rows, weights)).value
            closed = class_conditional_beta(noise, prior).value
            assert searched == pytest.approx(closed, rel=1e-9)


# ---------------------------------------------------------------------------
# score-vector functional
# ---------------------------------------------------------------------------

def test_scores_two_cluster_indicator_value():
    joint = two_cluster_joint(0.2)
    assert beta_for_scores(joint, [1.0, 0.0]) == pytest.approx(0.25 / 0.09, rel=1e-12)


def test_scores_constant_rejected():
    with pytest.raises(InvalidDirectionError):
        beta_for_scores(two_cluster_joint(0.2), [3.0, 3.0])


def test_scores_of_huge_magnitude_give_the_unit_scale_value():
    # squaring them raised a bare OverflowError
    spec = noise_preset(0.2)
    joint = joint_from_conditional(ConditionalMatrix(spec.noise, spec.class_priors()))
    for unit, huge in (([1.0, 0.0], [1e200, 0.0]), ([-1.0, 1.0], [-1e300, 1e300]),
                       ([0.0, 1.0], [-1e160, 0.0]), ([-1.0, 1.0], [-1.79e308, 1.79e308])):
        assert beta_for_scores(joint, huge) == pytest.approx(
            beta_for_scores(joint, unit), rel=1e-12)
        direction = onset_correction(joint, huge)
        expected = onset_correction(joint, unit)
        np.testing.assert_allclose(direction / np.abs(direction).max(),
                                   expected / np.abs(expected).max(), rtol=1e-12)


def test_scores_indicator_consistency_with_subsets(rng):
    for _ in range(25):
        joint = random_joint(rng)
        cond = conditional_from_joint(joint)
        size = int(rng.integers(1, joint.shape[0]))
        members = rng.choice(joint.shape[0], size=size, replace=False)
        by_subset = oracle_subset_beta(cond.rows, cond.weights, members)
        if math.isfinite(by_subset):
            assert beta_for_scores(joint, indicator(joint.shape[0], members)) == pytest.approx(
                by_subset, rel=1e-10
            )


def test_scores_affine_invariance(rng):
    for _ in range(25):
        joint = random_joint(rng)
        scores = rng.standard_normal(joint.shape[0])
        a = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-5.0, 5.0)
        try:
            base = beta_for_scores(joint, scores)
        except InvalidDirectionError:
            continue
        assert beta_for_scores(joint, a * scores + b) == pytest.approx(
            base, rel=1e-10
        )


def test_minimize_beta_two_cluster():
    est = minimize_beta(two_cluster_joint(0.2), seed=1)
    assert est.value == pytest.approx(TWO_CLUSTER_BETA, abs=1e-6)
    assert est.method is Method.FUNCTIONAL
    assert est.diagnostics["converged"]
    assert est.witness.std() > 0


def test_minimize_beta_deterministic_is_one():
    est = minimize_beta(DiscreteJoint([[0.5, 0.0], [0.0, 0.5]]), seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_minimize_beta_product_joint_independent():
    with pytest.raises(IndependenceError):
        minimize_beta(DiscreteJoint(np.outer([0.3, 0.7], [0.6, 0.4])), seed=1)


def test_minimize_beta_matches_svd_inverse(rng):
    for _ in range(15):
        joint = random_joint(rng)
        rho = max_correlation(joint)
        est = minimize_beta(joint, seed=int(rng.integers(1 << 30)))
        assert est.value == pytest.approx(1.0 / rho**2, abs=1e-6)


def test_minimize_beta_scores_belong_to_value():
    # the reported scores are the maximal-correlation witness and certify
    # the reported value exactly
    joint = DiscreteJoint([[0.3, 0.1], [0.1, 0.2], [0.05, 0.25]])
    est = minimize_beta(joint)
    np.testing.assert_array_equal(est.witness, max_correlation_beta(joint).witness)
    assert certify(joint, est) == est.value


def _weighted_table(n, c, seed, tiny_share=0.0):
    # Dirichlet(1) label rows and Gamma(2) example weights, a share of the
    # weights scaled down to 1e-12
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(c), size=n)
    weights = rng.gamma(2.0, size=n)
    weights[rng.choice(n, int(tiny_share * n), replace=False)] *= 1e-12
    return joint_from_conditional(ConditionalMatrix(rows, weights / weights.sum()))


@pytest.mark.parametrize("tiny_share", [0.0, 0.1])
def test_minimize_beta_converges_on_large_weighted_table(tiny_share):
    # the benchmark's 3000x4 table shape, and the same with a tenth of the
    # weights near 0
    joint = _weighted_table(3000, 4, seed=0, tiny_share=tiny_share)
    rho = max_correlation(joint)
    assert abs(minimize_beta(joint).value * rho**2 - 1.0) <= 1e-9


def test_minimize_beta_svd_scores_are_a_fixed_point(rng):
    # the witness is an eigenvector of the functional's stationarity map
    # h -> E[E[h|Y] | X = x], with eigenvalue rho^2 = 1/value: no step of
    # a descent on the ratio moves it
    for _ in range(30):
        n = int(rng.integers(3, 501))
        c = int(rng.integers(2, 6))
        joint = DiscreteJoint(rng.dirichlet(np.ones(n * c)).reshape(n, c))
        est = minimize_beta(joint)
        h = est.witness
        mapped = (joint.probs / joint.p_x[:, None]) @ ((joint.probs.T @ h) / joint.p_y)
        np.testing.assert_allclose(mapped, h / est.value, rtol=0, atol=1e-10 * np.abs(h).max())


# ---------------------------------------------------------------------------
# maximum correlation
# ---------------------------------------------------------------------------

def test_max_correlation_product_zero():
    assert max_correlation(DiscreteJoint(np.outer([0.3, 0.7], [0.6, 0.4]))) < 1e-9


def test_max_correlation_two_cluster():
    joint = two_cluster_joint(0.2)
    assert max_correlation(joint) == pytest.approx(0.6, abs=1e-12)
    assert max_correlation(joint) == pytest.approx(
        oracle_binary_max_correlation(joint), abs=1e-12
    )


def test_max_correlation_binary_oracle(rng):
    for _ in range(25):
        joint = DiscreteJoint(rng.dirichlet(np.ones(4)).reshape(2, 2))
        assert max_correlation(joint) == pytest.approx(
            oracle_binary_max_correlation(joint), abs=1e-10
        )


def test_max_correlation_deterministic_is_one():
    assert max_correlation(DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_max_correlation_beta_reports_rho():
    est = max_correlation_beta(two_cluster_joint(0.2))
    assert est.value == pytest.approx(TWO_CLUSTER_BETA, rel=1e-12)
    assert est.diagnostics["rho_m"] == pytest.approx(0.6, abs=1e-12)
    assert est.diagnostics["top_singular_value"] == pytest.approx(1.0, abs=1e-9)
    assert est.method is Method.MAX_CORRELATION_INVERSE


def test_max_correlation_beta_independent():
    with pytest.raises(IndependenceError):
        max_correlation_beta(DiscreteJoint(np.outer([0.3, 0.7], [0.6, 0.4])))


# ---------------------------------------------------------------------------
# information density
# ---------------------------------------------------------------------------

def test_info_density_deterministic_balanced_is_one():
    cond = ConditionalMatrix([[1, 0], [1, 0], [0, 1], [0, 1]])
    est = info_density_beta(cond)
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.method is Method.INFO_DENSITY
    assert tuple(np.flatnonzero(est.witness)) in ((0, 1), (2, 3))


def test_info_density_independent_rows():
    with pytest.raises(IndependenceError):
        info_density_beta(ConditionalMatrix([[0.4, 0.6]] * 4))


def test_info_density_matches_exhaustive_oracle(rng):
    tables = [
        random_cond(rng, int(rng.integers(2, 12)), int(rng.integers(2, 4)))
        for _ in range(25)
    ]
    tables += [random_cond(rng, 1000, 2), random_cond(rng, 2000, 3)]
    for cond in tables:
        expected = oracle_enumerate_prefixes(cond, oracle_subset_info_density)
        if not math.isfinite(expected):
            continue
        est = info_density_beta(cond)
        assert est.value == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# onset direction
# ---------------------------------------------------------------------------

def test_onset_correction_rows_sum_to_zero(rng):
    for _ in range(25):
        joint = random_joint(rng)
        scores = rng.standard_normal(joint.shape[0])
        delta = onset_correction(joint, scores)
        np.testing.assert_allclose(delta.sum(axis=1), 0.0, atol=1e-12)


def test_onset_correction_sign_pattern_two_cluster():
    delta = onset_correction(two_cluster_joint(0.2), [1.0, -1.0])
    assert delta[0, 0] > 0 and delta[1, 1] > 0
    assert delta[0, 1] < 0 and delta[1, 0] < 0


def test_onset_correction_permutation_equivariant(rng):
    for _ in range(10):
        joint = random_joint(rng)
        scores = rng.standard_normal(joint.shape[0])
        px = rng.permutation(joint.shape[0])
        py = rng.permutation(joint.shape[1])
        permuted = DiscreteJoint(joint.probs[px][:, py])
        expected = onset_correction(joint, scores)[px][:, py]
        np.testing.assert_allclose(
            onset_correction(permuted, scores[px]), expected, atol=1e-12
        )


def test_onset_correction_constant_scores_rejected():
    with pytest.raises(InvalidDirectionError):
        onset_correction(two_cluster_joint(0.2), [2.0, 2.0])


def test_nearly_constant_scores_rejected_by_one_rule():
    # onset_correction once returned entries of +-7.5e-18 here, by a
    # max-deviation rule, while beta_for_scores rejected the scores by
    # their p(x)-variance
    for fn in (onset_correction, beta_for_scores):
        with pytest.raises(InvalidDirectionError, match="constant"):
            fn(two_cluster_joint(0.2), [1.0, 1.0 + 1e-8])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_onset_correction_rejects_non_finite_scores(bad):
    # a NaN score once came back as a NaN matrix; beta_for_scores rejected it
    for fn in (onset_correction, beta_for_scores):
        with pytest.raises(ValidationError, match="non-finite"):
            fn(two_cluster_joint(0.2), [bad, 1.0])


# ---------------------------------------------------------------------------
# cross-estimator invariants
# ---------------------------------------------------------------------------

def test_ordering_chain(rng):
    # the subset family is a restriction of free score vectors, whose
    # infimum is the squared-correlation inverse
    for _ in range(20):
        joint = random_joint(rng)
        cond = conditional_from_joint(joint)
        rho = max_correlation(joint)
        if rho < 1e-6:
            continue
        searched = subset_search(cond).value
        minimized = minimize_beta(joint, seed=int(rng.integers(1 << 30))).value
        assert minimized == pytest.approx(1.0 / rho**2, abs=1e-6)
        assert searched >= minimized - 1e-6
        assert searched >= 1.0 / rho**2 - 1e-6


def test_permutation_invariance_of_all_estimators(rng):
    for _ in range(8):
        joint = random_joint(rng, max_x=6, max_y=4)
        cond = conditional_from_joint(joint)
        px = rng.permutation(joint.shape[0])
        py = rng.permutation(joint.shape[1])
        permuted_joint = DiscreteJoint(joint.probs[px][:, py])
        permuted_cond = conditional_from_joint(permuted_joint)

        assert subset_search(permuted_cond).value == pytest.approx(
            subset_search(cond).value, rel=1e-10
        )
        assert max_correlation(permuted_joint) == pytest.approx(
            max_correlation(joint), abs=1e-10
        )
        assert info_density_beta(permuted_cond).value == pytest.approx(
            info_density_beta(cond).value, rel=1e-10
        )
        assert minimize_beta(permuted_joint).value == pytest.approx(
            minimize_beta(joint).value, rel=1e-10
        )


def test_class_conditional_permutation_invariance(rng):
    noise = np.array([[0.7, 0.2, 0.1], [0.15, 0.8, 0.05], [0.1, 0.05, 0.85]])
    prior = np.array([0.5, 0.3, 0.2])
    base = class_conditional_beta(noise, prior).value
    for _ in range(5):
        p_true = rng.permutation(3)
        p_obs = rng.permutation(3)
        value = class_conditional_beta(noise[p_true][:, p_obs], prior[p_true]).value
        assert value == pytest.approx(base, rel=1e-12)


def test_estimates_exceed_one_on_dependent_noisy_joints(rng):
    for _ in range(15):
        # bounded away from determinism so every threshold is strictly > 1
        rows = rng.dirichlet(np.ones(3) * 2.0, size=6) * 0.8 + 0.2 / 3.0
        cond = ConditionalMatrix(rows / rows.sum(axis=1, keepdims=True))
        joint = joint_from_conditional(cond)
        rho = max_correlation(joint)
        if rho < 1e-3:
            continue
        assert subset_search(cond).value > 1.0
        assert 1.0 / rho**2 > 1.0
        assert minimize_beta(joint, seed=3).value > 1.0


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_beta_estimate_rejects_non_finite_value(bad):
    with pytest.raises(ValidationError, match="finite"):
        BetaEstimate(value=bad, method=Method.FUNCTIONAL, witness=[0.0, 1.0])


def test_beta_estimate_writes_a_0_1_witness_as_its_members():
    est = subset_search(two_cluster_cond(0.2))
    assert est.to_dict()["witness"] == {"members": np.flatnonzero(est.witness).tolist()}
    scores = max_correlation_beta(two_cluster_joint(0.2))
    assert scores.to_dict()["witness"] == scores.witness.tolist()


def _assert_routes_certified(cond, noise=None, prior=None):
    """certify reproduces the value of every route on the table it ran on."""
    joint = joint_from_conditional(cond)
    checks = [(joint, est) for est in (
        subset_search(cond),
        info_density_beta(cond),
        minimize_beta(joint),
        max_correlation_beta(joint),
    )]
    if noise is not None:
        compact = joint_from_conditional(ConditionalMatrix(noise, prior))
        checks.append((compact, class_conditional_beta(noise, prior)))
    for table, est in checks:
        assert certify(table, est) == pytest.approx(est.value, rel=1e-12), est.method


@pytest.mark.parametrize("name", ["noise-0.1", "noise-0.2", "noise-0.3", "noise-0.4",
                                  "overlap-1.2", "overlap-2.0", "overlap-3.2"])
def test_certify_reproduces_every_route_on_binned_presets(name):
    spec = get_preset(name)
    noise = spec.noise
    _assert_routes_certified(conditional_from_joint(discretize(spec)), noise,
                             None if noise is None else spec.class_priors())


@pytest.mark.parametrize("rate", [0.2, 0.4])
def test_certify_reproduces_every_route_on_sampled_posteriors(rate):
    spec = noise_preset(rate)
    _assert_routes_certified(analytic_posterior(spec, sample(spec, 6000, seed=0).points),
                             spec.noise, spec.class_priors())


def test_certify_reproduces_every_route_on_random_tables(rng):
    for _ in range(60):
        n, c = int(rng.integers(2, 200)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(c) * rng.choice([0.3, 1.0, 3.0]), size=n)
        weights = rng.gamma(2.0, size=n)
        _assert_routes_certified(ConditionalMatrix(rows, weights / weights.sum()))


def test_certify_rejects_a_witness_that_does_not_fit():
    joint = two_cluster_joint(0.2)
    est = info_density_beta(conditional_from_joint(joint))
    for witness in ([1.0], [-1.0, 1.0], [0.0, 0.0], [math.nan, 1.0]):
        bad = BetaEstimate(est.value, est.method, witness)
        with pytest.raises(ValidationError):
            certify(joint, bad)
    with pytest.raises(InvalidDirectionError):
        certify(joint, BetaEstimate(est.value, est.method, [1.0, 1.0]))


def _extreme_cond(n, c, seed):
    """Dirichlet(1) label rows, half of them replaced by one-hot rows moved
    at most 1e-12 off 0/1, and Gamma(2) example weights of which a fifth are
    scaled by 1e-12."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(c), size=n)
    sharp = rng.random(n) < 0.5
    one_hot = np.eye(c)[rng.integers(c, size=int(sharp.sum()))]
    rows[sharp] = (1.0 - 1e-12) * one_hot + 1e-12 * rows[sharp]
    weights = rng.gamma(2.0, size=n)
    weights[rng.choice(n, n // 5, replace=False)] *= 1e-12
    return ConditionalMatrix(rows, weights / weights.sum())


@pytest.mark.parametrize("n, c", [
    (2, 2), (3, 10), (40, 3), (700, 10), (5000, 2), (20_000, 6), (100_000, 10),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_certify_reproduces_subset_witnesses_on_extreme_tables(n, c, seed):
    # the subset routes' indicators and the maximal-correlation scores of the
    # maxcorr and functional routes
    cond = _extreme_cond(n, c, seed)
    joint = joint_from_conditional(cond)
    subset, maxcorr, functional = (
        subset_search(cond), max_correlation_beta(joint), minimize_beta(joint))
    for est in (subset, info_density_beta(cond), maxcorr, functional):
        assert certify(joint, est) == pytest.approx(est.value, rel=1e-12), est.method
    assert functional.value == pytest.approx(maxcorr.value, rel=1e-11)
    assert subset.value >= functional.value * (1.0 - 1e-9)


@pytest.mark.parametrize("n, c", [
    (2, 2), (3, 10), (40, 3), (700, 10), (5000, 2), (20_000, 6), (100_000, 10),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_routes_are_permutation_invariant_on_extreme_tables(n, c, seed):
    cond = _extreme_cond(n, c, seed)
    order = np.random.default_rng(seed + 100).permutation(n)
    permuted = ConditionalMatrix(cond.rows[order], cond.weights[order])
    for route in (subset_search, info_density_beta):
        assert route(permuted).value == pytest.approx(route(cond).value, rel=1e-12)
    joint, permuted_joint = joint_from_conditional(cond), joint_from_conditional(permuted)
    for route in (max_correlation_beta, minimize_beta):
        assert route(permuted_joint).value == pytest.approx(route(joint).value, rel=1e-12)


@pytest.mark.parametrize("n, c", [
    (2, 2), (3, 10), (40, 3), (700, 10), (5000, 2), (20_000, 6), (100_000, 10),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_score_witnesses_are_affine_invariant_on_extreme_tables(n, c, seed):
    # a map as (1e-6, 1e6) is left out: _centered_scores rejects the mapped
    # scores as constant at DENOM_TOL times the square of their magnitude
    cond = _extreme_cond(n, c, seed)
    joint = joint_from_conditional(cond)
    for est in (subset_search(cond), max_correlation_beta(joint), minimize_beta(joint)):
        base = beta_for_scores(joint, est.witness)
        for a, b in ((3.0, 0.0), (-2.5, 7.0), (1e-3, 5.0), (1e3, -3.0), (-1.0, 0.0)):
            mapped = beta_for_scores(joint, a * est.witness + b)
            assert mapped == pytest.approx(base, rel=1e-12), (est.method, a, b)


@pytest.mark.parametrize("c", [2, 10])
def test_routes_allocate_linear_memory_on_extreme_tables(c):
    # each route's peak stays within a fixed number of N x C float64 tables
    n = 100_000
    cond = _extreme_cond(n, c, 0)
    joint = joint_from_conditional(cond)
    for route, table in ((subset_search, cond), (info_density_beta, cond),
                         (max_correlation_beta, joint), (minimize_beta, joint)):
        tracemalloc.start()
        try:
            route(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * c * 8, (route.__name__, peak / (n * c * 8))
