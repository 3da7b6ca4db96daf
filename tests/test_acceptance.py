"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success).  Expected table values are the published
class-conditional thresholds; everything else is checked against closed
forms, independent oracles of the test suite, or exact-tolerance invariants.
"""

import json
import math
import time

import numpy as np
import pytest

from ibonset import (
    ConditionalMatrix,
    DiscreteJoint,
    analytic_posterior,
    beta_for_scores,
    class_conditional_beta,
    conditional_from_joint,
    discretize,
    info_density_beta,
    joint_from_conditional,
    max_correlation,
    minimize_beta,
    noise_preset,
    onset_correction,
    overlap_preset,
    sample,
    solve,
    subset_search,
    sweep,
)
from ibonset.classifier import TrainConfig, fit, loss_and_gradients, predict_proba
from ibonset.cli import main
from conftest import indicator, oracle_subset_beta, random_cond, random_joint

TWO_CLUSTER_BETA = 1.0 / 0.36

# published thresholds for symmetric label flips at rate rho (two decimals)
PUBLISHED_CLASS_CONDITIONAL = {
    0.02: 1.09, 0.04: 1.18, 0.06: 1.29, 0.08: 1.42, 0.10: 1.56, 0.12: 1.73,
    0.14: 1.93, 0.16: 2.16, 0.18: 2.44, 0.20: 2.78, 0.22: 3.19, 0.24: 3.70,
    0.26: 4.34, 0.28: 5.17, 0.30: 6.25, 0.32: 7.72, 0.34: 9.77, 0.36: 12.76,
    0.38: 17.36, 0.40: 25.00, 0.42: 39.06, 0.44: 69.44, 0.46: 156.25,
    0.48: 625.00,
}


def _check(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_table_reproduction(tmp_path):
    out = tmp_path / "table.json"
    start = time.perf_counter()
    code = main(["table", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out) as fh:
        rows = json.load(fh)["rows"]
    assert len(rows) == 24
    worst = 0.0
    for row in rows:
        expected = PUBLISHED_CLASS_CONDITIONAL[round(row["noise_rate"], 2)]
        got = row["class_conditional"]
        abs_err = abs(got - expected)
        rel_err = abs_err / expected
        worst = max(worst, min(abs_err, rel_err * 2.0))
        assert abs_err <= 0.01 or rel_err <= 0.005, (row["noise_rate"], got, expected)
    _check(
        "criterion 1 (table reproduction, 24 noise rates)",
        elapsed < 1.0,
        f"all rows within +-0.01 / 0.5%, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_estimator_agreement():
    for rho in (0.1, 0.2, 0.3, 0.4):
        spec = noise_preset(rho)
        start = time.perf_counter()
        samples = sample(spec, 2000, seed=17)
        posterior = analytic_posterior(spec, samples.points)
        # exact example weights: the class priors are known, so each point
        # carries prior(class)/count(class) instead of the noisy 1/N
        priors = spec.class_priors()
        counts = np.bincount(samples.true_labels, minlength=len(priors))
        weights = priors[samples.true_labels] / counts[samples.true_labels]
        cond = ConditionalMatrix(posterior.rows, weights)
        searched = subset_search(cond).value
        closed = class_conditional_beta(spec.noise, priors).value
        elapsed = time.perf_counter() - start
        rel = abs(searched - closed) / closed
        _check(
            f"criterion 2 (search = closed form, rho={rho})",
            rel <= 1e-3 and elapsed < 1.0,
            f"search {searched:.6f} vs closed {closed:.6f}, "
            f"rel {rel:.2e} <= 1e-3, runtime {elapsed:.2f}s < 1s",
        )


def test_criterion_3_functional_equals_svd_inverse():
    # 1/rho^2 from the eigenvalues of Q^T Q, Q[x, y] = p(x, y)/sqrt(p(x) p(y)),
    # computed here without the package: its second largest is rho^2
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        nx = int(rng.integers(2, 21))
        ny = int(rng.integers(2, 11))
        probs = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        q = probs / np.sqrt(np.outer(probs.sum(axis=1), probs.sum(axis=0)))
        rho_sq = np.linalg.eigvalsh(q.T @ q)[-2]
        est = minimize_beta(DiscreteJoint(probs))
        worst = max(worst, abs(est.value - 1.0 / rho_sq))
    elapsed = time.perf_counter() - start
    _check(
        "criterion 3 (functional = 1/rho^2 from eigvalsh, 50 joints up to 20x10)",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst |diff| {worst:.2e} <= 1e-6, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_4_empirical_phase_transition():
    start = time.perf_counter()
    joint = discretize(noise_preset(0.2))
    theoretical = subset_search(conditional_from_joint(joint)).value
    result = sweep(joint, np.geomspace(1.5, 4.5, 25), seed=0)
    elapsed = time.perf_counter() - start
    detected = result.detected_beta0
    ok = (
        detected is not None
        and 2.5 <= detected <= 3.1
        and abs(theoretical - TWO_CLUSTER_BETA) / TWO_CLUSTER_BETA < 0.01
        and 1.0 <= detected <= theoretical * 1.15
        and elapsed < 300.0
    )
    _check(
        "criterion 4 (tabular onset, flip rate 0.2, 25-point grid)",
        ok,
        f"detected {detected} in [2.5, 3.1] and within 15% above theory "
        f"{theoretical:.4f} ~ 2.7778, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_5_deterministic_threshold():
    start = time.perf_counter()
    joint = discretize(noise_preset(0.0))
    bound = subset_search(conditional_from_joint(joint)).value
    result = sweep(joint, np.geomspace(0.82, 1.45, 25), seed=0)
    elapsed = time.perf_counter() - start
    detected = result.detected_beta0
    ok = (
        detected is not None
        and 1.0 <= detected <= 1.1
        and detected <= bound * 1.15
        and elapsed < 120.0
    )
    _check(
        "criterion 5 (deterministic onset just above 1)",
        ok,
        f"detected {detected} in [1.0, 1.1], bound {bound:.4f}, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_6_overlap_monotonicity():
    start = time.perf_counter()
    values = []
    for distance in (8.0, 3.2, 1.6, 0.8):
        joint = discretize(overlap_preset(distance))
        values.append(subset_search(conditional_from_joint(joint)).value)
    elapsed = time.perf_counter() - start
    increasing = all(a < b for a, b in zip(values, values[1:]))
    _check(
        "criterion 6 (threshold grows as components overlap)",
        increasing and elapsed < 10.0,
        f"thresholds {['%.4f' % v for v in values]} strictly increasing, "
        f"runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_7_property_suites():
    rng = np.random.default_rng(7)

    # affine invariance of the score ratio, 1e-10
    for _ in range(20):
        joint = random_joint(rng)
        scores = rng.standard_normal(joint.shape[0])
        a = rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-10.0, 10.0)
        base = beta_for_scores(joint, scores)
        assert beta_for_scores(joint, a * scores + b) == pytest.approx(base, rel=1e-10)
    _check("criterion 7a (affine invariance of the score ratio)", True, "rel 1e-10")

    # indicator consistency between the score ratio and the subset ratio
    # of the test oracle, 1e-10
    for _ in range(20):
        joint = random_joint(rng)
        cond = conditional_from_joint(joint)
        size = int(rng.integers(1, joint.shape[0]))
        members = rng.choice(joint.shape[0], size=size, replace=False)
        assert beta_for_scores(joint, indicator(joint.shape[0], members)) == pytest.approx(
            oracle_subset_beta(cond.rows, cond.weights, members), rel=1e-10
        )
    _check("criterion 7b (indicator consistency)", True, "rel 1e-10")

    # permutation invariance of every estimator, 1e-10
    for _ in range(6):
        joint = random_joint(rng, max_x=6, max_y=4)
        cond = conditional_from_joint(joint)
        px = rng.permutation(joint.shape[0])
        py = rng.permutation(joint.shape[1])
        pj = DiscreteJoint(joint.probs[px][:, py])
        pc = conditional_from_joint(pj)
        assert subset_search(pc).value == pytest.approx(
            subset_search(cond).value, rel=1e-10
        )
        assert max_correlation(pj) == pytest.approx(max_correlation(joint), abs=1e-10)
        assert info_density_beta(pc).value == pytest.approx(
            info_density_beta(cond).value, rel=1e-10
        )
        assert minimize_beta(pj).value == pytest.approx(minimize_beta(joint).value, rel=1e-10)
    _check("criterion 7c (permutation invariance of all estimators)", True, "rel 1e-10")

    # every theoretical estimate exceeds 1 on dependent noisy instances
    for _ in range(10):
        rows = rng.dirichlet(np.ones(3) * 2.0, size=6) * 0.8 + 0.2 / 3.0
        cond = ConditionalMatrix(rows / rows.sum(axis=1, keepdims=True))
        joint = joint_from_conditional(cond)
        rho = max_correlation(joint)
        if rho < 1e-3:
            continue
        assert subset_search(cond).value > 1.0
        assert minimize_beta(joint, seed=1).value > 1.0
        assert 1.0 / rho**2 > 1.0
    _check("criterion 7d (thresholds exceed 1 on dependent data)", True, "strict")

    # the exactly uniform encoder is a fixed point at machine precision
    joint = DiscreteJoint([[0.4, 0.1], [0.1, 0.4]])
    for beta in (0.7, 1.0, 3.0, 9.0):
        uniform = np.full((2, 4), 0.25)
        enc = solve(joint, beta, 4, init_probs=uniform, restarts=0, max_iters=5)
        assert enc.iterations == 1 and enc.converged
        np.testing.assert_allclose(enc.probs, uniform, atol=1e-14)
    _check("criterion 7e (trivial-encoder stationarity)", True, "machine precision")

    # processing inequality on every sweep point
    result = sweep(joint, np.geomspace(1.5, 4.5, 9), seed=2, restarts=2)
    for p in result.points:
        assert -1e-12 <= p.i_yz <= p.i_xz + 1e-9
        assert p.objective <= 1e-9
    _check("criterion 7f (processing inequality along the sweep)", True, "1e-9")

    # onset-direction rows sum to zero, 1e-12
    for _ in range(20):
        j = random_joint(rng)
        delta = onset_correction(j, rng.standard_normal(j.shape[0]))
        assert np.abs(delta.sum(axis=1)).max() <= 1e-12
    _check("criterion 7g (onset correction rows sum to zero)", True, "1e-12")

    # search equals exhaustive prefix enumeration for N <= 12
    def enumerate_prefixes(cond):
        best = math.inf
        for pivot in range(cond.num_classes):
            order = np.argsort(-cond.rows[:, pivot], kind="stable")
            for k in range(1, cond.num_examples):
                w = cond.weights[order[:k]]
                mass = w.sum()
                q = (w[:, None] * cond.rows[order[:k]]).sum(axis=0) / mass
                den = (q * q / cond.p_y).sum() - 1.0
                if den > 1e-12:
                    best = min(best, (1.0 / mass - 1.0) / den)
        return best

    checked = 0
    for _ in range(25):
        cond = random_cond(rng, int(rng.integers(2, 13)), int(rng.integers(2, 4)))
        expected = enumerate_prefixes(cond)
        if math.isfinite(expected):
            assert subset_search(cond).value == pytest.approx(expected, rel=1e-12)
            checked += 1
    assert checked >= 15
    _check("criterion 7h (exhaustive prefix oracle, N <= 12)", True,
           f"{checked} instances, exact")

    # classifier gradients match central finite differences at 1e-5
    x = rng.standard_normal((6, 2))
    labels = rng.integers(0, 3, size=6)
    weights = [rng.uniform(-0.7, 0.7, size=(2, 4)), rng.uniform(-0.5, 0.5, size=(4, 3))]
    biases = [rng.standard_normal(4) * 0.1, np.zeros(3)]
    _, gw, gb = loss_and_gradients(weights, biases, x, labels)
    eps = 1e-6
    for arr, grad in [*zip(weights, gw), *zip(biases, gb)]:
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_and_gradients(weights, biases, x, labels)[0]
            flat[i] = keep - eps
            down = loss_and_gradients(weights, biases, x, labels)[0]
            flat[i] = keep
            fd = (up - down) / (2.0 * eps)
            assert abs(grad.ravel()[i] - fd) / max(abs(fd), 1.0) < 1e-5
    _check("criterion 7i (classifier gradient check)", True, "rel 1e-5")


def test_criterion_8_learned_posterior_pipeline():
    start = time.perf_counter()
    samples = sample(noise_preset(0.2), 10_000, seed=3)
    model = fit(samples, TrainConfig(seed=0))
    learned = predict_proba(model, samples.points)
    value = subset_search(learned).value
    elapsed = time.perf_counter() - start
    rel = abs(value - TWO_CLUSTER_BETA) / TWO_CLUSTER_BETA
    _check(
        "criterion 8 (learned-posterior pipeline within 15%)",
        rel <= 0.15 and elapsed < 120.0,
        f"estimate {value:.4f} vs 2.7778, rel {rel:.3f} <= 0.15, "
        f"runtime {elapsed:.1f}s < 120s",
    )
