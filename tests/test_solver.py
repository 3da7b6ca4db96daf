import concurrent.futures
import csv
import math
import os

import numpy as np
import pytest
from scipy.special import rel_entr

from ibonset import (
    DiscreteJoint,
    Encoder,
    ValidationError,
    detect_onset,
    discretize,
    entropy,
    info_plane,
    noise_preset,
    save_sweep_csv,
    solve,
    sweep,
)
from conftest import random_joint, two_cluster_joint

DIAG = DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])
PRODUCT = DiscreteJoint(np.outer([0.4, 0.6], [0.3, 0.7]))


def plain_reference(joint, beta, pzx, tol=1e-14, max_iters=100_000):
    """Unaccelerated self-consistent iteration of one encoder."""
    p_x = joint.probs.sum(axis=1)
    p_yx = joint.probs / p_x[:, None]
    for _ in range(max_iters):
        p_z = p_x @ pzx
        p_y_given_z = (pzx.T @ joint.probs) / p_z[:, None]
        div = rel_entr(p_yx[:, None, :], p_y_given_z[None, :, :]).sum(axis=2)
        new = p_z * np.exp(-beta * div)
        new /= new.sum(axis=1, keepdims=True)
        step = np.abs(new - pzx).max()
        pzx = new
        if step < tol:
            return pzx
    raise AssertionError("plain reference did not converge")


def restart_inits(joint, seed, restarts, z_card):
    """The Dirichlet initializations solve() draws for ``seed``."""
    return [
        np.random.default_rng(child).dirichlet(np.full(z_card, 10.0), size=joint.shape[0])
        for child in np.random.SeedSequence(seed).spawn(restarts)
    ]


def test_uniform_encoder_is_exact_fixed_point():
    # the trivial representation is stationary for every beta: starting the
    # iteration exactly there must produce a zero update
    for beta in (0.5, 1.0, 2.0, 7.3):
        joint = two_cluster_joint(0.2)
        uniform = np.full((2, 4), 0.25)
        enc = solve(joint, beta, 4, init_probs=uniform, restarts=0, max_iters=10)
        assert enc.converged and enc.iterations == 1
        np.testing.assert_allclose(enc.probs, uniform, atol=1e-14)


def test_low_beta_collapses_to_trivial():
    enc = solve(two_cluster_joint(0.2), 0.9, 4, seed=1)
    i_xz, i_yz = info_plane(enc, two_cluster_joint(0.2))
    assert i_xz < 1e-8 and i_yz < 1e-8


def test_deterministic_joint_learns_above_one():
    # exact optimum is the class-identity encoder; the solver must match its
    # objective and extract the full label entropy
    enc = solve(DIAG, 1.5, 2, seed=1)
    i_xz, i_yz = info_plane(enc, DIAG)
    assert i_yz == pytest.approx(entropy([0.5, 0.5]), abs=1e-6)
    identity_objective = (1.0 - 1.5) * math.log(2.0)
    assert enc.objective == pytest.approx(identity_objective, abs=1e-6)


def test_two_cluster_below_onset_stays_trivial():
    joint = two_cluster_joint(0.2)
    enc = solve(joint, 2.0, 4, seed=1)
    i_xz, _ = info_plane(enc, joint)
    assert i_xz < 1e-4


def test_objective_never_increases():
    for beta in (0.9, 2.0, 3.0, 4.0):
        enc = solve(two_cluster_joint(0.2), beta, 4, seed=2)
        assert enc.diagnostics["max_objective_increase"] <= 1e-9


def test_converged_objective_never_above_trivial(rng):
    for _ in range(10):
        joint = random_joint(rng, max_x=5, max_y=4)
        beta = float(rng.uniform(0.5, 6.0))
        enc = solve(joint, beta, seed=3)
        if enc.converged:
            assert enc.objective <= 1e-9


def test_solve_validation():
    with pytest.raises(ValidationError):
        solve(DIAG, 2.0, 1)
    with pytest.raises(ValidationError):
        solve(DIAG, 0.0, 2)
    with pytest.raises(ValidationError):
        solve(DIAG, 2.0, 2, restarts=0)  # no initialization at all


def test_solve_non_convergence_flag():
    enc = solve(two_cluster_joint(0.2), 3.0, 4, seed=1, max_iters=1)
    assert not enc.converged
    assert enc.iterations == 1


def test_info_plane_uniform_encoder_origin():
    joint = two_cluster_joint(0.2)
    i_xz, i_yz = info_plane(np.full((2, 3), 1.0 / 3.0), joint)
    assert abs(i_xz) < 1e-12 and abs(i_yz) < 1e-12


def test_info_plane_identity_on_diagonal():
    i_xz, i_yz = info_plane(np.eye(2), DIAG)
    assert i_xz == pytest.approx(math.log(2.0), abs=1e-12)
    assert i_yz == pytest.approx(math.log(2.0), abs=1e-12)


def test_info_plane_processing_inequality(rng):
    for _ in range(20):
        joint = random_joint(rng)
        pzx = rng.dirichlet(np.ones(3), size=joint.shape[0])
        i_xz, i_yz = info_plane(pzx, joint)
        assert -1e-12 <= i_yz <= i_xz + 1e-12


def test_sweep_two_cluster_detects_onset():
    joint = two_cluster_joint(0.2)
    result = sweep(joint, np.geomspace(1.5, 4.5, 25), seed=0)
    assert result.detected_beta0 is not None
    assert 2.5 <= result.detected_beta0 <= 3.1
    for p in result.points:
        assert p.i_yz <= p.i_xz + 1e-9
        assert p.objective <= 1e-9
    assert result.protocol["baseline_points"] == 5


def test_sweep_deterministic_onset_just_above_one():
    result = sweep(DIAG, np.geomspace(0.8, 1.4, 12), seed=0)
    assert result.detected_beta0 is not None
    assert 1.0 <= result.detected_beta0 <= 1.1


def test_sweep_product_joint_finds_nothing():
    result = sweep(PRODUCT, np.geomspace(1.5, 4.5, 9), seed=0)
    assert result.detected_beta0 is None


def test_sweep_grid_validation():
    with pytest.raises(ValidationError):
        sweep(DIAG, [1.0, 2.0, 3.0], seed=0)
    with pytest.raises(ValidationError):
        sweep(DIAG, np.array([1.0, 2.0, 1.5, 3.0, 4.0, 5.0, 6.0]), seed=0)


def test_learnability_monotone_in_beta():
    # once the objective beats the trivial solution, larger beta keeps beating it
    joint = two_cluster_joint(0.2)
    delta = 1e-6
    learnable_at = None
    for beta in (3.0, 3.5, 4.0, 5.0):
        enc = solve(joint, beta, 4, seed=4)
        if learnable_at is not None:
            assert enc.objective < -delta, f"lost learnability at beta={beta}"
        elif enc.objective < -delta:
            learnable_at = beta
    assert learnable_at == 3.0


def test_sweep_label_permutation_invariance():
    joint = two_cluster_joint(0.2)
    flipped = DiscreteJoint(joint.probs[:, ::-1])
    grid = np.geomspace(1.5, 4.5, 9)
    a = sweep(joint, grid, seed=5)
    b = sweep(flipped, grid, seed=5)
    for pa, pb in zip(a.points, b.points):
        assert pb.i_xz == pytest.approx(pa.i_xz, abs=1e-9)
        assert pb.i_yz == pytest.approx(pa.i_yz, abs=1e-9)
    assert a.detected_beta0 == pytest.approx(b.detected_beta0, abs=1e-12)


def test_sweep_x_permutation_same_detection():
    joint = two_cluster_joint(0.2)
    swapped = DiscreteJoint(joint.probs[::-1])
    grid = np.geomspace(1.5, 4.5, 9)
    a = sweep(joint, grid, seed=6)
    b = sweep(swapped, grid, seed=6)
    assert a.detected_beta0 == pytest.approx(b.detected_beta0, abs=1e-12)
    for pa, pb in zip(a.points, b.points):
        assert pb.i_xz == pytest.approx(pa.i_xz, abs=1e-6)


def test_sweep_parallel_matches_serial():
    joint = two_cluster_joint(0.2)
    grid = np.geomspace(1.5, 4.5, 8)
    serial = sweep(joint, grid, seed=7, restarts=2)
    parallel = sweep(joint, grid, seed=7, restarts=2, workers=2)
    for ps, pp in zip(serial.points, parallel.points):
        assert ps == pp


@pytest.mark.parametrize("workers, cpus, expected", [
    (1000, 64, [8]),      # no more processes than grid points
    (1000, 3, [3]),       # nor than CPUs
    (1000, None, []),     # an unknown CPU count runs serially
    (2, 64, [2]),
    (1, 64, []),
    (0, 64, []),
])
def test_sweep_pool_is_bounded(monkeypatch, workers, cpus, expected):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    joint = two_cluster_joint(0.2)
    grid = np.geomspace(1.5, 4.5, 8)
    result = sweep(joint, grid, seed=7, restarts=1, workers=workers)
    assert sizes == expected
    assert result.points == sweep(joint, grid, seed=7, restarts=1).points


def test_sweep_rejects_negative_workers():
    with pytest.raises(ValidationError, match="workers"):
        sweep(two_cluster_joint(0.2), np.geomspace(1.5, 4.5, 8), workers=-1)


def test_sweep_warm_start_smoke():
    joint = two_cluster_joint(0.2)
    result = sweep(joint, np.geomspace(1.5, 4.5, 9), seed=8, warm_start=True)
    assert result.detected_beta0 is not None
    assert 2.4 <= result.detected_beta0 <= 3.2
    assert result.protocol["warm_start"]


def test_detect_onset_floor_guards_zero_sigma():
    betas = np.linspace(1.0, 2.0, 11)
    flat = np.zeros(11)
    detected, stats = detect_onset(betas, flat)
    assert detected is None
    assert stats["threshold"] == pytest.approx(1e-6)
    stepped = np.concatenate([np.zeros(8), np.full(3, 0.5)])
    detected, _ = detect_onset(betas, stepped)
    assert detected == pytest.approx((betas[8] + betas[7]) / 2.0)


def test_save_sweep_csv(tmp_path):
    result = sweep(two_cluster_joint(0.2), np.geomspace(1.5, 4.5, 8), seed=9, restarts=2)
    path = tmp_path / "sweep.csv"
    save_sweep_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "beta,i_xz_nats,i_yz_nats,objective"
    assert len(lines) == 9
    # byte for byte the csv loop over the points
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "i_xz_nats", "i_yz_nats", "objective"])
        for p in result.points:
            writer.writerow(
                [format(v, ".17g") for v in (p.beta, p.i_xz, p.i_yz, p.objective)]
            )
    assert path.read_bytes() == reference.read_bytes()


def test_encoder_validation():
    with pytest.raises(ValidationError):
        Encoder(np.array([[0.5, 0.4]]), 2.0, True, 1, 0.0)


@pytest.mark.parametrize(
    "rate, beta",
    [
        (0.2, np.geomspace(1.5, 4.5, 25)[14]),  # next to beta0 = 2.78
        (0.0, np.geomspace(0.82, 1.45, 25)[8]),
        (0.0, np.geomspace(0.82, 1.45, 25)[9]),
    ],
)
def test_accelerated_kernel_matches_plain_reference(rate, beta):
    # grid points next to beta0 in the criterion-4/5 sweeps: the accelerated
    # fixed point must be the one plain iteration reaches at tol=1e-14
    joint = discretize(noise_preset(rate))
    enc = solve(joint, beta, seed=0)
    init = restart_inits(joint, 0, 5, enc.probs.shape[1])[enc.diagnostics["restart"]]
    ref = plain_reference(joint, beta, init)
    ref_xz, ref_yz = info_plane(ref, joint)
    i_xz, _ = info_plane(enc, joint)
    assert enc.converged
    assert enc.objective == pytest.approx(ref_xz - beta * ref_yz, abs=1e-8)
    assert i_xz == pytest.approx(ref_xz, abs=1e-8)
    pair = (enc.diagnostics["i_xz"], enc.diagnostics["i_yz"])
    assert pair == pytest.approx(info_plane(enc, joint), abs=1e-12)


def test_stacked_restarts_equal_solo_runs():
    # restarts retire from the stack at different iterations; retiring one
    # must not perturb the others
    joint = discretize(noise_preset(0.2))
    for beta in (2.85, 3.5):
        enc = solve(joint, beta, seed=0)
        solos = [
            solve(joint, beta, init_probs=init, restarts=0)
            for init in restart_inits(joint, 0, 5, enc.probs.shape[1])
        ]
        assert len({s.iterations for s in solos}) > 1
        winner = solos[enc.diagnostics["restart"]]
        objectives = [s.objective for s in solos]
        cutoff = min(objectives) + 1e-12 * max(1.0, abs(min(objectives)))
        tied = [k for k, obj in enumerate(objectives) if obj <= cutoff]
        assert enc.diagnostics["restart"] == tied[0]
        assert enc.diagnostics["restarts_run"] == 5
        np.testing.assert_array_equal(enc.probs, winner.probs)
        assert enc.iterations == winner.iterations
        assert enc.objective == winner.objective


def test_restart_choice_stable_under_last_bit_changes():
    # restarts reaching the same encoder differ in the objective only by
    # roundoff, which must not decide the winner
    joint = discretize(noise_preset(0.2))
    scaled = joint.probs * (1.0 + 1e-15)
    nudged = DiscreteJoint(scaled / scaled.sum())
    assert not np.array_equal(nudged.probs, joint.probs)
    betas = np.geomspace(1.5, 4.5, 9)
    base = sweep(joint, betas, seed=0)
    again = sweep(nudged, betas, seed=0)
    assert [p.restart for p in again.points] == [p.restart for p in base.points]


def test_sweep_monotone_on_every_point():
    joint = discretize(noise_preset(0.2))
    result = sweep(joint, np.geomspace(1.5, 4.5, 25), seed=0)
    for p in result.points:
        assert p.max_objective_increase <= 1e-9
        assert 1 <= p.iterations <= result.protocol["max_iters"]
        assert 0 <= p.restart < result.protocol["restarts"]
    assert result.protocol["non_monotone_betas"] == []
    row = result.to_dict()["points"][0]
    assert {"iterations", "restart", "max_objective_increase"} <= set(row)



def split_first_row(joint):
    """``joint`` with its first row split in two halves: the two rows have
    bitwise equal p(y|x), so they describe the same problem."""
    probs = joint.probs
    split = DiscreteJoint(np.vstack([probs[:1] / 2.0, probs[:1] / 2.0, probs[1:]]))
    p_yx = split.probs / split.probs.sum(axis=1, keepdims=True)
    assert np.array_equal(p_yx[0], p_yx[1])
    return split


@pytest.mark.parametrize("beta", [2.0, 3.5])  # below and above beta0 = 2.78
def test_equal_rows_are_solved_as_one(beta):
    joint = two_cluster_joint(0.2)
    split = split_first_row(joint)
    whole = solve(joint, beta, 2, seed=1)
    enc = solve(split, beta, 2, seed=1)
    assert enc.diagnostics["distinct_rows"] == 2
    assert enc.probs.shape == (3, 2)
    np.testing.assert_array_equal(enc.probs[0], enc.probs[1])
    assert enc.objective == pytest.approx(whole.objective, abs=1e-9)
    for key in ("i_xz", "i_yz"):
        assert enc.diagnostics[key] == pytest.approx(whole.diagnostics[key], abs=1e-9)
    pair = (enc.diagnostics["i_xz"], enc.diagnostics["i_yz"])
    assert pair == pytest.approx(info_plane(enc, split), abs=1e-12)


def test_sweep_onset_unchanged_by_equal_rows():
    joint = two_cluster_joint(0.2)
    grid = np.geomspace(1.5, 4.5, 13)
    whole = sweep(joint, grid, 2, seed=0)
    split = sweep(split_first_row(joint), grid, 2, seed=0)
    assert whole.detected_beta0 is not None
    assert split.detected_beta0 == whole.detected_beta0
    assert (whole.protocol["distinct_rows"], split.protocol["distinct_rows"]) == (2, 2)


def test_rows_one_ulp_apart_are_not_merged():
    split = split_first_row(two_cluster_joint(0.2))
    probs = split.probs.copy()
    probs[1, 0] = np.nextafter(probs[1, 0], 1.0)
    nudged = DiscreteJoint(probs)
    p_yx = nudged.probs / nudged.probs.sum(axis=1, keepdims=True)
    assert not np.array_equal(p_yx[0], p_yx[1])
    assert np.abs(p_yx[0] - p_yx[1]).max() < 1e-15
    enc = solve(nudged, 3.5, 2, seed=1)
    assert enc.diagnostics["distinct_rows"] == 3
    pair = (enc.diagnostics["i_xz"], enc.diagnostics["i_yz"])
    assert pair == pytest.approx(info_plane(enc, nudged), abs=1e-12)


def test_converged_encoder_stays_fixed_through_the_row_merge():
    # noise-0.2 has 4 distinct rows among 556, so init_probs is projected
    # onto them; a converged encoder must survive that as a fixed point
    joint = discretize(noise_preset(0.2))
    enc = solve(joint, 3.5, seed=0)
    assert enc.converged and enc.diagnostics["distinct_rows"] < joint.shape[0]
    again = solve(joint, 3.5, init_probs=enc.probs, restarts=0)
    assert again.converged and again.iterations == 1
    np.testing.assert_allclose(again.probs, enc.probs, rtol=0.0, atol=1e-10)
    assert again.objective == pytest.approx(enc.objective, abs=1e-12)


def test_sweep_reports_slowdown_peak():
    result = sweep(discretize(noise_preset(0.2)), np.geomspace(1.5, 4.5, 9), seed=0)
    iterations = [p.iterations for p in result.points]
    peak = result.protocol["slowdown_peak_beta"]
    assert peak == result.points[iterations.index(max(iterations))].beta
    assert result.protocol["distinct_rows"] == 4
