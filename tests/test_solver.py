import copy
import csv
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.special import rel_entr

from ibonset import (
    ConditionalMatrix,
    DiscreteJoint,
    Encoder,
    SweepPoint,
    ValidationError,
    detect_onset,
    discretize,
    dist,
    entropy,
    get_preset,
    info_plane,
    max_correlation,
    max_correlation_beta,
    noise_preset,
    sample,
    save_sweep_csv,
    solve,
    solver,
    sweep,
)
from ibonset.cli import _task_seed

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
    """The Dirichlet initializations solve() draws for ``seed``: one
    ``(restarts, |T|, z_card)`` draw on the distinct rows of p(y|x)."""
    n_t = _reference_merge_rows(joint)[0].shape[0]
    return np.random.default_rng(seed).dirichlet(np.full(z_card, 10.0), size=(restarts, n_t))


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
        assert p.i_yz_nats <= p.i_xz_nats + 1e-9
        assert p.objective <= 1e-9
    assert result.protocol["learned_tol"] == solver.ONSET_LEARNED_TOL == 1e-9


def test_sweep_deterministic_onset_just_above_one():
    result = sweep(DIAG, np.geomspace(0.8, 1.4, 12), seed=0)
    assert result.detected_beta0 is not None
    assert 1.0 <= result.detected_beta0 <= 1.1


def test_sweep_product_joint_finds_nothing():
    result = sweep(PRODUCT, np.geomspace(1.5, 4.5, 9), seed=0)
    assert result.detected_beta0 is None


def test_sweep_grid_validation():
    with pytest.raises(ValidationError, match=">= 2 points"):
        sweep(DIAG, [1.0], seed=0)
    with pytest.raises(ValidationError, match=">= 2 points"):
        sweep(DIAG, [[1.0, 2.0]], seed=0)
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
        assert pb.i_xz_nats == pytest.approx(pa.i_xz_nats, abs=1e-9)
        assert pb.i_yz_nats == pytest.approx(pa.i_yz_nats, abs=1e-9)
    assert a.detected_beta0 == pytest.approx(b.detected_beta0, abs=1e-12)


def test_sweep_x_permutation_same_detection():
    # the merged table and the restarts drawn on its rows do not see the
    # order of the rows, so the sweep is bitwise the same
    grid = np.geomspace(1.5, 4.5, 9)
    for joint in (two_cluster_joint(0.2), discretize(noise_preset(0.2))):
        a = sweep(joint, grid, seed=6)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(joint.shape[0])
            shuffled = DiscreteJoint(joint.probs[order])
            assert np.array_equal(shuffled.merged[0].probs, joint.merged[0].probs)
            b = sweep(shuffled, grid, seed=6)
            assert a.detected_beta0 == b.detected_beta0
            assert a.points == b.points


def test_sweep_warm_start_smoke():
    joint = two_cluster_joint(0.2)
    result = sweep(joint, np.geomspace(1.5, 4.5, 9), seed=8)
    assert result.detected_beta0 is not None
    assert 2.4 <= result.detected_beta0 <= 3.2


def reference_warm_sweep_points(joint, grid, seed, restarts):
    """Anneal down the grid: each point's encoder initializes the next
    lower beta, every point keeps its own derived seed."""
    children = np.random.SeedSequence(seed).spawn(len(grid))
    points, prev = [], None
    for beta, child in zip(grid[::-1], children[::-1]):
        enc = solve(joint, float(beta), seed=child, restarts=restarts, init_probs=prev)
        d = enc.diagnostics
        points.append((float(beta), d["i_xz"], d["i_yz"], enc.objective, enc.converged,
                       enc.iterations, d["restart"], d["max_objective_increase"]))
        prev = enc.probs
    return points[::-1]


@pytest.mark.parametrize("joint", [
    two_cluster_joint(0.2),
    random_joint(np.random.default_rng(21), 6, 3),
], ids=["two-cluster", "random"])
def test_sweep_warm_start_is_bitwise_the_reference_loop(joint):
    grid = np.geomspace(1.5, 6.0, 9)
    result = sweep(joint, grid, seed=5, restarts=2)
    assert [dataclasses.astuple(p) for p in result.points] == reference_warm_sweep_points(
        joint, grid, 5, 2)


def test_sweep_starts_each_point_from_the_next_higher_beta(monkeypatch):
    original, calls = solver.solve, []

    def recorder(*args, **kwargs):
        enc = original(*args, **kwargs)
        calls.append((args[1], kwargs.get("init_probs"), enc))
        return enc

    monkeypatch.setattr(solver, "solve", recorder)
    grid = np.geomspace(1.5, 4.5, 7)
    sweep(two_cluster_joint(0.2), grid, seed=3, restarts=1)
    assert [beta for beta, _, _ in calls] == grid[::-1].tolist()
    assert calls[0][1] is None
    for (_, _, previous), (_, init, _) in zip(calls, calls[1:]):
        assert init is previous.probs


def test_detect_onset_first_objective_below_the_tolerance():
    betas = np.linspace(1.0, 2.0, 11)
    assert detect_onset(betas, np.zeros(11)) == (None, False)
    for i in range(1, 11):
        objectives = np.zeros(11)
        objectives[i:] = -1e-3
        assert detect_onset(betas, objectives) == ((betas[i - 1] + betas[i]) / 2.0, False)
    assert detect_onset(betas, np.full(11, -1e-3)) == (None, True)
    # a residual within the tolerance is not a learned point
    objectives = np.full(11, -1e-10)
    objectives[7] = -2e-9
    assert detect_onset(betas, objectives) == ((betas[6] + betas[7]) / 2.0, False)


def _assert_bracket_certified(result):
    """Every point below the reported bracket stays at the trivial 0 and
    the bracket's upper point beats it."""
    betas = [p.beta for p in result.points]
    if result.protocol["onset_below_grid"]:
        upper = 0
    elif result.detected_beta0 is None:
        upper = len(betas)
    else:
        upper = next(i for i, b in enumerate(betas) if b > result.detected_beta0)
        assert result.detected_beta0 == (betas[upper - 1] + betas[upper]) / 2.0
    assert all(p.objective >= -1e-9 for p in result.points[:upper])
    if upper < len(betas):
        assert result.points[upper].objective < -1e-9


# sweep ignores warm_start, which the benchmark's traced run passes as True:
# each "cold" and "warm" case below runs the one annealed sweep
@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("preset", [
    "noise-0.0", "noise-0.1", "noise-0.2", "noise-0.3",
    "overlap-1.2", "overlap-2.0", "overlap-3.2",
])
def test_sweep_bracket_is_certified_on_presets(preset, warm_start):
    # the command line's default grid
    joint = discretize(get_preset(preset), bins_per_axis=32)
    result = sweep(joint, np.geomspace(1.5, 4.5, 25), seed=1, warm_start=warm_start)
    _assert_bracket_certified(result)


@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_sweep_bracket_is_certified_on_random_tables(warm_start):
    for k in range(40):
        joint = random_joint(np.random.default_rng(k), 6, 3)
        rho = max_correlation(joint)
        grid = np.geomspace(0.5 / rho**2, 2.0 / rho**2, 25)
        result = sweep(joint, grid, seed=k, restarts=3, warm_start=warm_start)
        _assert_bracket_certified(result)


# a compact Z-channel and a 0.3/0.7 prior with 20% flips: first-order onsets
# at 1/s* below 1/rho^2, where restarts around uniform stay trivial
FIRST_ORDER_TABLES = {
    "z-channel": ([[0.5, 0.0], [0.25, 0.25]], math.log(2.0) / math.log(4.0 / 3.0)),
    "prior-0.3": ([[0.24, 0.06], [0.14, 0.56]], 2.884625),
}


@pytest.mark.parametrize("table", FIRST_ORDER_TABLES)
def test_sweep_brackets_a_first_order_onset(table):
    probs, beta0 = FIRST_ORDER_TABLES[table]
    joint = DiscreteJoint(np.array(probs))
    assert beta0 < 1.0 / max_correlation(joint) ** 2 - 0.05
    grid = np.geomspace(1.5, 4.5, 25)
    upper = int(np.searchsorted(grid, beta0))
    for seed in range(5):
        result = sweep(joint, grid, seed=seed)
        _assert_bracket_certified(result)
        assert result.detected_beta0 == (grid[upper - 1] + grid[upper]) / 2.0


def reference_cold_objectives(joint, grid, seed, restarts, max_iters):
    """Every grid point solved in ascending order from its random restarts
    alone, each at the seed the sweep derives for it."""
    children = np.random.SeedSequence(seed).spawn(len(grid))
    return np.array([
        solve(joint, float(beta), seed=child, restarts=restarts,
              max_iters=max_iters).objective
        for beta, child in zip(grid, children)
    ])


def test_sweep_never_ends_above_its_restarts_alone():
    rng = np.random.default_rng(0)
    improved = []
    for k in range(30):
        rows, labels = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        joint = DiscreteJoint(rng.dirichlet(np.ones(rows * labels)).reshape(rows, labels))
        rho = max_correlation(joint)
        grid = np.geomspace(0.5 / rho**2, 2.0 / rho**2, 9)
        result = sweep(joint, grid, seed=k, restarts=2, max_iters=300)
        got = np.array([p.objective for p in result.points])
        cold = reference_cold_objectives(joint, grid, k, 2, 300)
        assert np.all(got <= cold + 1e-9), k
        if np.any(got < cold - 1e-9):
            improved.append(k)
    # annealing reaches a lower minimum on some of them
    assert improved


@pytest.mark.parametrize("restarts", [0, -1])
@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_sweep_without_restarts_rejected_before_any_point(monkeypatch, restarts, warm_start):
    # failed inside the first solve with "give init_probs or restarts >= 1",
    # which names an argument sweep does not take
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(solver, "solve", no_solve)
    with pytest.raises(ValidationError, match=f"restarts must be at least 1, got {restarts}"):
        sweep(two_cluster_joint(0.2), np.geomspace(1.5, 4.5, 7),
              restarts=restarts, warm_start=warm_start)


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
                [format(v, ".17g") for v in (p.beta, p.i_xz_nats, p.i_yz_nats, p.objective)]
            )
    assert path.read_bytes() == reference.read_bytes()


def test_sweep_report_and_csv_name_the_point_fields(tmp_path):
    result = sweep(discretize(noise_preset(0.2)), np.geomspace(1.5, 4.5, 7), seed=0)
    names = [f.name for f in dataclasses.fields(SweepPoint)]
    assert [list(point) for point in result.to_dict()["points"]] == [names] * 7
    save_sweep_csv(result, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == ",".join(names[:4])


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
    # the winning draw on the distinct rows, copied onto every row of its t
    ref = plain_reference(joint, beta, init[joint.merged[1]])
    ref_xz, ref_yz = info_plane(ref, joint)
    i_xz, _ = info_plane(enc, joint)
    assert enc.converged
    assert enc.objective == pytest.approx(ref_xz - beta * ref_yz, abs=1e-8)
    assert i_xz == pytest.approx(ref_xz, abs=1e-8)
    pair = (enc.diagnostics["i_xz"], enc.diagnostics["i_yz"])
    assert pair == pytest.approx(info_plane(enc, joint), abs=1e-12)


def test_stacked_restarts_equal_solo_runs():
    # restarts retire from the stack at different iterations; retiring one
    # must not perturb the others.  Each solo run starts from its draw on
    # the distinct rows as it is: handed back to solve() as init_probs, a
    # draw would be projected again, and that rounds.
    joint = discretize(noise_preset(0.2))
    merged, group = joint.merged
    for beta in (2.85, 3.5):
        enc = solve(joint, beta, seed=0)
        solos = []
        for init in restart_inits(joint, 0, 5, enc.probs.shape[1]):
            probs, iterations, _, _ = solver._fixed_point(
                init[None], merged, beta, 5000, solver.CONVERGENCE_TOL)
            i_xz, i_yz = solver._information_pairs(probs, merged)
            lifted = ConditionalMatrix(probs[0][group]).rows  # as Encoder renormalizes
            solos.append((lifted, int(iterations[0]), float(i_xz[0] - beta * i_yz[0])))
        assert len({iterations for _, iterations, _ in solos}) > 1
        winner = solos[enc.diagnostics["restart"]]
        objectives = [objective for _, _, objective in solos]
        cutoff = min(objectives) + 1e-12 * max(1.0, abs(min(objectives)))
        tied = [k for k, obj in enumerate(objectives) if obj <= cutoff]
        assert enc.diagnostics["restart"] == tied[0]
        assert enc.diagnostics["restarts_run"] == 5
        np.testing.assert_array_equal(enc.probs, winner[0])
        assert (enc.iterations, enc.objective) == winner[1:]


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
    # the same draws on the same merged table: the same run
    np.testing.assert_array_equal(enc.probs[1:], whole.probs)
    assert (enc.diagnostics["restart"], enc.iterations, enc.objective) == (
        whole.diagnostics["restart"], whole.iterations, whole.objective)
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


# ---------------------------------------------------------------------------
# Reference: solve() with a merge per call, the restarts drawn on the
# distinct rows, init_probs projected by np.add.at, one information pair per
# restart and a kernel that always takes its np.where.  Every field of the
# Encoder must be bitwise that of this arithmetic.
# ---------------------------------------------------------------------------

def _reference_merge_rows(joint):
    """The rows sorted lexicographically first, then grouped and added in
    that order; the group index is returned in the table's own order."""
    order = np.lexsort(joint.probs.T)
    probs = joint.probs[order]
    _, group = np.unique(probs / joint.p_x[order, None], axis=0, return_inverse=True)
    group = group.reshape(-1)
    merged = np.zeros((group.max() + 1, joint.shape[1]))
    np.add.at(merged, group, probs)
    unsorted = np.empty_like(group)
    unsorted[order] = group
    return DiscreteJoint(merged), unsorted


def _reference_information_pair(pzx, joint):
    p_z = joint.p_x @ pzx
    i_xz = float((joint.p_x[:, None] * dist.rel_entr(pzx, p_z[None, :])).sum())
    p_zy = pzx.T @ joint.probs
    i_yz = float(dist.rel_entr(p_zy, np.outer(p_z, joint.p_y)).sum())
    return i_xz, i_yz


def _reference_fixed_point(stack, joint, beta, max_iters, tol):
    tiny = 1e-300
    floor = math.log(tiny)
    p_x = joint.p_x
    p_yx = joint.probs / p_x[:, None]
    offset = -beta * entropy(joint.p_y)

    def update(pzx):
        p_z = p_x @ pzx
        p_y_given_z = (pzx.transpose(0, 2, 1) @ joint.probs) / np.maximum(p_z, tiny)[:, :, None]
        logits = np.log(p_z)[:, None, :] + beta * (
            p_yx @ np.log(np.maximum(p_y_given_z, tiny)).transpose(0, 2, 1)
        )
        peak = logits.max(axis=2, keepdims=True)
        new = np.exp(logits - peak)
        total = new.sum(axis=2, keepdims=True)
        new /= total
        log_norm = peak + np.log(total)
        free = offset - (log_norm[:, :, 0] * p_x).sum(axis=1)
        return new, np.maximum(logits - log_norm, floor), free

    n = len(stack)
    out_probs = np.empty_like(stack)
    out_iters = np.zeros(n, dtype=int)
    out_converged = np.zeros(n, dtype=bool)
    out_increase = np.zeros(n)
    active = np.arange(n)
    cur = stack
    last_free = np.full(n, np.inf)
    increase = np.zeros(n)
    evals = 0

    def record(free, mask=True):
        nonlocal last_free, increase
        rise = np.where(mask, free - last_free, 0.0)
        increase = np.maximum(increase, rise)
        last_free = np.where(mask, free, last_free)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cur_log = np.maximum(np.log(np.maximum(stack, 0.0)), floor)
        while active.size and evals < max_iters:
            log0 = cur_log
            new, cur_log, free = update(cur)
            evals += 1
            record(free)
            done = np.abs(new - cur).max(axis=(1, 2)) < tol
            cur = new
            if done.any():
                out_probs[active[done]] = cur[done]
                out_iters[active[done]] = evals
                out_converged[active[done]] = True
                out_increase[active[done]] = increase[done]
                keep = ~done
                active, cur, cur_log, log0, last_free, increase = (
                    a[keep] for a in (active, cur, cur_log, log0, last_free, increase)
                )
            if not active.size or evals >= max_iters:
                break
            log1 = cur_log
            plain, log2, plain_free = update(cur)
            evals += 1
            record(plain_free)
            cur, cur_log = plain, log2
            if evals >= max_iters:
                break
            r = log1 - log0
            v = log2 - 2.0 * log1 + log0
            r_norm = np.sqrt((r * r).sum(axis=(1, 2)))
            v_norm = np.sqrt((v * v).sum(axis=(1, 2)))
            alpha = np.minimum(-1.0, -r_norm / np.where(v_norm > 0.0, v_norm, np.inf))
            alpha = alpha[:, None, None]
            jump = log0 - 2.0 * alpha * r + alpha * alpha * v
            jump = np.exp(jump - jump.max(axis=2, keepdims=True))
            jump /= jump.sum(axis=2, keepdims=True)
            stable, log3, stable_free = update(jump)
            evals += 1
            ok = stable_free <= plain_free
            record(stable_free, ok)
            cur = np.where(ok[:, None, None], stable, plain)
            cur_log = np.where(ok[:, None, None], log3, log2)

    out_probs[active] = cur
    out_iters[active] = evals
    out_increase[active] = increase
    return out_probs, out_iters, out_converged, out_increase


def reference_solve(joint, beta, z_card, *, seed, max_iters=5000, restarts=5, init_probs=None):
    """A merge per call, the restarts drawn on the distinct rows, the
    sorted-order projection of init_probs, the per-restart information pair
    and the np.where kernel."""
    merged, group = _reference_merge_rows(joint)
    start = restart_inits(joint, seed, restarts, z_card)
    if init_probs is not None:
        arr = np.asarray(init_probs, dtype=float)
        # each t adds its rows sorted by their row of p(x, y) and then of
        # init_probs, both compared from the last column
        rows = sorted(range(len(group)),
                      key=lambda x: (group[x], *joint.probs[x, ::-1], *arr[x, ::-1]))
        total = np.zeros((merged.shape[0], z_card))
        np.add.at(total, group[rows], arr[rows] * joint.p_x[rows, None])
        mass = np.bincount(group[rows], weights=joint.p_x[rows])
        start = np.concatenate([(total / mass[:, None])[None], start])
    probs, iterations, converged, increases = _reference_fixed_point(
        start, merged, beta, max_iters, 1e-10
    )
    pairs = [_reference_information_pair(p, merged) for p in probs]
    objectives = [i_xz - beta * i_yz for i_xz, i_yz in pairs]
    lowest = min(objectives)
    cutoff = lowest + 1e-12 * max(1.0, abs(lowest))
    win = next(k for k, obj in enumerate(objectives) if obj <= cutoff)
    return Encoder(
        probs=probs[win][group],
        beta=beta,
        converged=bool(converged[win]),
        iterations=int(iterations[win]),
        objective=objectives[win],
        diagnostics={
            "restart": win,
            "restarts_run": len(start),
            "max_objective_increase": float(increases[win]),
            "i_xz": pairs[win][0],
            "i_yz": pairs[win][1],
            "distinct_rows": merged.shape[0],
        },
    )


def assert_bitwise_equal(got, want):
    assert np.array_equal(got.probs, want.probs)
    assert (got.objective, got.iterations, got.converged) == (
        want.objective, want.iterations, want.converged
    )
    assert got.diagnostics == want.diagnostics


# the grids of the benchmark's two sweeps; "sweep" below solves every point
# at the seed that `sweep --seed 1` derives for it
SWEEP_GRIDS = {0.2: np.geomspace(1.5, 4.5, 25), 0.0: np.geomspace(0.82, 1.45, 25)}


@pytest.mark.parametrize("rate, betas", [
    (0.2, (1.5, 2.6, 2.85, 3.5, 4.5)),
    (0.0, (0.82, 0.99, 1.02, 1.1, 1.45)),
    (0.2, "sweep"),
    (0.0, "sweep"),
])
def test_solve_is_bitwise_the_reference_on_presets(rate, betas):
    joint = discretize(noise_preset(rate), bins_per_axis=32)
    seeds = range(len(betas))
    if betas == "sweep":
        betas = SWEEP_GRIDS[rate]
        seeds = _task_seed(1, 1).spawn(len(betas))
    for seed, beta in zip(seeds, betas):
        got = solve(joint, beta, seed=seed)
        assert_bitwise_equal(got, reference_solve(joint, beta, 4, seed=seed))


def repeated_rows_joint(rng):
    """2-400 distinct rows p(y|x), each repeated 1-3 times at masses that
    differ by powers of two (which keeps p(y|x) bitwise equal), shuffled."""
    distinct = int(rng.integers(2, 401))
    classes = int(rng.integers(2, 6))
    cond = rng.dirichlet(np.full(classes, 0.5), size=distinct)
    mass = rng.uniform(0.5, 1.5, size=distinct)
    rows = [
        cond[t] * mass[t] * scale
        for t in range(distinct)
        for scale in (1.0, 0.5, 2.0)[: int(rng.integers(1, 4))]
    ]
    probs = np.array(rows)[rng.permutation(len(rows))]
    return DiscreteJoint(probs / probs.sum())


def test_solve_is_bitwise_the_reference_on_random_tables():
    rng = np.random.default_rng(15)
    merged_somewhere = False
    for case in range(100):
        joint = repeated_rows_joint(rng)
        z_card = int(rng.integers(2, 7))
        restarts = int(rng.integers(0, 6))
        init = None
        if restarts == 0 or rng.random() < 0.5:
            init = rng.dirichlet(np.ones(z_card), size=joint.shape[0])
        beta = float(rng.uniform(0.5, 8.0))
        kwargs = dict(seed=case, max_iters=int(rng.integers(1, 300)),
                      restarts=restarts, init_probs=init)
        got = solve(joint, beta, z_card, **kwargs)
        assert_bitwise_equal(got, reference_solve(joint, beta, z_card, **kwargs))
        merged_somewhere |= got.diagnostics["distinct_rows"] < joint.shape[0]
    assert merged_somewhere


def test_sweep_merges_rows_once(monkeypatch):
    calls = []
    original = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    joint = discretize(noise_preset(0.2))
    result = sweep(joint, np.geomspace(1.5, 4.5, 7), seed=0)
    assert len(result.points) == 7 and len(calls) == 1
    merged, group = joint.merged
    assert joint.merged[0] is merged and not group.flags.writeable


def test_pickled_joint_solves_the_same():
    joint = discretize(noise_preset(0.0))
    fresh = pickle.loads(pickle.dumps(joint))
    merged_first = joint.merged
    carried = pickle.loads(pickle.dumps(joint))
    assert "merged" in vars(carried) and "merged" not in vars(fresh)
    want = solve(joint, 1.1, seed=4)
    for copy in (fresh, carried):
        assert_bitwise_equal(solve(copy, 1.1, seed=4), want)
        assert np.array_equal(copy.merged[1], merged_first[1])


_ROUND_TRIPS = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
                "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("round_trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS)
def test_round_trip_keeps_every_array_frozen_and_equal(round_trip):
    joint = discretize(noise_preset(0.2))
    merged, group = joint.merged
    cond = ConditionalMatrix(joint.probs / joint.p_x[:, None], joint.p_x)
    joint_copy, cond_copy = round_trip(joint), round_trip(cond)
    merged_copy, group_copy = joint_copy.merged
    pairs = [
        (joint.probs, joint_copy.probs), (joint.p_x, joint_copy.p_x),
        (joint.p_y, joint_copy.p_y), (group, group_copy),
        (merged.probs, merged_copy.probs), (merged.p_x, merged_copy.p_x),
        (merged.p_y, merged_copy.p_y), (cond.rows, cond_copy.rows),
        (cond.weights, cond_copy.weights), (cond.p_y, cond_copy.p_y),
    ]
    # and every array of a spec, its samples, a threshold's witness and an encoder
    spec, encoder = noise_preset(0.2), solve(joint, 3.0, seed=4)
    for obj in (spec, sample(spec, 50, seed=0), max_correlation_beta(joint), encoder):
        arrays = {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}
        copied = round_trip(obj)
        assert arrays and type(copied) is type(obj)
        pairs += [(want, getattr(copied, name)) for name, want in arrays.items()]
    for want, got in pairs:
        assert got is not want and not got.flags.writeable
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert_bitwise_equal(solve(joint_copy, 3.0, seed=4), encoder)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_max_iters_below_one_rejected_before_any_point(monkeypatch, max_iters):
    with pytest.raises(ValidationError, match="max_iters"):
        solve(two_cluster_joint(0.2), 3.0, 2, max_iters=max_iters)
    monkeypatch.setattr(solver, "solve", _no_solve)
    with pytest.raises(ValidationError, match="max_iters"):
        sweep(two_cluster_joint(0.2), np.geomspace(1.5, 4.5, 7), max_iters=max_iters)


@pytest.mark.parametrize("z_card", [1, 0])
def test_z_card_below_two_rejected_before_any_point(monkeypatch, z_card):
    # the first solve raised it, after the other settings had been checked
    with pytest.raises(ValidationError, match=f"z_card must be at least 2, got {z_card}"):
        solve(two_cluster_joint(0.2), 3.0, z_card)
    monkeypatch.setattr(solver, "solve", _no_solve)
    with pytest.raises(ValidationError, match=f"z_card must be at least 2, got {z_card}"):
        sweep(two_cluster_joint(0.2), np.geomspace(1.5, 4.5, 7), z_card)


@pytest.mark.parametrize("call, message", [
    (lambda: solve(two_cluster_joint(0.2), 3.0, 2, init_probs=np.full((3, 2), 0.5)),
     r"init_probs shape \(3, 2\) does not match \(2, 2\)"),
    (lambda: solve(two_cluster_joint(0.2), 3.0, 2, restarts=-1),
     "restarts must be non-negative"),
    (lambda: info_plane(np.full((3, 2), 0.5), two_cluster_joint(0.2)),
     "encoder rows do not match joint x alphabet"),
], ids=["init-probs-shape", "restarts-neg", "info-plane-rows"])
def test_solver_input_checks(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0, 0.0])
def test_sweep_rejects_non_positive_or_non_finite_beta_before_any_point(monkeypatch, bad):
    monkeypatch.setattr(solver, "solve", _no_solve)
    grid = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    for k in (0, 6):
        with pytest.raises(ValidationError, match="positive and finite"):
            sweep(two_cluster_joint(0.2), grid[:k] + [bad] + grid[k + 1:])


def _no_solve(*args, **kwargs):
    raise AssertionError("a grid point was solved")
