import csv
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import ibonset
from ibonset import (
    BetaEstimate,
    ConditionalMatrix,
    DiscreteJoint,
    Encoder,
    Method,
    SampleSet,
    ValidationError,
    conditional_from_joint,
    entropy,
    joint_from_conditional,
    load_conditional_csv,
    load_joint_csv,
    mutual_information,
    save_conditional_csv,
    save_joint_csv,
)
from ibonset import analytic_posterior, noise_preset, sample, save_samples_csv, save_sweep_csv, sweep
from ibonset.classifier import MlpModel
from ibonset.cli import _task_seed
from ibonset.dist import _Frozen, _read_csv_table, _write_csv_table, rel_entr, xlogy
from conftest import random_joint, two_cluster_joint

# ln 2 - (-0.2 ln 0.2 - 0.8 ln 0.8), evaluated by the binary-entropy formula
MI_TWO_CLUSTER_NATS = 0.2780719051126377 * math.log(2.0)


def test_every_exported_frozen_container_with_arrays_keeps_them_read_only():
    # an exported result type added later with an array field must derive
    # from the base too, or this fails
    containers = set()
    for names in ibonset._EXPORTS.values():
        for name in names:
            cls = getattr(ibonset, name)
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))):
                assert issubclass(cls, _Frozen), name
                containers.add(name)
    assert containers == {"DiscreteJoint", "ConditionalMatrix", "MixtureSpec", "SampleSet",
                          "BetaEstimate", "Encoder"}


@pytest.mark.parametrize("make", [
    lambda: DiscreteJoint([[0.4, 0.1], [0.1, 0.4]]),
    lambda: ConditionalMatrix([[0.8, 0.2], [0.2, 0.8]]),
    lambda: BetaEstimate(2.0, Method.FUNCTIONAL, [1.0, 0.0]),
    lambda: Encoder(np.eye(2), 2.0, True, 1, -0.1),
    lambda: SampleSet([[0.0, 1.0]], [0], [1]),
    lambda: MlpModel([np.ones((2, 3))], [np.zeros(3)], np.zeros(2), np.ones(2)),
    lambda: noise_preset(0.2),
], ids=["DiscreteJoint", "ConditionalMatrix", "BetaEstimate", "Encoder", "SampleSet",
        "MlpModel", "MixtureSpec"])
def test_containers_with_arrays_compare_and_hash_by_identity(make):
    # a generated == would compare the arrays and raise on their truth value,
    # and a generated hash would hash them and raise
    a, b = make(), make()
    assert not (a == b) and a != b
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("make, message", [
    (lambda: DiscreteJoint([0.5, 0.5]), r"probs must be 2-dimensional, got shape \(2,\)"),
    (lambda: DiscreteJoint(np.zeros((0, 2))), "probs is empty"),
    (lambda: DiscreteJoint([[np.nan, 0.5], [0.25, 0.25]]), "probs contains non-finite entries"),
    (lambda: ConditionalMatrix(np.eye(2), [1.0]),
     "weights length does not match number of rows"),
], ids=["joint-1d", "joint-empty", "joint-nan", "cond-weights-length"])
def test_table_input_checks(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_joint_from_conditional_diagonal():
    cond = ConditionalMatrix([[1, 0], [0, 1]], [0.5, 0.5])
    joint = joint_from_conditional(cond)
    np.testing.assert_allclose(joint.probs, [[0.5, 0], [0, 0.5]], atol=1e-15)


def test_joint_from_conditional_hand_multiplication():
    cond = ConditionalMatrix([[0.8, 0.2], [0.2, 0.8]], [0.5, 0.5])
    joint = joint_from_conditional(cond)
    np.testing.assert_allclose(joint.probs, [[0.4, 0.1], [0.1, 0.4]], atol=1e-15)


def test_joint_columns_match_label_marginal(rng):
    for _ in range(20):
        n, c = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(c), size=n)
        weights = rng.dirichlet(np.ones(n) * 3.0)
        cond = ConditionalMatrix(rows, weights)
        joint = joint_from_conditional(cond)
        np.testing.assert_allclose(joint.probs.sum(axis=0), cond.p_y, atol=1e-12)
        np.testing.assert_allclose(joint.probs.sum(axis=1), cond.weights, atol=1e-12)


def test_mi_product_joint_is_zero():
    joint = DiscreteJoint(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert abs(mutual_information(joint)) < 1e-14


def test_mi_perfect_correlation_one_bit():
    joint = DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(joint) == pytest.approx(math.log(2.0), abs=1e-12 * math.log(2.0))


def test_mi_two_cluster_binary_entropy_value():
    joint = two_cluster_joint(0.2)
    assert mutual_information(joint) == pytest.approx(
        MI_TWO_CLUSTER_NATS, abs=1e-12 * math.log(2.0)
    )


def test_mi_bounds_on_random_joints(rng):
    for _ in range(50):
        joint = random_joint(rng)
        mi = mutual_information(joint)
        assert mi >= -1e-12
        h_x = entropy(joint.probs.sum(axis=1))
        h_y = entropy(joint.probs.sum(axis=0))
        assert mi <= min(h_x, h_y) + 1e-12


def test_mi_permutation_invariance(rng):
    for _ in range(20):
        joint = random_joint(rng)
        px = rng.permutation(joint.shape[0])
        py = rng.permutation(joint.shape[1])
        permuted = DiscreteJoint(joint.probs[px][:, py])
        assert mutual_information(permuted) == pytest.approx(
            mutual_information(joint), abs=1e-12
        )


def test_conditional_joint_round_trip(rng):
    for _ in range(20):
        joint = random_joint(rng)
        back = joint_from_conditional(conditional_from_joint(joint))
        np.testing.assert_allclose(back.probs, joint.probs, rtol=0, atol=1e-12)


def test_conditional_hand_division():
    cond = conditional_from_joint(two_cluster_joint(0.2))
    np.testing.assert_allclose(cond.rows, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)
    np.testing.assert_allclose(cond.weights, [0.5, 0.5], atol=1e-15)


def test_diagonal_joint_gives_identity_rows():
    cond = conditional_from_joint(DiscreteJoint([[0.5, 0.0], [0.0, 0.5]]))
    np.testing.assert_allclose(cond.rows, np.eye(2), atol=1e-15)


def test_validation_rejects_bad_mass():
    with pytest.raises(ValidationError):
        DiscreteJoint([[0.5, 0.4]])  # sums to 0.9
    with pytest.raises(ValidationError):
        entropy([0.5, -0.5, 1.0])
    with pytest.raises(ValidationError, match="mass"):
        entropy([0.5, 0.4])
    with pytest.raises(ValidationError):
        ConditionalMatrix([[0.7, 0.2], [0.5, 0.5]])


def test_validation_renormalizes_within_tolerance():
    eps = 1e-10
    joint = DiscreteJoint([[0.25, 0.25], [0.25, 0.25 + eps]])
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-15)
    cond = ConditionalMatrix([[0.5, 0.5 + eps]], [1.0 - eps])
    assert cond.rows.sum() == pytest.approx(1.0, abs=1e-15)


def test_zero_mass_rows_pruned_with_warning():
    with pytest.warns(UserWarning, match="pruned") as record:
        joint = DiscreteJoint([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    # the warning names the caller's line, not the dataclass-generated __init__
    assert record[0].filename == __file__
    assert joint.shape == (2, 2)
    np.testing.assert_array_equal(joint.probs, np.eye(2) / 2.0)
    np.testing.assert_array_equal(joint.p_x, [0.5, 0.5])
    np.testing.assert_array_equal(joint.p_y, [0.5, 0.5])


def ulps_from_exact_column_sums(joint):
    """Distance of each entry of ``p_y`` from the exact sum of its column,
    in units in the last place of that sum."""
    exact = [sum(map(Fraction, col.tolist())) for col in joint.probs.T]
    return [abs(Fraction(got) - want) / Fraction(np.spacing(float(want)))
            for got, want in zip(joint.p_y.tolist(), exact)]


def test_joint_marginals_are_the_axis_sums(rng):
    for _ in range(20):
        joint = random_joint(rng)
        assert np.array_equal(joint.p_x, joint.probs.sum(axis=1))
        assert max(ulps_from_exact_column_sums(joint)) <= 4
    for marginal in (joint.p_x, joint.p_y):
        with pytest.raises(ValueError):
            marginal[0] = 0.5


def test_label_marginal_of_many_rows_is_the_rounded_exact_sum():
    # adding 6000 rows one at a time left both entries ~340 ulp low
    spec = noise_preset(0.4)
    joint = joint_from_conditional(analytic_posterior(spec, sample(spec, 6000, seed=7).points))
    assert max(ulps_from_exact_column_sums(joint)) <= 1


def test_conditional_label_marginal_is_bitwise_the_renormalized_mixture(rng):
    for _ in range(20):
        n, c = int(rng.integers(2, 40)), int(rng.integers(2, 6))
        cond = ConditionalMatrix(
            rng.dirichlet(np.ones(c), size=n), rng.dirichlet(np.ones(n) * 2.0)
        )
        # reference: p(x) @ p(y|x) checked and renormalized as a stand-alone
        # probability vector, i.e. a clipped copy divided by its sum
        mixture = np.clip(np.array(cond.weights @ cond.rows), 0.0, None)
        assert np.array_equal(cond.p_y, mixture / mixture.sum())
    with pytest.raises(ValueError):
        cond.p_y[0] = 0.5


def test_weights_must_be_positive():
    with pytest.raises(ValidationError):
        ConditionalMatrix([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])


def test_containers_are_immutable():
    joint = two_cluster_joint(0.2)
    with pytest.raises(ValueError):
        joint.probs[0, 0] = 0.9


def test_conditional_csv_round_trip(tmp_path, rng):
    cond = ConditionalMatrix(
        rng.dirichlet(np.ones(3), size=5), rng.dirichlet(np.ones(5) * 4.0)
    )
    path = tmp_path / "cond.csv"
    save_conditional_csv(cond, path)
    back = load_conditional_csv(path)
    np.testing.assert_allclose(back.rows, cond.rows, rtol=1e-12)
    np.testing.assert_allclose(back.weights, cond.weights, rtol=1e-12)


def test_conditional_csv_without_weight_column(tmp_path):
    path = tmp_path / "cond.csv"
    path.write_text("y0,y1\n0.8,0.2\n0.2,0.8\n")
    cond = load_conditional_csv(path)
    np.testing.assert_allclose(cond.weights, [0.5, 0.5])


def test_conditional_csv_headerless(tmp_path):
    path = tmp_path / "cond.csv"
    path.write_text("0.8,0.2\n0.2,0.8\n")
    cond = load_conditional_csv(path)
    assert cond.num_classes == 2


def test_joint_csv_round_trip(tmp_path, rng):
    joint = random_joint(rng)
    path = tmp_path / "joint.csv"
    save_joint_csv(joint, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(f"y{j}" for j in range(joint.shape[1]))
    back = load_joint_csv(path)
    np.testing.assert_allclose(back.probs, joint.probs, rtol=1e-12)


def _reference_csv(path, header, table) -> bytes:
    """The per-cell writer: csv.writer rows of format(v, ".17g"), which the
    one-pass body must reproduce byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") for v in row]
                         for row in np.asarray(table, dtype=float).tolist())
    return path.read_bytes()


_EDGE_VALUES = [
    [0.0, -0.0, 1.0],
    [1e-300, 5e-324, 0.1 + 0.2],
    [2.2250738585072014e-308 / 3, 0.12345678901234568, 1.0 / 3.0],
    [-12345.678901234567, 9.8765432109876543e-200, 1.7976931348623157e308],
    [123456789012345680.0, 2.0 ** 53 + 2, -7.0],
]


@pytest.mark.parametrize("header, table", [
    (["a", "b", "c"], _EDGE_VALUES),
    (["only"], [[0.5], [1e-300], [-0.0], [3.0]]),
    (["a", "b", "c"], np.empty((0, 3))),
], ids=["edge-values", "one-column", "no-rows"])
def test_csv_writer_matches_per_cell_writer(tmp_path, header, table):
    _write_csv_table(tmp_path / "fast.csv", header, table)
    reference = _reference_csv(tmp_path / "ref.csv", header, table)
    assert (tmp_path / "fast.csv").read_bytes() == reference


def test_samples_csv_matches_per_cell_writer(tmp_path):
    # gen's table: float coordinates next to integer label columns
    drawn = sample(noise_preset(0.2), 2000, seed=_task_seed(1, 0))
    save_samples_csv(drawn, tmp_path / "samples.csv")
    table = np.column_stack([drawn.points, drawn.observed_labels, drawn.true_labels])
    reference = _reference_csv(tmp_path / "ref.csv",
                               ["x1", "x2", "observed_label", "true_label"], table)
    assert (tmp_path / "samples.csv").read_bytes() == reference


def test_sweep_csv_matches_per_cell_writer(tmp_path):
    result = sweep(two_cluster_joint(0.2), np.geomspace(1.5, 4.5, 7), seed=0)
    save_sweep_csv(result, tmp_path / "sweep.csv")
    reference = _reference_csv(
        tmp_path / "ref.csv", ["beta", "i_xz_nats", "i_yz_nats", "objective"],
        [[p.beta, p.i_xz_nats, p.i_yz_nats, p.objective] for p in result.points])
    assert (tmp_path / "sweep.csv").read_bytes() == reference


def test_conditional_csv_reads_back_exactly(tmp_path, rng):
    cond = ConditionalMatrix(
        rng.dirichlet(np.full(4, 0.3), size=40), rng.dirichlet(np.ones(40) * 2.0)
    )
    path = tmp_path / "cond.csv"
    save_conditional_csv(cond, path)
    _, data = _read_csv_table(path)
    np.testing.assert_array_equal(data, np.column_stack([cond.rows, cond.weights]))
    # the loader renormalizes as the constructor does, so the loaded table is
    # bitwise the one built from the written values
    back, again = load_conditional_csv(path), ConditionalMatrix(cond.rows, cond.weights)
    np.testing.assert_array_equal(back.rows, again.rows)
    np.testing.assert_array_equal(back.weights, again.weights)


def test_csv_malformed_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    for text, message in [
        ("y0,y1\n0.5,oops\n", "non-numeric cell"),
        ("", "empty file"),
        ("y0,y1\n", "no data rows"),
        ("y0,y1\n0.5,0.5\n1.0\n", "ragged rows"),
        ("0.5,0.5\n0.2,0.3,0.5\n", "ragged rows"),
    ]:
        path.write_text(text)
        for load in (load_conditional_csv, load_joint_csv):
            with pytest.raises(ValidationError, match=message):
                load(path)


def test_entropy_helper():
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-14)
    assert entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)


def test_rel_entr_and_xlogy_match_scipy():
    special = pytest.importorskip("scipy.special")
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, 0.0, tiny, tiny, 1e-300, 0.3, 1.0, 0.5])
    y = np.array([0.0, 0.5, tiny, 0.7, 1e-310, 0.3, 1e-300, 1.0])
    np.testing.assert_allclose(rel_entr(x, y), special.rel_entr(x, y), rtol=1e-15, atol=0)
    np.testing.assert_allclose(xlogy(x, y), special.xlogy(x, y), rtol=1e-15, atol=0)
    # broadcasting, as the estimators use it: candidate rows against a marginal
    q = np.array([[0.2, 0.8], [0.0, 1.0]])
    p = np.array([0.5, 0.5])
    np.testing.assert_allclose(rel_entr(q, p), special.rel_entr(q, p), rtol=1e-15, atol=0)
