import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from qcorr import operators as op
from qcorr import states
from qcorr import witness as wit
from qcorr.exceptions import OutOfClassError

ATOL = 1e-12


def test_direction_pair_validation():
    with pytest.raises(ValueError):
        wit.DirectionPair(z=[1.0, 1.0, 0.0], w=[0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        wit.DirectionPair(z=[1.0, 0.0], w=[0.0, 0.0, 1.0])
    pair = wit.DirectionPair(z=[0.0, 0.0, 1.0], w=[1.0, 0.0, 0.0])
    assert abs(np.linalg.norm(pair.z) - 1.0) <= ATOL


def test_direction_pair_random_unit(rng):
    for _ in range(20):
        pair = wit.DirectionPair.random(rng)
        assert abs(np.linalg.norm(pair.z) - 1.0) <= ATOL
        assert abs(np.linalg.norm(pair.w) - 1.0) <= ATOL


def test_observables_explicit():
    pair = wit.DirectionPair(z=[0.0, 0.0, 1.0], w=[0.0, 0.0, 1.0])
    obs = wit.observables(pair)
    assert len(obs) == 4
    for o in obs:
        assert abs(o - o.conj().T).max() <= ATOL
    assert np.array_equal(obs[0], np.kron(op.pauli(1), op.pauli(1)))
    expected_o4 = np.kron(op.pauli(3), np.eye(2)) + np.kron(np.eye(2), op.pauli(3))
    assert np.allclose(obs[3], expected_o4, atol=ATOL)


def test_expectations_match_explicit_observables(rng):
    # decomposition route equals Tr(rho O) with explicit matrices
    for _ in range(20):
        rho = oracles.random_in_class_state(rng)
        pair = wit.DirectionPair.random(rng)
        fast = wit.observable_expectations(rho, pair)
        obs = wit.observables(pair)
        direct = tuple(np.trace(rho @ o).real for o in obs)
        assert np.allclose(fast, direct, atol=ATOL)


def test_expectations_product_state():
    pair = wit.DirectionPair(z=[0.0, 0.0, 1.0], w=[0.0, 0.0, 1.0])
    rho = states.make_product([0, 0, 1.0], [0, 0, 1.0])
    e = wit.observable_expectations(rho, pair)
    assert np.allclose(e, (0.0, 0.0, 1.0, 2.0), atol=ATOL)


def test_pairwise_product_sum():
    assert wit.pairwise_product_sum((1.0, 0.0, 0.0, 0.0)) == 0.0
    assert abs(wit.pairwise_product_sum((0.5, 0.5, 0.5, 0.0)) - 0.75) <= ATOL
    assert abs(wit.pairwise_product_sum((1.0, 1.0, 1.0, 1.0)) - 6.0) <= ATOL


def test_witness_werner_square_law():
    for alpha in np.linspace(0.0, 1.0, 11):
        report = wit.witness_value(states.make_werner(alpha))
        assert abs(report.value - 3.0 * alpha**2) <= 1e-12


def test_witness_werner_randomized_equals_deterministic():
    # zero Bloch vectors make the direction term vanish in both modes
    rho = states.make_werner(0.7)
    det = wit.witness_value(rho, mode="deterministic")
    ran = wit.witness_value(rho, mode="randomized", seed=11)
    assert abs(det.value - ran.value) <= 1e-12


def test_witness_single_axis_forms():
    report = wit.witness_value(states.make_bell_diagonal([0.5, 0.0, 0.0]))
    assert report.value <= 1e-12
    assert report.verdict is wit.Verdict.CLASSICAL
    assert report.matched_form == "chi1"

    report = wit.witness_value(states.make_general([0, 0, 0.5], [0, 0, 0], np.zeros(3)))
    assert report.value <= 1e-12
    assert report.matched_form == "chi4"


def test_witness_matched_form_permutes_with_axis():
    for axis, form in ((0, "chi1"), (1, "chi2"), (2, "chi3")):
        c = np.zeros(3)
        c[axis] = 0.6
        assert wit.witness_value(states.make_bell_diagonal(c)).matched_form == form
        c[axis] = -0.6
        assert wit.witness_value(states.make_bell_diagonal(c)).matched_form == form


def test_witness_maximally_mixed():
    report = wit.witness_value(np.eye(4, dtype=complex) / 4)
    assert report.value == 0.0
    assert report.verdict is wit.Verdict.CLASSICAL
    assert report.matched_form in ("chi1", "chi2", "chi3", "chi4")


def test_witness_mixed_structure_not_matched():
    # both a correlation and a Bloch vector: no single shape fits
    rho = states.make_general([0.3, 0, 0], np.zeros(3), [0, 0, 0.5])
    report = wit.witness_value(rho)
    assert report.value > 1e-3
    assert report.verdict is wit.Verdict.INCONCLUSIVE
    assert report.matched_form == "none"


def test_witness_out_of_class():
    rho = states.make_product([0.5, 0, 0], [0, 0.5, 0])
    with pytest.raises(OutOfClassError):
        wit.witness_value(rho)
    with pytest.raises(OutOfClassError):
        wit.classify(rho)


def test_witness_mode_validation():
    rho = states.make_werner(0.2)
    with pytest.raises(ValueError):
        wit.witness_value(rho, mode="other")
    with pytest.raises(ValueError):
        wit.witness_value(rho, mode="randomized", n_trials=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_randomized_never_exceeds_deterministic(seed):
    rng = np.random.default_rng(seed)
    rho = oracles.random_in_class_state(rng)
    det = wit.witness_value(rho, mode="deterministic")
    ran = wit.witness_value(rho, mode="randomized", n_trials=5, seed=seed)
    assert ran.value <= det.value + 1e-12
    assert ran.value >= -1e-15


def test_randomized_reproducible():
    rho = states.make_general([0.2, 0.1, 0], [0, 0.1, 0.2], [0.1, 0, 0])
    a = wit.witness_value(rho, mode="randomized", n_trials=5, seed=42)
    b = wit.witness_value(rho, mode="randomized", n_trials=5, seed=42)
    assert a.value == b.value
    assert a.expectations == b.expectations


def test_randomized_explicit_directions():
    rho = states.make_general([0.4, 0, 0], np.zeros(3), np.zeros(3))
    pair = wit.DirectionPair(z=[1.0, 0.0, 0.0], w=[0.0, 0.0, 1.0])
    report = wit.witness_value(rho, mode="randomized", directions=pair)
    assert abs(report.expectations[3] - 0.4) <= ATOL
    assert report.n_trials == 1


def test_randomized_empty_directions():
    # no direction pair gives no witness reading, so no certificate either
    rho = states.make_werner(0.5)
    with pytest.raises(ValueError):
        wit.witness_value(rho, mode="randomized", directions=[])


def test_witness_zero_iff_one_expectation(rng):
    # chi shapes have exactly one candidate live; generic in-class states
    # with several live candidates score strictly positive
    for kind in (1, 2, 3, 4):
        for _ in range(10):
            rho = oracles.random_chi_state(rng, kind)
            assert wit.witness_value(rho).value <= 1e-12
    hits = 0
    for _ in range(50):
        rho = oracles.random_in_class_state(rng)
        report = wit.witness_value(rho)
        e = report.expectations
        live = sum(1 for v in e if abs(v) > 1e-6)
        if live >= 2:
            hits += 1
            assert report.value > 0.0
    assert hits > 0


def test_classify_examples():
    assert wit.classify(states.make_werner(0.6)) is wit.Verdict.NONCLASSICAL
    rho = states.make_classical([[0.5, 0.0], [0.0, 0.5]], (0.0, 0.0), (0.0, 0.0))
    assert wit.classify(rho) is wit.Verdict.CLASSICAL
    rho = states.make_general([0.3, 0, 0], np.zeros(3), [0, 0, 0.5])
    assert wit.classify(rho) is wit.Verdict.INCONCLUSIVE


def test_classify_tolerance_scales():
    rho = states.make_werner(1e-4)  # witness 3e-8
    assert wit.classify(rho, tol=1e-9) is wit.Verdict.NONCLASSICAL
    assert wit.classify(rho, tol=1e-6) is wit.Verdict.CLASSICAL


def test_report_serialization():
    record = wit.witness_value(
        states.make_werner(0.5), mode="randomized", n_trials=3, seed=9
    ).to_dict()
    assert set(record) == {
        "e1",
        "e2",
        "e3",
        "e4",
        "W",
        "mode",
        "n_trials",
        "seed",
        "verdict",
        "matched_form",
    }
    assert record["verdict"] == "NonclassicalCertified"
    assert record["n_trials"] == 3
    assert record["seed"] == 9
