import numpy as np
import pytest

import oracles
from qcorr import nmr
from qcorr import operators as op
from qcorr import states, witness

ATOL = 1e-12


def test_cnot_matrix():
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(nmr.cnot_ab(), expected)


def test_cnot_self_inverse():
    c = nmr.cnot_ab()
    assert np.max(np.abs(c @ c - np.eye(4))) <= ATOL


def test_rotation_unitarity():
    for axis in (2, 3):
        r = nmr.rotation_pair(axis)
        assert np.max(np.abs(r @ r.conj().T - np.eye(4))) <= ATOL


def test_rotation_axis_validation():
    with pytest.raises(ValueError):
        nmr.rotation_pair(1)


def test_conjugation_identities():
    # the rotations map the second and third diagonal correlators onto the
    # first, which CNOT then turns into a single-qubit readout
    c = nmr.cnot_ab()
    r3 = nmr.rotation_pair(3)
    r2 = nmr.rotation_pair(2)
    s11 = op.tensor(op.pauli(1), op.pauli(1))
    s22 = op.tensor(op.pauli(2), op.pauli(2))
    s33 = op.tensor(op.pauli(3), op.pauli(3))
    s10 = op.tensor(op.pauli(1), op.pauli(0))

    assert np.max(np.abs(r3.conj().T @ s11 @ r3 - s22)) <= ATOL
    assert np.max(np.abs(r2.conj().T @ s11 @ r2 - s33)) <= ATOL
    assert np.max(np.abs(c.conj().T @ s10 @ c - s11)) <= ATOL


@pytest.mark.parametrize(
    "c",
    [
        (-0.5, -0.5, -0.5),
        (0.7, -0.2, 0.1),
        (0.0, 0.0, 0.0),
        (1.0, -1.0, 1.0),
    ],
)
def test_exact_magnetizations_match_correlators(c):
    rho = states.make_bell_diagonal(c)
    run = nmr.run_protocol(rho)
    assert abs(run.m_eta - c[0]) <= ATOL
    assert abs(run.m_zeta - c[1]) <= ATOL
    assert abs(run.m_xi - c[2]) <= ATOL
    assert max(run.residuals) <= ATOL
    assert run.shots is None
    assert run.stderrs is None


def test_transformed_states_are_valid(rng):
    rho = oracles.random_density_matrix(rng)
    run = nmr.run_protocol(rho)
    for sigma in (run.eta, run.zeta, run.xi):
        op.require_density_matrix(sigma)


def test_general_state_residuals_vanish(rng):
    # the readout identity holds for every state, not only the diagonal class
    for _ in range(25):
        rho = oracles.random_density_matrix(rng)
        run = nmr.run_protocol(rho)
        assert max(run.residuals) <= 1e-12


def test_sampling_reproducible():
    rho = states.make_werner(0.6)
    a = nmr.run_protocol(rho, shots=2000, seed=11)
    b = nmr.run_protocol(rho, shots=2000, seed=11)
    assert a.m_eta == b.m_eta
    assert a.m_zeta == b.m_zeta
    assert a.m_xi == b.m_xi
    assert a.stderrs == b.stderrs


def test_sampling_converges():
    rho = states.make_werner(0.6)
    run = nmr.run_protocol(rho, shots=200000, seed=3)
    for m, err in zip(run.magnetizations(), run.stderrs):
        assert abs(m - (-0.6)) <= 5 * err + 1e-9
        assert err > 0


def test_sampling_degenerate_outcome():
    # perfectly aligned magnetization gives zero spread; the estimate is exact
    # t11 = 1, so every shot of the eta channel reads +1
    rho = states.make_product((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    run = nmr.run_protocol(rho, shots=500, seed=0)
    assert run.m_eta == 1.0
    assert run.stderrs[0] == 0.0


def test_sample_magnetization_validation():
    rho = states.make_werner(0.2)
    with pytest.raises(ValueError):
        nmr.run_protocol(rho, shots=0)


def test_witness_via_protocol_matches_direct_evaluation(rng):
    # dual route: protocol readout against the straight decomposition path
    for _ in range(10):
        rho = oracles.random_in_class_state(rng)
        pair = witness.DirectionPair.random(rng)
        via = nmr.witness_via_protocol(rho, directions=pair)
        direct = witness.witness_value(rho, mode="randomized", directions=pair)
        assert abs(via.value - direct.value) <= 1e-10
        assert via.mode == "protocol-exact"
        assert np.allclose(via.expectations, direct.expectations, atol=1e-10)


def test_heisenberg_magnetizations_match_transformed_states(rng):
    # witness_via_protocol reads the protocol's magnetizations as fixed
    # Heisenberg-picture observables; run_protocol builds the states
    rhos = [oracles.random_in_class_state(rng) for _ in range(100)]
    rhos += [oracles.random_bell_diagonal(rng) for _ in range(20)]
    rhos += [oracles.random_chi_state(rng, kind) for kind in (1, 2, 3, 4) * 5]
    rhos += [states.make_werner(a) for a in np.linspace(0.0, 1.0, 11)]
    pair = witness.DirectionPair(z=[1.0, 0.0, 0.0], w=[0.0, 0.0, 1.0])
    for rho in rhos:
        via = nmr.witness_via_protocol(rho, directions=pair)
        built = nmr.transform_states(rho).magnetizations()
        assert np.max(np.abs(np.subtract(via.expectations[:3], built))) <= 1e-15


def test_witness_via_protocol_default_directions():
    rho = states.make_bell_diagonal([0.5, 0.0, 0.0])
    report = nmr.witness_via_protocol(rho)
    assert report.value == pytest.approx(0.0, abs=1e-12)
    assert report.verdict is witness.Verdict.CLASSICAL


def test_witness_via_protocol_out_of_class():
    from qcorr.exceptions import OutOfClassError

    rho = states.make_general((0.2, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.0, 0.0))
    coherent = rho + 0.05 * (
        op.tensor(op.pauli(1), op.pauli(2)) + op.tensor(op.pauli(2), op.pauli(1))
    ) / 4
    with pytest.raises(OutOfClassError):
        nmr.witness_via_protocol(coherent)


def test_sampled_witness_classical_state():
    rho = states.make_bell_diagonal([0.5, 0.0, 0.0])
    report = nmr.witness_via_protocol(rho, shots=100000, seed=7)
    assert report.mode == "protocol-sampled"
    assert report.value_stderr is not None
    assert report.verdict is witness.Verdict.CLASSICAL


def test_sampled_witness_nonclassical_state():
    rho = states.make_werner(0.6)
    report = nmr.witness_via_protocol(rho, shots=100000, seed=7)
    assert report.verdict is witness.Verdict.NONCLASSICAL
    assert report.value > 3 * report.value_stderr


def test_sampled_witness_tracks_exact_value():
    rho = states.make_bell_diagonal([0.6, -0.3, 0.2])
    exact = nmr.witness_via_protocol(rho)
    sampled = nmr.witness_via_protocol(rho, shots=400000, seed=5)
    band = 5 * sampled.value_stderr + 1e-6
    assert abs(sampled.value - exact.value) <= band


def test_protocol_run_serialization():
    rho = states.make_werner(0.4)
    exact = nmr.run_protocol(rho).to_dict()
    assert exact["shots"] == "exact"
    assert set(exact) == {"m_eta", "m_zeta", "m_xi", "residuals", "shots", "seed"}
    sampled = nmr.run_protocol(rho, shots=1000, seed=2).to_dict()
    assert sampled["shots"] == 1000
    assert "stderrs" in sampled
