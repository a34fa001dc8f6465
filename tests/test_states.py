import json

import numpy as np
import pytest

import oracles
from qcorr import operators as op
from qcorr import states
from qcorr.exceptions import InvalidStateError, NotPositiveError
from qcorr.operators import MeasurementBasis

ATOL = 1e-12


def test_werner_matches_bell_diagonal():
    for alpha in np.linspace(0.0, 1.0, 11):
        direct = states.make_werner(alpha)
        via_correlations = states.make_bell_diagonal([-alpha, -alpha, -alpha])
        assert np.max(np.abs(direct - via_correlations)) <= ATOL


def test_werner_eigenvalues():
    # (1 + 3 alpha)/4 once and (1 - alpha)/4 three times
    for alpha in np.linspace(0.0, 1.0, 11):
        vals = np.linalg.eigvalsh(states.make_werner(alpha))
        expected = np.sort([(1 + 3 * alpha) / 4] + [(1 - alpha) / 4] * 3)
        assert np.allclose(vals, expected, atol=ATOL)


def test_werner_range_validation():
    with pytest.raises(ValueError):
        states.make_werner(-0.01)
    with pytest.raises(ValueError):
        states.make_werner(1.01)


def test_werner_alpha_one_is_singlet():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.max(np.abs(states.make_werner(1.0) - np.outer(psi, psi.conj()))) <= ATOL


def test_bell_diagonal_eigenvalue_rule(rng):
    # analytic sign rule against the eigensolver
    for _ in range(200):
        c = rng.uniform(-1.0, 1.0, 3)
        analytic = states.bell_diagonal_eigenvalues(c)
        rho = op.compose(np.zeros(3), np.zeros(3), np.diag(c))
        solved = np.linalg.eigvalsh(rho)[::-1]
        assert np.allclose(analytic, solved, atol=ATOL)


def test_bell_diagonal_pure_corner():
    # c = (1, -1, 1) is the pure Bell state (|00> + |11>)/sqrt(2)
    rho = states.make_bell_diagonal([1.0, -1.0, 1.0])
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.max(np.abs(rho - np.outer(phi, phi.conj()))) <= ATOL


def test_make_general_rejects_non_positive():
    with pytest.raises(NotPositiveError) as err:
        states.make_general(np.zeros(3), np.zeros(3), [1.0, 1.0, 1.0])
    assert abs(err.value.min_eigenvalue + 0.5) <= ATOL
    assert str(err.value) == (
        "matrix is not positive semidefinite (min eigenvalue -5.000e-01)"
    )


def test_make_general_valid_example():
    rho = states.make_general([0.3, 0, 0], [0, 0, 0], [0, 0, 0.5])
    v = states.validate(rho)
    assert v.valid and v.in_diagonal_class
    d = op.decompose(rho)
    assert np.allclose(d.x, [0.3, 0, 0], atol=ATOL)
    assert np.allclose(d.t, np.diag([0, 0, 0.5]), atol=ATOL)


def test_make_general_shape_validation():
    with pytest.raises(ValueError):
        states.make_general([0.1, 0.2], np.zeros(3), np.zeros(3))


def test_make_classical_computational_table():
    probs = [[0.5, 0.0], [0.0, 0.5]]
    rho = states.make_classical(probs, (0.0, 0.0), (0.0, 0.0))
    assert np.allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=ATOL)
    d = op.decompose(rho)
    assert abs(d.t[2, 2] - 1.0) <= ATOL
    assert np.allclose(d.x, 0.0, atol=ATOL)


def test_make_classical_random_tables(rng):
    for _ in range(25):
        raw = rng.uniform(0.0, 1.0, (2, 2))
        probs = raw / raw.sum()
        ba = MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        bb = MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rho = states.make_classical(probs, ba, bb)
        assert states.validate(rho).valid


def test_make_classical_accepts_matrix_basis():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rho = states.make_classical(
        [[0.5, 0.0], [0.0, 0.5]], hadamard, np.eye(2, dtype=complex)
    )
    d = op.decompose(rho)
    # correlations now along axis 1 on qubit a, axis 3 on qubit b
    assert abs(d.t[0, 2] - 1.0) <= ATOL


def test_make_classical_rejects_bad_tables():
    with pytest.raises(ValueError):
        states.make_classical([[0.6, 0.6], [0.0, 0.0]], (0, 0), (0, 0))
    with pytest.raises(ValueError):
        states.make_classical([[1.2, -0.2], [0.0, 0.0]], (0, 0), (0, 0))


def test_make_classical_rejects_non_orthonormal_basis():
    skewed = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        states.make_classical([[0.5, 0], [0, 0.5]], skewed, np.eye(2))


def test_make_product_correlations():
    rho = states.make_product([0.5, 0, 0], [0, 0.5, 0])
    d = op.decompose(rho)
    assert abs(d.t[0, 1] - 0.25) <= ATOL
    assert not states.validate(rho).in_diagonal_class


def test_make_product_rejects_long_bloch():
    with pytest.raises(ValueError):
        states.make_product([1.1, 0, 0], [0, 0, 0])


def test_validate_flags():
    v = states.validate(np.kron(op.pauli(1), op.pauli(1)))
    assert v.hermitian and not v.trace_one and not v.psd
    assert not v.valid

    v = states.validate(states.make_werner(0.5))
    assert v.valid and v.in_diagonal_class
    assert abs(v.min_eigenvalue - 0.125) <= ATOL

    v = states.validate(states.make_product([0.5, 0, 0], [0, 0.5, 0]))
    assert v.valid and not v.in_diagonal_class


def test_validate_shape():
    for check in (states.validate, states.check_state):
        with pytest.raises(InvalidStateError, match=r"4x4 matrix, got shape \(2, 2\)"):
            check(np.eye(2))


def test_validate_non_finite():
    # NaN used to reach the eigensolver and fail there as a LinAlgError
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        rho = states.make_werner(0.5)
        rho[1, 2] = bad
        with pytest.raises(InvalidStateError):
            states.validate(rho)
        with pytest.raises(InvalidStateError):
            states.check_state(rho)
        with pytest.raises(InvalidStateError):
            op.require_density_matrix(rho)


def test_validity_to_dict_keys():
    v = states.validate(states.make_werner(0.2))
    assert set(v.to_dict()) == {
        "hermitian",
        "trace_one",
        "psd",
        "min_eigenvalue",
        "in_diagonal_class",
    }


def test_check_state_errors():
    with pytest.raises(InvalidStateError):
        states.check_state(np.eye(4, dtype=complex))
    with pytest.raises(NotPositiveError):
        states.check_state(np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex))
    states.check_state(states.make_werner(0.3))


def test_state_file_round_trip(tmp_path, rng):
    rho = oracles.random_density_matrix(rng)
    path = tmp_path / "state.json"
    states.save_state(rho, path)
    again = states.load_state(path)
    assert np.max(np.abs(again - rho)) <= 1e-15


def test_parse_state_parameter_form():
    rho = states.parse_state({"x": [0, 0, 0], "y": [0, 0, 0], "c": [-0.5, -0.5, -0.5]})
    assert np.max(np.abs(rho - states.make_werner(0.5))) <= ATOL


def test_parse_state_matrix_with_bare_reals():
    record = {"matrix": [0.25 if i % 5 == 0 else 0.0 for i in range(16)]}
    rho = states.parse_state(record)
    assert np.max(np.abs(rho - np.eye(4) / 4)) <= ATOL


def test_parse_state_malformed():
    with pytest.raises(ValueError):
        states.parse_state({"matrix": [0.1] * 15})
    with pytest.raises(ValueError):
        states.parse_state({"x": [0, 0], "y": [0, 0, 0], "c": [0, 0, 0]})
    with pytest.raises(ValueError):
        states.parse_state({"vector": [1, 0, 0, 0]})
    with pytest.raises(ValueError):
        states.parse_state([1, 2, 3])
    with pytest.raises(ValueError):
        states.parse_state({"matrix": [[1.0, 0.0, 0.0]] * 16})


def test_parse_state_propagates_positivity():
    with pytest.raises(NotPositiveError):
        states.parse_state({"x": [0, 0, 0], "y": [0, 0, 0], "c": [1.0, 1.0, 1.0]})


def test_load_state_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        states.load_state(path)
