import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import oracles
from qcorr import entanglement as ent
from qcorr import operators as op
from qcorr import states
from qcorr.exceptions import InvalidStateError
from qcorr.operators import MeasurementBasis

ATOL = 1e-12


def test_pauli_matrices_explicit():
    assert np.array_equal(op.pauli(0), np.eye(2))
    assert np.array_equal(op.pauli(1), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(op.pauli(2), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(op.pauli(3), np.array([[1, 0], [0, -1]]))


def test_pauli_index_out_of_range():
    with pytest.raises(ValueError):
        op.pauli(4)
    with pytest.raises(ValueError):
        op.pauli(-1)


def test_pauli_returns_copy():
    m = op.pauli(1)
    m[0, 0] = 5.0
    assert op.pauli(1)[0, 0] == 0.0


def test_tensor_explicit():
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(op.tensor(op.pauli(1), np.eye(2)), expected)


def test_two_qubit_pauli_orthogonality():
    # Tr[(s_i x s_j)(s_k x s_l)] = 4 delta_ik delta_jl
    basis = [
        op.tensor(op.pauli(i), op.pauli(j)) for i in range(4) for j in range(4)
    ]
    for m, lhs in enumerate(basis):
        for n, rhs in enumerate(basis):
            val = np.trace(lhs @ rhs)
            assert abs(val - (4.0 if m == n else 0.0)) <= ATOL


def test_decompose_singlet():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    d = op.decompose(rho)
    assert np.allclose(d.x, 0.0, atol=ATOL)
    assert np.allclose(d.y, 0.0, atol=ATOL)
    assert np.allclose(d.t, np.diag([-1.0, -1.0, -1.0]), atol=ATOL)


def test_decompose_matches_raw_traces(rng):
    # same numbers from 15 separate trace computations
    rhos = [oracles.random_density_matrix(rng) for _ in range(500)]
    rhos += [states.make_werner(a) for a in np.linspace(0.0, 1.0, 11)]
    rhos += [oracles.random_bell_diagonal(rng) for _ in range(20)]
    rhos += [oracles.random_chi_state(rng, kind) for kind in (1, 2, 3, 4) * 5]
    rhos += [
        states.make_product(*(rng.uniform(-0.5, 0.5, (2, 3)))) for _ in range(20)
    ]
    for rho in rhos:
        d = op.decompose(rho)
        x, y, t = oracles.decompose_by_traces(rho)
        assert np.max(np.abs(d.x - x)) <= 1e-15
        assert np.max(np.abs(d.y - y)) <= 1e-15
        assert np.max(np.abs(d.t - t)) <= 1e-15


def test_decompose_rejects_invalid():
    with pytest.raises(InvalidStateError):
        op.decompose(np.kron(op.pauli(1), op.pauli(1)))


def test_decompose_components_bounded(rng):
    for _ in range(50):
        d = op.decompose(oracles.random_density_matrix(rng))
        assert np.max(np.abs(d.x)) <= 1.0 + ATOL
        assert np.max(np.abs(d.y)) <= 1.0 + ATOL
        assert np.max(np.abs(d.t)) <= 1.0 + ATOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compose_decompose_round_trip(seed):
    rho = oracles.random_density_matrix(np.random.default_rng(seed))
    d = op.decompose(rho)
    rebuilt = op.compose(d.x, d.y, d.t)
    assert np.max(np.abs(rebuilt - rho)) <= ATOL


def test_compose_shape_validation():
    with pytest.raises(ValueError):
        op.compose(np.zeros(2), np.zeros(3), np.zeros((3, 3)))


def test_partial_trace_singlet():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    for side in ("a", "b"):
        assert np.allclose(op.partial_trace(rho, side), np.eye(2) / 2, atol=ATOL)


def test_partial_trace_product(rng):
    ra = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
    rb = np.array([[0.4, -0.3j], [0.3j, 0.6]], dtype=complex)
    rho = np.kron(ra, rb)
    assert np.allclose(op.partial_trace(rho, "a"), ra, atol=ATOL)
    assert np.allclose(op.partial_trace(rho, "b"), rb, atol=ATOL)


def test_partial_trace_consistent_with_decomposition(rng):
    rho = oracles.random_density_matrix(rng)
    d = op.decompose(rho)
    reduced = op.partial_trace(rho, "a")
    bloch = np.array(
        [np.trace(reduced @ op.pauli(k)).real for k in (1, 2, 3)]
    )
    assert np.allclose(d.x, bloch, atol=ATOL)


def test_partial_trace_keep_validation():
    with pytest.raises(ValueError):
        op.partial_trace(np.eye(4) / 4, keep="c")


def test_eigenvalues_hermitian_diagonal_product():
    # the one eigensolve of the checks, ascending
    checks = op._checks(np.kron(op.pauli(3), op.pauli(3)))
    assert np.allclose(checks.spectrum, [-1.0, -1.0, 1.0, 1.0], atol=ATOL)


def test_eigenvalues_sorted_descending(rng):
    # the partial-transpose spectrum, whose last entry is read as its minimum
    vals, _ = ent._pt_spectrum(oracles.random_density_matrix(rng))
    assert np.all(np.diff(vals) <= 0.0)


def test_entropy_pure_and_mixed():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert op.von_neumann_entropy(np.outer(psi, psi.conj())) <= 1e-12
    assert abs(op.von_neumann_entropy(np.eye(4) / 4) - 2.0) <= ATOL
    assert abs(op.von_neumann_entropy(np.eye(2) / 2) - 1.0) <= ATOL


def test_entropy_werner_third():
    # spectrum (1/2, 1/6, 1/6, 1/6) gives 1/2 + (1/2) log2 6
    from qcorr.states import make_werner

    expected = 0.5 + 0.5 * np.log2(6.0)
    assert abs(op.von_neumann_entropy(make_werner(1.0 / 3.0)) - expected) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_entropy_additive_on_products(seed):
    rng = np.random.default_rng(seed)

    def qubit():
        r = rng.uniform(-1, 1, 3)
        n = np.linalg.norm(r)
        if n > 1.0:
            r = r / n * rng.uniform(0, 1)
        return (
            np.eye(2, dtype=complex)
            + r[0] * op.pauli(1)
            + r[1] * op.pauli(2)
            + r[2] * op.pauli(3)
        ) / 2

    ra, rb = qubit(), qubit()
    lhs = op.von_neumann_entropy(np.kron(ra, rb))
    rhs = op.von_neumann_entropy(ra) + op.von_neumann_entropy(rb)
    assert abs(lhs - rhs) <= 1e-10


def test_entropy_rejects_invalid():
    with pytest.raises(InvalidStateError):
        op.von_neumann_entropy(np.eye(4))  # trace 4
    with pytest.raises(InvalidStateError):
        op.von_neumann_entropy(np.diag([1.5, -0.5, 0.0, 0.0]))


@pytest.mark.parametrize("dim", [2, 4])
def test_entropy_takes_the_trace_tolerance_of_every_state_quantity(dim):
    rho = np.eye(dim, dtype=complex) / dim
    rho[0, 0] += 5e-11
    message = "trace differs from 1 by 5.000e-11"
    with pytest.raises(InvalidStateError, match=message):
        op.von_neumann_entropy(rho)
    if dim == 4:
        with pytest.raises(InvalidStateError, match=message):
            op.decompose(rho)


def test_expectation_values():
    from qcorr.states import make_werner

    obs = np.kron(op.pauli(1), op.pauli(1))
    for alpha in (0.0, 0.3, 1.0):
        val = np.trace(make_werner(alpha) @ obs).real
        assert abs(val + alpha) <= ATOL


def test_require_density_matrix_failures():
    with pytest.raises(InvalidStateError):
        op.require_density_matrix(np.kron(op.pauli(1), op.pauli(1)))  # trace 0
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(InvalidStateError):
        op.require_density_matrix(bad)  # not Hermitian
    with pytest.raises(InvalidStateError):
        op.require_density_matrix(np.diag([0.6, 0.6, -0.1, -0.1]))  # negative
    with pytest.raises(InvalidStateError):
        op.require_density_matrix(np.eye(2) / 2)  # wrong shape


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)
def test_measurement_basis_orthonormal(theta, phi):
    basis = MeasurementBasis(theta=theta, phi=phi)
    k0, k1 = basis.kets()
    assert abs(np.vdot(k0, k0) - 1.0) <= ATOL
    assert abs(np.vdot(k1, k1) - 1.0) <= ATOL
    assert abs(np.vdot(k0, k1)) <= ATOL
    p0, p1 = basis.projectors()
    assert np.allclose(p0 + p1, np.eye(2), atol=ATOL)
    assert np.allclose(p0 @ p0, p0, atol=ATOL)


def test_measurement_basis_bloch_round_trip():
    basis = MeasurementBasis(theta=1.1, phi=4.4)
    again = MeasurementBasis.from_bloch(basis.bloch())
    assert abs(again.theta - 1.1) <= 1e-12
    assert abs(again.phi - 4.4) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.one_of(
        st.sampled_from([-0.0, -1e-17, -5e-324, 2 * np.pi]),
        st.floats(min_value=-4 * np.pi, max_value=4 * np.pi),
    ),
)
@example(theta=np.pi / 2, phi=-1e-17)
@example(theta=np.pi / 2, phi=-0.0)
def test_measurement_basis_from_bloch_wraps_phi(theta, phi):
    # a direction just below the x axis once folded phi onto 2 pi itself,
    # which the basis then rejected
    n = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    basis = MeasurementBasis.from_bloch(n)
    assert 0.0 <= basis.theta <= np.pi
    assert 0.0 <= basis.phi < 2 * np.pi
    assert np.allclose(basis.bloch(), n, atol=1e-12)


def test_measurement_basis_angle_validation():
    with pytest.raises(ValueError):
        MeasurementBasis(theta=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        MeasurementBasis(theta=0.5, phi=7.0)
    with pytest.raises(ValueError):
        MeasurementBasis.from_bloch([1.0, 1.0, 0.0])
