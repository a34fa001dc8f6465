import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from qcorr import _kernel
from qcorr import correlations as dc
from qcorr import operators as op
from qcorr import states
from qcorr.exceptions import OptimizerFailureError
from qcorr.operators import MeasurementBasis

ATOL = 1e-12


def _random_pure_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _half_half():
    # equal mixture of |00><00| and |11><11|
    return np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def test_mutual_information_product_and_singlet():
    assert dc.mutual_information(states.make_product([0.3, 0, 0], [0, 0, 0.4])) <= 1e-10
    assert abs(dc.mutual_information(states.make_werner(1.0)) - 2.0) <= 1e-10


def test_mutual_information_matches_eigensolve_route(rng):
    rhos = [oracles.random_density_matrix(rng) for _ in range(200)]
    rhos += [oracles.random_rank2_state(rng) for _ in range(100)]
    rhos += [_random_pure_state(rng) for _ in range(100)]
    rhos += [np.eye(4, dtype=complex) / 4.0, states.make_werner(1.0)]
    for length in np.linspace(0.0, 1.0, 21):
        a, b = rng.normal(size=(2, 3))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        rhos.append(states.make_product(a * length, b * 0.0))
        rhos.append(states.make_product(a * 0.3, b * length))
    rhos += [states.make_product([0, 0, 1], [1, 0, 0])]
    for rho in rhos:
        expected = oracles.mutual_information_by_eigensolves(rho)
        assert abs(dc.mutual_information(rho) - expected) <= 1e-13


def test_mutual_information_werner_half():
    evals = np.array([0.625, 0.125, 0.125, 0.125])
    expected = 2.0 + float(np.sum(evals * np.log2(evals)))
    assert abs(dc.mutual_information(states.make_werner(0.5)) - expected) <= ATOL


# The readout of qubit b along n, in the coordinates the kernel works in:
# outcome 0, onto the first vector of ``MeasurementBasis.from_bloch(n)``,
# has probability (1 + y.n) / 2 and leaves qubit a with the Bloch vector
# (x + t n) / (1 + y.n).


def _probability_of_outcome_0(rho, n):
    return (1.0 + op.decompose(rho).y @ n) / 2.0


def _conditioned_bloch(rho, n):
    d = op.decompose(rho)
    return (d.x + d.t @ n) / (1.0 + d.y @ n)


def _matrix_route(rho, basis):
    """The measured information at ``basis`` on the projector route."""
    return oracles.measured_info_matrix_grid(rho, [basis.theta], [basis.phi])[0, 0]


def test_outcome_probabilities_computational():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    basis = MeasurementBasis(0.0, 0.0)
    assert abs(_probability_of_outcome_0(rho, basis.bloch()) - 1.0) <= ATOL
    assert abs(_probability_of_outcome_0(rho, -basis.bloch())) <= ATOL


def test_outcome_probabilities_sum_to_one(rng):
    # the projectors of a basis are complete, and the first reads (1 + y.n) / 2
    for _ in range(20):
        rho = oracles.random_density_matrix(rng)
        basis = MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rho_b = op.partial_trace(rho, "b")
        p0, p1 = (np.trace(rho_b @ proj).real for proj in basis.projectors())
        assert abs(p0 + p1 - 1.0) <= ATOL
        assert abs(p0 - _probability_of_outcome_0(rho, basis.bloch())) <= ATOL


def test_conditioned_state_singlet():
    rho = states.make_werner(1.0)
    bloch = _conditioned_bloch(rho, MeasurementBasis(0.0, 0.0).bloch())
    assert np.max(np.abs(bloch - [0.0, 0.0, -1.0])) <= ATOL


def test_conditioned_state_anti_aligned():
    # perfect anti-correlation along any axis for the singlet
    rho = states.make_werner(1.0)
    bloch = _conditioned_bloch(rho, MeasurementBasis(np.pi / 2, 0.0).bloch())
    assert np.allclose(bloch, [-1.0, 0.0, 0.0], atol=1e-10)


def test_measured_info_mixture_bases():
    rho = _half_half()
    assert abs(_matrix_route(rho, MeasurementBasis(0.0, 0.0)) - 1.0) <= ATOL
    assert abs(_matrix_route(rho, MeasurementBasis(np.pi / 2, 0.0))) <= ATOL


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)
def test_measured_info_bounds(seed, theta, phi):
    rho = oracles.random_density_matrix(np.random.default_rng(seed))
    value = _matrix_route(rho, MeasurementBasis(theta, phi))
    s_a = op.von_neumann_entropy(op.partial_trace(rho, "a"))
    assert -1e-8 <= value <= min(s_a, 1.0) + 1e-8


def _unit(v):
    return v / np.linalg.norm(v)


def test_measured_info_of_product_state_read_near_an_unlikely_outcome():
    # a readout of qubit b along a direction near -b has one outcome of
    # probability in (1e-12, 1e-6]; its conditional state must not blow
    # the rounding of the small outcome up into the information
    rng = np.random.default_rng(1012)
    small = 0
    for _ in range(300):
        a, b = _unit(rng.normal(size=3)), _unit(rng.normal(size=3))
        rho = states.make_product(rng.uniform(0.0, 1.0) * a, b)
        tilt = 10.0 ** rng.uniform(-5.5, -3.0)
        side = _unit(np.cross(b, rng.normal(size=3)))
        n = _unit(-np.cos(tilt) * b + np.sin(tilt) * side)
        small += _probability_of_outcome_0(rho, n) <= 1e-6
        d = op.decompose(rho)
        assert abs(_kernel.measured_info(d.x, d.y, d.t, n)) <= 1e-12
    assert small == 300


def test_classical_correlation_singlet():
    result = dc.classical_correlation(states.make_werner(1.0))
    assert abs(result.j_star - 1.0) <= 1e-9
    assert result.evals > 0


def test_classical_correlation_single_axis():
    rho = states.make_bell_diagonal([0.5, 0.0, 0.0])
    result = dc.classical_correlation(rho)
    expected = 1.0 - float(oracles.binary_entropy(0.75))
    assert abs(result.j_star - expected) <= 1e-9
    # optimal readout direction is +-x
    assert abs(abs(result.basis.bloch()[0]) - 1.0) <= 1e-4


def test_classical_correlation_matches_report_basis(rng):
    rho = oracles.random_density_matrix(rng)
    result = dc.classical_correlation(rho)
    direct = _matrix_route(rho, result.basis)
    assert abs(direct - result.j_star) <= 1e-9


def test_optimizer_against_dense_grid(rng):
    # small slice of the acceptance check
    thetas = np.linspace(0.0, np.pi, 181)
    phis = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    for _ in range(5):
        rho = oracles.random_density_matrix(rng)
        grid_max = float(np.max(oracles.measured_info_matrix_grid(rho, thetas, phis)))
        result = dc.classical_correlation(rho)
        assert abs(result.j_star - grid_max) <= 1e-4
        assert result.j_star >= grid_max - 1e-6


def test_optimizer_failure_budget(rng):
    rho = oracles.random_density_matrix(rng)
    assert dc.classical_correlation(rho).evals > 300
    # too few evaluations for the grid and one refinement step, and for
    # the grid alone
    for budget in (300, 100):
        with pytest.raises(OptimizerFailureError):
            dc.classical_correlation(rho, max_evals=budget)
    # Luo's closed form spends three evaluations
    assert dc.classical_correlation(states.make_werner(0.5), max_evals=3).evals == 3
    with pytest.raises(OptimizerFailureError):
        dc.classical_correlation(states.make_werner(0.5), max_evals=2)


def test_optimizer_failure_names_the_stack_positions_that_failed():
    # the two Bell-diagonal states take the closed form within the budget;
    # the two searched states run out of it, and the message gives their
    # positions in the stack
    rng = np.random.default_rng(400)
    rhos = [
        states.make_werner(0.6),
        oracles.random_density_matrix(rng),
        states.make_bell_diagonal([0.1, -0.5, 0.3]),
        oracles.random_density_matrix(rng),
    ]
    with pytest.raises(OptimizerFailureError) as failure:
        dc.classical_correlation(np.array(rhos), max_evals=400)
    assert str(failure.value) == (
        "basis search did not converge within 400 evaluations for states [1, 3]"
    )


def test_start_separation_mask_matches_its_definition():
    # two grid points are distinct starts when both n - m and n + m are
    # longer than the separation
    n = dc._GRID_N
    far = (
        np.minimum(
            np.linalg.norm(n[:, None] - n[None], axis=-1),
            np.linalg.norm(n[:, None] + n[None], axis=-1),
        )
        > dc._START_SEPARATION
    )
    assert np.array_equal(dc._FAR, far)


def test_every_two_grid_points_leave_a_distinct_third():
    # so the third start is always far from the first two
    far = dc._FAR
    assert (far[:, None, :] & far[None, :, :]).any(axis=-1).all()


# Closed forms against the search: the search can never beat the optimum,
# and it gets within EXACT_GAP of it, a bound that the Nelder-Mead search
# this one replaced also met on these states.
EXACT_GAP = 1e-15


def test_classical_correlation_matches_koashi_winter(rng):
    rhos = [oracles.random_rank2_state(rng) for _ in range(100)]
    for rho, result in zip(rhos, dc.classical_correlation(np.array(rhos))):
        exact = oracles.koashi_winter_classical_correlation(rho)
        assert result.j_star <= exact + 1e-12
        assert exact - result.j_star <= EXACT_GAP


# like-axis correlations of the four Bell states, the tetrahedron's vertices
BELL_SIGNS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], float)


def _bell_states():
    h = np.sqrt(0.5)
    kets = [[h, 0, 0, h], [h, 0, 0, -h], [0, h, h, 0], [0, h, -h, 0]]
    return [np.outer(k, k).astype(complex) for k in kets]


def test_classical_correlation_matches_luo(rng):
    # Bell-diagonal input takes Luo's closed form: three axis readouts
    cs = [
        op.decompose(oracles.random_bell_diagonal(rng)).diagonal_correlations()
        for _ in range(60)
    ]
    # degenerate landscapes: constant (Werner), a circle of maxima, one axis
    for a in np.linspace(0.1, 1.0, 10):
        cs += [np.full(3, -a), np.array([-a, -a, -0.3 * a]) / 2, np.array([a, 0, 0])]
    # points on the tetrahedron's edges and faces: one or two zero eigenvalues
    for _ in range(20):
        i, j, k = rng.permutation(4)[:3]
        u, w = rng.uniform(size=2)
        edge = (1.0 - u) * BELL_SIGNS[i] + u * BELL_SIGNS[j]
        cs += [edge, w * edge + (1.0 - w) * BELL_SIGNS[k]]
    rhos = [states.make_bell_diagonal(c) for c in cs] + _bell_states()
    cs += list(BELL_SIGNS)
    for c, result in zip(cs, dc.classical_correlation(np.array(rhos))):
        exact = oracles.luo_classical_correlation(c)
        assert result.j_star <= exact + 1e-12
        assert exact - result.j_star <= EXACT_GAP
        axis = np.argmax(np.abs(result.basis.bloch()))
        assert abs(result.basis.bloch()[axis]) == pytest.approx(1.0, abs=1e-15)
        assert abs(c[axis]) == np.max(np.abs(c))
        assert result.evals == 3


def test_mixed_stack_matches_single_states(rng):
    rhos = [
        states.make_werner(0.6),
        oracles.random_density_matrix(rng),
        states.make_bell_diagonal([0.1, -0.5, 0.3]),
        oracles.random_rank2_state(rng),
    ]
    stack = dc.discord(np.array(rhos))
    assert [r.evals == 3 for r in stack] == [True, False, True, False]
    assert repr(stack) == repr([dc.discord(rho) for rho in rhos])


_C = [[0.3, 0.0, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, 0.1]]
_C_XZ = [[0.3, 0.0, 1e-300], [0.0, -0.2, 0.0], [0.0, 0.0, 0.1]]


@pytest.mark.parametrize(
    "x, y, t",
    [
        ([1e-300, 0, 0], [0, 0, 0], _C),
        ([0, 0, 0], [0, 1e-300, 0], _C),
        ([0, 0, 0], [0, 0, 0], _C_XZ),
    ],
)
def test_nearly_bell_diagonal_state_takes_the_search(x, y, t):
    # one coordinate 1e-300 off Bell-diagonal still reads nonzero after
    # decompose, so the state is searched
    rho = op.compose(x, y, t)
    d = op.decompose(rho)
    assert d.x.any() or d.y.any() or (d.t != np.diag(np.diag(d.t))).any()
    assert dc.classical_correlation(rho).evals > 3


# (1 - eps) |psi><psi| + eps rho' for these eps: the basis search once
# crawled along a ridge of J on a few percent of such states and ran out
# of evaluations, as its Newton radius shrank only when both steps failed
NEAR_PURE_EPS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)


def test_near_pure_rank2_states_reach_koashi_winter(rng):
    for eps in NEAR_PURE_EPS:
        rhos = [
            (1.0 - eps) * _random_pure_state(rng) + eps * _random_pure_state(rng)
            for _ in range(60)
        ]
        for rho, result in zip(rhos, dc.classical_correlation(np.array(rhos))):
            exact = oracles.koashi_winter_classical_correlation(rho)
            assert result.j_star <= exact + 1e-12
            assert exact - result.j_star <= 1e-12


def test_near_pure_full_rank_states_settle(rng):
    for eps in NEAR_PURE_EPS:
        rhos = [
            (1.0 - eps) * _random_pure_state(rng)
            + eps * oracles.random_density_matrix(rng)
            for _ in range(60)
        ]
        results = dc.classical_correlation(np.array(rhos))
        assert all(0.0 <= r.j_star <= 1.0 for r in results)


def test_discord_stack_matches_single_calls(rng):
    rhos = [oracles.random_density_matrix(rng) for _ in range(5)]
    rhos.append(states.make_werner(0.4))
    batch = dc.discord(np.array(rhos))
    assert isinstance(batch, list)
    assert batch == [dc.discord(rho) for rho in rhos]
    assert dc.discord(np.zeros((0, 4, 4))) == []


def test_discord_werner_endpoints():
    assert dc.discord(states.make_werner(0.0)).discord <= 1e-9
    report = dc.discord(states.make_werner(1.0))
    assert abs(report.discord - 1.0) <= 1e-8
    assert abs(report.mutual_info - 2.0) <= 1e-10
    assert abs(report.classical - 1.0) <= 1e-8


def test_discord_werner_monotone():
    alphas = np.linspace(0.0, 1.0, 21)
    values = [dc.discord(states.make_werner(a)).discord for a in alphas]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_discord_classical_states(rng):
    for _ in range(10):
        raw = rng.uniform(0.0, 1.0, (2, 2))
        ba = MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        bb = MeasurementBasis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rho = states.make_classical(raw / raw.sum(), ba, bb)
        assert dc.discord(rho).discord <= 1e-6


def test_discord_local_unitary_invariance(rng):
    for _ in range(8):
        rho = oracles.random_density_matrix(rng)
        u = oracles.random_local_unitary(rng)
        base = dc.discord(rho).discord
        rotated = dc.discord(u @ rho @ u.conj().T).discord
        assert abs(base - rotated) <= 1e-5


def test_discord_nonnegative(rng):
    for _ in range(20):
        report = dc.discord(oracles.random_density_matrix(rng))
        assert report.discord >= 0.0
        assert report.classical <= report.mutual_info + 1e-8


def test_discord_report_serialization():
    record = dc.discord(states.make_werner(0.5)).to_dict()
    assert set(record) == {"I", "J_star", "D", "theta_opt", "phi_opt", "evals"}
    assert abs(record["I"] - (record["J_star"] + record["D"])) <= 1e-12
