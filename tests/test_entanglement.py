import numpy as np
import pytest

import oracles
from qcorr import entanglement as ent
from qcorr import operators as op
from qcorr import states

ATOL = 1e-12


def test_partial_transpose_explicit():
    # for (|00> + |11>)/sqrt(2) the coherences move onto the swap block
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.max(np.abs(ent.partial_transpose(rho) - expected)) <= ATOL


def test_partial_transpose_involution(rng):
    rho = oracles.random_density_matrix(rng)
    back = ent.partial_transpose(ent.partial_transpose(rho))
    assert np.max(np.abs(back - rho)) <= ATOL


def test_partial_transpose_properties(rng):
    for _ in range(20):
        rho = oracles.random_density_matrix(rng)
        pt = ent.partial_transpose(rho)
        assert abs(pt - pt.conj().T).max() <= ATOL
        assert abs(np.trace(pt).real - 1.0) <= ATOL


def test_partial_transpose_side_independent_spectrum(rng):
    for _ in range(20):
        rho = oracles.random_density_matrix(rng)
        spec_b = np.linalg.eigvalsh(ent.partial_transpose(rho, "b"))
        spec_a = np.linalg.eigvalsh(ent.partial_transpose(rho, "a"))
        assert np.allclose(spec_a, spec_b, atol=1e-10)


def test_partial_transpose_subsystem_validation():
    with pytest.raises(ValueError):
        ent.partial_transpose(np.eye(4) / 4, subsystem="c")


def test_werner_pt_minimum_eigenvalue():
    # (1 - 3 alpha) / 4, turning negative past 1/3
    for alpha in np.linspace(0.0, 1.0, 11):
        report = ent.entanglement_report(states.make_werner(alpha))
        assert abs(report.min_pt_eigenvalue - (1 - 3 * alpha) / 4) <= ATOL


def test_negativity_values():
    assert ent.negativity(states.make_werner(1.0)) == pytest.approx(0.5, abs=ATOL)
    for alpha in (0.5, 0.8):
        expected = (3 * alpha - 1) / 4
        assert ent.negativity(states.make_werner(alpha)) == pytest.approx(
            expected, abs=ATOL
        )
    assert ent.negativity(states.make_werner(0.2)) <= ATOL


def test_separable_products_have_zero_negativity(rng):
    for _ in range(10):
        ra = rng.uniform(-1, 1, 3)
        ra = ra / max(1.0, np.linalg.norm(ra) * rng.uniform(1.0, 2.0))
        rb = rng.uniform(-1, 1, 3)
        rb = rb / max(1.0, np.linalg.norm(rb) * rng.uniform(1.0, 2.0))
        rho = states.make_product(ra, rb)
        report = ent.entanglement_report(rho)
        assert report.negativity <= 1e-10
        assert report.ppt


def test_ppt_flag_flips_once():
    alphas = np.linspace(0.0, 1.0, 101)
    flags = [ent.entanglement_report(states.make_werner(a)).ppt for a in alphas]
    flips = [i for i in range(1, 101) if flags[i] != flags[i - 1]]
    assert len(flips) == 1
    assert 0.33 < alphas[flips[0]] <= 0.34 + 1e-12


def test_chsh_werner_formula():
    for alpha in np.linspace(0.0, 1.0, 11):
        value = ent.chsh_maximum(states.make_werner(alpha))
        assert abs(value - 2.0 * np.sqrt(2.0) * alpha) <= 1e-12


def test_chsh_bell_diagonal_frozen():
    rho = states.make_bell_diagonal([0.7, -0.2, 0.1])
    expected = 2.0 * np.sqrt(0.49 + 0.04)
    assert abs(ent.chsh_maximum(rho) - expected) <= ATOL


def test_chsh_against_brute_force(rng):
    # direct maximization over measurement directions, small slice of the
    # acceptance run
    for _ in range(4):
        rho = oracles.random_density_matrix(rng)
        brute, b, b2 = oracles.chsh_brute_force(rho)
        assert abs(ent.chsh_maximum(rho) - brute) <= 1e-4


def test_chsh_brute_force_angles_consistent(rng):
    rho = oracles.random_density_matrix(rng)
    brute, b, b2 = oracles.chsh_brute_force(rho)
    t = op.decompose(rho).t
    a = t @ (b + b2)
    a = a / np.linalg.norm(a)
    a2 = t @ (b - b2)
    a2 = a2 / np.linalg.norm(a2)
    direct = np.trace(rho @ oracles.chsh_operator(a, a2, b, b2)).real
    assert abs(abs(direct) - brute) <= 1e-9


def test_chsh_violation_flags():
    assert not ent.entanglement_report(states.make_werner(0.4)).chsh_violated
    assert ent.entanglement_report(states.make_werner(0.8)).chsh_violated
    # tsirelson bound at the singlet
    assert ent.chsh_maximum(states.make_werner(1.0)) == pytest.approx(
        2.0 * np.sqrt(2.0), abs=ATOL
    )


def test_chsh_crossing_near_inverse_sqrt2():
    alphas = np.linspace(0.0, 1.0, 101)
    violated = [
        ent.entanglement_report(states.make_werner(a)).chsh_violated for a in alphas
    ]
    first = next(i for i, v in enumerate(violated) if v)
    assert abs(alphas[first] - 1.0 / np.sqrt(2.0)) <= 0.01


def test_entangled_but_no_chsh_violation_window():
    # between 1/3 and 1/sqrt(2) the state is entangled yet CHSH-silent
    report = ent.entanglement_report(states.make_werner(0.5))
    assert not report.ppt
    assert not report.chsh_violated


def test_report_serialization():
    record = ent.entanglement_report(states.make_werner(0.9)).to_dict()
    assert set(record) == {
        "min_pt_eig",
        "negativity",
        "ppt",
        "chsh_max",
        "chsh_violated",
    }
    assert isinstance(record["ppt"], bool)
    assert isinstance(record["chsh_violated"], bool)
