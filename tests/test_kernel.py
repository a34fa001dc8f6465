import numpy as np
import pytest

import oracles
from qcorr import _kernel
from qcorr import operators as op


def _decomposed(rho):
    d = op.decompose(rho)
    return d.x, d.y, d.t


def _direction(theta, phi):
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def test_kernel_matches_matrix_route(rng):
    # the closed form against explicit projectors and partial traces; the two
    # implementations share no code
    for _ in range(10):
        rho = oracles.random_density_matrix(rng)
        x, y, t = _decomposed(rho)
        thetas = rng.uniform(0, np.pi, 6)
        phis = rng.uniform(0, 2 * np.pi, 6)
        expected = oracles.measured_info_matrix_grid(rho, thetas, phis)
        got = np.array(
            [
                [_kernel.measured_info(x, y, t, _direction(th, ph)) for ph in phis]
                for th in thetas
            ]
        )
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_grid_wrapper_matches_scalar_calls(rng):
    rho = oracles.random_density_matrix(rng)
    x, y, t = _decomposed(rho)
    thetas = np.linspace(0.1, 3.0, 8)
    phis = np.linspace(0.2, 6.0, 5)
    out = np.empty((8, 5))
    _kernel.measured_info_grid(x, y, t, thetas, phis, out)
    scalar = [
        [_kernel.measured_info(x, y, t, _direction(a, b)) for b in phis] for a in thetas
    ]
    assert np.allclose(out, scalar, atol=1e-14)


def test_stack_matches_single_states(rng):
    parts = [_decomposed(oracles.random_density_matrix(rng)) for _ in range(4)]
    x, y, t = (np.array(p) for p in zip(*parts))
    n = np.array([_direction(*rng.uniform(0, 3, 2)) for _ in range(4)])
    stacked = _kernel.measured_info(x, y, t, n)
    single = [_kernel.measured_info(*p, m) for p, m in zip(parts, n)]
    assert np.allclose(stacked, single, atol=1e-15)
    thetas, phis = np.linspace(0.0, 1.5, 3), np.linspace(0.0, 6.0, 4)
    out = np.empty((4, 3, 4))
    _kernel.measured_info_grid(x, y, t, thetas, phis, out)
    for k, p in enumerate(parts):
        one = np.empty((3, 4))
        _kernel.measured_info_grid(*p, thetas, phis, one)
        assert np.allclose(out[k], one, atol=1e-15)


def test_convex_on_the_bloch_ball(rng):
    # the basis search's power step is sound only because of this
    for _ in range(20):
        x, y, t = _decomposed(oracles.random_density_matrix(rng))
        ends = rng.normal(size=(2, 50, 3))
        ends /= np.linalg.norm(ends, axis=-1, keepdims=True)
        ends *= rng.uniform(0, 1, (2, 50, 1))
        j0, j1 = _kernel.measured_info(x, y, t, ends)
        mid = _kernel.measured_info(x, y, t, ends.mean(axis=0))
        assert np.all(mid <= (j0 + j1) / 2 + 1e-12)


def test_grid_shape_mismatch(rng):
    rho = oracles.random_density_matrix(rng)
    x, y, t = _decomposed(rho)
    with pytest.raises(ValueError):
        _kernel.measured_info_grid(
            x, y, t, np.zeros(4), np.zeros(5), np.zeros((4, 4))
        )


def test_pure_product_measured_info_zero():
    # no correlations at all, every measurement is uninformative
    from qcorr import states

    rho = states.make_product((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    x, y, t = _decomposed(rho)
    for theta, phi in [(0.0, 0.0), (np.pi / 2, 0.0), (1.1, 2.2)]:
        assert abs(_kernel.measured_info(x, y, t, _direction(theta, phi))) <= 1e-12


def test_points_read_per_state_match_one_call_per_point(rng):
    # a trailing state axis of length 1 reads n's last leading axis in one
    # product per state; the same points one call at a time agree
    parts = [_decomposed(oracles.random_density_matrix(rng)) for _ in range(3)]
    x, y, t = (np.array(p)[:, None] for p in zip(*parts))
    n = rng.normal(size=(3, 7, 3))
    n *= rng.uniform(0, 1, (3, 7, 1)) / np.linalg.norm(n, axis=-1, keepdims=True)
    together = _kernel.measured_info(x, y, t, n)
    apart = [[_kernel.measured_info(*p, m) for m in row] for p, row in zip(parts, n)]
    assert together.shape == (3, 7)
    assert np.allclose(together, apart, atol=1e-15)

