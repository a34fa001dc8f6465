import numpy as np

import oracles
from qcorr import _kernel
from qcorr import operators as op


def _coords(rho):
    """The (4, 4) Pauli coordinates [[1, y], [x, t]] of a valid ``rho``."""
    return op._valid_checks(op._matrix(rho, 4)).coords


def _direction(theta, phi):
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def test_kernel_matches_matrix_route(rng):
    # the closed form against explicit projectors and partial traces; the two
    # implementations share no code
    for _ in range(10):
        rho = oracles.random_density_matrix(rng)
        c = _coords(rho)
        thetas = rng.uniform(0, np.pi, 6)
        phis = rng.uniform(0, 2 * np.pi, 6)
        expected = oracles.measured_info_matrix_grid(rho, thetas, phis)
        got = np.array(
            [
                [_kernel.measured_info(c, _direction(th, ph)[None])[0] for ph in phis]
                for th in thetas
            ]
        )
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_grid_wrapper_matches_scalar_calls(rng):
    c = _coords(oracles.random_density_matrix(rng))
    thetas = np.linspace(0.1, 3.0, 8)
    phis = np.linspace(0.2, 6.0, 5)
    out = _kernel.measured_info_grid(c, thetas, phis)
    assert out.shape == (8, 5)
    scalar = [
        [_kernel.measured_info(c, _direction(a, b)[None])[0] for b in phis]
        for a in thetas
    ]
    assert np.allclose(out, scalar, atol=1e-14)


def test_stack_matches_single_states(rng):
    parts = [_coords(oracles.random_density_matrix(rng)) for _ in range(4)]
    coords = np.array(parts)
    n = np.array([_direction(*rng.uniform(0, 3, 2)) for _ in range(4)])
    stacked = _kernel.measured_info(coords, n[:, None])[:, 0]
    single = [_kernel.measured_info(c, m[None])[0] for c, m in zip(parts, n)]
    assert np.allclose(stacked, single, atol=1e-15)
    thetas, phis = np.linspace(0.0, 1.5, 3), np.linspace(0.0, 6.0, 4)
    out = _kernel.measured_info_grid(coords, thetas, phis)
    assert out.shape == (4, 3, 4)
    for k, c in enumerate(parts):
        one = _kernel.measured_info_grid(c, thetas, phis)
        assert np.allclose(out[k], one, atol=1e-15)


def test_convex_on_the_bloch_ball(rng):
    # the basis search's power step is sound only because of this
    for _ in range(20):
        c = _coords(oracles.random_density_matrix(rng))
        ends = rng.normal(size=(2, 50, 3))
        ends /= np.linalg.norm(ends, axis=-1, keepdims=True)
        ends *= rng.uniform(0, 1, (2, 50, 1))
        j0, j1 = _kernel.measured_info(c, ends)
        mid = _kernel.measured_info(c, ends.mean(axis=0))
        assert np.all(mid <= (j0 + j1) / 2 + 1e-12)


def test_pure_product_measured_info_zero():
    # no correlations at all, every measurement is uninformative
    from qcorr import states

    rho = states.make_product((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    c = _coords(rho)
    for theta, phi in [(0.0, 0.0), (np.pi / 2, 0.0), (1.1, 2.2)]:
        assert abs(_kernel.measured_info(c, _direction(theta, phi)[None])[0]) <= 1e-12


def test_points_read_per_state_match_one_call_per_point(rng):
    # each state of a stack reads its own row of points in one product; the
    # same points one call at a time agree
    parts = [_coords(oracles.random_density_matrix(rng)) for _ in range(3)]
    n = rng.normal(size=(3, 7, 3))
    n *= rng.uniform(0, 1, (3, 7, 1)) / np.linalg.norm(n, axis=-1, keepdims=True)
    together = _kernel.measured_info(np.array(parts), n)
    apart = [
        [_kernel.measured_info(c, m[None])[0] for m in row] for c, row in zip(parts, n)
    ]
    assert together.shape == (3, 7)
    assert np.allclose(together, apart, atol=1e-15)


def test_entry_00_reads_as_one(rng):
    # the trace in entry [0, 0] of a valid state's coordinates may differ
    # from 1 by up to 1e-12; the kernel reads it as 1 and leaves it as it is
    one = _coords(oracles.random_density_matrix(rng)).copy()
    one[0, 0] = 1.0
    off = one.copy()
    off[0, 0] = 1.0 + 1e-12
    n = rng.normal(size=(20, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    thetas, phis = np.linspace(0.1, 3.0, 4), np.linspace(0.2, 6.0, 5)
    for read in (
        lambda c: _kernel.measured_info(c, n),
        lambda c: _kernel.measured_info_grid(c, thetas, phis),
    ):
        assert read(off).tobytes() == read(one).tobytes()
    assert off[0, 0] == 1.0 + 1e-12
