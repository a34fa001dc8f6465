"""Independent verification routes and seeded state samplers for the tests.

The two heavyweight oracles here deliberately avoid the code paths they
check: the measured-information grid works on explicit projectors,
partial traces and eigensolves (never the closed-form kernel), and the
CHSH maximization searches measurement directions on a zooming grid
(never the correlation-matrix eigenvalue formula).
"""

import numpy as np

from qcorr import operators as op
from qcorr import states

PROB_FLOOR = 1e-12


def binary_entropy(p):
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    out = np.zeros_like(p)
    m = p > 0.0
    out[m] -= p[m] * np.log2(p[m])
    m = q > 0.0
    out[m] -= q[m] * np.log2(q[m])
    return out


# ---------------------------------------------------------------- samplers


def random_density_matrix(rng):
    """Full-rank random state: G G^dagger normalized to unit trace."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_in_class_state(rng):
    """Random diagonal-correlation state.

    Draws (x, y, c) uniformly in the cube, then a uniform point on the ray
    towards it inside the positivity region.
    """
    x = rng.uniform(-1.0, 1.0, 3)
    y = rng.uniform(-1.0, 1.0, 3)
    c = rng.uniform(-1.0, 1.0, 3)
    traceless = 4.0 * op.compose(x, y, np.diag(c)) - np.eye(4)
    lam_min = float(np.linalg.eigvalsh(traceless)[0])
    cap = 1.0 if lam_min >= -1.0 else (1.0 / -lam_min) * (1.0 - 1e-9)
    s = rng.uniform(0.0, cap)
    return states.make_general(s * x, s * y, s * c)


def random_bell_diagonal(rng):
    """Uniform c in the positivity tetrahedron, by rejection."""
    while True:
        c = rng.uniform(-1.0, 1.0, 3)
        if float(np.min(states.bell_diagonal_eigenvalues(c))) >= 0.0:
            return states.make_bell_diagonal(c)


def random_chi_state(rng, kind):
    """Random state of one of the four zero-witness shapes (kind 1..4)."""
    if kind in (1, 2, 3):
        c = np.zeros(3)
        c[kind - 1] = rng.uniform(-1.0, 1.0)
        return states.make_bell_diagonal(c)
    if kind == 4:
        mag_x = rng.uniform(0.0, 1.0)
        mag_y = rng.uniform(0.0, 1.0 - mag_x)
        dir_x = rng.normal(size=3)
        dir_y = rng.normal(size=3)
        x = mag_x * dir_x / np.linalg.norm(dir_x)
        y = mag_y * dir_y / np.linalg.norm(dir_y)
        return states.make_general(x, y, np.zeros(3))
    raise ValueError(f"kind must be 1..4, got {kind!r}")


def random_local_unitary(rng):
    """Product of two single-qubit rotations with random axis and angle."""

    def one():
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        gen = sum(axis[k] * op.pauli(k + 1) for k in range(3))
        return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * gen

    return np.kron(one(), one())


def random_rank2_state(rng):
    """Random rank-2 state: G G^dagger with G a complex Gaussian 4x2."""
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ------------------------------------------------ coordinate-route oracles


def decompose_by_traces(rho):
    """(x, y, t) of a two-qubit state from 15 separate traces
    Tr(rho sigma_i (x) sigma_j), one matrix product each."""
    rho = np.asarray(rho, dtype=complex)
    s = [[np.kron(op.pauli(i), op.pauli(j)) for j in range(4)] for i in range(4)]
    x = np.array([np.trace(rho @ s[i][0]).real for i in (1, 2, 3)])
    y = np.array([np.trace(rho @ s[0][j]).real for j in (1, 2, 3)])
    t = np.array([[np.trace(rho @ s[i][j]).real for j in (1, 2, 3)] for i in (1, 2, 3)])
    return x, y, t


def mutual_information_by_eigensolves(rho):
    """S(rho_a) + S(rho_b) - S(rho) from three eigensolves: both reduced
    states by partial trace, and rho itself."""
    entropy = op.von_neumann_entropy
    return (
        entropy(op.partial_trace(rho, "a"))
        + entropy(op.partial_trace(rho, "b"))
        - entropy(rho)
    )


# ------------------------------------------------ closed-form J* oracles


def luo_classical_correlation(c):
    """J* in bits of the Bell-diagonal state with like-axis correlations
    ``c``: 1 - h((1 + max |c_i|) / 2) (Luo, PRA 77, 042303, 2008)."""
    top = float(np.max(np.abs(c)))
    return 1.0 - float(binary_entropy((1.0 + top) / 2.0))


_SIGMA_YY = np.kron(op.pauli(2), op.pauli(2))


def koashi_winter_classical_correlation(rho):
    """J* in bits, for readout of qubit b, of a state of rank at most 2.

    J* = S(a) - E_F(rho_ac), where the qubit c purifies rho_ab (Koashi and
    Winter, PRA 69, 022309, 2004), and E_F follows from Wootters'
    concurrence (PRL 80, 2245, 1998).  The concurrence is
    C = max(0, s1 - s2) over the singular values of the 2x2 matrix
    tau_ij = phi_i^T (sigma_y (x) sigma_y) phi_j, where phi_j = <j|_b psi
    is the unnormalized ensemble of rho_ac read off the purification psi.
    The textbook route through sqrt(eigvals(rho rho~)) is not used: its two
    zero eigenvalues come back as ~1e-16 rounding, and their square roots
    shift C by ~1e-8.
    """
    evals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    # psi[a, b, c] = sum_k sqrt(lambda_k) <ab|v_k> <c|k> over the top two
    weights = np.sqrt(np.clip(evals[2:], 0.0, None))
    psi = (vecs[:, 2:] * weights).reshape(2, 2, 2)
    ensemble = [psi[:, j, :].reshape(4) for j in (0, 1)]
    tau = np.array([[u @ _SIGMA_YY @ v for v in ensemble] for u in ensemble])
    s = np.linalg.svd(tau, compute_uv=False)
    concurrence = max(0.0, float(s[0] - s[1]))
    e_f = float(binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - concurrence**2))) / 2.0))
    return op.von_neumann_entropy(op.partial_trace(rho, "a")) - e_f


# ------------------------------------------- measured-information oracle


def measured_info_matrix_grid(rho, thetas, phis):
    """Measured mutual information on a dense (theta, phi) grid, computed
    the long way: projectors, conjugation, partial traces, eigensolves.

    Returns an array of shape (len(thetas), len(phis)) in bits.
    """
    rho = np.asarray(rho, dtype=complex)
    tg, pg = np.meshgrid(np.asarray(thetas), np.asarray(phis), indexing="ij")
    tg = tg.reshape(-1)
    pg = pg.reshape(-1)
    n = tg.size

    half_c = np.cos(tg / 2.0)
    half_s = np.sin(tg / 2.0)
    phase = np.exp(1j * pg)
    k0 = np.stack([half_c, phase * half_s], axis=1)
    k1 = np.stack([-np.conj(phase) * half_s, half_c], axis=1)

    s_a = op.von_neumann_entropy(op.partial_trace(rho, "a"))
    conditional = np.zeros(n)
    for kets in (k0, k1):
        proj2 = np.einsum("ni,nj->nij", kets, kets.conj())
        proj4 = np.zeros((n, 4, 4), dtype=complex)
        proj4[:, :2, :2] = proj2
        proj4[:, 2:, 2:] = proj2
        probs = np.einsum("nij,ji->n", proj4, rho).real
        conj = proj4 @ rho @ proj4
        reduced = np.einsum("nikjk->nij", conj.reshape(n, 2, 2, 2, 2))
        mask = probs > PROB_FLOOR
        sub = reduced[mask] / probs[mask, None, None]
        evals = np.clip(np.linalg.eigvalsh(sub), 0.0, 1.0)
        logs = np.where(evals > 0.0, np.log2(np.maximum(evals, 1e-300)), 0.0)
        entropies = -np.sum(evals * logs, axis=1)
        contrib = np.zeros(n)
        contrib[mask] = probs[mask] * entropies
        conditional += contrib
    grid = s_a - conditional
    return grid.reshape(len(thetas), len(phis))


# ------------------------------------------------------------ CHSH oracle


def _sphere(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def chsh_brute_force(rho, coarse_n=24, zooms=8, local_n=7):
    """Direct CHSH maximization over measurement directions.

    The two directions on qubit b run over a zooming angle grid; for fixed
    (b, b') the optimal qubit-a directions align with t(b + b') and
    t(b - b'), contributing the norms of those vectors.  Returns
    (value, b, b_prime).
    """
    t = op.decompose(rho).t

    thetas = np.linspace(0.0, np.pi, coarse_n + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, 2 * coarse_n, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    angles = np.stack([tg.reshape(-1), pg.reshape(-1)], axis=1)
    bvecs = _sphere(angles[:, 0], angles[:, 1])
    tb = bvecs @ t.T
    plus = np.linalg.norm(tb[:, None, :] + tb[None, :, :], axis=2)
    minus = np.linalg.norm(tb[:, None, :] - tb[None, :, :], axis=2)
    vals = plus + minus
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = np.array([*angles[i], *angles[j]])
    best_val = float(vals[i, j])

    window = np.pi / coarse_n
    offsets = np.linspace(-1.0, 1.0, local_n)
    for _ in range(zooms):
        grids = np.meshgrid(*(best[k] + window * offsets for k in range(4)),
                            indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        b1 = _sphere(pts[:, 0], pts[:, 1]) @ t.T
        b2 = _sphere(pts[:, 2], pts[:, 3]) @ t.T
        local = np.linalg.norm(b1 + b2, axis=1) + np.linalg.norm(b1 - b2, axis=1)
        k = int(np.argmax(local))
        if local[k] > best_val:
            best_val = float(local[k])
            best = pts[k]
        window *= 0.4

    return best_val, _sphere(best[0], best[1]), _sphere(best[2], best[3])


def chsh_operator(a, a2, b, b2):
    """Explicit CHSH observable for the four measurement directions."""

    def dot(v):
        return sum(v[k] * op.pauli(k + 1) for k in range(3))

    return np.kron(dot(a), dot(b) + dot(b2)) + np.kron(dot(a2), dot(b) - dot(b2))
