"""Reference values for checking qcorr's outputs, computed without qcorr.

Every quantity here comes from NumPy and closed forms only: its own Pauli
tensor, eigensolves of explicit matrices, Luo's Bell-diagonal discord
(PRA 77, 042303, 2008) and a matrix-route measured-information grid built
from explicit projectors and partial traces.  None of it calls into the
package under test, so a defect there cannot hide in the check.
"""

import numpy as np

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# PAULI_PAIRS[i, j] = sigma_i (x) sigma_j
PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(4, 4, 4, 4)

# like-axis correlation signs of the four Bell states; eigenvalue k of a
# Bell-diagonal state is (1 + BELL_SIGNS[k] . c) / 4
BELL_SIGNS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], float)


def from_coordinates(x, y, t):
    """(id + sum x_i s_i0 + sum y_j s_0j + sum t_ij s_ij) / 4."""
    coeffs = np.zeros((4, 4))
    coeffs[0, 0] = 1.0
    coeffs[1:, 0] = x
    coeffs[0, 1:] = y
    coeffs[1:, 1:] = t
    return np.einsum("ij,ijab->ab", coeffs, PAULI_PAIRS) / 4.0


def entropy_bits(evals):
    evals = np.clip(np.asarray(evals, dtype=float), 0.0, 1.0)
    nz = evals[evals > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _xlog2x(v):
    return 0.0 if v <= 0.0 else v * np.log2(v)


def mutual_information(rho):
    r = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("abcb->ac", r)
    rho_b = np.einsum("abad->bd", r)
    return (
        entropy_bits(np.linalg.eigvalsh(rho_a))
        + entropy_bits(np.linalg.eigvalsh(rho_b))
        - entropy_bits(np.linalg.eigvalsh(rho))
    )


def bell_eigenvalues(c):
    return (1.0 + BELL_SIGNS @ np.asarray(c, dtype=float)) / 4.0


def luo_bell_diagonal(c):
    """Closed-form (I, J*, D) in bits of the Bell-diagonal state with
    like-axis correlations ``c``."""
    mutual = 2.0 + sum(_xlog2x(v) for v in bell_eigenvalues(c))
    top = float(np.max(np.abs(c)))
    classical = 0.5 * (_xlog2x(1.0 - top) + _xlog2x(1.0 + top))
    return mutual, classical, mutual - classical


def bell_negativity(c):
    return max(0.0, float(np.max(bell_eigenvalues(c))) - 0.5)


def pairwise_product_sum(e):
    """sum_{i<j} |e_i e_j|."""
    e = np.abs(np.asarray(e, dtype=float))
    return float((np.sum(e) ** 2 - np.sum(e * e)) / 2.0)


def deterministic_witness(x, y, c):
    """sum_{i<j} |e_i e_j| with e4 at its supremum |x| + |y|."""
    return pairwise_product_sum(np.append(c, np.linalg.norm(x) + np.linalg.norm(y)))


def directions(theta, phi):
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def measured_information(rho, n):
    """Information about qubit a left after a projective readout of qubit b
    along each unit vector in ``n`` (shape (N, 3)), by the matrix route:
    explicit projectors, conditional states and their eigenvalues."""
    n = np.atleast_2d(n)
    r = rho.reshape(2, 2, 2, 2)
    s_a = entropy_bits(np.linalg.eigvalsh(np.einsum("abcb->ac", r)))
    n_sigma = np.einsum("nk,kab->nab", n, PAULI[1:])
    value = np.full(len(n), s_a)
    for sign in (1.0, -1.0):
        proj = (PAULI[0] + sign * n_sigma) / 2.0
        # Tr_b[(id (x) P) rho], unnormalized conditional state of qubit a
        cond = np.einsum("nbc,acdb->nad", proj, r)
        prob = np.einsum("naa->n", cond).real
        live = prob > 1e-12
        evals = np.linalg.eigvalsh(cond[live] / prob[live, None, None])
        evals = np.clip(evals, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(evals > 0.0, -evals * np.log2(evals), 0.0)
        value[live] -= prob[live] * terms.sum(axis=1)
    return value


def grid_maximum(rho):
    """Largest matrix-route measured information on a 1-degree (theta, phi)
    grid over the hemisphere (n and -n give the same readout basis)."""
    thetas = np.radians(np.arange(0.0, 90.5, 1.0))
    phis = np.radians(np.arange(0.0, 360.0, 1.0))
    return max(
        float(np.max(measured_information(rho, directions(theta, phis))))
        for theta in thetas
    )


def werner_row(alpha):
    """Closed-form sweep-werner row for the singlet mixture with weight
    ``alpha``: correlation diagonal (-alpha, -alpha, -alpha)."""
    c = np.full(3, -alpha)
    mutual, _, disc = luo_bell_diagonal(c)
    return {
        "W": 3.0 * alpha * alpha,
        "discord": disc,
        "mutual_info": mutual,
        "negativity": bell_negativity(c),
        "chsh_max": 2.0 * np.sqrt(2.0) * alpha,
    }
