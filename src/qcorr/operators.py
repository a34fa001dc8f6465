"""Exact operator algebra for one- and two-qubit Hermitian matrices.

Everything downstream (state constructors, witness, discord, entanglement
tests, readout simulation) is built on the helpers in this module: Pauli
matrices and their tensor products, the expectation-value decomposition of
a two-qubit density matrix and its inverse, partial traces and the von
Neumann entropy in bits.

All functions treat states as plain ``numpy.ndarray`` objects and never
mutate their arguments.

Every function of the package that returns a quantity of a state
validates that state; ``partial_trace`` and the partial transpose only
move indices and never do.  ``_checks`` is the one place that holds a
matrix against the Hermiticity, trace and positivity tolerances; its record
names each failed check with its error.  One slot keeps the record of the
last 4x4 matrix checked (spectrum, Pauli coordinates, failed checks); a
later check reuses it only for a matrix with the same bytes, so the calls
on one state share one eigensolve and an array edited in place is checked
afresh.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidStateError, NotPositiveError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

_ID2 = np.eye(2, dtype=complex)
_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = (_ID2, _SIGMA1, _SIGMA2, _SIGMA3)

# two-qubit Pauli products sigma_i (x) sigma_j, cached once
_PAULI4 = tuple(
    tuple(np.kron(_PAULIS[i], _PAULIS[j]) for j in range(4)) for i in range(4)
)
# row 4 i + j reads Tr(rho s_ij) = sum_kl rho_kl (s_ij)_lk off the 16
# entries of rho in row-major order, so one product gives all coordinates
_COORD = np.array([_PAULI4[i][j].T.reshape(16) for i in range(4) for j in range(4)])
_OFFDIAGONAL = ~np.eye(3, dtype=bool)


def pauli(i):
    """Return a copy of the single-qubit Pauli matrix with index ``i``.

    Index 0 is the identity, 1..3 are the x, y, z Pauli matrices.
    """
    if i not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {i!r}")
    return _PAULIS[i].copy()


def tensor(a, b):
    """Kronecker product of two operators, ``a`` acting first."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def require_finite(m):
    """Raise ``InvalidStateError`` if an entry of ``m`` is NaN or infinite."""
    m = np.asarray(m)
    finite = np.isfinite(m)
    if not finite.all():
        raise InvalidStateError(f"matrix has a non-finite entry ({m[~finite][0]})")


class _Checks(NamedTuple):
    """What the density-matrix checks read off one finite square matrix."""

    key: bytes
    spectrum: np.ndarray  # ascending eigenvalues of the Hermitian part
    coords: np.ndarray  # <sigma_i (x) sigma_j> at [i, j]; None unless 4x4
    # validity flag -> maker of its error, for each failed check in order
    failed: dict


# the checks of the last 4x4 matrix checked; replaced whole, never edited
_last_checks = None


def _checks(m):
    """The checks of a complex square array; a 4x4 array's come from the
    slot, when it was made from the same bytes, or are made and put there.
    A non-finite entry raises ``InvalidStateError`` and is never kept."""
    global _last_checks
    checks = _last_checks
    if checks is None or m.shape != (4, 4) or checks.key != m.tobytes():
        require_finite(m)
        adjoint = m.conj().T
        spectrum = np.linalg.eigvalsh((m + adjoint) / 2.0)
        spectrum.flags.writeable = False
        defect = float(abs(m - adjoint).max())
        trace_err = abs(complex(m.trace()) - 1.0)
        failed = {}
        if defect > HERMITICITY_TOL:
            message = f"matrix is not Hermitian (defect {defect:.3e})"
            failed["hermitian"] = partial(InvalidStateError, message)
        if trace_err > TRACE_TOL:
            message = f"trace differs from 1 by {trace_err:.3e}"
            failed["trace_one"] = partial(InvalidStateError, message)
        if spectrum[0] < -PSD_TOL:
            failed["psd"] = partial(NotPositiveError, float(spectrum[0]))
        coords = None
        if m.shape == (4, 4):
            coords = (_COORD @ m.reshape(16)).real.reshape(4, 4)
            coords.flags.writeable = False
        checks = _Checks(m.tobytes(), spectrum, coords, failed)
        if coords is not None:
            _last_checks = checks
    return checks


def _valid_checks(m):
    """The checks of a complex square array that passes them all; the first
    failed check raises its error."""
    checks = _checks(m)
    for error in checks.failed.values():
        raise error()
    return checks


def _matrix(m, size=None):
    """``m`` as a complex array; ``InvalidStateError`` unless it is a
    non-empty square matrix, with ``size`` rows when that is given."""
    m = np.asarray(m, dtype=complex)
    square = m.ndim == 2 and m.shape[0] == m.shape[1] > 0
    if not square or size not in (None, m.shape[0]):
        wanted = "square" if size is None else f"{size}x{size}"
        raise InvalidStateError(f"expected a {wanted} matrix, got shape {m.shape}")
    return m


def require_density_matrix(rho):
    """Raise ``InvalidStateError`` unless ``rho`` is a valid 4x4 density matrix.

    Valid means finite, Hermitian to 1e-12, unit trace to 1e-12 and positive
    semidefinite with eigenvalues no lower than -1e-10.  The first failed
    check raises; a negative eigenvalue raises ``NotPositiveError``.
    """
    _valid_checks(_matrix(rho, 4))


@dataclass(frozen=True)
class PauliDecomposition:
    """Expectation-value coordinates of a two-qubit state.

    ``x`` and ``y`` are the local Bloch vectors of qubits a and b,
    ``t`` is the 3x3 correlation matrix ``t[i, j] = <sigma_i (x) sigma_j>``.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def diagonal_correlations(self):
        """The three like-axis correlations (t11, t22, t33)."""
        return np.diagonal(self.t).copy()

    def max_offdiagonal(self):
        """Largest |t[i, j]| with i != j."""
        return _max_offdiagonal(self.t)


def _max_offdiagonal(t):
    return float(abs(t[_OFFDIAGONAL]).max())


def decompose(rho):
    """Expectation-value decomposition of a two-qubit density matrix.

    Returns a ``PauliDecomposition`` with
    ``x[i] = Tr(rho sigma_i (x) id)``, ``y[j] = Tr(rho id (x) sigma_j)``
    and ``t[i, j] = Tr(rho sigma_i (x) sigma_j)``, all 16 traces taken in
    one product with a constant matrix.  Imaginary residues of the traces
    (at most 1e-12 for valid input) are discarded.
    """
    c = _valid_checks(_matrix(rho, 4)).coords.copy()
    return PauliDecomposition(x=c[1:, 0], y=c[0, 1:], t=c[1:, 1:])


def compose(x, y, t):
    """Rebuild the 4x4 matrix from expectation-value coordinates.

    Inverse of :func:`decompose`:
    ``rho = (id4 + sum x_i s_i0 + sum y_j s_0j + sum t_ij s_ij) / 4``
    where ``s_ij = sigma_i (x) sigma_j``.  No validity check is applied;
    arbitrary coordinates may produce a non-positive matrix.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if x.shape != (3,) or y.shape != (3,) or t.shape != (3, 3):
        raise ValueError("expected x, y of shape (3,) and t of shape (3, 3)")
    rho = _PAULI4[0][0].astype(complex)
    for i in range(3):
        rho = rho + x[i] * _PAULI4[i + 1][0]
        rho = rho + y[i] * _PAULI4[0][i + 1]
        for j in range(3):
            rho = rho + t[i, j] * _PAULI4[i + 1][j + 1]
    return rho / 4.0


def partial_trace(rho, keep="a"):
    """Trace out one qubit of a 4x4 matrix.

    ``keep="a"`` returns the reduced matrix of the first qubit, ``keep="b"``
    the second.  An index map: any 4x4 matrix is taken and none is
    validated, since the output of a non-state is in general not a state.
    """
    r = _matrix(rho, 4).reshape(2, 2, 2, 2)
    if keep == "a":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "b":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def von_neumann_entropy(rho):
    """von Neumann entropy in bits of a density matrix of any dimension.

    The input must be a square matrix and pass the checks of
    :func:`require_density_matrix`, with the same tolerances and errors,
    whatever its size.  Eigenvalues are
    clipped to [0, 1] before taking logarithms; zero eigenvalues contribute
    nothing.
    """
    checks = _valid_checks(_matrix(rho))
    return _entropy_bits(checks.spectrum[::-1])


def _entropy_bits(evals):
    """-sum l log2 l over a descending spectrum clipped to [0, 1]."""
    evals = np.clip(evals, 0.0, 1.0)
    nz = evals[evals > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


@dataclass(frozen=True)
class MeasurementBasis:
    """Single-qubit orthonormal basis parameterized by sphere angles.

    The first basis vector is ``cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>``
    and the second is its orthogonal complement, so orthonormality holds by
    construction.  ``theta`` must lie in [0, pi] and ``phi`` in [0, 2 pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi must be in [0, 2 pi), got {self.phi}")

    def kets(self):
        """The two basis vectors as length-2 complex arrays."""
        c = np.cos(self.theta / 2.0)
        s = np.sin(self.theta / 2.0)
        phase = np.exp(1j * self.phi)
        k0 = np.array([c, phase * s], dtype=complex)
        k1 = np.array([-np.conj(phase) * s, c], dtype=complex)
        return k0, k1

    def projectors(self):
        """Rank-1 projectors onto the two basis vectors."""
        k0, k1 = self.kets()
        return np.outer(k0, k0.conj()), np.outer(k1, k1.conj())

    def bloch(self):
        """Bloch vector of the first basis vector."""
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )

    @classmethod
    def from_bloch(cls, n):
        """Basis whose first vector points along the unit vector ``n``."""
        n = np.asarray(n, dtype=float)
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"direction must be a unit vector, |n| = {norm}")
        theta = float(np.arctan2(np.hypot(n[0], n[1]), n[2]))
        # a tiny negative angle taken modulo 2 pi rounds to 2 pi itself
        phi = float(np.arctan2(n[1], n[0])) % (2.0 * np.pi)
        if phi >= 2.0 * np.pi:
            phi = 0.0
        return cls(theta=theta, phi=phi)
