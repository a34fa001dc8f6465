"""Constructors for the two-qubit state families used in this package,
validity checking, and the JSON state-file format read by the CLI."""

import json
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .operators import MeasurementBasis

# largest |t_ij|, i != j, still counted as diagonal-correlation class
OFFDIAG_TOL = 1e-9

_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class StateValidity:
    """Outcome of the density-matrix checks; never raises."""

    hermitian: bool
    trace_one: bool
    psd: bool
    min_eigenvalue: float
    in_diagonal_class: bool

    @property
    def valid(self):
        return self.hermitian and self.trace_one and self.psd

    def to_dict(self):
        return {
            "hermitian": self.hermitian,
            "trace_one": self.trace_one,
            "psd": self.psd,
            "min_eigenvalue": self.min_eigenvalue,
            "in_diagonal_class": self.in_diagonal_class,
        }


def validate(matrix):
    """Check a 4x4 matrix against the density-matrix requirements.

    Returns a ``StateValidity`` record with individual flags (Hermitian to
    1e-12, unit trace to 1e-12, eigenvalues above -1e-10) plus whether the
    correlation matrix is diagonal to 1e-9.  A matrix that is not 4x4 or
    has a NaN or infinite entry raises ``InvalidStateError``, as no flag
    applies to it.
    """
    checks = op._checks(op._matrix(matrix, 4))
    failed = checks.failed
    return StateValidity(
        hermitian="hermitian" not in failed,
        trace_one="trace_one" not in failed,
        psd="psd" not in failed,
        min_eigenvalue=float(checks.spectrum[0]),
        in_diagonal_class=not failed
        and op._max_offdiagonal(checks.coords[1:, 1:]) <= OFFDIAG_TOL,
    )


def make_general(x, y, c):
    """State with local Bloch vectors ``x``, ``y`` and diagonal correlations ``c``.

    Builds ``(id4 + sum x_i s_i0 + sum y_j s_0j + sum c_i s_ii) / 4`` and
    checks it as :func:`operators.require_density_matrix` does, so
    parameters that do not give a positive matrix raise
    ``NotPositiveError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape != (3,) or y.shape != (3,) or c.shape != (3,):
        raise ValueError("x, y and c must each have shape (3,)")
    rho = op.compose(x, y, np.diag(c))
    op.require_density_matrix(rho)
    return rho


def make_bell_diagonal(c):
    """State diagonal in the Bell basis with like-axis correlations ``c``."""
    return make_general(np.zeros(3), np.zeros(3), c)


def bell_diagonal_eigenvalues(c):
    """Analytic spectrum of ``make_bell_diagonal(c)``, descending.

    The four Bell projectors have like-axis correlation signs
    (s1, s2, s3) with s1*s2*s3 = -1, giving eigenvalues
    (1 + s1 c1 + s2 c2 + s3 c3) / 4.
    """
    c = np.asarray(c, dtype=float)
    signs = [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]
    vals = [(1.0 + s[0] * c[0] + s[1] * c[1] + s[2] * c[2]) / 4.0 for s in signs]
    return np.sort(np.array(vals))[::-1].copy()


def make_werner(alpha):
    """Mixture of the singlet with the maximally mixed state.

    ``(1 - alpha) id4 / 4 + alpha |psi-><psi-|`` for ``alpha`` in [0, 1].
    Its correlation matrix is ``diag(-alpha, -alpha, -alpha)``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return (1.0 - alpha) * np.eye(4, dtype=complex) / 4.0 + alpha * np.outer(
        _PSI_MINUS, _PSI_MINUS.conj()
    )


def _as_basis_kets(basis, label):
    """Accept a MeasurementBasis, a (theta, phi) pair, or an explicit 2x2
    matrix whose columns are the basis vectors."""
    if isinstance(basis, MeasurementBasis):
        return basis.kets()
    basis_arr = np.asarray(basis)
    if basis_arr.shape == (2,) and basis_arr.dtype != object:
        theta, phi = (float(basis_arr[0]), float(basis_arr[1]))
        return MeasurementBasis(theta=theta, phi=phi).kets()
    if basis_arr.shape == (2, 2):
        u = basis_arr.astype(complex)
        gram = u.conj().T @ u
        if np.max(np.abs(gram - np.eye(2))) > 1e-12:
            raise ValueError(f"basis for qubit {label} is not orthonormal")
        return u[:, 0], u[:, 1]
    raise ValueError(
        f"basis for qubit {label} must be a MeasurementBasis, a (theta, phi) "
        "pair, or a 2x2 matrix of column vectors"
    )


def make_classical(probs, basis_a, basis_b):
    """Classically correlated state: a probability table over a product basis.

    ``sum_ij probs[i, j] |a_i><a_i| (x) |b_j><b_j|`` where the bases are
    given as sphere angles (orthonormal by construction) or as explicit
    column matrices (checked to 1e-12).  ``probs`` must be a 2x2 table of
    nonnegative numbers summing to 1 within 1e-12.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2, 2):
        raise ValueError("probs must be a 2x2 table")
    if np.min(probs) < -1e-15 or abs(float(np.sum(probs)) - 1.0) > 1e-12:
        raise ValueError("probs must be nonnegative and sum to 1")
    kets_a = _as_basis_kets(basis_a, "a")
    kets_b = _as_basis_kets(basis_b, "b")
    rho = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        proj_a = np.outer(kets_a[i], kets_a[i].conj())
        for j in (0, 1):
            proj_b = np.outer(kets_b[j], kets_b[j].conj())
            rho += probs[i, j] * np.kron(proj_a, proj_b)
    return rho


def make_product(bloch_a, bloch_b):
    """Product state from two single-qubit Bloch vectors.

    Each factor is ``(id2 + r . sigma) / 2``; the Bloch vectors must have
    length at most 1.  Note the correlation matrix of the product is the
    outer product of the Bloch vectors, which generally has off-diagonal
    entries.
    """
    factors = []
    for label, r in (("a", bloch_a), ("b", bloch_b)):
        r = np.asarray(r, dtype=float)
        if r.shape != (3,):
            raise ValueError(f"bloch_{label} must have shape (3,)")
        if np.linalg.norm(r) > 1.0 + 1e-12:
            raise ValueError(f"bloch_{label} has length > 1")
        factors.append(
            (
                np.eye(2, dtype=complex)
                + r[0] * op.pauli(1)
                + r[1] * op.pauli(2)
                + r[2] * op.pauli(3)
            )
            / 2.0
        )
    return np.kron(factors[0], factors[1])


def _matrix_from_entries(entries):
    if len(entries) != 16:
        raise ValueError(f"matrix must have 16 entries, got {len(entries)}")
    flat = []
    for k, item in enumerate(entries):
        if isinstance(item, (int, float)):
            flat.append(complex(item))
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            flat.append(complex(float(item[0]), float(item[1])))
        else:
            raise ValueError(
                f"matrix entry {k} must be a number or a [re, im] pair"
            )
    return np.array(flat, dtype=complex).reshape(4, 4)


def parse_state(record):
    """Build a state from a parsed state-file record.

    Two layouts are auto-detected: ``{"matrix": [[re, im] x 16]}`` with
    entries in row-major order, or ``{"x": [..], "y": [..], "c": [..]}``
    with three-vectors of expectation values.  Raises ``ValueError`` on
    malformed records; NaN or infinite numbers raise ``InvalidStateError``
    and positivity failures ``NotPositiveError``.
    """
    if not isinstance(record, dict):
        raise ValueError("state record must be a JSON object")
    if "matrix" in record:
        rho = _matrix_from_entries(record["matrix"])
        op.require_finite(rho)
        return rho
    if {"x", "y", "c"} <= set(record):
        vecs = []
        for key in ("x", "y", "c"):
            v = record[key]
            if not isinstance(v, (list, tuple)) or len(v) != 3:
                raise ValueError(f"field {key!r} must be a list of 3 numbers")
            vecs.append(np.asarray([float(u) for u in v]))
        op.require_finite(vecs)
        return make_general(*vecs)
    raise ValueError(
        "state record must contain either 'matrix' or all of 'x', 'y', 'c'"
    )


def load_state(path):
    """Read a state file (see :func:`parse_state` for the two layouts)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"state file is not valid JSON: {exc}") from exc
    return parse_state(record)


def state_record(rho):
    """Serialize a state to the matrix form of the state-file format.  A
    matrix that is not 4x4 or has a NaN or infinite entry, which no state
    file can hold, raises ``InvalidStateError``."""
    rho = op._matrix(rho, 4)
    op.require_finite(rho)
    entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    return {"matrix": entries}


def save_state(rho, path):
    """Write a state file in the matrix layout; a matrix that
    :func:`state_record` rejects leaves ``path`` as it was."""
    record = state_record(rho)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")
