"""Entanglement tests: partial transpose, negativity and the CHSH maximum.

The CHSH maximum uses the correlation-matrix form
``2 sqrt(m1 + m2)`` with m1, m2 the two largest eigenvalues of t^T t.
For the singlet mixture family this crosses the classical bound 2 at
mixing parameter 1/sqrt(2), not at 1/2; the tests pin the formula against
direct maximization over measurement directions.
"""

from dataclasses import dataclass

import numpy as np

from . import operators as op

PPT_TOL = 1e-10
CHSH_TOL = 1e-10

CHSH_THRESHOLD_NOTE = (
    "CHSH violation for the singlet mixture starts at alpha = 1/sqrt(2) "
    "~= 0.7071 (correlation-matrix maximum 2 sqrt(2) alpha, validated by "
    "direct maximization); the often-quoted alpha >= 1/2 refers to a "
    "different convention and is not used here."
)


def partial_transpose(rho, subsystem="b"):
    """Transpose the indices of one qubit of a 4x4 matrix.

    An index map: any 4x4 matrix is taken and none is validated.  For a
    state the output is Hermitian with unit trace but may have negative
    eigenvalues; for two qubits a negative eigenvalue is equivalent to
    entanglement.  The spectra for ``subsystem="a"`` and ``"b"`` coincide.
    """
    r = op._matrix(rho, 4).reshape(2, 2, 2, 2)
    if subsystem == "b":
        return r.transpose(0, 3, 2, 1).reshape(4, 4)
    if subsystem == "a":
        return r.transpose(2, 1, 0, 3).reshape(4, 4)
    raise ValueError(f"subsystem must be 'a' or 'b', got {subsystem!r}")


def _pt_spectrum(rho):
    """Partial-transpose eigenvalues, descending, and the negativity."""
    # rho is validated first, and a partial transpose only permutes its
    # entries, so the transpose is no further from Hermitian than rho
    pt = partial_transpose(rho)
    evals = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[::-1]
    # + 0.0 turns the empty-sum -0.0 into a plain zero
    return evals, float(-np.sum(evals[evals < 0.0]) + 0.0)


def negativity(rho):
    """Sum of |negative eigenvalues| of the partial transpose."""
    op.require_density_matrix(rho)
    return _pt_spectrum(rho)[1]


def chsh_maximum(rho):
    """Largest CHSH expectation over measurement directions.

    Equals ``2 sqrt(m1 + m2)`` where m1 >= m2 are the two largest
    eigenvalues of ``t^T t`` for the correlation matrix ``t``.
    """
    t = op.decompose(rho).t
    m = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * np.sqrt(max(m[-1] + m[-2], 0.0)))


@dataclass(frozen=True)
class EntanglementReport:
    """Partial-transpose and CHSH summary of one state."""

    min_pt_eigenvalue: float
    negativity: float
    ppt: bool
    chsh_max: float
    chsh_violated: bool

    def to_dict(self):
        return {
            "min_pt_eig": self.min_pt_eigenvalue,
            "negativity": self.negativity,
            "ppt": self.ppt,
            "chsh_max": self.chsh_max,
            "chsh_violated": self.chsh_violated,
        }


def entanglement_report(rho):
    """Run both entanglement tests on one state.

    ``ppt`` is true when the partial transpose has no eigenvalue below
    -1e-10 (separable for two qubits); ``chsh_violated`` when the CHSH
    maximum exceeds 2 by more than 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    chsh = chsh_maximum(rho)
    evals, neg = _pt_spectrum(rho)
    lo = float(evals[-1])
    return EntanglementReport(
        min_pt_eigenvalue=lo,
        negativity=neg,
        ppt=lo >= -PPT_TOL,
        chsh_max=chsh,
        chsh_violated=chsh > 2.0 + CHSH_TOL,
    )
