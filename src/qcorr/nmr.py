"""Readout protocol mapping two-spin correlations onto one-spin signals.

An ensemble measurement can read single-spin magnetizations but not
two-spin correlation functions directly.  The protocol sidesteps this with
global unitaries: a controlled-NOT folds the like-axis correlation
``<sigma_1 (x) sigma_1>`` onto the x magnetization of spin a, and pairs of
pi/2 rotations relabel the other two axes onto axis 1 first,

    <sigma_1 (x) sigma_1>_rho = <sigma_1 (x) id>_eta,    eta  = C rho C
    <sigma_2 (x) sigma_2>_rho = <sigma_1 (x) id>_zeta,   zeta = C R3 rho R3' C
    <sigma_3 (x) sigma_3>_rho = <sigma_1 (x) id>_xi,     xi   = C R2 rho R2' C

with C the controlled-NOT (a controls b), R_k a pi/2 rotation of both
spins about axis k, and the prime denoting the adjoint.  Shot sampling of
each magnetization models the finite-statistics experiment, and
``witness_via_protocol`` assembles the classicality witness from these
readouts alone.

``run_protocol`` builds the three transformed states and reads each.
``witness_via_protocol`` reads the same numbers in the Heisenberg picture,
as expectations in rho of the fixed observables U' (sigma_1 (x) id) U of
the circuits U = C, C R3, C R2: the identity ``run_protocol`` checks.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import operators as op
from . import witness as wit

_SIGMA1A = op.tensor(op.pauli(1), op.pauli(0))

EXACT_RESIDUAL_TOL = 1e-12
# sampled-mode residual gate in units of standard error
SAMPLED_RESIDUAL_SIGMAS = 5.0
# witness-is-zero gate in units of propagated standard error
WITNESS_SIGMAS = 3.0


def cnot_ab():
    """Controlled-NOT with spin a controlling spin b.

    ``|0><0| (x) id + |1><1| (x) sigma_1``; Hermitian and self-inverse.
    """
    gate = np.zeros((4, 4), dtype=complex)
    gate[:2, :2] = op.pauli(0)
    gate[2:, 2:] = op.pauli(1)
    return gate


def rotation_pair(axis):
    """pi/2 rotation of both spins about ``axis`` (2 or 3).

    Each factor is ``cos(pi/4) id - i sin(pi/4) sigma_axis``.
    """
    if axis not in (2, 3):
        raise ValueError(f"axis must be 2 or 3, got {axis!r}")
    c = math.cos(math.pi / 4.0)
    s = math.sin(math.pi / 4.0)
    single = c * op.pauli(0) - 1j * s * op.pauli(axis)
    return np.kron(single, single)


_CNOT = cnot_ab()
_R3 = rotation_pair(3)
_R2 = rotation_pair(2)
# U' (sigma_1 (x) id) U for U = C, C R3, C R2, as rows that read the
# expectation off the 16 entries of rho in row-major order
_READOUTS = np.array(
    [
        (u.conj().T @ _SIGMA1A @ u).T.reshape(16)
        for u in (_CNOT, _CNOT @ _R3, _CNOT @ _R2)
    ]
)


@dataclass(frozen=True)
class ProtocolRun:
    """One pass of the readout protocol.

    ``m_eta``, ``m_zeta``, ``m_xi`` are the x magnetizations of spin a in
    the three transformed states (exact values, or sampled estimates when
    ``shots`` is set); ``residuals`` compares each against the like-axis
    correlation of the input state.
    """

    eta: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray
    m_eta: float
    m_zeta: float
    m_xi: float
    residuals: Tuple[float, float, float]
    shots: Optional[int]
    seed: Optional[int]
    stderrs: Optional[Tuple[float, float, float]] = None

    def magnetizations(self):
        return (self.m_eta, self.m_zeta, self.m_xi)

    def to_dict(self):
        record = {
            "m_eta": self.m_eta,
            "m_zeta": self.m_zeta,
            "m_xi": self.m_xi,
            "residuals": list(self.residuals),
            "shots": self.shots if self.shots is not None else "exact",
            "seed": self.seed,
        }
        if self.stderrs is not None:
            record["stderrs"] = list(self.stderrs)
        return record


def transform_states(rho):
    """Exact protocol pass: transformed states and their magnetizations.

    The residuals |m - <sigma_i (x) sigma_i>| are rounding-level (below
    1e-12) for any valid state.
    """
    rho = np.asarray(rho, dtype=complex)
    c = op.decompose(rho).diagonal_correlations()
    eta = _CNOT @ rho @ _CNOT
    zeta = _CNOT @ (_R3 @ rho @ _R3.conj().T) @ _CNOT
    xi = _CNOT @ (_R2 @ rho @ _R2.conj().T) @ _CNOT
    # Tr(s (sigma_1 (x) id)) of each; the transformed states are not
    # checked, so the slot keeps the record of rho
    ms = tuple(float(np.trace(s @ _SIGMA1A).real) for s in (eta, zeta, xi))
    residuals = tuple(float(abs(ms[i] - c[i])) for i in range(3))
    return ProtocolRun(
        eta=eta,
        zeta=zeta,
        xi=xi,
        m_eta=ms[0],
        m_zeta=ms[1],
        m_xi=ms[2],
        residuals=residuals,
        shots=None,
        seed=None,
    )


def _sample_pm1(exact, shots, rng):
    """Shot-sample a +-1 observable with mean ``exact``.

    Returns the sample mean and the plug-in standard error
    ``sqrt((1 - mean^2) / shots)``; a mean of +-1 has zero spread.
    """
    p_up = min(max(0.5 * (1.0 + exact), 0.0), 1.0)
    ups = rng.binomial(shots, p_up)
    mean = (2.0 * ups - shots) / shots
    stderr = math.sqrt(max(1.0 - mean * mean, 0.0) / shots)
    return float(mean), float(stderr)


def run_protocol(rho, shots=None, seed=None):
    """Protocol pass, exact or shot-sampled.

    With ``shots`` set, the three magnetizations are sampled independently
    from one seeded stream and ``residuals`` measures each estimate
    against the exact correlation; ``stderrs`` carries the per-channel
    standard errors.
    """
    rho = np.asarray(rho, dtype=complex)
    c = op.decompose(rho).diagonal_correlations()
    exact = transform_states(rho)
    if shots is None:
        return exact
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    (m1, s1), (m2, s2), (m3, s3) = [
        _sample_pm1(m, shots, rng) for m in exact.magnetizations()
    ]
    return replace(
        exact,
        m_eta=m1,
        m_zeta=m2,
        m_xi=m3,
        residuals=tuple(float(abs(m - ci)) for m, ci in zip((m1, m2, m3), c)),
        shots=int(shots),
        seed=seed,
        stderrs=(s1, s2, s3),
    )


def _witness_stderr(e, errs):
    """First-order spread of sum_{i<j} |e_i e_j| with independent errors."""
    var = 0.0
    for k in range(4):
        slope = sum(abs(e[j]) for j in range(4) if j != k)
        var += (slope * errs[k]) ** 2
    return math.sqrt(var)


def witness_via_protocol(
    rho,
    shots=None,
    directions=None,
    seed=None,
):
    """Classicality witness assembled from protocol readouts only.

    The three like-axis correlations come from the protocol
    magnetizations, read as fixed Heisenberg-picture observables; the
    direction-pair expectation comes from separate local readouts of
    ``z . sigma`` on spin a and ``w . sigma`` on spin b, whose exact values
    are z . x and w . y.

    Exact mode (``shots=None``) reproduces ``witness_value`` in randomized
    mode with the same single direction pair to rounding precision.

    Sampled mode propagates the shot noise through the product terms and
    certifies a zero witness when the value is within 3 propagated
    standard errors of zero.
    """
    rho = np.asarray(rho, dtype=complex)
    decomp = op.decompose(rho)
    wit._require_in_class(decomp)
    rng = np.random.default_rng(seed)
    if directions is None:
        directions = wit.DirectionPair.random(rng)

    magnetizations = [float(m) for m in (_READOUTS @ rho.reshape(16)).real]
    za_exact = float(directions.z @ decomp.x)
    wb_exact = float(directions.w @ decomp.y)

    if shots is None:
        e = (*magnetizations, za_exact + wb_exact)
        value = wit.pairwise_product_sum(e)
        verdict = wit._verdict(value, decomp, wit.ZERO_TOL)
        stderr = None
    else:
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        # this draw order fixes the sampled record of a given seed
        (m1, s1), (m2, s2), (m3, s3), (za, za_err), (wb, wb_err) = [
            _sample_pm1(m, shots, rng) for m in (*magnetizations, za_exact, wb_exact)
        ]
        e = (m1, m2, m3, za + wb)
        errs = (s1, s2, s3, math.hypot(za_err, wb_err))
        value = wit.pairwise_product_sum(e)
        stderr = _witness_stderr(e, errs)
        verdict = wit._verdict(value, decomp, WITNESS_SIGMAS * stderr)

    form = (
        wit.matched_form(decomp.x, decomp.y, decomp.diagonal_correlations())
        if verdict is wit.Verdict.CLASSICAL
        else "none"
    )
    return wit.WitnessReport(
        expectations=e,
        value=float(value),
        mode="protocol-exact" if shots is None else "protocol-sampled",
        n_trials=1,
        seed=seed,
        verdict=verdict,
        matched_form=form,
        value_stderr=stderr,
    )
