"""Total, classical and quantum correlations of a two-qubit state.

The classical part is defined through rank-1 projective readout of qubit b:
for a basis ``{|o_0>, |o_1>}`` the measured mutual information is the
entropy of qubit a minus the average entropy of its post-measurement
conditional states.  Maximizing over the readout basis gives the classical
correlation, and quantum discord is the gap to the total mutual
information.

Two evaluation routes exist on purpose.  ``measured_mutual_information``
works directly on projectors and partial traces; the basis search in
``classical_correlation`` runs on the closed-form kernel over expectation
coordinates in ``_kernel``.  The tests pin both routes against each other.

``classical_correlation`` and ``discord`` take one 4x4 state or an
``(N, 4, 4)`` stack; a stack is searched in one batched pass and gives a
list of results.  An exactly Bell-diagonal state takes Luo's closed form
instead (three axis readouts, ``evals`` 3); every other state is searched.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernel
from . import operators as op
from ._kernel import PROB_FLOOR
from .exceptions import OptimizerFailureError, ZeroProbabilityOutcomeError
from .operators import MeasurementBasis

# discord this far below zero is numerical noise and clamps to 0
DISCORD_CLAMP = 1e-8


def mutual_information(rho):
    """Total correlations ``S(rho_a) + S(rho_b) - S(rho)`` in bits; the
    marginal entropies are binary entropies of the Bloch-vector lengths."""
    rho = np.asarray(rho, dtype=complex)
    decomp = op.decompose(rho)
    lengths = np.sqrt([decomp.x @ decomp.x, decomp.y @ decomp.y])
    marginals = _kernel.entropy_of_length(np.minimum(lengths, 1.0))
    return float(marginals.sum()) - op.von_neumann_entropy(rho)


def _projector4(basis, outcome):
    p0, p1 = basis.projectors()
    return np.kron(op.pauli(0), p0 if outcome == 0 else p1)


def outcome_probability(rho, basis, outcome):
    """Probability of ``outcome`` (0 or 1) when qubit b is read out in
    ``basis``."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    rho = np.asarray(rho, dtype=complex)
    op.require_density_matrix(rho)
    return float(np.trace(_projector4(basis, outcome) @ rho).real)


def conditioned_state(rho, basis, outcome):
    """Post-measurement state of qubit a given ``outcome`` on qubit b.

    Raises ``ZeroProbabilityOutcomeError`` when the outcome probability is
    at most 1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    op.require_density_matrix(rho)
    proj = _projector4(basis, outcome)
    prob = float(np.trace(proj @ rho).real)
    if prob <= PROB_FLOOR:
        raise ZeroProbabilityOutcomeError(
            f"outcome {outcome} has probability {prob:.3e}"
        )
    return op.partial_trace(proj @ rho @ proj, "a") / prob


def measured_mutual_information(rho, basis):
    """Information about qubit a retained after reading qubit b in ``basis``.

    ``S(rho_a) - sum_j p_j S(rho_a | outcome j)`` in bits; outcomes with
    probability at most 1e-12 contribute nothing.  Always in [0, 1].  Each
    conditional spectrum is that of the unnormalized block divided by p_j,
    so a small p_j does not magnify the block's rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    op.require_density_matrix(rho)
    s_a = op._entropy_bits(op.eigenvalues_hermitian(op.partial_trace(rho, "a")))
    conditional = 0.0
    for outcome in (0, 1):
        proj = _projector4(basis, outcome)
        prob = float(np.trace(proj @ rho).real)
        if prob <= PROB_FLOOR:
            continue
        block = op.eigenvalues_hermitian(op.partial_trace(proj @ rho @ proj, "a"))
        conditional += prob * op._entropy_bits(block / prob)
    value = s_a - conditional
    if -1e-10 < value < 0.0:
        value = 0.0
    return value


class ClassicalCorrelationResult(NamedTuple):
    j_star: float
    basis: MeasurementBasis
    evals: int


# Basis search.  J(n), the information a readout of qubit b along n leaves
# about qubit a, is convex on the Bloch ball: the conditional entropy is a
# sum of perspectives p h(|v| / p) of the concave binary entropy, taken at
# (p, v) affine in n.  So the step n <- grad J / |grad J| never lowers J
# (the generalized power method of Journee et al., JMLR 11, 517, 2010).  It
# converges only linearly, so each iteration takes a Newton step in the
# tangent plane of the sphere when that raises J, and the power step when
# it does not.  Both come from one stencil of kernel evaluations around
# the current point, and every start of every state of a stack moves in
# the same kernel call.

# upper hemisphere only, as n and -n give the same readout basis
_GRID_THETAS = (np.arange(7) + 0.5) * (np.pi / 14.0)
_GRID_PHIS = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
_GRID_N = np.stack(
    np.broadcast_arrays(
        np.sin(_GRID_THETAS)[:, None] * np.cos(_GRID_PHIS),
        np.sin(_GRID_THETAS)[:, None] * np.sin(_GRID_PHIS),
        np.cos(_GRID_THETAS)[:, None],
    ),
    axis=-1,
).reshape(-1, 3)
# grid points that are distinct starts: more than this apart, n ~ -n
_START_SEPARATION = 0.5
_FAR = (
    np.minimum(
        np.linalg.norm(_GRID_N[:, None] - _GRID_N[None], axis=-1),
        np.linalg.norm(_GRID_N[:, None] + _GRID_N[None], axis=-1),
    )
    > _START_SEPARATION
)
_STARTS = 3

# finite-difference steps: a short one for the gradient, which fixes where
# the search stops, and a longer one for the Hessian, whose rounding error
# grows as 1 / step**2 and would hide the curvature of a nearly flat J
_FD_STEP = 1e-5
_FD_STEP_HESSIAN = 1e-3
# stencil point (a, b, s) is s * exp_n(a e1 + b e2) for the frame (n, e1,
# e2) at n; the last two lie inside the ball, for the radial derivative
_h, _H = _FD_STEP, _FD_STEP_HESSIAN
_STENCIL = np.array(
    [
        (0.0, 0.0, 1.0),
        (_h, 0.0, 1.0),
        (-_h, 0.0, 1.0),
        (0.0, _h, 1.0),
        (0.0, -_h, 1.0),
        (_H, 0.0, 1.0),
        (-_H, 0.0, 1.0),
        (0.0, _H, 1.0),
        (0.0, -_H, 1.0),
        (_H, _H, 1.0),
        (_H, -_H, 1.0),
        (-_H, _H, 1.0),
        (-_H, -_H, 1.0),
        (0.0, 0.0, 1.0 - _h),
        (0.0, 0.0, 1.0 - 2.0 * _h),
    ]
)
_RADIUS = np.hypot(_STENCIL[:, 0], _STENCIL[:, 1])
# weights of the frame rows (n, e1, e2) in each stencil point
_STENCIL_COEF = _STENCIL[:, 2:] * np.stack(
    [
        np.cos(_RADIUS),
        np.sinc(_RADIUS / np.pi) * _STENCIL[:, 0],
        np.sinc(_RADIUS / np.pi) * _STENCIL[:, 1],
    ],
    axis=1,
)
# stencil values -> (J, g1, g2, h11, h12, h22, g_radial): the gradient and
# Hessian in the tangent chart (the Riemannian ones at n) by central
# differences, and n . grad J by a one-sided difference into the ball
_DERIV = np.zeros((len(_STENCIL), 7))
_DERIV[0] = (1.0, 0.0, 0.0, -2.0 / _H**2, 0.0, -2.0 / _H**2, 1.5 / _h)
_DERIV[1:5, 1] = (0.5 / _h, -0.5 / _h, 0.0, 0.0)
_DERIV[1:5, 2] = (0.0, 0.0, 0.5 / _h, -0.5 / _h)
_DERIV[5:9, 3] = (1.0 / _H**2, 1.0 / _H**2, 0.0, 0.0)
_DERIV[5:9, 5] = (0.0, 0.0, 1.0 / _H**2, 1.0 / _H**2)
_DERIV[9:13, 4] = np.array([1.0, -1.0, -1.0, 1.0]) / (4.0 * _H**2)
_DERIV[13:15, 6] = (-2.0 / _h, 0.5 / _h)
del _h, _H
# a point's state: its frame rows (9 numbers), then the 7 derivatives
_J = 9
# curvature magnitude below which J counts as flat along a direction
_CURVATURE_FLOOR = 1e-8
# longest Newton step, in radians; after a Newton step that did not raise
# J, the next one is at most a quarter of it long
_MAX_STEP = 0.5
_SHRINK = 0.25
# a start stops when a step moves it less than _STEP_TOL or gains less
# than _GAIN_TOL; when neither step raises J, it stops if Newton's step was
# that short or, to first order, promised that little
_STEP_TOL = 1e-9
_GAIN_TOL = 1e-15

_EX = np.array([1.0, 0.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])
# index maps of the cross product; where (g_radial, g1, g2) sit in a
# point's derivatives; np.sinc's stand-in for a zero argument
_NEXT, _PREV, _GRAD = np.array([1, 2, 0]), np.array([2, 0, 1]), np.array([6, 1, 2])
_EPS = np.finfo(float).eps


def _frames(n):
    """Orthonormal frames with rows (n, e1, e2), shape (..., 3, 3), where
    e1 and e2 span the tangent plane at the unit vectors ``n``."""
    helper = np.where(np.abs(n[..., 2:]) < 0.9, _EZ, _EX)
    e1 = helper - (helper * n).sum(axis=-1, keepdims=True) * n
    e1 /= np.sqrt((e1 * e1).sum(axis=-1, keepdims=True))
    frames = np.empty(n.shape[:-1] + (3, 3))
    frames[..., 0, :], frames[..., 1, :] = n, e1
    frames[..., 2, :] = n[..., _NEXT] * e1[..., _PREV] - n[..., _PREV] * e1[..., _NEXT]
    return frames


def _probe(x, y, t, n):
    """Frame and stencil derivatives of J at the unit vectors ``n``, packed
    as (..., 16); one kernel call for all of them."""
    frames = _frames(n)
    values = _kernel.measured_info(x, y, t, _STENCIL_COEF @ frames)
    return np.concatenate(
        [frames.reshape(n.shape[:-1] + (9,)), values @ _DERIV], axis=-1
    )


def _newton_steps(d, longest):
    """Tangent-chart steps (a, b) from the derivatives ``d`` (..., 7), at
    most ``longest`` long.

    Along each eigenvector of the Hessian the step is the gradient
    component over the magnitude of the curvature, floored where J is
    flat: Newton's step at a maximum, and a bounded ascent step on a ridge
    or a saddle.
    """
    g1, g2, h11, h12, h22 = (d[..., k] for k in range(1, 6))
    mean = 0.5 * (h11 + h22)
    radius = np.hypot(0.5 * (h11 - h22), h12)
    # eigenvector (c, s) of the larger eigenvalue, (-s, c) of the smaller
    angle = 0.5 * np.arctan2(2.0 * h12, h11 - h22)
    c, s = np.cos(angle), np.sin(angle)
    hi = (g1 * c + g2 * s) / np.maximum(np.abs(mean + radius), _CURVATURE_FLOOR)
    lo = (g2 * c - g1 * s) / np.maximum(np.abs(mean - radius), _CURVATURE_FLOOR)
    a = hi * c - lo * s
    b = hi * s + lo * c
    scale = np.minimum(1.0, longest / np.maximum(np.hypot(a, b), 1e-300))
    return a * scale, b * scale


def _pick_starts(grid):
    """Indices (N, _STARTS) of the highest grid points of each state,
    skipping any point close to one already taken."""
    order = np.argsort(-grid, axis=1, kind="stable")
    picks = order[:, :_STARTS].copy()
    far = np.ones(order.shape, dtype=bool)
    for k in range(1, _STARTS):
        far &= _FAR[picks[:, k - 1, None], order]
        # with no distinct point left, the best one starts again
        picks[:, k] = order[np.arange(len(grid)), far.argmax(axis=1)]
    return picks


# the three like-axis readouts, and the off-diagonal entries of a flat t
_AXES = np.eye(3)
_OFF_DIAGONAL = np.array([1, 2, 3, 5, 6, 7])


def _basis_search(x, y, t, max_evals):
    """Maximize J over readout directions for each state of a stack.

    ``x``, ``y``, ``t`` have shapes (N, 3), (N, 3), (N, 3, 3).  Returns
    J*, the maximizing unit vectors and the evaluations spent, per state.
    A Bell-diagonal state (x = y = 0 and t diagonal, exactly) is read along
    the three axes only, as an axis of its largest |t_kk| is optimal (Luo,
    PRA 77, 042303, 2008); the other states are searched together.  Raises
    ``OptimizerFailureError`` for states none of whose starts settled
    within ``max_evals`` evaluations.
    """
    count = len(x)
    off = t.reshape(count, 9)[:, _OFF_DIAGONAL]
    bell = ~(x.any(axis=1) | y.any(axis=1) | off.any(axis=1))
    rest = np.flatnonzero(~bell)
    first = _GRID_N.shape[0] + _STARTS * len(_STENCIL)
    per_iteration = 2 * _STARTS * len(_STENCIL)
    if (first if rest.size else len(_AXES)) > max_evals:
        raise OptimizerFailureError(
            f"basis search did not converge within {max_evals} evaluations"
        )
    j_star, n_star = np.empty(count), np.empty((count, 3))
    evals = np.full(count, len(_AXES))
    if rest.size < count:
        values = _kernel.measured_info(
            x[bell, None], y[bell, None], t[bell, None], _AXES
        )
        j_star[bell], n_star[bell] = values.max(axis=1), _AXES[values.argmax(axis=1)]
    if not rest.size:
        return j_star, n_star, evals
    x, y, t = x[rest], y[rest], t[rest]
    grid = np.empty((rest.size, _GRID_THETAS.size, _GRID_PHIS.size))
    _kernel.measured_info_grid(x, y, t, _GRID_THETAS, _GRID_PHIS, grid)
    used = np.full(rest.size, first)
    # kernel broadcasting: states, starts, candidates, stencil points
    x, y, t = x[:, None, None, None], y[:, None, None, None], t[:, None, None, None]
    starts = _GRID_N[_pick_starts(grid.reshape(rest.size, _GRID_N.shape[0]))]
    state = _probe(x, y, t, starts[:, :, None])[:, :, 0]
    active = np.ones(starts.shape[:2], dtype=bool)
    settled = np.zeros_like(active)
    longest = np.full(starts.shape[:2], _MAX_STEP)
    chart, candidates = np.empty(starts.shape), np.empty(starts.shape[:2] + (2, 3))
    while True:
        running = active.any(axis=1)
        spent = running & (used + per_iteration > max_evals)
        active[spent] = False
        running &= ~spent
        if not running.any():
            break
        used[running] += per_iteration
        frame = state[..., :_J].reshape(state.shape[:-1] + (3, 3))
        d = state[..., _J:]
        a, b = _newton_steps(d, longest)
        r = np.hypot(a, b)
        # np.sinc(r / pi), by its own arithmetic
        u = np.pi * (r / np.pi)
        u = np.where(u, u, _EPS)
        sinc = np.sin(u) / u
        chart[..., 0] = np.cos(r)
        np.multiply(sinc, a, out=chart[..., 1])
        np.multiply(sinc, b, out=chart[..., 2])
        candidates[..., 0, :] = np.einsum("...k,...kj->...j", chart, frame)
        # grad J = g_radial n + g1 e1 + g2 e2
        grad = np.einsum("...k,...kj->...j", d[..., _GRAD], frame)
        norm = np.sqrt((grad * grad).sum(axis=-1, keepdims=True))
        candidates[..., 1, :] = np.where(
            norm > 0.0, grad / np.where(norm > 0.0, norm, 1.0), frame[..., 0, :]
        )
        probes = _probe(x, y, t, candidates)
        rise = probes[..., _J] > state[..., None, _J]
        newton_rose = rise[..., 0]
        new = np.where(newton_rose[..., None], probes[..., 0, :], probes[..., 1, :])
        moved = active & (newton_rose | rise[..., 1])
        step = np.sqrt(((new[..., :3] - state[..., :3]) ** 2).sum(axis=-1))
        gain = new[..., _J] - state[..., _J]
        # the Newton step's gain to first order
        promised = d[..., 1] * a + d[..., 2] * b
        done = active & np.where(
            moved,
            (step <= _STEP_TOL) | (gain <= _GAIN_TOL),
            (r <= _STEP_TOL) | (promised <= _GAIN_TOL),
        )
        longest = np.where(newton_rose, _MAX_STEP, _SHRINK * r)
        state = np.where(moved[..., None], new, state)
        settled |= done
        active &= ~done
    failed = rest[~settled.any(axis=1)]
    if failed.size:
        where = "" if count == 1 else f" for states {failed.tolist()}"
        raise OptimizerFailureError(
            f"basis search did not converge within {max_evals} evaluations{where}"
        )
    top = state[np.arange(rest.size), state[..., _J].argmax(axis=1)]
    j_star[rest], n_star[rest], evals[rest] = top[:, _J], top[:, :3], used
    return j_star, n_star, evals


def _as_stack(rho):
    """``rho`` as a stack of states, and whether a single state was given."""
    rho = np.asarray(rho, dtype=complex)
    single = rho.ndim != 3
    return (rho[None] if single else rho), single


def classical_correlation(rho, max_evals=20000):
    """Maximum measured mutual information over readout bases of qubit b.

    An exactly Bell-diagonal state (x = y = 0, t diagonal) takes Luo's
    closed form, the best of the three axis readouts (3 evaluations); for
    any other state the best points of a fixed hemisphere grid start
    tangent-plane Newton refinements, with the power step as the fallback.
    Returns the best value, its basis and the evaluations spent; raises
    ``OptimizerFailureError`` if no refinement settles within the budget.
    A stack of states gives a list of results.
    """
    stack, single = _as_stack(rho)
    parts = [op.decompose(state) for state in stack]
    j_star, n_star, evals = _basis_search(
        np.array([p.x for p in parts]).reshape(-1, 3),
        np.array([p.y for p in parts]).reshape(-1, 3),
        np.array([p.t for p in parts]).reshape(-1, 3, 3),
        max_evals,
    )
    results = [
        ClassicalCorrelationResult(
            j_star=float(j), basis=MeasurementBasis.from_bloch(n), evals=int(e)
        )
        for j, n, e in zip(j_star, n_star, evals)
    ]
    return results[0] if single else results


@dataclass(frozen=True)
class DiscordReport:
    """Correlation split of one state, all in bits."""

    mutual_info: float
    classical: float
    discord: float
    basis: MeasurementBasis
    evals: int

    @classmethod
    def split(cls, mutual_info, search):
        """Split ``mutual_info`` by a :func:`classical_correlation` result;
        a discord within 1e-8 below zero is rounding and reads 0."""
        gap = mutual_info - search.j_star
        if -DISCORD_CLAMP <= gap < 0.0:
            gap = 0.0
        return cls(
            mutual_info=mutual_info,
            classical=search.j_star,
            discord=gap,
            basis=search.basis,
            evals=search.evals,
        )

    def to_dict(self):
        return {
            "I": self.mutual_info,
            "J_star": self.classical,
            "D": self.discord,
            "theta_opt": self.basis.theta,
            "phi_opt": self.basis.phi,
            "evals": self.evals,
        }


def discord(rho, **search_options):
    """Quantum discord of a two-qubit state under readout of qubit b.

    ``D = I - J_star``; values within 1e-8 below zero are clamped to 0.
    Keyword options are forwarded to :func:`classical_correlation`.  A
    stack of states gives a list of reports.
    """
    stack, single = _as_stack(rho)
    searches = classical_correlation(stack, **search_options)
    reports = [
        DiscordReport.split(mutual_information(state), search)
        for state, search in zip(stack, searches)
    ]
    return reports[0] if single else reports
