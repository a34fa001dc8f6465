"""Total, classical and quantum correlations of a two-qubit state.

The classical part is defined through rank-1 projective readout of qubit b:
for a basis ``{|o_0>, |o_1>}`` the measured mutual information is the
entropy of qubit a minus the average entropy of its post-measurement
conditional states.  Maximizing over the readout basis gives the classical
correlation, and quantum discord is the gap to the total mutual
information.

The measured mutual information is evaluated in one place: the
closed-form kernel over expectation coordinates in ``_kernel``.  The tests
pin it against an independent route through projectors, partial traces
and eigensolves (``tests/oracles.py``).

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
from .exceptions import OptimizerFailureError
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
# the current point.  Each (state, start) pair is one row of flat
# (rows, ...) arrays, and every running row of every state of a stack
# moves in the same kernel call; a row that stops leaves them.

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
# |n - m|^2 = 2 - 2 n.m for unit vectors, so the nearer of m and -m is
# 2 - 2 |n.m| away, squared
_FAR = 2.0 - 2.0 * np.abs(_GRID_N @ _GRID_N.T) > _START_SEPARATION**2
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
# n @ _CROSS is (n x e_z, n x e_x)
_CROSS = np.array(
    [
        [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    ]
)
# added to g_radial, so a zero gradient reads as n
_NUDGE = 1e-150
# sin(r) / max(r, _EPS) is 0 at r = 0
_EPS = np.finfo(float).eps


def _frames(n):
    """Orthonormal frames (..., 3, 3) with rows (n, e1, e2) at the unit
    vectors ``n``: e1 is the helper axis (z, or x near z) less its part
    ``along`` n, and e2 = n x e1, both sqrt(1 - along^2) long unscaled."""
    z = np.abs(n[..., 2:]) < 0.9
    along = np.where(z, n[..., 2:], n[..., :1])
    frames = np.empty(n.shape[:-1] + (3, 3))
    frames[..., 0, :] = n
    frames[..., 1, :] = np.where(z, _EZ, _EX) - along * n
    cross = n @ _CROSS
    frames[..., 2, :] = np.where(z, cross[..., :3], cross[..., 3:])
    frames[..., 1:, :] /= np.sqrt(1.0 - along * along)[..., None]
    return frames


def _split(coords):
    """Views x, y, t of flat coordinates (..., 15)."""
    t = coords[..., 6:].reshape(coords.shape[:-1] + (3, 3))
    return coords[..., :3], coords[..., 3:6], t


def _probe(coords, frames):
    """Frames (rows, candidates, 3, 3) and the stencil derivatives of J at
    their points n, as (rows, candidates, 16); one kernel call for all."""
    points = (_STENCIL_COEF @ frames).reshape(len(frames), -1, 3)
    values = _kernel.measured_info(*_split(coords), points)
    values = values.reshape(frames.shape[:-2] + (len(_STENCIL),))
    frames = frames.reshape(frames.shape[:-2] + (9,))
    return np.concatenate([frames, values @ _DERIV], axis=-1)


def _newton_steps(d, longest):
    """Tangent-chart steps (a, b) at most ``longest`` long, and their
    lengths, from the derivatives ``d`` (rows, 7).  Along each eigenvector
    of the Hessian the step is the gradient component over the magnitude of
    the curvature, floored where J is flat: Newton's step at a maximum, and
    a bounded ascent step on a ridge or a saddle."""
    g1, g2, h11, h12, h22 = (d[:, k] for k in range(1, 6))
    mean = 0.5 * (h11 + h22)
    half_gap = 0.5 * (h11 - h22)
    radius = np.hypot(half_gap, h12)
    # eigenvector (c, s) of the larger eigenvalue, (-s, c) of the smaller
    angle = 0.5 * np.arctan2(h12, half_gap)
    c, s = np.cos(angle), np.sin(angle)
    hi = (g1 * c + g2 * s) / np.maximum(np.abs(mean + radius), _CURVATURE_FLOOR)
    lo = (g2 * c - g1 * s) / np.maximum(np.abs(mean - radius), _CURVATURE_FLOOR)
    a = hi * c - lo * s
    b = hi * s + lo * c
    length = np.hypot(a, b)
    r = np.minimum(length, longest)
    scale = r / np.maximum(length, 1e-300)
    return a * scale, b * scale, r


_GRID_FRAMES = _frames(_GRID_N)


def _pick_starts(grid):
    """Indices (N, _STARTS) of the highest grid points of each state,
    skipping any point close to one taken (two never cover the grid)."""
    picks = np.empty((len(grid), _STARTS), dtype=int)
    picks[:, 0] = grid.argmax(axis=1)
    far = _FAR[picks[:, 0]]
    for k in range(1, _STARTS):
        picks[:, k] = np.where(far, grid, -np.inf).argmax(axis=1)
        far &= _FAR[picks[:, k]]
    return picks


# the three like-axis readouts, and the entries of a flat (x, y, t) that
# are zero for a Bell-diagonal state
_AXES = np.eye(3)
_NOT_BELL = np.array([0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13])


def _basis_search(coords, max_evals):
    """Maximize J over readout directions for each state of a stack with
    flat coordinates (x, y, t) ``coords`` (N, 15).  Returns J*, the
    maximizing unit vectors and the evaluations spent, per state.  A
    Bell-diagonal state (x = y = 0 and t diagonal, exactly) is read along
    the three axes only, as an axis of its largest |t_kk| is optimal (Luo,
    PRA 77, 042303, 2008); the other states are searched together, one row
    per (state, start).  Raises ``OptimizerFailureError`` for states none
    of whose starts settled within ``max_evals`` evaluations.
    """
    count = len(coords)
    bell = ~coords[:, _NOT_BELL].any(axis=1)
    rest = np.flatnonzero(~bell)
    first = _GRID_N.shape[0] + _STARTS * len(_STENCIL)
    per_round = 2 * _STARTS * len(_STENCIL)
    if (first if rest.size else len(_AXES)) > max_evals:
        raise OptimizerFailureError(
            f"basis search did not converge within {max_evals} evaluations"
        )
    j_star, n_star = np.empty(count), np.empty((count, 3))
    evals = np.full(count, len(_AXES))
    if rest.size < count:
        values = _kernel.measured_info(*_split(coords[bell, None]), _AXES)
        j_star[bell], n_star[bell] = values.max(axis=1), _AXES[values.argmax(axis=1)]
        coords = coords[rest]
    if not rest.size:
        return j_star, n_star, evals
    grid = np.empty((rest.size, _GRID_THETAS.size, _GRID_PHIS.size))
    _kernel.measured_info_grid(*_split(coords), _GRID_THETAS, _GRID_PHIS, grid)
    # row s * _STARTS + k is start k of state s, with its coordinates on an
    # axis of length 1, along which the kernel reads its stencil points
    coords = coords.repeat(_STARTS, axis=0)[:, None]
    picks = _pick_starts(grid.reshape(rest.size, _GRID_N.shape[0]))
    state = _probe(coords, _GRID_FRAMES[picks.reshape(-1, 1)])[:, 0]
    # the running rows by index, and what each stopped one left: its final
    # state, whether it settled and the rounds it ran
    rows = np.arange(len(state))
    longest = np.full(len(state), _MAX_STEP)
    final = np.empty_like(state)
    ran = np.zeros(len(state), dtype=int)
    settled = np.zeros(len(state), dtype=bool)
    # every running state has spent first + per_round * rounds evaluations
    rounds = 0
    for rounds in range(1, (max_evals - first) // per_round + 1):
        frame = state[:, :_J].reshape(-1, 3, 3)
        d = state[:, _J:]
        a, b, r = _newton_steps(d, longest)
        # the Newton candidate exp_n(a e1 + b e2) and the power candidate
        # grad J / |grad J|, grad J = g_radial n + g1 e1 + g2 e2, as weights
        # of the frame rows; grad J = 0 reads as n
        weights = np.empty((len(r), 2, 3))
        sinc = np.sin(r) / np.maximum(r, _EPS)
        weights[:, 0, 0] = np.cos(r)
        np.multiply(sinc, a, out=weights[:, 0, 1])
        np.multiply(sinc, b, out=weights[:, 0, 2])
        radial = d[:, 6] + _NUDGE
        scale = 1.0 / np.hypot(np.hypot(radial, d[:, 1]), d[:, 2])
        np.multiply(radial, scale, out=weights[:, 1, 0])
        np.multiply(d[:, 1], scale, out=weights[:, 1, 1])
        np.multiply(d[:, 2], scale, out=weights[:, 1, 2])
        probes = _probe(coords, _frames(weights @ frame))
        j = state[:, _J]
        rise = probes[:, :, _J] > j[:, None]
        newton_rose = rise[:, 0]
        moved = newton_rose | rise[:, 1]
        new = np.where(newton_rose[:, None], probes[:, 0], probes[:, 1])
        # a row that moved stops on a short step or a small gain; one that
        # did not, on a short Newton step or a small first-order promise
        shift = new[:, :3] - state[:, :3]
        step = np.hypot(np.hypot(shift[:, 0], shift[:, 1]), shift[:, 2])
        done = np.where(moved, step, r) <= _STEP_TOL
        done |= np.where(moved, new[:, _J] - j, d[:, 1] * a + d[:, 2] * b) <= _GAIN_TOL
        longest = np.where(newton_rose, _MAX_STEP, _SHRINK * r)
        state = np.where(moved[:, None], new, state)
        if done.any():
            stopped = rows[done]
            final[stopped] = state[done]
            ran[stopped] = rounds
            settled[stopped] = True
            keep = ~done
            rows = rows[keep]
            state = state[keep]
            longest = longest[keep]
            coords = coords[keep]
            if not rows.size:
                break
    final[rows] = state
    ran[rows] = rounds
    failed = rest[~settled.reshape(-1, _STARTS).any(axis=1)]
    if failed.size:
        where = "" if count == 1 else f" for states {failed.tolist()}"
        raise OptimizerFailureError(
            f"basis search did not converge within {max_evals} evaluations{where}"
        )
    final = final.reshape(rest.size, _STARTS, -1)
    top = final[np.arange(rest.size), final[..., _J].argmax(axis=1)]
    j_star[rest], n_star[rest] = top[:, _J], top[:, :3]
    evals[rest] = first + per_round * ran.reshape(-1, _STARTS).max(axis=1)
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
    coords = np.array([np.concatenate([p.x, p.y, p.t.reshape(9)]) for p in parts])
    j_star, n_star, evals = _basis_search(coords.reshape(-1, 15), max_evals)
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
