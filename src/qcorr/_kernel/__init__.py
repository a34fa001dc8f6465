"""Closed-form measured mutual information of two-qubit states, in NumPy.

For a state with expectation coordinates (x, y, t) (see
``operators.decompose``), reading qubit b with the two-outcome measurement
``(id +- n . sigma) / 2`` gives outcome probabilities ``q = (1 +- y.n)/2``
and conditioned Bloch vectors ``(x +- t n) / 2q`` for qubit a.  A unit
``n`` is a projective readout; a shorter one an unsharp readout, over
which the function is convex.  J is the entropy ``g(1, |x|)`` of qubit a
less the perspectives of the binary entropy h at ``L = |x +- t n| / 2``,
``q h(L / q) = g(q, L) = f(q) - f((q + L) / 2) - f((q - L) / 2)`` with
``f(v) = v log2 v``: nine terms, none above 0.54 in size, after one matrix
product affine in n.  Outcomes with ``q`` at most ``PROB_FLOOR`` add
nothing, and ``L`` is clamped to at most ``q``.

Both functions broadcast over leading axes of ``x`` (shape ``(..., 3)``),
``y`` (``(..., 3)``) and ``t`` (``(..., 3, 3)``), so a stack of states is
read in one call.  Results match the explicit projector and partial-trace
route to near machine precision; see the package tests.
"""

import numpy as np

PROB_FLOOR = 1e-12
# stands in for 0 inside v log v, where the limit is 0
_TINY = 1e-300
# (q, u) of qubit a alone, outcome + and outcome -, from [[1, y], [x, t]]
_PARTS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, 0.5],
        [0.5, -0.5, -0.5, -0.5],
    ]
)
# (q, L) of the parts -> the arguments (q, (q + L) / 2, (q - L) / 2) of f
_ARGS = np.kron([[1.0, 0.0], [0.5, 0.5], [0.5, -0.5]], np.eye(3))
_SIGNS = np.outer([1.0, -1.0, -1.0], [1.0, -1.0, -1.0]).reshape(9)


def _xlog2x(v):
    v = np.maximum(v, _TINY)
    return v * np.log2(v)


def entropy_of_length(r):
    """Binary entropy in bits of ``(1 + r) / 2``: the entropy of a qubit
    whose Bloch vector has length ``r`` in [0, 1]."""
    half = 0.5 * r
    return -(_xlog2x(0.5 + half) + _xlog2x(0.5 - half))


def _affine(x, y, t):
    """The (..., 12, 4) map (1, n) -> (q, u) of the parts; row ``3 c + k``
    is component c of (q, u) in part k."""
    shape = np.broadcast(x[..., 0], y[..., 0], t[..., 0, 0]).shape
    a = np.empty(shape + (4, 4))
    a[..., 0, 0] = 1.0
    a[..., 0, 1:] = y
    a[..., 1:, 0] = x
    a[..., 1:, 1:] = t
    return (a[..., None, :] * _PARTS).reshape(shape + (12, 4))


def _info(n, affine):
    """J at the directions ``n`` (..., points, 3) for states whose
    (..., 12, 4) maps broadcast against them."""
    columns = np.empty(n.shape[:-2] + (4, n.shape[-2]))
    columns[..., 0, :] = 1.0
    columns[..., 1:, :] = n.swapaxes(-1, -2)
    parts = affine @ columns
    q, u = parts[..., :3, :], parts[..., 3:, :]
    q_length = np.zeros(parts.shape[:-2] + (6, parts.shape[-1]))
    np.copyto(q_length[..., :3, :], q, where=q > PROB_FLOOR)
    length = q_length[..., 3:, :]
    u = u.reshape(u.shape[:-2] + (3,) + length.shape[-2:])
    np.sqrt(np.einsum("...ckp,...ckp->...kp", u, u), out=length)
    np.minimum(length, q_length[..., :3, :], out=length)
    return _SIGNS @ _xlog2x(_ARGS @ q_length)


def measured_info(x, y, t, n):
    """Measured mutual information in bits for readout direction ``n``.

    ``n`` has shape ``(..., 3)`` and length at most 1; its leading axes
    broadcast against those of the state coordinates; a last state axis
    of length 1 reads ``n``'s last leading axis in one product per state.
    """
    x, y, t, n = (np.asarray(v, dtype=float) for v in (x, y, t, n))
    affine = _affine(x, y, t)
    if n.ndim > 1 and affine.shape[-3:-2] in ((), (1,)):
        return _info(n, affine[..., 0, :, :] if affine.ndim > 2 else affine)
    return _info(n[..., None, :], affine)[..., 0]


def measured_info_grid(x, y, t, thetas, phis, out):
    """Fill ``out[..., i, j]`` with the measured information at the unit
    direction ``(thetas[i], phis[j])`` for each state of the stack."""
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    shape = x.shape[:-1] + (thetas.size, phis.size)
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    n = np.empty(shape[-2:] + (3,))
    st, ct = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
    n[..., 0] = st * np.cos(phis)
    n[..., 1] = st * np.sin(phis)
    n[..., 2] = ct
    out[...] = _info(n.reshape(-1, 3), _affine(x, y, t)).reshape(shape)
