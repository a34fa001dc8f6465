"""Closed-form measured mutual information of two-qubit states, in NumPy.

For a state with expectation coordinates (x, y, t) (see
``operators.decompose``), reading qubit b with the two-outcome measurement
``(id +- n . sigma) / 2`` gives outcome probabilities ``(1 +- y.n)/2`` and
conditioned Bloch vectors ``(x +- t n)/(1 +- y.n)`` for qubit a, so the
information the readout leaves about qubit a is a difference of binary
entropies of Bloch-vector lengths.  A unit ``n`` is a projective readout;
a shorter one an unsharp readout, over which the function is convex.

Both functions broadcast over leading axes of ``x`` (shape ``(..., 3)``),
``y`` (``(..., 3)``) and ``t`` (``(..., 3, 3)``), so a stack of states is
read in one call.  Results match the explicit projector and partial-trace
route to near machine precision; see the package tests.
"""

import numpy as np

PROB_FLOOR = 1e-12
# stands in for 0 inside v log v, where the limit is 0
_TINY = 1e-300
# the two readout outcomes, on a trailing axis
_SIGNS = np.array([1.0, -1.0])


def _xlog2x(v):
    v = np.maximum(v, _TINY)
    return v * np.log2(v)


def entropy_of_length(r):
    """Binary entropy in bits of ``(1 + r) / 2``: the entropy of a qubit
    whose Bloch vector has length ``r`` in [0, 1]."""
    half = 0.5 * r
    return -(_xlog2x(0.5 + half) + _xlog2x(0.5 - half))


def _info(x, y, t, n):
    yn = np.einsum("...j,...j->...", y, n)
    tn = np.einsum("...ij,...j->...i", t, n)
    # twice the outcome probabilities, and the unnormalized conditioned
    # Bloch vectors, with the outcome on the last axis
    p2 = 1.0 + yn[..., None] * _SIGNS
    v = x[..., None, :] + _SIGNS[:, None] * tn[..., None, :]
    live = p2 > 2.0 * PROB_FLOOR
    length = np.sqrt(np.einsum("...j,...j->...", v, v)) / np.where(live, p2, 1.0)
    conditional = 0.5 * np.einsum(
        "...k,...k->...",
        np.where(live, p2, 0.0),
        entropy_of_length(np.minimum(length, 1.0)),
    )
    x_length = np.sqrt(np.einsum("...j,...j->...", x, x))
    marginal = entropy_of_length(np.minimum(x_length, 1.0))
    return marginal - conditional


def measured_info(x, y, t, n):
    """Measured mutual information in bits for readout direction ``n``.

    ``n`` has shape ``(..., 3)`` and length at most 1; its leading axes
    broadcast against those of the state coordinates.
    """
    return _info(
        np.asarray(x, dtype=float),
        np.asarray(y, dtype=float),
        np.asarray(t, dtype=float),
        np.asarray(n, dtype=float),
    )


def measured_info_grid(x, y, t, thetas, phis, out):
    """Fill ``out[..., i, j]`` with the measured information at the unit
    direction ``(thetas[i], phis[j])`` for each state of the stack."""
    x = np.asarray(x, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    shape = x.shape[:-1] + (thetas.size, phis.size)
    if out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    st = np.sin(thetas)[:, None]
    n = np.stack(
        np.broadcast_arrays(
            st * np.cos(phis), st * np.sin(phis), np.cos(thetas)[:, None]
        ),
        axis=-1,
    )
    out[...] = _info(
        x[..., None, None, :],
        np.asarray(y, dtype=float)[..., None, None, :],
        np.asarray(t, dtype=float)[..., None, None, :, :],
        n,
    )
