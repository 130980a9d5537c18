"""The residual Jacobian column by column: the tests' reference.

:func:`plaquectrl.direct.residual_jacobian` builds the Jacobian from the
assembled operators and one time-colored batch of grid evaluations.  This is
the Jacobian as the program built it before: every column a central
difference of :func:`plaquectrl.direct.residual` in one direction of the
flattened z = (C, C_R, phi), ``CHUNK`` directions per residual call, with
step ``JVP_STEP`` (1 + ||Z||_inf) over the coefficients.  It assumes nothing
about where in time the grids read the state, so a grid term that couples
time nodes shows up as a difference between the two.
"""

import numpy as np

from plaquectrl import direct

CHUNK = 16


def jacobian_reference(state, setup, params):
    """(dF/dZ | dF/dphi)' at ``state``, (n + M, n), in the layout of
    :func:`plaquectrl.direct.residual_jacobian`."""
    N, M = setup.N, setup.M
    z = np.concatenate([state.C.ravel(), state.C_R, state.phi])
    n = z.size - M
    h = direct.JVP_STEP * (1.0 + np.abs(z[:n]).max())
    jac = np.empty((n + M, n))
    for d0 in range(0, n + M, CHUNK):
        d = np.arange(d0, min(d0 + CHUNK, n + M))
        k = len(d)
        W = np.tile(z, (2 * k, 1))
        W[np.arange(k), d] += h
        W[np.arange(k, 2 * k), d] -= h
        F, F_R, _ = direct.residual(W[:, :n - M].reshape(2 * k, 3, N, M).swapaxes(0, 1),
                                    W[:, n - M:n], W[:, n:], setup, params)
        out = np.hstack([F.swapaxes(0, 1).reshape(2 * k, -1), F_R])
        jac[d] = (out[:k] - out[k:]) / (2.0 * h)
    return jac


def gradient_reference(state, setup, params):
    """The gradient of :func:`plaquectrl.direct.gradient`, solved on
    :func:`jacobian_reference`."""
    M = setup.M
    jac = jacobian_reference(state, setup, params)
    n = jac.shape[1]
    dJ = -setup.D0t[:, -1] @ np.linalg.solve(jac[:n].T, -jac[n:].T)[n - M:]
    return np.bincount(direct.segment_index(setup.t, M), weights=dJ, minlength=M)
