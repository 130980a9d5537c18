"""Restarted GMRES with its Hessenberg bookkeeping in numpy arrays: the tests' reference.

:func:`plaquectrl.direct._gmres` keeps the new Hessenberg column, the Givens
rotations and the least-squares right-hand side in Python floats.  This is
the same algorithm written on numpy arrays and numpy scalars, as the program
ran it before; the tests require both to return the same x bit for bit and
to take the same iterations.  It reads ``GMRES_RTOL``, ``GMRES_RESTART`` and
``GMRES_MAX_ITER`` from :mod:`plaquectrl.direct` at each call, so a test that
monkeypatches them changes both.
"""

import numpy as np

from plaquectrl import direct


def gmres_reference(apply, precondition, b, name, x0):
    """x with ||b - A x|| <= GMRES_RTOL ||b||, and the iterations taken."""
    x, r = x0, b - apply(x0)
    if not np.linalg.norm(r) < np.linalg.norm(b):
        x, r = np.zeros_like(b), b
    target = direct.GMRES_RTOL * np.linalg.norm(b)
    done = 0
    while not (beta := np.linalg.norm(r)) <= target:
        if done >= direct.GMRES_MAX_ITER or not np.isfinite(beta):
            raise direct.NonConvergenceError(
                f"GMRES on the {name} collocation system stopped at relative "
                f"residual {beta / np.linalg.norm(b):.3e} after {done} iterations")
        m = min(direct.GMRES_RESTART, direct.GMRES_MAX_ITER - done)
        V = np.empty((m + 1, b.size))
        H = np.zeros((m + 1, m))
        rot = np.zeros((m, 2))
        g = np.zeros(m + 1)
        V[0], g[0] = r / beta, beta
        for k in range(m):
            w = apply(precondition(V[k]))
            for _ in range(2):
                h = V[:k + 1] @ w
                w -= h @ V[:k + 1]
                H[:k + 1, k] += h
            H[k + 1, k] = hk = np.linalg.norm(w)
            for i, (cs, sn) in enumerate(rot[:k]):
                H[i, k], H[i + 1, k] = (cs * H[i, k] + sn * H[i + 1, k],
                                        cs * H[i + 1, k] - sn * H[i, k])
            rot[k] = H[k:k + 2, k] / np.hypot(H[k, k], H[k + 1, k])
            H[k, k], H[k + 1, k] = np.hypot(H[k, k], H[k + 1, k]), 0.0
            g[k], g[k + 1] = rot[k, 0] * g[k], -rot[k, 1] * g[k]
            done += 1
            if abs(g[k + 1]) <= target or hk == 0.0:
                break
            V[k + 1] = w / hk
        z = np.linalg.solve(H[:k + 1, :k + 1], g[:k + 1])
        x = x + precondition(z @ V[:k + 1])
        r = b - apply(x)
    return x, done
