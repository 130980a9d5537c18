"""Jacobi polynomials by their three-term recurrence: the tests' reference.

The program evaluates its bases from Legendre coefficients
(:mod:`plaquectrl.spectral`); the spectral tests and acceptance criterion 1
compare nodes, bases and derivative matrices against this independent
evaluation.
"""

import numpy as np


def jacobi_eval(n: int, a: float, b: float, x: float, d: int = 0) -> float:
    """Evaluate the d-th derivative of the Jacobi polynomial J_n^{a,b} at x.

    Uses the three-term recurrence; derivatives via
    d/dx J_n^{a,b} = (n+a+b+1)/2 * J_{n-1}^{a+1,b+1}.

    Parameters
    ----------
    n : int
        Polynomial degree, n >= 0.
    a, b : float
        Jacobi exponents, both > -1.
    x : float or ndarray
        Evaluation point(s) in [-1, 1].
    d : int
        Derivative order, 0 <= d <= 2.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if d not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {d}")
    if a <= -1 or b <= -1:
        raise ValueError("Jacobi exponents must be > -1")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr < -1.0 - 1e-14) or np.any(xarr > 1.0 + 1e-14):
        raise ValueError("evaluation point outside [-1, 1]")
    if d == 0:
        return _jacobi_value(n, a, b, xarr)
    # d/dx J_n^{a,b} = (n+a+b+1)/2 * J_{n-1}^{a+1,b+1}, applied d times
    if n < d:
        return xarr * 0.0
    scale = 1.0
    deg, aa, bb = n, a, b
    for _ in range(d):
        scale *= 0.5 * (deg + aa + bb + 1)
        deg -= 1
        aa += 1.0
        bb += 1.0
    return scale * _jacobi_value(deg, aa, bb, xarr)


def _jacobi_value(n, a, b, x):
    """Three-term recurrence for J_n^{a,b}(x)."""
    ones = np.ones_like(x)
    if n == 0:
        return ones if np.ndim(x) else 1.0
    pm1 = ones
    p = 0.5 * ((a + b + 2.0) * x + (a - b))
    for k in range(1, n):
        k1 = k + 1.0
        denom = 2.0 * k1 * (k1 + a + b) * (2.0 * k + a + b)
        c1 = (2.0 * k + a + b + 1.0) * (a * a - b * b)
        c2 = (2.0 * k + a + b) * (2.0 * k + a + b + 1.0) * (2.0 * k + a + b + 2.0)
        c3 = 2.0 * (k + a) * (k + b) * (2.0 * k + a + b + 2.0)
        pnew = ((c1 + c2 * x) * p - c3 * pm1) / denom
        pm1, p = p, pnew
    return p if np.ndim(x) else float(p)
