"""Gauss-type nodes, Legendre trial bases and every per-grid matrix.

The spatial trial functions have zero slope at both endpoints (Neumann
boundary conditions are built in); the temporal trial functions vanish at
t = -1 (zero initial data is built in).  Both are Shen's combinations of
Legendre polynomials (Shen, SIAM J. Sci. Comput. 15, 1994), so a basis is a
matrix of Legendre coefficients.  Collocation uses Legendre-Gauss nodes in
space and Legendre-Gauss-Radau nodes (right endpoint included) in time;
both node sets are eigenvalues of a tridiagonal Jacobi matrix.
:func:`build_setup` builds, once per grid, the differentiation matrices,
the inverses the space-time solves use and the first-order collocation
matrices of the velocity and P_v solves; the setup also holds the terms of
the space-time collocation operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import legder, legvander


def _jacobi_zeros(n: int, a: float, b: float) -> np.ndarray:
    """Zeros of J_n^{a,b}, ascending (Golub & Welsch, Math. Comp. 23, 1969).

    They are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    built from the three-term recurrence of the orthonormal polynomials.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    if a == b:  # the general formula is 0/0 at k = 0 when a = b = 0
        diag = np.zeros(n)
    else:
        diag = (b * b - a * a) / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def legendre_gauss_nodes(N: int) -> np.ndarray:
    """The N+1 Legendre-Gauss nodes: zeros of J_{N+1}^{0,0}, ascending."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return _jacobi_zeros(int(N) + 1, 0.0, 0.0)


def legendre_gauss_radau_nodes(M: int) -> np.ndarray:
    """The M+1 Legendre-Gauss-Radau nodes on (-1, 1], last node exactly +1.

    These are the negated zeros of J_M^{0,0} + J_{M+1}^{0,0} (whose zero
    set contains -1): the M zeros of J_M^{1,0} followed by +1.
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    return np.append(_jacobi_zeros(int(M), 1.0, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PolynomialBasis:
    """A family of trial functions as a matrix of Legendre coefficients.

    ``coefficients[j, m]`` is the weight of the Legendre polynomial P_m in
    the j-th basis function (1-indexed in the math, 0-indexed here).
    """

    coefficients: np.ndarray  # (basis functions, degrees)

    def eval(self, x, d: int = 0) -> np.ndarray:
        """Values (or d-th derivatives) of every basis function at x.

        Returns an array of shape ``(basis functions,) + shape(x)``.
        """
        xarr = np.asarray(x, dtype=float)
        if np.any(np.abs(xarr) > 1.0 + 1e-14):
            raise ValueError("evaluation point outside [-1, 1]")
        c = legder(self.coefficients, d, axis=1)
        values = c @ legvander(xarr.ravel(), c.shape[1] - 1).T
        return values.reshape(c.shape[:1] + xarr.shape)


def build_bases(N: int, M: int) -> tuple[PolynomialBasis, PolynomialBasis]:
    """Space basis p_j^1 (j=1..N) and time basis p_j^2 (j=1..M).

    p_j^1 = J_{j-1} - j(j-1)/((j+1)(j+2)) J_{j+1}   (zero slope at rho = +-1)
    p_j^2 = J_{j-1} + J_j                           (zero value at t = -1)
    """
    if N < 1 or M < 1:
        raise ValueError("N and M must be at least 1")
    j = np.arange(1, N + 1)
    space = np.eye(N, N + 2)
    space[j - 1, j + 1] = -j * (j - 1) / ((j + 1) * (j + 2))
    time = np.eye(M, M + 1) + np.eye(M, M + 1, 1)
    return PolynomialBasis(space), PolynomialBasis(time)


@dataclass(frozen=True, eq=False)
class CollocationSetup:
    """Nodes, bases and every matrix derived from them for one (N, M) grid.

    ``N`` spatial trial functions are collocated at ``N`` Legendre-Gauss
    nodes and ``M`` temporal trial functions at ``M`` Legendre-Gauss-Radau
    nodes, so every differentiation matrix is square.  Matrix convention
    follows ``[D^d]_{jk} = p_j^{(d)}(node_k)`` (row = basis function,
    column = node).  :func:`build_setup` builds every field once; the
    solvers of both routes only read them.  The dense operator terms
    (:attr:`operator_matrices`) are built once, on first use.
    """

    N: int
    M: int
    space_basis: PolynomialBasis
    time_basis: PolynomialBasis
    rho: np.ndarray  # (N,) Gauss nodes
    t: np.ndarray  # (M,) Radau nodes, t[-1] == 1
    D0r: np.ndarray
    D1r: np.ndarray
    D2r: np.ndarray
    D0t: np.ndarray
    D1t: np.ndarray
    # basis values at the interval endpoints (for boundary synthesis)
    space_at_m1: np.ndarray
    time_at_p1: np.ndarray
    # inverses for the space-time solves and the boundary ODE; K = D0t^-1 D1t
    D0rT_inv: np.ndarray
    D0t_inv: np.ndarray
    D1tT_inv: np.ndarray
    K: np.ndarray
    # First-order solves (velocity, P_v) in Legendre degrees 0..N:
    # V0r[k, m] = P_m(rho_k), V1r[k, m] = P_m'(rho_k), P_m and P_m' at
    # rho = -1; pin_p1 (pin_m1) maps nodal values of a derivative to the
    # Legendre coefficients of the function that vanishes at rho = +1 (-1).
    V0r: np.ndarray
    V1r: np.ndarray
    V_at_m1: np.ndarray
    V1_at_m1: np.ndarray
    pin_p1: np.ndarray
    pin_m1: np.ndarray
    # Fused maps, one product each: D012r = [D0r | D1r | D2r] gives nodal values,
    # slopes and curvatures; V_map = [V0r; V_at_m1; V1_at_m1; V1r] pin_p1 gives v
    # and dv/drho at the nodes and at rho = -1 from nodal dv/drho; Pv_map = V0r pin_m1.
    D012r: np.ndarray
    V_map: np.ndarray
    Pv_map: np.ndarray

    def operator_terms(self, C: np.ndarray):
        """D0r' C D1t, D1r' C D0t and D2r' C D0t for a batch C (..., N, M): the
        time, drift and diffusion terms of the space-time collocation operator."""
        CD = C @ self.D0t
        return self.D0r.T @ C @ self.D1t, self.D1r.T @ CD, self.D2r.T @ CD

    @cached_property
    def operator_matrices(self):
        """The three :meth:`operator_terms` as (N*M, N*M) matrices, rows and
        columns flattened row-major over (space, time).  Built on first use:
        only the dense solve needs them, and they hold 3 (N*M)^2 floats."""
        n = self.N * self.M
        unit = np.eye(n).reshape(n, self.N, self.M)
        return tuple(T.reshape(n, n).T for T in self.operator_terms(unit))

    def field_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values (..., N, M) of fields with coefficient matrices (..., N, M)."""
        return self.D0r.T @ coeffs @ self.D0t

    def eval_field(self, coeffs: np.ndarray, rho, t) -> np.ndarray:
        """Synthesize a coefficient matrix at arbitrary points (outer grid)."""
        Pr = self.space_basis.eval(np.atleast_1d(rho))  # (N, nr)
        Pt = self.time_basis.eval(np.atleast_1d(t))  # (M, nt)
        return Pr.T @ coeffs @ Pt

    def eval_time_series(self, coeffs: np.ndarray, t) -> np.ndarray:
        """Synthesize a time-coefficient vector (M,) at arbitrary times."""
        Pt = self.time_basis.eval(np.atleast_1d(t))
        return coeffs @ Pt

    def solve_space_values(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the space basis interpolating nodal values."""
        return self.D0rT_inv @ values


def build_setup(N: int, M: int) -> CollocationSetup:
    """Nodes, bases, the five differentiation matrices and every factor the
    solvers use, built once for the grid."""
    if N < 1 or M < 1:
        raise ValueError("N and M must be at least 1")
    space, time = build_bases(N, M)
    rho = legendre_gauss_nodes(N - 1)
    t = legendre_gauss_radau_nodes(M - 1)
    D0r, D0t, D1t = space.eval(rho, 0), time.eval(t, 0), time.eval(t, 1)
    D0t_inv = np.linalg.inv(D0t)
    legendre = PolynomialBasis(np.eye(N + 1))
    V1r = legendre.eval(rho, 1).T
    V_at_m1 = legendre.eval(-1.0)
    # collocate the derivative at the N nodes and pin the value at one end
    pin_p1 = np.linalg.inv(np.vstack([V1r, np.ones(N + 1)]))[:, :N]
    pin_m1 = np.linalg.inv(np.vstack([V1r, V_at_m1]))[:, :N]
    D1r, D2r, V0r = space.eval(rho, 1), space.eval(rho, 2), legendre.eval(rho).T
    V1_at_m1 = legendre.eval(-1.0, 1)
    return CollocationSetup(
        N=N, M=M, space_basis=space, time_basis=time, rho=rho, t=t,
        D0r=D0r, D1r=D1r, D2r=D2r, D0t=D0t, D1t=D1t,
        space_at_m1=space.eval(-1.0), time_at_p1=time.eval(1.0),
        D0rT_inv=np.linalg.inv(D0r.T), D0t_inv=D0t_inv,
        D1tT_inv=np.linalg.inv(D1t.T), K=D0t_inv @ D1t,
        V0r=V0r, V1r=V1r, V_at_m1=V_at_m1, V1_at_m1=V1_at_m1, pin_p1=pin_p1,
        pin_m1=pin_m1, D012r=np.hstack([D0r, D1r, D2r]), Pv_map=V0r @ pin_m1,
        V_map=np.vstack([V0r, V_at_m1, V1_at_m1, V1r]) @ pin_p1)
