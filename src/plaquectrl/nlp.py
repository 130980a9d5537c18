"""Box-constrained minimization by sequential quadratic programming.

The objective is an oracle that maps a batch of points to their values (one
PDE solve per distinct point, and a batch may be solved together).  The
gradient comes from the problem's own callback, called at points the oracle
has evaluated, or else by finite differences, which send their whole probe
set to the oracle in one call.  The Hessian is a damped-BFGS approximation,
and each step solves a small box-constrained quadratic subproblem with a
primal active-set method; line-search points go one at a time.  Everything
is dependency-free and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 40  # step halvings before the line search stalls
QP_MAX_ITER = 200  # active-set iterations of one QP subproblem
QP_KKT_TOL = 1e-10  # projected KKT residual that ends a QP subproblem


@dataclass
class NlpOptions:
    """Tuning knobs for the SQP driver; ``grad_step`` is the finite-difference
    step of problems without a gradient callback."""

    grad_step: float = 1e-5
    tol: float = 1e-6
    max_iter: int = 100


@dataclass
class NlpProblem:
    """A box-constrained minimization problem over an objective oracle.

    ``objective`` maps an array of k points, shape (k, dimension), to their
    k values.  ``gradient``, if given, maps a point the objective has already
    been evaluated at to the gradient there, shape (dimension,); without it
    the gradient is taken by :func:`fd_gradient`.
    """

    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    objective: Callable[[np.ndarray], np.ndarray]
    options: NlpOptions = field(default_factory=NlpOptions)
    gradient: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.dimension,) or self.upper.shape != (self.dimension,):
            raise ValueError("bounds must have shape (dimension,)")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        o = self.options
        if not (0.0 < o.grad_step < np.inf and 0.0 < o.tol < np.inf) or o.max_iter < 0:
            raise ValueError("grad_step and tol must be positive and finite, max_iter >= 0")


@dataclass
class NlpResult:
    """Outcome of :func:`sqp_minimize`."""

    x: np.ndarray
    fun: float
    trace: list  # accepted (x, f) pairs, f strictly decreasing
    iterations: int
    converged: bool
    message: str
    evaluations: int  # points sent to the oracle
    oracle_calls: int
    gradient: np.ndarray  # at x


def projected_gradient(x, g, lower, upper) -> np.ndarray:
    """x - P(x - g), P the projection onto the box [lower, upper]: zero at a
    first-order point of the box-constrained problem."""
    return x - np.clip(x - g, lower, upper)


def _step_sizes(problem: NlpProblem) -> np.ndarray:
    """Per-coordinate FD step: h scaled by the bound width where finite."""
    h = problem.options.grad_step
    width = problem.upper - problem.lower
    scale = np.where(np.isfinite(width) & (width > 0.0), width, 1.0)
    return h * scale


def fd_gradient(problem: NlpProblem, x, fx=None) -> tuple[np.ndarray, float]:
    """Finite-difference gradient and f(x): central where the box allows,
    one-sided at active bounds, zero where neither step fits.

    All probes go to the oracle in one call, together with x itself unless
    its value ``fx`` is given.
    """
    x = np.asarray(x, dtype=float)
    steps = _step_sizes(problem)
    up = x + steps <= problem.upper
    dn = x - steps >= problem.lower
    e = np.diag(steps)
    probes = np.concatenate([x + e[up], x - e[dn]])
    if fx is None:
        fx, *values = problem.objective(np.vstack([x, probes]))
        fx = float(fx)
    else:
        values = problem.objective(probes)
    f_up = np.full(problem.dimension, fx)
    f_dn = np.full(problem.dimension, fx)
    f_up[up], f_dn[dn] = np.split(np.asarray(values, dtype=float), [np.sum(up)])
    width = np.where(up, steps, 0.0) + np.where(dn, steps, 0.0)
    return np.divide(f_up - f_dn, width, out=np.zeros(problem.dimension),
                     where=width > 0.0), fx


def qp_subproblem(H, g, lower, upper) -> np.ndarray:
    """Minimize (1/2) d'Hd + g'd subject to lower <= d <= upper.

    H must be symmetric positive definite.  Primal active-set iteration: fix
    the working set, solve the free-variable equality system, step to the
    nearest blocking bound, and release bound variables whose multiplier has
    the wrong sign.  Terminates when the projected KKT residual is below
    ``QP_KKT_TOL``.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = g.shape[0]
    d = np.clip(np.zeros(n), lower, upper)
    active = np.zeros(n, dtype=np.int8)  # -1 at lower, +1 at upper, 0 free
    active[d <= lower] = -1
    active[d >= upper] = 1

    for _ in range(QP_MAX_ITER):
        free = active == 0
        grad = H @ d + g
        # Release the worst bound variable whose multiplier points inward.
        lagr = np.where(active == -1, grad, np.where(active == 1, -grad, 0.0))
        step = np.zeros(n)
        if np.any(free):
            idx = np.where(free)[0]
            sol = np.linalg.solve(H[np.ix_(idx, idx)],
                                  -(g[idx] + H[np.ix_(idx, ~free)] @ d[~free]))
            step[idx] = sol - d[idx]
        if np.max(np.abs(step)) <= QP_KKT_TOL:
            worst = int(np.argmin(lagr))
            if lagr[worst] >= -QP_KKT_TOL:
                return d
            active[worst] = 0
            continue
        # Step toward the free-variable minimizer, stopping at the first bound.
        bound = np.where(step > 0, upper, lower)
        hit = np.where(step > 0, d + step > bound, (step < 0) & (d + step < bound))
        ratio = np.divide(bound - d, step, out=np.full(n, np.inf), where=hit)
        block = int(np.argmin(ratio))
        d = d + min(ratio[block], 1.0) * step
        if ratio[block] < 1.0:
            d[block] = bound[block]
            active[block] = 1 if step[block] > 0 else -1
    raise RuntimeError("active-set iteration cap exceeded")


def _bfgs_update(B, s, y):
    """Damped BFGS update keeping B symmetric positive definite."""
    Bs = B @ s
    sBs = float(s @ Bs)
    sy = float(s @ y)
    if sBs <= 0.0:
        return B
    # Powell damping: blend y toward Bs when curvature is too weak.
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        y = theta * y + (1.0 - theta) * Bs
        sy = float(s @ y)
    if sy <= 1e-14:
        return B
    B = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    return 0.5 * (B + B.T)


def sqp_minimize(problem: NlpProblem, x0) -> NlpResult:
    """Damped-BFGS SQP with Armijo backtracking on the raw objective.

    Stops when the projected-gradient test ``stationary`` passes, at the
    iteration cap, on line-search failure or on a flat objective, and returns
    the best accepted iterate; the same test on it sets ``converged``, so an
    iterate reached at the cap (or with a cap of 0) can still be converged.
    The trace of accepted (x, f) pairs is strictly decreasing in f.
    """
    opts = problem.options
    calls = points = 0

    def oracle(X):
        nonlocal calls, points
        values = np.asarray(problem.objective(X), dtype=float)
        if values.shape != (len(X),):
            raise ValueError("objective must map (k, dimension) points to k values")
        calls, points = calls + 1, points + len(X)
        return values

    def evaluate(x, fx=None):
        """The gradient at x and f(x), evaluated first unless given."""
        if problem.gradient is None:
            return fd_gradient(counted, x, fx)
        if fx is None:
            fx = float(oracle(x[None])[0])
        g = np.asarray(problem.gradient(x), dtype=float)
        if g.shape != (problem.dimension,) or not np.isfinite(g).all():
            raise ValueError("gradient must map a point to (dimension,) finite values")
        return g, fx

    def stationary(x, g):  # a Python bool, as ``converged`` goes into JSON
        pg = projected_gradient(x, g, problem.lower, problem.upper)
        return bool(np.linalg.norm(pg, np.inf) < opts.tol)

    counted = replace(problem, objective=oracle)
    x = np.clip(np.asarray(x0, dtype=float), problem.lower, problem.upper)
    g, f = evaluate(x)
    trace = [(x.copy(), f)]
    B = np.eye(problem.dimension)
    message = "iteration cap reached"
    it = 0
    for it in range(1, opts.max_iter + 1):
        if stationary(x, g):
            break
        d = qp_subproblem(B, g, problem.lower - x, problem.upper - x)
        slope = float(g @ d)
        if slope >= 0.0 or np.linalg.norm(d, np.inf) < 1e-16:
            message = "no descent direction"
            break
        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            xt = np.clip(x + alpha * d, problem.lower, problem.upper)
            ft = float(oracle(xt[None])[0])
            if ft <= f + ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted or ft >= f:
            message = "line search stalled"
            break
        s = xt - x
        x, f = xt, ft
        trace.append((x.copy(), f))
        g_new, _ = evaluate(x, f)
        B = _bfgs_update(B, s, g_new - g)
        g = g_new
    if converged := stationary(x, g):
        message = "projected gradient below tolerance"
    return NlpResult(x=x, fun=f, trace=trace, iterations=it,
                     converged=converged, message=message,
                     evaluations=points, oracle_calls=calls, gradient=g)
