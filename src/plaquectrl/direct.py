"""Direct optimal-control route: fixed-point linearization + collocation + NLP.

Each fixed-point pass freezes the previous iterate and solves the square
space-time collocation systems (one operator shared by L and H, one for F)
for the new coefficient matrices, updates the velocity at every time node in
one solve, and advances the free boundary by a collocated ODE in time.  The
fields travel as one array, L, H, F stacked as in :mod:`plaquectrl.model`,
and each operator as the (diffusion g1, drift G2) pair that
:func:`kernels.eval_state_grids` returns for it.  The fixed point
(:func:`fixed_point_solve`) runs on one control.  The scalar objective
1 - R(1) - eps over piecewise-constant controls is then handed to the SQP
driver in :mod:`plaquectrl.nlp` as an oracle, with its exact gradient
(:func:`gradient`): one dense solve, by the implicit-function theorem, on
the Jacobian of the collocation residual (:func:`residual`) at the state
the oracle solved.  At frozen grids the residual is linear, and that part
is the assembled operators; the grids' own change is local in time (one
velocity product per time column, every other grid pointwise), so 3N + 2
colors, one per field and space node, one for R and one for phi, each
stepping every time node at once, give it from one evaluation of the grids
on 6N + 5 members (Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
:func:`solve_direct` solves each distinct nodal control once.

The collocation operator is written once: the time, drift and diffusion
terms of a map on batches of coefficient matrices
(:meth:`~plaquectrl.spectral.CollocationSetup.operator_terms`), combined
with the grids by :func:`_combine`.  Up to ``DENSE_MAX_UNKNOWNS`` unknowns
N*M, the system is that map applied to the identity
(:func:`assemble_operator`), solved by dense LU; the largest such operator,
99^2 floats (78 KB), stays below the C allocator's 128 KB mmap threshold,
so a pass's operators reuse freed heap pages.  A larger system is never
formed: GMRES applies the map (:func:`_apply_operator`) from the previous
iterate, once per system and pass, preconditioned by a Sylvester equation
with the drift fitted to its time median, solved by diagonalizing its space
side; a system keeps its preconditioner for the next pass when its GMRES
count did not rise (:func:`_solve_matrix_free`).  Both paths run on numpy
alone.  Whole fixed-point solves (default parameters, zero control, 2-vCPU
VM, OpenBLAS threads at their default; fastest of 3-15 solves in each of two
processes) take, dense against GMRES: 0.011 s against 0.032 s at 9 x 9
(81 unknowns), 0.014 s against 0.034 s at 11 x 9 (99), 0.016 s against
0.030 s at 10 x 10 (100), 0.029 s against 0.034 s at 12 x 12, 0.037 s
against 0.035 s at 13 x 13, 0.085 s against 0.039 s at 16 x 16 and 1.7 s
against 0.078 s at 32 x 32.  Dense wins up to about 12 x 12 and breaks even at
13 x 13; moving the cut-off would change the rounding of every grid in
between.  Both paths take the same fixed-point iterations and agree on J
to 1e-15.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels, model
from .nlp import NlpOptions, NlpProblem, sqp_minimize
from .params import ModelParameters
from .spectral import CollocationSetup

# Default fixed-point tolerance and iteration cap of the library, the studies
# and the CLI.  The slowest contraction measured (mu1 = 0.06, ratio 0.748)
# needs 51 iterations.
FP_TOL = 1e-8
FP_MAX_ITER = 400

# Largest N*M solved by dense LU; the module docstring gives the measurements.
DENSE_MAX_UNKNOWNS = 99
# GMRES stops at ||b - A x|| <= GMRES_RTOL ||b||, restarts every
# GMRES_RESTART iterations and raises after GMRES_MAX_ITER.  The hardest systems
# measured are third fixed-point passes at mu1 = 0.06, mu2 = 0.015: up to 156
# iterations at 48 x 48 and 135 at 64 x 64 (zero and pool controls).
GMRES_RTOL = 1e-13
GMRES_RESTART = 200
GMRES_MAX_ITER = 600

# Step of the residual Jacobian's central differences, times 1 + max |nodal Z|.
JVP_STEP = 1e-6


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration produced a non-finite update or did not converge,
    or GMRES did not reach its tolerance."""


def require_converged(state, what):
    """Raise :class:`NonConvergenceError` unless fixed point ``state`` converged."""
    if not state.converged:
        raise NonConvergenceError(
            f"{what} fixed-point solve did not converge in {state.iterations} "
            f"iterations (last update {state.residual_history[-1]:.3e})")


class SingularOperatorError(np.linalg.LinAlgError):
    """Collocation operator is singular; carries a condition estimate."""

    def __init__(self, name: str, cond: float):
        self.name = name
        self.cond = cond
        super().__init__(f"singular {name} collocation operator (cond ~ {cond:.3e})")


class JacobianError(np.linalg.LinAlgError):
    """The collocation residual's Jacobian at a state is singular or not finite."""


@dataclass(frozen=True)
class ControlVector:
    """Piecewise-constant control on a uniform partition of [-1, 1].

    Segment i covers [t_{i-1}, t_i) with t_i = -1 + 2i/M; the last segment
    is closed at t = 1.  All values must lie in [0, Kbound].
    """

    segments: np.ndarray
    Kbound: float

    def __post_init__(self):
        seg = np.atleast_1d(np.asarray(self.segments, dtype=float))
        object.__setattr__(self, "segments", seg)
        if seg.ndim != 1 or seg.size < 1:
            raise ValueError("segments must be a non-empty vector")
        if not (np.all(np.isfinite(seg)) and np.isfinite(self.Kbound)):
            raise ValueError("segments and Kbound must be finite")
        if np.any(seg < -1e-12) or np.any(seg > self.Kbound + 1e-12):
            raise ValueError(f"segment values outside [0, {self.Kbound}]")

    @property
    def partition(self) -> np.ndarray:
        M = self.segments.size
        return -1.0 + 2.0 * np.arange(M + 1) / M

    def values_at(self, t) -> np.ndarray:
        """Control value at each time in ``t`` (half-open segment lookup)."""
        return self.segments[segment_index(t, self.segments.size)]


def segment_index(t, M: int) -> np.ndarray:
    """Segment of each time in ``t`` on the uniform partition of [-1, 1] into
    M segments (:class:`ControlVector`)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.clip(np.floor((t + 1.0) * M / 2.0).astype(int), 0, M - 1)


@dataclass
class StateSolution:
    """Converged (or best-effort) fields of one fixed-point solve.

    ``C`` (3, N, M) stacks the space-basis x time-basis coefficient matrices
    of L, H and F, ``C_R`` (M,) the time coefficients of R and ``phi`` (M,)
    the nodal control they were solved for; the last time node is t = 1, so
    R(1) is the last of :meth:`radius_nodes`, and ``objective`` is the
    terminal thickness 1 - R(1) - eps.  ``v_field``
    holds the nodal velocity (N, M) and ``v_inner`` (M,) its trace at
    rho = -1.  ``gmres_iterations`` and
    ``preconditioner_builds`` total the matrix-free work of the solve's
    passes, L/H and F together (:func:`_solve_matrix_free`); both are 0 on
    the dense path.
    """

    C: np.ndarray
    C_R: np.ndarray
    phi: np.ndarray
    v_field: np.ndarray
    v_inner: np.ndarray
    residual_history: list
    converged: bool
    iterations: int
    gmres_iterations: int
    preconditioner_builds: int
    objective: float
    setup: CollocationSetup = dc_field(repr=False, default=None)

    def field_nodes(self, which: str) -> np.ndarray:
        """Nodal values (N, M) of L, H or F."""
        return self.setup.field_values(self.C[model.FIELDS.index(which)])

    def radius(self, t) -> np.ndarray:
        """Transformed free-boundary R at arbitrary times."""
        return self.C_R @ self.setup.time_basis.eval(np.atleast_1d(t))

    def radius_nodes(self) -> np.ndarray:
        return self.C_R @ self.setup.D0t

    def final_radius(self) -> float:
        return float(self.radius_nodes()[-1])


def _combine(time, drift, diffusion, g1, G2, params, out, scratch):
    """c time + G2 o drift - diffusion o g1 with c = 2/T, for the operator terms
    time, drift and diffusion: in ``out``, with diffusion o g1 in ``scratch``."""
    A = np.multiply(G2, drift, out=out)
    A += (2.0 / params.T) * time
    A -= np.multiply(diffusion, g1, out=scratch)
    return A


def _apply_operator(g1, G2, setup, params, C):
    """The collocation operator with diffusion g1 and drift G2 on a batch C (..., N, M).

    With c = 2/T it maps C to c D0r' C D1t + G2 o (D1r' C D0t) - (D2r' C D0t) diag(g1).
    """
    time, drift, diffusion = setup.operator_terms(C)
    return _combine(time, drift, diffusion, g1, G2, params, drift, diffusion)


def assemble_operator(g1, G2, setup: CollocationSetup,
                      params: ModelParameters) -> np.ndarray:
    """Square (N*M) collocation operator with diffusion g1 (M,) and drift G2 (N, M).

    (g1, G2) is one of the pairs of :func:`kernels.eval_state_grids` at the
    frozen iterate.  Rows/columns are flattened row-major over (space index,
    time index); with c = 2/T the operator is c (D0r' x D1t') -
    g1 . (D2r' x D0t') + G2 . (D1r' x D0t'), and column j is
    :func:`_apply_operator` of unit coefficient matrix j: the same combine,
    of the setup's :attr:`~plaquectrl.spectral.CollocationSetup.operator_matrices`
    with g1 and G2 as flat rows.  Grids of a batch, G2 (B, N, M) and
    g1 (B, 1, M), give the B operators (B, n, n).
    """
    rows = np.shape(G2)[:-2] + (1, setup.N * setup.M)
    return _combine(*setup.operator_matrices, np.broadcast_to(g1, np.shape(G2)).reshape(rows),
                    np.reshape(G2, rows), params, None, None).swapaxes(-1, -2)


def _solve_fields(S, LH, F, setup, params, x0, reuse):
    """Coefficient matrices (3, N, M) of L, H, F for sources S (3, N, M).

    L and H share the operator of the (diffusion g1 (M,), drift G2 (N, M))
    pair ``LH``, F has that of ``F``.  Up to ``DENSE_MAX_UNKNOWNS`` unknowns
    each operator is assembled and solved by dense LU.  Above, each system
    is solved by :func:`_solve_matrix_free` from the guesses ``x0``
    (3, N, M), with the dict that ``reuse`` keeps for it from pass to pass.
    """
    X = np.empty_like(S)
    for name, (g1, G2), k in (("L", LH, slice(0, 2)), ("F", F, slice(2, 3))):
        if setup.N * setup.M > DENSE_MAX_UNKNOWNS:
            X[k] = _solve_matrix_free(g1, G2, setup, params, S[k], name, x0[k],
                                      reuse.setdefault(name, {}))
            continue
        A = assemble_operator(g1, G2, setup, params)
        try:
            sol = np.linalg.solve(A, S[k].reshape(len(S[k]), -1).T)
            if not np.all(np.isfinite(sol)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            if np.isfinite(S[k]).all() and np.isfinite(A).all():
                raise SingularOperatorError(name, float(np.linalg.cond(A))) from None
            raise NonConvergenceError(f"{name} collocation system has non-finite input") from None
        X[k] = sol.T.reshape(S[k].shape)
    return X


def _preconditioner(g1, G2, setup, params):
    """r -> M^-1 r for the operator with diffusion g1 and drift G2, by the
    fast diagonalization of its space side (:func:`_solve_matrix_free`).

    The drift is fitted as a(rho) g1(t), a the time median of G2/g1.  On
    L/H about 99% of the squared mismatch of the fit sits at the four space
    nodes nearest the wall, where G2/g1 swings with R(t) (from -86 to -22
    at rho = -0.9973, 32 x 32 zero control): the median follows most time
    nodes there, where the mean is pulled by the swing.  At 32 x 32 that
    takes 8% fewer GMRES iterations than the time mean, and fewer than any
    quantile, trimmed, weighted or single-node fit tried.
    """
    N, M = setup.N, setup.M
    c = 2.0 / params.T
    g1 = np.ravel(g1)
    # The time median of G2/g1, as np.median computes it; np.median itself
    # imports numpy.ma on first use (1.6 MiB of peak RSS in a 32 x 32 solve).
    q = np.sort(G2 / g1, axis=1)[:, [(M - 1) // 2, M // 2]]
    a = 0.5 * (q[:, 0] + q[:, 1])
    lam, X = np.linalg.eig(setup.D0rT_inv @ (a[:, None] * setup.D1r.T - setup.D2r.T) / c)
    keep = lam.imag >= 0
    left = np.linalg.inv(X)[keep] @ setup.D0rT_inv / c
    G = np.linalg.inv(setup.D1t + lam[keep, None, None] * (setup.D0t * g1))
    back = X[:, keep] * np.where(lam[keep].imag > 0, 2.0, 1.0)

    def precondition(r):
        return (back @ ((left @ r.reshape(N, M))[:, None, :] @ G)[:, 0]).real.ravel()

    return precondition


def _solve_matrix_free(g1, G2, setup, params, sources, name, x0, reuse):
    """One :func:`_solve_fields` system by GMRES, never forming the operator.

    GMRES applies :func:`_apply_operator`.  In W = C D0t, with
    K = D0t^-1 D1t, scaling its time columns by d = 1/g1 and replacing
    G2 diag(d) by its time median a(rho) (the median is the better fit
    near the wall; :func:`_preconditioner`) leaves the Sylvester equation
    P W + W K diag(d) = (c D0r')^-1 R diag(d),
    P = (c D0r')^-1 (diag(a) D1r' - D2r'); its solution is the
    preconditioner (:func:`_preconditioner`).  Only the space side is
    diagonalized (Lynch, Rice & Thomas, Numer. Math. 6, 1964),
    P = X diag(lambda) X^-1: the time side K diag(d) has eigenvectors far
    too ill-conditioned (cond 4e16 at M = 32).  Space mode i then needs one
    M x M time block G_i = (D1t + lambda_i D0t diag(g1))^-1, and row i of
    X^-1 (c D0r')^-1 R times G_i is row i of X^-1 C.  P is real, so a
    complex pair of modes gives complex-conjugate rows: only the modes with
    Im lambda >= 0 are kept, the columns of X for the pairs are doubled,
    and the real part is C (as measured, L/H's P has a real spectrum and
    F's has complex pairs).
    Over the zero and pool controls, cond(X) stays below 450 up to
    64 x 64 at both measured parameter sets, except at 48 x 48 and
    mu1 = 0.06, where it reaches 1.6e4; GMRES recomputes the true residual,
    so that costs iterations, not accuracy.
    D0r'^-1 comes from the setup.

    ``sources`` is (k, N, M), and so are the result and the starting
    guesses ``x0``.  A dict ``reuse``, kept by the caller from one
    fixed-point pass to the next, carries the preconditioner and the largest
    GMRES iteration count of its solves, and totals the GMRES iterations and
    preconditioner builds of its passes ("gmres_iterations", "builds", read
    by :func:`fixed_point_solve`).  The preconditioner is kept for the next
    pass only when this pass's solves took no more iterations than the
    previous pass's, so the first pass's never is (built at the zero
    iterate, where the frozen coefficients do not depend on t, it is exact,
    and its solves take 1-2 iterations).  Each system is solved once per
    pass.  A run that fails raises, on a kept preconditioner as on a fresh
    one.
    """
    N, M = setup.N, setup.M
    precondition = reuse.get("precondition")
    if precondition is None:
        precondition = _preconditioner(g1, G2, setup, params)
        reuse["builds"] = reuse.get("builds", 0) + 1

    def apply(x):
        return _apply_operator(g1, G2, setup, params, x.reshape(N, M)).ravel()

    X, count, total = np.empty_like(sources), 0, reuse.get("gmres_iterations", 0)
    for k, (b, x) in enumerate(zip(sources, x0)):
        y, its = _gmres(apply, precondition, b.ravel(), name, x.ravel())
        X[k], count, total = y.reshape(N, M), max(count, its), total + its
    keep = "iterations" in reuse and count <= reuse["iterations"]
    reuse.update(precondition=precondition if keep else None, iterations=count,
                 gmres_iterations=total)
    return X


def _gmres(apply, precondition, b, name, x0):
    """x with ||b - A x|| <= GMRES_RTOL ||b|| by restarted, right-preconditioned GMRES.

    ``apply`` is x -> A x and ``precondition`` r -> M^-1 r (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7, 1986), started from ``x0`` if
    ||b - A x0|| < ||b|| and from zero otherwise (so b = 0 gives x = 0).
    The Krylov basis of A M^-1 is orthogonalized by classical Gram-Schmidt
    applied twice; each cycle updates x itself and recomputes the true
    residual b - A x, so rounding in M^-1 does not set the attainable
    residual.  The Hessenberg bookkeeping runs on Python floats: each new
    column, its Givens rotations and the least-squares right-hand side, with
    numpy only for the triangular solve that ends a cycle.  Each rotation is
    built from ``np.hypot``, as ``math.hypot`` rounds differently in the
    last bit, so x is bit for bit what the same steps give on numpy arrays.
    Returns x and the iterations taken.  Raises
    :class:`NonConvergenceError` after ``GMRES_MAX_ITER`` iterations or on
    a non-finite residual, whatever the preconditioner, and
    :class:`SingularOperatorError` when a rotation meets a zero column,
    as on a singular operator.
    """
    bnorm = np.linalg.norm(b)
    x, r = x0, b - apply(x0)
    if not np.linalg.norm(r) < bnorm:
        x, r = np.zeros_like(b), b
    target = GMRES_RTOL * bnorm
    done = 0
    while not (beta := np.linalg.norm(r)) <= target:
        if done >= GMRES_MAX_ITER or not np.isfinite(beta):
            raise NonConvergenceError(
                f"GMRES on the {name} collocation system stopped at relative "
                f"residual {beta / bnorm:.3e} after {done} iterations")
        m = min(GMRES_RESTART, GMRES_MAX_ITER - done)
        V = np.empty((m + 1, b.size))  # each row written before it is read
        np.divide(r, beta, out=V[0])
        # Triangular columns, Givens (cos, sin) reducing them, least-squares rhs
        columns, rot, g = [], [], [float(beta)]
        for k in range(m):
            w = apply(precondition(V[k]))
            basis, h = V[:k + 1], 0.0
            for _ in range(2):
                dh = basis @ w
                w -= dh @ basis
                h = h + dh
            col, hk = h.tolist(), float(np.linalg.norm(w))
            for i, (cs, sn) in enumerate(rot):
                col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                      cs * col[i + 1] - sn * col[i])
            d = float(np.hypot(col[k], hk))
            if d == 0.0:
                raise SingularOperatorError(name, np.inf)
            cs, sn = col[k] / d, hk / d
            rot.append((cs, sn))
            col[k] = d
            columns.append(col)
            g[k], g_next = cs * g[k], -sn * g[k]
            g.append(g_next)
            done += 1
            if abs(g_next) <= target or hk == 0.0:
                break
            np.divide(w, hk, out=V[k + 1])
        H = np.zeros((k + 1, k + 1))
        for j, col in enumerate(columns):
            H[:j + 1, j] = col
        z = np.linalg.solve(H, g[:k + 1])
        x = x + precondition(z @ V[:k + 1])
        r = b - apply(x)
    return x, done


def _frame(pts, C, C_R, setup):
    """The :class:`~plaquectrl.model.Frame` at the points ``pts`` of the
    iterate C (3, ..., N, M), C_R (..., M): R at the time nodes, L, H, F at
    the nodes."""
    return model.Frame(pts, C_R @ setup.D0t, setup.field_values(C))


def _boundary(v_inner, setup, params):
    """C_R (..., M) of the boundary ODE (2/T) R' = v(-1, t) for the inner
    velocities ``v_inner`` (..., M)."""
    # One row product per member, never one product over the batch, so that
    # each of the Jacobian's colors rounds as it would alone.
    return (0.5 * params.T) * (v_inner[..., None, :] @ setup.D1tT_inv.T)[..., 0, :]


def _pass_residual(fr, C, phi, setup, params):
    """A C - S (3, B, N, M) at the grids of frame ``fr``, with v(-1) (B, M), the
    sources S and the (g1, G2) pairs of :func:`kernels.eval_state_grids`."""
    v_field, v_inner, _, _ = model.velocity_solve(fr, setup)
    S, LH, F = kernels.eval_state_grids(fr, v_inner[:, None], v_field, phi[:, None])
    AC = np.concatenate([_apply_operator(*LH, setup, params, C[:2]),
                         _apply_operator(*F, setup, params, C[2:])])
    return AC - S, v_inner, S, LH, F


def residual(C, C_R, phi, setup: CollocationSetup, params: ModelParameters):
    """Nodal residuals of the collocation equations at a batch of iterates.

    C (3, B, N, M) and C_R (B, M) stack B iterates of
    :func:`fixed_point_solve` on their axes 1 and 0, phi (B, M) their nodal
    controls.  Returns ``(F, F_R, S)``: F = A(Z) C - S(Z) (3, B, N, M) for
    L, H and F, with the operators and sources of a fixed-point pass at the
    iterate Z = (C, C_R) itself; F_R = C_R - (T/2) v(-1) D1t^-T (B, M) for R;
    and the sources S, the scale the field residuals are read against.  A
    fixed point of the pass is a zero of (F, F_R).
    """
    fr = _frame(model.Points(setup.rho[None, :, None], params), C, C_R[:, None], setup)
    F, v_inner, S, _, _ = _pass_residual(fr, C, phi, setup, params)
    return F, C_R - _boundary(v_inner, setup, params), S


def residual_norm(state: StateSolution, params: ModelParameters) -> float:
    """Sup-norm of :func:`residual` at ``state`` relative to the sup-norm of
    its sources S (absolute where S is zero)."""
    F, F_R, S = residual(state.C[:, None], state.C_R[None], state.phi[None],
                         state.setup, params)
    top, scale = max(np.abs(F).max(), np.abs(F_R).max()), np.abs(S).max()
    return float(top / scale if scale > 0.0 else top)


def residual_jacobian(state: StateSolution, setup: CollocationSetup,
                      params: ModelParameters) -> np.ndarray:
    """(dF/dZ | dF/dphi)' of :func:`residual` at ``state``, (n + M, n) with
    n = 3NM + M: row d is the derivative of the flattened (F, F_R) in
    direction d of z = (C, C_R, phi).  The linear part (A(Z) dC, dC_R) is
    :func:`assemble_operator` at the state's grids; the time-local rest is
    one batch, the state and +-JVP_STEP (1 + max |nodal Z|) along each of the
    3N + 2 colors (module docstring), differenced at each time node, mapped
    to coefficients by X = D0r' C D0t, R = C_R D0t, and -(T/2) dv(-1) D1t^-T.
    """
    N, M = setup.N, setup.M
    nm, n, k = N * M, 3 * N * M + M, 3 * N + 2
    nodal = np.concatenate([setup.field_values(state.C).reshape(3 * N, M),
                            state.C_R[None] @ setup.D0t, state.phi[None]])
    h = JVP_STEP * (1.0 + np.abs(nodal[:-1]).max())
    Z = nodal + np.concatenate([np.zeros((1, k)), h * np.eye(k), -h * np.eye(k)])[:, :, None]
    F, v_inner, _, LH, FF = _pass_residual(  # unnamed, the frame and its grids are freed on return
        model.Frame(model.Points(setup.rho[None, :, None], params), Z[:, 3 * N:-1],
                    Z[:, :3 * N].reshape(-1, 3, N, M).swapaxes(0, 1)),
        np.broadcast_to(state.C[:, None], (3, 2 * k + 1, N, M)), Z[:, -1], setup, params)
    out = np.concatenate([F.swapaxes(0, 1).reshape(-1, 3 * N, M), v_inner[:, None]], axis=1)
    D = (out[1:k + 1] - out[k + 1:]) / (2.0 * h)  # (color, output, time node)
    spaced = np.concatenate([(setup.D0r @ D[:3 * N].reshape(3, N, -1)).reshape(3 * N, -1, M),
                             D[3 * N:-1]])
    jac = np.empty((n + M, n))
    np.multiply(spaced[:, None], setup.D0t[:, None], out=jac[:n].reshape(3 * N + 1, M, -1, M))
    np.multiply(D[-1], np.eye(M)[:, None], out=jac[n:].reshape(M, -1, M))
    jac[:, 3 * nm:] = -_boundary(jac[:, 3 * nm:], setup, params)
    jac[3 * nm:n, 3 * nm:] += np.eye(M)
    A = assemble_operator(*(np.stack([a[0], b[0]]) for a, b in zip(LH, FF)), setup, params)
    for f in range(3):  # L, H on the first operator, F on the second
        jac[f * nm:(f + 1) * nm, f * nm:(f + 1) * nm] += A[f // 2].T
    return jac


def gradient(state: StateSolution, setup: CollocationSetup,
             params: ModelParameters) -> np.ndarray:
    """Exact gradient of J = 1 - R(1) - eps over the M control segments at ``state``.

    One dense solve of dF/dZ dZ = -dF/dphi on :func:`residual_jacobian` at
    the discrete solution Z = (C, C_R) gives the sensitivities
    (implicit-function theorem), and dJ/dphi = -D0t[:, -1] . dC_R.  Segment
    i sums the nodes that :meth:`ControlVector.values_at` reads it at
    (:func:`segment_index`), so a segment without a time node reads exactly
    0.  Raises :class:`JacobianError` on a singular or non-finite Jacobian.
    """
    M = setup.M
    jac = residual_jacobian(state, setup, params)
    n = jac.shape[1]
    if not np.isfinite(jac).all():
        raise JacobianError("non-finite collocation residual Jacobian")
    try:
        dZ = np.linalg.solve(jac[:n].T, -jac[n:].T)
        if not np.isfinite(dZ).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise JacobianError(f"singular collocation residual Jacobian (cond ~ "
                            f"{np.linalg.cond(jac[:n]):.3e})") from None
    dJ = -setup.D0t[:, -1] @ dZ[n - M:]
    return np.bincount(segment_index(setup.t, M), weights=dJ, minlength=M)


def fixed_point_solve(control: ControlVector, setup: CollocationSetup,
                      params: ModelParameters, tol: float = FP_TOL,
                      max_iter: int = FP_MAX_ITER) -> StateSolution:
    """Iterate the linearized collocation systems to a fixed point.

    All coefficient and source grids are frozen at the previous iterate; the
    boundary ODE (2/T) R' = v(-1, t) is advanced with the previous velocity.
    L and H share one operator, solved once with both sources
    (:func:`_solve_fields`).  The solve converges when the sup-norm delta of
    the stacked coefficients drops below ``tol``; still moving after
    ``max_iter`` passes, it is returned with ``converged=False``.  Each pass
    builds one :class:`~plaquectrl.model.Frame` of the new iterate, which
    serves its velocity solve and the next pass's grids.

    Updates are under-relaxed adaptively: the blend weight halves whenever
    the raw update delta grows and recovers toward 1 as it contracts.  Any
    limit of the damped sweep is a fixed point of the undamped map, so the
    converged solution is unaffected; the damping only stabilizes the
    transient, which diverges on coarse grids under the plain sweep.  A
    non-finite update raises :class:`NonConvergenceError`.
    """
    if not 0.0 < tol < np.inf or max_iter < 1:
        raise ValueError("tol must be positive and finite, and max_iter >= 1")
    phi = control.values_at(setup.t)
    N, M = setup.N, setup.M
    C = np.zeros((3, N, M))  # L, H, F coefficient matrices
    C_R = np.zeros(M)
    pts = model.Points(setup.rho[:, None], params)
    fr = _frame(pts, C, C_R, setup)
    v_field, v_inner = np.zeros((N, M)), np.zeros(M)
    last, omega = np.inf, 1.0  # previous update delta, blend weight
    history, reuse = [], {}  # update deltas; each matrix-free system's dict, by name

    for it in range(1, max_iter + 1):
        S, LH, F = kernels.eval_state_grids(fr, v_inner, v_field, phi)
        C_new = _solve_fields(S, LH, F, setup, params, C, reuse)
        C_R_new = _boundary(v_inner, setup, params)
        delta = float(np.maximum(np.abs(C_new - C).max(), np.abs(C_R_new - C_R).max()))
        if not np.isfinite(delta):
            raise NonConvergenceError(f"non-finite update at iteration {it}")
        if delta > last:
            omega = max(0.5 * omega, 0.1)
        elif omega < 1.0 and delta < 0.5 * last:
            omega = min(2.0 * omega, 1.0)
        last = delta
        history.append(delta)
        C = (1.0 - omega) * C + omega * C_new
        C_R = (1.0 - omega) * C_R + omega * C_R_new
        fr = _frame(pts, C, C_R, setup)
        v_field, v_inner, _, _ = model.velocity_solve(fr, setup)
        if delta < tol:
            break
    return StateSolution(C=C, C_R=C_R, phi=phi, v_field=v_field, v_inner=v_inner,
                         residual_history=history, converged=delta < tol, iterations=it,
                         gmres_iterations=sum(d["gmres_iterations"] for d in reuse.values()),
                         preconditioner_builds=sum(d["builds"] for d in reuse.values()),
                         objective=1.0 - float(fr.R[-1]) - params.eps, setup=setup)


def objective(control: ControlVector, setup: CollocationSetup,
              params: ModelParameters, tol: float = FP_TOL,
              max_iter: int = FP_MAX_ITER) -> float:
    """Terminal plaque thickness 1 - R(1) - eps for a given control.

    Raises :class:`NonConvergenceError` if the fixed point does not converge.
    """
    state = fixed_point_solve(control, setup, params, tol=tol, max_iter=max_iter)
    require_converged(state, "objective")
    return state.objective


def solve_direct(setup: CollocationSetup, params: ModelParameters,
                 nlp_options: NlpOptions | None = None,
                 fp_tol: float = FP_TOL, fp_max_iter: int = FP_MAX_ITER,
                 x0_state: StateSolution | None = None):
    """Minimize the terminal thickness over the control box [0, Kbound]^M.

    The SQP oracle maps a batch of control vectors to their objectives.  The
    fixed point reads a control only through its values at the time nodes,
    so within this call each distinct nodal control is solved once, by
    :func:`fixed_point_solve`, and checked by :func:`require_converged`
    before its objective is used.  The SQP's gradient at a point is
    :func:`gradient` at the state the oracle solved there.  ``x0_state``, a
    converged state the caller already holds for the start x0 = 0 (solved
    with the same tolerances), stands in for that solve.

    Returns ``(control, state, value, result)`` where ``result`` is the full
    SQP trace/diagnostics.
    """
    opts = nlp_options or NlpOptions()
    M = setup.M
    states = {}  # nodal control bytes -> converged state, for this call only
    if x0_state is not None:
        require_converged(x0_state, "x0")
        states[x0_state.phi.tobytes()] = x0_state

    def solved(x):
        """The converged state of control ``x``, solved once per nodal control."""
        control = ControlVector(segments=x, Kbound=params.Kbound)
        key = control.values_at(setup.t).tobytes()
        if key not in states:
            state = fixed_point_solve(control, setup, params, tol=fp_tol, max_iter=fp_max_iter)
            require_converged(state, "objective")
            states[key] = state
        return states[key]

    problem = NlpProblem(dimension=M, lower=np.zeros(M),
                         upper=np.full(M, params.Kbound),
                         objective=lambda X: np.array([solved(x).objective for x in X]),
                         options=opts, gradient=lambda x: gradient(solved(x), setup, params))
    result = sqp_minimize(problem, np.zeros(M))
    best = ControlVector(segments=result.x, Kbound=params.Kbound)
    return best, solved(result.x), result.fun, result
