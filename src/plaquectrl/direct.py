"""Direct optimal-control route: fixed-point linearization + collocation + NLP.

Each fixed-point pass freezes the previous iterate and solves the square
space-time collocation systems (one operator shared by L and H, one for F)
for the new coefficient matrices, updates the velocity at every time node in
one solve, and advances the free boundary by a collocated ODE in time.  The
fields travel as one array, L, H, F stacked as in :mod:`plaquectrl.model`,
and each operator as the (diffusion g1, drift G2) pair that
:func:`kernels.eval_state_grids` returns for it.  The
fixed point runs on a batch of nodal controls at once
(:func:`fixed_point_batch`); a single solve is a batch of one.  The scalar
objective 1 - R(1) - eps over piecewise-constant controls is then handed to
the SQP driver in :mod:`plaquectrl.nlp` as an oracle over batches: each
gradient's finite-difference probes are one batch, and :func:`solve_direct`
solves each distinct nodal control once.

The collocation operator is written once: the time, drift and diffusion
terms of a map on batches of coefficient matrices
(:meth:`~plaquectrl.spectral.CollocationSetup.operator_terms`), combined
with the grids by :func:`_combine`.  Up to ``DENSE_MAX_UNKNOWNS`` unknowns
N*M, the system is that map applied to the identity
(:func:`assemble_operator`, one operator per batch member) in buffers that
:func:`fixed_point_batch` allocates once per call (per-pass temporaries
would be mapped and faulted in afresh by the C allocator), solved by one
batched dense LU.  A larger system is never formed: GMRES applies the map
(:func:`_apply_operator`) member by member from the previous iterate, once
per system and pass, preconditioned by a Sylvester equation solved by
diagonalizing its space side; a member keeps a preconditioner for the next
pass when its GMRES count did not rise (:func:`_solve_matrix_free`).
Both paths run on numpy alone.  Whole fixed-point solves (default
parameters, zero control, 2-vCPU VM, OpenBLAS threads at their default;
fastest of many) take, dense against GMRES: 0.011 s against 0.032 s at
9 x 9 (81 unknowns), 0.014 s against 0.033 s at 11 x 9 (99), 0.015 s
against 0.032 s at 10 x 10 (100), 0.077 s against 0.035 s at 16 x 16 and
1.8 s against 0.090 s at 32 x 32.  Dense wins up to about 12 x 12 and
breaks even at 13 x 13; moving the cut-off would change the rounding of
every grid in between.  Both paths take the same fixed-point iterations
and agree on J to 1e-15.
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
# GMRES_RESTART iterations and raises after GMRES_MAX_ITER.  The hardest system
# measured (mu1 = 0.06, mu2 = 0.015, 64 x 64, third fixed-point pass) needs about 190.
GMRES_RTOL = 1e-13
GMRES_RESTART = 200
GMRES_MAX_ITER = 600


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
        t = np.atleast_1d(np.asarray(t, dtype=float))
        M = self.segments.size
        idx = np.floor((t + 1.0) * M / 2.0).astype(int)
        idx = np.clip(idx, 0, M - 1)
        return self.segments[idx]


@dataclass
class StateSolution:
    """Converged (or best-effort) fields of one fixed-point solve.

    ``C`` (3, N, M) stacks the space-basis x time-basis coefficient matrices
    of L, H and F, and ``C_R`` (M,) the time coefficients of R; the last time
    node is t = 1, so R(1) is the last of :meth:`radius_nodes`.  ``v_field``
    holds nodal velocity values per time node, with the boundary trace and
    slope at rho = -1 alongside.
    """

    C: np.ndarray
    C_R: np.ndarray
    v_field: np.ndarray
    v_inner: np.ndarray
    residual_history: list
    converged: bool
    iterations: int
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
                      params: ModelParameters, out=None) -> np.ndarray:
    """Square (N*M) collocation operator with diffusion g1 (M,) and drift G2 (N, M).

    (g1, G2) is one of the pairs of :func:`kernels.eval_state_grids` at the
    frozen iterate.  Rows/columns are flattened row-major over (space index,
    time index); with c = 2/T the operator is c (D0r' x D1t') -
    g1 . (D2r' x D0t') + G2 . (D1r' x D0t'), and column j is
    :func:`_apply_operator` of unit coefficient matrix j: the same combine,
    of the setup's :attr:`~plaquectrl.spectral.CollocationSetup.operator_matrices`
    with g1 and G2 as flat rows.  Grids of a batch, G2 (B, N, M) and
    g1 (B, 1, M), give the B operators (B, n, n), written into the first of
    the buffers ``out`` = (operator, scratch), if given, and returned.
    """
    rows = np.shape(G2)[:-2] + (1, setup.N * setup.M)
    AT, scratch = (None, None) if out is None else (b.swapaxes(-1, -2) for b in out)
    AT = _combine(*setup.operator_matrices, np.broadcast_to(g1, np.shape(G2)).reshape(rows),
                  np.reshape(G2, rows), params, AT, scratch)
    return AT.swapaxes(-1, -2) if out is None else out[0]


def _solve_fields(S, LH, F, setup, params, work, x0):
    """Coefficient matrices (3, B, N, M) of L, H, F for sources S (3, B, N, M).

    L and H share the operator of the (diffusion g1 (B, 1, M), drift
    G2 (B, N, M)) pair ``LH``, F has that of ``F``.  If ``work`` is an array
    of buffers (2, B, n, n), which :func:`fixed_point_batch` allocates up to
    ``DENSE_MAX_UNKNOWNS`` unknowns, each operator's B members are assembled
    into them and solved by one batched dense LU.  Above, ``work`` holds one
    dict per member, and each member is solved matrix-free from the guesses
    ``x0`` (3, B, N, M), reusing the preconditioners that its dict carries
    over from the previous pass.
    """
    systems = (("L", LH, slice(0, 2)), ("F", F, slice(2, 3)))
    X = np.empty_like(S)
    if isinstance(work, list):
        for b, reuse in enumerate(work):
            for name, (g1, G2), k in systems:
                X[k, b] = _solve_matrix_free(g1[b], G2[b], setup, params, S[k, b], name,
                                             x0[k, b], reuse.setdefault(name, {}))
        return X
    for name, (g1, G2), k in systems:
        A = assemble_operator(g1, G2, setup, params, out=work)
        try:
            sol = np.linalg.solve(A, S[k].reshape(*S[k].shape[:2], -1).transpose(1, 2, 0))
            if not np.all(np.isfinite(sol)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            if np.isfinite(S[k]).all() and np.isfinite(A).all():
                raise SingularOperatorError(name, float(np.max(np.linalg.cond(A)))) from None
            raise NonConvergenceError(f"{name} collocation system has non-finite input") from None
        X[k] = sol.transpose(2, 0, 1).reshape(S[k].shape)
    return X


def _preconditioner(g1, G2, setup, params):
    """r -> M^-1 r for the operator with diffusion g1 and drift G2, by the
    fast diagonalization of its space side (:func:`_solve_matrix_free`)."""
    N, M = setup.N, setup.M
    c = 2.0 / params.T
    g1 = np.ravel(g1)
    a = np.mean(G2 / g1, axis=1)
    lam, X = np.linalg.eig(setup.D0rT_inv @ (a[:, None] * setup.D1r.T - setup.D2r.T) / c)
    keep = lam.imag >= 0
    left = np.linalg.inv(X)[keep] @ setup.D0rT_inv / c
    G = np.linalg.inv(setup.D1t + lam[keep, None, None] * (setup.D0t * g1))
    back = X[:, keep] * np.where(lam[keep].imag > 0, 2.0, 1.0)

    def precondition(r):
        return (back @ ((left @ r.reshape(N, M))[:, None, :] @ G)[:, 0]).real.ravel()

    return precondition


def _solve_matrix_free(g1, G2, setup, params, sources, name, x0=None, reuse=None):
    """One member's :func:`_solve_fields` system by GMRES, never forming the operator.

    GMRES applies :func:`_apply_operator`.  In W = C D0t, with
    K = D0t^-1 D1t, scaling its time columns by d = 1/g1 and replacing
    G2 diag(d) by its time mean a(rho) leaves the Sylvester equation
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
    cond(X) stays below 430 up to 64 x 64 at both measured parameter sets.
    D0r'^-1 comes from the setup.

    ``sources`` is (k, N, M), and so are the result and the starting
    guesses ``x0`` (zero if not given).  A dict ``reuse``, kept by the
    caller from one fixed-point pass to the next, carries the preconditioner
    and the largest GMRES iteration count of its solves.  The preconditioner
    is kept for the next pass only when this pass's solves took no more
    iterations than the previous pass's, so the first pass's never is (built
    at the zero iterate, where the frozen coefficients do not depend on t,
    it is exact, and its solves take 1-2 iterations).  Each system is
    solved once per pass; a run that fails raises, on a kept preconditioner
    as on a fresh one.
    """
    N, M = setup.N, setup.M
    reuse = {} if reuse is None else reuse
    precondition = reuse.get("precondition") or _preconditioner(g1, G2, setup, params)

    def apply(x):
        return _apply_operator(g1, G2, setup, params, x.reshape(N, M)).ravel()

    x0 = np.zeros_like(sources) if x0 is None else x0
    X, count = np.empty_like(sources), 0
    for k, (b, x) in enumerate(zip(sources, x0)):
        y, its = _gmres(apply, precondition, b.ravel(), name, x.ravel())
        X[k], count = y.reshape(N, M), max(count, its)
    keep = "iterations" in reuse and count <= reuse["iterations"]
    reuse.update(precondition=precondition if keep else None, iterations=count)
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


def fixed_point_solve(control: ControlVector, setup: CollocationSetup,
                      params: ModelParameters, tol: float = FP_TOL,
                      max_iter: int = FP_MAX_ITER) -> StateSolution:
    """Iterate the linearized collocation systems to a fixed point.

    :func:`fixed_point_batch` for the one nodal control of ``control``.
    """
    return fixed_point_batch(control.values_at(setup.t)[None], setup, params,
                             tol=tol, max_iter=max_iter)[0]


def fixed_point_batch(phi, setup: CollocationSetup, params: ModelParameters,
                      tol: float = FP_TOL, max_iter: int = FP_MAX_ITER) -> list:
    """Fixed points for a batch of nodal controls ``phi`` (B, M), one state each.

    All coefficient and source grids are frozen at the previous iterate; the
    boundary ODE (2/T) R' = v(-1, t) is advanced with the previous velocity.
    L and H share one operator, solved once with both sources.  A member
    converges when the sup-norm delta of its stacked coefficients drops
    below ``tol``; from then on its iterate is held exactly in place while
    the others move on.  A member still moving after ``max_iter`` passes is
    returned with ``converged=False``.  Each pass solves the whole batch
    together: one batched dense solve for L/H and one for F, or GMRES member
    by member above ``DENSE_MAX_UNKNOWNS``.  Every member takes the same
    passes, and gives bit for bit the same state, as a batch of one.  Each
    pass builds one :class:`~plaquectrl.model.Frame` of the new iterate,
    which serves its velocity solve and the next pass's grids.  The iterate
    C is (3, B, N, M), field-major like both, and member b gets ``C[:, b]``.

    Updates are under-relaxed adaptively, per member: the blend weight
    halves whenever the raw update delta grows and recovers toward 1 as it
    contracts.  Any limit of the damped sweep is a fixed point of the
    undamped map, so the converged solution is unaffected; the damping only
    stabilizes the transient, which diverges on coarse grids under the plain
    sweep.  A non-finite update of a moving member raises
    :class:`NonConvergenceError`.
    """
    if not 0.0 < tol < np.inf or max_iter < 1:
        raise ValueError("tol must be positive and finite, and max_iter >= 1")
    phi = np.asarray(phi, dtype=float)
    if phi.shape[1:] != (setup.M,) or not (phi.size and np.isfinite(phi).all()):
        raise ValueError(f"phi must be a finite (B, {setup.M}) array, B >= 1")
    B, (N, M) = len(phi), (setup.N, setup.M)
    C = np.zeros((3, B, N, M))  # L, H, F coefficient matrices
    C_R = np.zeros((B, M))
    pts = model.Points(setup.rho[None, :, None], params)
    # The frame of the iterate: R (B, 1, M) at the time nodes, L, H, F at the nodes
    fr = model.Frame(pts, np.zeros((B, 1, M)), np.zeros((3, B, N, M)))
    v_field, v_inner = np.zeros((B, N, M)), np.zeros((B, M))
    last, omega = np.full(B, np.inf), np.ones(B)  # previous update delta, blend weight
    passes = np.zeros(B, dtype=int)  # pass each member converged at, 0 while moving
    history = [[] for _ in range(B)]
    # Dense buffers shared by L/H and F, each solved before the next is assembled;
    # column-major: assembly writes each column contiguously, and in C order it is
    # 1.7x slower (8 x 8, B = 7).  Matrix-free, each member's preconditioners by system.
    work = (np.empty((2, B, N * M, N * M)).swapaxes(2, 3)
            if N * M <= DENSE_MAX_UNKNOWNS else [{} for _ in range(B)])

    for it in range(1, max_iter + 1):
        S, LH, F = kernels.eval_state_grids(fr, v_inner[:, None], v_field, phi[:, None])
        C_new = _solve_fields(S, LH, F, setup, params, work, C)
        # One row product per member, never one product over the batch, so
        # that no member's rounding depends on the batch it is in.
        C_R_new = (0.5 * params.T) * (v_inner[:, None] @ setup.D1tT_inv.T)[:, 0]
        delta = np.maximum(np.abs(C_new - C).max(axis=(0, 2, 3)),
                           np.abs(C_R_new - C_R).max(axis=1))
        moving = passes == 0
        if not np.all(np.isfinite(delta[moving])):
            raise NonConvergenceError(f"non-finite update at iteration {it}")
        omega = np.where(delta > last, np.maximum(0.5 * omega, 0.1),
                         np.where((omega < 1.0) & (delta < 0.5 * last),
                                  np.minimum(2.0 * omega, 1.0), omega))
        last = delta
        for b in np.flatnonzero(moving):
            history[b].append(float(delta[b]))
        # A held member keeps its iterate exactly: np.where, not a zero
        # weight, as 0 * NaN of a held member's update would be NaN.
        w = omega[:, None, None]
        C = np.where(moving[:, None, None], (1.0 - w) * C + w * C_new, C)
        C_R = np.where(moving[:, None], (1.0 - w[:, 0]) * C_R + w[:, 0] * C_R_new, C_R)
        fr = model.Frame(pts, C_R[:, None] @ setup.D0t, setup.field_values(C))
        v_field, v_inner, _, _ = model.velocity_solve(fr, setup)
        passes[moving & (delta < tol)] = it
        if passes.all():
            break
    return [StateSolution(C=C[:, b], C_R=C_R[b], v_field=v_field[b], v_inner=v_inner[b],
                          residual_history=history[b], converged=bool(passes[b]),
                          iterations=int(passes[b]) or max_iter, setup=setup)
            for b in range(B)]


def objective(control: ControlVector, setup: CollocationSetup,
              params: ModelParameters, tol: float = FP_TOL,
              max_iter: int = FP_MAX_ITER) -> float:
    """Terminal plaque thickness 1 - R(1) - eps for a given control.

    Raises :class:`NonConvergenceError` if the fixed point does not converge.
    """
    state = fixed_point_solve(control, setup, params, tol=tol, max_iter=max_iter)
    require_converged(state, "objective")
    return 1.0 - state.final_radius() - params.eps


def solve_direct(setup: CollocationSetup, params: ModelParameters,
                 nlp_options: NlpOptions | None = None,
                 fp_tol: float = FP_TOL, fp_max_iter: int = FP_MAX_ITER):
    """Minimize the terminal thickness over the control box [0, Kbound]^M.

    The SQP oracle maps a batch of control vectors to their objectives.  The
    fixed point reads a control only through its values at the time nodes,
    so within this call each distinct nodal control is solved once: a batch
    is reduced to the nodal controls not seen before, which are solved
    together by :func:`fixed_point_batch`.  Every state is checked by
    :func:`require_converged` before its objective is used.

    Returns ``(control, state, value, result)`` where ``result`` is the full
    SQP trace/diagnostics.
    """
    opts = nlp_options or NlpOptions()
    M = setup.M
    states = {}  # nodal control bytes -> converged state, for this call only

    def nodal(x):
        """Memo key and values of control ``x`` at the time nodes."""
        phi = ControlVector(segments=x, Kbound=params.Kbound).values_at(setup.t)
        return phi.tobytes(), phi

    def oracle(X):
        keys, phis = zip(*map(nodal, X))
        new = {k: phi for k, phi in zip(keys, phis) if k not in states}
        if new:
            batch = fixed_point_batch(np.stack(list(new.values())), setup, params,
                                      tol=fp_tol, max_iter=fp_max_iter)
            for k, state in zip(new, batch):
                require_converged(state, "objective")
                states[k] = state
        return np.array([1.0 - states[k].final_radius() - params.eps for k in keys])

    problem = NlpProblem(dimension=M, lower=np.zeros(M),
                         upper=np.full(M, params.Kbound),
                         objective=oracle, options=opts)
    result = sqp_minimize(problem, np.zeros(M))
    best = ControlVector(segments=result.x, Kbound=params.Kbound)
    return best, states[nodal(result.x)[0]], result.fun, result
