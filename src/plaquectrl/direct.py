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

The collocation operator is written once, as the time, drift and diffusion
terms of a map on batches of coefficient matrices
(:meth:`~plaquectrl.spectral.CollocationSetup.operator_terms`, combined by
:func:`_apply_operator`), using only matrices that
:func:`~plaquectrl.spectral.build_setup` built for the grid.  A system with
at most ``DENSE_MAX_UNKNOWNS`` unknowns N*M is assembled from those terms
applied to the identity, which the setup builds once on first use
(:func:`assemble_operator`, one operator per batch member), and solved by
one batched dense LU.  A larger one is never formed:
GMRES applies the map, member by member, and is preconditioned by a
Sylvester equation solved by Bartels-Stewart
(:func:`_solve_matrix_free`).  The cut-off sits
where the dense solve stops winning.  Whole fixed-point solves (default
parameters, zero control, 2-vCPU VM, OpenBLAS threads at their default)
take, dense against GMRES: 0.021 s against 0.112 s at 9 x 9 (81 unknowns),
0.035 s against 0.122 s at 11 x 9 (99), 0.19 s against 0.09 s at 10 x 10
(100), 0.37 s against 0.15 s at 16 x 16 and 4.4 s against 0.26 s at
32 x 32.  Both paths take the same fixed-point iterations and agree on J
to 1e-15.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import schur, solve_triangular
from scipy.linalg.lapack import dtrsyl

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
# GMRES_RESTART iterations and raises after GMRES_MAX_ITER.  The hardest
# system measured (mu1 = 0.06, 64 x 64, third fixed-point pass) needs 195.
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
    of L, H and F; ``v_field`` holds nodal velocity values per time node,
    with the boundary trace and slope at rho = -1 alongside.
    """

    C: np.ndarray
    C_R: np.ndarray
    v_field: np.ndarray
    v_inner: np.ndarray
    dv_inner: np.ndarray
    residual_history: list
    converged: bool
    iterations: int
    setup: CollocationSetup = dc_field(repr=False, default=None)

    def field_nodes(self, which: str) -> np.ndarray:
        """Nodal values (N, M) of L, H or F."""
        return self.setup.field_values(self.C[model.FIELDS.index(which)])

    def radius(self, t) -> np.ndarray:
        """Transformed free-boundary R at arbitrary times."""
        return self.setup.eval_time_series(self.C_R, t)

    def radius_nodes(self) -> np.ndarray:
        return self.C_R @ self.setup.D0t

    def final_radius(self) -> float:
        return float(self.C_R @ self.setup.time_at_p1)


def _apply_operator(g1, G2, setup, params, C):
    """The collocation operator with diffusion g1 and drift G2 on a batch C (..., N, M).

    With c = 2/T it maps C to c D0r' C D1t + G2 o (D1r' C D0t) - (D2r' C D0t) diag(g1).
    """
    time, drift, diffusion = setup.operator_terms(C)
    return (2.0 / params.T) * time + G2 * drift - diffusion * g1


def assemble_operator(g1, G2, setup: CollocationSetup,
                      params: ModelParameters) -> np.ndarray:
    """Square (N*M) collocation operator with diffusion g1 (M,) and drift G2 (N, M).

    (g1, G2) is one of the pairs returned by
    :func:`kernels.eval_state_grids` at the frozen iterate: the L/H operator
    or the F operator.  Rows/columns are flattened row-major over
    (space index, time index).  With c = 2/T this is
    c (D0r' x D1t') - g1 . (D2r' x D0t') + G2 . (D1r' x D0t'): the setup's
    :attr:`~plaquectrl.spectral.CollocationSetup.operator_matrices`, the
    terms of :func:`_apply_operator` applied to the identity, with G2 and g1
    scaling their rows.  Grids of a batch of iterates, G2 (B, N, M) and
    g1 (B, 1, M), give the B operators (B, n, n).
    """
    time, drift, diffusion = setup.operator_matrices
    rows = np.shape(G2)[:-2] + (setup.N * setup.M, 1)
    A = np.reshape(G2, rows) * drift
    A += (2.0 / params.T) * time
    A -= np.broadcast_to(g1, np.shape(G2)).reshape(rows) * diffusion
    return A


def _solve_fields(g1, G2, setup, params, sources, name):
    """Coefficient matrices (k, B, N, M) for sources (k, B, N, M), fields first.

    g1 (B, 1, M) and G2 (B, N, M) carry the member axis B; ``name`` names
    the system in errors.  At or below ``DENSE_MAX_UNKNOWNS`` unknowns the B
    operators are assembled and solved by one batched dense LU; above it
    each member's sources are solved matrix-free.
    """
    if setup.N * setup.M > DENSE_MAX_UNKNOWNS:
        return np.stack([_solve_matrix_free(g1[b], G2[b], setup, params,
                                            sources[:, b], name)
                         for b in range(len(G2))], axis=1)
    A = assemble_operator(g1, G2, setup, params)
    k, B = sources.shape[:2]
    try:
        sol = np.linalg.solve(A, sources.reshape(k, B, -1).transpose(1, 2, 0))
    except np.linalg.LinAlgError:
        raise SingularOperatorError(name, float(np.max(np.linalg.cond(A)))) from None
    if not np.all(np.isfinite(sol)):
        raise SingularOperatorError(name, float(np.max(np.linalg.cond(A))))
    return sol.transpose(2, 0, 1).reshape(sources.shape)


def _solve_matrix_free(g1, G2, setup, params, sources, name):
    """:func:`_solve_fields` by preconditioned GMRES, never forming the operator.

    GMRES applies :func:`_apply_operator`.  In W = C D0t, with
    K = D0t^-1 D1t, scaling its time columns by d = 1/g1 and replacing
    G2 diag(d) by its time mean a(rho) leaves the Sylvester equation
    P W + W B = (c D0r')^-1 R diag(d), P = (c D0r')^-1 (diag(a) D1r' - D2r'),
    B = K diag(d).  Bartels-Stewart on real Schur factors of P and B,
    computed once per operator, solves it (LAPACK dtrsyl); that solve is the
    preconditioner.  D0r'^-1, D0t^-1 and K come from the setup.  ``sources``
    is (k, N, M) and so is the result.
    """
    N, M = setup.N, setup.M
    c = 2.0 / params.T
    d = 1.0 / np.ravel(g1)
    a = np.mean(G2 * d, axis=1)
    S, U = schur(setup.D0rT_inv @ (a[:, None] * setup.D1r.T - setup.D2r.T) / c)
    Tb, V = schur(setup.K * d)
    to_schur, from_schur = U.T @ setup.D0rT_inv / c, d[:, None] * V
    to_coeffs = V.T @ setup.D0t_inv

    def precondition(r):
        Y, scale, _ = dtrsyl(S, Tb, to_schur @ r.reshape(N, M) @ from_schur)
        return (U @ Y @ to_coeffs).ravel() / scale

    def apply(x):
        return _apply_operator(g1, G2, setup, params, x.reshape(N, M)).ravel()

    return np.stack([_gmres(apply, precondition, b.ravel(), name).reshape(N, M)
                     for b in sources])


def _gmres(apply, precondition, b, name):
    """x with ||b - A x|| <= GMRES_RTOL ||b|| by restarted, right-preconditioned GMRES.

    ``apply`` is x -> A x and ``precondition`` r -> M^-1 r (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7, 1986).  The Krylov basis of A M^-1 is
    orthogonalized by classical Gram-Schmidt applied twice; each cycle
    updates x itself and recomputes the true residual b - A x, so rounding
    in M^-1 does not set the attainable residual.  Raises
    :class:`NonConvergenceError` after ``GMRES_MAX_ITER`` iterations or on a
    non-finite residual.
    """
    x = np.zeros_like(b)
    r = b
    target = GMRES_RTOL * np.linalg.norm(b)
    done = 0
    while not (beta := np.linalg.norm(r)) <= target:
        if done >= GMRES_MAX_ITER or not np.isfinite(beta):
            raise NonConvergenceError(
                f"GMRES on the {name} collocation system stopped at relative "
                f"residual {beta / np.linalg.norm(b):.3e} after {done} iterations")
        m = min(GMRES_RESTART, GMRES_MAX_ITER - done)
        V = np.zeros((m + 1, b.size))
        H = np.zeros((m + 1, m))
        rot = np.zeros((m, 2))  # Givens (cos, sin) reducing H to triangular
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
        z = solve_triangular(H[:k + 1, :k + 1], g[:k + 1])
        x = x + precondition(z @ V[:k + 1])
        r = b - apply(x)
    return x


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
    stops when the sup-norm delta of its stacked coefficients drops below
    ``tol`` and is frozen from then on; a member still moving after
    ``max_iter`` passes is returned with ``converged=False``.  Each pass
    solves the members still moving together: one batched dense solve for
    L/H and one for F, or GMRES member by member above
    ``DENSE_MAX_UNKNOWNS``.  Every member takes the same passes, and gives
    bit for bit the same state, as a batch of one.  Each pass builds one
    :class:`~plaquectrl.model.Frame` of the new iterate, which serves its
    velocity solve and the next pass's grids.

    Updates are under-relaxed adaptively, per member: the blend weight
    halves whenever the raw update delta grows and recovers toward 1 as it
    contracts.  Any limit of the damped sweep is a fixed point of the
    undamped map, so the converged solution is unaffected; the damping only
    stabilizes the transient, which diverges on coarse grids under the plain
    sweep.  A non-finite update of any member raises
    :class:`NonConvergenceError`.
    """
    if not tol > 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    phi = np.asarray(phi, dtype=float)
    B, (N, M) = len(phi), (setup.N, setup.M)
    member = np.arange(B)  # batch index of each member still moving
    C = np.zeros((B, 3, N, M))  # L, H, F coefficient matrices
    C_R = np.zeros((B, M))
    pts = model.Points(setup.rho[None, :, None], params)
    # The frame of the iterate: R (B, 1, M) at the time nodes, L, H, F at the nodes
    fr = model.Frame(pts, np.zeros((B, 1, M)), np.zeros((3, B, N, M)))
    v_field = np.zeros((B, N, M))
    v_inner = np.zeros((B, M))
    dv_inner = np.zeros((B, M))
    last = np.full(B, np.inf)  # previous update delta
    omega = np.ones(B)
    history = [[] for _ in range(B)]
    states = [None] * B

    def freeze(keep, converged, iterations):
        """Record the members not in ``keep`` as states and drop them."""
        for b in np.flatnonzero(~keep):
            states[member[b]] = StateSolution(
                C=C[b].copy(), C_R=C_R[b].copy(), v_field=v_field[b].copy(),
                v_inner=v_inner[b].copy(), dv_inner=dv_inner[b].copy(),
                residual_history=history[member[b]], converged=converged,
                iterations=iterations, setup=setup)
        return fr.take(keep), *(a[keep] for a in (member, C, C_R, v_field, v_inner,
                                                  dv_inner, last, omega, phi))

    for it in range(1, max_iter + 1):
        S, LH, F = kernels.eval_state_grids(fr, v_inner[:, None], v_field,
                                            phi[:, None])
        C_new = np.concatenate([_solve_fields(*LH, setup, params, S[:2], "L"),
                                _solve_fields(*F, setup, params, S[2:], "F")]
                               ).swapaxes(0, 1)
        # One row product per member, never one product over the batch, so
        # that no member's rounding depends on the batch it is in.
        C_R_new = (0.5 * params.T) * (v_inner[:, None] @ setup.D1tT_inv.T)[:, 0]
        delta = np.maximum(np.abs(C_new - C).reshape(len(C), -1).max(axis=1),
                           np.abs(C_R_new - C_R).max(axis=1))
        if not np.all(np.isfinite(delta)):
            raise NonConvergenceError(f"non-finite update at iteration {it}")
        omega = np.where(delta > last, np.maximum(0.5 * omega, 0.1),
                         np.where((omega < 1.0) & (delta < 0.5 * last),
                                  np.minimum(2.0 * omega, 1.0), omega))
        last = delta
        for b, d in zip(member, delta):
            history[b].append(float(d))
        w = omega[:, None]
        C = (1.0 - w[:, :, None, None]) * C + w[:, :, None, None] * C_new
        C_R = (1.0 - w) * C_R + w * C_R_new
        fr = model.Frame(pts, C_R[:, None] @ setup.D0t,
                         setup.field_values(C).swapaxes(0, 1))
        v_field, v_inner, dv_inner, _ = model.velocity_solve(fr, setup)
        moving = delta >= tol
        if not np.all(moving):
            (fr, member, C, C_R, v_field, v_inner, dv_inner, last, omega,
             phi) = freeze(moving, True, it)
            if not member.size:
                break
    freeze(np.zeros(len(member), dtype=bool), False, max_iter)
    return states


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
