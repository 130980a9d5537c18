"""Direct optimal-control route: fixed-point linearization + collocation + NLP.

Each fixed-point pass freezes the previous iterate, assembles the square
space-time Kronecker collocation operators (one shared by L and H, one for
F), solves for the new coefficient matrices, updates the velocity at every
time node in one solve, and advances the free boundary by a collocated ODE
in time.  The scalar objective 1 - R(1) - eps over piecewise-constant controls
is then handed to the SQP driver in :mod:`plaquectrl.nlp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels, model
from .nlp import NlpOptions, NlpProblem, sqp_minimize
from .params import ModelParameters
from .spectral import CollocationSetup


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration produced a non-finite update or did not converge."""


class SingularOperatorError(np.linalg.LinAlgError):
    """Collocation operator is singular; carries a condition estimate."""

    def __init__(self, kind: str, cond: float):
        self.kind = kind
        self.cond = cond
        super().__init__(f"singular {kind} collocation operator (cond ~ {cond:.3e})")


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

    Coefficient matrices are space-basis x time-basis; ``v_field`` holds
    nodal velocity values per time node, with the boundary trace and slope
    at rho = -1 alongside.
    """

    C_L: np.ndarray
    C_H: np.ndarray
    C_F: np.ndarray
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
        C = {"L": self.C_L, "H": self.C_H, "F": self.C_F}[which]
        return self.setup.field_values(C)

    def radius(self, t) -> np.ndarray:
        """Transformed free-boundary R at arbitrary times."""
        return self.setup.eval_time_series(self.C_R, t)

    def radius_nodes(self) -> np.ndarray:
        return self.C_R @ self.setup.D0t

    def final_radius(self) -> float:
        return float(self.C_R @ self.setup.time_at_p1)


def assemble_operator(kind: str, grids, setup: CollocationSetup,
                      params: ModelParameters) -> np.ndarray:
    """Square (N*M) collocation operator for field L, H or F.

    ``grids`` is the tuple returned by :func:`kernels.eval_state_grids` at
    the frozen iterate.  Rows/columns are flattened row-major over
    (space index, time index).  Operator:
    (2/T)(D0r x D1t) - G1 . (D2r x D0t) + G2 . (D1r x D0t).
    """
    FL, FH, FF, G12, G32, G11, G31 = grids
    if kind in ("L", "H"):
        G1 = np.broadcast_to(G11, G12.shape)
        G2 = G12
    elif kind == "F":
        G1 = np.broadcast_to(G31, G32.shape)
        G2 = G32
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    A = (2.0 / params.T) * np.kron(setup.D0r.T, setup.D1t.T)
    A -= G1.reshape(-1, 1) * np.kron(setup.D2r.T, setup.D0t.T)
    A += G2.reshape(-1, 1) * np.kron(setup.D1r.T, setup.D0t.T)
    return A


def _solve_fields(kind, A, rhs_grids):
    """Coefficient matrices (k, N, M) for k (N, M) source grids sharing ``A``."""
    try:
        sol = np.linalg.solve(A, rhs_grids.reshape(len(rhs_grids), -1).T)
    except np.linalg.LinAlgError:
        raise SingularOperatorError(kind, float(np.linalg.cond(A))) from None
    if not np.all(np.isfinite(sol)):
        raise SingularOperatorError(kind, float(np.linalg.cond(A)))
    return sol.T.reshape(rhs_grids.shape)


def fixed_point_solve(control: ControlVector, setup: CollocationSetup,
                      params: ModelParameters, tol: float = 1e-8,
                      max_iter: int = 50) -> StateSolution:
    """Iterate the linearized collocation systems to a fixed point.

    All coefficient and source grids are frozen at the previous iterate; the
    boundary ODE (2/T) R' = v(-1, t) is advanced with the previous velocity.
    L and H share one operator, solved once with both sources.  Stops when
    the sup-norm delta of the stacked coefficients drops below ``tol``;
    otherwise returns the last iterate with ``converged=False``.

    Updates are under-relaxed adaptively: the blend weight halves whenever
    the raw update delta grows and recovers toward 1 as it contracts.  Any
    limit of the damped sweep is a fixed point of the undamped map, so the
    converged solution is unaffected; the damping only stabilizes the
    transient, which diverges on coarse grids under the plain sweep.
    """
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    N, M = setup.N, setup.M
    phi = control.values_at(setup.t)
    C = np.zeros((3, N, M))  # L, H, F coefficient matrices
    C_R = np.zeros(M)
    nodal = np.zeros((3, N, M))  # L, H, F nodal values
    Rt = np.zeros(M)
    v_field = np.zeros((N, M))
    v_inner = np.zeros(M)
    history = []
    converged = False
    omega = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        grids = kernels.eval_state_grids(setup.rho, Rt, v_inner, v_field,
                                         *nodal, phi, params)
        C_new = np.concatenate([
            _solve_fields("L/H", assemble_operator("L", grids, setup, params),
                          np.stack(grids[:2])),
            _solve_fields("F", assemble_operator("F", grids, setup, params),
                          grids[2][None]),
        ])
        C_R_new = np.linalg.solve((2.0 / params.T) * setup.D1t.T, v_inner)
        delta = max(np.max(np.abs(C_new - C)), np.max(np.abs(C_R_new - C_R)))
        if not np.isfinite(delta):
            raise NonConvergenceError(f"non-finite update at iteration {it}")
        if history and delta > history[-1]:
            omega = max(0.5 * omega, 0.1)
        elif omega < 1.0 and history and delta < 0.5 * history[-1]:
            omega = min(2.0 * omega, 1.0)
        history.append(float(delta))
        C = (1.0 - omega) * C + omega * C_new
        C_R = (1.0 - omega) * C_R + omega * C_R_new
        nodal = setup.field_values(C)
        Rt = C_R @ setup.D0t
        v_field, v_inner, dv_inner = model.velocity_solve(
            Rt, setup.t, dict(zip("LHF", nodal)), params, setup)
        if delta < tol:
            converged = True
            break
    return StateSolution(C_L=C[0], C_H=C[1], C_F=C[2], C_R=C_R,
                         v_field=v_field, v_inner=v_inner, dv_inner=dv_inner,
                         residual_history=history, converged=converged,
                         iterations=it, setup=setup)


def objective(control: ControlVector, setup: CollocationSetup,
              params: ModelParameters, tol: float = 1e-8,
              max_iter: int = 50) -> float:
    """Terminal plaque thickness 1 - R(1) - eps for a given control."""
    state = fixed_point_solve(control, setup, params, tol=tol, max_iter=max_iter)
    return 1.0 - state.final_radius() - params.eps


def solve_direct(setup: CollocationSetup, params: ModelParameters,
                 nlp_options: NlpOptions | None = None,
                 fp_tol: float = 1e-8, fp_max_iter: int = 50):
    """Minimize the terminal thickness over the control box [0, Kbound]^M.

    Returns ``(control, state, value, result)`` where ``result`` is the full
    SQP trace/diagnostics.
    """
    opts = nlp_options or NlpOptions()
    M = setup.M

    def oracle(x):
        c = ControlVector(segments=x, Kbound=params.Kbound)
        return objective(c, setup, params, tol=fp_tol, max_iter=fp_max_iter)

    problem = NlpProblem(dimension=M, lower=np.zeros(M),
                         upper=np.full(M, params.Kbound),
                         objective=oracle, options=opts)
    result = sqp_minimize(problem, np.zeros(M))
    best = ControlVector(segments=result.x, Kbound=params.Kbound)
    state = fixed_point_solve(best, setup, params, tol=fp_tol,
                              max_iter=fp_max_iter)
    return best, state, result.fun, result
