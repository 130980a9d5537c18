"""Indirect optimal-control route: adjoint system + shooting + Runge-Kutta.

Spatial collocation reduces the coupled state/adjoint PDE system to a
first-order ODE system in time with the state blocks given at t = -1 and
the adjoint blocks at t = +1.  The unknown adjoint initial data (one value
per spatial collocation node for each adjoint field, plus the boundary
adjoint) is found by Newton iteration on the terminal-condition residual;
the inner initial-value problems are integrated with classical RK4 and the
bang-bang control is recovered from the switching function during the sweep.
The six coefficient blocks L, H, F, P_L, P_H, P_F are one (6, N) array per
time, whose halves are the model's stacked state X and adjoints P.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import model
from .params import ModelParameters
from .spectral import CollocationSetup

RESIDUAL_SENTINEL = 1e6
SHOOT_TOL = 1e-8  # defaults of solve_indirect and its sweeps, shared with the CLI
SHOOT_MAX_ITER = 50
RK4_STEPS = 400
RK4_MIN_STEPS = 2  # fewest RK4 steps a sweep accepts, shared with the CLI
JAC_STEP = 1e-6  # forward-difference step of the Newton Jacobian columns
MAX_DAMPING = 20  # step halvings tried before a Newton step is given up


class IntegrationError(RuntimeError):
    """RK4 produced a non-finite state; carries the offending time."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"non-finite state at t = {t}")


class SingularJacobianError(np.linalg.LinAlgError):
    """Shooting Jacobian is singular; lists the near-degenerate columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"singular shooting Jacobian (degenerate columns {self.columns})")


@dataclass(frozen=True)
class ShootingVector:
    """Unknown initial data: nodal values for the three adjoint fields
    (N each) followed by the boundary adjoint initial value."""

    s: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", arr)
        if arr.ndim != 1 or (arr.size - 1) % 3 != 0:
            raise ValueError("shooting vector must have length 3N + 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("shooting vector entries must be finite")

    @property
    def N(self) -> int:
        return (self.s.size - 1) // 3


@dataclass
class AdjointSolution:
    """Full trajectories of one converged (or best-effort) shooting solve."""

    time_grid: np.ndarray
    blocks: np.ndarray  # (steps+1, 6, N) coefficients of L, H, F, P_L, P_H, P_F
    R: np.ndarray
    phi: np.ndarray  # recovered bang-bang control samples on time_grid
    switching_times: list
    shooting: ShootingVector
    residual_norm: float
    newton_iterations: int
    converged: bool
    setup: CollocationSetup = dc_field(repr=False, default=None)

    def field_nodes(self, which: str) -> np.ndarray:
        """Nodal trajectory (steps+1, N) of one state or adjoint field."""
        k = (model.FIELDS + model.ADJOINTS).index(which)
        return self.blocks[:, k] @ self.setup.D0r


def ode_rhs(t, y, setup: CollocationSetup, pts: model.Points,
            phi: float) -> np.ndarray:
    """Time derivative of the packed state/adjoint collocation system.

    Packed layout: [alpha_L | alpha_H | alpha_F | beta_PL | beta_PH |
    beta_PF | R | P_R].  The six coefficient blocks are one (6, N) array,
    taken to nodal values, slopes and curvatures by one product with
    ``setup.D012r``; the spatial mass matrix is inverted by
    ``setup.solve_space_values``, and velocity and its adjoint are
    resolved afresh from the current state.  Every model formula reads one
    :class:`~plaquectrl.model.Frame` of the nodes, which raises
    :class:`~plaquectrl.model.OcclusionError` if R + eps >= 1; ``pts`` holds
    the model's factors at ``setup.rho``.  ``phi`` is the control in force.
    """
    N = setup.N
    R, PR = float(y[6 * N]), float(y[6 * N + 1])
    nodal = y[:6 * N].reshape(6, N) @ setup.D012r
    values, slopes, curvatures = nodal[:, :N], nodal[:, N:2 * N], nodal[:, 2 * N:]
    X, P = values[:3], values[3:]
    fr = model.Frame(pts, R, X)
    v, v_inner, dv_inner, dv = model.velocity_solve(fr, setup)
    v_inner, dv_inner = float(v_inner), float(dv_inner)
    fr.add_adjoint(v)
    Pv = model.adjoint_velocity_solve(fr, P, slopes[:3], setup)
    (g11, g12), (g31, g32) = model.coeff(fr, v_inner, v)
    g42, g62 = model.adjoint_drift(fr, v_inner, v, dv)
    # States:   (2/T) M a' = F_S + G1 (D2' a) - G2 (D1' a);
    # adjoints: (2/T) M b' = F_C - G1 (D2' b) - G2adj (D1' b).
    G1 = np.array([[g11], [g11], [g31], [-g11], [-g11], [-g31]])
    G2 = np.array([g12, g12, g32, g42, g42, g62])
    sources = np.concatenate([model.rhs(fr, v_inner, v, phi),
                              model.adjoint_rhs(fr, P, Pv, phi)])
    half_T = pts.params.T / 2.0
    dy = np.empty_like(y)
    dy[:6 * N] = half_T * setup.solve_space_values(
        (sources + G1 * curvatures - G2 * slopes).T).T.ravel()
    dy[6 * N] = half_T * v_inner
    # Known discrepancy, pinned by perfbench/refs.json: 1 - R here, where every
    # other transformed term divides by om = 1 - (R + eps).
    dy[6 * N + 1] = -half_T * (2.0 / (1.0 - R)) * dv_inner * PR
    return dy


def rk4_step(f, t, y, h) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size h from (t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _control_from_xi(xi_value, phi_prev, Kbound):
    """Bang-bang law with the tie held at the previous value."""
    if xi_value < 0.0:
        return Kbound
    if xi_value > 0.0:
        return 0.0
    return phi_prev


def _xi_at_inner(y, setup, inner: model.Points):
    """Switching function at rho = -1 for the packed state.

    ``inner`` holds the model's factors at rho = -1.  The P_F exponent
    carries the factor (1 + rho), so at rho = -1 the switching function
    does not depend on the velocity; the frame computes only exp(-sl),
    exp(-sf) and exp(-sz) = 1.
    """
    N = setup.N
    X, P = y[:6 * N].reshape(2, 3, N) @ setup.space_at_m1
    fr = model.Frame(inner, float(y[6 * N]), X)
    fr.add_adjoint(0.0)
    return float(model.switching_xi(fr, P))


def _integrate_with_control(y0, setup, params, n_steps):
    """Forward sweep applying the bang-bang law at every grid point.

    The control is refreshed from the sign of the switching function at the
    start of each step and held constant across the RK4 stages.  Returns
    (terminal y, time_grid, trajectory, phi samples, switching times).  Raises ``ValueError`` below ``RK4_MIN_STEPS`` steps.
    """
    if n_steps < RK4_MIN_STEPS:
        raise ValueError(f"n_steps must be >= {RK4_MIN_STEPS}, got {n_steps}")
    grid = np.linspace(-1.0, 1.0, n_steps + 1)
    h = 2.0 / n_steps
    y = np.asarray(y0, dtype=float).copy()
    traj = np.empty((grid.size, y.size))
    phi_samples = np.empty(grid.size)
    switching = []
    phi_prev = 0.0
    xi_prev = None
    traj[0] = y
    pts, inner = model.Points(setup.rho, params), model.Points(-1.0, params)
    for n in range(grid.size):
        t = grid[n]
        xi = _xi_at_inner(y, setup, inner)
        phi = _control_from_xi(xi, phi_prev, params.Kbound)
        phi_samples[n] = phi
        if xi_prev is not None and xi_prev * xi < 0.0:
            # linear estimate of the crossing inside the previous step
            switching.append(float(t - h + h * xi_prev / (xi_prev - xi)))
        xi_prev = xi
        phi_prev = phi
        if n == grid.size - 1:
            break
        y = rk4_step(lambda tt, yy: ode_rhs(tt, yy, setup, pts, phi), t, y, h)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(float(grid[n + 1]))
        traj[n + 1] = y
    return y, grid, traj, phi_samples, switching


def _initial_state(s: ShootingVector, setup: CollocationSetup) -> np.ndarray:
    """Packed initial condition: zero state, adjoint data from ``s``."""
    N = setup.N
    if s.N != N:
        raise ValueError(f"shooting vector sized for N = {s.N}, setup has N = {N}")
    y0 = np.zeros(6 * N + 2)
    y0[3 * N:6 * N] = setup.solve_space_values(s.s[:3 * N].reshape(3, N).T).T.ravel()
    y0[6 * N + 1] = s.s[3 * N]
    return y0


def _sweep(s: ShootingVector, setup: CollocationSetup, params: ModelParameters,
           n_steps: int):
    """(terminal nodal adjoints and boundary adjoint, sweep) of ``s``, the sweep
    being what :func:`_integrate_with_control` returns or raises."""
    sweep = _integrate_with_control(_initial_state(s, setup), setup, params, n_steps)
    yend, N = sweep[0], setup.N
    return np.append(yend[3 * N:6 * N].reshape(3, N) @ setup.D0r, yend[6 * N + 1]), sweep


def _shoot(s: ShootingVector, setup: CollocationSetup, params: ModelParameters,
           n_steps: int):
    """:func:`_sweep`, or the sentinel and None if it blows up or hits occlusion."""
    try:
        return _sweep(s, setup, params, n_steps)
    except (IntegrationError, model.OcclusionError):
        return np.full(3 * setup.N + 1, RESIDUAL_SENTINEL), None


def shooting_residual(s: ShootingVector, setup: CollocationSetup,
                      params: ModelParameters, n_steps: int = RK4_STEPS) -> np.ndarray:
    """Terminal-condition mismatch for a trial shooting vector.

    Integrates forward from t = -1 and stacks the nodal terminal values of
    the three adjoint fields with the terminal boundary adjoint.  Returns a
    large-residual sentinel if the integration blows up or hits occlusion,
    so the outer Newton solver can backtrack.
    """
    return _shoot(s, setup, params, n_steps)[0]


def solve_indirect(setup: CollocationSetup, params: ModelParameters,
                   tol: float = SHOOT_TOL, max_iter: int = SHOOT_MAX_ITER,
                   n_steps: int = RK4_STEPS) -> AdjointSolution:
    """Shooting solve of the coupled state/adjoint system.

    Damped Newton with a column-wise finite-difference Jacobian drives the
    terminal residual below ``tol`` in sup-norm; the trajectories and the
    recovered bang-bang control are those of the sweep that gave the
    returned residual.  On instability the RK4 step is halved once (step
    count doubled) before giving up; a blown-up Jacobian probe ends Newton.
    """
    if not 0.0 < tol < np.inf or max_iter < 0:
        raise ValueError("tol must be positive and finite, and max_iter >= 0")
    N = setup.N
    dim = 3 * N + 1
    s = np.zeros(dim)
    res, sweep = _shoot(ShootingVector(s), setup, params, n_steps)
    if sweep is None:  # retry at the doubled step count, which raises its own error
        n_steps *= 2
        res, sweep = _sweep(ShootingVector(s), setup, params, n_steps)
    best_norm = float(np.max(np.abs(res)))
    it = 0
    converged = best_norm < tol
    while not converged and it < max_iter:
        it += 1
        probes = np.array([shooting_residual(ShootingVector(s + JAC_STEP * e), setup,
                                             params, n_steps) for e in np.eye(dim)])
        if np.all(probes == RESIDUAL_SENTINEL, axis=1).any():
            break  # a blown-up probe would enter J as a column of about 1e12
        J = (probes - res).T / JAC_STEP
        col_norms = np.linalg.norm(J, axis=0)
        bad = np.where(col_norms < 1e-14)[0]
        if bad.size:
            raise SingularJacobianError(bad)
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(np.where(col_norms < 1e-10)[0]) from None
        lam = 1.0
        for _ in range(MAX_DAMPING + 1):
            trial = s + lam * step
            rt, sweep_t = _shoot(ShootingVector(trial), setup, params, n_steps)
            norm_t = float(np.max(np.abs(rt)))
            if sweep_t is not None and norm_t < best_norm:
                s, res, best_norm, sweep = trial, rt, norm_t, sweep_t
                break
            lam *= 0.5
        else:
            break  # no damped step improved the residual
        converged = best_norm < tol

    yend, grid, traj, phi_samples, switching = sweep
    return AdjointSolution(
        time_grid=grid, blocks=traj[:, :6 * N].reshape(-1, 6, N),
        R=traj[:, 6 * N], phi=phi_samples, switching_times=switching,
        shooting=ShootingVector(s), residual_norm=best_norm, newton_iterations=it,
        converged=converged, setup=setup)
