"""Verification studies: error norms, self-convergence, cross-method checks,
and the control-effect sweep over initial-concentration pairs.

Error norms compare a coarse-grid solution at its own collocation nodes with
a fine reference synthesized at the same points.  Each study returns one
record per grid or parameter pair and writes no files (the command line
formats them); failed rows are recorded rather than aborting the whole
study.  A fixed-point solve that stops without converging fails its row: no
number from it is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import direct, indirect
from .params import ModelParameters
from .spectral import build_setup


def err_inf(a, b) -> float:
    """Max absolute difference between two nodal arrays of one grid."""
    return float(np.max(np.abs(a - b)))


def err_l2(a, b) -> float:
    """Unweighted root-sum-square difference between two nodal arrays."""
    return float(np.sqrt(np.sum((a - b) ** 2)))


@dataclass
class ErrorReport:
    """One row of a convergence study."""

    N: int
    M: int
    Einf: dict = dc_field(default_factory=dict)
    E2: dict = dc_field(default_factory=dict)
    EJ: float = np.nan
    cpu_seconds: float = 0.0
    failed: bool = False
    message: str = ""


def convergence_study(params: ModelParameters, grid_list,
                      reference_grid=(16, 16), fp_tol=direct.FP_TOL,
                      fp_max_iter=direct.FP_MAX_ITER):
    """Direct-method self-convergence against a fine reference grid.

    Solves once on ``reference_grid`` and once per coarse grid with the zero
    control, then reports E_inf and E_2 for L, H, F at the coarse collocation
    nodes plus the objective gap and CPU seconds.  A row whose solve did not
    converge is marked failed; if the reference solve did not converge, every
    row is.
    """
    Ne, Me = reference_grid
    if not grid_list:
        raise ValueError("grid_list must name at least one grid")
    if any(N >= Ne or M >= Me for (N, M) in grid_list):
        raise ValueError("reference grid must be strictly finer than every entry")
    ref_setup = build_setup(Ne, Me)
    ref_control = direct.ControlVector(np.zeros(Me), params.Kbound)
    ref_state = direct.fixed_point_solve(ref_control, ref_setup, params,
                                         tol=fp_tol, max_iter=fp_max_iter)
    rows = []
    for (N, M) in grid_list:
        row = ErrorReport(N=N, M=M)
        t0 = time.perf_counter()
        try:
            direct.require_converged(ref_state, f"reference {Ne}x{Me}")
            setup = build_setup(N, M)
            cv = direct.ControlVector(np.zeros(M), params.Kbound)
            state = direct.fixed_point_solve(cv, setup, params,
                                             tol=fp_tol, max_iter=fp_max_iter)
            direct.require_converged(state, f"{N}x{M}")
            for which, C, C_ref in zip("LHF", state.C, ref_state.C):
                a = setup.field_values(C)
                b = ref_setup.eval_field(C_ref, setup.rho, setup.t)
                row.Einf[which] = err_inf(a, b)
                row.E2[which] = err_l2(a, b)
            row.EJ = abs(state.objective - ref_state.objective)
        except Exception as exc:  # noqa: BLE001 - row isolation by contract
            row.failed = True
            row.message = f"{type(exc).__name__}: {exc}"
        row.cpu_seconds = time.perf_counter() - t0
        rows.append(row)
    return rows


def cross_method_diff(direct_state: "direct.StateSolution",
                      indirect_sol: "indirect.AdjointSolution",
                      control: "direct.ControlVector") -> dict:
    """Sup-norm differences between the two solution routes.

    Fields are compared at the spatial collocation nodes over the indirect
    time grid, the boundary trajectory pointwise on that grid, and the
    control at the direct method's segment midpoints.
    """
    setup = direct_state.setup
    tg = indirect_sol.time_grid
    out = {}
    for which, C in zip("LHF", direct_state.C):
        d_vals = setup.eval_field(C, setup.rho, tg)  # (N, nt)
        i_vals = indirect_sol.field_nodes(which)  # (N, nt)
        out[which] = float(np.max(np.abs(d_vals - i_vals)))
    d_R = direct_state.radius(tg)
    out["R"] = float(np.max(np.abs(d_R - indirect_sol.R)))
    edges = control.partition
    mids = 0.5 * (edges[:-1] + edges[1:])
    d_phi = control.values_at(mids)
    i_phi = np.interp(mids, tg, indirect_sol.phi)
    # snap interpolated bang-bang samples back to the admissible levels
    i_phi = np.where(i_phi >= 0.5 * control.Kbound, control.Kbound, 0.0)
    out["control"] = float(np.max(np.abs(d_phi - i_phi)))
    out["control_match_fraction"] = float(np.mean(d_phi == i_phi))
    return out


def control_effect_sweep(pairs, params: ModelParameters, setup,
                         fp_tol=direct.FP_TOL, fp_max_iter=direct.FP_MAX_ITER,
                         nlp_options=None):
    """Optimized-vs-uncontrolled boundary trajectories per (L0, H0) pair.

    For every pair the direct problem is solved once with the zero control
    and once with the SQP-optimized control, whose optimization starts from
    the zero control's state instead of solving it again; both trajectories
    are returned in original coordinates (physical radius = R + eps) on a
    uniform time grid.  Failures are isolated per pair; a pair with a
    fixed-point solve that did not converge (uncontrolled, or inside the
    optimization, which raises on one) is marked failed.
    ``sqp_converged`` records whether the optimizer met its own tolerance.
    """
    t_grid = np.linspace(-1.0, 1.0, 101)
    results = []
    for (L0, H0) in pairs:
        row = {"L0": L0, "H0": H0, "t": (t_grid + 1.0) * params.T / 2.0,
               "failed": False, "message": ""}
        try:
            p = replace(params, L0=L0, H0=H0)
            zero = direct.ControlVector(np.zeros(setup.M), p.Kbound)
            st0 = direct.fixed_point_solve(zero, setup, p, tol=fp_tol,
                                           max_iter=fp_max_iter)
            direct.require_converged(st0, "uncontrolled")
            _, st1, val, res = direct.solve_direct(
                setup, p, nlp_options, fp_tol=fp_tol, fp_max_iter=fp_max_iter,
                x0_state=st0)
            row["R_uncontrolled"] = st0.radius(t_grid) + p.eps
            row["R_controlled"] = st1.radius(t_grid) + p.eps
            row["objective_controlled"] = val
            row["objective_uncontrolled"] = st0.objective
            row["sqp_converged"] = res.converged
        except Exception as exc:  # noqa: BLE001 - row isolation by contract
            row["failed"] = True
            row["message"] = f"{type(exc).__name__}: {exc}"
        results.append(row)
    return results


DEFAULT_SWEEP_PAIRS = [(0.0100, 0.0050), (0.0120, 0.0050),
                       (0.0140, 0.0050), (0.0160, 0.0050)]
