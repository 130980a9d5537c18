"""Verification studies: error norms, self-convergence, cross-method checks,
and the control-effect sweep over initial-concentration pairs.

Error norms compare a coarse-grid solution at its own collocation nodes with
a fine reference synthesized at the same points.  The study emitters produce
a CSV file and a plain-text table with one row per grid or parameter pair;
failed rows are recorded rather than aborting the whole study.  A fixed-point
solve that stops without converging fails its row: no number from it is
reported.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import direct, indirect
from .params import ModelParameters
from .spectral import build_setup


def err_inf(coarse_eval, reference_eval, rho_nodes, t_nodes) -> float:
    """Max absolute difference over the tensor grid of coarse nodes."""
    a = np.asarray(coarse_eval(rho_nodes, t_nodes), dtype=float)
    b = np.asarray(reference_eval(rho_nodes, t_nodes), dtype=float)
    return float(np.max(np.abs(a - b)))


def err_l2(coarse_eval, reference_eval, rho_nodes, t_nodes) -> float:
    """Unweighted root-sum-square difference over the tensor grid."""
    a = np.asarray(coarse_eval(rho_nodes, t_nodes), dtype=float)
    b = np.asarray(reference_eval(rho_nodes, t_nodes), dtype=float)
    return float(np.sqrt(np.sum((a - b) ** 2)))


@dataclass
class ErrorReport:
    """One row of a convergence study."""

    N: int
    M: int
    Ne: int
    Me: int
    Einf: dict = dc_field(default_factory=dict)
    E2: dict = dc_field(default_factory=dict)
    EJ: float = np.nan
    cpu_seconds: float = 0.0
    failed: bool = False
    message: str = ""


def _field_evaluator(state, which):
    C = {"L": state.C_L, "H": state.C_H, "F": state.C_F}[which]

    def ev(rho, t):
        return state.setup.eval_field(C, rho, t)

    return ev


def convergence_study(params: ModelParameters, grid_list,
                      reference_grid=(16, 16), fp_tol=1e-8,
                      fp_max_iter=400, control=None):
    """Direct-method self-convergence against a fine reference grid.

    Solves once on ``reference_grid`` and once per coarse grid with the same
    (default zero) control, then reports E_inf and E_2 for L, H, F at the
    coarse collocation nodes plus the objective gap and CPU seconds.  A row
    whose solve did not converge is marked failed; if the reference solve did
    not converge, every row is.
    """
    Ne, Me = reference_grid
    if any(N >= Ne or M >= Me for (N, M) in grid_list):
        raise ValueError("reference grid must be strictly finer than every entry")
    ref_setup = build_setup(Ne, Me)
    segs = np.zeros(Me) if control is None else np.asarray(control, dtype=float)
    ref_control = direct.ControlVector(np.resize(segs, Me), params.Kbound)
    ref_state = direct.fixed_point_solve(ref_control, ref_setup, params,
                                         tol=fp_tol, max_iter=fp_max_iter)
    ref_J = 1.0 - ref_state.final_radius() - params.eps
    rows = []
    for (N, M) in grid_list:
        row = ErrorReport(N=N, M=M, Ne=Ne, Me=Me)
        t0 = time.perf_counter()
        try:
            direct.require_converged(ref_state, f"reference {Ne}x{Me}")
            setup = build_setup(N, M)
            cv = direct.ControlVector(np.resize(segs, M), params.Kbound)
            state = direct.fixed_point_solve(cv, setup, params,
                                             tol=fp_tol, max_iter=fp_max_iter)
            direct.require_converged(state, f"{N}x{M}")
            for which in ("L", "H", "F"):
                ce = _field_evaluator(state, which)
                re = _field_evaluator(ref_state, which)
                row.Einf[which] = err_inf(ce, re, setup.rho, setup.t)
                row.E2[which] = err_l2(ce, re, setup.rho, setup.t)
            row.EJ = abs((1.0 - state.final_radius() - params.eps) - ref_J)
        except Exception as exc:  # noqa: BLE001 - row isolation by contract
            row.failed = True
            row.message = f"{type(exc).__name__}: {exc}"
        row.cpu_seconds = time.perf_counter() - t0
        rows.append(row)
    return rows


def study_csv(rows) -> str:
    """Convergence-study rows as CSV text."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["N", "M", "Einf_L", "Einf_H", "Einf_F",
                "E2_L", "E2_H", "E2_F", "E_J", "cpu_seconds", "status"])
    for r in rows:
        if r.failed:
            w.writerow([r.N, r.M] + [""] * 7 + [f"{r.cpu_seconds:.12g}",
                                                f"failed: {r.message}"])
        else:
            w.writerow([r.N, r.M]
                       + [f"{r.Einf[u]:.12g}" for u in "LHF"]
                       + [f"{r.E2[u]:.12g}" for u in "LHF"]
                       + [f"{r.EJ:.12g}", f"{r.cpu_seconds:.12g}", "ok"])
    return buf.getvalue()


def study_table(rows, params: ModelParameters) -> str:
    """Plain-text table of a convergence study (one row per grid)."""
    lines = [
        f"self-convergence study  (reference grid {rows[0].Ne} x {rows[0].Me}; "
        f"L0={params.L0}, H0={params.H0}, T={params.T})",
        f"{'N':>4} {'M':>4} {'Einf(L)':>12} {'Einf(H)':>12} {'Einf(F)':>12} "
        f"{'E2(L)':>12} {'E(J)':>12} {'cpu(s)':>8}",
    ]
    for r in rows:
        if r.failed:
            lines.append(f"{r.N:>4} {r.M:>4}  failed: {r.message}")
        else:
            lines.append(
                f"{r.N:>4} {r.M:>4} {r.Einf['L']:>12.4e} {r.Einf['H']:>12.4e} "
                f"{r.Einf['F']:>12.4e} {r.E2['L']:>12.4e} {r.EJ:>12.4e} "
                f"{r.cpu_seconds:>8.2f}")
    return "\n".join(lines) + "\n"


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
    for which in ("L", "H", "F"):
        C = {"L": direct_state.C_L, "H": direct_state.C_H,
             "F": direct_state.C_F}[which]
        d_vals = setup.eval_field(C, setup.rho, tg)  # (N, nt)
        i_vals = indirect_sol.field_nodes(which).T  # (N, nt)
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
                         fp_tol=1e-8, fp_max_iter=400, nlp_options=None):
    """Optimized-vs-uncontrolled boundary trajectories per (L0, H0) pair.

    For every pair the direct problem is solved once with the zero control
    and once with the SQP-optimized control; both trajectories are returned
    in original coordinates (physical radius = R + eps) on a uniform time
    grid.  Failures are isolated per pair; a pair with a fixed-point solve
    that did not converge (uncontrolled, inside the optimization, or final
    controlled) is marked failed.
    ``sqp_converged`` records whether the optimizer met its own tolerance.
    """
    t_grid = np.linspace(-1.0, 1.0, 101)
    results = []
    for (L0, H0) in pairs:
        row = {"L0": L0, "H0": H0, "t": (t_grid + 1.0) * params.T / 2.0,
               "failed": False, "message": ""}
        try:
            p = params.with_overrides(L0=L0, H0=H0)
            zero = direct.ControlVector(np.zeros(setup.M), p.Kbound)
            st0 = direct.fixed_point_solve(zero, setup, p, tol=fp_tol,
                                           max_iter=fp_max_iter)
            direct.require_converged(st0, "uncontrolled")
            best, st1, val, res = direct.solve_direct(
                setup, p, nlp_options, fp_tol=fp_tol, fp_max_iter=fp_max_iter)
            direct.require_converged(st1, "controlled")
            row["R_uncontrolled"] = st0.radius(t_grid) + p.eps
            row["R_controlled"] = st1.radius(t_grid) + p.eps
            row["control"] = best.segments.copy()
            row["objective_controlled"] = val
            row["objective_uncontrolled"] = 1.0 - st0.final_radius() - p.eps
            row["sqp_converged"] = res.converged
        except Exception as exc:  # noqa: BLE001 - row isolation by contract
            row["failed"] = True
            row["message"] = f"{type(exc).__name__}: {exc}"
        results.append(row)
    return results


def sweep_csv(results) -> str:
    """Sweep results as CSV text (one row per pair and time sample)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["L0", "H0", "tau", "R_uncontrolled", "R_controlled", "status"])
    for row in results:
        if row["failed"]:
            w.writerow([row["L0"], row["H0"], "", "", "",
                        f"failed: {row['message']}"])
            continue
        for tau, ru, rc in zip(row["t"], row["R_uncontrolled"],
                               row["R_controlled"]):
            w.writerow([f"{row['L0']:.12g}", f"{row['H0']:.12g}",
                        f"{tau:.12g}", f"{ru:.12g}", f"{rc:.12g}", "ok"])
    return buf.getvalue()


DEFAULT_SWEEP_PAIRS = [(0.0100, 0.0050), (0.0120, 0.0050),
                       (0.0140, 0.0050), (0.0160, 0.0050)]
