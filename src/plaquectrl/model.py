"""Transformed plaque-growth model: coordinate maps, coefficients, right-hand sides.

Everything here operates on the fixed domain rho in [-1, 1], t in [-1, 1]
obtained by pinning the free boundary to rho = -1 and rescaling time, with
the exponential change of dependent variables that converts the Robin
boundary conditions at the inner edge to homogeneous Neumann ones.

All formulas accept scalars or numpy arrays elementwise.  ``R`` throughout
is the shifted radius (physical inner radius minus ``eps``), so the physical
radius is ``R + eps``.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .params import ModelParameters
from .spectral import CollocationSetup, jacobi_eval

DENOM_FLOOR = 1e-12


class OcclusionError(ValueError):
    """Raised when R + eps >= 1 (vessel fully occluded, singular coefficients)."""


class DenominatorError(ValueError):
    """Raised when a saturation denominator falls below the floor."""

    def __init__(self, term: str, value):
        self.term = term
        super().__init__(f"denominator {term} below floor: {value!r}")


def front_fix(r, tau, R, T):
    """Map physical (r, tau) to transformed (rho, t).

    rho = 2(r - R)/(1 - R) - 1,  t = 2 tau / T - 1, with R the physical
    free-boundary radius.
    """
    R = float(R)
    if R >= 1.0:
        raise OcclusionError(f"free boundary R = {R} >= 1")
    rho = 2.0 * (np.asarray(r, dtype=float) - R) / (1.0 - R) - 1.0
    t = 2.0 * np.asarray(tau, dtype=float) / T - 1.0
    return rho, t


def front_fix_inverse(rho, t, R, T):
    """Exact inverse of :func:`front_fix`."""
    R = float(R)
    if R >= 1.0:
        raise OcclusionError(f"free boundary R = {R} >= 1")
    r = R + (np.asarray(rho, dtype=float) + 1.0) * (1.0 - R) / 2.0
    tau = (np.asarray(t, dtype=float) + 1.0) * T / 2.0
    return r, tau


def exponent_sl(rho, R, params: ModelParameters):
    """Exponent of the Robin->Neumann transform for L and H (and P_L, P_H)."""
    return -params.alpha * (1.0 - (R + params.eps)) * (1.0 - rho) ** 2 / 8.0


def exponent_sf(rho, R, params: ModelParameters):
    """Exponent of the Robin->Neumann transform for F."""
    return -params.beta * (1.0 - (R + params.eps)) * (1.0 - rho) ** 2 / 8.0


def exponent_sz(rho, R, v, params: ModelParameters):
    """Exponent of the Robin->Neumann transform for the foam-cell adjoint P_F."""
    return (
        (1.0 - (R + params.eps))
        * (1.0 - rho) ** 2
        * (1.0 + rho)
        * (v + params.D * params.beta)
        / 8.0
    )


def _check_occlusion(R, params):
    if np.any(np.asarray(R) + params.eps >= 1.0):
        raise OcclusionError(f"R + eps >= 1 (R = {R!r}, eps = {params.eps})")


def _guard(name, value, floor):
    if np.any(np.abs(value) < floor):
        raise DenominatorError(name, value)
    return value


def coeff(kind, rho, R, v_inner, v_local, params: ModelParameters, *,
          F=None, dv_drho=None, dfv_dF=None):
    """A named PDE coefficient evaluated per its printed formula.

    ``kind``: one of g11, g12, g31, g32, g42, g62.  ``v_inner`` is the
    velocity at rho = -1, ``v_local`` the velocity at the evaluation point.
    g62 additionally needs the local foam-cell value ``F``, the velocity
    slope ``dv_drho`` and the derivative of the velocity source with respect
    to F, ``dfv_dF``.
    """
    _check_occlusion(R, params)
    p = params
    Rb = R + p.eps
    om = 1.0 - Rb
    q = (rho + 1.0) + Rb * (1.0 - rho)
    if kind == "g11":
        return 4.0 / om**2
    if kind == "g31":
        return 4.0 * p.D / om**2
    if kind == "g12":
        return -8.0 / (q * om) - v_inner * (rho + 1.0) / om + 2.0 * (1.0 - rho) * p.alpha / om
    if kind == "g32":
        return (
            -8.0 * p.D / (q * om)
            - v_inner * (rho + 1.0) / om
            + 2.0 * p.D * (1.0 - rho) * p.alpha / om
            + 2.0 * v_local / om
        )
    if kind == "g42":
        return -8.0 / (q * om) - v_inner * (rho + 1.0) / om - 2.0 * (1.0 - rho) * p.alpha / om
    if kind == "g62":
        if F is None or dv_drho is None or dfv_dF is None:
            raise ValueError("g62 needs F, dv_drho and dfv_dF")
        oneR = 1.0 - R
        return (
            -8.0 * p.D / (q * om)
            - v_inner * (rho + 1.0) / om
            - 3.0 * (rho**2 - 2.0 * rho - 1.0) * (v_local + p.D * p.beta) / oneR
            - (1.0 - rho) ** 2 * (1.0 + rho) / oneR * dv_drho
            - 2.0 * F * dfv_dF / oneR
        )
    raise ValueError(f"unknown coefficient kind {kind!r}")


def rhs(kind, rho, t, R, v_inner, fields, phi, params: ModelParameters,
        floor=DENOM_FLOOR):
    """A transformed right-hand side f_L, f_H, f_F or f_v.

    ``fields`` maps "L", "H", "F", "v" to point values.  ``phi`` is the
    control value at time t.  Saturation denominators below ``floor`` raise
    :class:`DenominatorError` naming the offending term.
    """
    _check_occlusion(R, params)
    p = params
    L = fields.get("L", 0.0)
    H = fields.get("H", 0.0)
    F = fields.get("F", 0.0)
    v = fields.get("v", 0.0)
    Rb = R + p.eps
    om = 1.0 - Rb
    w = (1.0 - rho) ** 2
    q = (rho + 1.0) + Rb * (1.0 - rho)
    sl = -p.alpha * om * w / 8.0
    sf = -p.beta * om * w / 8.0
    esl = np.exp(sl)
    esf = np.exp(sf)
    Lden = _guard("K1 + exp(sl)L + L0", p.K1 + esl * L + p.L0, floor)
    Fden = _guard("K2 + exp(sf)F", p.K2 + esf * F, floor)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + esl * H + p.H0, floor)
    if kind == "fL":
        return (
            p.alpha * v_inner * w / (4.0 * p.T) * L
            + v_inner * (rho + 1.0) * (1.0 - rho) * p.alpha / 4.0 * L
            - 2.0 * p.alpha * (1.0 - rho) / q * L
            + p.alpha / om * L
            + p.alpha**2 * w / 4.0 * L
            - p.r1 * np.exp(-sl) * (esl * L + p.L0)
            - p.k1 * (p.M0 - esf * F) * (esl * L + p.L0) / Lden * np.exp(-sl)
        )
    if kind == "fH":
        return (
            p.alpha * v_inner * w / (4.0 * p.T) * H
            + v_inner * (rho + 1.0) * (1.0 - rho) * p.alpha / 4.0 * H
            - 2.0 * p.alpha * (1.0 - rho) / q * H
            + p.alpha / om * H
            + p.alpha**2 * w / 4.0 * H
            - p.r2 * np.exp(-sl) * (esl * H + p.H0)
            - (phi + p.k2) * np.exp(-sl) * esf * F * (esl * H + p.H0) / Fden
        )
    if kind == "fF":
        return (
            p.beta * v_inner * w / (4.0 * p.T) * F
            + v_inner * (rho + 1.0) * (1.0 - rho) * p.beta / 4.0 * F
            - 2.0 * p.beta * p.D * (1.0 - rho) / q * F
            + v * p.beta * (1.0 - rho) / 2.0
            + p.D * p.beta / om * F
            + p.beta**2 * p.D * w / 4.0 * F
            + p.k1 * (p.M0 - esf * F) * (esl * L + p.L0) * np.exp(-sl) / Lden
            - (phi + p.k2) * (esl * H + p.H0) * F / Fden
            - p.lam * F * (p.M0 - esf * F) * (esl * L + p.L0) / Hden
            + (p.mu1 - p.mu2) * F * (p.M0 - esf * F) / p.M0
        )
    if kind == "fv":
        return (
            om
            / (2.0 * p.M0)
            * (
                p.lam * (p.M0 - esf * F) * (esl * L + p.L0) / Hden
                - p.mu1 * (p.M0 - esf * F)
                - p.mu2 * esf * F
            )
        )
    raise ValueError(f"unknown rhs kind {kind!r}")


def fv_dF(rho, R, fields, params: ModelParameters, floor=DENOM_FLOOR):
    """Partial derivative of f_v with respect to the local F value."""
    p = params
    Rb = R + p.eps
    om = 1.0 - Rb
    w = (1.0 - rho) ** 2
    esl = np.exp(-p.alpha * om * w / 8.0)
    esf = np.exp(-p.beta * om * w / 8.0)
    L = fields.get("L", 0.0)
    H = fields.get("H", 0.0)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + esl * H + p.H0, floor)
    return (
        om
        / (2.0 * p.M0)
        * esf
        * (-p.lam * (esl * L + p.L0) / Hden + p.mu1 - p.mu2)
    )


def adjoint_rhs(kind, rho, t, R, fields, adjoints, phi, params: ModelParameters,
                floor=DENOM_FLOOR):
    """A transformed adjoint right-hand side f_PL, f_PH or f_PF.

    Obtained by rewriting the original adjoint sources in the transformed
    variables: physical quantities are reconstructed by inverting the
    exponential change of variables, the source is evaluated, and the result
    is scaled back by the forward exponential.  Linear in the adjoints.
    """
    _check_occlusion(R, params)
    p = params
    L = fields.get("L", 0.0)
    H = fields.get("H", 0.0)
    F = fields.get("F", 0.0)
    v = fields.get("v", 0.0)
    PL = adjoints.get("P_L", 0.0)
    PH = adjoints.get("P_H", 0.0)
    PF = adjoints.get("P_F", 0.0)
    Pv = adjoints.get("P_v", 0.0)
    sl = exponent_sl(rho, R, p)
    sf = exponent_sf(rho, R, p)
    sz = exponent_sz(rho, R, v, p)
    Lh = np.exp(-sl) * L + p.L0
    Hh = np.exp(-sl) * H + p.H0
    Fh = np.exp(-sf) * F
    PLh = np.exp(-sl) * PL
    PHh = np.exp(-sl) * PH
    PFh = np.exp(-sz) * PF
    Lden = _guard("K1 + Lhat", p.K1 + Lh, floor)
    Fden = _guard("K2 + Fhat", p.K2 + Fh, floor)
    Hden = _guard("delta + Hhat", p.delta + Hh, floor)
    if kind == "fPL":
        src = (
            p.k1 * (p.M0 - Fh) * p.K1 / Lden**2 * (PLh - PFh)
            + p.r1 * PLh
            + p.lam * Fh * (p.M0 - Fh) / (p.M0 * Hden) * (PFh - Pv)
        )
        return np.exp(sl) * src
    if kind == "fPH":
        src = (
            (phi + p.k2) * Fh / Fden * (PHh + PFh)
            + p.r2 * PHh
            + p.lam * Fh * (p.M0 - Fh) * Lh / (p.M0 * Hden**2) * (PFh - Pv)
        )
        return np.exp(sl) * src
    if kind == "fPF":
        src = (
            -p.k1 * Lh / Lden * (PLh - PFh)
            + (phi + p.k2) * Hh * p.K2 / Fden**2 * (PHh + PFh)
            + p.lam * (p.M0 * Lh - 2.0 * Fh * Lh) / (p.M0 * Hden) * (PFh - Pv)
            - (p.mu1 - p.mu2) / p.M0 * (p.M0 - 2.0 * Fh) * PFh
            - (p.mu1 - p.mu2) * Pv
        )
        return np.exp(sz) * src
    raise ValueError(f"unknown adjoint rhs kind {kind!r}")


def switching_xi(rho, t, fields, adjoints, R, params: ModelParameters,
                 floor=DENOM_FLOOR):
    """The switching function; its sign at rho = -1 selects the bang-bang control."""
    p = params
    H = fields.get("H", 0.0)
    F = fields.get("F", 0.0)
    v = fields.get("v", 0.0)
    PH = adjoints.get("P_H", 0.0)
    PF = adjoints.get("P_F", 0.0)
    sl = exponent_sl(rho, R, p)
    sf = exponent_sf(rho, R, p)
    sz = exponent_sz(rho, R, v, p)
    Fh = np.exp(-sf) * F
    den = _guard("K2 + exp(-sf)F", p.K2 + Fh, floor)
    return (
        Fh
        * (np.exp(-sl) * H + p.H0)
        / den
        * (np.exp(-sl) * PH - np.exp(-sz) * PF)
    )


# --- first-order collocation solves for v and P_v ------------------------

_VCACHE: "weakref.WeakKeyDictionary[CollocationSetup, dict]" = weakref.WeakKeyDictionary()


def _vsetup(setup: CollocationSetup) -> dict:
    """Per-setup factorized collocation matrices for the first-order solves."""
    cached = _VCACHE.get(setup)
    if cached is not None:
        return cached
    nodes = setup.rho
    n = len(nodes) + 1  # Legendre expansion degrees 0..N
    degs = np.arange(n)
    V0 = np.column_stack([jacobi_eval(m, 0.0, 0.0, nodes, 0) for m in degs])
    V1 = np.column_stack([jacobi_eval(m, 0.0, 0.0, nodes, 1) for m in degs])
    at_p1 = np.ones(n)
    at_m1 = (-1.0) ** degs
    d_at_m1 = np.array([jacobi_eval(m, 0.0, 0.0, -1.0, 1) for m in degs])
    A_outer = np.vstack([V1, at_p1])  # value pinned at rho = +1 (velocity)
    A_inner = np.vstack([V1, at_m1])  # value pinned at rho = -1 (P_v)
    cached = {
        "V0": V0,
        "V1": V1,
        "at_m1": at_m1,
        "d_at_m1": d_at_m1,
        "lu_outer": lu_factor(A_outer),
        "lu_inner": lu_factor(A_inner),
    }
    _VCACHE[setup] = cached
    return cached


def velocity_solve(R, t, fields, params: ModelParameters, setup: CollocationSetup,
                   return_slope=False):
    """Solve the first-order velocity equation by collocation.

    ``fields`` maps "L", "H", "F" to nodal values on ``setup.rho``: shape
    (N,) for a scalar ``R``, or (N, M) for ``R`` of shape (M,), one column
    per time node, all solved in one call.  Enforces v(rho = 1) = 0 and
    returns ``(v_nodes, v_inner, dv_inner)`` where the last two are v and
    dv/drho at rho = -1 (scalars, or shape (M,)); with ``return_slope=True``
    the nodal slopes dv/drho are appended.
    """
    _check_occlusion(R, params)
    vs = _vsetup(setup)
    rho = setup.rho if np.ndim(R) == 0 else setup.rho[:, None]
    fv = rhs("fv", rho, t, R, 0.0, fields, 0.0, params)
    a = lu_solve(vs["lu_outer"], np.concatenate([fv, np.zeros_like(fv[:1])]))
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("singular velocity collocation system")
    v_nodes = vs["V0"] @ a
    v_inner = vs["at_m1"] @ a
    dv_inner = vs["d_at_m1"] @ a
    if return_slope:
        return v_nodes, v_inner, dv_inner, vs["V1"] @ a
    return v_nodes, v_inner, dv_inner


def adjoint_velocity_solve(R, t, fields, adjoint_F_nodes, dF_nodes,
                           params: ModelParameters, setup: CollocationSetup):
    """Solve the first-order P_v equation by collocation.

    dP_v/drho equals the rho-derivative of the reconstructed physical F
    times the reconstructed physical P_F, with P_v pinned to 0 at rho = -1.
    ``adjoint_F_nodes`` holds transformed P_F nodal values, ``dF_nodes`` the
    nodal rho-derivatives of transformed F.  Returns P_v at the nodes.
    """
    _check_occlusion(R, params)
    vs = _vsetup(setup)
    p = params
    rho = setup.rho
    F = fields.get("F", 0.0)
    v = fields.get("v", 0.0)
    sf = exponent_sf(rho, R, p)
    sz = exponent_sz(rho, R, v, p)
    # d/drho of exp(-sf) F  (physical F), sf' = beta*(1-(R+eps))*(1-rho)/4
    dsf = p.beta * (1.0 - (R + p.eps)) * (1.0 - rho) / 4.0
    dFhat = np.exp(-sf) * (dF_nodes - dsf * F)
    rhs_vec = dFhat * np.exp(-sz) * adjoint_F_nodes
    b = np.concatenate([rhs_vec, [0.0]])
    a = lu_solve(vs["lu_inner"], b)
    return vs["V0"] @ a
