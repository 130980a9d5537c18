"""Transformed plaque-growth model: coordinate maps, coefficients, right-hand sides.

Everything here operates on the fixed domain rho in [-1, 1], t in [-1, 1]
obtained by pinning the free boundary to rho = -1 and rescaling time, with
the exponential change of dependent variables that converts the Robin
boundary conditions at the inner edge to homogeneous Neumann ones.

All formulas accept scalars or numpy arrays elementwise.  ``R`` throughout
is the shifted radius (physical inner radius minus ``eps``), so the physical
radius is ``R + eps``.  The first-order velocity and P_v solves read their
collocation matrices from the :class:`~plaquectrl.spectral.CollocationSetup`;
no per-grid state is kept here.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParameters
from .spectral import CollocationSetup

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


def _guard(name, value):
    if np.any(np.abs(value) < DENOM_FLOOR):
        raise DenominatorError(name, value)
    return value


def coeff(kind, rho, R, v_inner, v_local, params: ModelParameters, *,
          F=None, dv_drho=None, dfv_dF=None):
    """A named PDE coefficient evaluated per its printed formula.

    ``kind``: one of g11, g12, g31, g32, g42, g62.  ``v_inner`` is the
    velocity at rho = -1, ``v_local`` the velocity at the evaluation point.
    g62 additionally needs the local foam-cell value ``F``, the velocity
    slope ``dv_drho`` and the derivative of the velocity source with respect
    to F, ``dfv_dF``.  Raises :class:`OcclusionError` if R + eps >= 1.
    """
    _check_occlusion(R, params)
    return _coeff(kind, rho, R, v_inner, v_local, params, F=F, dv_drho=dv_drho,
                  dfv_dF=dfv_dF)


def _coeff(kind, rho, R, v_inner, v_local, params, *, F=None, dv_drho=None,
           dfv_dF=None):
    """:func:`coeff` for callers that have already checked R for occlusion."""
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


def _physical_state(rho, R, fields, p):
    """exp(sl), exp(sf) and the physical L, H, F rebuilt from transformed fields."""
    esl = np.exp(exponent_sl(rho, R, p))
    esf = np.exp(exponent_sf(rho, R, p))
    return (esl, esf, esl * fields.get("L", 0.0) + p.L0,
            esl * fields.get("H", 0.0) + p.H0, esf * fields.get("F", 0.0))


def rhs(rho, R, v_inner, fields, phi, params: ModelParameters):
    """The transformed state sources f_L, f_H and f_F, stacked on a new first axis.

    ``fields`` maps "L", "H", "F", "v" to point values (missing ones are 0).
    ``phi`` is the control value in force.  Saturation denominators below
    ``DENOM_FLOOR`` raise :class:`DenominatorError` naming the offending term.
    """
    _check_occlusion(R, params)
    p = params
    L, H, F, v = (fields.get(k, 0.0) for k in "LHFv")
    Rb = R + p.eps
    om = 1.0 - Rb
    w = (1.0 - rho) ** 2
    q = (rho + 1.0) + Rb * (1.0 - rho)
    esl, esf, Lh, Hh, Fh = _physical_state(rho, R, fields, p)
    emsl = 1.0 / esl
    Lden = _guard("K1 + exp(sl)L + L0", p.K1 + Lh)
    Fden = _guard("K2 + exp(sf)F", p.K2 + Fh)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + Hh)

    def transport(X, c, D):
        """Drift and transform terms of a field with rate c and diffusivity D."""
        return (c * v_inner * w / (4.0 * p.T) * X
                + v_inner * (rho + 1.0) * (1.0 - rho) * c / 4.0 * X
                - 2.0 * c * D * (1.0 - rho) / q * X
                + D * c / om * X
                + c**2 * D * w / 4.0 * X)

    fL = (transport(L, p.alpha, 1.0)
          - p.r1 * emsl * Lh
          - p.k1 * (p.M0 - Fh) * Lh / Lden * emsl)
    fH = (transport(H, p.alpha, 1.0)
          - p.r2 * emsl * Hh
          - (phi + p.k2) * emsl * Fh * Hh / Fden)
    fF = (transport(F, p.beta, p.D)
          + v * p.beta * (1.0 - rho) / 2.0
          + p.k1 * (p.M0 - Fh) * Lh * emsl / Lden
          - (phi + p.k2) * Hh * F / Fden
          - p.lam * F * (p.M0 - Fh) * Lh / Hden
          + (p.mu1 - p.mu2) * F * (p.M0 - Fh) / p.M0)
    return np.stack(np.broadcast_arrays(fL, fH, fF))


def fv(rho, R, fields, params: ModelParameters):
    """The velocity source f_v; ``fields`` maps "L", "H", "F" to point values."""
    p = params
    _, _, Lh, Hh, Fh = _physical_state(rho, R, fields, p)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + Hh)
    return ((1.0 - (R + p.eps)) / (2.0 * p.M0)
            * (p.lam * (p.M0 - Fh) * Lh / Hden - p.mu1 * (p.M0 - Fh) - p.mu2 * Fh))


def fv_dF(rho, R, fields, params: ModelParameters):
    """Partial derivative of f_v with respect to the local F value."""
    p = params
    _, esf, Lh, Hh, _ = _physical_state(rho, R, fields, p)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + Hh)
    return ((1.0 - (R + p.eps)) / (2.0 * p.M0) * esf
            * (-p.lam * Lh / Hden + p.mu1 - p.mu2))


def adjoint_rhs(rho, R, fields, adjoints, phi, params: ModelParameters):
    """The transformed adjoint sources f_PL, f_PH, f_PF, stacked on a new first axis.

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
    # Known discrepancy, pinned by perfbench/refs.json: exp(-sl), exp(-sf)
    # here, where rhs rebuilds the same fields with exp(+sl), exp(+sf).
    emsl = np.exp(-sl)
    Lh = emsl * L + p.L0
    Hh = emsl * H + p.H0
    Fh = np.exp(-sf) * F
    PLh = emsl * PL
    PHh = emsl * PH
    PFh = np.exp(-sz) * PF
    Lden = _guard("K1 + Lhat", p.K1 + Lh)
    Fden = _guard("K2 + Fhat", p.K2 + Fh)
    Hden = _guard("delta + Hhat", p.delta + Hh)
    src_PL = (
        p.k1 * (p.M0 - Fh) * p.K1 / Lden**2 * (PLh - PFh)
        + p.r1 * PLh
        + p.lam * Fh * (p.M0 - Fh) / (p.M0 * Hden) * (PFh - Pv)
    )
    src_PH = (
        (phi + p.k2) * Fh / Fden * (PHh + PFh)
        + p.r2 * PHh
        + p.lam * Fh * (p.M0 - Fh) * Lh / (p.M0 * Hden**2) * (PFh - Pv)
    )
    src_PF = (
        -p.k1 * Lh / Lden * (PLh - PFh)
        + (phi + p.k2) * Hh * p.K2 / Fden**2 * (PHh + PFh)
        + p.lam * (p.M0 * Lh - 2.0 * Fh * Lh) / (p.M0 * Hden) * (PFh - Pv)
        - (p.mu1 - p.mu2) / p.M0 * (p.M0 - 2.0 * Fh) * PFh
        - (p.mu1 - p.mu2) * Pv
    )
    esl = np.exp(sl)
    return np.stack(np.broadcast_arrays(esl * src_PL, esl * src_PH,
                                        np.exp(sz) * src_PF))


def switching_xi(rho, fields, adjoints, R, params: ModelParameters):
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
    den = _guard("K2 + exp(-sf)F", p.K2 + Fh)
    # Known discrepancy, pinned by perfbench/refs.json: (P_H - P_F) here,
    # where adjoint_rhs pairs the control with (P_H + P_F).
    return (
        Fh
        * (np.exp(-sl) * H + p.H0)
        / den
        * (np.exp(-sl) * PH - np.exp(-sz) * PF)
    )


# --- first-order collocation solves for v and P_v ------------------------

def velocity_solve(R, fields, params: ModelParameters, setup: CollocationSetup,
                   return_slope=False):
    """Solve the first-order velocity equation by collocation.

    ``fields`` maps "L", "H", "F" to nodal values on ``setup.rho``: shape
    (N,) for a scalar ``R``, or (N, M) for ``R`` of shape (M,), one column
    per time node, all solved in one call.  v is expanded in Legendre
    degrees 0..N, and ``setup.pin_p1`` maps the nodal sources to its
    coefficients with v(rho = 1) = 0.  Returns ``(v_nodes, v_inner,
    dv_inner)`` where the last two are v and dv/drho at rho = -1 (scalars,
    or shape (M,)); with ``return_slope=True`` the nodal slopes dv/drho are
    appended.  A non-finite source raises ``numpy.linalg.LinAlgError``.
    """
    _check_occlusion(R, params)
    rho = setup.rho if np.ndim(R) == 0 else setup.rho[:, None]
    a = setup.pin_p1 @ fv(rho, R, fields, params)
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("non-finite velocity collocation solution")
    v_nodes = setup.V0r @ a
    v_inner = setup.V_at_m1 @ a
    dv_inner = setup.V1_at_m1 @ a
    if return_slope:
        return v_nodes, v_inner, dv_inner, setup.V1r @ a
    return v_nodes, v_inner, dv_inner


def adjoint_velocity_solve(R, fields, adjoint_F_nodes, dF_nodes,
                           params: ModelParameters, setup: CollocationSetup):
    """Solve the first-order P_v equation by collocation.

    dP_v/drho equals the rho-derivative of the reconstructed physical F
    times the reconstructed physical P_F, with P_v pinned to 0 at rho = -1.
    ``adjoint_F_nodes`` holds transformed P_F nodal values, ``dF_nodes`` the
    nodal rho-derivatives of transformed F.  Returns P_v at the nodes,
    expanded in Legendre degrees 0..N through ``setup.pin_m1``.
    """
    _check_occlusion(R, params)
    p = params
    rho = setup.rho
    F = fields.get("F", 0.0)
    v = fields.get("v", 0.0)
    sf = exponent_sf(rho, R, p)
    sz = exponent_sz(rho, R, v, p)
    # d/drho of exp(-sf) F  (physical F), sf' = beta*(1-(R+eps))*(1-rho)/4
    dsf = p.beta * (1.0 - (R + p.eps)) * (1.0 - rho) / 4.0
    dFhat = np.exp(-sf) * (dF_nodes - dsf * F)
    return setup.V0r @ (setup.pin_m1 @ (dFhat * np.exp(-sz) * adjoint_F_nodes))
