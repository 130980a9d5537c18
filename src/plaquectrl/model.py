"""Transformed plaque-growth model: coordinate maps, coefficients, right-hand sides.

Everything here operates on the fixed domain rho in [-1, 1], t in [-1, 1]
obtained by pinning the free boundary to rho = -1 and rescaling time, with
the exponential change of dependent variables that converts the Robin
boundary conditions at the inner edge to homogeneous Neumann ones.

All formulas accept scalars or numpy arrays elementwise.  ``R`` throughout
is the shifted radius (physical inner radius minus ``eps``), so the physical
radius is ``R + eps``.  The transformed state is one array X stacked on its
first axis in the order of ``FIELDS``, the adjoints one array P in the order
of ``ADJOINTS``; the velocity v and its adjoint P_v are arguments of their
own.  Only this module knows which coefficient belongs to which field:
:func:`coeff` returns the (diffusion, drift) pair of the operator that L and
H share and of F's operator, :func:`adjoint_drift` the drifts of the adjoint
operators.  The first-order velocity and P_v solves read their collocation
matrices from the :class:`~plaquectrl.spectral.CollocationSetup`; no
per-grid state is kept here.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParameters
from .spectral import CollocationSetup

DENOM_FLOOR = 1e-12
FIELDS = ("L", "H", "F")  # first-axis order of the state X
ADJOINTS = ("P_L", "P_H", "P_F")  # first-axis order of the adjoints P


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
    if (np.asarray(R) + params.eps >= 1.0).any():
        raise OcclusionError(f"R + eps >= 1 (R = {R!r}, eps = {params.eps})")


def _guard(name, value):
    if (np.abs(value) < DENOM_FLOOR).any():
        raise DenominatorError(name, value)
    return value


def _frame(rho, R, v_inner, params):
    """Checks R for occlusion; returns 1 - (R + eps), q (1 - (R + eps)) and the
    moving-frame drift v(-1) (rho + 1) / (1 - (R + eps)) shared by every drift."""
    _check_occlusion(R, params)
    Rb = R + params.eps
    om = 1.0 - Rb
    q = (rho + 1.0) + Rb * (1.0 - rho)
    return om, q * om, v_inner * (rho + 1.0) / om


def coeff(rho, R, v_inner, v_local, params: ModelParameters):
    """Diffusion g1 and drift G2 of the two state operators, per their printed formulas.

    Returns ``((g11, g12), (g31, g32))``: the pair of the operator that L and
    H share, then the pair of F's.  ``v_inner`` is the velocity at
    rho = -1, ``v_local`` the velocity at the evaluation point; g11 and g31
    do not depend on rho.  Raises :class:`OcclusionError` if R + eps >= 1.
    """
    p = params
    om, qom, frame = _frame(rho, R, v_inner, p)
    g12 = -8.0 / qom - frame + 2.0 * (1.0 - rho) * p.alpha / om
    g32 = (-8.0 * p.D / qom - frame + 2.0 * p.D * (1.0 - rho) * p.alpha / om
           + 2.0 * v_local / om)
    return (4.0 / om**2, g12), (4.0 * p.D / om**2, g32)


def adjoint_drift(rho, R, X, v_inner, v, dv, params: ModelParameters):
    """Drifts (G42, G62) of the adjoint operators: G42 of P_L and P_H, G62 of P_F.

    Their diffusions are those of :func:`coeff`, negated.  ``v`` and ``dv``
    are the velocity and its slope dv/drho at ``rho``; G62 also carries the
    local F and the derivative of the velocity source with respect to it.
    Raises :class:`OcclusionError` if R + eps >= 1.
    """
    p = params
    om, qom, frame = _frame(rho, R, v_inner, p)
    oneR = 1.0 - R
    g42 = -8.0 / qom - frame - 2.0 * (1.0 - rho) * p.alpha / om
    g62 = (-8.0 * p.D / qom - frame
           - 3.0 * (rho**2 - 2.0 * rho - 1.0) * (v + p.D * p.beta) / oneR
           - (1.0 - rho) ** 2 * (1.0 + rho) / oneR * dv
           - 2.0 * X[2] * fv_dF(rho, R, X, p) / oneR)
    return g42, g62


def _physical_state(rho, R, X, p):
    """exp(sl), exp(sf) and the physical L, H, F rebuilt from the transformed X."""
    esl = np.exp(exponent_sl(rho, R, p))
    esf = np.exp(exponent_sf(rho, R, p))
    return esl, esf, esl * X[0] + p.L0, esl * X[1] + p.H0, esf * X[2]


def rhs(rho, R, v_inner, X, v, phi, params: ModelParameters):
    """The transformed state sources f_L, f_H and f_F, stacked on a new first axis.

    ``X`` stacks the L, H, F point values and ``v`` is the local velocity.
    ``phi`` is the control value in force.  Saturation denominators below
    ``DENOM_FLOOR`` raise :class:`DenominatorError` naming the offending term.
    """
    _check_occlusion(R, params)
    p = params
    L, H, F = X
    Rb = R + p.eps
    om = 1.0 - Rb
    w = (1.0 - rho) ** 2
    q = (rho + 1.0) + Rb * (1.0 - rho)
    esl, esf, Lh, Hh, Fh = _physical_state(rho, R, X, p)
    emsl = 1.0 / esl
    Lden = _guard("K1 + exp(sl)L + L0", p.K1 + Lh)
    Fden = _guard("K2 + exp(sf)F", p.K2 + Fh)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + Hh)

    def transport(U, c, D):
        """Drift and transform terms of a field with rate c and diffusivity D."""
        return (c * v_inner * w / (4.0 * p.T) * U
                + v_inner * (rho + 1.0) * (1.0 - rho) * c / 4.0 * U
                - 2.0 * c * D * (1.0 - rho) / q * U
                + D * c / om * U
                + c**2 * D * w / 4.0 * U)

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


def fv(rho, R, X, params: ModelParameters):
    """The velocity source f_v of the state ``X``."""
    p = params
    _, _, Lh, Hh, Fh = _physical_state(rho, R, X, p)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + Hh)
    return ((1.0 - (R + p.eps)) / (2.0 * p.M0)
            * (p.lam * (p.M0 - Fh) * Lh / Hden - p.mu1 * (p.M0 - Fh) - p.mu2 * Fh))


def fv_dF(rho, R, X, params: ModelParameters):
    """Partial derivative of f_v with respect to the local F value."""
    p = params
    _, esf, Lh, Hh, _ = _physical_state(rho, R, X, p)
    Hden = _guard("delta + exp(sl)H + H0", p.delta + Hh)
    return ((1.0 - (R + p.eps)) / (2.0 * p.M0) * esf
            * (-p.lam * Lh / Hden + p.mu1 - p.mu2))


def adjoint_rhs(rho, R, X, v, P, Pv, phi, params: ModelParameters):
    """The transformed adjoint sources f_PL, f_PH, f_PF, stacked on a new first axis.

    Obtained by rewriting the original adjoint sources in the transformed
    variables: physical quantities are reconstructed by inverting the
    exponential change of variables, the source is evaluated, and the result
    is scaled back by the forward exponential.  Linear in the adjoints
    ``P`` and ``Pv``.
    """
    _check_occlusion(R, params)
    p = params
    L, H, F = X
    PL, PH, PF = P
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


def switching_xi(rho, R, X, v, P, params: ModelParameters):
    """The switching function; its sign at rho = -1 selects the bang-bang control."""
    p = params
    sl = exponent_sl(rho, R, p)
    sf = exponent_sf(rho, R, p)
    sz = exponent_sz(rho, R, v, p)
    Fh = np.exp(-sf) * X[2]
    den = _guard("K2 + exp(-sf)F", p.K2 + Fh)
    # Known discrepancy, pinned by perfbench/refs.json: (P_H - P_F) here,
    # where adjoint_rhs pairs the control with (P_H + P_F).
    return (
        Fh
        * (np.exp(-sl) * X[1] + p.H0)
        / den
        * (np.exp(-sl) * P[1] - np.exp(-sz) * P[2])
    )


# --- first-order collocation solves for v and P_v ------------------------

def velocity_solve(R, X, params: ModelParameters, setup: CollocationSetup,
                   return_slope=False):
    """Solve the first-order velocity equation by collocation.

    ``X`` stacks the L, H, F nodal values on ``setup.rho``: shape (3, N)
    for a scalar ``R``, or (3, N, M) for ``R`` of shape (M,), one column
    per time node, all solved in one call (a batch of B states passes
    (3, B, N, M) with ``R`` of shape (B, 1, M)).  v is expanded in
    Legendre degrees 0..N, and ``setup.pin_p1`` maps the nodal sources to
    its coefficients with v(rho = 1) = 0.  Returns ``(v_nodes, v_inner,
    dv_inner)`` where the last two are v and dv/drho at rho = -1 (scalars,
    or shape (..., M)); with ``return_slope=True`` the nodal slopes dv/drho
    are appended.  A non-finite source raises ``numpy.linalg.LinAlgError``.
    """
    _check_occlusion(R, params)
    rho = setup.rho if np.ndim(R) == 0 else setup.rho[:, None]
    a = setup.pin_p1 @ fv(rho, R, X, params)
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("non-finite velocity collocation solution")
    v_nodes = setup.V0r @ a
    v_inner = setup.V_at_m1 @ a
    dv_inner = setup.V1_at_m1 @ a
    if return_slope:
        return v_nodes, v_inner, dv_inner, setup.V1r @ a
    return v_nodes, v_inner, dv_inner


def adjoint_velocity_solve(R, X, v, P, dX, params: ModelParameters,
                           setup: CollocationSetup):
    """Solve the first-order P_v equation by collocation.

    dP_v/drho equals the rho-derivative of the reconstructed physical F
    times the reconstructed physical P_F, with P_v pinned to 0 at rho = -1.
    ``X``, ``v`` and ``P`` hold nodal values and ``dX`` the nodal
    rho-derivatives of the state.  Returns P_v at the nodes, expanded in
    Legendre degrees 0..N through ``setup.pin_m1``.
    """
    _check_occlusion(R, params)
    p = params
    rho = setup.rho
    sf = exponent_sf(rho, R, p)
    sz = exponent_sz(rho, R, v, p)
    # d/drho of exp(-sf) F  (physical F), sf' = beta*(1-(R+eps))*(1-rho)/4
    dsf = p.beta * (1.0 - (R + p.eps)) * (1.0 - rho) / 4.0
    dFhat = np.exp(-sf) * (dX[2] - dsf * X[2])
    return setup.V0r @ (setup.pin_m1 @ (dFhat * np.exp(-sz) * P[2]))
