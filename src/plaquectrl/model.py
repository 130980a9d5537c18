"""Transformed plaque-growth model: change of variables, coefficients, right-hand sides.

Everything here operates on the fixed domain rho in [-1, 1], t in [-1, 1]
obtained by pinning the free boundary to rho = -1 and rescaling time, with
the exponential change of dependent variables that converts the Robin
boundary conditions at the inner edge to homogeneous Neumann ones.

That change of variables is computed once per evaluation, by
:class:`Frame`: it checks the radius for occlusion once, and holds
1 - (R + eps), the exponents and their exponentials, and the physical
fields rebuilt from the transformed state.  Every formula below reads a
frame and recomputes none of it.  The adjoint formulas also need the P_F
exponent, which depends on the local velocity, so after the velocity solve
the caller adds the adjoint pieces once with :meth:`Frame.add_adjoint`.

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

import copy

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


def _check_occlusion(R, params):
    if (np.asarray(R) + params.eps >= 1.0).any():
        raise OcclusionError(f"R + eps >= 1 (R = {R!r}, eps = {params.eps})")


def _guard(name, value):
    if (np.abs(value) < DENOM_FLOOR).any():
        raise DenominatorError(name, value)
    return value


class Frame:
    """The change of variables at points ``rho`` for radius ``R`` and state ``X``.

    Raises :class:`OcclusionError` if R + eps >= 1.  Holds ``om`` =
    1 - (R + eps), ``q`` = (rho + 1) + (R + eps)(1 - rho), ``qom`` = q om,
    ``w`` = (1 - rho)^2, the Robin->Neumann exponents ``sl`` (of L, H, P_L
    and P_H) and ``sf`` (of F) with their exponentials ``esl`` and ``esf``,
    and the physical fields ``Lh``, ``Hh``, ``Fh`` rebuilt from X with
    exp(+s).  A batch frame has R of shape (B, 1, M) and X of shape
    (3, B, N, M): every array derived from them carries the batch axis third
    from last, and only the rho-only ones have fewer axes (:meth:`take`).
    """

    def __init__(self, rho, R, X, params: ModelParameters):
        _check_occlusion(R, params)
        p = params
        self.rho, self.R, self.X, self.params = rho, R, X, params
        Rb = R + p.eps
        self.om = om = 1.0 - Rb
        self.q = (rho + 1.0) + Rb * (1.0 - rho)
        self.qom = self.q * om
        self.w = w = (1.0 - rho) ** 2
        self.sl = -p.alpha * om * w / 8.0
        self.sf = -p.beta * om * w / 8.0
        self.esl, self.esf = np.exp(self.sl), np.exp(self.sf)
        self.Lh = self.esl * X[0] + p.L0
        self.Hh = self.esl * X[1] + p.H0
        self.Fh = self.esf * X[2]

    def add_adjoint(self, v):
        """Add what the adjoint formulas read, at the local velocity ``v``.

        That is the P_F exponent ``sz`` with ``esz`` = exp(sz) and ``emsz`` =
        exp(-sz), ``emsl`` = exp(-sl), ``emsf`` = exp(-sf), and the fields
        ``Lm``, ``Hm``, ``Fm`` rebuilt from X with exp(-s).
        """
        p = self.params
        self.sz = self.om * self.w * (1.0 + self.rho) * (v + p.D * p.beta) / 8.0
        self.esz, self.emsz = np.exp(self.sz), np.exp(-self.sz)
        self.emsl, self.emsf = np.exp(-self.sl), np.exp(-self.sf)
        # Known discrepancy, pinned by perfbench/refs.json: the adjoint
        # formulas rebuild the fields with exp(-sl), exp(-sf), where Lh, Hh,
        # Fh above rebuild the same fields with exp(+sl), exp(+sf).
        self.Lm = self.emsl * self.X[0] + p.L0
        self.Hm = self.emsl * self.X[1] + p.H0
        self.Fm = self.emsf * self.X[2]

    def moving_drift(self, v_inner):
        """v(-1) (rho + 1) / (1 - (R + eps)): the moving-frame term of every drift."""
        return v_inner * (self.rho + 1.0) / self.om

    def take(self, keep):
        """The frame of the batch members selected by ``keep``."""
        out = copy.copy(self)
        for name, value in vars(self).items():
            if np.ndim(value) >= 3:
                setattr(out, name, value[..., keep, :, :])
        return out


def coeff(fr: Frame, v_inner, v_local):
    """Diffusion g1 and drift G2 of the two state operators, per their printed formulas.

    Returns ``((g11, g12), (g31, g32))``: the pair of the operator that L and
    H share, then the pair of F's.  ``v_inner`` is the velocity at
    rho = -1, ``v_local`` the velocity at the frame's points; g11 and g31
    do not depend on rho.
    """
    p, rho, om = fr.params, fr.rho, fr.om
    drift = fr.moving_drift(v_inner)
    g12 = -8.0 / fr.qom - drift + 2.0 * (1.0 - rho) * p.alpha / om
    g32 = (-8.0 * p.D / fr.qom - drift + 2.0 * p.D * (1.0 - rho) * p.alpha / om
           + 2.0 * v_local / om)
    return (4.0 / om**2, g12), (4.0 * p.D / om**2, g32)


def adjoint_drift(fr: Frame, v_inner, v, dv):
    """Drifts (G42, G62) of the adjoint operators: G42 of P_L and P_H, G62 of P_F.

    Their diffusions are those of :func:`coeff`, negated.  ``v`` and ``dv``
    are the velocity and its slope dv/drho at the frame's points; G62 also
    carries the local F and the derivative of the velocity source with
    respect to it.
    """
    p, rho = fr.params, fr.rho
    drift = fr.moving_drift(v_inner)
    oneR = 1.0 - fr.R
    g42 = -8.0 / fr.qom - drift - 2.0 * (1.0 - rho) * p.alpha / fr.om
    g62 = (-8.0 * p.D / fr.qom - drift
           - 3.0 * (rho**2 - 2.0 * rho - 1.0) * (v + p.D * p.beta) / oneR
           - fr.w * (1.0 + rho) / oneR * dv
           - 2.0 * fr.X[2] * fv_dF(fr) / oneR)
    return g42, g62


def rhs(fr: Frame, v_inner, v, phi):
    """The transformed state sources f_L, f_H and f_F, stacked on a new first axis.

    ``v`` is the local velocity and ``phi`` the control value in force.
    Saturation denominators below ``DENOM_FLOOR`` raise
    :class:`DenominatorError` naming the offending term.
    """
    p, rho, om, w, q = fr.params, fr.rho, fr.om, fr.w, fr.q
    L, H, F = fr.X
    Lh, Hh, Fh = fr.Lh, fr.Hh, fr.Fh
    emsl = 1.0 / fr.esl
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


def fv(fr: Frame):
    """The velocity source f_v of the frame's state."""
    p, Fh = fr.params, fr.Fh
    Hden = _guard("delta + exp(sl)H + H0", p.delta + fr.Hh)
    return (fr.om / (2.0 * p.M0)
            * (p.lam * (p.M0 - Fh) * fr.Lh / Hden - p.mu1 * (p.M0 - Fh) - p.mu2 * Fh))


def fv_dF(fr: Frame):
    """Partial derivative of f_v with respect to the local F value."""
    p = fr.params
    Hden = _guard("delta + exp(sl)H + H0", p.delta + fr.Hh)
    return (fr.om / (2.0 * p.M0) * fr.esf
            * (-p.lam * fr.Lh / Hden + p.mu1 - p.mu2))


def adjoint_rhs(fr: Frame, P, Pv, phi):
    """The transformed adjoint sources f_PL, f_PH, f_PF, stacked on a new first axis.

    Obtained by rewriting the original adjoint sources in the transformed
    variables: physical quantities are reconstructed by inverting the
    exponential change of variables (the frame's exp(-s) rebuild, added by
    :meth:`Frame.add_adjoint`), the source is evaluated, and the result is
    scaled back by the forward exponential.  Linear in the adjoints ``P``
    and ``Pv``.
    """
    p = fr.params
    PL, PH, PF = P
    Lh, Hh, Fh = fr.Lm, fr.Hm, fr.Fm
    PLh = fr.emsl * PL
    PHh = fr.emsl * PH
    PFh = fr.emsz * PF
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
    return np.stack(np.broadcast_arrays(fr.esl * src_PL, fr.esl * src_PH,
                                        fr.esz * src_PF))


def switching_xi(fr: Frame, P):
    """The switching function; its sign at rho = -1 selects the bang-bang control.

    Reads the frame's adjoint pieces (:meth:`Frame.add_adjoint`).
    """
    den = _guard("K2 + exp(-sf)F", fr.params.K2 + fr.Fm)
    # Known discrepancy, pinned by perfbench/refs.json: (P_H - P_F) here,
    # where adjoint_rhs pairs the control with (P_H + P_F).
    return fr.Fm * fr.Hm / den * (fr.emsl * P[1] - fr.emsz * P[2])


# --- first-order collocation solves for v and P_v ------------------------

def velocity_solve(fr: Frame, setup: CollocationSetup):
    """Solve the first-order velocity equation by collocation.

    ``fr`` is the frame at the nodes: rho = ``setup.rho`` with a scalar R
    and X of shape (3, N), or rho = ``setup.rho[:, None]`` with R of shape
    (M,) and X of shape (3, N, M), one column per time node, all solved in
    one call (a batch of B states has R of shape (B, 1, M) and X of shape
    (3, B, N, M)).  v is expanded in Legendre degrees 0..N, and
    ``setup.pin_p1`` maps the nodal sources to its coefficients with
    v(rho = 1) = 0.  Returns ``(v_nodes, v_inner, dv_inner, dv_nodes)``:
    the nodal velocities, v and dv/drho at rho = -1 (scalars, or shape
    (..., M)) and the nodal slopes dv/drho.  A non-finite source raises
    ``numpy.linalg.LinAlgError``.
    """
    a = setup.pin_p1 @ fv(fr)
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("non-finite velocity collocation solution")
    return setup.V0r @ a, setup.V_at_m1 @ a, setup.V1_at_m1 @ a, setup.V1r @ a


def adjoint_velocity_solve(fr: Frame, P, dX, setup: CollocationSetup):
    """Solve the first-order P_v equation by collocation.

    dP_v/drho equals the rho-derivative of the reconstructed physical F
    times the reconstructed physical P_F, with P_v pinned to 0 at rho = -1.
    ``fr`` is the frame at ``setup.rho`` with its adjoint pieces added, ``P``
    holds the nodal adjoints and ``dX`` the nodal rho-derivatives of the
    state.  Returns P_v at the nodes, expanded in Legendre degrees 0..N
    through ``setup.pin_m1``.
    """
    # d/drho of exp(-sf) F  (physical F), sf' = beta*(1-(R+eps))*(1-rho)/4
    dsf = fr.params.beta * fr.om * (1.0 - fr.rho) / 4.0
    dFhat = fr.emsf * (dX[2] - dsf * fr.X[2])
    return setup.V0r @ (setup.pin_m1 @ (dFhat * fr.emsz * P[2]))
