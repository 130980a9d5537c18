"""Transformed plaque-growth model: change of variables, coefficients, right-hand sides.

Everything here operates on the fixed domain rho in [-1, 1], t in [-1, 1]
obtained by pinning the free boundary to rho = -1 and rescaling time, with
the exponential change of dependent variables that converts the Robin
boundary conditions at the inner edge to homogeneous Neumann ones.

:class:`Points` holds every factor that depends only on the points rho and
the parameters; a caller builds it once per shooting sweep or fixed-point
solve.  :class:`Frame` holds the change of variables at those points for one
radius and state: it checks the radius for occlusion once and computes each
piece the formulas read (exponentials, physical fields, guarded saturation
denominators) once, on first read, so a piece no formula reads is never
computed.  The adjoint formulas also need the P_F exponent, which depends on
the local velocity: the caller adds it with :meth:`Frame.add_adjoint`.

All formulas accept scalars or numpy arrays elementwise.  ``R`` throughout
is the shifted radius (physical inner radius minus ``eps``), so the physical
radius is ``R + eps``.  The transformed state is one array X stacked on its
first axis in the order of ``FIELDS``, the adjoints one array P in the order
of ``ADJOINTS``; the per-field factors of :class:`Points` are stacked the
same way, so the transport terms of L, H and F are one expression over X.
Only this module knows which coefficient belongs to which field:
:func:`coeff` returns the (diffusion, drift) pair of the operator that L and
H share and of F's operator, :func:`adjoint_drift` the drifts of the adjoint
operators.  The velocity and P_v solves apply the fused collocation maps of
the :class:`~plaquectrl.spectral.CollocationSetup`, one product each.
"""

from __future__ import annotations

from functools import cached_property

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
        super().__init__(f"denominator {term} below floor: smallest |value| = "
                         f"{float(np.nanmin(np.abs(value)))}")


def _check_occlusion(R, params):
    if np.asarray(R + params.eps >= 1.0).any():
        raise OcclusionError(f"R + eps >= 1 (largest R = {float(np.nanmax(R))}, "
                             f"eps = {params.eps})")


def _guard(names, value):
    """``value``, whose first axis stacks the denominators ``names``, unless
    one of them falls below ``DENOM_FLOOR``; the stack is checked at once."""
    if (np.abs(value) < DENOM_FLOOR).any():
        for name, row in zip(names, value):
            if (np.abs(row) < DENOM_FLOOR).any():
                raise DenominatorError(name, row)
    return value


class Points:
    """The factors of every formula that depend only on ``rho`` and the parameters.

    ``rho`` is a scalar, the nodes (N,), a column (N, 1) against a row of
    time nodes, or (1, N, 1) for a batch on the first axis.  Per-field
    factors are stacked like X, with shape (3,) + shape(rho).
    """

    def __init__(self, rho, params: ModelParameters):
        p = params
        self.params, self.rho_ndim = p, np.ndim(rho)
        col = (3,) + (1,) * self.rho_ndim
        rate = np.reshape([p.alpha, p.alpha, p.beta], col)  # exponent rate of L, H, F
        diff = np.reshape([1.0, 1.0, p.D], col)  # diffusivity of L, H, F
        self.opr, self.omr = opr, omr = 1.0 + rho, 1.0 - rho
        w = omr**2
        self.s = -rate * w / 8.0  # exponents per unit 1 - (R + eps)
        self.X0 = np.reshape([p.L0, p.H0, 0.0], col)  # offsets of the physical fields
        self.sat = np.reshape([p.K1, p.delta, p.K2], col)  # saturation offsets
        # transport of the fields X: X (v(-1) tv + tc - te / q + tD / om)
        self.tv = rate * (w / (4.0 * p.T) + opr * omr / 4.0)
        self.tc = rate**2 * diff * w / 4.0
        self.te = 2.0 * rate * diff * omr
        self.tD = diff * rate
        self.vF = p.beta * omr / 2.0  # velocity term of f_F per unit v
        self.a2 = 2.0 * p.alpha * omr  # influx term of G12 and G42 per unit 1/om
        self.c3 = 3.0 * (rho**2 - 2.0 * rho - 1.0)  # velocity term of G62
        self.wo = w * opr  # P_F exponent per unit om (v + D beta) / 8
        self.dsf = p.beta * omr / 4.0  # rho-derivative of sf per unit om


class Frame:
    """The change of variables at ``pts`` for radius ``R`` and stacked state ``X``.

    Raises :class:`OcclusionError` if R + eps >= 1.  Holds ``om`` =
    1 - (R + eps), 1/om and the exponents ``s`` = (sl, sl, sf) of L, H, F;
    computes on first read 1/q, the drifts' ``base`` -8/(q om), exp(s), the
    fields ``Xh`` = exp(s) X + (L0, H0, 0) and the reciprocals ``iden`` of
    their guarded saturation denominators.  :meth:`add_adjoint` adds their
    exp(-s) counterparts.  X has one axis more than the points' rho.  A batch
    frame has R of shape (B, 1, M) and X of shape (3, B, N, M): every array
    derived from them carries the batch axis third from last.
    """

    def __init__(self, pts: Points, R, X):
        if np.ndim(X) != pts.rho_ndim + 1:
            raise ValueError("X must stack the fields on one axis before rho's")
        _check_occlusion(R, pts.params)
        self.pts, self.params, self.R, self.X = pts, pts.params, R, X
        self.Rb = R + pts.params.eps
        self.om = 1.0 - self.Rb
        self.iom = 1.0 / self.om
        self.s = self.om * pts.s

    iq = cached_property(lambda self: 1.0 / (self.pts.opr + self.Rb * self.pts.omr))
    base = cached_property(lambda self: (-8.0 * self.iom) * self.iq)
    es = cached_property(lambda self: np.exp(self.s))
    Xh = cached_property(lambda self: self.es * self.X + self.pts.X0)
    iden = cached_property(lambda self: 1.0 / _guard(
        ("K1 + exp(sl)L + L0", "delta + exp(sl)H + H0", "K2 + exp(sf)F"),
        self.Xh + self.pts.sat))
    MF = cached_property(lambda self: self.params.M0 - self.Xh[2])
    LHr = cached_property(lambda self: self.Xh[0] * self.iden[1])
    idenm = cached_property(lambda self: 1.0 / _guard(
        ("K1 + Lhat", "delta + Hhat", "K2 + Fhat"), self.Xm + self.pts.sat))
    esz = cached_property(lambda self: np.exp(self.sz))

    def add_adjoint(self, v):
        """Add ``ems`` = exp(-s), the fields ``Xm`` rebuilt with it, the P_F
        exponent ``sz`` at the local velocity ``v`` (zero at rho = -1 for
        every v) and ``emsz`` = exp(-sz); ``esz`` and ``idenm`` follow on
        first read."""
        p = self.params
        self.ems = np.exp(-self.s)
        # Known discrepancy, pinned by perfbench/refs.json: the adjoint formulas
        # rebuild the fields with exp(-s), where Xh rebuilds them with exp(+s).
        self.Xm = self.ems * self.X + self.pts.X0
        self.sz = self.om * (v + p.D * p.beta) * self.pts.wo / 8.0
        self.emsz = np.exp(-self.sz)


def coeff(fr: Frame, v_inner, v_local):
    """Diffusion g1 and drift G2 of the two state operators, per their printed formulas.

    Returns ``((g11, g12), (g31, g32))``: the pair of the operator that L and
    H share, then the pair of F's.  ``v_inner`` is the velocity at
    rho = -1, ``v_local`` the velocity at the frame's points; g11 and g31
    do not depend on rho.  Every drift carries -8/(q om) and the
    moving-frame term v(-1) (rho + 1) / om.
    """
    p, pts, iom, base = fr.params, fr.pts, fr.iom, fr.base
    drift = (v_inner * iom) * pts.opr
    influx = pts.a2 * iom
    g12 = base - drift + influx
    g32 = p.D * (base + influx) - drift + (2.0 * iom) * v_local
    g11 = 4.0 * iom * iom
    return (g11, g12), (p.D * g11, g32)


def adjoint_drift(fr: Frame, v_inner, v, dv):
    """Drifts (G42, G62) of the adjoint operators: G42 of P_L and P_H, G62 of P_F.

    Their diffusions are those of :func:`coeff`, negated.  ``v`` and ``dv``
    are the velocity and its slope dv/drho at the frame's points; G62 also
    carries the local F times the derivative dfv_dF of the velocity source
    with respect to it.
    """
    p, pts, iom, base = fr.params, fr.pts, fr.iom, fr.base
    drift = (v_inner * iom) * pts.opr
    dfv_dF = fr.om / (2.0 * p.M0) * fr.es[2] * (p.mu1 - p.mu2 - p.lam * fr.LHr)
    g42 = base - drift - pts.a2 * iom
    # Known discrepancy, pinned by perfbench/refs.json: the velocity terms
    # divide by 1 - R, where every other transformed term divides by
    # om = 1 - (R + eps), R being the shifted radius.
    g62 = (p.D * base - drift
           - (pts.c3 * (v + p.D * p.beta) + pts.wo * dv + 2.0 * fr.X[2] * dfv_dF)
           / (1.0 - fr.R))
    return g42, g62


def rhs(fr: Frame, v_inner, v, phi):
    """The transformed state sources f_L, f_H and f_F, stacked on a new first axis.

    ``v`` is the local velocity and ``phi`` the control value in force.
    Saturation denominators below ``DENOM_FLOOR`` raise
    :class:`DenominatorError` naming the offending term.
    """
    p, pts = fr.params, fr.pts
    F = fr.X[2]
    Lh, Hh, Fh = fr.Xh
    iL, _, iF = fr.iden
    MF = fr.MF
    emsl = 1.0 / fr.es[0]
    uptake = p.k1 * MF * Lh * iL * emsl  # leaves L, enters F
    recruit = (phi + p.k2) * iF
    S = fr.X * (v_inner * pts.tv + pts.tc - pts.te * fr.iq + pts.tD * fr.iom)
    S[0] -= p.r1 * emsl * Lh + uptake
    S[1] -= emsl * Hh * (p.r2 + recruit * Fh)
    S[2] += (v * pts.vF + uptake - recruit * Hh * F
             + F * MF * ((p.mu1 - p.mu2) / p.M0 - p.lam * fr.LHr))
    return S


def fv(fr: Frame):
    """The velocity source f_v of the frame's state."""
    p = fr.params
    return (fr.om / (2.0 * p.M0)
            * (fr.MF * (p.lam * fr.LHr - p.mu1) - p.mu2 * fr.Xh[2]))


def adjoint_rhs(fr: Frame, P, Pv, phi):
    """The transformed adjoint sources f_PL, f_PH, f_PF, stacked on a new first axis.

    Obtained by rewriting the original adjoint sources in the transformed
    variables: physical quantities are reconstructed by inverting the
    exponential change of variables (the frame's exp(-s) rebuild ``Xm``),
    the source is evaluated, and the result is scaled back by the forward
    exponential.  Linear in the adjoints ``P`` and ``Pv``.
    """
    p = fr.params
    Lh, Hh, Fh = fr.Xm
    iL, iH, iF = fr.idenm
    PLh, PHh = fr.ems[0] * P[:2]
    PFh = fr.emsz * P[2]
    mu, MF = p.mu1 - p.mu2, p.M0 - Fh
    # adjoint-weighted uptake, recruitment and production, shared by the rows
    uptake = p.k1 * iL * (PLh - PFh)
    recruit = (phi + p.k2) * iF * (PHh + PFh)
    prod = (p.lam / p.M0) * iH * (PFh - Pv)
    FMprod = Fh * MF * prod
    src = np.array([
        p.K1 * MF * iL * uptake + p.r1 * PLh + FMprod,
        Fh * recruit + p.r2 * PHh + FMprod * Lh * iH,
        (p.K2 * Hh * iF * recruit - Lh * uptake
         + (MF - Fh) * (Lh * prod - mu / p.M0 * PFh) - mu * Pv)])
    src[:2] *= fr.es[0]
    src[2] *= fr.esz
    return src


def switching_xi(fr: Frame, P):
    """The switching function; its sign at rho = -1 selects the bang-bang control.

    Reads the frame's exp(-s) rebuild and its P_F exponent
    (:meth:`Frame.add_adjoint`).
    """
    Xm = fr.Xm
    den = _guard(("K2 + exp(-sf)F",), fr.params.K2 + Xm[2:])[0]
    # Known discrepancy, pinned by perfbench/refs.json: (P_H - P_F) here,
    # where adjoint_rhs pairs the control with (P_H + P_F).
    return Xm[2] * Xm[1] / den * (fr.ems[0] * P[1] - fr.emsz * P[2])


# --- first-order collocation solves for v and P_v ------------------------

def velocity_solve(fr: Frame, setup: CollocationSetup):
    """Solve the first-order velocity equation by collocation.

    ``fr`` is the frame at the nodes: rho = ``setup.rho`` with a scalar R
    and X of shape (3, N), or rho = ``setup.rho[:, None]`` with R of shape
    (M,) and X of shape (3, N, M), one column per time node, all solved in
    one call (a batch of B states has rho = ``setup.rho[None, :, None]``, R
    of shape (B, 1, M) and X of shape (3, B, N, M)).  v is expanded in
    Legendre degrees 0..N with v(rho = 1) = 0, and one product with
    ``setup.V_map`` per column of sources gives ``(v_nodes, v_inner,
    dv_inner, dv_nodes)``: v and dv/drho at the nodes and at rho = -1 (a
    scalar, or shape (..., M)).  A non-finite source raises
    ``numpy.linalg.LinAlgError``.
    """
    a = setup.V_map @ fv(fr)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("non-finite velocity collocation solution")
    N = setup.N
    if a.ndim == 1:
        return a[:N], a[N], a[N + 1], a[N + 2:]
    return a[..., :N, :], a[..., N, :], a[..., N + 1, :], a[..., N + 2:, :]


def adjoint_velocity_solve(fr: Frame, P, dX, setup: CollocationSetup):
    """Solve the first-order P_v equation by collocation.

    dP_v/drho equals the rho-derivative of the reconstructed physical F
    times the reconstructed physical P_F, with P_v pinned to 0 at rho = -1.
    ``fr`` is the frame at ``setup.rho`` with its adjoint pieces added, ``P``
    holds the nodal adjoints and ``dX`` the nodal rho-derivatives of the
    state.  Returns P_v at the nodes, expanded in Legendre degrees 0..N and
    evaluated in one product with ``setup.Pv_map``.
    """
    # d/drho of exp(-sf) F  (physical F), sf' = beta*(1-(R+eps))*(1-rho)/4
    dFhat = fr.ems[2] * (dX[2] - (fr.om * fr.pts.dsf) * fr.X[2])
    return setup.Pv_map @ (dFhat * fr.emsz * P[2])
