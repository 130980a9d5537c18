"""Evaluation of the state-equation coefficient and right-hand-side grids.

The fixed-point solver evaluates every model coefficient and source at all
(N x M) collocation node pairs once per iteration, and the SQP driver
re-runs the fixed point for every finite-difference probe.  The grids are
built by broadcasting the pointwise formulas of :mod:`plaquectrl.model`
over a column of space nodes against a row of time nodes.
"""

from __future__ import annotations

import numpy as np

from . import model
from .params import ModelParameters


def backend_name() -> str:
    return "numpy"


def eval_state_grids(rho, Rt, vin, v, L, H, F, phi, p: ModelParameters):
    """All state-equation coefficient/source grids for one fixed-point sweep.

    Shapes: ``rho (N,)``, ``Rt/vin/phi (M,)``, field grids ``(N, M)``.
    Returns ``(FL, FH, FF, G12, G32, G11, G31)`` with the last two shaped
    ``(M,)`` (they do not depend on rho).
    """
    if np.any(Rt + p.eps >= 1.0):
        raise model.OcclusionError("R + eps >= 1 on the time grid")
    col = rho[:, None]
    fields = {"L": L, "H": H, "F": F, "v": v}
    FL, FH, FF = model.rhs(col, Rt, vin, fields, phi, p)
    G12 = model.coeff("g12", col, Rt, vin, v, p)
    G32 = model.coeff("g32", col, Rt, vin, v, p)
    G11 = np.asarray(model.coeff("g11", 0.0, Rt, 0.0, 0.0, p), dtype=float)
    G31 = np.asarray(model.coeff("g31", 0.0, Rt, 0.0, 0.0, p), dtype=float)
    return FL, FH, FF, G12, G32, G11, G31
