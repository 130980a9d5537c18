"""Evaluation of the state-equation coefficient and right-hand-side grids.

The fixed-point solver evaluates every model coefficient and source at all
(N x M) collocation node pairs once per iteration, for every member of a
batch of controls at once (the SQP driver's finite-difference probes are
one batch).  The grids are built by broadcasting the pointwise formulas of
:mod:`plaquectrl.model` over a column of space nodes against a row of time
nodes, with the state stacked as in the model: L, H, F on the first axis.
"""

from __future__ import annotations

from . import model
from .params import ModelParameters


def backend_name() -> str:
    return "numpy"


def eval_state_grids(rho, Rt, vin, v, X, phi, p: ModelParameters):
    """All state-equation source and coefficient grids for one fixed-point sweep.

    Shapes: ``rho (N,)``, ``Rt/vin/phi (M,)``, ``v (N, M)`` and the stacked
    state ``X (3, N, M)``.  Returns ``(S, (g11, G12), (g31, G32))``: the
    sources S of L, H, F stacked like X, then the (diffusion, drift) pair of
    the L/H operator and of the F operator (:func:`model.coeff`); the
    diffusions are shaped ``(M,)``, as they do not depend on rho.  A batch of
    B iterates passes ``Rt/vin/phi`` as ``(B, 1, M)``, ``v`` as
    ``(B, N, M)`` and X as ``(3, B, N, M)``; every grid then gains the batch
    axis, and the diffusions are ``(B, 1, M)``.  Raises
    :class:`~plaquectrl.model.OcclusionError` if R + eps >= 1 at a time node.
    """
    col = rho[:, None]
    return (model.rhs(col, Rt, vin, X, v, phi, p), *model.coeff(col, Rt, vin, v, p))
