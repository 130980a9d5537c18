"""Evaluation of the state-equation coefficient and right-hand-side grids.

The fixed-point solver evaluates every model coefficient and source at all
(N x M) collocation node pairs once per iteration, for every member of a
batch of controls at once (the SQP driver's finite-difference probes are
one batch).  The grids are built by broadcasting the pointwise formulas of
:mod:`plaquectrl.model` over a column of space nodes against a row of time
nodes, with the state stacked as in the model: L, H, F on the first axis.
They read the iterate's :class:`~plaquectrl.model.Frame`, which the fixed
point builds once per pass and shares with its velocity solve.
"""

from __future__ import annotations

from . import model


def backend_name() -> str:
    return "numpy"


def eval_state_grids(fr: model.Frame, vin, v, phi):
    """All state-equation source and coefficient grids for one fixed-point sweep.

    ``fr`` is the :class:`~plaquectrl.model.Frame` of the iterate at the
    column of space nodes ``rho[:, None]`` (N, 1), with ``R (M,)`` and the
    stacked state ``X (3, N, M)``; ``vin/phi`` are ``(M,)`` and ``v`` is
    ``(N, M)``.  Returns ``(S, (g11, G12), (g31, G32))``: the sources S of L,
    H, F stacked like X, then the (diffusion, drift) pair of the L/H
    operator and of the F operator (:func:`model.coeff`); the diffusions are
    shaped ``(M,)``, as they do not depend on rho.  A batch of B iterates
    has a frame at ``rho (1, N, 1)``, ``R (B, 1, M)``, ``X (3, B, N, M)``, passes
    ``vin/phi`` as ``(B, 1, M)`` and ``v`` as ``(B, N, M)``; every grid then
    gains the batch axis, and the diffusions are ``(B, 1, M)``.
    """
    return (model.rhs(fr, vin, v, phi), *model.coeff(fr, vin, v))
