"""Optimal control of a free-boundary plaque-growth model.

Two solution routes are provided: a direct route (fixed-point linearization
of the transformed PDE system, space-time spectral collocation, and a
box-constrained SQP over piecewise-constant controls) and an indirect route
(adjoint system, spatial collocation, shooting with classical Runge-Kutta).
"""

from .params import ModelParameters
from .spectral import (
    CollocationSetup,
    PolynomialBasis,
    build_bases,
    build_setup,
    legendre_gauss_nodes,
    legendre_gauss_radau_nodes,
)
from .direct import ControlVector, StateSolution, fixed_point_solve, objective, solve_direct
from .indirect import AdjointSolution, solve_indirect
from .nlp import NlpProblem, sqp_minimize

__all__ = [
    "ModelParameters",
    "PolynomialBasis",
    "CollocationSetup",
    "legendre_gauss_nodes",
    "legendre_gauss_radau_nodes",
    "build_bases",
    "build_setup",
    "ControlVector",
    "StateSolution",
    "fixed_point_solve",
    "objective",
    "solve_direct",
    "AdjointSolution",
    "solve_indirect",
    "NlpProblem",
    "sqp_minimize",
]

__version__ = "0.1.0"
