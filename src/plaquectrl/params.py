"""Physical and biological parameters of the plaque-growth model."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace


@dataclass(frozen=True)
class ModelParameters:
    """All model constants, with literature defaults.

    Rates are per day, concentrations/densities in g/cm^3, lengths in cm.
    ``delta`` is tabulated negative; construction guards ``delta + H0 != 0``.
    ``eps`` is the initial inner radius of the plaque ring, ``T`` the final
    time in days, ``Kbound`` the upper box bound on the control.
    """

    k1: float = 10.0  # LDL ingestion rate by macrophages
    K1: float = 1e-2  # LDL saturation
    k2: float = 10.0  # HDL reverse-transport reaction rate
    K2: float = 0.5  # foam-cell saturation
    r1: float = 2.42e-5  # LDL radical degradation
    r2: float = 5.54e-7  # HDL radical degradation
    D: float = 8.64e-7  # foam-cell diffusion
    mu1: float = 0.015  # macrophage death rate
    mu2: float = 0.03  # foam-cell death rate
    lam: float = 2.573e-3  # macrophage production by ox-LDL
    delta: float = -2.541e-3  # HDL saturation offset (tabulated negative)
    M0: float = 5e-5  # macrophage + foam-cell density
    alpha: float = 1.0  # LDL influx rate
    beta: float = 0.01  # macrophage influx rate
    L0: float = 0.016  # blood LDL concentration
    H0: float = 0.005  # blood HDL concentration
    eps: float = 0.01  # initial inner radius
    T: float = 1.0  # final time, days
    Kbound: float = 1.0  # control upper bound

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("every parameter must be finite")
        for name in ("K1", "K2", "D", "M0", "L0", "H0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"parameter {name} must be strictly positive")
        for name in ("k1", "k2", "r1", "r2", "mu1", "mu2", "lam", "alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"parameter {name} must be nonnegative")
        if abs(self.delta + self.H0) < 1e-12:
            raise ValueError("delta + H0 must be bounded away from zero")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.Kbound < 0:
            raise ValueError("Kbound must be nonnegative")

    def decoupled(self) -> "ModelParameters":
        """The decoupled test limit: all growth/reaction rates switched off.

        Note r2 = 0 is included: with r2 > 0 the transformed H field carries
        the source -r2*H0 and is not identically zero.
        """
        return replace(self, k1=0.0, r1=0.0, r2=0.0, lam=0.0, mu1=0.0, mu2=0.0)
