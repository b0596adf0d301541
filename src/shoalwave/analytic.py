"""Closed-form uniform flow over a linearly sloping bottom.

The family has bed b(x) = b0 + b1*x, spatially uniform velocity
u(t) = a0 - b1*t and surface c0 + b1*x, so the column keeps the constant
thickness c0 - b0 and the surface stays parallel to the bed. It serves two
jobs: an exact oracle for the time stepper (with boundary values supplied
in time), and the canonical degenerate-plateau fixture for the detector,
since the invariant gradient p_x vanishes identically while the bed keeps
the slope b1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bathymetry import Linear
from .errors import DomainError, NearDryError
from .fields import FlowState, Grid
from .solver import SolverConfig

__all__ = [
    "LinearBottomSolution",
    "eval_solution",
    "residuals",
    "make_initial_state",
    "inflow",
]


@dataclass(frozen=True)
class LinearBottomSolution:
    """Parameters of one family member on the open interval (x1, x2)."""

    a0: float
    b0: float
    b1: float
    c0: float
    x1: float
    x2: float

    def __post_init__(self):
        if not self.c0 - self.b0 > 0.0:
            raise ValueError(
                "needs a wet column: c0 - b0 = {} must be positive".format(
                    self.c0 - self.b0
                )
            )
        if not self.x1 < self.x2:
            raise ValueError("empty interval ({}, {})".format(self.x1, self.x2))

    def bathymetry(self) -> Linear:
        return Linear(self.b0, self.b1)

    @property
    def gamma(self) -> float:
        """Depth root sqrt(c0 - b0), constant in space and time."""
        return float(np.sqrt(self.c0 - self.b0))


def _check_domain(sol: LinearBottomSolution, x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= sol.x1) or np.any(xa >= sol.x2):
        raise DomainError(
            "x outside the open interval ({}, {})".format(sol.x1, sol.x2)
        )
    return xa


def eval_solution(sol: LinearBottomSolution, t: float, x):
    """Closed-form (u, surface, gamma) at time t and position(s) x."""
    xa = _check_domain(sol, x)
    u = np.full(xa.shape, sol.a0 - sol.b1 * t)
    surface = sol.c0 + sol.b1 * xa
    gamma = np.full(xa.shape, sol.gamma)
    if np.ndim(x) == 0:
        return float(u), float(surface), float(gamma)
    return u, surface, gamma


def residuals(sol: LinearBottomSolution, t: float, x, c=None, c_prime=None):
    """Transport residuals (r1, r2, r3) of the depth root at (t, x).

    r1 and r2 are the residuals of the two characteristic transport laws
    for gamma, r3 of the plain advection law that pins c(t) to a constant.
    All three vanish identically on family members. Passing a non-constant
    c(t) together with its derivative makes this a negative control; for
    example c(t) = c0 + s*t gives r3 = s / (2*gamma).
    """
    _check_domain(sol, x)
    c_val = sol.c0 if c is None else float(c(t))
    c_dot = 0.0 if c_prime is None else float(c_prime(t))
    thickness = c_val - sol.b0
    if thickness <= 0.0:
        raise NearDryError("perturbed column dried out: c(t) - b0 <= 0")
    gam = float(np.sqrt(thickness))
    gamma_t = c_dot / (2.0 * gam)
    gamma_x = 0.0  # sqrt(c(t) - b0) carries no x dependence
    a = sol.a0 - sol.b1 * t
    a_dot = -sol.b1
    b_slope = sol.b1
    r1 = gamma_t + (gam + a) * gamma_x + 0.5 * (a_dot + b_slope)
    r2 = gamma_t - (gam - a) * gamma_x - 0.5 * (a_dot + b_slope)
    r3 = gamma_t + a * gamma_x
    return r1, r2, r3


def make_initial_state(sol: LinearBottomSolution, grid: Grid, h_min: float = SolverConfig.h_min) -> FlowState:
    """Sample the family member at t = 0 onto the grid."""
    if grid.x0 <= sol.x1 or grid.x_last >= sol.x2:
        raise DomainError(
            "grid [{}, {}] must sit strictly inside ({}, {})".format(
                grid.x0, grid.x_last, sol.x1, sol.x2
            )
        )
    if sol.c0 - sol.b0 < h_min:
        raise NearDryError(
            "column thickness {} below h_min={}".format(sol.c0 - sol.b0, h_min)
        )
    u, surface, _ = eval_solution(sol, 0.0, grid.x)
    return FlowState(0.0, surface, u)


def inflow(sol: LinearBottomSolution):
    """Ghost-cell filler (t, x) -> (w, u) taken from the closed form."""

    def fill(t, x):
        xa = np.asarray(x, dtype=float)
        w = np.full(xa.shape, sol.c0 - sol.b0)
        u = np.full(xa.shape, sol.a0 - sol.b1 * t)
        return w, u

    return fill
