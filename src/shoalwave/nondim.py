"""Dimensional scaling between field units and unit-gravity variables.

Horizontal lengths scale by the wavelength, vertical lengths by the rest
depth, time by wavelength over the gravity-wave speed sqrt(g * depth), and
the flow potential by speed times wavelength. The long-wave model applies
when the squared depth-to-wavelength ratio is small against the
amplitude-to-depth ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "NondimParams",
    "ShallownessReport",
    "to_dimensionless",
    "to_dimensional",
    "shallowness_report",
    "sound_speed",
]


@dataclass(frozen=True)
class NondimParams:
    """Reference scales in field units (meters, seconds)."""

    wavelength: float
    depth: float
    gravity: float
    amplitude: float

    def __post_init__(self):
        scales = (self.wavelength, self.depth, self.gravity)
        if not all(0.0 < v < math.inf for v in scales):
            raise ValueError("wavelength, depth and gravity must be positive and finite")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be nonnegative and finite")

    @property
    def delta(self) -> float:
        """Depth-to-wavelength ratio."""
        return self.depth / self.wavelength

    @property
    def epsilon(self) -> float:
        """Amplitude-to-depth ratio."""
        return self.amplitude / self.depth

    @property
    def speed(self) -> float:
        """Gravity-wave speed sqrt(g * depth) in field units."""
        return float(np.sqrt(self.gravity * self.depth))


@dataclass(frozen=True)
class ShallownessReport:
    delta2: float
    epsilon: float
    is_shallow: bool

    def as_dict(self) -> dict:
        return {
            "delta2": self.delta2,
            "epsilon": self.epsilon,
            "is_shallow": self.is_shallow,
        }


def to_dimensionless(params: NondimParams, t, x, y, surface, potential):
    """Map field-unit (t, x, y, surface, potential) to unit-gravity form."""
    c = params.speed
    lam = params.wavelength
    h = params.depth
    return (
        t * c / lam,
        x / lam,
        y / h,
        surface / h,
        potential / (c * lam),
    )


def to_dimensional(params: NondimParams, t, x, y, surface, potential):
    """Inverse of to_dimensionless."""
    c = params.speed
    lam = params.wavelength
    h = params.depth
    return (
        t * lam / c,
        x * lam,
        y * h,
        surface * h,
        potential * c * lam,
    )


def shallowness_report(params: NondimParams, ratio_max: float = 0.1) -> ShallownessReport:
    """Report delta**2, epsilon, and whether delta**2 <= ratio_max * epsilon.

    A zero amplitude gives epsilon = 0 and therefore is_shallow = False:
    with no wave there is no amplitude scale for the dispersion terms to be
    small against.
    """
    if not 0.0 < ratio_max < math.inf:
        raise ValueError("ratio_max must be positive and finite")
    d2 = params.delta**2
    eps = params.epsilon
    return ShallownessReport(d2, eps, bool(d2 <= ratio_max * eps))


def sound_speed(depth: float, gravity: float = 9.8):
    """Gravity-wave speed over the given depth: returns (m/s, km/h)."""
    if not 0.0 < depth < math.inf:
        raise DomainError("depth must be positive and finite, got {}".format(depth))
    if not 0.0 < gravity < math.inf:
        raise DomainError("gravity must be positive and finite, got {}".format(gravity))
    ms = float(np.sqrt(gravity * depth))
    return ms, ms * 3.6
