"""Seabed elevation profiles b(x) with slope and curvature.

Profiles are immutable after construction. The analytic kinds are defined
on the whole real line; sampled profiles live on the closed interval
spanned by their nodes and raise DomainError outside it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["Bathymetry", "Flat", "Linear", "TanhSafe", "Sampled"]

# cosh(x)**2 overflows past ~355; the clipped tail is < 1e-300, i.e. zero.
_TANH_CLIP = 350.0


def _shaped(x, out):
    """Return a float for scalar input and an ndarray otherwise."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


class Bathymetry:
    """Elevation profile of the seabed, negative below the reference surface."""

    def eval(self, x):
        """Bed elevation at x."""
        raise NotImplementedError

    def slope(self, x):
        """First derivative of the bed elevation at x."""
        raise NotImplementedError

    def curvature(self, x):
        """Second derivative of the bed elevation at x."""
        raise NotImplementedError


@dataclass(frozen=True)
class Flat(Bathymetry):
    """Horizontal bottom at elevation b0."""

    b0: float

    def eval(self, x):
        return _shaped(x, np.full(np.shape(x), self.b0))

    def slope(self, x):
        return _shaped(x, np.zeros(np.shape(x)))

    def curvature(self, x):
        return _shaped(x, np.zeros(np.shape(x)))


@dataclass(frozen=True)
class Linear(Bathymetry):
    """Uniformly sloping bottom b0 + b1 * x."""

    b0: float
    b1: float

    def eval(self, x):
        xa = np.asarray(x, dtype=float)
        return _shaped(x, self.b0 + self.b1 * xa)

    def slope(self, x):
        return _shaped(x, np.full(np.shape(x), self.b1))

    def curvature(self, x):
        return _shaped(x, np.zeros(np.shape(x)))


@dataclass(frozen=True)
class TanhSafe(Bathymetry):
    """Smooth monotone shelf: b(x) = -h + K * (tanh(x) - 1).

    Far offshore (x -> -inf) the bed sits at -h - 2K, far inshore at -h,
    and the slope peaks at the single inflection point x = 0 where it
    equals K. The curvature is positive on the offshore side and negative
    on the inshore side. h and K must be positive.
    """

    h: float
    K: float

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("TanhSafe requires h > 0, got {}".format(self.h))
        if self.K <= 0.0:
            raise ValueError("TanhSafe requires K > 0, got {}".format(self.K))

    def eval(self, x):
        xa = np.asarray(x, dtype=float)
        return _shaped(x, -self.h + self.K * (np.tanh(xa) - 1.0))

    def slope(self, x):
        if isinstance(x, float):
            # The detector asks for one point at a time; Python min/max
            # clip a float as np.clip does (NaN passes through) without
            # its array dispatch.
            xa = min(max(x, -_TANH_CLIP), _TANH_CLIP)
        else:
            xa = np.clip(np.asarray(x, dtype=float), -_TANH_CLIP, _TANH_CLIP)
        sech2 = 1.0 / np.cosh(xa) ** 2
        return _shaped(x, self.K * sech2)

    def curvature(self, x):
        xa = np.clip(np.asarray(x, dtype=float), -_TANH_CLIP, _TANH_CLIP)
        sech2 = 1.0 / np.cosh(xa) ** 2
        return _shaped(x, -2.0 * self.K * sech2 * np.tanh(xa))


def _fd_weights(offsets, order):
    """Finite-difference weights for d^order/dx^order, one row per stencil.

    offsets is (m, k): the stencil points relative to the node each row
    serves. Row i solves the Vandermonde system with rows offsets[i]**r
    (powers built as np.vander builds them) against r! e_order; all m
    systems go to one stacked solve.
    """
    m, k = offsets.shape
    v = np.empty((m, k, k))
    v[:, :, 0] = 1.0
    v[:, :, 1:] = offsets[:, :, None]
    np.multiply.accumulate(v[:, :, 1:], axis=2, out=v[:, :, 1:])
    rhs = np.zeros((m, k, 1))
    rhs[:, order, 0] = math.factorial(order)
    return np.linalg.solve(v.transpose(0, 2, 1), rhs)[:, :, 0]


def _node_derivatives(x, b, order):
    """Per-node derivative of sampled data, second order in the spacing.

    Central 3-point stencils in the interior; one-sided stencils at the two
    ends (3 points for the slope, 4 for the curvature so the end values stay
    second order). Each stencil size is one stacked solve and one stacked
    (1, k) @ (k, 1) product.
    """
    n = x.size
    edge = 3 if order == 1 else 4
    interior = np.arange(1, n - 1)
    ends = np.array([0, n - 1])
    out = np.empty(n)
    for nodes, idx in (
        (interior, interior[:, None] + np.arange(-1, 2)),
        (ends, np.array([np.arange(edge), np.arange(n - edge, n)])),
    ):
        weights = _fd_weights(x[idx] - x[nodes, None], order)
        out[nodes] = (weights[:, None, :] @ b[idx][:, :, None])[:, 0, 0]
    return out


class Sampled(Bathymetry):
    """Profile interpolated from (x_i, b_i) samples.

    Values come from monotone cubic interpolation, so they never overshoot
    the data between nodes. Slope and curvature are finite-differenced on
    the sample nodes and interpolated linearly in between. Needs at least
    5 strictly increasing nodes; queries outside [x_0, x_last] raise
    DomainError.
    """

    def __init__(self, x, b):
        x = np.array(x, dtype=float)
        b = np.array(b, dtype=float)
        if x.ndim != 1 or x.shape != b.shape:
            raise ValueError("x and b must be 1D arrays of equal length")
        if x.size < 5:
            raise ValueError("need at least 5 samples, got {}".format(x.size))
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("sample positions must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(b))):
            raise ValueError("samples must be finite")
        # Imported here so that `import shoalwave` does not pay for scipy,
        # which only sampled beds need.
        from scipy.interpolate import PchipInterpolator

        self._x = x
        self._b = b
        self._interp = PchipInterpolator(x, b, extrapolate=False)
        self._slope_nodes = _node_derivatives(x, b, 1)
        self._curv_nodes = _node_derivatives(x, b, 2)
        for arr in (self._x, self._b, self._slope_nodes, self._curv_nodes):
            arr.setflags(write=False)

    @property
    def x_nodes(self):
        return self._x

    @property
    def b_nodes(self):
        return self._b

    def _outside(self) -> DomainError:
        return DomainError(
            "query outside sampled range [{}, {}]".format(self._x[0], self._x[-1])
        )

    def _checked(self, x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa < self._x[0]) or np.any(xa > self._x[-1]):
            raise self._outside()
        return xa

    def eval(self, x):
        return _shaped(x, self._interp(self._checked(x)))

    def slope(self, x):
        if isinstance(x, float):
            # The detector asks for one point at a time; the same range test
            # without the array dispatch (NaN passes through, as it does
            # through the array test).
            if x < self._x[0] or x > self._x[-1]:
                raise self._outside()
            return float(np.interp(x, self._x, self._slope_nodes))
        xa = self._checked(x)
        return _shaped(x, np.interp(xa, self._x, self._slope_nodes))

    def curvature(self, x):
        xa = self._checked(x)
        return _shaped(x, np.interp(xa, self._x, self._curv_nodes))

    @classmethod
    def from_csv(cls, path):
        """Load a profile from a CSV file with header ``x,b``."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip().lower() for c in rows[0]] != ["x", "b"]:
            raise ValueError("expected CSV header 'x,b' in {}".format(path))
        try:
            data = np.array([[float(r[0]), float(r[1])] for r in rows[1:] if r])
        except (ValueError, IndexError) as exc:
            raise ValueError("malformed bathymetry row in {}: {}".format(path, exc))
        if data.size == 0:
            raise ValueError("no samples in {}".format(path))
        return cls(data[:, 0], data[:, 1])
