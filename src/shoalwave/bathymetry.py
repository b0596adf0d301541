"""Seabed elevation profiles b(x) and their slopes.

Profiles are immutable after construction. The analytic kinds are defined
on the whole real line; sampled profiles live on the closed interval
spanned by their nodes and raise DomainError outside it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .fields import read_rows

__all__ = ["Bathymetry", "Flat", "Linear", "TanhSafe", "Sampled", "from_spec"]

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


@dataclass(frozen=True)
class Flat(Bathymetry):
    """Horizontal bottom at elevation b0."""

    b0: float

    def eval(self, x):
        return _shaped(x, np.full(np.shape(x), self.b0))

    def slope(self, x):
        if isinstance(x, float):  # the detector asks for one point at a time
            return 0.0
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
        if isinstance(x, float):  # the detector asks for one point at a time
            return float(self.b1)
        return _shaped(x, np.full(np.shape(x), self.b1))


@dataclass(frozen=True)
class TanhSafe(Bathymetry):
    """Smooth monotone shelf: b(x) = -h + K * (tanh(x) - 1).

    Far offshore (x -> -inf) the bed sits at -h - 2K, far inshore at -h,
    and the slope peaks at the single inflection point x = 0 where it
    equals K. h and K must be positive.
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


def _node_derivatives(x, b):
    """Slope of sampled data at every node: that of the quadratic through
    the node and two neighbours, second order in the spacing.

    In the secant slopes m = diff(b) / h, an interior node takes
    (h[i] * m[i-1] + h[i-1] * m[i]) / (h[i-1] + h[i]) and each end
    ((2*h0 + h1)*m0 - h0*m1) / (h0 + h1), PCHIP's end slope before its
    limits, with (h0, m0) the end interval and (h1, m1) its neighbour.
    These are Fornberg's 3-point weights (Math. Comp. 51, 1988) without a
    product of two spacings, which underflows near the float minimum.

    This stencil, not the PCHIP derivative, is the one fields.ddx applies
    to the surface, so the surface slope minus this one stays the stencil
    of the depth, and a surface parallel to the bed cancels in the
    tangent-match residual.
    """
    h = np.diff(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = np.diff(b) / h
        d = np.empty(b.size)
        d[1:-1] = (h[1:] * m[:-1] + h[:-1] * m[1:]) / (h[:-1] + h[1:])
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        d[[0, -1]] = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d


def _pchip_coefficients(h, b):
    """Cubic coefficients of the monotone piecewise cubic Hermite
    interpolant through samples b on nodes with spacings h, or None when a
    node slope is not finite.

    The rows hold, per interval, the coefficients of s**3, s**2, s and 1,
    with s the offset from the interval's left node. The node slopes are
    Fritsch & Carlson's (SIAM J. Numer. Anal. 17, 1980): the weighted
    harmonic mean of the two secant slopes, or 0 where those differ in sign
    or one is 0. The end slopes are Moler's shape-preserving one-sided
    estimates (Numerical Computing with MATLAB, 3.6). Each value comes from
    the operands and operations of SciPy's PchipInterpolator, in its order,
    so the rows hold its bits; the last row is 0.0 + b, the evaluation's
    first sum, which turns -0.0 into 0.0. The rows are read-only.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = np.diff(b) / h
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        d = np.empty(b.size)
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # Both ends at once: the end interval (h0, m0) and its neighbour.
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        wrong_sign = np.sign(end) != np.sign(m0)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, end))
        if not np.all(np.isfinite(d)):
            return None
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        coeffs = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + b[:-1]))
    coeffs.setflags(write=False)
    return coeffs


class Sampled(Bathymetry):
    """Profile interpolated from (x_i, b_i) samples.

    Values come from monotone piecewise cubic Hermite interpolation (PCHIP,
    Fritsch & Carlson, with Moler's end slopes; see _pchip_coefficients),
    so they never overshoot the data between nodes. They equal SciPy's
    PchipInterpolator bit for bit; SciPy is the tests' oracle, not a
    dependency. The slope is the 3-point finite difference at the sample
    nodes (see _node_derivatives), interpolated linearly in between; every
    node slope is built once, in closed form, at construction. x_nodes and
    b_nodes are read-only. Needs at least 5 strictly increasing nodes;
    queries outside [x_0, x_last] raise DomainError.
    """

    def __init__(self, x, b):
        x = np.array(x, dtype=float)
        b = np.array(b, dtype=float)
        if x.ndim != 1 or x.shape != b.shape:
            raise ValueError("x and b must be 1D arrays of equal length")
        if x.size < 5:
            raise ValueError("need at least 5 samples, got {}".format(x.size))
        h = np.diff(x)
        if not np.all(h > 0.0):
            raise ValueError("sample positions must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(b))):
            raise ValueError("samples must be finite")
        # Node spacings near the float minimum can give non-finite node
        # slopes even where every sample slope is finite.
        self._coeffs = _pchip_coefficients(h, b)
        if self._coeffs is None:
            raise ValueError(
                "samples give the monotone interpolant non-finite slopes; "
                "smallest node spacing {:g}".format(float(np.min(h)))
            )
        self._x = x
        self._b = b
        self._slopes = _node_derivatives(x, b)
        for arr in (self._x, self._b, self._slopes):
            arr.setflags(write=False)
        self._lo, self._hi = float(x[0]), float(x[-1])

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

    @np.errstate(over="ignore", invalid="ignore")
    def eval(self, x):
        q = np.asarray(x, dtype=float)
        inside = (q >= self._lo) & (q <= self._hi)
        everywhere = inside.all()
        if not everywhere:
            self._checked(q)
        # The interval x_i <= q < x_i+1, the last node in the last one.
        i = np.searchsorted(self._x[1:-1], q, side="right")
        s = q - self._x[i]
        a3, a2, a1, a0 = self._coeffs
        # The terms in SciPy's order (PPoly's evaluate), not Horner's.
        value = a0[i] + a1[i] * s
        z = s * s
        value += a2[i] * z
        z *= s
        value += a3[i] * z
        if not everywhere:
            # A NaN query gives SciPy's NaN, whatever the query's bits.
            value = np.where(inside, value, np.nan)
        return _shaped(x, value)

    def slope(self, x):
        if isinstance(x, float):
            # The detector asks for one point at a time; the same range test
            # without the array dispatch (NaN passes through, as it does
            # through the array test).
            if x < self._lo or x > self._hi:
                raise self._outside()
            return float(np.interp(x, self._x, self._slopes))
        xa = self._checked(x)
        return _shaped(x, np.interp(xa, self._x, self._slopes))

    @classmethod
    def from_csv(cls, path):
        """Load a profile from a CSV file with header ``x,b`` in any case.

        Every row holds two numbers, read by fields.read_rows. Any fault
        raises ValueError naming the path.
        """
        with open(path, encoding="utf-8", errors="backslashreplace") as fh:
            header = next(csv.reader([fh.readline()]), [])
            if [c.strip().lower() for c in header] != ["x", "b"]:
                raise ValueError("expected CSV header 'x,b' in {}".format(path))
            data = read_rows(fh, path, "bathymetry")
        if data.size == 0:
            raise ValueError("no samples in {}".format(path))
        if data.shape[1] != 2:
            raise ValueError(
                "malformed bathymetry row in {}: {} columns, expected 2".format(
                    path, data.shape[1]
                )
            )
        try:
            return cls(data[:, 0], data[:, 1])
        except ValueError as exc:
            raise ValueError("bad samples in {}: {}".format(path, exc))


def finite_float(value, what: str) -> float:
    """value as a finite float: numbers and numeric strings, never bools."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError("{} must be a finite number, got {!r}".format(what, value))
    return number


_KINDS = {"flat": Flat, "linear": Linear, "tanh_safe": TanhSafe, "sampled": Sampled}


def from_spec(kind, params) -> Bathymetry:
    """Bed of the given kind from a mapping of its parameters.

    The analytic kinds take the fields of their class, as finite numbers or
    numeric strings; ``sampled`` takes the ``path`` of an ``x,b`` CSV file.
    Raises ValueError naming the bad kind or key.
    """
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError("unknown bathymetry kind {!r}".format(kind))
    names = ["path"] if cls is Sampled else [f.name for f in fields(cls)]
    unknown = [key for key in params if key not in names]
    if unknown:
        raise ValueError("unknown {} parameters: {}".format(kind, unknown))
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError("{} needs parameters: {}".format(kind, missing))
    if cls is Sampled:
        path = params["path"]
        if not isinstance(path, str):
            raise ValueError("sampled path must be a string, got {!r}".format(path))
        return Sampled.from_csv(path)
    return cls(
        *(finite_float(params[n], "{} parameter '{}'".format(kind, n)) for n in names)
    )
