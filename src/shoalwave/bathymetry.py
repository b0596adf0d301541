"""Seabed elevation profiles b(x) with slope and curvature.

Profiles are immutable after construction. The analytic kinds are defined
on the whole real line; sampled profiles live on the closed interval
spanned by their nodes and raise DomainError outside it.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
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
        if isinstance(x, float):  # the detector asks for one point at a time
            return 0.0
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
        if isinstance(x, float):  # the detector asks for one point at a time
            return float(self.b1)
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


def _node_derivatives(x, b, order, nodes=None):
    """Derivative of sampled data at the given nodes (default: every node),
    second order in the spacing.

    Central 3-point stencils in the interior; one-sided stencils at the two
    ends (3 points for the slope, 4 for the curvature so the end values stay
    second order). Each stencil size is one stacked solve and one stacked
    (1, k) @ (k, 1) product, in which every node has its own matrix and its
    own row, so a node gets the same bits in any subset.
    """
    n = x.size
    nodes = np.arange(n) if nodes is None else np.asarray(nodes)
    edge = 3 if order == 1 else 4
    inside = (nodes > 0) & (nodes < n - 1)
    ends = nodes[~inside, None]
    out = np.empty(nodes.size)
    for which, idx in (
        (inside, nodes[inside, None] + np.arange(-1, 2)),
        (~inside, np.where(ends == 0, np.arange(edge), np.arange(n - edge, n))),
    ):
        weights = _fd_weights(x[idx] - x[nodes[which], None], order)
        out[which] = (weights[:, None, :] @ b[idx][:, :, None])[:, 0, 0]
    return out


# Nodes per block of a sampled bed's derivative rows. Measured on the final
# ocean_transit snapshot (12000 nodes), building the bed and searching it
# cost the same within noise from 16 to 128 nodes a block, 15% more at 256
# and twice as much at 1024.
_BLOCK = 64


class Sampled(Bathymetry):
    """Profile interpolated from (x_i, b_i) samples.

    Values come from monotone cubic interpolation, so they never overshoot
    the data between nodes. Slope and curvature are finite-differenced on
    the sample nodes and interpolated linearly in between. The derivative
    nodes are built on demand, in blocks of _BLOCK nodes: a scalar slope()
    builds only the blocks that hold its interpolation bracket, an array
    query or curvature() every block not yet built. Each block is built at
    most once, and each node gets the bits that building every node at once
    gives. x_nodes and b_nodes are read-only. Needs at least 5 strictly
    increasing nodes; queries outside [x_0, x_last] raise DomainError.
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

        # Node spacings near the float minimum can divide by zero inside
        # the interpolant even where every sample slope is finite.
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                self._interp = PchipInterpolator(x, b, extrapolate=False)
        except ValueError:
            raise ValueError(
                "samples give the monotone interpolant non-finite slopes; "
                "smallest node spacing {:g}".format(float(np.min(np.diff(x))))
            ) from None
        self._x = x
        self._b = b
        for arr in (self._x, self._b):
            arr.setflags(write=False)
        self._lo, self._hi = float(x[0]), float(x[-1])
        # Each block's first node, and each block's last node short of the
        # final one: the nodes a scalar query's bracket is placed against.
        self._firsts = x[::_BLOCK].tolist()
        self._lasts = x[_BLOCK - 1 : -1 : _BLOCK].tolist()
        # Per order (slope, curvature): the node row and which of its blocks
        # hold their values.
        self._rows = (np.full(x.size, np.nan), np.full(x.size, np.nan))
        self._built = ([False] * len(self._firsts), [False] * len(self._firsts))

    def _row(self, order, blocks=None):
        """order's node row with the given blocks (every block by default)
        built."""
        row, built = self._rows[order - 1], self._built[order - 1]
        if blocks is None:
            blocks = range(len(built))
        todo = [k for k in blocks if not built[k]]
        if todo:
            nodes = (np.array(todo)[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
            nodes = nodes[nodes < row.size]
            row[nodes] = _node_derivatives(self._x, self._b, order, nodes)
            # Only after the values: a reader that sees the flag sees them.
            for k in todo:
                built[k] = True
        return row

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
            if x < self._lo or x > self._hi:
                raise self._outside()
            # np.interp reads the nodes j and j + 1 of the bracket
            # x_j <= x < x_j+1, the last one clamped at the final node: j
            # lies in the last block that starts at or before x, and j + 1
            # in the block after those that end at or before x. NaN lands
            # in the last block and passes through.
            lo = bisect_right(self._firsts, x) - 1
            hi = bisect_right(self._lasts, x)
            built = self._built[0]
            if not (built[lo] and built[hi]):
                self._row(1, range(lo, hi + 1))
            return float(np.interp(x, self._x, self._rows[0]))
        xa = self._checked(x)
        return _shaped(x, np.interp(xa, self._x, self._row(1)))

    def curvature(self, x):
        xa = self._checked(x)
        return _shaped(x, np.interp(xa, self._x, self._row(2)))

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
