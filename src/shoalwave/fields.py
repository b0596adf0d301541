"""Uniform 1D grid, discrete flow state, and derivative stencils."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NearDryError

__all__ = [
    "Grid",
    "FlowState",
    "ddx",
    "d2dx2",
    "depth",
    "require_wet",
    "check_wet",
    "save_state",
    "load_state",
    "read_rows",
]

# require_wet message for a column at or below zero thickness.
DRY_COLUMN = "dry column at node {node} (t={t})"
# require_wet message for a column thinner than h_min, as check_wet words it.
THIN_COLUMN = "column {depth:.3e} below h_min={h_min:.3e} at node {node} (t={t})"


@dataclass(frozen=True)
class Grid:
    """Uniform node grid; node i sits at x0 + i * dx."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not self.dx > 0.0:
            raise ValueError("dx must be positive, got {}".format(self.dx))
        if self.n < 8:
            raise ValueError("need at least 8 nodes, got {}".format(self.n))

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def x_last(self) -> float:
        return self.x0 + self.dx * (self.n - 1)


@dataclass
class FlowState:
    """Surface elevation and velocity sampled on a grid at time t."""

    t: float
    gamma_surface: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.gamma_surface = np.asarray(self.gamma_surface, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.gamma_surface.ndim != 1:
            raise ValueError("fields must be 1D")
        if self.gamma_surface.shape != self.velocity.shape:
            raise ValueError("surface and velocity must have the same length")

    def copy(self) -> "FlowState":
        return FlowState(self.t, self.gamma_surface.copy(), self.velocity.copy())


def _checked(field, grid: Grid) -> np.ndarray:
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(
            "field length {} does not match grid n={}".format(f.shape, grid.n)
        )
    return f


def ddx(field, grid: Grid) -> np.ndarray:
    """First derivative: central in the interior, one-sided at both ends.

    All stencils are second order in dx.
    """
    f = _checked(field, grid)
    out = np.empty_like(f)
    _ddx_from(f, grid.dx, out, 0, f.size)
    return out


def _ddx_from(f, dx: float, out, lo: int, hi: int, inner=None):
    """Rewrite ddx(f) in out at every node whose stencil reads f[lo:hi].

    Those are the nodes [lo-1, hi+1), widened to node 0 when lo <= 2 and
    to the last node when hi >= n-2, whose one-sided stencils read three
    nodes in. [0, n) rewrites all of out; a caller that does so on every
    call may pass inner = (f[2:], f[:-2], out[1:-1]), bound once. Returns
    the rewritten span as (first, last).
    """
    n = f.size
    first = lo - 1 if lo > 2 else 0
    last = hi + 1 if hi < n - 2 else n
    inv2 = 1.0 / (2.0 * dx)
    if inner is None:
        a, b = max(first, 1), min(last, n - 1)
        inner = (f[a + 1 : b + 1], f[a - 1 : b - 1], out[a:b])
    ahead, behind, central = inner
    np.multiply(np.subtract(ahead, behind, out=central), inv2, out=central)
    # The end stencils on Python floats, which cost less than NumPy scalars.
    if first == 0:
        f0, f1, f2 = f[:3].tolist()
        out[0] = (-3.0 * f0 + 4.0 * f1 - f2) * inv2
    if last == n:
        f2, f1, f0 = f[-3:].tolist()
        out[-1] = (3.0 * f0 - 4.0 * f1 + f2) * inv2
    return first, last


def d2dx2(field, grid: Grid) -> np.ndarray:
    """Second derivative, second order everywhere (4-point stencil at ends)."""
    f = _checked(field, grid)
    inv = 1.0 / grid.dx**2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) * inv
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) * inv
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) * inv
    return out


def depth(state: FlowState, bathy, grid: Grid) -> np.ndarray:
    """Water column thickness: surface minus bed at every node."""
    return _checked(state.gamma_surface, grid) - bathy.eval(grid.x)


def require_wet(
    w, t, message: str, h_min: float | None = None, first_node: int = 0
) -> None:
    """Raise NearDryError at the thinnest column of w if it is too thin.

    The floor is w < h_min when h_min is given and w <= 0 otherwise. message
    is a format template that may use {depth}, {node}, {t} and {h_min}; the
    error carries node, t and depth. Nodes count from first_node, for a w
    that is a window of a longer row. NaN entries are skipped; an all-NaN w
    raises nothing.
    """
    i = int(w.argmin())
    low = w[i]
    if low != low:  # argmin stops at the first NaN
        try:
            i = int(np.nanargmin(w))
        except ValueError:
            return
        low = w[i]
    too_thin = low <= 0.0 if h_min is None else low < h_min
    if too_thin:
        node = first_node + i
        raise NearDryError(
            message.format(depth=low, node=node, t=t, h_min=h_min),
            node=node,
            t=t,
            depth=float(low),
        )


def check_wet(state: FlowState, bathy, grid: Grid, h_min: float) -> None:
    """Raise NearDryError if any column is thinner than h_min."""
    require_wet(depth(state, bathy, grid), state.t, THIN_COLUMN, h_min)


# A snapshot file's header and one row of it, laid out as csv.writer writes
# them (no field needs quoting); x and b come formatted.
_STATE_HEADER = "x,gamma_surface,u,b\r\n"
_STATE_ROW = "%s,%.17g,%.17g,%s\r\n"
_FLOAT = "{:.17g}".format


def _state_writer(grid: Grid, x: np.ndarray, b):
    """write(state, path): a snapshot CSV of state over node coordinates x
    and bed elevations b.

    Each write checks the lengths of the surface, velocity and bed columns,
    in that order. The static x and b columns are formatted on the first
    write and kept; each write then fills its surface and velocity into
    the interleaved cell list and formats the whole file in one % pass.
    """
    body = _STATE_ROW * grid.n
    cells = []

    def write(state: FlowState, path) -> None:
        surface, velocity, bed = (
            _checked(c, grid) for c in (state.gamma_surface, state.velocity, b)
        )
        if not cells:
            cells.extend([None] * (4 * grid.n))
            cells[0::4] = map(_FLOAT, x.tolist())
            cells[3::4] = map(_FLOAT, bed.tolist())
        cells[1::4] = surface.tolist()
        cells[2::4] = velocity.tolist()
        with open(path, "w", newline="") as fh:
            fh.write(_STATE_HEADER + body % tuple(cells))

    return write


def save_state(state: FlowState, bathy, grid: Grid, path) -> None:
    """Write a snapshot CSV with columns x, gamma_surface, u, b.

    Numbers are written with 17 significant digits, so reading them back
    gives every bit; NaN and infinities as nan, inf and -inf. A caller
    writing many states on one grid and bed (solver.write_outputs) formats
    x and b once for all of them.
    """
    x = grid.x
    _state_writer(grid, x, bathy.eval(x))(state, path)


# The CSV dialect of read_rows, as np.loadtxt arguments.
_ROW_FORMAT = {"delimiter": ",", "comments": None, "quotechar": '"'}


def read_rows(fh, path, kind: str) -> np.ndarray:
    """The numbers in the rest of an open CSV file, one array row per line.

    fh is a seekable text file positioned after a one-line header. One
    np.loadtxt pass parses each cell with the parser of float(): optional
    sign and surrounding whitespace, ASCII decimal or exponent notation,
    nan and inf in any case, optionally in double quotes; digit groups such
    as 1_000 are not numbers. Empty lines are skipped, and with no rows left
    the result has shape (0, 0). A cell that is not a number, or a row whose
    length differs from the first row's, raises ValueError("malformed {kind}
    row in {path}: line N: ...") with N the line of the file, header
    included.
    """
    lines = iter(fh)
    # np.loadtxt skips empty lines as well, but warns when it finds no row.
    first = next((line for line in lines if line != "\n"), None)
    if first is None:
        return np.empty((0, 0))
    try:
        return np.loadtxt(itertools.chain((first,), lines), **_ROW_FORMAT, ndmin=2)
    except ValueError as exc:
        fh.seek(0)
        problem = _first_bad_line(fh) or str(exc).split(";")[0]
        raise ValueError("malformed {} row in {}: {}".format(kind, path, problem))


def _first_bad_line(lines):
    """'line N: ...' for the first body line np.loadtxt rejects, else None.

    Parses the lines after the header one by one with the format of
    read_rows, so that the line number counts every line of the file.
    """
    width = None
    for number, line in enumerate(lines, 1):
        if number == 1 or not line.rstrip("\r\n"):
            continue
        try:
            cells = np.loadtxt([line], **_ROW_FORMAT, ndmin=1).size
        except ValueError:
            return "line {}: cannot read {!r} as numbers".format(
                number, line.rstrip("\r\n")
            )
        if width is None:
            width = cells
        elif cells != width:
            return "line {}: expected {} numbers, got {}".format(number, width, cells)
    return None


def load_state(path, t: float = 0.0):
    """Read a snapshot CSV back as (grid, state, bed_elevations).

    The header must be x,gamma_surface,u,b and every row four numbers, read
    by read_rows (an undecodable byte fails as a malformed row). There must
    be at least 8 rows, and the x column must be uniformly spaced since
    every operation in this package assumes a uniform grid. Any fault
    raises ValueError naming the path.
    """
    data = _snapshot_rows(path)
    x = data[:, 0]
    grid = Grid(float(x[0]), float(x[1] - x[0]), int(x.size))
    state = FlowState(t, data[:, 1], data[:, 2])
    return grid, state, data[:, 3]


def _snapshot_rows(path) -> np.ndarray:
    """The rows x, gamma_surface, u, b of a snapshot CSV, checked as
    load_state describes."""
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if [c.strip() for c in header] != ["x", "gamma_surface", "u", "b"]:
            raise ValueError("expected header 'x,gamma_surface,u,b' in {}".format(path))
        data = read_rows(fh, path, "state")
    if data.shape[1] != 4 or data.shape[0] < 8:
        raise ValueError("state file {} needs >= 8 rows of 4 columns".format(path))
    x = data[:, 0]
    dx = x[1] - x[0]
    uniform = dx > 0 and np.all(np.isfinite(x))
    if uniform:
        # Each node x0 + i * dx is rounded to within about an ulp of
        # max|x|, so on a grid far from x = 0 a spacing, and dx itself,
        # can be several ulp of max|x| off, far more than rtol allows.
        slack = 1e-12 * dx + 8.0 * np.spacing(np.max(np.abs(x)))
        uniform = np.allclose(np.diff(x), dx, rtol=1e-9, atol=slack)
    if not uniform:
        raise ValueError("state file {} is not on a uniform grid".format(path))
    return data
