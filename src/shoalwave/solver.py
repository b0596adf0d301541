"""Explicit finite-volume time stepper for the nonlinear long-wave system.

The evolved variables are the column thickness w = gamma_surface - b and
its momentum w * u, with gravity scaled to one. Interface fluxes come from
a two-wave approximate Riemann solver on bed-matched interface states
(each side sees the column above the higher of the two bed values). An
interface whose two states are identical takes the left flux, so that a
balanced state produces bitwise-zero updates; the detector keys on tiny
surface-minus-bed slopes, so the bed source must not leak truncation
noise into a balanced state. The interface states of a lake at rest are
identical only where the bed offsets are exact: a first-order lake at
surface 0 stays bitwise still as long as neighbouring bed values lie
within a factor of two of each other. A periodic seam joining beds
further apart, a nonzero level and the second-order path can leave
deviations of order 1e-16. An optional limited piecewise-linear
reconstruction with two-stage time stepping raises the order to two for
convergence studies; the first-order path is the default.

Most of a quiet sea is such still water, and run() skips it with an
active window: after its first, whole-grid step, each first-order step
computes only the cells next to one that moved in the step before,
widened to whole blocks of cells so that its frame of views changes only
every few dozen steps, and copies the others, which stepping would give
back bit for bit (see _ActiveWindow and Domain.frame). Fixed cells are
checked cell by cell, not assumed, so this needs no well-balance
argument; the window closes for the rest of the run when it nears an
end, and is never used with an inflow or at second order. A whole-grid
step solves every interface.

The detector search after each step follows the same window: it keeps
its rows from step to step and recomputes them only where the step
changed the state (see _Search). Only max|p|, which sets the default
gradient threshold, and the scan for sign changes still read whole rows.
At either order, one compiled call does all but max|p|.

The bed is static: prepare() evaluates it, its ghost cells and the
first-order interface bed offsets once, and run() reuses them for every
step and detector pass. The prepared domain also allocates the step's
scratch rows once, and cuts the whole grid's frame of numpy views of
them (see Domain and _Frame): the step's w and m are the cells of their
ghost-extended rows, so a whole-grid step writes only the two ghost cells
at each end of each row. The domain keeps the last window step's frame
too, and cuts a new one only when the widened window's bounds change. The
step marks the window's still cells in the frame's flux mask rows, and
the detector search allocates its own rows, once per run. So the kernel of
either order and the search write every temporary into rows allocated
before the first step, and a step allocates only the state it returns.
write_outputs() formats the static x and b columns once and writes each
snapshot in one formatting pass.

Once a first-order step has its dt, one compiled call (_kernel.c) does
the rest of it: m = w * u, the ghost cells, the rates interface by
interface, the update, its checks, the new state and the active window's
first and last moved cell, each with the numpy code's operands in its
order. prepare() binds the rows it reads and writes once per run, and
each call names its frame's cells [lo, hi). _first_order_step is its
numpy twin, the same steps in the same order (its rates through _rhs and
_hll, as at second order), and _first_order_rest calls one or the other
and owns the failure path and the window's move. The detector search is
the library's other loop, one call per step at either order (see
_Search). The first prepare() in a process builds or loads both (see
_native). Where it cannot, the step and the search run their numpy code
with the same bits; that code is also the tests' reference for the
loops.

The time step is cfl * dx / max(|u| + sqrt(w)); runs abort with
NearDryError when any column drops below h_min and NumericBlowUpError on
non-finite values. Each step checks its starting w against h_min, and its
starting w and u for non-finite values only when that maximum is not
finite, which a non-finite w or u makes it. After the update it checks the
new w and m for non-finite values (the numpy code only when one sum over
both is not finite), then the new depth against h_min. That depth is the
new surface less the bed, (w_new + b) - b, as every later reader of the
state takes it, not w_new, which it can round below h_min on a high bed.
The run's detector search checks each state it reads for a dry column.
So each check raises what checking every array in turn would, with the
same node, t and depth. A step computes w and sqrt(w) from the state it
is given, whatever the search read before. After a rush event the
integration keeps going by default and the run is flagged post-singular.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import riemann
from .detector import (
    Classification,
    DetectorConfig,
    _assess,
    _crossings,
    _mark_pairs,
    classify,
)
from .errors import NearDryError, NumericBlowUpError, ShoalwaveError
from .fields import (
    THIN_COLUMN,
    FlowState,
    Grid,
    _checked,
    _state_writer,
    require_wet,
    save_state,  # noqa: F401 - unused here; bench/test_bench.py reads solver.save_state
)

__all__ = [
    "SolverConfig",
    "RunResult",
    "Domain",
    "prepare",
    "step",
    "run",
    "write_outputs",
    "initial_lake_at_rest",
    "initial_gaussian_pulse",
]

BOUNDARY_KINDS = ("transmissive", "periodic", "reflective")

RUSH_CLASSES = (Classification.INLAND_RUSH, Classification.OFFSHORE_RUSH)

# The kernel's constant operands as read-only 0-d float64 arrays: a ufunc
# converts a Python float operand on every call, and these give the same
# bits without that cost.
_HALF, _ZERO, _ONE = (np.array(value) for value in (0.5, 0.0, 1.0))
for _constant in (_HALF, _ZERO, _ONE):
    _constant.setflags(write=False)


@dataclass
class SolverConfig:
    """Time-stepping controls.

    t_end is an absolute end time (a state already past it takes no
    steps). inflow, when set, overrides the ghost cells on both ends with
    (w, u) values from inflow(t, x_ghost); it exists for comparisons
    against prescribed-in-time solutions. flux_perturbation is a test hook
    that feeds each cell a momentum flux slightly different from what its
    neighbor saw at the shared interface (defect perturbation*dx*depth),
    destroying conservation and stalling convergence; a negative control
    for the verification commands. Leave both at their defaults for
    physical runs.
    """

    t_end: float
    cfl: float = 0.45
    boundary: str = "transmissive"
    h_min: float = 1e-6
    snapshot_interval: float | None = None
    second_order: bool = False
    stop_at_first_event: bool = False
    max_steps: int = 10_000_000
    inflow: Callable | None = None
    flux_perturbation: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and >= 0, got {}".format(self.t_end))
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1], got {}".format(self.cfl))
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(
                "boundary must be one of {}, got {!r}".format(
                    BOUNDARY_KINDS, self.boundary
                )
            )
        if not 0.0 < self.h_min < math.inf:
            raise ValueError("h_min must be positive and finite")
        interval = self.snapshot_interval
        if interval is not None and not 0.0 < interval < math.inf:
            raise ValueError("snapshot_interval must be positive and finite when set")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RunResult:
    snapshots: list[FlowState]
    snapshot_steps: list[int]
    events: list
    steps: int
    post_singular: bool


class Domain:
    """The static bed of one run, evaluated once for its grid and boundary,
    and the step's scratch rows, allocated once. Build one with prepare().

    x and b are the node coordinates and bed elevations. b_e is b with two
    ghost cells per side, laid out for the boundary kind; with an inflow,
    its ghosts hold the bed at the ghost positions ghost_x. bed_left and
    bed_right are the first-order interface offsets bl - max(bl, br) and
    br - max(bl, br) of the hydrostatic reconstruction (Audusse et al.,
    SIAM J. Sci. Comput. 25, 2004), which depend on the bed alone.
    rate_scale is -1/dx, the factor of every rate, as a 0-d array. These
    arrays are read-only. compiled_step is the compiled rest of a
    first-order step (see _native and _first_order_rest), or None at second
    order or when it cannot be built or loaded; compiled_search is the
    compiled detector search (see _Search) at either order, or None when it
    cannot. With compiled_step, binding (a _native.Rows) holds what every
    call reads and writes of the run, bound once, since the rows never move:
    the addresses of ghosts' two rows, the bed offsets, the rates, the
    first mask row and b, rate_scale, how the call fills the whole grid's
    ghost cells, and the first and last cell that the last call moved; and
    state_row is the ctypes type of a state row.

    The other arrays are scratch that every step overwrites, so a domain
    serves one run at a time. ghosts holds the step's thickness and
    momentum with two ghost cells per side; their cells are the rows w and
    m that a step writes from its state, so a whole-grid step fills only
    the ghost cells. speed keeps the wave speed of every cell from step to
    step, and center_u holds the first-order velocities. interfaces, rates,
    hll and hll_masks are the rows that _Frame cuts to its size. whole is
    the whole grid's frame, and window_frame the last window step's (see
    frame), or None before the first. A second-order domain also holds the
    reconstruction block, its flags and stage, the frame of the first
    stage's result; a first-order domain has none of them.
    """

    def __init__(self, bathy, grid: Grid, config: SolverConfig):
        n = self.n = grid.n
        self.boundary = config.boundary
        self.x = x = grid.x
        self.b = b = np.array(bathy.eval(x), dtype=float)
        self.ghost_x = (
            grid.x0 + grid.dx * np.array([-2.0, -1.0]),
            grid.x_last + grid.dx * np.array([1.0, 2.0]),
        )
        self.b_e = b_e = np.empty(n + 4)
        b_e[2:-2] = b
        for ghosts, cells in _ghost_copies(b_e, self.boundary):
            np.copyto(ghosts, cells)
        if config.inflow is not None:
            b_e[:2] = bathy.eval(self.ghost_x[0])
            b_e[-2:] = bathy.eval(self.ghost_x[1])
        # Interface j sits between cells j and j+1 of b_e[1:-1].
        bl = b_e[1:-2]
        br = b_e[2:-1]
        b_int = np.maximum(bl, br)
        self.bed_left = bl - b_int
        self.bed_right = br - b_int
        self.rate_scale = np.array(-(1.0 / grid.dx))
        # Imported at the first prepare(), so that importing the package
        # neither imports the compiler's tools nor builds the loops.
        from . import _native

        _native.load()
        self.compiled_step = None if config.second_order else _native.step
        self.compiled_search = _native.search
        static = (x, b, b_e, self.bed_left, self.bed_right, self.rate_scale)
        for arr in (*static, *self.ghost_x):
            arr.setflags(write=False)
        self.ghosts = np.empty((2, n + 4))
        self.speed = np.empty(n)
        self.center_u = np.empty(n + 2)
        self.interfaces = np.empty((4, n + 1))
        self.rates = np.empty((2, n))
        self.hll = np.empty((11, n + 1))
        self.hll_masks = np.empty((3, n + 1), bool)
        if self.compiled_step is not None:
            # How the call fills the whole grid's ghost cells: 0 when
            # _fill_inflow has filled them, else the number of the boundary
            # kind (see _kernel.c).
            fill = 0
            if config.inflow is None:
                fill = 1 + BOUNDARY_KINDS.index(config.boundary)
            # ndarray.ctypes.data costs about 1 us a call, so the second row
            # of ghosts and of rates takes its address from the first's.
            ghosts, rates = self.ghosts.ctypes.data, self.rates.ctypes.data
            self.binding = _native.Rows(
                ghosts,
                ghosts + self.ghosts.strides[0],
                self.bed_left.ctypes.data,
                self.bed_right.ctypes.data,
                rates,
                rates + self.rates.strides[0],
                self.hll_masks.ctypes.data,
                b.ctypes.data,
                float(self.rate_scale),
                fill,
            )
            self.state_row = ctypes.c_double * n
        self.whole = _Frame(self, self.ghosts, 0, n)
        self.window_frame = None
        if config.second_order:
            self.reconstruction = np.empty((12, n + 4))
            self.reconstruction_flags = np.empty((2, n + 2), bool)
            self.stage = _Frame(self, np.empty((2, n + 4)), 0, n)

    def frame(self, lo: int, hi: int) -> _Frame:
        """The frame that a step of the window [lo, hi) steps: the window
        widened outward to multiples of _BLOCK cells, clipped to [2, n - 2].

        The domain keeps the last one as window_frame and cuts a new one
        only when those bounds change. Every cell that the widening adds is
        fixed and has fixed neighbours, so it steps to the same bits (see
        _ActiveWindow).
        """
        lo = max(lo - lo % _BLOCK, 2)
        hi = min(hi + -hi % _BLOCK, self.n - 2)
        frame = self.window_frame
        if frame is None or frame.lo != lo or frame.hi != hi:
            frame = self.window_frame = _Frame(self, self.ghosts, lo, hi)
        return frame


def _ghost_copies(e, boundary: str):
    """(ghosts, cells) view pairs that fill the two ghost cells per side of
    the rows e, each n + 4 long, from their cells e[..., 2:-2] as the
    boundary kind lays them out. A reflective wall also flips the sign of
    momentum's ghosts (see _Frame).
    """
    if boundary == "periodic":
        return ((e[..., :2], e[..., -4:-2]), (e[..., -2:], e[..., 2:4]))
    if boundary == "reflective":
        return ((e[..., :2], e[..., 3:1:-1]), (e[..., -2:], e[..., -3:-5:-1]))
    # transmissive: zero-gradient
    return ((e[..., :2], e[..., 2:3]), (e[..., -2:], e[..., -3:-2]))


def prepare(bathy, grid: Grid, config: SolverConfig) -> Domain:
    """Evaluate the bed and everything derived from it once for a run, and
    allocate the step's scratch rows."""
    return Domain(bathy, grid, config)


class _Frame:
    """The views of a run's rows that one step (or stage) over the cells
    [lo, hi) reads and writes.

    block holds thickness and momentum rows n + 4 long; w_e and m_e are
    its columns [lo, hi + 4), whose middle columns w and m are the cells.
    The whole grid's ghost cells follow the boundary kind: ghost_copies
    fills them from the cells, and ghost_flips names the momentum ghosts
    whose sign a reflective wall flips. A window of 2 <= lo and hi <= n - 2
    reads the two real cells beside each end as its ghosts, so its step
    writes w and m over all of w_e and m_e; a whole-grid step writes the
    cells. The other views are of the domain's interface rows and _hll's
    float and bool rows (size + 1 long), the rates (size long, holding the
    new w and m at the end of a step), the wave speeds over the cells, the
    bed over the reach and over the cells, and still and same, the first
    two of _hll's bool rows over the cells, where the numpy step marks the
    still cells once _hll is done with them. A frame is numpy views only:
    the compiled step reads the same cells through the domain's binding
    and the frame's lo and hi. prepare() cuts the whole grid's frame, and a
    second-order domain's stage frame, once; Domain.frame cuts a window's
    and keeps it while its bounds hold.
    """

    def __init__(self, domain: Domain, block, lo: int, hi: int):
        size = hi - lo
        whole = size == domain.n
        self.lo, self.hi = lo, hi
        self.cells = slice(lo, hi)
        ext = block if whole else block[:, lo : hi + 4]
        self.w_e, self.m_e = ext
        self.w, self.m = ext[:, 2:-2]
        if whole:
            self.reach = self.cells
            self.w_reach, self.m_reach = self.w, self.m
            self.b_reach = self.b_cells = domain.b
            self.ghost_copies = _ghost_copies(block, domain.boundary)
            reflective = domain.boundary == "reflective"
            self.ghost_flips = (self.m_e[:2], self.m_e[-2:]) if reflective else ()
        else:
            self.reach = slice(lo - 2, hi + 2)
            self.w_reach, self.m_reach = self.w_e, self.m_e
            self.b_reach, self.b_cells = domain.b[self.reach], domain.b[self.cells]
            self.ghost_copies = self.ghost_flips = None
        center_w = self.w_e[1:-1]
        self.center_w, self.center_m = center_w, self.m_e[1:-1]
        self.w_left, self.w_right = center_w[:-1], center_w[1:]
        u = domain.center_u if whole else domain.center_u[: size + 2]
        self.center_u, self.ul, self.ur = u, u[:-1], u[1:]
        self.bed_left = domain.bed_left[lo : hi + 1]
        self.bed_right = domain.bed_right[lo : hi + 1]
        self.wls, self.wrs, self.g_right, self.tmp = domain.interfaces[:, : size + 1]
        self.g_right_next = self.g_right[1:]
        self.hll = tuple(domain.hll[:, : size + 1])
        self.hll_masks = tuple(domain.hll_masks[:, : size + 1])
        self.still, self.same = domain.hll_masks[:2, :size]
        self.rates = domain.rates[:, :size]
        self.rw, self.rm = self.rates
        self.speed = domain.speed[self.cells]


def _fill_ghosts(frame: _Frame, domain: Domain, config: SolverConfig, t: float):
    """Fill the ghost cells of a whole-grid frame from its cells, or from
    the inflow at time t; a window's ghosts are real cells."""
    if frame.ghost_copies is None:
        return
    for ghosts, cells in frame.ghost_copies:
        ghosts[...] = cells  # a slice copy, for less than np.copyto
    for ghosts in frame.ghost_flips:
        np.negative(ghosts, out=ghosts)
    _fill_inflow(frame, domain, config, t)


def _fill_inflow(frame: _Frame, domain: Domain, config: SolverConfig, t: float):
    """Overwrite the ghost cells of a whole-grid frame with the inflow at
    time t, when there is one; a window's ghosts are real cells."""
    if config.inflow is not None and frame.ghost_copies is not None:
        for sl, xg in zip((slice(0, 2), slice(-2, None)), domain.ghost_x):
            w_g, u_g = config.inflow(t, xg)
            frame.w_e[sl] = w_g
            frame.m_e[sl] = np.asarray(w_g) * np.asarray(u_g)


def _hll(wl, ul, wr, ur, rows, masks):
    """Two-wave approximate flux between reconstructed interface states.

    An interface whose two states are identical takes the left flux, so
    that a balanced state produces bitwise-zero updates.

    rows are eleven float rows and masks three bool rows, each as long as
    wl; every temporary lives in them, and the two returned flux arrays
    are two of the rows. Each line computes what its comment says, with
    the same operands in the same order, so the results are bitwise those
    of the plain expressions.
    """
    ml, mr, fl1, tmp, mid0, mid1, fr1, sl, sr, slsr, safe = rows
    same, left, right = masks

    np.multiply(wl, ul, out=ml)
    np.multiply(wr, ur, out=mr)
    np.logical_and(np.equal(wl, wr, out=same), np.equal(ml, mr, out=left), out=same)
    # fl1 = ml * ul + 0.5 * wl * wl
    half = np.multiply(_HALF, wl, out=tmp)
    np.add(np.multiply(ml, ul, out=fl1), np.multiply(half, wl, out=tmp), out=fl1)

    cl = np.sqrt(wl, out=sr)
    cr = np.sqrt(wr, out=tmp)
    # sl = minimum(ul - cl, ur - cr); sr = maximum(ul + cl, ur + cr)
    np.minimum(np.subtract(ul, cl, out=sl), np.subtract(ur, cr, out=slsr), out=sl)
    np.maximum(np.add(ul, cl, out=sr), np.add(ur, cr, out=tmp), out=sr)

    # fr1 = mr * ur + 0.5 * wr * wr
    half = np.multiply(_HALF, wr, out=tmp)
    np.add(np.multiply(mr, ur, out=fr1), np.multiply(half, wr, out=tmp), out=fr1)

    # safe = where(span > 0, span, 1) with span = sr - sl
    np.subtract(sr, sl, out=safe)
    np.logical_not(np.greater(safe, _ZERO, out=left), out=left)
    np.copyto(safe, _ONE, where=left)
    np.multiply(sl, sr, out=slsr)
    # mid0 = (sr * ml - sl * mr + slsr * (wr - wl)) / safe
    np.multiply(sr, ml, out=mid0)
    np.subtract(mid0, np.multiply(sl, mr, out=tmp), out=mid0)
    np.add(mid0, np.multiply(slsr, np.subtract(wr, wl, out=tmp), out=tmp), out=mid0)
    np.divide(mid0, safe, out=mid0)
    # mid1 = (sr * fl1 - sl * fr1 + slsr * (mr - ml)) / safe
    np.multiply(sr, fl1, out=mid1)
    np.subtract(mid1, np.multiply(sl, fr1, out=tmp), out=mid1)
    np.add(mid1, np.multiply(slsr, np.subtract(mr, ml, out=tmp), out=tmp), out=mid1)
    np.divide(mid1, safe, out=mid1)

    # One left/right mask pass picks each flux. Left takes the left flux:
    # supersonic to the right, or identical interface states. Right takes
    # the right flux; the rest keep the intermediate one.
    np.greater_equal(sl, _ZERO, out=left)
    left |= same
    np.less_equal(sr, _ZERO, out=right)
    for flux, from_left, from_right in ((mid0, ml, mr), (mid1, fl1, fr1)):
        np.copyto(flux, from_right, where=right)
        np.copyto(flux, from_left, where=left)
    return mid0, mid1


def _minmod(a, b, out, flags, tmp):
    """where(a * b <= 0, 0, where(|a| < |b|, a, b)) into out.

    flags is a (2, size) bool block and tmp a (2, size) float block.
    """
    flat, pick_a = flags
    np.less_equal(np.multiply(a, b, out=tmp[0]), 0.0, out=flat)
    np.less(np.abs(a, out=tmp[0]), np.abs(b, out=tmp[1]), out=pick_a)
    np.copyto(out, b)
    np.copyto(out, a, where=pick_a)
    np.copyto(out, 0.0, where=flat)


def _edges(arr, minus, plus, rows, flags):
    """Limited piecewise-linear edge values of the inner cells of arr.

    minus, plus = center - 0.5 * slope, center + 0.5 * slope, with
    center = arr[1:-1] and slope the minmod of its two one-sided
    differences. rows is a (4, arr.size) float block of scratch.
    """
    d = np.subtract(arr[1:], arr[:-1], out=rows[0, : arr.size - 1])
    slope = rows[1, : arr.size - 2]
    _minmod(d[1:], d[:-1], slope, flags, rows[2:, : arr.size - 2])
    center = arr[1:-1]
    half = np.multiply(0.5, slope, out=slope)
    np.subtract(center, half, out=minus)
    np.add(center, half, out=plus)


def _rhs(frame: _Frame, domain: Domain, grid: Grid, config: SolverConfig, t: float):
    """Flux divergence plus bed source, as d/dt arrays over the frame's cells.

    The frame's cells hold w and m (see _Frame); a window must keep two
    cells to each side. Returns the frame's rate rows (rw, rm). At first
    order this is the reference for the compiled step's rates loop (see
    _kernel.c), and the path of a machine that cannot build it. Every
    temporary lives in the frame's views and, at second order, in the
    domain's reconstruction block, all allocated at the whole grid's
    length, so windows of any size share them. Each line computes what its
    comment says, with the same operands in the same order as the plain
    expression.
    """
    _fill_ghosts(frame, domain, config, t)
    n = grid.n
    wls, wrs, g_right, tmp = frame.wls, frame.wrs, frame.g_right, frame.tmp

    # Interface j sits between cell edge arrays at j (left) and j+1 (right).
    if config.second_order:
        w_e, m_e = frame.w_e, frame.m_e
        rec, flags = domain.reconstruction, domain.reconstruction_flags
        eta_e, u_e, scratch = rec[0], rec[1], rec[2:6]
        w_minus, w_plus, b_minus, b_plus, u_minus, u_plus = rec[6:, : n + 2]
        np.add(w_e, domain.b_e, out=eta_e)
        np.divide(m_e, w_e, out=u_e)
        _edges(w_e, w_minus, w_plus, scratch, flags)
        # b_minus, b_plus = eta_minus - w_minus, eta_plus - w_plus
        _edges(eta_e, b_minus, b_plus, scratch, flags)
        np.subtract(b_minus, w_minus, out=b_minus)
        np.subtract(b_plus, w_plus, out=b_plus)
        _edges(u_e, u_minus, u_plus, scratch, flags)
        bl = b_plus[:-1]
        br = b_minus[1:]
        b_int = np.maximum(bl, br, out=scratch[0, : n + 1])
        # wls = maximum(w_plus[:-1] + (bl - b_int), 0); wrs likewise
        np.add(w_plus[:-1], np.subtract(bl, b_int, out=wls), out=wls)
        np.maximum(wls, _ZERO, out=wls)
        np.add(w_minus[1:], np.subtract(br, b_int, out=wrs), out=wrs)
        np.maximum(wrs, _ZERO, out=wrs)
        ul = u_plus[:-1]
        ur = u_minus[1:]
    else:
        # center_u = m / w over the cells and one ghost cell per side
        np.divide(frame.center_m, frame.center_w, out=frame.center_u)
        np.maximum(np.add(frame.w_left, frame.bed_left, out=wls), _ZERO, out=wls)
        np.maximum(np.add(frame.w_right, frame.bed_right, out=wrs), _ZERO, out=wrs)
        ul, ur = frame.ul, frame.ur
    f0, f1 = _hll(wls, ul, wrs, ur, frame.hll, frame.hll_masks)

    # Group each hydrostatic correction with its own interface flux; at a
    # balanced state every grouped term is identically zero.
    # g_right = f1 - 0.5 * wls**2; g_left = f1 - 0.5 * wrs**2, over f1
    half_sq = np.multiply(_HALF, np.square(wls, out=tmp), out=tmp)
    np.subtract(f1, half_sq, out=g_right)
    half_sq = np.multiply(_HALF, np.square(wrs, out=tmp), out=tmp)
    g_left = np.subtract(f1, half_sq, out=f1)
    if config.flux_perturbation != 0.0:
        # g_right += flux_perturbation * dx * 0.5 * (wls + wrs)
        scale = config.flux_perturbation * grid.dx * 0.5
        np.multiply(scale, np.add(wls, wrs, out=tmp), out=tmp)
        np.add(g_right, tmp, out=g_right)

    # -(d) * inv_dx and d * -inv_dx are the same bits, signed zeros included.
    rate_scale = domain.rate_scale
    rw, rm = frame.rw, frame.rm
    # rw = -(f0[1:] - f0[:-1]) * inv_dx
    np.multiply(np.subtract(f0[1:], f0[:-1], out=rw), rate_scale, out=rw)
    # rm = -(g_right[1:] - g_left[:-1] + cell_jump - bed_term) * inv_dx
    np.subtract(frame.g_right_next, g_left[:-1], out=rm)
    if config.second_order:
        wm = w_minus[1:-1]
        wp = w_plus[1:-1]
        jump, term = scratch[:2, :n]
        # cell_jump = 0.5 * wp**2 - 0.5 * wm**2
        np.multiply(_HALF, np.square(wp, out=jump), out=jump)
        half_sq = np.multiply(_HALF, np.square(wm, out=term), out=term)
        np.subtract(jump, half_sq, out=jump)
        np.add(rm, jump, out=rm)
        # bed_term = -0.5 * (wm + wp) * (b_plus[1:-1] - b_minus[1:-1])
        np.multiply(-0.5, np.add(wm, wp, out=term), out=term)
        np.multiply(term, np.subtract(b_plus[1:-1], b_minus[1:-1], out=jump), out=term)
        np.subtract(rm, term, out=rm)
    else:
        # With one value per cell the cell jump is +0.0 and the bed term
        # -0.0 exactly; adding +0.0 keeps their one effect on the sum,
        # which turns a -0.0 flux difference into +0.0.
        np.add(rm, _ZERO, out=rm)
    np.multiply(rm, rate_scale, out=rm)
    return rw, rm


def _require_finite(arr, t, what, first_node=0):
    # A finite sum means every entry is finite; only a sum that is not
    # (a non-finite entry, or an overflow) pays for the per-node check.
    if math.isfinite(arr.sum()):
        return
    bad = ~np.isfinite(arr)
    if np.any(bad):
        node = first_node + int(np.argmax(bad))
        raise NumericBlowUpError(
            "non-finite {} at node {} (t={})".format(what, node, t), node=node, t=t
        )


def _require_finite_rows(block, t, whats, first_node=0):
    """_require_finite(row, t, what, first_node) for each row of block and
    its name in whats, in turn, after one sum over the block shows that
    one of them has a non-finite entry or overflows."""
    if not math.isfinite(block.sum()):
        for row, what in zip(block, whats):
            _require_finite(row, t, what, first_node)


# The end cells that every window leaves out, so that its ghosts are cells.
_ENDS = (0, 1, -2, -1)

# A window step steps its window widened to multiples of this many cells
# (see Domain.frame), so that its frame changes only every few dozen steps
# of a front that drifts about half a cell per step.
_BLOCK = 32


class _ActiveWindow:
    """The cells [lo, hi) that the next first-order step of a run computes.

    Every other cell is fixed: its last step gave rates rw and rm of +-0
    (before the dt multiply, since dt * r can underflow to 0) and its
    surface and velocity back bit for bit. A first-order rate depends only
    on the cell, its two neighbours and the static bed, not on dt, and with
    zero rates the update does not depend on dt either. So a fixed cell
    whose neighbours are fixed too steps to the same bits again, whatever
    the bed, the level or the boundary kind; this is checked cell by cell
    rather than assumed, and needs no well-balance argument. The next
    window runs from the first moved cell minus 1 to the last moved cell
    plus 1; it may grow and shrink, and a larger window is always safe.
    When no cell moved, as in a lake at rest, any window is safe and the
    run steps a single cell.

    The window closes, and every later step takes the whole grid, when it
    would come within two cells of an end (its ghosts must be real cells,
    which also keeps a periodic seam fixed), and from the start for an
    inflow, whose ghosts follow t, and for the second-order path, whose
    stages reach two cells.

    A step computes the window's frame, which may be wider (see
    Domain.frame). Every cell between the window and the frame is a fixed
    cell with fixed neighbours, so it steps to the same bits and its rates
    are +-0; so the frame's cells give the same first and last moved cell
    as the window's alone. The compiled step and its numpy twin find them
    (see _kernel.c and _first_order_step), and the step hands them to
    follow.
    """

    def __init__(self, grid: Grid, config: SolverConfig):
        self.n = grid.n
        self.lo, self.hi = 0, grid.n
        self.open = config.inflow is None and not config.second_order

    def follow(self, first: int, last: int):
        """Take the next window from the first and last moved cell, both -1
        when none moved."""
        if first < 0:  # nothing moved, so any window is safe: take one cell
            lo, hi = 2, 3
        else:
            lo, hi = first - 1, last + 2
        if lo < 2 or hi > self.n - 2:
            self.open = False
            lo, hi = 0, self.n
        self.lo, self.hi = lo, hi


def step(
    state: FlowState,
    bathy,
    grid: Grid,
    config: SolverConfig,
    dt_max: float | None = None,
    *,
    domain: Domain | None = None,
    _window: _ActiveWindow | None = None,
) -> FlowState:
    """Advance one step of size cfl * dx / max(|u| + sqrt(w)).

    dt_max caps the step (used by run() to land exactly on t_end). Raises
    NearDryError if the starting or resulting state violates h_min and
    NumericBlowUpError on non-finite values. domain, when given, must be
    prepare(bathy, grid, config); run() builds it once for all its steps.
    The returned state's arrays are new; the temporaries live in the
    domain's scratch rows.

    A direct call steps every cell. run() also passes its active window
    (see _ActiveWindow): the step then computes only the cells of the
    window's frame, the window [lo, hi) widened to whole blocks (see
    Domain.frame), checks only them for wet and finite values, reporting
    the same nodes, and copies every other cell, which stepping would give
    back bit for bit. dt stays exact: the domain keeps the whole row of
    wave speeds, whose cells outside the frame have not changed since they
    were written. The window then moves on from the rates and new state of
    the frame's cells.

    Once dt is known, a first-order step does the rest in one call of the
    domain's compiled step or of its numpy twin (see _first_order_rest).
    The numpy code below finishes a second-order step, which always steps
    the whole grid, since the window never opens at second order.

    The checks raise what checking each array in turn would: the starting
    w for h_min, then (only when the fastest wave speed is not finite,
    which a non-finite w or u makes it) w and u for non-finite values;
    after the update (only when one sum over the new w and m is not
    finite) each of them for non-finite values, then the new depth for
    h_min. That depth is (w_new + b) - b, the new surface less the bed, as
    every reader of the returned state takes it, not w_new: near a high bed
    the surface can round a column above h_min down to below it.
    """
    if domain is None:
        domain = prepare(bathy, grid, config)
    whole = _window is None or _window.hi - _window.lo == grid.n
    frame = domain.whole if whole else domain.frame(_window.lo, _window.hi)
    lo, t, h_min = frame.lo, state.t, config.h_min
    surface, velocity = state.gamma_surface, state.velocity
    if not whole:
        reach = frame.reach
        surface, velocity = surface[reach], velocity[reach]
    w, m = frame.w, frame.m
    np.subtract(surface, frame.b_reach, out=frame.w_reach)
    require_wet(w, t, THIN_COLUMN, h_min, first_node=lo)
    root = np.sqrt(w, out=m)
    u = velocity if whole else velocity[2:-2]

    # fastest = max(|u| + sqrt(w)) over the whole row
    np.add(np.abs(u, out=frame.speed), root, out=frame.speed)
    fastest = float(domain.speed.max())
    if not math.isfinite(fastest):
        _require_finite(w, t, "thickness", lo)
        _require_finite(u, t, "velocity", lo)
    dt = config.cfl * grid.dx / fastest
    if dt_max is not None:
        dt = min(dt, float(dt_max))
    if not config.second_order:
        return _first_order_rest(state, frame, domain, grid, config, dt, _window)

    # The second-order step is whole-grid: the window never opens for it.
    np.multiply(w, velocity, out=m)
    rw1, rm1 = _rhs(frame, domain, grid, config, t)
    # w1 = w + dt * rw1; m1 = m + dt * rm1, the cells of a second block
    stage = domain.stage
    w1, m1 = stage.w, stage.m
    np.add(w, np.multiply(dt, rw1, out=rw1), out=w1)
    np.add(m, np.multiply(dt, rm1, out=rm1), out=m1)
    require_wet(w1, t + dt, "intermediate stage dried out at node {node}")
    w_new, m_new = _rhs(stage, domain, grid, config, t + dt)
    # w_new = 0.5 * (w + w1 + dt * rw2); m_new likewise, over rw2 and rm2
    for old, mid, new in ((w, w1, w_new), (m, m1, m_new)):
        np.add(old, mid, out=old)
        np.add(old, np.multiply(dt, new, out=new), out=new)
        np.multiply(_HALF, new, out=new)
    _check_update(frame, t + dt, h_min)
    gamma_surface = np.add(w_new, frame.b_cells)
    return FlowState(t + dt, gamma_surface, np.divide(m_new, w_new))


def _check_update(frame: _Frame, t: float, h_min: float):
    """Check the new w and m, the frame's rate rows at the end of a step,
    for non-finite values, then the new depth (w_new + b) - b, written into
    the frame's w row, which the step no longer reads, for h_min."""
    _require_finite_rows(frame.rates, t, ("thickness", "momentum"), frame.lo)
    surface = np.add(frame.rw, frame.b_cells, out=frame.w)
    depth = np.subtract(surface, frame.b_cells, out=frame.w)
    require_wet(depth, t, THIN_COLUMN, h_min, first_node=frame.lo)


def _first_order_rest(
    state: FlowState,
    frame: _Frame,
    domain: Domain,
    grid: Grid,
    config: SolverConfig,
    dt: float,
    window: _ActiveWindow | None,
) -> FlowState:
    """The rest of a first-order step once dt is known, in one call of the
    domain's compiled step (see _kernel.c) or, without it, of its numpy
    twin _first_order_step: m = w * u, the ghost cells, the rates, the
    update, its checks, the new state and, for an open window, its first
    and last moved cell, which the window then follows.

    The new state's rows are allocated here: the new velocity is a copy of
    the old one, from which the call reads u, and so is the new surface when
    the call tracks the window and reads each cell's old surface there. When
    a new w or m is not finite, or a new depth is below h_min, the call
    returns without a new state, and the numpy checks then raise its error
    from the rows it left.
    """
    track = window is not None and window.open
    surface = state.gamma_surface.copy() if track else np.empty(domain.n)
    new = FlowState(state.t + dt, surface, state.velocity.copy())
    if domain.compiled_step is None:
        failed, moved = _first_order_step(
            frame, domain, grid, config, state, new, dt, track
        )
    else:
        _fill_inflow(frame, domain, config, state.t)
        perturbation = config.flux_perturbation
        row, rows = domain.state_row, domain.binding
        failed = domain.compiled_step(
            rows,
            frame.lo,
            frame.hi,
            row.from_buffer(surface),
            row.from_buffer(new.velocity),
            dt,
            config.h_min,
            perturbation != 0.0,
            perturbation * grid.dx * 0.5,
            track,
        )
        moved = rows.moved
    if failed:
        _check_update(frame, new.t, config.h_min)
        raise AssertionError("the step failed a check that numpy passes")
    if track:
        window.follow(*moved)
    return new


def _first_order_step(frame, domain, grid, config, state, new, dt, track):
    """The numpy twin of _kernel.c's first_order_step, step for step, with
    the same bits, from state to the rows of new: it returns what the call returns (0, 1 when a new w or m is not finite,
    then 2 when a new depth is below h_min) and the first and last moved
    cell, which the call leaves in the binding's moved. A failed twin may
    have written the frame's cells of the new surface, which the step then
    discards.
    """
    surface, velocity = new.gamma_surface, new.velocity
    np.multiply(frame.w_reach, velocity[frame.reach], out=frame.m_reach)
    rw, rm = _rhs(frame, domain, grid, config, state.t)
    moved = (0, domain.n - 1)
    # A whole-grid step whose end cells move cannot leave a window; a run
    # that moves an end from its first step pays nothing more.
    if track and frame.lo == 0:
        track = all(rw[i] == 0.0 and rm[i] == 0.0 for i in _ENDS)
    if track:
        still = np.equal(rw, _ZERO, out=frame.still)
        still &= np.equal(rm, _ZERO, out=frame.same)
    # w_new = w + dt * rw; m_new = m + dt * rm, over rw and rm
    np.add(frame.w, np.multiply(dt, rw, out=rw), out=rw)
    np.add(frame.m, np.multiply(dt, rm, out=rm), out=rm)
    if not math.isfinite(frame.rates.sum()):
        return 1, moved
    # surface = w_new + b; depth = surface - b, which is not NaN where w_new
    # and b are finite, so its min finds any depth below h_min
    cells, b = frame.cells, frame.b_cells
    new_surface = np.add(rw, b, out=surface[cells])
    if np.subtract(new_surface, b, out=frame.w).min() < config.h_min:
        return 2, moved
    np.divide(rm, rw, out=velocity[cells])
    if not track:
        return 0, moved
    for before, after in ((state.gamma_surface, surface), (state.velocity, velocity)):
        still &= np.equal(
            before[cells].view(np.int64), after[cells].view(np.int64), out=frame.same
        )
    first = int(still.argmin())  # argmin of a bool array: the first False
    if still[first]:
        return 0, (-1, -1)
    last = still.size - 1 - int(still[::-1].argmin())
    return 0, (frame.lo + first, frame.lo + last)


class _Search:
    """The detector search of a run: riemann.inland, then find_crossings.

    Its rows (gamma, p, |p|, p_x and the pair marks p_x[i] * p_x[i+1] < 0)
    are its own, allocated once, and carry over from step to step; the
    depth w is written into gamma's row before its root. A step changes
    the state only on its window [lo, hi), so each search recomputes
    gamma, p and |p| there, p_x wherever its stencil reads a new p (one
    node beyond the window, and an end node whose one-sided stencil
    reaches in; see fields._ddx_from), and the pairs that read a new p_x,
    each with the operands of the whole-grid functions. The first search,
    over [0, n), fills every row. Two things still read the whole row on
    every step: max|p| for the default threshold, since one cell anywhere
    can set it, and the scan of the pair marks for sign changes, whose
    nodes are then tested against that threshold. So each step finds the
    crossings, bit for bit, that inland and find_crossings would.

    The compiled search (_kernel.c's inland_search, at either order) does
    all but max|p| in one call, on the row addresses bound here: it
    rewrites the rows and scans the marks into a row of their nodes. max|p|
    stays numpy's, which is faster than a scalar loop over a long row.
    Without the compiled search, _refresh_inland and _mark_pairs rewrite
    the rows in numpy. So does a compiled search that meets a dry column;
    the numpy check then raises NearDryError with its node, t and depth.
    """

    def __init__(self, bathy, grid: Grid, domain: Domain, eps_px: float | None):
        n = grid.n
        self.bathy, self.grid, self.domain, self.eps_px = bathy, grid, domain, eps_px
        block = np.empty((4, n))
        rows = self.rows = riemann._InlandRows(*block)
        self.px_pairs = (rows.p_x[:-1], rows.p_x[1:])
        # Zeros, so that a scan for marks never meets a byte other than 0 or 1.
        self.pairs = np.zeros(n - 1, bool)
        self.products = np.empty(n - 1)
        self.compiled = domain.compiled_search
        if self.compiled is not None:
            # The node row shares the products' memory: the compiled search
            # never reads the products, and the numpy search never the nodes.
            # A slice of it is a list of ints.
            self.nodes = (ctypes.c_long * (n - 1)).from_buffer(self.products)
            # ndarray.ctypes.data costs 1-2 us a call, so the four rows of
            # one block (gamma, p, |p| and p_x) take their addresses from it.
            base, stride = block.ctypes.data, block.strides[0]
            addresses = [domain.b.ctypes.data]
            addresses += [base + k * stride for k in range(4)]
            addresses += [self.pairs.ctypes.data, ctypes.addressof(self.nodes)]
            # The state's rows are new on every step. A ctypes array over
            # each costs less than fetching its address, and refuses a row
            # that is too short, read-only or not contiguous.
            self.state_row = ctypes.c_double * n
            self.search_args = (
                *map(ctypes.c_void_p, addresses),
                ctypes.c_long(n),
                ctypes.c_double(1.0 / (2.0 * grid.dx)),
                ctypes.c_int(eps_px is None),
            )

    def __call__(self, state: FlowState, lo: int, hi: int):
        """(fields, crossings) of state, which differs from the state of the
        last call only on the cells [lo, hi); its rows are writable and
        contiguous, as step() returns them."""
        grid, domain, rows = self.grid, self.domain, self.rows
        if self.compiled is not None:
            row = self.state_row
            count = self.compiled(
                row.from_buffer(state.gamma_surface),
                row.from_buffer(state.velocity),
                lo,
                hi,
                *self.search_args,
            )
            if count >= 0:
                if self.eps_px is None:
                    eps = riemann._eps_of(rows.abs_p, grid.dx)
                else:
                    eps = float(self.eps_px)
                fields = riemann.InlandFields(rows.gamma, rows.p, rows.p_x, eps)
                nodes = self.nodes[:count]
                points = _crossings(rows.p_x, nodes, eps, self.bathy, domain.x, grid.dx)
                return fields, points
        fields, (first, last) = riemann._refresh_inland(
            state, domain.b, grid, rows, lo, hi, self.eps_px
        )
        _mark_pairs(*self.px_pairs, self.pairs, self.products, first, last)
        nodes = self.pairs.nonzero()[0].tolist()
        points = _crossings(
            fields.p_x, nodes, fields.eps_px, self.bathy, domain.x, grid.dx
        )
        return fields, points


class _EventTracker:
    """Log a detector event only at onset.

    An event is fresh unless the previous step produced one with the same
    classification and depth regime within the given window; a crossing
    that drifts along with the wave is therefore logged once per
    classification or regime change.
    """

    def __init__(self, window: float):
        self._window = window
        self._previous = []

    def fresh(self, keys) -> list[int]:
        """Indices of the fresh ones among this step's events, given as
        (classification, depth_regime, x_star) keys."""
        out = [
            k
            for k, (cls, regime, x_star) in enumerate(keys)
            if not any(
                cls == c and regime == r and abs(x - x_star) <= self._window
                for c, r, x in self._previous
            )
        ]
        self._previous = keys
        return out


# Values near the float maximum can overflow inside numpy before a check
# reports them; the check's error is the whole report.
@np.errstate(over="ignore", invalid="ignore")
def run(
    initial: FlowState,
    bathy,
    grid: Grid,
    config: SolverConfig,
    detector_config: DetectorConfig | None = None,
) -> RunResult:
    """Integrate to t_end, recording snapshots and detector events.

    The first step computes every cell; later first-order steps compute
    only the active window of cells that can change (see _ActiveWindow),
    with the same bits as whole-grid steps. Every post-step state goes
    through the singular-point detector, which recomputes its rows only
    where the step changed the state and finds the same crossings as a
    whole-grid search (see _Search); crossing events are logged at onset
    in time order, and only the fresh ones become event records. Plateau
    points are not part of the run log (they persist for as long as the
    flow stays in the degenerate family; the one-shot detect command
    reports them). Integration continues after a rush event unless
    stop_at_first_event is set; the result is then flagged post_singular
    either way. The bed is evaluated once, by prepare(); the initial state
    is checked against it as check_wet would. A NearDryError or
    NumericBlowUpError from a step, or from the search of the state it
    produced, carries that step's number as its step attribute; numpy's
    overflow and invalid-value warnings are silenced for the run.
    """
    det = detector_config if detector_config is not None else DetectorConfig()
    domain = prepare(bathy, grid, config)
    depth = _checked(initial.gamma_surface, grid) - domain.b
    require_wet(depth, initial.t, THIN_COLUMN, config.h_min)
    window = _ActiveWindow(grid, config)
    search = _Search(bathy, grid, domain, det.eps_px)
    x = domain.x
    gamma_ref = float(np.sqrt(np.max(depth)))

    state = initial.copy()
    snapshots = [initial.copy()]
    snapshot_steps = [0]
    events = []
    post_singular = False
    steps = 0
    tracker = _EventTracker(3.0 * grid.dx)
    tiny = 1e-12 * max(1.0, abs(config.t_end))
    next_snap = (
        state.t + config.snapshot_interval
        if config.snapshot_interval is not None
        else None
    )

    while state.t < config.t_end - tiny:
        if steps >= config.max_steps:
            raise ShoalwaveError(
                "exceeded max_steps={} at t={}".format(config.max_steps, state.t)
            )
        lo, hi = window.lo, window.hi
        try:
            state = step(
                state,
                bathy,
                grid,
                config,
                dt_max=config.t_end - state.t,
                domain=domain,
                _window=window,
            )
            # The search's arrays are its own rows until the next step.
            inland, points = search(state, lo, hi)
        except (NearDryError, NumericBlowUpError) as exc:
            # A failed step, or a dry column in the state it produced.
            exc.step = steps + 1
            raise
        steps += 1

        keys = []
        for pt in points:
            verdict = _assess(pt, inland.gamma, state.velocity, grid, x, gamma_ref)
            keys.append((verdict[0], verdict[2], pt.x_star))
        fresh = tracker.fresh(keys)
        if fresh:
            # Only the fresh few (39 of 7056 on the bundled shelf run) become
            # records; classify rebuilds their verdicts with them.
            events.extend(
                classify(points[k], inland, state, grid, gamma_ref=gamma_ref, x=x)
                for k in fresh
            )
            if any(keys[k][0] in RUSH_CLASSES for k in fresh):
                post_singular = True
                if config.stop_at_first_event:
                    break
        if next_snap is not None and state.t >= next_snap - tiny:
            snapshots.append(state.copy())
            snapshot_steps.append(steps)
            next_snap += config.snapshot_interval
            if next_snap <= state.t + tiny:
                # The step passed several boundaries: jump to the first one
                # ahead, which adding an interval below the spacing of floats
                # near t, one at a time, would never reach.
                interval, ahead = config.snapshot_interval, state.t + tiny
                skipped = math.floor((ahead - next_snap) / interval) + 1
                next_snap = max(
                    next_snap + skipped * interval, math.nextafter(ahead, math.inf)
                )

    if snapshot_steps[-1] != steps:
        snapshots.append(state.copy())
        snapshot_steps.append(steps)
    return RunResult(snapshots, snapshot_steps, events, steps, post_singular)


def initial_lake_at_rest(grid: Grid, surface: float = 0.0) -> FlowState:
    """Flat surface, zero velocity."""
    return FlowState(0.0, np.full(grid.n, float(surface)), np.zeros(grid.n))


def initial_gaussian_pulse(
    grid: Grid,
    bathy,
    center: float,
    width: float,
    amplitude: float,
    surface: float = 0.0,
) -> FlowState:
    """Surface hump carrying the velocity of a +x-running simple wave.

    The velocity is set to 2*(sqrt(w) - sqrt(w_rest)) so the offshore
    invariant is (nearly) uniform and the hump propagates inland cleanly.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    x = grid.x
    b = np.asarray(bathy.eval(x), dtype=float)
    hump = amplitude * np.exp(-(((x - center) / width) ** 2))
    gamma_surface = surface + hump
    w = gamma_surface - b
    w_rest = surface - b
    low = min(float(np.min(w)), float(np.min(w_rest)))
    if low <= 0.0:
        raise NearDryError("pulse initial condition dries the column", depth=low)
    u = 2.0 * (np.sqrt(w) - np.sqrt(w_rest))
    return FlowState(0.0, gamma_surface, u)


def write_outputs(
    result: RunResult,
    bathy,
    grid: Grid,
    out_dir,
    run_id: str,
    config_doc: dict | None = None,
) -> Path:
    """Write snap_<step>.csv files, events.jsonl, and the run.json manifest.

    The snapshots hold the bytes save_state writes; the bed is evaluated
    and the static x and b columns are formatted once for all of them.
    Any other snap_*.csv file in out_dir, left by an earlier run, is
    removed, so the directory holds the snapshots its manifest lists.
    Paths inside the manifest are relative to out_dir so a run directory
    can be moved or compared byte-for-byte. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x = grid.x
    write_state = _state_writer(grid, x, bathy.eval(x))
    snap_files = []
    for snap, k in zip(result.snapshots, result.snapshot_steps):
        name = "snap_{:06d}.csv".format(k)
        write_state(snap, out / name)
        snap_files.append(name)
    for stale in out.glob("snap_*.csv"):
        if stale.name not in snap_files and stale.is_file():
            stale.unlink()
    events_name = "events.jsonl"
    with open(out / events_name, "w") as fh:
        for ev in result.events:
            fh.write(json.dumps(ev.to_record(run_id), sort_keys=True))
            fh.write("\n")
    manifest = {
        "run_id": run_id,
        "config": config_doc,
        "grid": {"x0": grid.x0, "dx": grid.dx, "n": grid.n},
        "steps": result.steps,
        "post_singular": result.post_singular,
        "snapshot_times": [snap.t for snap in result.snapshots],
        "snapshot_files": snap_files,
        "events_file": events_name,
        "n_events": len(result.events),
    }
    manifest_path = out / "run.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
