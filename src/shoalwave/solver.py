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

Most of a quiet sea is such still water. When both end interfaces are
still, the flux solve computes wave speeds and intermediate fluxes only
from the first to the last interface whose states differ. run() goes
further with an active window: after its first, whole-grid step, each
first-order step computes only the cells next to one that moved in the
step before, and copies the others, which stepping would give back bit
for bit (see _ActiveWindow). Fixed cells are checked cell by cell, not
assumed, so this needs no well-balance argument; the window closes for the
rest of the run when it nears an end, and is never used with an inflow or
at second order.

The detector search after each step follows the same window: it keeps
its rows from step to step and recomputes them only where the step
changed the state (see _Search). Only max|p|, which sets the default
gradient threshold, and the scan for sign changes still read whole rows.

The bed is static: prepare() evaluates it, its ghost cells and the
first-order interface bed offsets once, and run() reuses them for every
step and detector pass. The prepared domain also holds the run's
workspace: the kernel of either order and the run's detector search write
every temporary into arrays allocated on the first step, so a step
allocates only the state it returns. write_outputs() formats the static x
and b columns once and writes each snapshot in one formatting pass.

The time step is cfl * dx / max(|u| + sqrt(w)); runs abort with
NearDryError when any column drops below h_min and NumericBlowUpError on
non-finite values. After a rush event the integration keeps going by
default and the run is flagged post-singular.
"""

from __future__ import annotations

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
    Workspace,
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

# require_wet message for a column thinner than h_min.
BELOW_H_MIN = "column {depth:.3e} below h_min at node {node} (t={t})"


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


@dataclass(frozen=True, eq=False)
class Domain:
    """The static bed of one run, evaluated once for its grid and boundary.

    x and b are the node coordinates and bed elevations. b_e is b with two
    ghost cells per side, laid out for the boundary kind; with an inflow,
    its ghosts hold the bed at the ghost positions ghost_x. bed_left and
    bed_right are the first-order interface offsets bl - max(bl, br) and
    br - max(bl, br) of the hydrostatic reconstruction (Audusse et al.,
    SIAM J. Sci. Comput. 25, 2004), which depend on the bed alone. These
    arrays are read-only. work is the scratch space that every step and
    detector pass overwrites, so a domain serves one run at a time. Build
    one with prepare().
    """

    x: np.ndarray
    b: np.ndarray
    b_e: np.ndarray
    bed_left: np.ndarray
    bed_right: np.ndarray
    ghost_x: tuple
    work: Workspace


def _fill_ghosts(out, a, boundary: str, odd: bool = False):
    """Copy a into out[2:-2] and fill two ghost cells per side.

    odd marks a quantity that changes sign at a reflective wall (momentum).
    """
    out[2:-2] = a
    if boundary == "periodic":
        out[:2] = a[-2:]
        out[-2:] = a[:2]
    elif boundary == "reflective":
        out[:2] = -a[1::-1] if odd else a[1::-1]
        out[-2:] = -a[-1:-3:-1] if odd else a[-1:-3:-1]
    else:  # transmissive: zero-gradient
        out[:2] = a[0]
        out[-2:] = a[-1]


def prepare(bathy, grid: Grid, config: SolverConfig) -> Domain:
    """Evaluate the bed and everything derived from it once for a run."""
    x = grid.x
    b = np.array(bathy.eval(x), dtype=float)
    ghost_x = (
        grid.x0 + grid.dx * np.array([-2.0, -1.0]),
        grid.x_last + grid.dx * np.array([1.0, 2.0]),
    )
    b_e = np.empty(grid.n + 4)
    _fill_ghosts(b_e, b, config.boundary)
    if config.inflow is not None:
        b_e[:2] = bathy.eval(ghost_x[0])
        b_e[-2:] = bathy.eval(ghost_x[1])
    # Interface j sits between cells j and j+1 of b_e[1:-1].
    bl = b_e[1:-2]
    br = b_e[2:-1]
    b_int = np.maximum(bl, br)
    bed_left = bl - b_int
    bed_right = br - b_int
    for arr in (x, b, b_e, bed_left, bed_right, *ghost_x):
        arr.setflags(write=False)
    return Domain(x, b, b_e, bed_left, bed_right, ghost_x, Workspace())


def _extended(w, m, domain: Domain, config: SolverConfig, t: float, lo=0, hi=None):
    """Ghost-extended (w, m) of the cells [lo, hi) of whole-grid rows w and m.

    For the whole grid the ghosts follow the boundary kind and live in the
    domain's workspace. A window with 2 <= lo and hi <= n - 2 reads the two
    real cells beside each end as its ghosts: the result is a view of
    w[lo-2:hi+2] and m[lo-2:hi+2].
    """
    hi = w.size if hi is None else hi
    if hi - lo < w.size:
        return w[lo - 2 : hi + 2], m[lo - 2 : hi + 2]
    w_e, m_e = domain.work.take("ghosts", (2, w.size + 4))
    _fill_ghosts(w_e, w, config.boundary)
    _fill_ghosts(m_e, m, config.boundary, odd=True)
    if config.inflow is not None:
        for sl, xg in zip((slice(0, 2), slice(-2, None)), domain.ghost_x):
            w_g, u_g = config.inflow(t, xg)
            w_e[sl] = w_g
            m_e[sl] = np.asarray(w_g) * np.asarray(u_g)
    return w_e, m_e


def _leading(block, size):
    """The first size columns of a workspace block, without a new view when
    that is all of it: a whole-grid step then pays nothing for windows."""
    return block if block.shape[-1] == size else block[:, :size]


def _hll(wl, ul, wr, ur, work: Workspace, capacity: int | None = None):
    """Two-wave approximate flux between reconstructed interface states.

    An interface whose two states are identical takes the left flux. When
    both end interfaces are such still water, the wave speeds and the
    intermediate flux are computed only from the first to the last
    interface whose states differ, and the interfaces outside that window
    take the left flux directly. A NaN state never equals itself, so it
    always lies inside the window.

    Every temporary lives in work; the two returned flux arrays do too.
    Its blocks are taken capacity interfaces long (default: as many as
    given), so calls of any size up to capacity share them. Each line
    computes what its comment says, with the same operands in the same
    order, so the results are bitwise those of the plain expressions.
    """
    size = wl.size
    capacity = size if capacity is None else capacity
    rows = _leading(work.take("hll", (11, capacity)), size)
    masks = _leading(work.take("hll masks", (3, capacity), bool), size)
    # f0 and f1 are the returned flux rows; mid0 and mid1 view their window.
    ml, mr, fl1, tmp, f0, f1 = rows[:6]
    same = masks[0]

    np.multiply(wl, ul, out=ml)
    np.multiply(wr, ur, out=mr)
    np.logical_and(
        np.equal(wl, wr, out=same), np.equal(ml, mr, out=masks[1]), out=same
    )
    # fl1 = ml * ul + 0.5 * wl * wl
    half = np.multiply(0.5, wl, out=tmp)
    np.add(np.multiply(ml, ul, out=fl1), np.multiply(half, wl, out=tmp), out=fl1)

    # Windowing a grid with one still end, such as a shelf run whose wall
    # side is still quiet, costs more in views and the reversed scan than
    # it saves. argmin of a bool array stops at its first False.
    if same[0] and same[-1]:
        lo = int(same.argmin())
        if same[lo]:
            return ml, fl1
        hi = size - int(same[::-1].argmin())
        for flux, from_left in ((f0, ml), (f1, fl1)):
            flux[:lo] = from_left[:lo]
            flux[hi:] = from_left[hi:]
        window = slice(lo, hi)
        wl, ul, wr, ur = wl[window], ul[window], wr[window], ur[window]
        rows = rows[:, window]
        masks = masks[:, window]
    ml, mr, fl1, tmp, mid0, mid1, fr1, sl, sr, slsr, safe = rows
    same, left, right = masks

    cl = np.sqrt(wl, out=sr)
    cr = np.sqrt(wr, out=tmp)
    # sl = minimum(ul - cl, ur - cr); sr = maximum(ul + cl, ur + cr)
    np.minimum(np.subtract(ul, cl, out=sl), np.subtract(ur, cr, out=slsr), out=sl)
    np.maximum(np.add(ul, cl, out=sr), np.add(ur, cr, out=tmp), out=sr)

    # fr1 = mr * ur + 0.5 * wr * wr
    half = np.multiply(0.5, wr, out=tmp)
    np.add(np.multiply(mr, ur, out=fr1), np.multiply(half, wr, out=tmp), out=fr1)

    # safe = where(span > 0, span, 1) with span = sr - sl
    np.subtract(sr, sl, out=safe)
    np.logical_not(np.greater(safe, 0.0, out=left), out=left)
    np.copyto(safe, 1.0, where=left)
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
    np.greater_equal(sl, 0.0, out=left)
    left |= same
    np.less_equal(sr, 0.0, out=right)
    for flux, from_left, from_right in ((mid0, ml, mr), (mid1, fl1, fr1)):
        np.copyto(flux, from_right, where=right)
        np.copyto(flux, from_left, where=left)
    return f0, f1


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


def _rhs(
    w, m, domain: Domain, grid: Grid, config: SolverConfig, t: float, lo=0, hi=None
):
    """Flux divergence plus bed source, as d/dt arrays over the cells [lo, hi).

    w and m are whole-grid rows; [lo, hi) defaults to every cell, and a
    smaller window must keep two cells to each side (see _extended). Every
    temporary and the returned arrays live in the domain's workspace, in
    blocks taken at the whole grid's length, so windows of any size share
    them. Each line computes what its comment says, with the same operands
    in the same order as the plain expression.
    """
    n = grid.n
    hi = n if hi is None else hi
    size = hi - lo
    work = domain.work
    w_e, m_e = _extended(w, m, domain, config, t, lo, hi)
    wls, wrs, g_right, tmp = _leading(work.take("rhs", (4, n + 1)), size + 1)

    # Interface j sits between cell edge arrays at j (left) and j+1 (right).
    if config.second_order:
        rec = work.take("reconstruction", (12, n + 4))
        flags = work.take("reconstruction flags", (2, n + 2), bool)
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
        np.maximum(wls, 0.0, out=wls)
        np.add(w_minus[1:], np.subtract(br, b_int, out=wrs), out=wrs)
        np.maximum(wrs, 0.0, out=wrs)
        ul = u_plus[:-1]
        ur = u_minus[1:]
    else:
        center_w = w_e[1:-1]
        center_u = np.divide(
            m_e[1:-1], center_w, out=work.take("rhs u", n + 2)[: size + 2]
        )
        bed_left = domain.bed_left[lo : hi + 1]
        bed_right = domain.bed_right[lo : hi + 1]
        np.maximum(np.add(center_w[:-1], bed_left, out=wls), 0.0, out=wls)
        np.maximum(np.add(center_w[1:], bed_right, out=wrs), 0.0, out=wrs)
        ul = center_u[:-1]
        ur = center_u[1:]
    f0, f1 = _hll(wls, ul, wrs, ur, work, capacity=n + 1)

    # Group each hydrostatic correction with its own interface flux; at a
    # balanced state every grouped term is identically zero.
    # g_right = f1 - 0.5 * wls**2; g_left = f1 - 0.5 * wrs**2, over f1
    half_sq = np.multiply(0.5, np.square(wls, out=tmp), out=tmp)
    np.subtract(f1, half_sq, out=g_right)
    half_sq = np.multiply(0.5, np.square(wrs, out=tmp), out=tmp)
    g_left = np.subtract(f1, half_sq, out=f1)
    if config.flux_perturbation != 0.0:
        # g_right += flux_perturbation * dx * 0.5 * (wls + wrs)
        scale = config.flux_perturbation * grid.dx * 0.5
        np.multiply(scale, np.add(wls, wrs, out=tmp), out=tmp)
        np.add(g_right, tmp, out=g_right)

    inv_dx = 1.0 / grid.dx
    rw, rm = _leading(work.take("rates", (2, n)), size)
    # rw = -(f0[1:] - f0[:-1]) * inv_dx
    np.negative(np.subtract(f0[1:], f0[:-1], out=rw), out=rw)
    np.multiply(rw, inv_dx, out=rw)
    # rm = -(g_right[1:] - g_left[:-1] + cell_jump - bed_term) * inv_dx
    np.subtract(g_right[1:], g_left[:-1], out=rm)
    if config.second_order:
        wm = w_minus[1:-1]
        wp = w_plus[1:-1]
        jump, term = scratch[:2, :n]
        # cell_jump = 0.5 * wp**2 - 0.5 * wm**2
        np.multiply(0.5, np.square(wp, out=jump), out=jump)
        np.subtract(jump, np.multiply(0.5, np.square(wm, out=term), out=term), out=jump)
        np.add(rm, jump, out=rm)
        # bed_term = -0.5 * (wm + wp) * (b_plus[1:-1] - b_minus[1:-1])
        np.multiply(-0.5, np.add(wm, wp, out=term), out=term)
        np.multiply(term, np.subtract(b_plus[1:-1], b_minus[1:-1], out=jump), out=term)
        np.subtract(rm, term, out=rm)
    else:
        # With one value per cell the cell jump is +0.0 and the bed term
        # -0.0 exactly; adding +0.0 keeps their one effect on the sum,
        # which turns a -0.0 flux difference into +0.0.
        np.add(rm, 0.0, out=rm)
    np.negative(rm, out=rm)
    np.multiply(rm, inv_dx, out=rm)
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


# The end cells that every window leaves out, so that its ghosts are cells.
_ENDS = (0, 1, -2, -1)


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
    """

    def __init__(self, grid: Grid, config: SolverConfig, work: Workspace):
        self.n = grid.n
        self.lo, self.hi = 0, grid.n
        self.open = config.inflow is None and not config.second_order
        self._masks = work.take("active window", (2, grid.n), bool)

    def _close(self):
        self.open = False
        self.lo, self.hi = 0, self.n

    def note_rates(self, rw, rm):
        """Mark the cells of the window whose rates are both +-0."""
        if not self.open:
            return
        # A whole-grid step whose end cells move cannot leave a window; a
        # run that moves an end from its first step pays nothing more.
        if self.hi - self.lo == self.n and not all(
            rw[i] == 0.0 and rm[i] == 0.0 for i in _ENDS
        ):
            self._close()
            return
        still, same = _leading(self._masks, rw.size)
        np.equal(rw, 0.0, out=still)
        still &= np.equal(rm, 0.0, out=same)

    def advance(self, old: FlowState, gamma_surface, velocity):
        """Choose the next window from this step's rates and new state."""
        if not self.open:
            return
        cells = slice(self.lo, self.hi)
        still, same = _leading(self._masks, self.hi - self.lo)
        pairs = ((old.gamma_surface, gamma_surface), (old.velocity, velocity))
        for before, after in pairs:
            still &= np.equal(
                before[cells].view(np.int64), after[cells].view(np.int64), out=same
            )
        first = int(still.argmin())  # argmin of a bool array: the first False
        if still[first]:  # nothing moved, so any window is safe: take one cell
            lo, hi = 2, 3
        else:
            last = still.size - 1 - int(still[::-1].argmin())
            lo, hi = self.lo + first - 1, self.lo + last + 2
        if lo < 2 or hi > self.n - 2:
            self._close()
        else:
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
    NumericBlowUpError on non-finite results. domain, when given, must be
    prepare(bathy, grid, config); run() builds it once for all its steps.
    The returned state's arrays are new; the temporaries live in the
    domain's workspace.

    A direct call steps every cell. run() also passes its active window
    (see _ActiveWindow): the step then computes only the cells [lo, hi),
    checks only them for wet and finite values, reporting the same nodes,
    and copies every other cell, which stepping would give back bit for
    bit. dt stays exact: the workspace keeps the whole row of wave speeds,
    whose cells outside the window have not changed since they were
    written. The window then moves on from this step's rates and state.
    """
    if domain is None:
        domain = prepare(bathy, grid, config)
    n = grid.n
    lo, hi = (0, n) if _window is None else (_window.lo, _window.hi)
    whole = hi - lo == n
    cells = slice(lo, hi)
    reach = cells if whole else slice(lo - 2, hi + 2)
    b = domain.b
    w_row, m_row, speed = domain.work.take("step", (3, n))
    w_reach, m_reach = w_row[reach], m_row[reach]
    np.subtract(state.gamma_surface[reach], b[reach], out=w_reach)
    w, m, u, fast = w_row[cells], m_row[cells], state.velocity[cells], speed[cells]
    require_wet(w, state.t, BELOW_H_MIN, config.h_min, first_node=lo)
    _require_finite(w, state.t, "thickness", lo)
    _require_finite(u, state.t, "velocity", lo)

    # fastest = max(|u| + sqrt(w)) over the whole row
    np.add(np.abs(u, out=fast), np.sqrt(w, out=m), out=fast)
    fastest = float(speed.max())
    dt = config.cfl * grid.dx / fastest
    if dt_max is not None:
        dt = min(dt, float(dt_max))
    np.multiply(w_reach, state.velocity[reach], out=m_reach)

    if config.second_order:
        rw1, rm1 = _rhs(w_row, m_row, domain, grid, config, state.t)
        # w1 = w + dt * rw1; m1 = m + dt * rm1
        w1, m1 = domain.work.take("stage", (2, n))
        np.add(w, np.multiply(dt, rw1, out=rw1), out=w1)
        np.add(m, np.multiply(dt, rm1, out=rm1), out=m1)
        require_wet(w1, state.t + dt, "intermediate stage dried out at node {node}")
        rw2, rm2 = _rhs(w1, m1, domain, grid, config, state.t + dt)
        # w_new = 0.5 * (w + w1 + dt * rw2); m_new likewise, over w and m
        for new, stage, rate in ((w, w1, rw2), (m, m1, rm2)):
            np.add(new, stage, out=new)
            np.add(new, np.multiply(dt, rate, out=rate), out=new)
            np.multiply(0.5, new, out=new)
    else:
        rw, rm = _rhs(w_row, m_row, domain, grid, config, state.t, lo, hi)
        if _window is not None:
            _window.note_rates(rw, rm)
        # w_new = w + dt * rw; m_new = m + dt * rm, over w and m
        np.add(w, np.multiply(dt, rw, out=rw), out=w)
        np.add(m, np.multiply(dt, rm, out=rm), out=m)

    t_new = state.t + dt
    _require_finite(w, t_new, "thickness", lo)
    _require_finite(m, t_new, "momentum", lo)
    require_wet(w, t_new, BELOW_H_MIN, config.h_min, first_node=lo)
    # gamma_surface = w_new + b; velocity = m_new / w_new, over the window
    # of a copy of the old state
    if whole:
        gamma_surface, velocity = np.add(w, b), np.divide(m, w)
    else:
        gamma_surface = state.gamma_surface.copy()
        velocity = state.velocity.copy()
        np.add(w, b[cells], out=gamma_surface[cells])
        np.divide(m, w, out=velocity[cells])
    if _window is not None:
        _window.advance(state, gamma_surface, velocity)
    return FlowState(t_new, gamma_surface, velocity)


class _Search:
    """The detector search of a run: riemann.inland, then find_crossings.

    Its rows (gamma, p, |p|, p_x and the pair marks p_x[i] * p_x[i+1] < 0)
    live in the domain's workspace and carry over from step to step. A
    step changes the state only on its window [lo, hi), so each search
    recomputes gamma, p and |p| there, p_x wherever its stencil reads a
    new p (one node beyond the window, and an end node whose one-sided
    stencil reaches in; see fields._ddx_from), and the pairs that read a
    new p_x, each with the operands of the whole-grid functions. The
    first search, over [0, n), fills every row. Two things still read the
    whole row on every step: max|p| for the default threshold, since one
    cell anywhere can set it, and the scan of the pair marks for sign
    changes, whose nodes are then tested against that threshold. So each
    step finds the crossings, bit for bit, that inland and find_crossings
    would.
    """

    def __init__(self, bathy, grid: Grid, domain: Domain, eps_px: float | None):
        self.bathy, self.grid, self.domain, self.eps_px = bathy, grid, domain, eps_px
        work = domain.work
        self.rows = work.take("search", (4, grid.n))
        self.pairs = work.take("search pairs", grid.n - 1, bool)
        self.products = work.take("search products", grid.n - 1)

    def __call__(self, state: FlowState, lo: int, hi: int):
        """(fields, crossings) of state, which differs from the state of the
        last call only on the cells [lo, hi)."""
        grid, domain = self.grid, self.domain
        fields, (first, last) = riemann._refresh_inland(
            state, domain.b, grid, self.rows, lo, hi, self.eps_px
        )
        px, pairs = fields.p_x, self.pairs
        _mark_pairs(px, pairs, self.products, first, last)
        points = _crossings(px, pairs, fields.eps_px, self.bathy, domain.x, grid.dx)
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
    is checked against it as check_wet would.
    """
    det = detector_config if detector_config is not None else DetectorConfig()
    domain = prepare(bathy, grid, config)
    depth = _checked(initial.gamma_surface, grid) - domain.b
    require_wet(depth, initial.t, THIN_COLUMN, config.h_min)
    window = _ActiveWindow(grid, config, domain.work)
    search = _Search(bathy, grid, domain, det.eps_px)
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
        except (NearDryError, NumericBlowUpError) as exc:
            exc.step = steps + 1
            raise
        steps += 1

        # The search's arrays live in the workspace until the next step.
        inland, points = search(state, lo, hi)
        verdicts = [
            _assess(pt, inland.gamma, state.velocity, grid, domain.x, gamma_ref)
            for pt in points
        ]
        fresh = tracker.fresh(
            [
                (cls, regime, pt.x_star)
                for pt, (cls, _, regime, _) in zip(points, verdicts)
            ]
        )
        # Only the fresh few (39 of 7056 on the bundled shelf run) become
        # records; classify rebuilds their verdicts with them.
        events.extend(
            classify(points[k], inland, state, grid, gamma_ref=gamma_ref, x=domain.x)
            for k in fresh
        )
        if any(verdicts[k][0] in RUSH_CLASSES for k in fresh):
            post_singular = True
            if config.stop_at_first_event:
                break
        if next_snap is not None and state.t >= next_snap - tiny:
            snapshots.append(state.copy())
            snapshot_steps.append(steps)
            while next_snap <= state.t + tiny:
                next_snap += config.snapshot_interval

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
