"""Explicit finite-volume time stepper for the nonlinear long-wave system.

The evolved variables are the column thickness w = gamma_surface - b and
its momentum w * u, with gravity scaled to one. Interface fluxes come from
a two-wave approximate Riemann solver on bed-matched interface states
(each side sees the column above the higher of the two bed values), which
keeps a lake at rest exactly at rest; the detector keys on tiny
surface-minus-bed slopes, so the bed source must not leak truncation
noise into a balanced state. An optional limited piecewise-linear
reconstruction with two-stage time stepping raises the order to two for
convergence studies; the first-order path is the default.

The bed is static: prepare() evaluates it, its ghost cells and the
first-order interface bed offsets once, and run() reuses them for every
step and detector pass. The prepared domain also holds the run's
workspace: the first-order kernel and the run's detector search write
every temporary into arrays allocated on the first step, so a step
allocates only the state it returns.

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
    classify,
    find_crossings,
)
from .errors import NearDryError, NumericBlowUpError, ShoalwaveError
from .fields import FlowState, Grid, Workspace, check_wet, require_wet, save_state

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
        if self.t_end < 0.0:
            raise ValueError("t_end must be >= 0, got {}".format(self.t_end))
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1], got {}".format(self.cfl))
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(
                "boundary must be one of {}, got {!r}".format(
                    BOUNDARY_KINDS, self.boundary
                )
            )
        if self.h_min <= 0.0:
            raise ValueError("h_min must be positive")
        if self.snapshot_interval is not None and self.snapshot_interval <= 0.0:
            raise ValueError("snapshot_interval must be positive when set")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RunResult:
    snapshots: list[FlowState]
    snapshot_steps: list[int]
    events: list
    steps: int
    post_singular: bool


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


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


def _extended(w, m, domain: Domain, config: SolverConfig, t: float):
    """Ghost-extended (w, m) per boundary kind, in the domain's workspace."""
    w_e, m_e = domain.work.take("ghosts", (2, w.size + 4))
    _fill_ghosts(w_e, w, config.boundary)
    _fill_ghosts(m_e, m, config.boundary, odd=True)
    if config.inflow is not None:
        for sl, xg in zip((slice(0, 2), slice(-2, None)), domain.ghost_x):
            w_g, u_g = config.inflow(t, xg)
            w_e[sl] = w_g
            m_e[sl] = np.asarray(w_g) * np.asarray(u_g)
    return w_e, m_e


def _hll(wl, ul, wr, ur, work: Workspace):
    """Two-wave approximate flux between reconstructed interface states.

    Every temporary lives in work; the two returned flux arrays do too.
    Each line computes what its comment says, with the same operands in
    the same order, so the results are bitwise those of the plain
    expressions.
    """
    size = wl.size
    ml, mr, sl, sr, fl1, fr1, slsr, safe, mid0, mid1, tmp = work.take(
        "hll", (11, size)
    )
    left, right, same = work.take("hll masks", (3, size), bool)

    np.multiply(wl, ul, out=ml)
    np.multiply(wr, ur, out=mr)
    cl = np.sqrt(wl, out=sr)
    cr = np.sqrt(wr, out=tmp)
    # sl = minimum(ul - cl, ur - cr); sr = maximum(ul + cl, ur + cr)
    np.minimum(np.subtract(ul, cl, out=sl), np.subtract(ur, cr, out=slsr), out=sl)
    np.maximum(np.add(ul, cl, out=sr), np.add(ur, cr, out=tmp), out=sr)

    # fl1 = ml * ul + 0.5 * wl * wl; fr1 = mr * ur + 0.5 * wr * wr
    half = np.multiply(0.5, wl, out=tmp)
    np.add(np.multiply(ml, ul, out=fl1), np.multiply(half, wl, out=tmp), out=fl1)
    half = np.multiply(0.5, wr, out=tmp)
    np.add(np.multiply(mr, ur, out=fr1), np.multiply(half, wr, out=tmp), out=fr1)

    # safe = where(span > 0, span, 1) with span = sr - sl
    np.subtract(sr, sl, out=safe)
    np.logical_not(np.greater(safe, 0.0, out=same), out=same)
    np.copyto(safe, 1.0, where=same)
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
    # supersonic to the right, or identical interface states, so that a
    # balanced state produces bitwise-zero updates. Right takes the right
    # flux; the rest keep the intermediate one.
    np.greater_equal(sl, 0.0, out=left)
    left |= np.logical_and(
        np.equal(wl, wr, out=same), np.equal(ml, mr, out=right), out=same
    )
    np.less_equal(sr, 0.0, out=right)
    for flux, from_left, from_right in ((mid0, ml, mr), (mid1, fl1, fr1)):
        np.copyto(flux, from_right, where=right)
        np.copyto(flux, from_left, where=left)
    return mid0, mid1


def _rhs(w, m, domain: Domain, grid: Grid, config: SolverConfig, t: float):
    """Flux divergence plus bed source, as d/dt arrays over the real cells.

    The returned arrays live in the domain's workspace. The first-order
    path allocates nothing; the second-order reconstruction and
    flux_perturbation allocate what they add.
    """
    work = domain.work
    w_e, m_e = _extended(w, m, domain, config, t)
    wls, wrs, g_right, tmp = work.take("rhs", (4, grid.n + 1))

    # Interface j sits between cell edge arrays at j (left) and j+1 (right).
    if config.second_order:
        eta_e = w_e + domain.b_e
        u_e = m_e / w_e

        def edges(arr):
            d = np.diff(arr)
            slope = _minmod(d[1:], d[:-1])
            center = arr[1:-1]
            return center - 0.5 * slope, center + 0.5 * slope

        w_minus, w_plus = edges(w_e)
        eta_minus, eta_plus = edges(eta_e)
        u_minus, u_plus = edges(u_e)
        b_minus = eta_minus - w_minus
        b_plus = eta_plus - w_plus
        bl = b_plus[:-1]
        br = b_minus[1:]
        b_int = np.maximum(bl, br)
        np.maximum(w_plus[:-1] + (bl - b_int), 0.0, out=wls)
        np.maximum(w_minus[1:] + (br - b_int), 0.0, out=wrs)
        ul = u_plus[:-1]
        ur = u_minus[1:]
    else:
        center_w = w_e[1:-1]
        center_u = np.divide(m_e[1:-1], center_w, out=work.take("rhs u", grid.n + 2))
        np.maximum(np.add(center_w[:-1], domain.bed_left, out=wls), 0.0, out=wls)
        np.maximum(np.add(center_w[1:], domain.bed_right, out=wrs), 0.0, out=wrs)
        ul = center_u[:-1]
        ur = center_u[1:]
    f0, f1 = _hll(wls, ul, wrs, ur, work)

    # Group each hydrostatic correction with its own interface flux; at a
    # balanced state every grouped term is identically zero.
    # g_right = f1 - 0.5 * wls**2; g_left = f1 - 0.5 * wrs**2, over f1
    half_sq = np.multiply(0.5, np.square(wls, out=tmp), out=tmp)
    np.subtract(f1, half_sq, out=g_right)
    half_sq = np.multiply(0.5, np.square(wrs, out=tmp), out=tmp)
    g_left = np.subtract(f1, half_sq, out=f1)
    if config.flux_perturbation != 0.0:
        g_right = g_right + config.flux_perturbation * grid.dx * 0.5 * (wls + wrs)

    inv_dx = 1.0 / grid.dx
    rw, rm = work.take("rates", (2, grid.n))
    # rw = -(f0[1:] - f0[:-1]) * inv_dx
    np.negative(np.subtract(f0[1:], f0[:-1], out=rw), out=rw)
    np.multiply(rw, inv_dx, out=rw)
    # rm = -(g_right[1:] - g_left[:-1] + cell_jump - bed_term) * inv_dx
    np.subtract(g_right[1:], g_left[:-1], out=rm)
    if config.second_order:
        wm = w_minus[1:-1]
        wp = w_plus[1:-1]
        cell_jump = 0.5 * wp**2 - 0.5 * wm**2
        bed_term = -0.5 * (wm + wp) * (b_plus[1:-1] - b_minus[1:-1])
        np.subtract(np.add(rm, cell_jump, out=rm), bed_term, out=rm)
    else:
        # With one value per cell the cell jump is +0.0 and the bed term
        # -0.0 exactly; adding +0.0 keeps their one effect on the sum,
        # which turns a -0.0 flux difference into +0.0.
        np.add(rm, 0.0, out=rm)
    np.negative(rm, out=rm)
    np.multiply(rm, inv_dx, out=rm)
    return rw, rm


def _require_finite(arr, t, what):
    # A finite sum means every entry is finite; only a sum that is not
    # (a non-finite entry, or an overflow) pays for the per-node check.
    if math.isfinite(arr.sum()):
        return
    bad = ~np.isfinite(arr)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise NumericBlowUpError(
            "non-finite {} at node {} (t={})".format(what, node, t), node=node, t=t
        )


def step(
    state: FlowState,
    bathy,
    grid: Grid,
    config: SolverConfig,
    dt_max: float | None = None,
    *,
    domain: Domain | None = None,
) -> FlowState:
    """Advance one step of size cfl * dx / max(|u| + sqrt(w)).

    dt_max caps the step (used by run() to land exactly on t_end). Raises
    NearDryError if the starting or resulting state violates h_min and
    NumericBlowUpError on non-finite results. domain, when given, must be
    prepare(bathy, grid, config); run() builds it once for all its steps.
    The returned state's arrays are new; the temporaries live in the
    domain's workspace.
    """
    if domain is None:
        domain = prepare(bathy, grid, config)
    b = domain.b
    w, m, speed = domain.work.take("step", (3, grid.n))
    np.subtract(state.gamma_surface, b, out=w)
    require_wet(w, state.t, BELOW_H_MIN, config.h_min)
    u = state.velocity
    _require_finite(w, state.t, "thickness")
    _require_finite(u, state.t, "velocity")

    # fastest = max(|u| + sqrt(w))
    np.add(np.abs(u, out=speed), np.sqrt(w, out=m), out=speed)
    fastest = float(speed.max())
    dt = config.cfl * grid.dx / fastest
    if dt_max is not None:
        dt = min(dt, float(dt_max))
    np.multiply(w, u, out=m)

    if config.second_order:
        rw1, rm1 = _rhs(w, m, domain, grid, config, state.t)
        w1 = w + dt * rw1
        m1 = m + dt * rm1
        require_wet(w1, state.t + dt, "intermediate stage dried out at node {node}")
        rw2, rm2 = _rhs(w1, m1, domain, grid, config, state.t + dt)
        w_new = 0.5 * (w + w1 + dt * rw2)
        m_new = 0.5 * (m + m1 + dt * rm2)
    else:
        rw, rm = _rhs(w, m, domain, grid, config, state.t)
        # w_new = w + dt * rw; m_new = m + dt * rm, over w and m
        w_new = np.add(w, np.multiply(dt, rw, out=rw), out=w)
        m_new = np.add(m, np.multiply(dt, rm, out=rm), out=m)

    t_new = state.t + dt
    _require_finite(w_new, t_new, "thickness")
    _require_finite(m_new, t_new, "momentum")
    require_wet(w_new, t_new, BELOW_H_MIN, config.h_min)
    return FlowState(t_new, w_new + b, m_new / w_new)


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

    def fresh(self, events):
        out = [
            ev
            for ev in events
            if not any(
                cls == ev.classification
                and regime == ev.depth_regime
                and abs(x - ev.x_star) <= self._window
                for cls, regime, x in self._previous
            )
        ]
        self._previous = [
            (ev.classification, ev.depth_regime, ev.x_star) for ev in events
        ]
        return out


def run(
    initial: FlowState,
    bathy,
    grid: Grid,
    config: SolverConfig,
    detector_config: DetectorConfig | None = None,
) -> RunResult:
    """Integrate to t_end, recording snapshots and detector events.

    Every post-step state goes through the singular-point detector;
    crossing events are logged at onset in time order. Plateau points are
    not part of the run log (they persist for as long as the flow stays in
    the degenerate family; the one-shot detect command reports them).
    Integration continues after a rush event unless stop_at_first_event is
    set; the result is then flagged post_singular either way.
    """
    det = detector_config if detector_config is not None else DetectorConfig()
    check_wet(initial, bathy, grid, config.h_min)
    domain = prepare(bathy, grid, config)
    gamma_ref = float(np.sqrt(np.max(initial.gamma_surface - domain.b)))

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
        try:
            state = step(
                state, bathy, grid, config, dt_max=config.t_end - state.t, domain=domain
            )
        except (NearDryError, NumericBlowUpError) as exc:
            exc.step = steps + 1
            raise
        steps += 1

        # inland's arrays live in the workspace until the next step.
        inland = riemann.inland(
            state, bathy, grid, det.eps_px, b=domain.b, work=domain.work
        )
        points = find_crossings(
            inland, bathy, grid, inland.eps_px, x=domain.x, work=domain.work
        )
        step_events = [
            classify(
                pt.x_star, inland, state, bathy, grid, gamma_ref=gamma_ref, x=domain.x
            )
            for pt in points
        ]
        fresh = tracker.fresh(step_events)
        events.extend(fresh)
        hit_rush = any(ev.classification in RUSH_CLASSES for ev in fresh)
        if hit_rush:
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

    Paths inside the manifest are relative to out_dir so a run directory
    can be moved or compared byte-for-byte. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snap_files = []
    for snap, k in zip(result.snapshots, result.snapshot_steps):
        name = "snap_{:06d}.csv".format(k)
        save_state(snap, bathy, grid, out / name)
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
