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

The time step is cfl * dx / max(|u| + sqrt(w)); runs abort with
NearDryError when any column drops below h_min and NumericBlowUpError on
non-finite values. After a rush event the integration keeps going by
default and the run is flagged post-singular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import riemann
from .detector import (
    Classification,
    DetectorConfig,
    classify,
    find_critical_points,
    surface_gradients,
)
from .errors import NearDryError, NumericBlowUpError, ShoalwaveError
from .fields import FlowState, Grid, check_wet, depth, save_state

__all__ = [
    "SolverConfig",
    "RunResult",
    "step",
    "run",
    "write_outputs",
    "initial_lake_at_rest",
    "initial_gaussian_pulse",
]

BOUNDARY_KINDS = ("transmissive", "periodic", "reflective")

RUSH_CLASSES = (Classification.INLAND_RUSH, Classification.OFFSHORE_RUSH)


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


def _extended(w, m, b, grid: Grid, config: SolverConfig, t: float, bathy):
    """Arrays with two ghost cells per side, filled per boundary kind."""
    if config.boundary == "periodic":
        w_e = np.concatenate((w[-2:], w, w[:2]))
        m_e = np.concatenate((m[-2:], m, m[:2]))
        b_e = np.concatenate((b[-2:], b, b[:2]))
    elif config.boundary == "reflective":
        w_e = np.concatenate((w[1::-1], w, w[-1:-3:-1]))
        m_e = np.concatenate((-m[1::-1], m, -m[-1:-3:-1]))
        b_e = np.concatenate((b[1::-1], b, b[-1:-3:-1]))
    else:  # transmissive: zero-gradient
        w_e = np.concatenate((w[:1], w[:1], w, w[-1:], w[-1:]))
        m_e = np.concatenate((m[:1], m[:1], m, m[-1:], m[-1:]))
        b_e = np.concatenate((b[:1], b[:1], b, b[-1:], b[-1:]))

    if config.inflow is not None:
        x_left = grid.x0 + grid.dx * np.array([-2.0, -1.0])
        x_right = grid.x_last + grid.dx * np.array([1.0, 2.0])
        for sl, xg in ((slice(0, 2), x_left), (slice(-2, None), x_right)):
            w_g, u_g = config.inflow(t, xg)
            w_e[sl] = w_g
            m_e[sl] = np.asarray(w_g) * np.asarray(u_g)
            b_e[sl] = bathy.eval(xg)
    return w_e, m_e, b_e


def _hll(wl, ul, wr, ur):
    """Two-wave approximate flux between reconstructed interface states."""
    ml = wl * ul
    mr = wr * ur
    cl = np.sqrt(wl)
    cr = np.sqrt(wr)
    sl = np.minimum(ul - cl, ur - cr)
    sr = np.maximum(ul + cl, ur + cr)

    fl0 = ml
    fl1 = ml * ul + 0.5 * wl * wl
    fr0 = mr
    fr1 = mr * ur + 0.5 * wr * wr

    span = sr - sl
    safe = np.where(span > 0.0, span, 1.0)
    mid0 = (sr * fl0 - sl * fr0 + sl * sr * (wr - wl)) / safe
    mid1 = (sr * fl1 - sl * fr1 + sl * sr * (mr - ml)) / safe

    f0 = np.where(sl >= 0.0, fl0, np.where(sr <= 0.0, fr0, mid0))
    f1 = np.where(sl >= 0.0, fl1, np.where(sr <= 0.0, fr1, mid1))

    # Identical interface states short-circuit to the exact flux, so a
    # balanced state produces bitwise-zero updates.
    same = (wl == wr) & (ml == mr)
    f0 = np.where(same, fl0, f0)
    f1 = np.where(same, fl1, f1)
    return f0, f1


def _rhs(w, m, b, grid: Grid, config: SolverConfig, t: float, bathy):
    """Flux divergence plus bed source, as d/dt arrays over the real cells."""
    w_e, m_e, b_e = _extended(w, m, b, grid, config, t, bathy)

    if config.second_order:
        eta_e = w_e + b_e
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
    else:
        center_w = w_e[1:-1]
        center_b = b_e[1:-1]
        center_u = m_e[1:-1] / center_w
        w_minus = w_plus = center_w
        u_minus = u_plus = center_u
        b_minus = b_plus = center_b

    # Interface j sits between cell edge arrays at j (left) and j+1 (right).
    bl = b_plus[:-1]
    br = b_minus[1:]
    b_int = np.maximum(bl, br)
    wls = np.maximum(w_plus[:-1] + (bl - b_int), 0.0)
    wrs = np.maximum(w_minus[1:] + (br - b_int), 0.0)
    f0, f1 = _hll(wls, u_plus[:-1], wrs, u_minus[1:])

    # Group each hydrostatic correction with its own interface flux; at a
    # balanced state every grouped term is identically zero.
    g_right = f1 - 0.5 * wls**2
    g_left = f1 - 0.5 * wrs**2
    if config.flux_perturbation != 0.0:
        g_right = g_right + config.flux_perturbation * grid.dx * 0.5 * (wls + wrs)
    wm = w_minus[1:-1]
    wp = w_plus[1:-1]
    cell_jump = 0.5 * wp**2 - 0.5 * wm**2
    bed_term = -0.5 * (wm + wp) * (b_plus[1:-1] - b_minus[1:-1])

    inv_dx = 1.0 / grid.dx
    rw = -(f0[1:] - f0[:-1]) * inv_dx
    rm = -(g_right[1:] - g_left[:-1] + cell_jump - bed_term) * inv_dx
    return rw, rm


def _require_finite(arr, t, what):
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
) -> FlowState:
    """Advance one step of size cfl * dx / max(|u| + sqrt(w)).

    dt_max caps the step (used by run() to land exactly on t_end). Raises
    NearDryError if the starting or resulting state violates h_min and
    NumericBlowUpError on non-finite results.
    """
    x = grid.x
    b = np.asarray(bathy.eval(x), dtype=float)
    w = state.gamma_surface - b
    i = int(np.argmin(w))
    if w[i] < config.h_min:
        raise NearDryError(
            "column {:.3e} below h_min at node {} (t={})".format(w[i], i, state.t),
            node=i,
            t=state.t,
            depth=float(w[i]),
        )
    u = state.velocity
    _require_finite(w, state.t, "thickness")
    _require_finite(u, state.t, "velocity")

    fastest = float(np.max(np.abs(u) + np.sqrt(w)))
    dt = config.cfl * grid.dx / fastest
    if dt_max is not None:
        dt = min(dt, float(dt_max))
    m = w * u

    if config.second_order:
        rw1, rm1 = _rhs(w, m, b, grid, config, state.t, bathy)
        w1 = w + dt * rw1
        m1 = m + dt * rm1
        if np.any(w1 <= 0.0):
            node = int(np.argmin(w1))
            raise NearDryError(
                "intermediate stage dried out at node {}".format(node),
                node=node,
                t=state.t + dt,
                depth=float(w1[node]),
            )
        rw2, rm2 = _rhs(w1, m1, b, grid, config, state.t + dt, bathy)
        w_new = 0.5 * (w + w1 + dt * rw2)
        m_new = 0.5 * (m + m1 + dt * rm2)
    else:
        rw, rm = _rhs(w, m, b, grid, config, state.t, bathy)
        w_new = w + dt * rw
        m_new = m + dt * rm

    t_new = state.t + dt
    _require_finite(w_new, t_new, "thickness")
    _require_finite(m_new, t_new, "momentum")
    i = int(np.argmin(w_new))
    if w_new[i] < config.h_min:
        raise NearDryError(
            "column {:.3e} below h_min at node {} (t={})".format(w_new[i], i, t_new),
            node=i,
            t=t_new,
            depth=float(w_new[i]),
        )
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
    gamma_ref = float(np.sqrt(np.max(depth(initial, bathy, grid))))

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
            state = step(state, bathy, grid, config, dt_max=config.t_end - state.t)
        except (NearDryError, NumericBlowUpError) as exc:
            exc.step = steps + 1
            raise
        steps += 1

        inland = riemann._inland(state, bathy, grid, det.eps_px)
        points = [
            pt
            for pt in find_critical_points(inland, bathy, grid, inland.eps_px)
            if not pt.plateau
        ]
        grads = surface_gradients(state, bathy, grid) if points else None
        step_events = [
            classify(
                pt.x_star, inland, state, bathy, grid,
                gamma_ref=gamma_ref, gradients=grads,
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
