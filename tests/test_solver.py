import hashlib
import importlib.resources
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from shoalwave import analytic, cli, detector, fields, riemann, solver
from shoalwave.bathymetry import Flat, Linear, Sampled, TanhSafe
from shoalwave.errors import NearDryError, NumericBlowUpError
from shoalwave.fields import FlowState, Grid, load_state

from conftest import build_crossing

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_end": -1.0},
        {"t_end": 1.0, "cfl": 0.0},
        {"t_end": 1.0, "cfl": 1.5},
        {"t_end": 1.0, "boundary": "open"},
        {"t_end": 1.0, "h_min": 0.0},
        {"t_end": 1.0, "snapshot_interval": -0.5},
        {"t_end": 1.0, "max_steps": 0},
        {"t_end": float("nan")},
        {"t_end": float("inf")},
        {"t_end": 1.0, "h_min": float("nan")},
        {"t_end": 1.0, "snapshot_interval": float("nan")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        solver.SolverConfig(**kwargs)


def test_lake_at_rest_is_preserved_exactly():
    g = Grid(-20.0, 0.1, 400)
    b = TanhSafe(1.0, 0.5)
    state = solver.initial_lake_at_rest(g)
    config = solver.SolverConfig(t_end=1e9)
    for _ in range(100):
        state = solver.step(state, b, g, config)
    assert np.max(np.abs(state.velocity)) == 0.0
    assert np.max(np.abs(state.gamma_surface)) == 0.0


def test_periodic_mass_is_conserved():
    g = Grid(0.0, 0.05, 200)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(
        g, b, center=5.0, width=0.8, amplitude=0.1
    )
    config = solver.SolverConfig(t_end=1e9, boundary="periodic")
    mass0 = float(np.sum(state.gamma_surface - b.eval(g.x)))
    for _ in range(500):
        state = solver.step(state, b, g, config)
    mass = float(np.sum(state.gamma_surface - b.eval(g.x)))
    assert abs(mass - mass0) / mass0 <= 1e-13


def test_reflective_walls_conserve_mass():
    g = Grid(0.0, 0.05, 200)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(
        g, b, center=5.0, width=0.8, amplitude=0.1
    )
    config = solver.SolverConfig(t_end=1e9, boundary="reflective")
    mass0 = float(np.sum(state.gamma_surface - b.eval(g.x)))
    for _ in range(500):
        state = solver.step(state, b, g, config)
    mass = float(np.sum(state.gamma_surface - b.eval(g.x)))
    assert abs(mass - mass0) / mass0 <= 1e-13


def test_pulse_leaves_through_transmissive_boundary():
    g = Grid(-5.0, 0.0125, 800)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(
        g, b, center=0.0, width=0.5, amplitude=1e-3
    )
    config = solver.SolverConfig(t_end=12.0)
    result = solver.run(state, b, g, config)
    final = result.snapshots[-1]
    assert np.max(np.abs(final.gamma_surface)) < 1e-6
    assert np.max(np.abs(final.velocity)) < 1e-6


def test_uniform_stream_with_inflow_is_steady():
    g = Grid(0.0, 0.1, 64)
    b = Flat(-1.0)
    state = FlowState(0.0, np.zeros(64), np.full(64, 0.3))

    def fill(t, x):
        return np.ones_like(x), np.full_like(x, 0.3)

    config = solver.SolverConfig(t_end=1e9, inflow=fill)
    out = state
    for _ in range(100):
        out = solver.step(out, b, g, config)
    assert np.array_equal(out.velocity, state.velocity)
    assert np.array_equal(out.gamma_surface, state.gamma_surface)


def test_step_respects_dt_max():
    g = Grid(0.0, 0.1, 64)
    b = Flat(-1.0)
    state = solver.initial_lake_at_rest(g)
    config = solver.SolverConfig(t_end=10.0)
    out = solver.step(state, b, g, config, dt_max=1e-4)
    assert out.t == pytest.approx(1e-4)


def test_step_raises_on_thin_column():
    g = Grid(0.0, 0.1, 16)
    b = Flat(-1e-7)
    state = solver.initial_lake_at_rest(g)
    config = solver.SolverConfig(t_end=1.0)
    with pytest.raises(NearDryError) as info:
        solver.step(state, b, g, config)
    assert info.value.depth == pytest.approx(1e-7)


def test_step_raises_on_nonfinite_state():
    g = Grid(0.0, 0.1, 16)
    b = Flat(-1.0)
    u = np.zeros(16)
    u[7] = np.nan
    state = FlowState(0.0, np.zeros(16), u)
    config = solver.SolverConfig(t_end=1.0)
    with pytest.raises(NumericBlowUpError):
        solver.step(state, b, g, config)


def test_run_annotates_failure_step():
    g = Grid(0.0, 0.1, 16)
    b = Flat(-1.0)
    u = np.zeros(16)
    u[7] = np.inf
    state = FlowState(0.0, np.zeros(16), u)
    config = solver.SolverConfig(t_end=1.0)
    with pytest.raises(NumericBlowUpError) as info:
        solver.run(state, b, g, config)
    assert info.value.step == 1


def test_run_rejects_dry_initial_state():
    g = Grid(0.0, 0.1, 16)
    b = Flat(0.5)
    state = solver.initial_lake_at_rest(g)
    config = solver.SolverConfig(t_end=1.0)
    with pytest.raises(NearDryError):
        solver.run(state, b, g, config)


def test_snapshot_schedule():
    g = Grid(-10.0, 0.1, 200)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=0.0, width=1.0, amplitude=0.01)
    config = solver.SolverConfig(t_end=2.0, snapshot_interval=0.5)
    result = solver.run(state, b, g, config)
    times = [s.t for s in result.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0, abs=1e-12)
    assert len(times) == 5
    for target, got in zip([0.0, 0.5, 1.0, 1.5, 2.0], times):
        assert got == pytest.approx(target, abs=0.05)  # within one time step
    assert result.snapshot_steps == sorted(result.snapshot_steps)
    assert result.steps == result.snapshot_steps[-1]


@pytest.mark.parametrize("interval", [1e-20, 4e-3])
def test_an_interval_shorter_than_a_step_snapshots_every_step(interval):
    # 1e-20 is below the spacing of floats near t, so adding it to the
    # next snapshot time one interval at a time would never pass t.
    g = Grid(-1.0, 0.05, 40)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=0.0, width=0.2, amplitude=0.01)
    config = solver.SolverConfig(t_end=0.05, snapshot_interval=interval)
    result = solver.run(state, b, g, config)
    assert result.steps == 3
    assert result.snapshot_steps == list(range(result.steps + 1))


def test_run_without_detector_reports_no_events():
    g = Grid(-10.0, 0.1, 200)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=0.0, width=1.0, amplitude=0.01)
    result = solver.run(state, b, g, solver.SolverConfig(t_end=1.0))
    assert result.events == []
    assert result.post_singular is False


def test_gaussian_pulse_moves_right():
    g = Grid(-10.0, 0.05, 400)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=-5.0, width=1.0, amplitude=0.01)
    config = solver.SolverConfig(t_end=3.0)
    result = solver.run(state, b, g, config)
    final = result.snapshots[-1]
    crest0 = g.x[int(np.argmax(state.gamma_surface))]
    crest1 = g.x[int(np.argmax(final.gamma_surface))]
    assert crest1 - crest0 == pytest.approx(3.0, abs=0.25)
    # The initial condition is a pure right-mover, so far behind the launch
    # point the surface stays quiet; a spurious reflected wave would sit
    # near x = -8 at this time with amplitude around half the pulse height.
    behind = final.gamma_surface[g.x < -7.0]
    assert np.max(np.abs(behind)) < 1e-5


def test_gaussian_pulse_rejects_drying_amplitude():
    g = Grid(-10.0, 0.05, 400)
    b = Flat(-0.5)
    with pytest.raises(NearDryError):
        solver.initial_gaussian_pulse(g, b, center=0.0, width=1.0, amplitude=-0.6)


def test_second_order_reproduces_linear_bottom_flow_exactly():
    sol = analytic.LinearBottomSolution(0.0, -1.0, 0.1, 0.0, -1.3, 1.3)
    g = Grid(-1.0, 2.0 / 99, 100)
    config = solver.SolverConfig(
        t_end=0.3, second_order=True, inflow=analytic.inflow(sol)
    )
    state = analytic.make_initial_state(sol, g)
    while state.t < 0.3 - 1e-12:
        state = solver.step(state, sol.bathymetry(), g, config, dt_max=0.3 - state.t)
    u_ref, surf_ref, _ = analytic.eval_solution(sol, state.t, g.x)
    assert np.max(np.abs(state.velocity - u_ref)) <= 1e-12
    assert np.max(np.abs(state.gamma_surface - surf_ref)) <= 1e-12


def test_event_stream_is_deduplicated(inland_setup):
    grid, state, bathy = inland_setup
    config = solver.SolverConfig(t_end=5e-3)
    result = solver.run(state, bathy, grid, config, detector.DetectorConfig())
    assert result.steps >= 3
    rush = [
        e for e in result.events
        if e.classification is detector.Classification.INLAND_RUSH
    ]
    assert len(rush) >= 1
    assert len(rush) < result.steps
    assert result.post_singular is True


def test_stop_at_first_event(inland_setup):
    grid, state, bathy = inland_setup
    config = solver.SolverConfig(t_end=1e-4, stop_at_first_event=True)
    result = solver.run(state, bathy, grid, config, detector.DetectorConfig())
    assert result.steps == 1
    assert len(result.events) >= 1


def test_write_outputs_layout(tmp_path):
    g = Grid(-10.0, 0.1, 200)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=0.0, width=1.0, amplitude=0.01)
    config = solver.SolverConfig(t_end=0.5, snapshot_interval=0.25)
    result = solver.run(state, b, g, config, detector.DetectorConfig())
    manifest_path = solver.write_outputs(
        result, b, g, tmp_path / "runs" / "demo", "demo", config_doc={"name": "demo"}
    )
    manifest = json.loads(manifest_path.read_text())
    assert manifest["run_id"] == "demo"
    assert manifest["steps"] == result.steps
    assert manifest["n_events"] == len(result.events)
    out_dir = manifest_path.parent
    for name in manifest["snapshot_files"]:
        assert (out_dir / name).exists()
    g2, s2, _ = load_state(out_dir / manifest["snapshot_files"][-1])
    assert g2.n == g.n
    assert np.array_equal(s2.gamma_surface, result.snapshots[-1].gamma_surface)
    events_file = out_dir / manifest["events_file"]
    lines = events_file.read_text().splitlines()
    assert len(lines) == len(result.events)
    for line in lines:
        rec = json.loads(line)
        assert rec["run_id"] == "demo"


def test_zero_horizon_run_returns_initial_snapshot_only():
    g = Grid(0.0, 0.1, 32)
    b = Flat(-1.0)
    state = solver.initial_lake_at_rest(g)
    result = solver.run(state, b, g, solver.SolverConfig(t_end=0.0))
    assert result.steps == 0
    assert len(result.snapshots) == 1
    assert result.snapshots[0].t == 0.0
    assert result.events == []


def test_uniform_slope_flow_logs_no_run_events():
    # The closed-form flow has p_x identically zero over a sloping bed, so
    # it belongs to the degenerate-plateau family; the run log only carries
    # crossing events, which never appear here.
    sol = analytic.LinearBottomSolution(0.0, -1.0, 0.1, 0.0, -1.3, 1.3)
    g = Grid(-1.0, 2.0 / 99, 100)
    config = solver.SolverConfig(t_end=0.2, inflow=analytic.inflow(sol))
    state = analytic.make_initial_state(sol, g)
    result = solver.run(state, sol.bathymetry(), g, config, detector.DetectorConfig())
    assert result.events == []
    assert result.post_singular is False


# Reference kernel: the step as it was before the prepared domain, with the
# bed evaluated on every call, concatenated ghosts and nested flux selection.
# The kernel must reproduce it bit for bit, signs of zeros included.


def _ref_minmod(a, b):
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def _ref_extended(w, m, b, grid, config, t, bathy):
    if config.boundary == "periodic":
        w_e = np.concatenate((w[-2:], w, w[:2]))
        m_e = np.concatenate((m[-2:], m, m[:2]))
        b_e = np.concatenate((b[-2:], b, b[:2]))
    elif config.boundary == "reflective":
        w_e = np.concatenate((w[1::-1], w, w[-1:-3:-1]))
        m_e = np.concatenate((-m[1::-1], m, -m[-1:-3:-1]))
        b_e = np.concatenate((b[1::-1], b, b[-1:-3:-1]))
    else:
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


def _ref_hll(wl, ul, wr, ur):
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
    same = (wl == wr) & (ml == mr)
    return np.where(same, fl0, f0), np.where(same, fl1, f1)


def _ref_rhs(w, m, b, grid, config, t, bathy):
    w_e, m_e, b_e = _ref_extended(w, m, b, grid, config, t, bathy)
    if config.second_order:
        eta_e = w_e + b_e
        u_e = m_e / w_e

        def edges(arr):
            d = np.diff(arr)
            slope = _ref_minmod(d[1:], d[:-1])
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
    bl = b_plus[:-1]
    br = b_minus[1:]
    b_int = np.maximum(bl, br)
    wls = np.maximum(w_plus[:-1] + (bl - b_int), 0.0)
    wrs = np.maximum(w_minus[1:] + (br - b_int), 0.0)
    f0, f1 = _ref_hll(wls, u_plus[:-1], wrs, u_minus[1:])
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


def _ref_step(state, bathy, grid, config, dt_max=None):
    b = np.asarray(bathy.eval(grid.x), dtype=float)
    w = state.gamma_surface - b
    i = int(np.argmin(w))
    if w[i] < config.h_min:
        raise NearDryError("below h_min", node=i, t=state.t, depth=float(w[i]))
    u = state.velocity
    for arr in (w, u):
        if not np.all(np.isfinite(arr)):
            raise NumericBlowUpError("non-finite")
    dt = config.cfl * grid.dx / float(np.max(np.abs(u) + np.sqrt(w)))
    if dt_max is not None:
        dt = min(dt, float(dt_max))
    m = w * u
    if config.second_order:
        rw1, rm1 = _ref_rhs(w, m, b, grid, config, state.t, bathy)
        w1 = w + dt * rw1
        m1 = m + dt * rm1
        if np.any(w1 <= 0.0):
            raise NearDryError("intermediate stage dried out")
        rw2, rm2 = _ref_rhs(w1, m1, b, grid, config, state.t + dt, bathy)
        w_new = 0.5 * (w + w1 + dt * rw2)
        m_new = 0.5 * (m + m1 + dt * rm2)
    else:
        rw, rm = _ref_rhs(w, m, b, grid, config, state.t, bathy)
        w_new = w + dt * rw
        m_new = m + dt * rm
    t_new = state.t + dt
    for arr in (w_new, m_new):
        if not np.all(np.isfinite(arr)):
            raise NumericBlowUpError("non-finite")
    i = int(np.argmin(w_new))
    if w_new[i] < config.h_min:
        raise NearDryError("below h_min", node=i, t=t_new, depth=float(w_new[i]))
    return FlowState(t_new, w_new + b, m_new / w_new)


def _same_bits(a, b):
    """Equal values and signs; a NaN matches a NaN of the same sign."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


def _draw_bed(draw, grid, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "flat":
        return Flat(draw(st.floats(-2.0, -0.5)))
    if kind == "tanh":
        return TanhSafe(draw(st.floats(0.1, 1.0)), draw(st.floats(0.05, 0.5)))
    if kind == "linear":
        return Linear(draw(st.floats(-2.0, -1.0)), draw(st.floats(-0.2, 0.2)))
    # Spans the ghost cells too, which an inflow evaluates the bed at.
    n = grid.n
    xs = np.linspace(grid.x0 - 3 * grid.dx, grid.x_last + 3 * grid.dx, n + 6)
    bs = -1.5 + 0.4 * np.sin(draw(st.floats(0.5, 3.0)) * xs)
    return Sampled(xs, bs)


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(8, 40))
    grid = Grid(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.02, 0.3)), n)
    bathy = _draw_bed(draw, grid, ["tanh", "linear", "sampled", "flat"])
    b = bathy.eval(grid.x)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["lake", "random", "disturbed lake"]))
    if family == "random":
        surface = b + rng.uniform(0.05, 1.5, n)
        velocity = rng.uniform(-0.5, 0.5, n)
        velocity[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    else:
        # Lake at rest, where identical interface states short-circuit;
        # disturbed over a sub-range, which _hll then solves alone when
        # both ends stay still.
        surface = np.zeros(n)
        velocity = np.zeros(n)
        if family == "disturbed lake":
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo + 1, n))
            surface[lo:hi] = rng.uniform(-0.1, 0.1, hi - lo)
            velocity[lo:hi] = rng.uniform(-0.3, 0.3, hi - lo)
    inflow = None
    if draw(st.booleans()):
        w_in = draw(st.floats(0.1, 2.0))
        u_in = draw(st.floats(-0.5, 0.5))

        def inflow(t, x):
            return w_in + 0.1 * np.sin(t + x), np.full_like(x, u_in)

    config = solver.SolverConfig(
        t_end=1e9,
        cfl=draw(st.floats(0.1, 1.0)),
        boundary=draw(st.sampled_from(solver.BOUNDARY_KINDS)),
        second_order=draw(st.booleans()),
        inflow=inflow,
        flux_perturbation=draw(st.sampled_from([0.0, 0.05, -1.3])),
    )
    return grid, bathy, FlowState(0.0, surface, velocity), config


@settings(deadline=None, max_examples=200)
@given(_kernel_cases(), st.integers(1, 4))
def test_step_matches_reference_kernel(case, steps):
    grid, bathy, state, config = case
    domain = solver.prepare(bathy, grid, config)
    with np.errstate(all="ignore"):
        for _ in range(steps):
            try:
                want = _ref_step(state, bathy, grid, config)
            except (NearDryError, NumericBlowUpError) as exc:
                with pytest.raises(type(exc)):
                    solver.step(state, bathy, grid, config, domain=domain)
                return
            for got in (
                solver.step(state, bathy, grid, config),
                solver.step(state, bathy, grid, config, domain=domain),
            ):
                assert got.t == want.t
                assert _same_bits(got.gamma_surface, want.gamma_surface)
                assert _same_bits(got.velocity, want.velocity)
            state = want


@st.composite
def _interface_states(draw, size):
    """(wl, ul, wr, ur) with identical sides outside one disturbed range.

    Depths lie in [0, 4] and velocities in [-3, 3], about a third of them
    replaced by 0.0, -0.0 or NaN. The disturbed range may touch either
    end, both or neither, or be empty; a NaN copied to both sides still
    differs from itself.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(low, high, k):
        out = rng.uniform(low, high, k)
        special = rng.random(k) < 0.3
        out[special] = rng.choice([0.0, -0.0, np.nan], int(special.sum()))
        return out

    wl, ul = values(0.0, 4.0, size), values(-3.0, 3.0, size)
    wr, ur = wl.copy(), ul.copy()
    lo = draw(st.integers(0, size))
    hi = draw(st.integers(lo, size))
    wr[lo:hi] = values(0.0, 4.0, hi - lo)
    ur[lo:hi] = values(-3.0, 3.0, hi - lo)
    return wl, ul, wr, ur


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 40).flatmap(
        lambda size: st.lists(_interface_states(size), min_size=1, max_size=4)
    )
)
def test_hll_matches_reference_over_any_still_window(calls):
    # Views of one block pair, cut to each call's size, for calls whose
    # windows differ, so a flux row left over from a longer earlier call
    # would show outside the window.
    rows, masks = np.empty((11, 40)), np.empty((3, 40), bool)
    with np.errstate(all="ignore"):
        for wl, ul, wr, ur in calls:
            want = _ref_hll(wl, ul, wr, ur)
            size = wl.size
            got = solver._hll(wl, ul, wr, ur, rows[:, :size], masks[:, :size])
            assert _same_bits(got[0], want[0])
            assert _same_bits(got[1], want[1])


def test_nan_state_blows_up_unless_a_column_is_dry(inland_setup):
    grid, state, bathy = inland_setup
    config = solver.SolverConfig(t_end=1.0)
    surface = state.gamma_surface.copy()
    surface[3] = np.nan
    with pytest.raises(NumericBlowUpError):
        solver.step(FlowState(0.0, surface, state.velocity), bathy, grid, config)
    surface[50] = bathy.eval(grid.x[50]) - 1.0
    with pytest.raises(NearDryError) as info:
        solver.step(FlowState(0.0, surface, state.velocity), bathy, grid, config)
    assert info.value.node == 50


# The run objects that hold arrays, directly or through their frames and rows.
_HOLDERS = (
    solver.Domain,
    solver._Frame,
    solver._ActiveWindow,
    solver._Search,
    riemann._InlandRows,
)


def _arrays_held(*objs):
    """Every array the objects hold, keyed by its path of attribute names
    and tuple indices, through their frames, search rows and tuples."""
    held, seen = {}, set()

    def walk(path, value):
        if isinstance(value, np.ndarray):
            held[path] = value
        elif isinstance(value, (tuple, list)):
            for k, item in enumerate(value):
                walk(path + (k,), item)
        elif isinstance(value, _HOLDERS) and id(value) not in seen:
            seen.add(id(value))
            for name, item in vars(value).items():
                walk(path + (name,), item)

    for k, obj in enumerate(objs):
        walk((k,), obj)
    return held


def _assert_same_arrays(before, after):
    """The holders hold the same array objects as before, and every array
    of the domain's reused window frame is a view of a block held before."""
    assert before.keys() <= after.keys()
    assert all(after[path] is arr for path, arr in before.items())
    for path in after.keys() - before.keys():
        assert path[1] == "window_frame", path
    for path, arr in after.items():
        if path[1] == "window_frame":
            assert any(np.shares_memory(arr, old) for old in before.values()), path


def _domain_arrays(domain):
    """Every array a prepared domain holds, its frames' blocks included."""
    return list(_arrays_held(domain).values())


@pytest.mark.parametrize("second_order", [False, True])
@pytest.mark.parametrize("flux_perturbation", [0.0, 0.05])
def test_step_returns_arrays_outside_the_domain(
    inland_setup, second_order, flux_perturbation
):
    grid, state, bathy = inland_setup
    config = solver.SolverConfig(
        t_end=1.0, second_order=second_order, flux_perturbation=flux_perturbation
    )
    domain = solver.prepare(bathy, grid, config)
    states = []
    for _ in range(3):
        state = solver.step(state, bathy, grid, config, domain=domain)
        states.append(state)
    held = _domain_arrays(domain)
    assert len(held) > 8
    for st_ in states:
        for arr in (st_.gamma_surface, st_.velocity):
            assert not any(np.shares_memory(arr, buf) for buf in held)
    assert not np.shares_memory(states[-1].gamma_surface, states[-2].gamma_surface)


def test_first_order_step_allocates_only_the_state_it_returns():
    # ocean_transit's size: a flat bed, n=12000, periodic.
    n = 12000
    grid = Grid(0.0, 0.01, n)
    bathy = Flat(-1.0)
    config = solver.SolverConfig(t_end=1.0, boundary="periodic")
    hump = 0.01 * np.exp(-(((grid.x - 60.0) / 3.0) ** 2))
    domain = solver.prepare(bathy, grid, config)
    # The first step fills the domain's rows; the later ones reuse them.
    state = solver.step(FlowState(0.0, hump, hump.copy()), bathy, grid, config, domain=domain)
    tracemalloc.start()
    try:
        solver.step(state, bathy, grid, config, domain=domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * np.dtype(float).itemsize, peak / (n * 8)


def test_whole_grid_step_takes_no_new_block_and_allocates_only_its_result():
    # A still sea with a pulse in its middle, stepped over the whole grid
    # after a first step: the step keeps every array of the domain and
    # allocates only the state it returns.
    n = 12000
    grid = Grid(0.0, 0.01, n)
    bathy = Flat(-1.0)
    config = solver.SolverConfig(t_end=1.0, boundary="periodic")
    hump = 0.01 * np.exp(-(((grid.x - 60.0) / 1.0) ** 2))
    domain = solver.prepare(bathy, grid, config)
    state = solver.step(FlowState(0.0, hump, hump.copy()), bathy, grid, config, domain=domain)
    arrays = _arrays_held(domain)
    for still in (state.gamma_surface, state.velocity):
        assert not np.any(still[:1000]) and not np.any(still[-1000:])
        assert np.any(still)
    tracemalloc.start()
    try:
        solver.step(state, bathy, grid, config, domain=domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * np.dtype(float).itemsize, peak / (n * 8)
    _assert_same_arrays(arrays, _arrays_held(domain))


def test_first_order_run_owns_only_first_order_scratch():
    # ocean_transit's size: a flat bed, n=12000, periodic. After two run
    # steps the scratch blocks (the writable arrays) of the domain, the
    # window and the search total 2,544,194 bytes, the rows a first-order
    # step and search write; second-order blocks would exceed it. The bound
    # is 2 * n bytes above that: the window marks its still cells in the
    # domain's flux mask rows, where it once held two bool rows of its own.
    n = 12000
    grid = Grid(0.0, 0.01, n)
    bathy = Flat(-1.0)
    config = solver.SolverConfig(t_end=1.0, boundary="periodic")
    hump = 0.01 * np.exp(-(((grid.x - 60.0) / 3.0) ** 2))
    domain = solver.prepare(bathy, grid, config)
    window = solver._ActiveWindow(grid, config)
    search = solver._Search(bathy, grid, domain, None)
    state = FlowState(0.0, hump, hump.copy())
    for _ in range(2):
        lo, hi = window.lo, window.hi
        state = solver.step(state, bathy, grid, config, domain=domain, _window=window)
        search(state, lo, hi)
    blocks = {}
    for arr in _arrays_held(domain, window, search).values():
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        if arr.flags.writeable:
            blocks[id(arr)] = arr
    assert sum(arr.nbytes for arr in blocks.values()) <= 2_568_194


class _CountingBed:
    """A bed that counts its eval calls."""

    def __init__(self, bed):
        self.bed = bed
        self.evals = 0

    def eval(self, x):
        self.evals += 1
        return self.bed.eval(x)

    def slope(self, x):
        return self.bed.slope(x)


def test_run_evaluates_the_bed_a_fixed_number_of_times(monkeypatch, inland_setup):
    grid, state, bathy = inland_setup
    builds = []
    x_property = Grid.x

    def counted_x(g):
        builds.append(1)
        return x_property.fget(g)

    monkeypatch.setattr(Grid, "x", property(counted_x))
    counts = []
    for t_end in (1e-3, 8e-3):
        bed = _CountingBed(bathy)
        del builds[:]
        result = solver.run(
            state, bed, grid, solver.SolverConfig(t_end=t_end), detector.DetectorConfig()
        )
        assert result.events
        counts.append((result.steps, bed.evals, len(builds)))
    (short, evals_short, x_short), (long, evals_long, x_long) = counts
    assert long > 2 * short
    # prepare() evaluates the bed; the initial wet check reads its result.
    assert evals_short == evals_long == 1
    assert x_long == x_short


def _end_crossing():
    # build_crossing plants its zero between nodes 59 and 60 of 120; keeping
    # nodes 0..61 puts it in the last three cells, where the window around
    # it reaches the one-sided end stencils.
    grid, state, bathy = build_crossing()
    n = 62
    cut = FlowState(0.0, state.gamma_surface[:n], state.velocity[:n])
    return Grid(grid.x0, grid.dx, n), cut, bathy


class _WatchedBed:
    """A bed whose eval and slope go through the given wrapper."""

    def __init__(self, bed, counted):
        self.eval = counted("eval", bed.eval, only_inside=True)
        self.slope = counted("slope", bed.slope, only_inside=True)


def test_run_builds_no_whole_grid_gradients(monkeypatch):
    # The run classifies each crossing (detector._assess, classify without
    # its records) from the nodes around it, in the last three cells too,
    # so it builds no whole-grid second derivative or residual, and
    # classifying never evaluates the bed (the run itself does, outside
    # it). Each function is counted wherever a module binds it.
    grid, state, b = load_state(DATA / "shoaling_alert_state.csv")
    cases = [(grid, state, Sampled(grid.x, b)), _end_crossing()]
    inside = []
    calls = []

    def counted(name, fn, only_inside=False):
        def wrapper(*args, **kwargs):
            if inside or not only_inside:
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module in (detector, fields, solver):
        for name in ("d2dx2", "tangent_match_residual"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    in_last_cells = []
    assess = solver._assess

    def watched_assess(point, gamma, velocity, g, *args):
        in_last_cells.append(point.node_index >= g.n - 3)
        inside.append(point)
        try:
            return assess(point, gamma, velocity, g, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(solver, "_assess", watched_assess)
    for grid, state, bathy in cases:
        result = solver.run(
            state,
            _WatchedBed(bathy, counted),
            grid,
            solver.SolverConfig(t_end=0.05),
            detector.DetectorConfig(),
        )
        assert result.steps > 10
        assert result.events
    assert any(in_last_cells)
    assert calls == []


@st.composite
def _lakes_at_rest(draw, boundaries, orders, levels):
    n = draw(st.integers(8, 60))
    grid = Grid(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.02, 0.3)), n)
    bathy = _draw_bed(draw, grid, ["tanh", "sampled"])
    config = solver.SolverConfig(
        t_end=1e9,
        boundary=draw(st.sampled_from(boundaries)),
        second_order=draw(st.sampled_from(orders)),
    )
    return grid, bathy, draw(levels), config


def _still_after_five_steps(grid, bathy, surface, config):
    state = solver.initial_lake_at_rest(grid, surface)
    domain = solver.prepare(bathy, grid, config)
    for _ in range(5):
        state = solver.step(state, bathy, grid, config, domain=domain)
    return np.all(state.velocity == 0.0) and np.all(state.gamma_surface == surface)


@settings(deadline=None, max_examples=100)
@given(_lakes_at_rest(("transmissive", "reflective"), (False,), st.just(0.0)))
def test_lake_at_surface_zero_stays_bitwise_still(case):
    # Well-balance of the hydrostatic reconstruction (Audusse et al., SIAM
    # J. Sci. Comput. 25, 2004), where it holds bit for bit: surface 0,
    # first order, ends that repeat or mirror the neighbouring bed.
    assert _still_after_five_steps(*case)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="well-balance is not bitwise at a nonzero level, at second order, "
    "or across a periodic seam joining beds more than a factor of 2 apart",
)
@settings(
    deadline=None,
    max_examples=100,
    derandomize=True,
    database=None,
    phases=(Phase.generate,),
)
@given(
    _lakes_at_rest(
        solver.BOUNDARY_KINDS,
        (False, True),
        st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
    )
)
def test_lake_at_rest_stays_bitwise_still_at_any_level_order_and_boundary(case):
    assert _still_after_five_steps(*case)


# A scaled-down ocean_transit: a flat periodic sea whose pulse leaves both
# ends bitwise still for the whole run. Its digests were frozen from the
# flux solve over every interface, so the still-water window must give the
# same bytes.
STILL_SEA = """\
name: still_sea
grid: {x0: -50.0, dx: 0.05, n: 2000}
bathymetry: {kind: flat, b0: -1.0}
initial: {kind: gaussian_pulse, center: 3.0, width: 1.0, amplitude: 0.015}
solver: {t_end: 6.0, boundary: periodic, snapshot_interval: 2.0}
detector: {}
"""


def test_still_sea_run_writes_the_frozen_bytes(tmp_path, capsys, monkeypatch):
    # Only the first step of the run solves every interface; the others
    # solve the active window's.
    interfaces = []
    hll = solver._hll

    def counted_hll(wl, *args, **kwargs):
        interfaces.append(wl.size)
        return hll(wl, *args, **kwargs)

    monkeypatch.setattr(solver, "_hll", counted_hll)
    cfg = tmp_path / "still_sea.cfg"
    cfg.write_text(STILL_SEA)
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    cells = 2000
    assert interfaces[0] == cells + 1
    assert len(interfaces) > 100
    assert max(interfaces[1:]) < cells + 1
    run_dir = tmp_path / "out" / "still_sea"
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
    }
    assert got == json.loads((DATA / "still_sea_digests.json").read_text())
    _, final, _ = load_state(run_dir / max(n for n in got if n.startswith("snap_")))
    for still in (final.gamma_surface, final.velocity):
        assert not np.any(still[:100]) and not np.any(still[-100:])


class _StepLog:
    """Within a with block, solver.step records each call of run().

    windows holds each call's active window as (lo, hi), and states the
    state it returned. plant(k, state, window), when given, may replace the
    input state of call k (counted from 1) before the step sees it.
    """

    def __init__(self, plant=None):
        self.plant = plant
        self.windows = []
        self.states = []

    def __enter__(self):
        self.step = solver.step

        def logged(state, *args, _window, **kwargs):
            self.windows.append((_window.lo, _window.hi))
            if self.plant is not None:
                state = self.plant(len(self.windows), state, _window)
            out = self.step(state, *args, _window=_window, **kwargs)
            self.states.append(out)
            return out

        solver.step = logged
        return self

    def __exit__(self, *exc):
        solver.step = self.step
        return False


def _error_fields(exc):
    return type(exc), str(exc), exc.node, exc.t, getattr(exc, "depth", None)


def _run_matches_whole_grid_steps(grid, bathy, initial, config, plant=None):
    """Compare run() with whole-grid step calls from the same start.

    Every state must match bit for bit, and a failure must match in class,
    message, node, t, depth and step. Returns the windows run() used.
    """
    failure = None
    with _StepLog(plant) as log, np.errstate(all="ignore"):
        try:
            solver.run(initial, bathy, grid, config)
        except (NearDryError, NumericBlowUpError) as exc:
            failure = exc
    state = initial
    with np.errstate(all="ignore"):
        for k in range(1, len(log.windows) + 1):
            if plant is not None:
                state = plant(k, state, None)
            try:
                want = solver.step(state, bathy, grid, config, dt_max=config.t_end - state.t)
            except (NearDryError, NumericBlowUpError) as exc:
                assert failure is not None and failure.step == k
                assert _error_fields(failure) == _error_fields(exc)
                return log.windows
            got = log.states[k - 1]
            assert got.t == want.t
            assert _same_bits(got.gamma_surface, want.gamma_surface)
            assert _same_bits(got.velocity, want.velocity)
            state = want
    assert failure is None
    return log.windows


def _steps_in(state, bathy, grid, config, steps):
    """t_end for about the given number of steps from state."""
    w = state.gamma_surface - bathy.eval(grid.x)
    fastest = float(np.max(np.abs(state.velocity) + np.sqrt(w)))
    return steps * config.cfl * grid.dx / fastest


@st.composite
def _disturbed_lakes(draw):
    """A lake at a random level, disturbed over one range or not at all.

    The range may touch either end, both or neither; the run is long
    enough for a disturbance near an end to reach it part-way through.
    """
    n = draw(st.integers(12, 64))
    grid = Grid(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.02, 0.3)), n)
    bathy = _draw_bed(draw, grid, ["flat", "tanh", "sampled"])
    level = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    surface = np.full(n, level)
    velocity = np.zeros(n)
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    depth = level - bathy.eval(grid.x[lo:hi])
    surface[lo:hi] += rng.uniform(-0.3, 0.3, hi - lo) * depth
    velocity[lo:hi] = rng.uniform(-0.3, 0.3, hi - lo)
    state = FlowState(0.0, surface, velocity)
    config = solver.SolverConfig(
        t_end=1.0,
        cfl=draw(st.floats(0.1, 0.9)),
        boundary=draw(st.sampled_from(solver.BOUNDARY_KINDS)),
        second_order=draw(st.booleans()),
        flux_perturbation=draw(st.sampled_from([0.0, 0.0, 0.05])),
    )
    config.t_end = _steps_in(state, bathy, grid, config, draw(st.integers(1, 40)))
    return grid, bathy, state, config


@settings(deadline=None, max_examples=80)
@given(_disturbed_lakes())
def test_run_with_its_window_matches_whole_grid_steps(case):
    _run_matches_whole_grid_steps(*case)


def _pulse_in_a_still_sea(n=240, center=0.5, boundary="periodic", steps=60):
    grid = Grid(0.0, 0.05, n)
    bathy = TanhSafe(1.0, 0.5)
    x = grid.x
    # Zero beyond 10 cells of its crest, where a Gaussian's tail would not be.
    hump = 0.01 * np.maximum(1.0 - ((x - x[int(center * n)]) / 0.5) ** 2, 0.0) ** 2
    state = FlowState(0.0, hump, 0.5 * hump)
    config = solver.SolverConfig(t_end=1.0, boundary=boundary)
    config.t_end = _steps_in(state, bathy, grid, config, steps)
    return grid, bathy, state, config


@pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
def test_window_grows_shrinks_and_closes_at_an_end(boundary):
    # A pulse 30 cells from the right end, and 20 cells to its left a
    # speck below rounding that the first step flushes to the still level:
    # the window spans both, shrinks once the speck is still, follows the
    # pulse, and the whole grid takes over when the pulse nears the end.
    grid, bathy, state, config = _pulse_in_a_still_sea(
        center=0.75, boundary=boundary, steps=200
    )
    state.gamma_surface[160] = 1e-20
    windows = _run_matches_whole_grid_steps(grid, bathy, state, config)
    n = grid.n
    sizes = [hi - lo for lo, hi in windows]
    assert sizes[0] == n
    windowed = [k for k, size in enumerate(sizes) if size < n]
    assert windowed[0] == 1 and len(windowed) > 20
    assert sizes[windowed[-1] + 1 :] and set(sizes[windowed[-1] + 1 :]) == {n}
    assert sizes[2] < sizes[1] and sizes[3] > sizes[2]


@pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
def test_still_lake_steps_one_cell_after_the_first_step(boundary):
    grid = Grid(-3.0, 0.05, 120)
    bathy = TanhSafe(1.0, 0.5)
    state = solver.initial_lake_at_rest(grid)
    config = solver.SolverConfig(t_end=1.0, boundary=boundary)
    config.t_end = _steps_in(state, bathy, grid, config, 20)
    windows = _run_matches_whole_grid_steps(grid, bathy, state, config)
    assert windows[0] == (0, grid.n)
    assert len(windows) > 10 and set(windows[1:]) == {(2, 3)}


@pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
@pytest.mark.parametrize(
    "n, steps, fail",
    [(400, 200, False), (2000, 300, False), (2000, 300, True)],
    ids=["n400", "n2000", "n2000-drained"],
)
def test_window_frames_are_reused_at_scale(monkeypatch, boundary, n, steps, fail):
    # A pulse in the middle of a still sea of hundreds to thousands of
    # cells, with a speck below rounding 60 cells to each side that the
    # first step flushes: the window spans the specks, shrinks onto the
    # pulse and follows its two fronts outward, so each end of its frame
    # crosses block edges inward and outward. Every state, and a failure
    # planted late in the run, match whole-grid steps, and a frame is
    # bound only when its bounds change.
    builds = []
    frame_class = solver._Frame

    def counted(domain, block, lo, hi):
        if lo > 0:  # a window's frame; the whole grid's starts at 0
            builds.append((lo, hi))
        return frame_class(domain, block, lo, hi)

    monkeypatch.setattr(solver, "_Frame", counted)
    grid, bathy, state, config = _pulse_in_a_still_sea(n, 0.5, boundary, steps)
    for i in (n // 2 - 60, n // 2 + 60):
        state.gamma_surface[i] = 1e-20
    plant = _plant(steps - 20, _drain, bathy.eval(grid.x)) if fail else None
    windows = _run_matches_whole_grid_steps(grid, bathy, state, config, plant)
    if fail:  # the planted step raised, as the whole-grid step did
        assert len(windows) == steps - 20
    windowed = windows[1:]
    assert len(windowed) >= steps - 21
    assert all(hi - lo < n for lo, hi in windowed)
    assert all(2 < lo < hi < n - 2 for lo, hi in builds)
    assert 4 <= len(builds) <= len(windowed) // 4
    for ends in zip(*builds):
        moves = np.diff(ends)
        assert np.any(moves < 0) and np.any(moves > 0), ends


@pytest.mark.parametrize("moving", ["rw", "rm"])
def test_a_cell_with_a_nonzero_rate_stays_in_the_window(moving):
    # dt * 1e-300 underflows to 0, so the cell's state comes back unchanged,
    # yet a larger dt could move it: its rate alone keeps it in the window.
    # Rates of -0.0 count as zero.
    grid = Grid(0.0, 0.1, 40)
    config = solver.SolverConfig(t_end=1.0)
    window = solver._ActiveWindow(grid, config)
    frame = solver.prepare(Flat(-1.0), grid, config).whole
    state = solver.initial_lake_at_rest(grid)
    frame.rw[...] = -0.0
    frame.rm[...] = 0.0
    getattr(frame, moving)[20] = 1e-300
    window.note_rates(frame)
    window.advance(frame, state, state.gamma_surface.copy(), state.velocity.copy())
    assert window.open and (window.lo, window.hi) == (19, 22)


def _plant(at_step, change, b):
    """A plant for _StepLog: at call at_step, change(surface, velocity, b, i)
    a copy of the state at node i, the middle of the windowed run's active
    window; the whole-grid run takes the same node."""
    nodes = []

    def plant(k, state, window):
        if k != at_step:
            return state
        if window is not None:
            assert window.hi - window.lo < window.n
            nodes.append((window.lo + window.hi) // 2)
        state = state.copy()
        change(state.gamma_surface, state.velocity, b, nodes[0])
        return state

    return plant


def _drain(surface, velocity, b, i):
    # Seven columns just above h_min flowing apart from the middle one: the
    # step drains the two beside it below h_min.
    surface[i - 3 : i + 4] = b[i - 3 : i + 4] + 1.1e-6
    velocity[i - 3 : i + 4] = [-1.0, -1.0, -1.0, 0.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda s, u, b, i: s.__setitem__(i, b[i] + 0.5e-6), id="below-h_min"),
        pytest.param(lambda s, u, b, i: s.__setitem__(i, np.nan), id="nan-surface"),
        pytest.param(lambda s, u, b, i: u.__setitem__(i, np.nan), id="nan-velocity"),
        pytest.param(lambda s, u, b, i: u.__setitem__(i, 1e200), id="momentum-overflow"),
        pytest.param(_drain, id="drained"),
    ],
)
def test_window_failure_matches_the_whole_grid_step(change):
    grid, bathy, state, config = _pulse_in_a_still_sea()
    plant = _plant(5, change, bathy.eval(grid.x))
    _run_matches_whole_grid_steps(grid, bathy, state, config, plant)
    with pytest.raises((NearDryError, NumericBlowUpError)) as info:
        with _StepLog(plant) as log, np.errstate(all="ignore"):
            solver.run(state, bathy, grid, config)
    assert info.value.step == 5
    lo, hi = log.windows[-1]
    assert lo <= info.value.node < hi and hi - lo < grid.n


def test_windowed_steps_keep_the_workspace_and_peak_flat():
    # A few hundred windowed steps keep every array of the domain and the
    # window, and each allocates only the state it returns, whatever the
    # window's size.
    grid, bathy, state, config = _pulse_in_a_still_sea(n=2000, steps=300)
    n = grid.n
    domain = solver.prepare(bathy, grid, config)
    window = solver._ActiveWindow(grid, config)
    state = solver.step(state, bathy, grid, config, domain=domain, _window=window)
    arrays = _arrays_held(domain, window)
    sizes, peaks = set(), []
    tracemalloc.start()
    try:
        for _ in range(300):
            assert window.open
            sizes.add(window.hi - window.lo)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state = solver.step(state, bathy, grid, config, domain=domain, _window=window)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert len(sizes) > 10 and max(sizes) < n // 2
    assert domain.window_frame is not None
    _assert_same_arrays(arrays, _arrays_held(domain, window))
    assert max(peaks) <= 3 * n * np.dtype(float).itemsize, max(peaks) / (n * 8)


@pytest.mark.parametrize("flux_perturbation", [0.0, 0.05])
def test_second_order_step_allocates_only_the_state_it_returns(flux_perturbation):
    n = 12000
    grid = Grid(0.0, 0.01, n)
    bathy = TanhSafe(1.0, 0.5)
    config = solver.SolverConfig(
        t_end=1.0, second_order=True, flux_perturbation=flux_perturbation
    )
    hump = 0.01 * np.exp(-(((grid.x - 60.0) / 3.0) ** 2))
    domain = solver.prepare(bathy, grid, config)
    state = solver.step(FlowState(0.0, hump, hump.copy()), bathy, grid, config, domain=domain)
    tracemalloc.start()
    try:
        solver.step(state, bathy, grid, config, domain=domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * np.dtype(float).itemsize, peak / (n * 8)


@st.composite
def _wet_states(draw, boundary):
    """Random wet states, or lakes with still ends so the window engages."""
    n = draw(st.integers(12, 64))
    grid = Grid(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.02, 0.3)), n)
    bathy = _draw_bed(draw, grid, ["flat", "tanh", "sampled"])
    b = bathy.eval(grid.x)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        surface = b + rng.uniform(0.2, 2.0, n)
        velocity = rng.uniform(-0.5, 0.5, n)
    else:
        surface = np.full(n, draw(st.floats(-0.05, 0.05)))
        velocity = np.zeros(n)
        lo = draw(st.integers(3, n - 4))
        hi = draw(st.integers(lo, n - 3))
        surface[lo:hi] += rng.uniform(-0.3, 0.3, hi - lo) * (surface[lo:hi] - b[lo:hi])
        velocity[lo:hi] = rng.uniform(-0.5, 0.5, hi - lo)
    state = FlowState(0.0, surface, velocity)
    config = solver.SolverConfig(
        t_end=1.0,
        cfl=draw(st.floats(0.1, 0.9)),
        boundary=boundary,
        second_order=draw(st.booleans()),
    )
    config.t_end = _steps_in(state, bathy, grid, config, draw(st.integers(1, 40)))
    return grid, bathy, state, config


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_closed_boundaries_conserve_mass(boundary, data):
    grid, bathy, state, config = data.draw(_wet_states(boundary))
    b = bathy.eval(grid.x)
    result = solver.run(state, bathy, grid, config)
    mass0 = float(np.sum(state.gamma_surface - b))
    mass = float(np.sum(result.snapshots[-1].gamma_surface - b))
    assert abs(mass - mass0) <= 1e-10 * mass0


class _SearchLog:
    """Within a with block, records each detector search of run().

    calls holds (state, lo, hi, points) per search, points None for a
    search that raised; rows holds copies of the search's (gamma, p, p_x,
    pair marks) and its threshold after each search that returned.
    """

    def __enter__(self):
        self.search = solver._Search.__call__
        self.calls = []
        self.rows = []

        def logged(search, state, lo, hi):
            self.calls.append([state, lo, hi, None])
            fields, points = self.search(search, state, lo, hi)
            self.calls[-1][3] = list(points)
            rows = (fields.gamma, fields.p, fields.p_x, search.pairs)
            self.rows.append(([row.copy() for row in rows], fields.eps_px))
            return fields, points

        solver._Search.__call__ = logged
        return self

    def __exit__(self, *exc):
        solver._Search.__call__ = self.search
        return False


def _point_bits(points):
    return [(pt.x_star.hex(), pt.node_index, pt.b_x.hex(), pt.plateau) for pt in points]


def _whole_grid_search(state, bathy, grid, eps_px):
    inland = riemann.inland(state, bathy, grid, eps_px)
    return inland, detector.find_crossings(inland, bathy, grid)


def _assert_search_matches_whole_grid(log, bathy, grid, eps_px):
    """Every returned search of log has the rows, threshold and crossings
    of whole-grid inland + find_crossings, bit for bit."""
    for (state, _, _, points), (rows, eps) in zip(log.calls, log.rows):
        inland, want = _whole_grid_search(state, bathy, grid, eps_px)
        p_x = inland.p_x
        pairs = p_x[:-1] * p_x[1:] < 0
        for got, row in zip(rows, (inland.gamma, inland.p, p_x)):
            assert _same_bits(got, row)
        assert np.array_equal(rows[3], pairs)
        assert eps.hex() == inland.eps_px.hex()
        assert _point_bits(points) == _point_bits(want)


def _whole_grid_events(states, bathy, grid, eps_px, gamma_ref):
    """The events of a run through these post-step states, each searched
    over the whole grid, classified and logged at onset."""
    events, previous = [], []
    for state in states:
        inland, points = _whole_grid_search(state, bathy, grid, eps_px)
        found = [
            detector.classify(pt, inland, state, grid, gamma_ref=gamma_ref)
            for pt in points
        ]
        events += [
            ev
            for ev in found
            if not any(
                cls == ev.classification
                and regime == ev.depth_regime
                and abs(x - ev.x_star) <= 3.0 * grid.dx
                for cls, regime, x in previous
            )
        ]
        previous = [(ev.classification, ev.depth_regime, ev.x_star) for ev in found]
    return events


def _records(events):
    return [json.dumps(ev.to_record(), sort_keys=True) for ev in events]


@pytest.mark.parametrize("boundary", solver.BOUNDARY_KINDS)
@pytest.mark.parametrize("center", [0.1, 0.9])
def test_search_rows_match_the_whole_grid_up_to_the_ends(center, boundary):
    # A pulse running into an end: the window reaches cell 2 (or n - 2),
    # where the one-sided end stencil of p_x reads a cell that moved, on
    # the step before it closes.
    grid, bathy, state, config = _pulse_in_a_still_sea(
        n=240, center=center, boundary=boundary, steps=60
    )
    with _SearchLog() as log:
        solver.run(state, bathy, grid, config)
    windows = [tuple(call[1:3]) for call in log.calls]
    assert any(lo == 2 or hi == grid.n - 2 for lo, hi in windows)
    assert windows[-1] == (0, grid.n)
    _assert_search_matches_whole_grid(log, bathy, grid, None)


@settings(deadline=None, max_examples=80)
@given(_disturbed_lakes(), st.sampled_from([None, 1e-9, 1e-4, 0.05]))
def test_run_search_matches_the_whole_grid_search(case, eps_px):
    # On every step the run's search, which recomputes only what the step
    # changed, finds the crossings of whole-grid inland + find_crossings
    # bit for bit, fails as they fail, and logs the same events.
    grid, bathy, initial, config = case
    failure = result = None
    with _SearchLog() as log, np.errstate(all="ignore"):
        try:
            result = solver.run(
                initial, bathy, grid, config, detector.DetectorConfig(eps_px=eps_px)
            )
        except (NearDryError, NumericBlowUpError) as exc:
            failure = exc
    with np.errstate(all="ignore"):
        _assert_search_matches_whole_grid(log, bathy, grid, eps_px)
        if log.calls and log.calls[-1][3] is None:
            with pytest.raises(NearDryError) as whole:
                _whole_grid_search(log.calls[-1][0], bathy, grid, eps_px)
            assert _error_fields(failure) == _error_fields(whole.value)
            # The search of the state step k produced names step k.
            assert failure.step == len(log.calls)
            return
        if failure is not None:
            return
        gamma_ref = float(np.sqrt(np.max(initial.gamma_surface - bathy.eval(grid.x))))
        states = [state for state, _, _, _ in log.calls]
        events = _whole_grid_events(states, bathy, grid, eps_px, gamma_ref)
    assert _records(result.events) == _records(events)


def _lake_over_a_bump(crest):
    """A still lake over a bump whose crest sits between nodes 40 and 41
    (x = 2.0 and 2.05), where p_x changes sign."""
    grid = Grid(0.0, 0.05, 200)
    x = grid.x
    bathy = Sampled(x, -1.0 + 0.3 * np.exp(-(((x - crest) / 0.5) ** 2)))
    return grid, bathy, np.zeros(grid.n)


def test_search_finds_a_crossing_that_stays_outside_the_window():
    # A pulse far to the right of the bump keeps the window away from its
    # crossing on every step.
    grid, bathy, surface = _lake_over_a_bump(2.013)
    surface[140:161] = 0.01 * np.sin(np.linspace(0.0, np.pi, 21)) ** 2
    state = FlowState(0.0, surface, 0.5 * surface)
    config = solver.SolverConfig(t_end=1.0, boundary="reflective")
    config.t_end = _steps_in(state, bathy, grid, config, 24)
    with _SearchLog() as log:
        solver.run(state, bathy, grid, config)
    assert len(log.calls) >= 24 and log.calls[0][1:3] == [0, grid.n]
    at_bump = set()
    for _, lo, hi, points in log.calls[1:]:
        assert 45 < lo and hi < grid.n - 2
        (bump,) = [pt for pt in points if pt.node_index == 40]
        at_bump.add(_point_bits([bump])[0])
    assert len(at_bump) == 1
    _assert_search_matches_whole_grid(log, bathy, grid, None)


def _drain_to_one_ulp(k, state, window):
    """A plant for _StepLog: at call 3, seven one-ulp columns flowing apart
    from node 60, the middle of a pulse in a thin lake on a bed at -2**40."""
    if k != 3:
        return state
    state = state.copy()
    state.gamma_surface[57:64] = -(2.0**40) + 2.0**-13
    state.velocity[57:64] = [-0.5, -0.5, -0.5, 0.0, 0.5, 0.5, 0.5]
    return state


def test_search_dry_column_matches_the_whole_grid_search(monkeypatch):
    # On a bed at -2**40 one ulp of the surface is 2**-13: the step drains
    # the middle column to a thickness above h_min but below half an ulp,
    # so the search reads (w_new + b) - b = 0 there. The error matches that
    # of a run whose window never leaves the whole grid, in message, node,
    # t, depth and step.
    bed = -(2.0**40)
    grid = Grid(0.0, 0.05, 120)
    bathy = Flat(bed)
    surface = np.full(grid.n, bed + 2.0**-6)
    surface[55:66] += 2.0**-9
    state = FlowState(0.0, surface, np.zeros(grid.n))
    config = solver.SolverConfig(t_end=1.0, cfl=0.9, boundary="periodic", h_min=1e-12)
    with _StepLog(_drain_to_one_ulp), _SearchLog() as log:
        with pytest.raises(NearDryError) as windowed:
            solver.run(state, bathy, grid, config)
    _, lo, hi, points = log.calls[-1]
    assert points is None and len(log.calls) == 3 and hi - lo < grid.n
    assert lo <= windowed.value.node < hi
    assert str(windowed.value).startswith("dry column at node")
    monkeypatch.setattr(solver._ActiveWindow, "advance", lambda *args: None)
    with _StepLog(_drain_to_one_ulp), _SearchLog() as log:
        with pytest.raises(NearDryError) as whole:
            solver.run(state, bathy, grid, config)
    assert [call[1:3] for call in log.calls] == [[0, grid.n]] * 3
    assert _error_fields(windowed.value) == _error_fields(whole.value)
    assert windowed.value.step == whole.value.step == 3


def test_search_follows_a_front_over_a_crossing():
    # With the crest just left of node 41, p_x[41] is small. A surge from
    # node 44 moves node 42, the left edge cell of the first windowed step,
    # enough to flip the sign of p_x[41], so the pair (40, 41), left of the
    # rewritten p_x, must be marked again.
    grid, bathy, surface = _lake_over_a_bump(2.0499)
    surface[44:60] = 0.2
    state = FlowState(0.0, surface, np.zeros(grid.n))
    config = solver.SolverConfig(t_end=1.0, boundary="reflective")
    config.t_end = _steps_in(state, bathy, grid, config, 10)
    with _SearchLog() as log:
        solver.run(state, bathy, grid, config)
    assert all(hi - lo < grid.n for _, lo, hi, _ in log.calls[1:])
    _assert_search_matches_whole_grid(log, bathy, grid, None)


@pytest.mark.parametrize("eps_px", [None, 1e-6])
def test_windowed_search_allocates_no_row_per_step(eps_px):
    # The smallest n-sized array, a bool row, takes n bytes.
    grid, bathy, state, config = _pulse_in_a_still_sea(n=12000, steps=100)
    n = grid.n
    domain = solver.prepare(bathy, grid, config)
    window = solver._ActiveWindow(grid, config)
    search = solver._Search(bathy, grid, domain, eps_px)
    state = solver.step(state, bathy, grid, config, domain=domain, _window=window)
    search(state, 0, n)
    arrays = _arrays_held(domain, window, search)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(100):
            assert window.open
            lo, hi = window.lo, window.hi
            state = solver.step(
                state, bathy, grid, config, domain=domain, _window=window
            )
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            search(state, lo, hi)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert domain.window_frame is not None
    _assert_same_arrays(arrays, _arrays_held(domain, window, search))
    assert max(peaks) < n, max(peaks)


# The step fuses its checks. Checked one array at a time, in the order the
# step names them, they are: the starting w for h_min, w and u for
# non-finite values, then the new w and m for non-finite values and the new
# w for h_min. The step must raise what that sequence raises.

PLANTED = [np.nan, np.inf, -np.inf, 1e200, -1e200, 1.7e308, -1.7e308]
# (row 0 or 1, position in the row or window, value)
_PLANT = st.tuples(
    st.integers(0, 1), st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(PLANTED)
)


def _checked_reference_step(state, bathy, grid, config, cells, dt_max, plant_rates):
    """A first-order step of the cells (a slice) of state by the reference
    kernel, checked one array at a time; plant_rates(rw, rm, 0) may change
    the whole-grid rates first."""
    b = bathy.eval(grid.x)
    t, lo = state.t, cells.start
    w = state.gamma_surface - b
    u = state.velocity
    fields.require_wet(w[cells], t, solver.BELOW_H_MIN, config.h_min, first_node=lo)
    solver._require_finite(w[cells], t, "thickness", lo)
    solver._require_finite(u[cells], t, "velocity", lo)
    dt = min(config.cfl * grid.dx / float(np.max(np.abs(u) + np.sqrt(w))), dt_max)
    m = w * u
    rw, rm = _ref_rhs(w, m, b, grid, config, t, bathy)
    plant_rates(rw, rm, 0)
    w_new = (w + dt * rw)[cells]
    m_new = (m + dt * rm)[cells]
    t_new = t + dt
    solver._require_finite(w_new, t_new, "thickness", lo)
    solver._require_finite(m_new, t_new, "momentum", lo)
    fields.require_wet(w_new, t_new, solver.BELOW_H_MIN, config.h_min, first_node=lo)
    surface, velocity = state.gamma_surface.copy(), state.velocity.copy()
    surface[cells] = w_new + b[cells]
    velocity[cells] = m_new / w_new
    return FlowState(t_new, surface, velocity)


@st.composite
def _planted_runs(draw):
    """A first-order disturbed lake, the step to plant at, what to plant in
    (the state, or the rates that make the new w and m) and the plants as
    (row 0 or 1, position in the window, value)."""
    grid, bathy, state, config = draw(_disturbed_lakes())
    config.second_order = False
    at_step = draw(st.integers(1, 8))
    target = draw(st.sampled_from(["state", "rates"]))
    plants = draw(st.lists(_PLANT, min_size=1, max_size=4))
    return grid, bathy, state, config, at_step, target, plants


@settings(deadline=None, max_examples=150)
@given(_planted_runs())
@example(
    # Finite momentum rates near the float maximum: the step passes its
    # checks, and p_x then overflows beside a sign change.
    (
        Grid(1.0, 0.25, 12),
        TanhSafe(0.5, 0.5),
        FlowState(0.0, np.zeros(12), np.zeros(12)),
        solver.SolverConfig(
            t_end=0.15885230261600933, cfl=0.5, boundary="transmissive"
        ),
        1,
        "rates",
        [(1, 0.0, 1.7e308), (1, 0.125, 1.7e308)],
    )
)
def test_fused_checks_raise_what_checking_each_array_in_turn_raises(case):
    # Values planted in the surface and velocity of the state a step reads,
    # or in its rates, at nodes of its window.
    grid, bathy, initial, config, at_step, target, plants = case
    calls, outputs = [], []

    def plant(rows, lo, hi, offset):
        for row, where, value in plants:
            rows[row][lo + int(where * (hi - lo)) - offset] = value

    def plant_rates(rw, rm, offset):
        if target == "rates":
            _, lo, hi, _, _ = calls[at_step - 1]
            plant((rw, rm), lo, hi, offset)

    step, rhs = solver.step, solver._rhs

    def planted_step(state, *args, _window, domain, **kwargs):
        lo, hi = _window.lo, _window.hi
        if len(calls) + 1 == at_step and target == "state":
            state = state.copy()
            plant((state.gamma_surface, state.velocity), lo, hi, 0)
        # The step computes and checks the cells of the window's frame.
        frame = domain.whole if hi - lo == grid.n else domain.frame(lo, hi)
        calls.append((state, lo, hi, frame.cells, kwargs["dt_max"]))
        outputs.append(step(state, *args, _window=_window, domain=domain, **kwargs))
        return outputs[-1]

    def planted_rhs(frame, *args):
        rw, rm = rhs(frame, *args)
        if len(calls) == at_step:
            plant_rates(rw, rm, frame.lo)
        return rw, rm

    solver.step, solver._rhs = planted_step, planted_rhs
    failure = None
    try:
        with np.errstate(all="ignore"):
            solver.run(initial, bathy, grid, config)
    except (NearDryError, NumericBlowUpError) as exc:
        failure = exc
    finally:
        solver.step, solver._rhs = step, rhs
    assume(len(calls) >= at_step)
    state, _, _, cells, dt_max = calls[at_step - 1]
    try:
        with np.errstate(all="ignore"):
            want = _checked_reference_step(
                state, bathy, grid, config, cells, dt_max, plant_rates
            )
    except (NearDryError, NumericBlowUpError) as exc:
        assert failure is not None and failure.step == at_step
        assert len(outputs) == at_step - 1
        assert _error_fields(failure) == _error_fields(exc)
        return
    assert len(outputs) >= at_step
    got = outputs[at_step - 1]
    assert got.t == want.t
    assert _same_bits(got.gamma_surface, want.gamma_surface)
    assert _same_bits(got.velocity, want.velocity)


@settings(deadline=None, max_examples=300)
@example(size=4, plants=[(0, 0.0, 1.7e308), (0, 0.5, 1.7e308)], first_node=3)
@given(st.integers(1, 30), st.lists(_PLANT, max_size=4), st.integers(0, 50))
def test_one_sum_over_both_rows_checks_what_each_row_checks(size, plants, first_node):
    # Finite rows whose sum overflows raise nothing.
    block = np.linspace(-1.0, 1.0, 2 * size).reshape(2, size)
    for row, where, value in plants:
        block[row, int(where * size)] = value
    names = ("thickness", "momentum")
    with np.errstate(all="ignore"):
        try:
            for row, what in zip(block, names):
                solver._require_finite(row, 0.5, what, first_node)
        except NumericBlowUpError as exc:
            with pytest.raises(NumericBlowUpError) as fused:
                solver._require_finite_rows(block, 0.5, names, first_node)
            assert _error_fields(fused.value) == _error_fields(exc)
        else:
            solver._require_finite_rows(block, 0.5, names, first_node)


def _reflective_shelf(steps):
    """The bundled shelf run's grid, bed and pulse, for about the given
    number of steps: its wall cells move from the first step, so every
    step takes the whole grid."""
    grid = Grid(-8.0, 0.01, 1200)
    bathy = TanhSafe(0.02, 1.99)
    state = solver.initial_gaussian_pulse(grid, bathy, -4.0, 1.0, 0.004)
    config = solver.SolverConfig(t_end=1.0, boundary="reflective")
    config.t_end = _steps_in(state, bathy, grid, config, steps)
    return grid, bathy, state, config


def test_run_loop_steps_allocate_only_the_states_they_return():
    # Each pass of the run's loop (step, search and assessment) allocates
    # only the state it returns.
    grid, bathy, state, config = _reflective_shelf(40)
    n = grid.n
    peaks, starts = [], []
    step = solver.step

    def measured(state, *args, domain, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if starts:
            peaks.append(peak - starts[-1])
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return step(state, *args, domain=domain, **kwargs)

    solver.step = measured
    tracemalloc.start()
    try:
        result = solver.run(state, bathy, grid, config)
    finally:
        tracemalloc.stop()
        solver.step = step
    assert result.steps == len(starts) >= 40
    # The run allocates its scratch rows before its first step, so the
    # first passes allocate no more than the later ones.
    assert max(peaks) <= 3 * n * np.dtype(float).itemsize, max(peaks) / (n * 8)


def test_a_step_ignores_what_a_search_read():
    # The search reads the state, which then changes in place: the step
    # reads the changed values, as a step of a copy on a fresh domain does.
    grid, bathy, state, config = _reflective_shelf(1)
    domain = solver.prepare(bathy, grid, config)
    solver._Search(bathy, grid, domain, None)(state, 0, grid.n)
    state.gamma_surface[400] += 1e-7
    fresh = solver.step(
        state.copy(), bathy, grid, config, domain=solver.prepare(bathy, grid, config)
    )
    got = solver.step(state, bathy, grid, config, domain=domain)
    assert got.t.hex() == fresh.t.hex()
    assert _same_bits(got.gamma_surface, fresh.gamma_surface)
    assert _same_bits(got.velocity, fresh.velocity)


def test_run_prints_no_numpy_warnings():
    # u = 1e300 overflows inside the flux solve before the finite check
    # reports it; a library caller sees only the error.
    grid = Grid(0.0, 0.1, 40)
    u = np.zeros(40)
    u[20] = 1e300
    state = FlowState(0.0, np.zeros(40), u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericBlowUpError) as info:
            solver.run(state, Flat(-1.0), grid, solver.SolverConfig(t_end=1.0))
    assert (info.value.node, info.value.step) == (20, 1)


def _nudge_every_third_step():
    """A plant for _StepLog: at every third call, a copy of the state whose
    surface is raised by 1e-7 at the middle of the active window, where the
    search that read the original never saw it; the whole-grid run nudges
    the same node."""
    nodes = {}

    def plant(k, state, window):
        if k % 3:
            return state
        if window is not None:
            nodes[k] = (window.lo + window.hi) // 2
        state = state.copy()
        state.gamma_surface[nodes[k]] += 1e-7
        return state

    return plant


@pytest.mark.parametrize("setup", [_reflective_shelf, _pulse_in_a_still_sea])
def test_a_state_replaced_after_its_search_is_stepped_from_its_own_values(setup):
    grid, bathy, state, config = setup(steps=30)
    windows = _run_matches_whole_grid_steps(
        grid, bathy, state, config, _nudge_every_third_step()
    )
    assert len(windows) >= 30


def test_shelf_rush_events_follow_the_papers_sign_rule(monkeypatch):
    """Every rush event of the bundled shelf run has the sign of b_x / p_x
    that the paper gives its class on the two nodes around x_star: + then -
    for an InlandRush (+inf just before the crest), - then + for an
    OffshoreRush (-inf just after the trough)."""
    root = importlib.resources.files("shoalwave") / "scenarios"
    cfg = cli.load_config(root / "shoaling_pulse.cfg")
    grid, bathy = cfg.build_grid(), cfg.build_bathymetry()
    rushes = []
    classify = solver.classify

    def recorded_classify(point, inland, state, *args, **kwargs):
        event = classify(point, inland, state, *args, **kwargs)
        if event.classification in solver.RUSH_CLASSES:
            # The run's inland rows are the search's own, which the next
            # step rewrites.
            rushes.append((event.classification, point, inland.p_x.copy(), state))
        return event

    monkeypatch.setattr(solver, "classify", recorded_classify)
    initial = cfg.build_initial(grid, bathy)
    solver.run(
        initial, bathy, grid, cfg.build_solver_config(), cfg.build_detector_config()
    )
    inland_rush = detector.Classification.INLAND_RUSH
    assert {cls for cls, *_ in rushes} == set(solver.RUSH_CLASSES)
    b_x = bathy.slope(grid.x)
    for cls, point, p_x, state in rushes:
        np.testing.assert_array_equal(p_x, riemann.inland(state, bathy, grid).p_x)
        i = point.node_index
        assert grid.x[i] <= point.x_star <= grid.x[i + 1]
        before, after = b_x[i : i + 2] / p_x[i : i + 2]
        if cls is inland_rush:
            assert before > 0.0 > after
        else:
            assert before < 0.0 < after
