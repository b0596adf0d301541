import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoalwave import analytic, detector, fields, solver
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
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(8, 40))
    grid = Grid(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.02, 0.3)), n)
    kind = draw(st.sampled_from(["tanh", "linear", "sampled"]))
    if kind == "tanh":
        bathy = TanhSafe(draw(st.floats(0.1, 1.0)), draw(st.floats(0.05, 0.5)))
    elif kind == "linear":
        bathy = Linear(draw(st.floats(-2.0, -1.0)), draw(st.floats(-0.2, 0.2)))
    else:
        # Spans the ghost cells too, which an inflow evaluates the bed at.
        xs = np.linspace(grid.x0 - 3 * grid.dx, grid.x_last + 3 * grid.dx, n + 6)
        bs = -1.5 + 0.4 * np.sin(draw(st.floats(0.5, 3.0)) * xs)
        bathy = Sampled(xs, bs)
    b = bathy.eval(grid.x)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Lake at rest, where identical interface states short-circuit.
        surface = np.zeros(n)
        velocity = np.zeros(n)
    else:
        surface = b + rng.uniform(0.05, 1.5, n)
        velocity = rng.uniform(-0.5, 0.5, n)
        velocity[rng.random(n) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
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


def _domain_arrays(domain):
    """Every array a prepared domain holds, its workspace included."""
    fixed = [domain.x, domain.b, domain.b_e, domain.bed_left, domain.bed_right]
    return fixed + list(domain.ghost_x) + list(domain.work._arrays.values())


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
    # The first step fills the workspace; the later ones reuse it.
    state = solver.step(FlowState(0.0, hump, hump.copy()), bathy, grid, config, domain=domain)
    tracemalloc.start()
    try:
        solver.step(state, bathy, grid, config, domain=domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * np.dtype(float).itemsize, peak / (n * 8)


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
    assert (evals_long, x_long) == (evals_short, x_short)


def test_run_builds_no_whole_grid_gradients(monkeypatch):
    # A shoaling stretch whose crossings all sit away from the grid ends:
    # classify reads six nodes around each, so the run never builds the
    # whole-grid surface gradients or second derivative. Both are counted
    # wherever a module binds them.
    grid, state, b = load_state(DATA / "shoaling_alert_state.csv")
    bathy = Sampled(grid.x, b)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module in (detector, fields, solver):
        for name in ("surface_gradients", "d2dx2"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    result = solver.run(
        state, bathy, grid, solver.SolverConfig(t_end=0.05), detector.DetectorConfig()
    )
    assert result.steps > 10
    assert result.events
    assert calls == []
