from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from shoalwave import analytic, detector, fields, riemann
from shoalwave.bathymetry import Flat, Linear, Sampled, TanhSafe
from shoalwave.detector import (
    Classification,
    CriticalPoint,
    DegenerateRegime,
    DegenerateSpec,
    DepthRegime,
    Side,
)
from shoalwave.errors import NumericBlowUpError
from shoalwave.fields import FlowState, Grid

from conftest import build_crossing

DATA = Path(__file__).parent / "data"


def detect_events(grid, state, bathy, gamma_ref=None):
    f = riemann.compute(state, bathy, grid)
    points = detector.find_critical_points(f, bathy, grid, f.eps_px)
    return [detector.classify(pt, f, state, grid, gamma_ref=gamma_ref) for pt in points]


class TestDegenerateTruthTable:
    @pytest.mark.parametrize(
        "p_exp,q_exp,B1,C1,expected",
        [
            (1, 2, 0.5, 0.5, DegenerateRegime.ORDER_SQRT_DEPTH),
            (2, 1, 0.5, 0.3, DegenerateRegime.VANISHING_CORRECTION),
            (2, 2, 0.5, 0.3, DegenerateRegime.ORDER_SQRT_DEPTH),
            (2, 2, 0.5, 0.5, DegenerateRegime.SIGNED_INFINITY),
        ],
    )
    def test_rows(self, p_exp, q_exp, B1, C1, expected):
        spec = DegenerateSpec(p_exp=p_exp, q_exp=q_exp, B1=B1, C1=C1)
        assert detector.classify_degenerate(spec) is expected

    def test_equal_leading_terms_need_exact_match(self):
        spec = DegenerateSpec(p_exp=3, q_exp=3, B1=-1.25, C1=-1.25)
        assert detector.classify_degenerate(spec) is DegenerateRegime.SIGNED_INFINITY

    def test_rejects_flat_bed_point(self):
        with pytest.raises(ValueError):
            DegenerateSpec(p_exp=1, q_exp=1, B1=0.0, C1=1.0)

    @pytest.mark.parametrize("name", ["B1", "C1", "gamma_local"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_numbers(self, name, value):
        numbers = {"B1": 1.0, "C1": 1.0, "gamma_local": 1.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            DegenerateSpec(p_exp=1, q_exp=1, **numbers)

    @pytest.mark.parametrize("p_exp,q_exp", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_nonvanishing_orders(self, p_exp, q_exp):
        with pytest.raises(ValueError):
            DegenerateSpec(p_exp=p_exp, q_exp=q_exp, B1=1.0, C1=1.0)


class TestCrossingClassification:
    def test_inland_rush_fixture(self, inland_setup):
        grid, state, bathy = inland_setup
        events = detect_events(grid, state, bathy)
        assert len(events) == 1
        ev = events[0]
        assert ev.classification is Classification.INLAND_RUSH
        assert ev.side is Side.CREST
        assert abs(ev.x_star) <= grid.dx / 2
        assert ev.diagnostics.u_x < 0
        assert ev.diagnostics.excess_slope > 0

    def test_offshore_rush_fixture(self, offshore_setup):
        grid, state, bathy = offshore_setup
        events = detect_events(grid, state, bathy)
        assert len(events) == 1
        ev = events[0]
        assert ev.classification is Classification.OFFSHORE_RUSH
        assert ev.side is Side.TROUGH
        assert abs(ev.x_star) <= grid.dx / 2

    def test_weak_excess_growth_downgrades_offshore(self, offshore_weak_setup):
        # Same trough-side crossing, but the excess-slope growth 0.015 sits
        # below the rush gate 0.5 * u_x**2 = 0.02.
        grid, state, bathy = offshore_weak_setup
        events = detect_events(grid, state, bathy)
        assert len(events) == 1
        ev = events[0]
        assert ev.classification is Classification.INDETERMINATE
        assert ev.side is Side.TROUGH

    def test_classification_survives_pure_velocity_rescale(self):
        # All crest-side conditions and both side tests are sign checks, so
        # stretching or shrinking the velocity field cannot change the call.
        # Only the trough-side magnitude gate moves, and these scales keep
        # it satisfied.
        for u_scale in (0.25, 1.0, 2.5):
            grid, state, bathy = build_crossing(
                u_x=-0.2, u_xx=-0.5, s_x=-0.3, u_scale=u_scale
            )
            events = detect_events(grid, state, bathy)
            assert len(events) == 1, u_scale
            assert events[0].classification is Classification.INLAND_RUSH, u_scale
        for u_scale in (0.5, 1.0, 2.0):
            grid, state, bathy = build_crossing(
                u_x=0.2, u_xx=0.5, s_x=0.5, u_scale=u_scale
            )
            events = detect_events(grid, state, bathy)
            assert len(events) == 1, u_scale
            assert events[0].classification is Classification.OFFSHORE_RUSH, u_scale

    def test_rescaling_velocity_restores_rush(self):
        # The gate threshold 0.5 * u_x**2 shrinks quadratically under a
        # velocity rescale while the excess-slope growth is untouched, so
        # the weak fixture flips back to a genuine rush below the scale
        # sqrt(2 * 0.015) / 0.2 = 0.866.
        for u_scale, expected in [
            (0.75, Classification.OFFSHORE_RUSH),
            (0.95, Classification.INDETERMINATE),
            (1.0, Classification.INDETERMINATE),
        ]:
            grid, state, bathy = build_crossing(
                u_x=0.2, u_xx=0.5, s_x=0.015, u_scale=u_scale
            )
            events = detect_events(grid, state, bathy)
            assert len(events) == 1, u_scale
            assert events[0].classification is expected, u_scale

    def test_depth_regime_tracks_reference(self):
        grid, state, bathy = build_crossing(gamma0=1.5)
        for gamma_ref, regime in [
            (2.0, DepthRegime.DEEP),
            (4.0, DepthRegime.INTERMEDIATE),
            (16.0, DepthRegime.SHALLOW),
        ]:
            events = detect_events(grid, state, bathy, gamma_ref=gamma_ref)
            assert len(events) == 1
            assert events[0].classification is Classification.INLAND_RUSH
            assert events[0].depth_regime is regime

    def test_featureless_point_reads_indeterminate_unknown(self):
        # With every local quantity zero there is nothing to lean on: no
        # crest, no trough, no rush. The classifier must say so rather than
        # guess.
        g = Grid(-1.0, 0.01, 201)
        bathy = Flat(-1.0)
        state = FlowState(0.0, np.full(201, 0.5), np.zeros(201))
        f = riemann.compute(state, bathy, g)
        point = CriticalPoint(0.0, 100, False, float(bathy.slope(0.0)))
        ev = detector.classify(point, f, state, g)
        assert ev.classification is Classification.INDETERMINATE
        assert ev.side is Side.UNKNOWN
        d = ev.diagnostics
        assert (d.u_x, d.u_xx, d.excess_slope, d.excess_slope_x) == (
            0.0,
            0.0,
            0.0,
            0.0,
        )

    def test_thin_column_crossing_reads_shallow_against_unit_reference(
        self, inland_setup
    ):
        grid, state, bathy = inland_setup
        ev = detect_events(grid, state, bathy, gamma_ref=1.0)[0]
        assert ev.diagnostics.gamma == pytest.approx(0.05, abs=5e-3)
        assert ev.depth_regime is DepthRegime.SHALLOW

    def test_event_record_is_json_ready(self, inland_setup):
        grid, state, bathy = inland_setup
        ev = detect_events(grid, state, bathy)[0]
        rec = ev.to_record(run_id="fixture")
        assert rec["classification"] == "InlandRush"
        assert rec["side"] == "CrestSide"
        assert rec["run_id"] == "fixture"
        assert set(rec) >= {"t", "x_star", "u_x", "u_xx", "gamma", "b_x"}

    def test_inland_fields_give_the_same_events(self):
        # A shoaling snapshot with two crossings. The run loop searches and
        # classifies from the inland fields alone; the points and events
        # must equal those of the full fields.
        grid, state, b = fields.load_state(DATA / "shoaling_alert_state.csv")
        bathy = Sampled(grid.x, b)
        full = riemann.compute(state, bathy, grid)
        inland = riemann.inland(state, bathy, grid)
        for name in ("gamma", "p", "p_x", "eps_px"):
            assert np.array_equal(getattr(inland, name), getattr(full, name)), name
        points = detector.find_critical_points(inland, bathy, grid, inland.eps_px)
        assert len(points) == 2
        assert points == detector.find_critical_points(full, bathy, grid, full.eps_px)
        for pt in points:
            assert detector.classify(pt, inland, state, grid) == detector.classify(
                pt, full, state, grid
            )


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def _wet_states(draw):
    n = draw(st.integers(8, 64))
    grid = Grid(draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 0.5)), n)
    kind = draw(st.sampled_from(["tanh", "linear", "sampled"]))
    if kind == "tanh":
        bathy = TanhSafe(draw(st.floats(0.1, 1.0)), draw(st.floats(0.05, 0.5)))
    elif kind == "linear":
        bathy = Linear(draw(st.floats(-2.0, -1.0)), draw(st.floats(-0.2, 0.2)))
    else:
        xs = np.linspace(grid.x0 - grid.dx, grid.x_last + grid.dx, n + 2)
        bathy = Sampled(xs, -1.5 + 0.4 * np.sin(draw(st.floats(0.5, 3.0)) * xs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Column thickness over several decades, so gamma spans thin and deep.
    surface = bathy.eval(grid.x) + 10.0 ** rng.uniform(-6.0, 0.5, n)
    velocity = rng.uniform(-1.0, 1.0, n)
    # Zeros of both signs, so that differences can round to -0.0.
    zeros = rng.random(n) < 0.3
    velocity[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    fractions = rng.random(n - 1)
    return grid, bathy, FlowState(0.0, surface, velocity), fractions


@settings(deadline=None, max_examples=100)
@given(_wet_states())
def test_local_classification_matches_the_whole_grid_path(case):
    # Every bracket, ends included, with x_star inside it and on both of
    # its nodes (the last one too): the node window must give what
    # np.interp over whole-grid ddx/d2dx2 arrays gives, bit for bit.
    grid, bathy, state, fractions = case
    inland = riemann.inland(state, bathy, grid)
    gamma, u = inland.gamma, state.velocity
    excess = 2.0 * gamma * fields.ddx(gamma, grid)
    whole = (
        fields.ddx(u, grid),
        fields.d2dx2(u, grid),
        excess,
        fields.ddx(excess, grid),
        gamma,
    )
    x = grid.x
    for j, frac in enumerate(fractions):
        inside = min(max(x[j] + frac * (x[j + 1] - x[j]), x[j]), x[j + 1])
        for x_star in (float(x[j]), float(inside), float(x[j + 1])):
            got = np.array(detector._local_diagnostics(x_star, gamma, u, grid, x))
            want = np.array([np.interp(x_star, x, arr) for arr in whole])
            assert _same_bits(got, want), (j, x_star, got, want)


def _signed(lo, hi):
    return st.builds(lambda m, neg: -m if neg else m, st.floats(lo, hi), st.booleans())


@settings(deadline=None, max_examples=200)
@given(
    u_x=_signed(0.05, 1.0),
    gamma0=st.floats(0.02, 2.0),
    u0=st.floats(-1.0, 1.0),
    u_xx=st.floats(-2.0, 2.0),
    s_x=st.floats(-2.0, 2.0),
    b0=st.floats(-1.0, 1.0),
    b1=_signed(0.01, 0.5),
    n=st.integers(4, 100).map(lambda k: 2 * k),
    dx=st.floats(1e-4, 1e-2),
    u_scale=st.floats(0.25, 4.0),
)
def test_planted_crossing_is_found_within_half_a_cell(**params):
    # build_crossing plants a zero of p_x at x = 0, midway between nodes
    # n/2 - 1 and n/2. Where p_x changes sign between them and both clear
    # eps_px, the search must report a crossing, not a plateau, within dx/2.
    try:
        grid, state, bathy = build_crossing(**params)
    except AssertionError:  # the parameters dried the column
        reject()
    f = riemann.inland(state, bathy, grid)
    left, right = f.p_x[grid.n // 2 - 1 : grid.n // 2 + 1]
    resolved = min(abs(left), abs(right)) > f.eps_px and left * right < 0.0
    points = detector.find_critical_points(f, bathy, grid, f.eps_px)
    found = [p for p in points if not p.plateau and abs(p.x_star) <= grid.dx / 2]
    assert found or not resolved, (points, f.eps_px)


def _plain_crossings(px, eps, bathy, x, dx):
    """find_crossings as plain whole-row expressions."""
    resolved = ~(np.abs(px) <= eps)
    crossing = (px[:-1] * px[1:] < 0) & resolved[:-1] & resolved[1:]
    points = []
    for i in np.nonzero(crossing)[0]:
        x_star = x[i] + dx * px[i] / (px[i] - px[i + 1])
        b_x = float(bathy.slope(x_star))
        if not abs(b_x) <= eps:
            points.append((float(x_star).hex(), int(i), b_x.hex()))
    return sorted(points, key=lambda pt: float.fromhex(pt[0]))


_GRADIENTS = st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, np.nan]) | st.floats(
    -2.0, 2.0
)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(8, 40).flatmap(lambda n: st.lists(_GRADIENTS, min_size=n, max_size=n)),
    st.sampled_from([0.0, 1e-12, 1e-3, 0.3, np.inf, np.nan]),
    st.sampled_from([0.0, 1e-13, 0.2]),
)
def test_find_crossings_matches_the_plain_expressions(px, eps, slope):
    # NaN gradients never pair up; a NaN threshold resolves every node and
    # filters no bed slope, as ~(|p_x| <= eps) does.
    grid = Grid(-1.0, 0.05, len(px))
    bathy = Linear(-1.0, slope)
    f = riemann.InlandFields(np.ones(grid.n), np.ones(grid.n), np.array(px), eps)
    got = [
        (pt.x_star.hex(), pt.node_index, pt.b_x.hex())
        for pt in detector.find_crossings(f, bathy, grid)
    ]
    assert got == _plain_crossings(f.p_x, eps, bathy, grid.x, grid.dx)


@pytest.mark.parametrize("node", [4, 5])
def test_infinite_gradient_beside_a_sign_change_is_a_blow_up(node):
    # p_x overflows on a finite p whose entries near the float maximum
    # differ in sign; no crossing can be placed between such nodes.
    grid = Grid(-1.0, 0.05, 10)
    px = np.where(np.arange(10) < 5, 0.5, -0.5)
    px[node] *= np.inf
    f = riemann.InlandFields(np.ones(10), np.ones(10), px, 1e-3)
    message = "non-finite p_x at node {}".format(node)
    with pytest.raises(NumericBlowUpError, match=message) as exc:
        detector.find_crossings(f, Linear(-1.0, 0.2), grid)
    assert exc.value.node == node


def test_overflowing_gradient_is_a_blow_up_without_numpy_warnings():
    # p_x at node 0 overflows; the suite turns any RuntimeWarning into an
    # error, so inland and the search must raise or return without one.
    grid = Grid(0.0, 1.0, 12)
    u = np.zeros(12)
    u[:2] = 4.4e307, 4.7e307
    state = FlowState(0.0, np.zeros(12), u)
    f = riemann.inland(state, Flat(-1.0), grid)
    assert f.p_x[0] == np.inf
    with pytest.raises(NumericBlowUpError, match="non-finite p_x at node 0$") as exc:
        detector.find_critical_points(f, Flat(-1.0), grid)
    assert exc.value.node == 0


@pytest.mark.parametrize("node", [0, 1, 9, 10])
def test_end_window_overflow_classifies_without_numpy_warnings(node):
    # A library classify call runs outside run's errstate. Within two nodes
    # of an end the stencils overflow to inf and NaN, as Python floats do,
    # and the suite turns any RuntimeWarning into an error.
    grid = Grid(0.0, 1.0, 12)
    u = np.zeros(12)
    u[:4] = u[-4:] = 1e308, -1e308, 1e308, -1e308
    state = FlowState(0.0, np.zeros(12), u)
    f = riemann.inland(state, Flat(-1.0), grid)
    point = CriticalPoint(float(node) + 0.5, node, False, 0.0)
    event = detector.classify(point, f, state, grid)
    assert not np.isfinite(event.diagnostics.u_xx)
@pytest.mark.xfail(
    strict=True,
    reason="eps_px = 1e-8 * max|p| / dx grows as dx shrinks, while |p_x| at "
    "the nodes next to a simple zero shrinks like dx",
)
def test_fine_grid_crossing_is_not_taken_for_a_plateau():
    # A simple zero of p_x (slope -0.5 there) on a grid with dx = 1e-4: the
    # nodes beside it read |p_x| = 2.5e-5, under eps_px = 2e-4, so the
    # search reports a DegeneratePlateau where the invariant changes sign.
    grid, state, bathy = build_crossing(
        u_x=1.0, gamma0=1.0, u0=0.0, u_xx=0.0, s_x=0.0, b1=0.5, n=16, dx=1e-4
    )
    f = riemann.inland(state, bathy, grid)
    points = detector.find_critical_points(f, bathy, grid, f.eps_px)
    assert [p.plateau for p in points] == [False]


class TestPlateau:
    def test_linear_bottom_flow_is_one_plateau(self):
        sol = analytic.LinearBottomSolution(0.0, -1.0, 0.1, 0.0, -1.3, 1.3)
        g = Grid(-1.0, 0.01, 201)
        state = analytic.make_initial_state(sol, g)
        bathy = sol.bathymetry()
        f = riemann.compute(state, bathy, g)
        points = detector.find_critical_points(f, bathy, g, f.eps_px)
        assert len(points) == 1
        assert points[0].plateau
        assert points[0].x_star == pytest.approx(0.0, abs=g.dx)

        ev = detector.classify(points[0], f, state, g)
        assert ev.classification is Classification.DEGENERATE_PLATEAU
        assert ev.side is Side.UNKNOWN

    def test_lake_at_rest_on_slope_has_no_critical_points(self):
        g = Grid(-20.0, 0.1, 400)
        bathy = TanhSafe(1.0, 0.5)
        state = FlowState(0.0, np.zeros(400), np.zeros(400))
        f = riemann.compute(state, bathy, g)
        assert detector.find_critical_points(f, bathy, g, f.eps_px) == []

    def test_short_runs_are_not_plateaus(self):
        # Two below-threshold nodes bracketed by resolved ones: too short.
        g = Grid(0.0, 0.1, 12)
        bathy = Linear(-1.0, 0.05)
        f = riemann.compute(
            FlowState(0.0, np.zeros(12), np.zeros(12)), bathy, g
        )
        px = f.p_x.copy()
        px[5] = px[6] = 0.0
        doctored = riemann.RiemannFields(
            gamma=f.gamma,
            p=f.p,
            q=f.q,
            p_x=px,
            q_x=f.q_x,
            speed_p=f.speed_p,
            speed_q=f.speed_q,
            eps_px=f.eps_px,
        )
        points = detector.find_critical_points(doctored, bathy, g, f.eps_px)
        assert all(not pt.plateau for pt in points)


class TestTangentMatch:
    def test_residual_equals_depth_root_times_gradient(self):
        rng = np.random.default_rng(5)
        g = Grid(0.0, 0.02, 300)
        bathy = TanhSafe(1.0, 0.7)
        for _ in range(50):
            surface = rng.normal(scale=0.1, size=300)
            velocity = rng.normal(scale=0.5, size=300)
            state = FlowState(0.0, surface, velocity)
            r = detector.tangent_match_residual(state, bathy, g)
            f = riemann.compute(state, bathy, g)
            assert np.max(np.abs(r - f.gamma * f.p_x)) <= 1e-12

    def test_rest_state_on_flat_bottom_scores_zero(self):
        # Interior nodes difference identical values and land on exact zero.
        # The one-sided end stencils combine 3*gamma and 4*gamma, and with
        # gamma = sqrt(2) the 3x product rounds, leaving an ulp-level residue
        # scaled by 1/(2 dx); that is the price of the form 2*gamma*d(gamma)
        # which keeps the residual identical to gamma * p_x on every state.
        g = Grid(0.0, 0.05, 64)
        state = FlowState(0.0, np.zeros(64), np.zeros(64))
        r = detector.tangent_match_residual(state, Flat(-2.0), g)
        assert r.shape == (64,)
        assert np.all(r[1:-1] == 0.0)
        assert np.max(np.abs(r)) <= 1e-13

    def test_uniform_slope_flow_residual_sits_at_rounding(self):
        # The surface of this family is b1*x plus a constant and the bed
        # slope is b1, so the residual is the finite-difference error of a
        # straight line: zero up to rounding.
        sol = analytic.LinearBottomSolution(0.0, -1.0, 0.1, 0.0, -1.3, 1.3)
        g = Grid(-1.0, 0.01, 201)
        state = analytic.make_initial_state(sol, g)
        r = detector.tangent_match_residual(state, sol.bathymetry(), g)
        assert np.max(np.abs(r)) <= 1e-12

    def test_alert_needs_both_small_residual_and_shallow_depth(self):
        g = Grid(0.0, 0.05, 64)
        bathy = Linear(-1.0, 0.01)

        def alerts(state, eps_r):
            gamma = np.sqrt(state.gamma_surface - bathy.eval(g.x))
            r = detector.tangent_match_residual(state, bathy, g, gamma)
            return detector.alert_nodes(r, gamma, eps_r, 0.1)

        shallow = FlowState(0.0, bathy.eval(g.x) + 0.05**2, np.full(64, 0.2))
        assert np.all(alerts(shallow, 1e-3))

        deep = FlowState(0.0, bathy.eval(g.x) + 0.5**2, np.full(64, 0.2))
        assert not np.any(alerts(deep, 1e-3))

        noisy = shallow.copy()
        noisy.velocity += np.linspace(0.0, 1.0, 64)
        assert not np.all(alerts(noisy, 1e-6))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps_px", 0.0),
            ("eps_px", float("nan")),
            ("alert_eps_r", -1.0),
            ("alert_eps_gamma", float("inf")),
        ],
    )
    def test_config_rejects_bad_thresholds(self, field, value):
        with pytest.raises(ValueError, match=field):
            detector.DetectorConfig(**{field: value})


class TestDeepSea:
    def test_indicator_values(self):
        g = Grid(0.0, 1.0, 16)
        bathy = Flat(-3900.0)
        state = FlowState(0.0, np.full(16, 7.0), np.zeros(16))
        diag = detector.deep_sea_diagnostics(state, bathy, g, mean_depth=0.0)
        assert diag.max_sound_speed == pytest.approx(np.sqrt(3907.0))
        assert diag.max_amplitude_indicator == pytest.approx(7.0 / np.sqrt(3907.0))
        assert diag.max_amplitude_indicator == pytest.approx(0.112, abs=5e-4)

    def test_surface_at_reference_level_scores_zero(self):
        g = Grid(0.0, 1.0, 16)
        bathy = Flat(-4.0)
        state = FlowState(0.0, np.full(16, 1.5), np.zeros(16))
        diag = detector.deep_sea_diagnostics(state, bathy, g, mean_depth=1.5)
        assert diag.max_amplitude_indicator == 0.0
