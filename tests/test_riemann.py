import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoalwave import riemann
from shoalwave.bathymetry import Flat, Linear, TanhSafe
from shoalwave.errors import InvalidInvariantsError, NearDryError
from shoalwave.fields import FlowState, Grid


def uniform_state(grid, gamma=0.8, u=0.3, b=-1.0):
    surface = np.full(grid.n, gamma**2 + b)
    return FlowState(0.0, surface, np.full(grid.n, u))


def parabola_state(kappa=2.0, alpha=-0.3, p0=1.0, q0=-1.0, n=121, dx=1e-3, b1=0.01):
    """Invariant fields P = p0 + kappa*xi**2, Q = q0 + alpha*xi over a
    linear bed. xi is exactly symmetric about the center node, so the
    centered difference of P vanishes there to the last bit."""
    ic = n // 2
    xi = (np.arange(n) - ic) * dx
    grid = Grid(-ic * dx, dx, n)
    bathy = Linear(0.0, b1)
    p = p0 + kappa * xi**2
    q = q0 + alpha * xi
    u = 0.5 * (p + q)
    gamma = 0.25 * (p - q)
    surface = gamma**2 + bathy.eval(grid.x)
    return grid, FlowState(0.0, surface, u), bathy, ic


def test_round_trip_many_random_arrays():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        u = rng.uniform(-2.0, 2.0, size=64)
        gamma = rng.uniform(0.05, 1.5, size=64)
        p = u + 2.0 * gamma
        q = u - 2.0 * gamma
        u2, gamma2 = riemann.reconstruct(p, q)
        worst = max(
            worst,
            float(np.max(np.abs(u2 - u))),
            float(np.max(np.abs(gamma2 - gamma))),
        )
    assert worst <= 1e-15


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)), min_size=1, max_size=50
    )
)
def test_reconstruct_inverts_the_invariants(columns):
    # (u, gamma) -> (p, q) -> (u, gamma) and back again, each within a few
    # roundings of the column's own scale |u| + 2 gamma.
    u, gamma = np.array(columns).T
    p, q = u + 2.0 * gamma, u - 2.0 * gamma
    u2, gamma2 = riemann.reconstruct(p, q)
    scale = 2.0 * np.finfo(float).eps * (np.abs(u) + 2.0 * gamma)
    assert np.all(np.abs(u2 - u) <= scale)
    assert np.all(np.abs(gamma2 - gamma) <= scale)
    assert np.all(np.abs((u2 + 2.0 * gamma2) - p) <= 2.0 * scale)
    assert np.all(np.abs((u2 - 2.0 * gamma2) - q) <= 2.0 * scale)


def test_reconstruct_rejects_crossed_invariants():
    with pytest.raises(InvalidInvariantsError):
        riemann.reconstruct(np.array([1.0, 0.0]), np.array([0.0, 0.5]))


def test_compute_requires_wet_column():
    g = Grid(0.0, 0.1, 10)
    s = FlowState(0.0, np.full(10, -2.0), np.zeros(10))
    with pytest.raises(NearDryError):
        riemann.compute(s, Flat(-1.0), g)


def test_uniform_flow_speeds_have_no_correction():
    g = Grid(0.0, 0.05, 40)
    s = uniform_state(g, gamma=0.8, u=0.3)
    f = riemann.compute(s, Flat(-1.0), g)
    assert np.allclose(f.speed_p, 0.8 + 0.3, rtol=0, atol=1e-13)
    assert np.allclose(f.speed_q, 0.3 - 0.8, rtol=0, atol=1e-13)
    assert np.all(np.isfinite(f.speed_p))
    assert f.eps_px == riemann.default_eps_px(f.p, g.dx)


def test_vanishing_gradient_over_sloping_bed_marks_infinity():
    grid, state, bathy, ic = parabola_state(b1=0.01)
    f = riemann.compute(state, bathy, grid)
    assert abs(f.p_x[ic]) <= f.eps_px
    # bed slope positive, nearest resolved gradient (left side) negative
    assert np.isneginf(f.speed_p[ic])
    assert np.all(np.isfinite(np.delete(f.speed_p, ic)))
    assert np.all(np.isfinite(f.speed_q))


def test_marker_sign_follows_bed_slope():
    grid, state, bathy, ic = parabola_state(b1=-0.01)
    f = riemann.compute(state, bathy, grid)
    assert np.isposinf(f.speed_p[ic])


def test_explicit_eps_px_is_carried():
    g = Grid(0.0, 0.05, 16)
    s = uniform_state(g)
    f = riemann.compute(s, Flat(-1.0), g, eps_px=1e-4)
    assert f.eps_px == 1e-4


def test_characteristic_residual_vanishes_at_rest():
    g = Grid(-10.0, 0.1, 200)
    b = TanhSafe(1.0, 0.5)
    rest = FlowState(0.0, np.zeros(200), np.zeros(200))
    later = FlowState(0.25, np.zeros(200), np.zeros(200))
    res_p, res_q = riemann.characteristic_residual(rest, later, b, g)
    assert np.max(np.abs(res_p)) <= 1e-12
    assert np.max(np.abs(res_q)) <= 1e-12


def test_characteristic_residual_flags_wrong_transport():
    # Advance the surface without the matching velocity field; the pair is
    # no longer a solution and the residual must say so.
    g = Grid(-10.0, 0.1, 200)
    b = TanhSafe(1.0, 0.5)
    a = FlowState(0.0, np.zeros(200), np.zeros(200))
    wrong = FlowState(0.25, np.full(200, 0.05), np.zeros(200))
    res_p, _ = riemann.characteristic_residual(a, wrong, b, g)
    assert np.max(np.abs(res_p)) > 0.1


def test_characteristic_residual_validates_inputs():
    g = Grid(0.0, 0.1, 10)
    s = uniform_state(g)
    with pytest.raises(ValueError):
        riemann.characteristic_residual(s, s, Flat(-1.0), g)  # dt == 0
    other = FlowState(1.0, np.zeros(9), np.zeros(9))
    with pytest.raises(ValueError):
        riemann.characteristic_residual(s, other, Flat(-1.0), g)


def test_invariant_identities_on_computed_fields():
    rng = np.random.default_rng(5)
    g = Grid(0.0, 0.05, 256)
    b = Flat(-1.0)
    surface = rng.uniform(-0.4, 0.4, size=g.n)
    state = FlowState(0.0, surface, rng.uniform(-1.5, 1.5, size=g.n))
    f = riemann.compute(state, b, g)
    assert np.max(np.abs(4.0 * f.gamma - (f.p - f.q))) <= 1e-14
    assert np.max(np.abs(2.0 * state.velocity - (f.p + f.q))) <= 1e-14


def test_quiescent_deep_water_sign_structure():
    rng = np.random.default_rng(6)
    g = Grid(0.0, 0.05, 256)
    b = Flat(-100.0)
    state = FlowState(
        0.0,
        rng.uniform(-0.1, 0.1, size=g.n),
        rng.uniform(-0.1, 0.1, size=g.n),
    )
    f = riemann.compute(state, b, g)
    assert np.all(f.speed_p > 0.0)
    assert np.all(f.speed_q < 0.0)


def test_small_pulse_speeds_stay_near_sound_speed():
    # Unit depth, amplitude ratio 1e-3: every node's forward speed should
    # sit within 3*(amplitude/depth)*sqrt(depth) of sqrt(depth) = 1.
    g = Grid(-10.0, 0.05, 400)
    b = Flat(-1.0)
    amplitude = 1e-3
    eta = amplitude * np.exp(-(g.x**2))
    u = 2.0 * (np.sqrt(1.0 + eta) - 1.0)
    state = FlowState(0.0, eta, u)
    f = riemann.compute(state, b, g)
    assert np.max(np.abs(f.speed_p - 1.0)) <= 3.0 * amplitude


def test_lifting_the_surface_raises_every_forward_speed():
    rng = np.random.default_rng(7)
    g = Grid(0.0, 0.05, 128)
    b = Flat(-1.0)
    surface = rng.uniform(-0.3, 0.3, size=g.n)
    u = rng.uniform(-0.5, 0.5, size=g.n)
    lifted = FlowState(0.0, surface + 0.3, u)
    f0 = riemann.compute(FlowState(0.0, surface, u), b, g)
    f1 = riemann.compute(lifted, b, g)
    assert np.all(f1.gamma > f0.gamma)
    assert np.all(f1.speed_p > f0.speed_p)


def test_characteristic_residual_on_closed_form_flow():
    # Exact family states at t and t+dt: the true residual is zero, so the
    # numeric one is pure discretization noise. Measured once at this grid
    # and step: 2.4e-13, i.e. C ~ 2.3e-10 in the C*(dt + dx**2) form; the
    # frozen bound allows a generous margin over that measurement.
    from shoalwave import analytic

    sol = analytic.LinearBottomSolution(0.05, -1.0, 0.1, 0.0, -1.3, 1.3)
    n, dt, t0 = 400, 1e-3, 0.2
    g = Grid(-1.0, 2.0 / (n - 1), n)
    u0, s0, _ = analytic.eval_solution(sol, t0, g.x)
    u1, s1, _ = analytic.eval_solution(sol, t0 + dt, g.x)
    res_p, res_q = riemann.characteristic_residual(
        FlowState(t0, s0, u0), FlowState(t0 + dt, s1, u1), sol.bathymetry(), g
    )
    bound = 1e-9 * (dt + g.dx**2)
    assert np.max(np.abs(res_p)) <= bound
    assert np.max(np.abs(res_q)) <= bound


def test_characteristic_residual_halves_under_refinement():
    from shoalwave import solver

    worsts = []
    for n in (400, 800):
        g = Grid(-10.0, 20.0 / n, n)
        b = Flat(-1.0)
        state = solver.initial_gaussian_pulse(
            g, b, center=0.0, width=1.0, amplitude=0.01
        )
        after = solver.step(state, b, g, solver.SolverConfig(t_end=10.0))
        res_p, res_q = riemann.characteristic_residual(state, after, b, g)
        worsts.append(max(float(np.max(np.abs(res_p))), float(np.max(np.abs(res_q)))))
    ratio = worsts[0] / worsts[1]
    assert 1.6 <= ratio <= 2.4


def _scan_correction(b_slope, grad, eps):
    """Reference: the per-node scan that marked singular entries one at a time."""

    def limit_sign(grad, b_slope_i, i, eps):
        bs = 1.0 if b_slope_i > 0 else -1.0
        for j in range(i - 1, -1, -1):
            if abs(grad[j]) > eps:
                return bs * (1.0 if grad[j] > 0 else -1.0)
        for j in range(i + 1, grad.size):
            if abs(grad[j]) > eps:
                return bs * (1.0 if grad[j] > 0 else -1.0)
        return bs

    out = np.zeros_like(grad)
    resolved = np.abs(grad) > eps
    out[resolved] = b_slope[resolved] / grad[resolved]
    singular = ~resolved & (np.abs(b_slope) > eps)
    for i in np.nonzero(singular)[0]:
        out[i] = np.inf * limit_sign(grad, float(b_slope[i]), int(i), eps)
    return out


# Exact zeros of both signs and entries on either side of the thresholds
# drawn below, so resolved, singular and degenerate nodes all occur.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 0.5, -0.5, 2.0, -2.0]),
    st.floats(-3.0, 3.0, allow_subnormal=False),
)


@st.composite
def _correction_inputs(draw):
    n = draw(st.integers(1, 40))
    grad = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    b_slope = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    eps = draw(st.sampled_from([0.0, 1e-8, 0.1, 1.0]) | st.floats(0.0, 2.0))
    return b_slope, grad, eps


@settings(deadline=None, max_examples=300)
@given(_correction_inputs())
# Nothing resolved: every sloping node falls back to the bed slope's sign.
@example((np.array([0.3, -0.2, 0.0, 1.0]), np.array([0.0, 1e-9, -0.0, 0.0]), 1e-8))
# Singular nodes at both ends, resolved only in the middle.
@example((np.array([-1.0, 0.5, 0.5, 2.0]), np.array([0.0, -3.0, 2.0, -0.0]), 1e-8))
# eps = 0: only exact zeros are unresolved, and -0.0 counts as one.
@example((np.array([1.0, -1.0, 1.0, -1.0]), np.array([-0.0, 0.0, -2.0, 0.0]), 0.0))
def test_correction_matches_per_node_scan(inputs):
    b_slope, grad, eps = inputs
    got = riemann._correction(b_slope, grad, eps)
    want = _scan_correction(b_slope, grad, eps)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
