"""Shared builders for synthetic states with analytically placed features."""

import shutil

import numpy as np
import pytest

from shoalwave import _native, detector, solver
from shoalwave.bathymetry import Linear, TanhSafe
from shoalwave.fields import FlowState, Grid


def build_crossing(
    u_x=-0.2,
    gamma0=0.05,
    u0=0.3,
    u_xx=-0.5,
    s_x=-0.3,
    b0=0.0,
    b1=0.05,
    n=120,
    dx=1e-3,
    u_scale=1.0,
):
    """State whose invariant gradient crosses zero exactly at x = 0.

    The surface is built so that the depth-excess slope (surface slope
    minus bed slope) equals s + s_x*xi with s = -u_x*gamma0*u_scale, which
    cancels the velocity gradient contribution at xi = 0. The velocity is
    the quadratic u_scale*(u0 + u_x*xi + u_xx*xi**2/2). Node xi = 0 falls
    midway between the two central nodes so the zero is a clean sign
    change, not a near-zero node.
    """
    grid = Grid(-(n / 2 - 0.5) * dx, dx, n)
    xi = (np.arange(n) - (n / 2 - 0.5)) * dx
    bathy = Linear(b0, b1)
    s = -u_x * gamma0 * u_scale
    depth_sq = gamma0**2 + s * xi + 0.5 * s_x * xi**2
    if np.min(depth_sq) <= 0.0:
        raise AssertionError("fixture parameters dried the column")
    surface = depth_sq + bathy.eval(grid.x)
    velocity = u_scale * (u0 + u_x * xi + 0.5 * u_xx * xi**2)
    return grid, FlowState(0.0, surface, velocity), bathy


def compiled_rates():
    """The compiled first-order rates loop, once both compiled loops have
    loaded. Skips the test on a machine with no C compiler on PATH, and
    fails it when there is one but either loop did not load."""
    _native.load()
    if _native.rates is None or _native.search is None:
        if shutil.which(_native.compiler()[0]) is None:
            pytest.skip("no C compiler on PATH")
        pytest.fail("a C compiler is on PATH, but the compiled loops did not load")
    return _native.rates


@pytest.fixture
def numpy_rates(monkeypatch):
    """Computes first-order rates with the numpy kernel, and searches with
    the numpy search, in every domain and search made during the test, by
    setting both loaded loops to None."""
    _native.load()
    monkeypatch.setattr(_native, "rates", None)
    monkeypatch.setattr(_native, "search", None)


@pytest.fixture
def crossing_state():
    return build_crossing


@pytest.fixture
def inland_setup():
    """Crossing with falling, concave velocity and a shrinking excess."""
    return build_crossing(u_x=-0.2, u_xx=-0.5, s_x=-0.3)


@pytest.fixture
def offshore_setup():
    """Crossing with rising, convex velocity and a strong excess growth."""
    return build_crossing(u_x=0.2, u_xx=0.5, s_x=0.5)


@pytest.fixture
def offshore_weak_setup():
    """Offshore-shaped crossing whose excess growth misses the gate."""
    return build_crossing(u_x=0.2, u_xx=0.5, s_x=0.015)


def run_recording_rushes(initial, bathy, grid, sol_cfg, det_cfg):
    """solver.run's result and its rush events as (class, point, p_x, state):
    the critical point, the inland p_x row it was classified on and the
    state of that step."""
    rushes = []
    classify = solver.classify

    def recorded_classify(point, inland, state, *args, **kwargs):
        event = classify(point, inland, state, *args, **kwargs)
        if event.classification in solver.RUSH_CLASSES:
            # The run's inland rows are the search's own, which the next
            # step rewrites.
            rushes.append((event.classification, point, inland.p_x.copy(), state))
        return event

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "classify", recorded_classify)
        result = solver.run(initial, bathy, grid, sol_cfg, det_cfg)
    return result, rushes


def head_on_collision(n):
    """The bundled shelf and pulse on x in [-8, 8], n nodes, reflective ends,
    met head-on by a left-going pulse (amplitude 0.002, width 0.3, centre
    6.0). Each pulse carries the velocity of its simple wave,
    +-2(sqrt(w_rest + hump) - sqrt(w_rest)), as the bundled pulse does.
    Returns (grid, bed, initial state)."""
    grid = Grid(-8.0, 16.0 / (n - 1), n)
    bathy = TanhSafe(0.02, 1.99)
    x = grid.x
    w_rest = -bathy.eval(x)
    root = np.sqrt(w_rest)
    right = 0.004 * np.exp(-(((x + 4.0) / 1.0) ** 2))
    left = 0.002 * np.exp(-(((x - 6.0) / 0.3) ** 2))
    u = 2.0 * (np.sqrt(w_rest + right) - root) - 2.0 * (np.sqrt(w_rest + left) - root)
    return grid, bathy, FlowState(0.0, right + left, u)


@pytest.fixture(scope="session")
def collision_runs():
    """The head-on collision at n = 1601 and 3201 (dx = 0.01 and 0.005), run
    to t = 12.8 at first order: a list of (grid, bed, result, rushes), the
    rushes as run_recording_rushes records them."""
    runs = []
    for n in (1601, 3201):
        grid, bathy, initial = head_on_collision(n)
        sol_cfg = solver.SolverConfig(t_end=12.8, boundary="reflective")
        result, rushes = run_recording_rushes(
            initial, bathy, grid, sol_cfg, detector.DetectorConfig()
        )
        runs.append((grid, bathy, result, rushes))
    return runs
