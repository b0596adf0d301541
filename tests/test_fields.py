import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoalwave import detector, riemann, solver
from shoalwave.bathymetry import Flat, Linear
from shoalwave.errors import NearDryError
from shoalwave.fields import (
    FlowState,
    Grid,
    check_wet,
    d2dx2,
    ddx,
    depth,
    load_state,
    require_wet,
    save_state,
)


def test_grid_axis():
    g = Grid(-1.0, 0.25, 9)
    assert g.x[0] == -1.0
    assert g.x[-1] == pytest.approx(1.0)
    assert g.x_last == pytest.approx(1.0)
    assert g.x.shape == (9,)


@pytest.mark.parametrize("x0,dx,n", [(0.0, 0.0, 10), (0.0, -0.1, 10), (0.0, 0.1, 7)])
def test_grid_rejects_bad_parameters(x0, dx, n):
    with pytest.raises(ValueError):
        Grid(x0, dx, n)


def test_flow_state_shape_mismatch():
    with pytest.raises(ValueError):
        FlowState(0.0, np.zeros(10), np.zeros(9))


def test_flow_state_copy_is_independent():
    s = FlowState(1.0, np.zeros(8), np.ones(8))
    c = s.copy()
    c.gamma_surface[0] = 5.0
    assert s.gamma_surface[0] == 0.0


def test_ddx_exact_on_quadratic():
    g = Grid(0.0, 0.1, 21)
    f = 3.0 * g.x**2 - 2.0 * g.x + 1.0
    assert np.allclose(ddx(f, g), 6.0 * g.x - 2.0, rtol=0, atol=1e-12)


def test_d2dx2_exact_on_cubic():
    g = Grid(-0.5, 0.05, 31)
    f = g.x**3
    assert np.allclose(d2dx2(f, g), 6.0 * g.x, rtol=0, atol=1e-9)


def test_ddx_converges_on_sine():
    errs = []
    for n in (101, 201):
        g = Grid(0.0, 1.0 / (n - 1), n)
        err = np.max(np.abs(ddx(np.sin(g.x), g) - np.cos(g.x)))
        errs.append(err)
    assert errs[1] < errs[0] / 3.0  # second-order stencils


def test_depth_and_check_wet():
    g = Grid(0.0, 0.1, 10)
    b = Flat(-1.0)
    s = FlowState(0.0, np.zeros(10), np.zeros(10))
    assert np.allclose(depth(s, b, g), 1.0)
    check_wet(s, b, g, h_min=1e-6)

    s.gamma_surface[4] = -0.999999999
    with pytest.raises(NearDryError) as info:
        check_wet(s, b, g, h_min=1e-6)
    assert info.value.node == 4
    assert info.value.depth < 1e-6


def _dry_at_node_5(t):
    g = Grid(0.0, 0.1, 16)
    bed = Flat(-1.0)
    surface = np.zeros(16)
    surface[5] = -1.25
    return g, bed, FlowState(t, surface, np.zeros(16))


@pytest.mark.parametrize(
    "check",
    [
        lambda s, b, g: check_wet(s, b, g, h_min=1e-6),
        lambda s, b, g: solver.step(s, b, g, solver.SolverConfig(t_end=10.0)),
        lambda s, b, g: riemann.inland(s, b, g),
        lambda s, b, g: detector.surface_gradients(s, b, g),
        lambda s, b, g: detector.deep_sea_diagnostics(s, b, g, mean_depth=0.0),
        lambda s, b, g: riemann.characteristic_residual(
            s, FlowState(3.0, np.zeros(16), np.zeros(16)), b, g
        ),
    ],
    ids=["check_wet", "step", "inland", "surface_gradients", "deep_sea", "residual"],
)
def test_dry_column_errors_carry_node_t_and_depth(check):
    g, bed, state = _dry_at_node_5(2.5)
    with pytest.raises(NearDryError) as info:
        check(state, bed, g)
    assert (info.value.node, info.value.t, info.value.depth) == (5, 2.5, -0.25)


def test_dry_midpoint_error_carries_node_t_and_depth():
    # Both states are wet; only the midpoint surface overflows to -inf.
    g = Grid(0.0, 0.1, 16)
    bed = Flat(-1.5e308)
    surface = np.full(16, -1e300)
    surface[5] = -1e308
    a = FlowState(1.0, surface, np.zeros(16))
    b = FlowState(2.0, surface.copy(), np.zeros(16))
    with np.errstate(over="ignore"):
        with pytest.raises(NearDryError, match="dry midpoint column at node 5") as info:
            riemann.characteristic_residual(a, b, bed, g)
    assert (info.value.node, info.value.t, info.value.depth) == (5, 1.5, -np.inf)


def test_state_round_trip_is_exact(tmp_path):
    g = Grid(-2.0, 0.125, 16)
    b = Linear(-1.0, 0.05)
    rng = np.random.default_rng(3)
    s = FlowState(0.7, rng.normal(size=16) * 0.01, rng.normal(size=16))
    path = tmp_path / "state.csv"
    save_state(s, b, g, path)

    g2, s2, b_col = load_state(path, t=0.7)
    assert g2.n == g.n
    assert g2.dx == pytest.approx(g.dx, rel=1e-14)
    assert np.array_equal(s2.gamma_surface, s.gamma_surface)
    assert np.array_equal(s2.velocity, s.velocity)
    assert np.allclose(b_col, b.eval(g.x), rtol=0, atol=1e-16)
    assert s2.t == 0.7


def test_require_wet_skips_nan_entries():
    w = np.array([np.nan, 0.5, -0.25, np.nan, 1.0])
    with pytest.raises(NearDryError) as info:
        require_wet(w, 2.0, "dry column at node {node}")
    assert (info.value.node, info.value.t, info.value.depth) == (2, 2.0, -0.25)
    require_wet(np.array([np.nan, 0.5, 1.0]), 0.0, "dry column at node {node}")
    require_wet(np.full(4, np.nan), 0.0, "dry column at node {node}", 1e-6)


def _csv_writer_save_state(state, bathy, grid, path):
    """The snapshot writer as it was, one csv.writer row per node."""
    x = grid.x
    b = np.asarray(bathy.eval(x), dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "gamma_surface", "u", "b"])
        for i in range(grid.n):
            writer.writerow(
                [
                    "{:.17g}".format(x[i]),
                    "{:.17g}".format(state.gamma_surface[i]),
                    "{:.17g}".format(state.velocity[i]),
                    "{:.17g}".format(b[i]),
                ]
            )


_EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]
_SNAPSHOT_VALUES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    _EDGE_VALUES
)


def _same_values(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)])
    )


@settings(deadline=None, max_examples=150)
@given(
    st.integers(8, 30).flatmap(
        lambda n: st.tuples(
            st.lists(_SNAPSHOT_VALUES, min_size=n, max_size=n),
            st.lists(_SNAPSHOT_VALUES, min_size=n, max_size=n),
        )
    ),
    st.floats(-100.0, 100.0),
    st.floats(1e-3, 10.0),
)
@example((_EDGE_VALUES, _EDGE_VALUES[::-1]), -1.0, 0.25)
def test_save_state_writes_the_csv_writer_bytes(columns, x0, dx):
    surface, velocity = (np.array(c, dtype=float) for c in columns)
    grid = Grid(x0, dx, surface.size)
    bathy = Linear(-1.0, 0.05)
    state = FlowState(1.5, surface, velocity)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        save_state(state, bathy, grid, new)
        _csv_writer_save_state(state, bathy, grid, old)
        assert new.read_bytes() == old.read_bytes()
        _, back, b_col = load_state(new, t=1.5)
    assert _same_values(back.gamma_surface, surface)
    assert _same_values(back.velocity, velocity)
    assert np.array_equal(b_col, bathy.eval(grid.x))


def test_load_state_rejects_garbage(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("a,b,c,d\n" + "\n".join("0,0,0,0" for _ in range(9)))
    with pytest.raises(ValueError):
        load_state(path)

    rows = ["x,gamma_surface,u,b"] + [
        "{},0,0,-1".format(x) for x in (0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7)
    ]
    path.write_text("\n".join(rows))
    with pytest.raises(ValueError):
        load_state(path)

    path.write_text("x,gamma_surface,u,b\n0,0,0,-1\n0.1,0,0,-1\n")
    with pytest.raises(ValueError):
        load_state(path)


def test_ddx_direct_error_bounds_on_sine():
    g = Grid(0.0, 1e-3, 2000)
    assert np.max(np.abs(ddx(np.sin(g.x), g) - np.cos(g.x))) <= 1e-6
    g2 = Grid(0.0, 1e-2, 400)
    assert np.max(np.abs(d2dx2(np.sin(g2.x), g2) + np.sin(g2.x))) <= 1e-4


def test_derivative_operators_are_linear():
    rng = np.random.default_rng(9)
    g = Grid(-1.0, 0.02, 100)
    f1 = rng.normal(size=g.n)
    f2 = rng.normal(size=g.n)
    for op in (ddx, d2dx2):
        combined = op(2.5 * f1 - 0.75 * f2, g)
        split = 2.5 * op(f1, g) - 0.75 * op(f2, g)
        scale = np.max(np.abs(split))
        assert np.max(np.abs(combined - split)) <= 1e-14 * scale


def test_ddx_of_even_data_is_odd():
    # Data mirrored about the grid center yields a mirrored-and-negated
    # derivative at interior nodes.
    n = 101
    g = Grid(-0.5, 0.01, n)
    xi = g.x - g.x[n // 2]
    f = np.cosh(xi)
    d = ddx(f, g)
    inner = slice(1, n - 1)
    assert np.max(np.abs(d[inner] + d[inner][::-1])) <= 1e-12
