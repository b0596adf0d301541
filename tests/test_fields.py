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
    DRY_COLUMN,
    THIN_COLUMN,
    FlowState,
    Grid,
    _ddx_from,
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


def _plain_ddx(f, dx):
    """ddx as whole-array NumPy expressions, ends included."""
    inv2 = 1.0 / (2.0 * dx)
    head = (-3.0 * f[:1] + 4.0 * f[1:2] - f[2:3]) * inv2
    tail = (3.0 * f[-1:] - 4.0 * f[-2:-1] + f[-3:-2]) * inv2
    return np.concatenate([head, (f[2:] - f[:-2]) * inv2, tail])


_STENCIL_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1.5, -1.5, 1e300, -1e300, 1.7976931348623157e308, 5e-324]
)


@st.composite
def _changed_fields(draw):
    """(old, new, lo, hi): two fields that differ only on [lo, hi)."""
    n = draw(st.integers(8, 24))
    old, new = (
        np.array(draw(st.lists(_STENCIL_VALUES, min_size=n, max_size=n)))
        for _ in range(2)
    )
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    new[:lo], new[hi:] = old[:lo], old[hi:]
    return old, new, lo, hi


_ZEROS = np.array([0.0, -0.0] * 4)


@settings(deadline=None, max_examples=150)
@given(_changed_fields(), st.floats(1e-3, 10.0))
@example((-_ZEROS, _ZEROS, 0, 8), 0.5)
@example((_ZEROS, np.array([1e300, -1.7976931348623157e308] * 4), 0, 8), 1e-3)
def test_ddx_and_a_window_of_it_match_the_plain_stencils(case, dx):
    # ddx at every node, and _ddx_from after the field changed on a window
    # [lo, hi), equal the whole-array stencil expressions bit for bit:
    # signed zeros, huge values and overflow to inf or NaN included.
    old, new, lo, hi = case
    n = new.size
    grid = Grid(0.0, dx, n)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _plain_ddx(new, dx)
        got = ddx(new, grid)
        out = ddx(old, grid)
        first, last = _ddx_from(new, dx, out, lo, hi)
    assert _same_values(got, want), (got, want)
    assert _same_values(out, want), (out, want)
    assert first <= max(lo - 1, 0) and last >= min(hi + 1, n)


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


# DRY_COLUMN as it reads for the state of _dry_at_node_5(2.5).
DRY_AT_5 = DRY_COLUMN.format(node=5, t=2.5)


@pytest.mark.parametrize(
    "check, message",
    [
        (
            lambda s, b, g: check_wet(s, b, g, h_min=1e-6),
            THIN_COLUMN.format(depth=-0.25, h_min=1e-6, node=5, t=2.5),
        ),
        (
            lambda s, b, g: solver.step(s, b, g, solver.SolverConfig(t_end=10.0)),
            THIN_COLUMN.format(depth=-0.25, h_min=1e-6, node=5, t=2.5),
        ),
        (lambda s, b, g: riemann.inland(s, b, g), DRY_AT_5),
        (lambda s, b, g: detector.tangent_match_residual(s, b, g), DRY_AT_5),
        (
            lambda s, b, g: detector.deep_sea_diagnostics(s, b, g, mean_depth=0.0),
            DRY_AT_5,
        ),
        (
            lambda s, b, g: riemann.characteristic_residual(
                s, FlowState(3.0, np.zeros(16), np.zeros(16)), b, g
            ),
            DRY_AT_5,
        ),
    ],
    ids=["check_wet", "step", "inland", "tangent_match", "deep_sea", "residual"],
)
def test_dry_column_errors_carry_node_t_and_depth(check, message):
    g, bed, state = _dry_at_node_5(2.5)
    with pytest.raises(NearDryError) as info:
        check(state, bed, g)
    assert (info.value.node, info.value.t, info.value.depth) == (5, 2.5, -0.25)
    assert str(info.value) == message


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


@settings(deadline=None, max_examples=60)
@given(
    st.integers(8, 20).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.lists(_SNAPSHOT_VALUES, min_size=n, max_size=n),
                st.lists(_SNAPSHOT_VALUES, min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=4,
        )
    ),
    st.floats(-100.0, 100.0),
    st.floats(1e-3, 10.0),
)
def test_write_outputs_writes_the_csv_writer_bytes(snapshots, x0, dx):
    # write_outputs formats x and b once for all snapshots; each file must
    # still hold the bytes of the row-by-row csv.writer.
    grid = Grid(x0, dx, len(snapshots[0][0]))
    bathy = Linear(-1.0, 0.05)
    states = [
        FlowState(0.5 * k, np.array(surface), np.array(velocity))
        for k, (surface, velocity) in enumerate(snapshots)
    ]
    steps = list(range(0, 3 * len(states), 3))
    result = solver.RunResult(states, steps, [], steps[-1], False)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, old = Path(tmp) / "run", Path(tmp) / "old.csv"
        solver.write_outputs(result, bathy, grid, run_dir, "r")
        for state, k in zip(states, steps):
            _csv_writer_save_state(state, bathy, grid, old)
            new = run_dir / "snap_{:06d}.csv".format(k)
            assert new.read_bytes() == old.read_bytes()


def test_writers_check_every_column_length(tmp_path):
    grid = Grid(0.0, 0.1, 10)
    short = FlowState(0.0, np.zeros(9), np.zeros(9))
    with pytest.raises(ValueError, match="field length"):
        save_state(short, Linear(-1.0, 0.05), grid, tmp_path / "a.csv")
    still = FlowState(0.0, np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError, match="field length"):
        save_state(still, _Column(np.zeros(9)), grid, tmp_path / "b.csv")
    result = solver.RunResult([still, short], [0, 1], [], 1, False)
    with pytest.raises(ValueError, match="field length"):
        solver.write_outputs(result, Linear(-1.0, 0.05), grid, tmp_path / "run", "r")


class _Column:
    """A bed whose nodes hold the given values, whatever the grid."""

    def __init__(self, values):
        self.values = values

    def eval(self, x):
        return self.values


_FINITE_EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    -1e-310,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]
_FINITE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    _FINITE_EDGES
)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(deadline=None, max_examples=100)
@given(
    st.integers(8, 16).flatmap(
        lambda n: st.lists(
            st.tuples(_FINITE_VALUES, _FINITE_VALUES, _FINITE_VALUES),
            min_size=n,
            max_size=n,
        )
    ),
    st.floats(-100.0, 100.0),
    st.floats(1e-3, 10.0),
)
@example([tuple(_FINITE_EDGES[i : i + 3]) for i in range(6)] * 2, -1.0, 0.25)
def test_save_then_load_gives_back_every_bit(rows, x0, dx):
    surface, velocity, bed = (np.array(c, dtype=float) for c in zip(*rows))
    grid = Grid(x0, dx, len(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.csv"
        save_state(FlowState(0.0, surface, velocity), _Column(bed), grid, path)
        back_grid, back, b_col = load_state(path)
    assert _same_bits(back.gamma_surface, surface)
    assert _same_bits(back.velocity, velocity)
    assert _same_bits(b_col, bed)
    x = grid.x
    assert (back_grid.x0, back_grid.dx, back_grid.n) == (x[0], x[1] - x[0], grid.n)


@settings(deadline=None, max_examples=100)
@given(st.floats(-1e5, 1e5), st.floats(1e-4, 1.0), st.integers(8, 400))
@example(1e4, 1e-3, 400)
@example(2e4, 1e-3, 400)
@example(1e5, 1e-3, 400)
@example(-1e5, 1e-4, 400)
def test_a_snapshot_saved_off_the_origin_loads_back(x0, dx, n):
    # Nodes far from x = 0 carry rounding errors of about an ulp of their
    # magnitude; the snapshot must still read back, on the grid x[0],
    # x[1] - x[0] that load_state has always built.
    grid = Grid(x0, dx, n)
    x = grid.x
    state = FlowState(0.0, 0.01 * np.sin(np.arange(n)), np.cos(np.arange(n)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.csv"
        save_state(state, Linear(-1.0, 0.0), grid, path)
        back_grid, back, _ = load_state(path)
    assert back_grid == Grid(float(x[0]), float(x[1] - x[0]), n)
    assert _same_bits(back.gamma_surface, state.gamma_surface)
    assert _same_bits(back.velocity, state.velocity)


def _csv_reader_load_state(path, t=0.0):
    """The snapshot reader as it was: csv.reader rows, float() per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["x", "gamma_surface", "u", "b"]:
        raise ValueError("expected header 'x,gamma_surface,u,b' in {}".format(path))
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:] if row])
    except ValueError as exc:
        raise ValueError("malformed state row in {}: {}".format(path, exc))
    if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] < 8:
        raise ValueError("state file {} needs >= 8 rows of 4 columns".format(path))
    x = data[:, 0]
    dx = x[1] - x[0]
    if dx <= 0 or not np.allclose(np.diff(x), dx, rtol=1e-9, atol=1e-12 * abs(dx)):
        raise ValueError("state file {} is not on a uniform grid".format(path))
    grid = Grid(float(x[0]), float(dx), int(x.size))
    state = FlowState(t, data[:, 1], data[:, 2])
    return grid, state, data[:, 3]


_CELL_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats().map("{:.17g}".format),
    st.sampled_from(
        ["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "-0.0", "0", ".5", "5.", "+1E+3"]
    ),
)
# How a cell is written: as is, padded with whitespace, or in double quotes.
_DRESS = st.sampled_from(["{}", " {} ", "\t{}  ", '"{}"', '" {} "'])


@settings(deadline=None, max_examples=100)
@given(
    st.integers(8, 12).flatmap(
        lambda n: st.lists(
            st.tuples(_CELL_TEXT, _CELL_TEXT, _CELL_TEXT), min_size=n, max_size=n
        )
    ),
    st.floats(-100.0, 100.0),
    st.floats(1e-3, 10.0),
    st.data(),
)
def test_load_state_reads_what_the_csv_reader_read(cells, x0, dx, data):
    grid = Grid(x0, dx, len(cells))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["x,gamma_surface,u,b"]
    for x, row in zip(grid.x.tolist(), cells):
        dressed = [data.draw(_DRESS).format(c) for c in ("{:.17g}".format(x),) + row]
        lines.append(",".join(dressed))
    # Empty lines anywhere after the header, the end included.
    for at in data.draw(st.lists(st.integers(1, len(lines)), max_size=4)):
        lines.insert(at, "")
    text = newline.join(lines)
    if data.draw(st.booleans()):
        text += newline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.csv"
        path.write_bytes(text.encode())
        want_grid, want, want_b = _csv_reader_load_state(path, t=0.5)
        got_grid, got, got_b = load_state(path, t=0.5)
    assert got_grid == want_grid
    assert got.t == want.t
    assert _same_bits(got.gamma_surface, want.gamma_surface)
    assert _same_bits(got.velocity, want.velocity)
    assert _same_bits(got_b, want_b)


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
