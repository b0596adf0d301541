import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from shoalwave import cli
from shoalwave.bathymetry import (
    Flat,
    Linear,
    Sampled,
    TanhSafe,
    _node_derivatives,
    from_spec,
)
from shoalwave.errors import DomainError
from shoalwave.fields import Grid


def numeric_slope(bathy, x, h=1e-6):
    return (bathy.eval(x + h) - bathy.eval(x - h)) / (2 * h)


class TestFlat:
    def test_values(self):
        b = Flat(-2.5)
        x = np.linspace(-3, 3, 11)
        assert np.all(b.eval(x) == -2.5)
        assert np.all(b.slope(x) == 0.0)

    def test_scalar_in_scalar_out(self):
        b = Flat(-1.0)
        assert isinstance(b.eval(0.3), float)
        assert b.eval(0.3) == -1.0


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(deadline=None)
@given(
    _ANY_FLOAT,
    st.sampled_from([0.0, -0.0, 1e-300, -2.5, 0.2, 1e300]) | _ANY_FLOAT,
    st.sampled_from([float, np.float64, np.asarray]),
)
@example(-0.0, -0.0, float)
@example(float("nan"), float("nan"), float)
def test_flat_and_linear_scalar_slope_matches_the_array_path(x, b1, kind):
    # A float query takes the scalar path; it must give the float the
    # array query gives, bit for bit, signed zeros and NaN included.
    for bed in (Flat(-1.0), Linear(-1.0, b1)):
        want = float(bed.slope(np.array([x]))[0])
        got = bed.slope(kind(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert np.signbit(got) == np.signbit(want)


class TestLinear:
    def test_values(self):
        b = Linear(-1.0, 0.1)
        assert b.eval(0.0) == -1.0
        assert b.eval(2.0) == pytest.approx(-0.8)
        assert b.slope(123.0) == 0.1

    def test_zero_slope_degenerates_to_flat(self):
        b = Linear(-2.0, 0.0)
        assert b.eval(17.3) == -2.0
        assert b.slope(17.3) == 0.0


class TestTanhSafe:
    def test_endpoints_and_center(self):
        b = TanhSafe(1.0, 0.5)
        assert b.eval(0.0) == pytest.approx(-1.5)
        assert b.eval(50.0) == pytest.approx(-1.0, abs=1e-12)
        assert b.eval(-50.0) == pytest.approx(-2.0, abs=1e-12)

    def test_slope_is_positive(self):
        b = TanhSafe(1.0, 0.5)
        x = np.linspace(-8.0, 8.0, 81)
        assert np.all(b.slope(x) > 0.0)

    def test_derivatives_match_finite_differences(self):
        b = TanhSafe(0.3, 1.2)
        for x in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert b.slope(x) == pytest.approx(numeric_slope(b, x), rel=1e-7)

    def test_slope_matches_finite_differences_at_random_points(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-4.0, 4.0, size=100)
        for b in (Flat(-2.5), Linear(-1.0, 0.1), TanhSafe(1.0, 0.5)):
            for x in pts:
                assert b.slope(x) == pytest.approx(
                    numeric_slope(b, x), rel=1e-6, abs=1e-9
                )

    def test_extreme_arguments_stay_finite(self):
        b = TanhSafe(1.0, 2.0)
        big = np.array([-1e9, -500.0, 500.0, 1e9])
        assert np.all(np.isfinite(b.eval(big)))
        assert np.all(np.isfinite(b.slope(big)))
        assert abs(b.slope(1e9)) < 1e-200

    @settings(max_examples=500)
    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(1e-3, 10.0),
        st.sampled_from([float, np.float64, np.asarray]),
    )
    @example(float("nan"), 1.99, float)
    @example(float("inf"), 1.99, float)
    @example(float("-inf"), 1.99, float)
    @example(-0.0, 1.99, float)
    @example(350.0, 1.99, float)
    @example(-350.0, 1.99, np.float64)
    @example(np.nextafter(350.0, 400.0), 1.99, float)
    @example(1e-300, 1.99, np.asarray)
    def test_scalar_slope_matches_the_array_clip(self, x, K, kind):
        bed = TanhSafe(1.0, K)
        # The slope as np.clip computes it for every input shape.
        xa = np.clip(np.asarray(x, dtype=float), -350.0, 350.0)
        want = float(K * (1.0 / np.cosh(xa) ** 2))
        got = bed.slope(kind(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("h,K", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_shape(self, h, K):
        with pytest.raises(ValueError):
            TanhSafe(h, K)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def _pchip_cases(draw):
    """Node sets and queries for the PCHIP oracle.

    5 to 80 nodes with spacings from 1e-3 to 10 and offsets up to +-1e5.
    Samples repeat, hold +-0, alternate in sign and range over magnitudes
    from 1e-6 to 1e6. One case in ten is wild: spacings within four decades
    of anywhere from 1e-320 to 1e-3, which may merge nodes or overflow the
    slopes, and magnitudes up to 1e300. Queries are every node, their float
    neighbours inside the range, points between nodes and NaN of either
    sign.
    """
    n = draw(st.integers(5, 80))
    wild = draw(st.integers(0, 9)) == 9
    # Spacings from 10**low to 10**(low + 4).
    low = draw(st.floats(-320.0, -3.0)) if wild else -3.0
    spacing = st.floats(low, low + 4.0).map(lambda e: 10.0**e)
    gaps = draw(st.lists(spacing, min_size=n - 1, max_size=n - 1))
    offset = draw(st.just(0.0) | st.floats(-1e5, 1e5))
    x = offset + np.concatenate(([0.0], np.cumsum(gaps)))
    magnitude = st.floats(-6.0, 300.0 if wild else 6.0).map(lambda e: 10.0**e)
    value = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), magnitude)
    pool = draw(st.lists(value, min_size=1, max_size=4)) + [0.0, -0.0]
    b = np.array(draw(st.lists(value | st.sampled_from(pool), min_size=n, max_size=n)))
    if draw(st.booleans()):
        b = np.abs(b) * (-1.0) ** np.arange(n)
    q = np.concatenate(
        (
            x,
            np.nextafter(x[1:], -np.inf),
            np.nextafter(x[:-1], np.inf),
            draw(st.lists(st.floats(float(x[0]), float(x[-1])), max_size=20)),
            [math.nan, -math.nan],
        )
    )
    return x, b, q


@st.composite
def _beds_and_queries(draw):
    """Strictly increasing, non-uniform nodes (0 among them or inside, now
    and then), values, and slope queries, scalar or array, the first ones
    scalar.

    The gaps and values come from a drawn seed, which draws 300-node beds
    far faster than element-wise strategies. Queries draw on the ends, the
    nodes, their float neighbours, +-0, NaN, points between nodes and
    points outside the range.
    """
    n = draw(st.integers(5, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(1e-3, 1.0, n - 1)
    x0 = draw(st.just(0.0) | st.floats(-float(np.sum(gaps)), 0.0))
    x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(x) > 0.0))
    # Whole numbers, scaled, so that no tiny difference overflows the
    # interpolator's slope division.
    scale = 10.0 ** draw(st.integers(-9, -3))
    b = scale * rng.integers(-(10**6), 10**6, n, endpoint=True).astype(float)
    index = st.integers(0, n - 1)
    node = index.map(lambda i: float(x[i]))
    between = index.map(lambda i: float(0.5 * (x[max(i - 1, 0)] + x[i])))
    point = st.one_of(
        node,
        between,
        node.map(lambda v: float(np.nextafter(v, np.inf))),
        node.map(lambda v: float(np.nextafter(v, -np.inf))),
        st.sampled_from([float(x[0]), float(x[-1]), 0.0, -0.0, math.nan]),
        st.floats(float(x[0]), float(x[-1])),
        st.floats(allow_nan=False),
    )
    query = point | st.lists(point, min_size=1, max_size=6).map(np.array)
    scalars = draw(st.lists(point, min_size=1, max_size=6))
    return x, b, scalars + draw(st.lists(query, max_size=8))


@st.composite
def _grids_and_samples(draw):
    """5 to 300 nodes, uniform (every node x0 + i * dx) or ragged (gaps
    from 1e-3 to 1, log-uniform), with samples of either sign over twelve
    decades, or small ripples on a deep bed. The gaps and samples come
    from a drawn seed."""
    n = draw(st.integers(5, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = draw(st.floats(-100.0, 100.0))
    if draw(st.booleans()):
        x = x0 + draw(st.floats(1e-3, 1.0)) * np.arange(n)
    else:
        gaps = 10.0 ** rng.uniform(-3.0, 0.0, n - 1)
        x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(x) > 0.0))
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    if draw(st.booleans()):
        b = -2.0 + 1e-6 * b
    return x, b


def _lagrange_slopes(x, b):
    """Per node, in long double, the slope at that node of the quadratic
    through its stencil: the node and its two neighbours, or the first or
    last three nodes at the two ends. Written with sample differences, so
    that the reference's own rounding scales with the secant slopes."""
    x = x.astype(np.longdouble)
    b = b.astype(np.longdouble)
    nodes = np.arange(x.size)
    stencil = np.clip(nodes - 1, 0, x.size - 3)[:, None] + np.arange(3)
    xs = x[stencil]
    out = np.zeros(x.size, dtype=np.longdouble)
    for k in range(3):
        p, q = (m for m in range(3) if m != k)
        numerator = (x - xs[:, p]) + (x - xs[:, q])
        weight = numerator / ((xs[:, k] - xs[:, p]) * (xs[:, k] - xs[:, q]))
        # The node's own term: its weight times b[node] - b[node] = 0.
        out += weight * (b[stencil[:, k]] - b)
    return out


class TestSampled:
    def test_node_values_are_interpolated_exactly(self):
        x = np.linspace(0.0, 4.0, 17)
        y = np.sin(x) - 2.0
        b = Sampled(x, y)
        assert np.allclose(b.eval(x), y, rtol=0, atol=1e-14)

    def test_quadratic_profile_derivatives_are_exact(self):
        # Three-point stencils are exact on polynomials of degree two, so
        # this pins the weight algebra.
        x = np.linspace(-1.0, 3.0, 9)
        y = 0.5 * x**2 - x + 0.25
        b = Sampled(x, y)
        q = np.linspace(-1.0, 3.0, 33)
        # Two ulps of the largest slope, 2.
        atol = 4.0 * np.finfo(float).eps
        assert np.allclose(b.slope(q), q - 1.0, rtol=0, atol=atol)

    def test_no_overshoot_between_monotone_nodes(self):
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.uniform(0.2, 1.0, 12))
        y = np.sort(rng.normal(size=12)) - 3.0
        b = Sampled(x, y)
        for i in range(len(x) - 1):
            q = np.linspace(x[i], x[i + 1], 20)
            lo, hi = min(y[i], y[i + 1]), max(y[i], y[i + 1])
            vals = b.eval(q)
            assert np.all(vals >= lo - 1e-12)
            assert np.all(vals <= hi + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_grids_and_samples())
    def test_node_slopes_match_the_long_double_quadratics(self, case):
        # Each secant slope takes three roundings (two differences and a
        # quotient); a node then sums at most two of them, weighted by at
        # most 2 and 1, and divides once. Its error is so a few eps times
        # terms no larger than 3 max|m| over its two stencil secants, which
        # 8 eps of max|m| bounds. The long-double reference (x86 extended
        # precision) rounds 2048 times finer.
        x, b = case
        got = _node_derivatives(x, b)
        want = _lagrange_slopes(x, b)
        secants = np.abs(np.diff(b) / np.diff(x))
        inner = np.maximum(secants[:-1], secants[1:])
        scale = np.concatenate((inner[:1], inner, inner[-1:]))
        error = np.abs(got.astype(np.longdouble) - want)
        assert np.all(error <= 8.0 * np.finfo(float).eps * scale)
        assert np.array_equal(Sampled(x, b).slope(x), got)

    def test_rejects_bad_node_sets(self):
        with pytest.raises(ValueError):
            Sampled(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Sampled(x, np.zeros(5))

    def test_tiny_spacing_names_the_non_finite_slopes(self, recwarn):
        # Every sample slope is 1e308, but on nodes 1e-310 apart the terms
        # of the interpolant's harmonic-mean node slopes underflow to 0, so
        # the node slopes divide by zero.
        x = 1e-310 * np.arange(40)
        with pytest.raises(ValueError) as exc:
            Sampled(x, -1.0 + 1e308 * x)
        message = str(exc.value)
        assert "non-finite slopes" in message and "node spacing 1e-310" in message
        assert len(recwarn) == 0

    def test_out_of_domain_raises(self):
        b = Sampled(np.linspace(0, 1, 6), -np.ones(6))
        with pytest.raises(DomainError):
            b.eval(1.5)
        with pytest.raises(DomainError):
            b.slope(-0.1)

    @settings(max_examples=300)
    @given(
        st.floats(-1.0, 5.0) | st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float, np.float64]),
    )
    @example(float("nan"), float)
    @example(0.0, float)
    @example(-0.0, float)
    @example(4.0, float)
    @example(4.0, np.float64)
    @example(float(np.nextafter(4.0, 5.0)), float)
    @example(float(np.nextafter(0.0, -1.0)), float)
    def test_scalar_slope_matches_the_array_path(self, x, kind):
        nodes = np.linspace(0.0, 4.0, 17)
        bed = Sampled(nodes, np.sin(nodes) - 2.0)
        try:
            want = float(bed.slope(np.array([x]))[0])
        except DomainError:
            with pytest.raises(DomainError):
                bed.slope(kind(x))
            return
        got = bed.slope(kind(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert np.signbit(got) == np.signbit(want)

    def test_nodes_are_write_protected(self):
        b = Sampled(np.linspace(0, 1, 6), -np.ones(6))
        with pytest.raises(ValueError):
            b.x_nodes[0] = 99.0

    @settings(max_examples=200, deadline=None)
    @given(_beds_and_queries())
    def test_slope_queries_interpolate_the_node_row(self, case):
        x, b, queries = case
        row = _node_derivatives(x, b)
        bed = Sampled(x, b)
        for q in queries:
            if np.any(np.asarray(q) < x[0]) or np.any(np.asarray(q) > x[-1]):
                with pytest.raises(DomainError):
                    bed.slope(q)
                continue
            got = bed.slope(q)
            assert type(got) is (float if isinstance(q, float) else np.ndarray)
            assert _bits(got) == _bits(np.interp(q, x, row))
        assert not any(arr.flags.writeable for arr in (bed.x_nodes, bed.b_nodes))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "bed.csv"
        x = np.linspace(-2, 2, 9)
        y = -1.0 - 0.3 * np.tanh(x)
        lines = ["x,b"] + ["{:.17g},{:.17g}".format(a, c) for a, c in zip(x, y)]
        path.write_text("\n".join(lines) + "\n")
        b = Sampled.from_csv(path)
        assert np.array_equal(b.x_nodes, x)
        assert np.array_equal(b.b_nodes, y)

    @settings(max_examples=150, deadline=None)
    @given(_pchip_cases())
    @example((1e-310 * np.arange(40), -1.0 + 1e308 * 1e-310 * np.arange(40), [0.0]))
    # Spacings whose pairwise products underflow: the bed builds with no
    # warning.
    @example(
        (
            np.array([0.0, 1e-158, 2e-158, 2.0001e-158, 2.0002e-158]),
            np.ones(5),
            np.array([0.0, 1e-158, 1.5e-158, 2.00005e-158, math.nan]),
        )
    )
    def test_values_are_scipys_pchip_bit_for_bit(self, case):
        x, b, q = case
        try:
            with np.errstate(all="ignore"):
                want = PchipInterpolator(x, b, extrapolate=False)
        except ValueError:
            # Whatever SciPy rejects the bed rejects too (and the converse
            # below); a warning fails the test.
            with pytest.raises(ValueError):
                Sampled(x, b)
            return
        bed = Sampled(x, b)
        with np.errstate(all="ignore"):
            expected = want(q)
        got = bed.eval(q)
        assert type(got) is np.ndarray and got.shape == q.shape
        assert np.array_equal(_int64(got), _int64(expected))
        # Scalar, 0-d, empty and 2-D queries keep their types and shapes.
        for query in (float(q[1]), np.float64(q[2]), np.array(q[3])):
            got = bed.eval(query)
            assert type(got) is float
            with np.errstate(all="ignore"):
                assert _int64(got) == _int64(want(query))
        assert bed.eval(q[:0]).shape == (0,)
        square = q[: 2 * (q.size // 2)].reshape(2, -1)
        got = bed.eval(square)
        assert got.shape == square.shape
        want_square = _int64(expected[: square.size]).reshape(square.shape)
        assert np.array_equal(_int64(got), want_square)

    def test_sampled_beds_and_detect_never_load_scipy(self, tmp_path):
        # A fresh interpreter, since this module loads scipy into this one.
        # A sampled bed, a detect (whose bed is the snapshot's sampled b
        # column) and a run on a sampled bed load no scipy.
        grid = Grid(-8.0, 0.01, 1200)
        bed = tmp_path / "shelf.csv"
        rows = zip(grid.x, TanhSafe(0.02, 1.99).eval(grid.x))
        bed.write_text("x,b\n" + "".join("{:.17g},{:.17g}\n".format(*r) for r in rows))
        cfg = tmp_path / "shelf.cfg"
        cfg.write_text(
            "name: sampled_shelf\n"
            "grid: {x0: -8.0, dx: 0.01, n: 1200}\n"
            "bathymetry: {kind: sampled, path: '%s'}\n"
            "initial: {kind: gaussian_pulse, center: -4.0, width: 1.0,"
            " amplitude: 0.004}\n"
            "solver: {t_end: 0.5, boundary: reflective, snapshot_interval: 0.25}\n"
            "detector: {}\n" % bed
        )
        state = Path(__file__).parent / "data" / "shoaling_alert_state.csv"
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from shoalwave import Sampled, cli\n"
            "x = np.linspace(0.0, 4.0, 9)\n"
            "b = Sampled(x, np.sin(x) - 2.0)\n"
            "q = np.linspace(0.0, 4.0, 23)\n"
            "values = b.eval(q).tolist()\n"
            "codes = [cli.main(['detect', sys.argv[1]]),"
            " cli.main(['run', sys.argv[2]])]\n"
            "print(json.dumps(['scipy' in sys.modules, codes, values]))\n"
        )
        env = dict(os.environ, **{cli.OUTPUT_ENV: str(tmp_path / "out")})
        proc = subprocess.run(
            [sys.executable, "-c", script, str(state), str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        scipy_loaded, codes, values = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [cli.EXIT_ALERT, cli.EXIT_OK]
        assert (tmp_path / "out" / "sampled_shelf" / "run.json").exists()
        assert scipy_loaded is False

        x = np.linspace(0.0, 4.0, 9)
        q = np.linspace(0.0, 4.0, 23)
        expected = PchipInterpolator(x, np.sin(x) - 2.0, extrapolate=False)(q)
        assert np.array_equal(_int64(values), _int64(expected))

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "bed.csv"
        path.write_text("0,1\n1,2\n2,3\n3,4\n4,5\n")
        with pytest.raises(ValueError):
            Sampled.from_csv(path)


class TestFromSpec:
    @pytest.mark.parametrize(
        "kind, params, expected",
        [
            ("flat", {"b0": -2.5}, Flat(-2.5)),
            ("flat", {"b0": "-2.5"}, Flat(-2.5)),
            ("flat", {"b0": -3}, Flat(-3.0)),
            ("linear", {"b0": -1.0, "b1": 0.1}, Linear(-1.0, 0.1)),
            ("linear", {"b1": "0.1", "b0": "-1"}, Linear(-1.0, 0.1)),
            ("tanh_safe", {"h": 0.02, "K": 1.99}, TanhSafe(0.02, 1.99)),
            ("tanh_safe", {"h": "0.02", "K": "1.99"}, TanhSafe(0.02, 1.99)),
        ],
    )
    def test_matches_the_constructor(self, kind, params, expected):
        bed = from_spec(kind, params)
        assert bed == expected
        assert all(type(v) is float for v in vars(bed).values())

    def test_sampled_reads_its_path(self, tmp_path):
        path = tmp_path / "bed.csv"
        path.write_text("x,b\n" + "".join("{},-1.0\n".format(x) for x in range(6)))
        bed = from_spec("sampled", {"path": str(path)})
        assert np.array_equal(bed.x_nodes, np.arange(6.0))

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("volcano", {"h": 1.0}, "unknown bathymetry kind 'volcano'"),
            (["flat"], {"b0": -1.0}, "unknown bathymetry kind ['flat']"),
            ("linear", {"b0": -1.0}, "linear needs parameters: ['b1']"),
            ("sampled", {}, "sampled needs parameters: ['path']"),
            ("flat", {"b0": -1.0, "b1": 7.0}, "unknown flat parameters: ['b1']"),
            ("tanh_safe", {"h": 0.02, "K": 1.99, "extra": 3}, "unknown tanh_safe"),
            ("sampled", {"path": 0}, "sampled path must be a string"),
            ("flat", {"b0": float("nan")}, "flat parameter 'b0' must be a finite"),
            ("flat", {"b0": "inf"}, "flat parameter 'b0' must be a finite"),
            ("flat", {"b0": True}, "flat parameter 'b0' must be a finite"),
            ("flat", {"b0": "deep"}, "flat parameter 'b0' must be a finite"),
            ("linear", {"b0": -1.0, "b1": None}, "linear parameter 'b1' must be"),
            ("tanh_safe", {"h": -1.0, "K": 1.0}, "TanhSafe requires h > 0"),
        ],
    )
    def test_bad_spec_is_one_line_value_error(self, kind, params, message):
        with pytest.raises(ValueError) as info:
            from_spec(kind, params)
        assert str(info.value).startswith(message)
        assert "\n" not in str(info.value)
