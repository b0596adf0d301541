import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shoalwave import bathymetry
from shoalwave.bathymetry import (
    Flat,
    Linear,
    Sampled,
    TanhSafe,
    _node_derivatives,
    from_spec,
)
from shoalwave.errors import DomainError


def numeric_slope(bathy, x, h=1e-6):
    return (bathy.eval(x + h) - bathy.eval(x - h)) / (2 * h)


def numeric_curvature(bathy, x, h=1e-4):
    return (bathy.eval(x + h) - 2 * bathy.eval(x) + bathy.eval(x - h)) / h**2


class TestFlat:
    def test_values(self):
        b = Flat(-2.5)
        x = np.linspace(-3, 3, 11)
        assert np.all(b.eval(x) == -2.5)
        assert np.all(b.slope(x) == 0.0)
        assert np.all(b.curvature(x) == 0.0)

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
        assert b.curvature(-4.0) == 0.0

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

    def test_slope_positive_and_curvature_changes_sign(self):
        b = TanhSafe(1.0, 0.5)
        x = np.linspace(-8.0, 8.0, 81)
        assert np.all(b.slope(x) > 0.0)
        assert b.curvature(0.0) == pytest.approx(0.0, abs=1e-14)
        assert np.all(b.curvature(x[x < 0]) > 0.0)
        assert np.all(b.curvature(x[x > 0]) < 0.0)

    def test_derivatives_match_finite_differences(self):
        b = TanhSafe(0.3, 1.2)
        for x in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert b.slope(x) == pytest.approx(numeric_slope(b, x), rel=1e-7)
            assert b.curvature(x) == pytest.approx(
                numeric_curvature(b, x), rel=1e-5, abs=1e-8
            )

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
        assert np.all(np.isfinite(b.curvature(big)))
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


@st.composite
def _beds_and_queries(draw):
    """Strictly increasing, non-uniform nodes (0 among them or inside, now
    and then), values, a subset of node indices, and slope and curvature
    queries as (method, order, scalar or array), the first ones scalar
    slopes.

    Queries draw on the ends, the nodes (those at block edges most often),
    their float neighbours, +-0, NaN, points between nodes and points
    outside the range.
    """
    n = draw(st.integers(5, 300))
    gaps = np.array(
        draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    )
    x0 = draw(st.just(0.0) | st.floats(-float(np.sum(gaps)), 0.0))
    x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(x) > 0.0))
    # Whole numbers, scaled, so that no tiny difference overflows the
    # interpolator's slope division.
    scale = 10.0 ** draw(st.integers(-9, -3))
    b = scale * np.array(
        draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n)), float
    )
    subset = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
    block = bathymetry._BLOCK
    edges = [i for k in range(block, n, block) for i in (k - 1, k)]
    index = st.integers(0, n - 1) | st.sampled_from(edges or [0])
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
    scalar_slope = point.map(lambda v: ("slope", 1, v))
    query = scalar_slope | st.tuples(
        st.sampled_from([("slope", 1), ("curvature", 2)]),
        point | st.lists(point, min_size=1, max_size=6).map(np.array),
    ).map(lambda pair: (*pair[0], pair[1]))
    scalars = draw(st.lists(scalar_slope, min_size=1, max_size=6))
    return x, b, subset, scalars + draw(st.lists(query, max_size=8))


class TestSampled:
    def test_node_values_are_interpolated_exactly(self):
        x = np.linspace(0.0, 4.0, 17)
        y = np.sin(x) - 2.0
        b = Sampled(x, y)
        assert np.allclose(b.eval(x), y, rtol=0, atol=1e-14)

    def test_quadratic_profile_derivatives_are_exact(self):
        # Three-point stencils (and the four-point end curvature) are exact
        # on polynomials of degree two, so this pins the weight algebra.
        x = np.linspace(-1.0, 3.0, 9)
        y = 0.5 * x**2 - x + 0.25
        b = Sampled(x, y)
        q = np.linspace(-1.0, 3.0, 33)
        assert np.allclose(b.slope(q), q - 1.0, rtol=0, atol=1e-10)
        assert np.allclose(b.curvature(q), 1.0, rtol=0, atol=1e-10)

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

    def test_batched_node_derivatives_match_per_node_solves(self):
        # Reference: one Vandermonde solve and one dot product per node.
        def per_node(x, b, order):
            n = x.size
            edge = 3 if order == 1 else 4
            out = np.empty(n)
            for i in range(n):
                if i == 0:
                    sl = slice(0, edge)
                elif i == n - 1:
                    sl = slice(n - edge, n)
                else:
                    sl = slice(i - 1, i + 2)
                a = np.vander(x[sl] - x[i], x[sl].size, increasing=True).T
                rhs = np.zeros(x[sl].size)
                rhs[order] = math.factorial(order)
                out[i] = np.linalg.solve(a, rhs) @ b[sl]
            return out

        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(5, 200))
            if trial % 2:
                x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 10.0
            else:
                x = rng.uniform(-5.0, 0.0) + rng.uniform(1e-3, 0.5) * np.arange(n)
            b = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
            for order in (1, 2):
                got = _node_derivatives(x, b, order)
                want = per_node(x, b, order)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rejects_bad_node_sets(self):
        with pytest.raises(ValueError):
            Sampled(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Sampled(x, np.zeros(5))

    def test_tiny_spacing_names_the_non_finite_slopes(self, recwarn):
        # Every sample slope is 1e308, but SciPy's interpolant divides by
        # zero and overflows on nodes 1e-310 apart.
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

    def test_derivative_nodes_are_built_on_first_use(self, monkeypatch):
        built = []

        def counting(x, b, order, nodes=None):
            built.append((order, list(nodes)))
            return _node_derivatives(x, b, order, nodes)

        monkeypatch.setattr(bathymetry, "_node_derivatives", counting)
        block = bathymetry._BLOCK
        n = 4 * block + block // 2
        x = np.cumsum(np.random.default_rng(5).uniform(0.1, 1.0, n))
        y = np.cos(x) - 2.0
        bed = Sampled(x, y)
        assert built == []
        # The bracket [block - 1, block] straddles the first two blocks.
        bed.slope(float(0.5 * (x[block - 1] + x[block])))
        assert built == [(1, list(range(2 * block)))]
        bed.slope(float(x[3]))
        bed.slope(float(np.nextafter(x[2 * block - 1], -np.inf)))
        assert len(built) == 1
        # The last node's bracket is clamped to the last block.
        bed.slope(float(x[-1]))
        assert built[1:] == [(1, list(range(4 * block, n)))]
        q = np.linspace(x[0], x[-1], 57)
        first = bed.curvature(q)
        assert built[2:] == [(2, list(range(n)))]
        second = bed.curvature(q)
        assert len(built) == 3
        slopes = bed.slope(q)
        assert built[3:] == [(1, list(range(2 * block, 4 * block)))]
        bed.slope(q)
        bed.slope(float(x[2 * block]))
        assert len(built) == 4
        for order in (1, 2):
            nodes = [i for o, ns in built if o == order for i in ns]
            assert sorted(nodes) == list(range(n))
        expected = np.interp(q, x, _node_derivatives(x, y, 2))
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)
        assert np.array_equal(slopes, np.interp(q, x, _node_derivatives(x, y, 1)))
        assert not any(arr.flags.writeable for arr in (bed.x_nodes, bed.b_nodes))

    @settings(max_examples=200, deadline=None)
    @given(_beds_and_queries())
    def test_on_demand_nodes_match_the_eager_rows(self, case):
        x, b, subset, queries = case
        rows = {order: _node_derivatives(x, b, order) for order in (1, 2)}
        for order, row in rows.items():
            got = _node_derivatives(x, b, order, subset)
            assert _bits(got) == _bits(row[subset])
        bed = Sampled(x, b)
        for name, order, q in queries:
            query = getattr(bed, name)
            if np.any(np.asarray(q) < x[0]) or np.any(np.asarray(q) > x[-1]):
                with pytest.raises(DomainError):
                    query(q)
                continue
            got = query(q)
            assert type(got) is (float if isinstance(q, float) else np.ndarray)
            assert _bits(got) == _bits(np.interp(q, x, rows[order]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "bed.csv"
        x = np.linspace(-2, 2, 9)
        y = -1.0 - 0.3 * np.tanh(x)
        lines = ["x,b"] + ["{:.17g},{:.17g}".format(a, c) for a, c in zip(x, y)]
        path.write_text("\n".join(lines) + "\n")
        b = Sampled.from_csv(path)
        assert np.array_equal(b.x_nodes, x)
        assert np.array_equal(b.b_nodes, y)

    def test_package_import_leaves_scipy_to_sampled_beds(self):
        # A fresh interpreter, since other tests load scipy into this one.
        # scipy.interpolate costs most of a cold start, which the one-second
        # `speed` criterion cannot afford; only Sampled should load it.
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "import shoalwave\n"
            "before = 'scipy' in sys.modules\n"
            "x = np.linspace(0.0, 4.0, 9)\n"
            "b = shoalwave.Sampled(x, np.sin(x) - 2.0)\n"
            "q = np.linspace(0.0, 4.0, 23)\n"
            "print(json.dumps([before, b.eval(q).tolist()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        scipy_at_import, values = json.loads(proc.stdout)
        assert scipy_at_import is False

        from scipy.interpolate import PchipInterpolator

        x = np.linspace(0.0, 4.0, 9)
        q = np.linspace(0.0, 4.0, 23)
        expected = PchipInterpolator(x, np.sin(x) - 2.0, extrapolate=False)(q)
        assert np.array_equal(values, expected)

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
