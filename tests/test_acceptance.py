"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. The two bundled scenarios are integrated once per session and
shared by the criteria that inspect their snapshots and event logs.
"""

import hashlib
import importlib.resources
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from shoalwave import analytic, cli, detector, nondim, riemann, solver

from conftest import build_crossing


@pytest.fixture(scope="module")
def bundled_runs():
    out = {}
    root = importlib.resources.files("shoalwave") / "scenarios"
    for name in ("lake_at_rest.cfg", "shoaling_pulse.cfg"):
        cfg = cli.ScenarioConfig.from_doc(yaml.safe_load((root / name).read_text()))
        grid = cfg.build_grid()
        bathy = cfg.build_bathymetry()
        initial = cfg.build_initial(grid, bathy)
        result = solver.run(
            initial, bathy, grid, cfg.build_solver_config(), cfg.build_detector_config()
        )
        out[cfg.name] = (grid, bathy, result)
    return out


def subcell_peak(y, grid, i):
    num = y[i - 1] - y[i + 1]
    den = y[i - 1] - 2.0 * y[i] + y[i + 1]
    return grid.x[i] + 0.5 * grid.dx * num / den


def test_criterion_01_sound_speed_figure():
    """speed 4282 9.8 reports 738 km/h within 1%, in under a second."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "shoalwave", "speed", "4282", "9.8"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    kmh = float(proc.stdout.split("=")[1].split()[0])
    print("criterion 1: {} km/h in {:.2f} s".format(kmh, elapsed))
    assert kmh == pytest.approx(738.0, rel=0.01)
    assert elapsed < 1.0


def test_criterion_02_linear_bottom_oracle():
    """Closed-form residuals <= 1e-14; refinement order >= 0.9; under 10 s."""
    t0 = time.perf_counter()
    sol = analytic.LinearBottomSolution(0.0, -1.0, 0.1, 0.0, -1.3, 1.3)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(64):
        t = rng.uniform(0.0, 0.5)
        x = rng.uniform(-1.0, 1.0)
        worst = max(worst, float(np.max(np.abs(analytic.residuals(sol, t, x)))))
    assert worst <= 1e-14

    errors, _ = cli.convergence_study(sol, 400, 0.5, -1.0, 1.0)
    order = np.log2(errors[0] / errors[1])
    elapsed = time.perf_counter() - t0
    print(
        "criterion 2: residual max {:.2e}, order {:.3f}, {:.1f} s".format(
            worst, order, elapsed
        )
    )
    assert order >= 0.9
    assert elapsed < 10.0


def test_criterion_03_well_balanced_rest_lake():
    """Lake at rest over a tanh shelf: max|u| <= 1e-13 after 1000 steps."""
    from shoalwave.bathymetry import TanhSafe
    from shoalwave.fields import Grid

    g = Grid(-20.0, 0.1, 400)
    b = TanhSafe(1.0, 0.5)
    state = solver.initial_lake_at_rest(g)
    config = solver.SolverConfig(t_end=1e9)
    for _ in range(1000):
        state = solver.step(state, b, g, config)
    peak = float(np.max(np.abs(state.velocity)))
    print("criterion 3: max|u| = {:.2e}".format(peak))
    assert peak <= 1e-13


def test_criterion_04_mass_conservation():
    """Periodic pulse, 1e4 steps: relative mass drift <= 1e-10."""
    from shoalwave.bathymetry import Flat
    from shoalwave.fields import Grid

    g = Grid(0.0, 0.05, 200)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=5.0, width=0.8, amplitude=0.1)
    config = solver.SolverConfig(t_end=1e9, boundary="periodic")
    mass0 = float(np.sum(state.gamma_surface - b.eval(g.x)))
    for _ in range(10_000):
        state = solver.step(state, b, g, config)
    drift = abs(float(np.sum(state.gamma_surface - b.eval(g.x))) - mass0) / mass0
    print("criterion 4: relative drift = {:.2e}".format(drift))
    assert drift <= 1e-10


def test_criterion_05_unit_speed_propagation():
    """1e-3 pulse on unit depth travels at speed 1 within 2% over t in [0,5]."""
    from shoalwave.bathymetry import Flat
    from shoalwave.fields import Grid

    g = Grid(-3.0, 0.02, 600)
    b = Flat(-1.0)
    state = solver.initial_gaussian_pulse(g, b, center=0.0, width=0.5, amplitude=1e-3)
    config = solver.SolverConfig(t_end=5.0, second_order=True)
    result = solver.run(state, b, g, config)
    final = result.snapshots[-1]
    x0 = subcell_peak(state.gamma_surface, g, int(np.argmax(state.gamma_surface)))
    x1 = subcell_peak(final.gamma_surface, g, int(np.argmax(final.gamma_surface)))
    speed = (x1 - x0) / final.t
    print("criterion 5: crest speed = {:.4f}".format(speed))
    assert speed == pytest.approx(1.0, rel=0.02)


def test_criterion_06_invariant_identities(bundled_runs):
    """Round trip exact to 1e-15; r = gamma*P_x to 1e-12 on every snapshot."""
    rng = np.random.default_rng(2024)
    worst_rt = 0.0
    for _ in range(1000):
        u = rng.uniform(-2.0, 2.0, size=64)
        gamma = rng.uniform(0.05, 1.5, size=64)
        u2, g2 = riemann.reconstruct(u + 2.0 * gamma, u - 2.0 * gamma)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(u2 - u))),
            float(np.max(np.abs(g2 - gamma))),
        )
    assert worst_rt <= 1e-15

    worst_id = 0.0
    n_snaps = 0
    for grid, bathy, result in bundled_runs.values():
        for snap in result.snapshots:
            f = riemann.compute(snap, bathy, grid)
            r = detector.tangent_match_residual(snap, bathy, grid)
            worst_id = max(worst_id, float(np.max(np.abs(r - f.gamma * f.p_x))))
            n_snaps += 1
    print(
        "criterion 6: round trip {:.2e}, identity {:.2e} over {} snapshots".format(
            worst_rt, worst_id, n_snaps
        )
    )
    assert worst_id <= 1e-12


def test_criterion_07_degenerate_truth_table():
    """All four degenerate rows classify exactly."""
    rows = [
        (1, 2, 0.5, 0.5, detector.DegenerateRegime.ORDER_SQRT_DEPTH),
        (2, 1, 0.5, 0.3, detector.DegenerateRegime.VANISHING_CORRECTION),
        (2, 2, 0.5, 0.3, detector.DegenerateRegime.ORDER_SQRT_DEPTH),
        (2, 2, 0.5, 0.5, detector.DegenerateRegime.SIGNED_INFINITY),
    ]
    for p_exp, q_exp, B1, C1, expected in rows:
        spec = detector.DegenerateSpec(p_exp=p_exp, q_exp=q_exp, B1=B1, C1=C1)
        got = detector.classify_degenerate(spec)
        assert got is expected, (p_exp, q_exp, B1, C1, got)
    print("criterion 7: 4/4 rows")


def test_criterion_08_synthetic_crossings():
    """Placed crossings classify as the two rush types, localized to dx/2;
    weakening the offshore magnitude gate flips the label to Indeterminate."""
    cases = {
        "inland": (build_crossing(), detector.Classification.INLAND_RUSH),
        "offshore": (
            build_crossing(u_x=0.2, u_xx=0.5, s_x=0.5),
            detector.Classification.OFFSHORE_RUSH,
        ),
        "weak gate": (
            build_crossing(u_x=0.2, u_xx=0.5, s_x=0.015),
            detector.Classification.INDETERMINATE,
        ),
    }
    for label, ((grid, state, bathy), expected) in cases.items():
        f = riemann.compute(state, bathy, grid)
        pts = [
            p for p in detector.find_critical_points(f, bathy, grid) if not p.plateau
        ]
        assert len(pts) == 1, label
        assert abs(pts[0].x_star) <= grid.dx / 2.0, label
        ev = detector.classify(pts[0], f, state, grid)
        assert ev.classification is expected, (label, ev.classification)
    print("criterion 8: inland, offshore, and gate-flip cases hold")


def test_criterion_09_shoaling_regression(bundled_runs):
    """Bundled shoaling run raises a Shallow InlandRush at the frozen
    time and place (values recorded from the first verified run).

    The event pinned here is a reflection event: it lies about 10 cells
    (0.105) from the reflective wall at x = 3.99, where the reflected
    front meets the shelf, and it follows the wall when dx is refined or
    the wall is moved (ROADMAP, Direction 1)."""
    _, _, result = bundled_runs["shoaling_pulse"]
    hits = [
        ev
        for ev in result.events
        if ev.classification is detector.Classification.INLAND_RUSH
        and ev.depth_regime is detector.DepthRegime.SHALLOW
    ]
    assert len(hits) >= 1
    first = hits[0]
    print(
        "criterion 9: {} shallow inland events, first at t={:.6f} x={:.6f}".format(
            len(hits), first.t, first.x_star
        )
    )
    assert first.t == pytest.approx(13.97043423648349, abs=5e-3)
    assert first.x_star == pytest.approx(3.8846574069884863, abs=5e-3)


def _first_inland_rush(result):
    return next(
        (
            ev
            for ev in result.events
            if ev.classification is detector.Classification.INLAND_RUSH
        ),
        None,
    )


def _bundled_shelf_run(dx, n):
    """The bundled shoaling run on a grid of n nodes dx apart from x0 = -8."""
    root = importlib.resources.files("shoalwave") / "scenarios"
    doc = yaml.safe_load((root / "shoaling_pulse.cfg").read_text())
    doc["grid"].update(dx=dx, n=n)
    cfg = cli.ScenarioConfig.from_doc(doc)
    grid = cfg.build_grid()
    bathy = cfg.build_bathymetry()
    initial = cfg.build_initial(grid, bathy)
    result = solver.run(
        initial, bathy, grid, cfg.build_solver_config(), cfg.build_detector_config()
    )
    return grid, result


def test_the_bundled_inland_rush_is_made_by_the_wall(bundled_runs):
    """The paper's crest rush, as the bundled run shows it, follows the
    reflective wall (ROADMAP, Direction 1).

    Its first InlandRush lies within 15 cells of the wall at x = 3.99 at
    dx = 0.01 (10.5 cells) and at dx = 0.005 over the same span (11.9
    cells), and none is logged by t = 15 with the wall moved out to 7.99.
    """
    bundled_grid, _, bundled = bundled_runs["shoaling_pulse"]
    for grid, result in ((bundled_grid, bundled), _bundled_shelf_run(0.005, 2399)):
        first = _first_inland_rush(result)
        print(
            "first InlandRush at t={:.3f} x={:.3f} for dx={}".format(
                first.t, first.x_star, grid.dx
            )
        )
        wall = grid.x_last
        assert wall == pytest.approx(3.99)
        assert 0.0 < wall - first.x_star < 15 * grid.dx
    grid, result = _bundled_shelf_run(0.01, 1600)
    assert grid.x_last == pytest.approx(7.99)
    assert result.snapshots[-1].t == pytest.approx(15.0)
    assert _first_inland_rush(result) is None


def test_a_head_on_collision_makes_a_crest_rush_far_from_the_walls(collision_runs):
    """The paper's crest rush without a wall (ROADMAP, Direction 1).

    On x in [-8, 8], the bundled right-going pulse meets a left-going one
    over the shelf. Its first InlandRush lies 4.3 from the nearer wall at
    both n = 1601 and 3201, and its onset converges: at first order
    (12.657, 3.649) and (12.540, 3.681), within 0.15 in t and 0.05 in x.
    """
    firsts = []
    for grid, _, result, _ in collision_runs:
        first = _first_inland_rush(result)
        assert first is not None, "no InlandRush by t={}".format(result.snapshots[-1].t)
        print(
            "first InlandRush at t={:.3f} x={:.3f} for dx={}".format(
                first.t, first.x_star, grid.dx
            )
        )
        assert min(first.x_star - grid.x0, grid.x_last - first.x_star) >= 1.0
        firsts.append(first)
    coarse, fine = firsts
    assert abs(coarse.t - fine.t) <= 0.15
    assert abs(coarse.x_star - fine.x_star) <= 0.05


def test_shoaling_outputs_match_frozen_digests(bundled_runs, tmp_path):
    """The bundled shoaling run writes the exact bytes the benchmark froze."""
    grid, bathy, result = bundled_runs["shoaling_pulse"]
    solver.write_outputs(result, bathy, grid, tmp_path, "shoaling_pulse")
    names = ["events.jsonl"] + [p.name for p in tmp_path.glob("snap_*.csv")]
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in names
    }
    digests = Path(__file__).resolve().parent.parent / "bench" / "shoaling_digests.json"
    assert got == json.loads(digests.read_text())


def test_criterion_10_nondimensional_checks():
    """Reference basin figures: delta2 2.38e-5 (1e-7), eps 1.79e-3 (1e-5)."""
    params = nondim.NondimParams(
        wavelength=800_000.0, depth=3900.0, gravity=9.8, amplitude=7.0
    )
    rep = nondim.shallowness_report(params)
    print(
        "criterion 10: delta2={:.6e} epsilon={:.6e} shallow={}".format(
            rep.delta2, rep.epsilon, rep.is_shallow
        )
    )
    assert rep.delta2 == pytest.approx(2.38e-5, abs=1e-7)
    assert rep.epsilon == pytest.approx(1.79e-3, abs=1e-5)
    assert rep.is_shallow is True
