"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import filecmp
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
import shoalwave  # noqa: E402
from shoalwave import bathymetry, fields, solver  # noqa: E402


def _files(path):
    return sorted(p.name for p in Path(path).iterdir())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    assert a == b
    names = _files(tmp_path / "a")
    assert names == _files(tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", names, shallow=False
    )
    assert match == names and not mismatch and not errors


def test_generator_depends_on_seed(tmp_path):
    names = workloads.generate("ocean_transit", 7, tmp_path / "a")
    workloads.generate("ocean_transit", 8, tmp_path / "b")
    assert any(
        (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
        for n in names
    )


def test_digest_check_rejects_corrupted_events(tmp_path):
    (tmp_path / "events.jsonl").write_text('{"t": 1.0, "x_star": 0.5}\n')
    (tmp_path / "snap_000000.csv").write_text("x,gamma_surface,u,b\n")
    expected = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("events.jsonl", "snap_000000.csv")
    }
    assert workloads.digest_mismatches(tmp_path, expected) == []
    (tmp_path / "events.jsonl").write_text('{"t": 1.0, "x_star": 0.6}\n')
    assert workloads.digest_mismatches(tmp_path, expected) == ["events.jsonl"]
    (tmp_path / "snap_000000.csv").unlink()
    assert workloads.digest_mismatches(tmp_path, expected) == [
        "snap_000000.csv",
        "events.jsonl",
    ]


def test_mass_check_rejects_leaking_state():
    grid = fields.Grid(-1.0, 0.05, 40)
    bed = bathymetry.Flat(-1.0)
    first = solver.initial_gaussian_pulse(grid, bed, 0.0, 0.2, 0.01)
    config = solver.SolverConfig(t_end=0.2, boundary="periodic")
    kept = solver.run(first, bed, grid, config).snapshots[-1]
    leaked = kept.copy()
    leaked.gamma_surface[5] -= 1e-6
    b = bed.eval(grid.x)
    drift = workloads.relative_mass_drift
    assert drift(first.gamma_surface - b, kept.gamma_surface - b) <= workloads.MASS_DRIFT_MAX
    assert drift(first.gamma_surface - b, leaked.gamma_surface - b) > workloads.MASS_DRIFT_MAX


def _small_run():
    grid = fields.Grid(-4.0, 0.05, 80)
    bed = bathymetry.TanhSafe(0.2, 0.4)
    initial = solver.initial_gaussian_pulse(grid, bed, -2.0, 0.5, 0.01)
    return solver.run(initial, bed, grid, solver.SolverConfig(t_end=0.3))


def test_tracer_records_then_removes_its_wrappers():
    originals = {
        name: getattr(solver, name) for name in ("step", "_rhs", "classify", "save_state")
    }
    grid_x = fields.Grid.__dict__["x"]
    tanh_eval = bathymetry.TanhSafe.__dict__["eval"]
    expected = _small_run()

    with tracer.Tracer() as t:
        traced = _small_run()
    counts = {name: row["calls"] for name, row in t.summary().items()}
    assert counts["solver.step"] == traced.steps == expected.steps
    assert counts["bathymetry.eval"] > 0 and counts["fields.Grid.x"] > 0
    assert all(row["self_s"] <= row["incl_s"] + 1e-9 for row in t.summary().values())

    for name, original in originals.items():
        assert getattr(solver, name) is original
    assert fields.Grid.__dict__["x"] is grid_x
    assert bathymetry.TanhSafe.__dict__["eval"] is tanh_eval
    spans = t.span_count()
    again = _small_run()
    assert t.span_count() == spans
    assert again.steps == expected.steps
    np.testing.assert_array_equal(
        again.snapshots[-1].gamma_surface, expected.snapshots[-1].gamma_surface
    )


def test_units_repeat_the_same_work_and_catch_a_changed_result(tmp_path, monkeypatch):
    configs = workloads.generate("ocean_transit", 3, tmp_path / "inputs")
    monkeypatch.chdir(tmp_path / "inputs")
    check = workloads.PASSES["ocean_transit"](shoalwave, configs, tmp_path / "check")
    units = workloads.units(shoalwave, "ocean_transit", configs, tmp_path, check)
    first = [u.call(check) for u in units]
    again = [u.call(check) for u in units]
    assert not check.problems
    assert [c for _, c in first] == [c for _, c in again]
    segment_cells = sum(u.weight * c for u, (_, c) in zip(units, first) if u.kind == "run")
    # Each segment may end with one short step the whole run does not take.
    assert 0 <= segment_cells - check.cells <= check.n * workloads.SEGMENTS["ocean_transit"]

    real_run = solver.run

    def drifting_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        result.snapshots[-1].gamma_surface[0] += 1e-9
        return result

    monkeypatch.setattr(solver, "run", drifting_run)
    units[0].call(check)
    assert check.problems == ["segment 0 repeated with another end state"]
