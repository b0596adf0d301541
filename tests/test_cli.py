"""End-to-end command tests driven through cli.main with in-process argv."""

import argparse
import importlib.resources
import json
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from shoalwave import analytic, cli, solver
from shoalwave.detector import DetectorConfig
from shoalwave.solver import SolverConfig
from shoalwave.fields import FlowState, Grid, load_state, save_state
from shoalwave.bathymetry import Flat, Linear, Sampled

from conftest import build_crossing

DATA = Path(__file__).parent / "data"
# detect's stdout and exit code on the alert fixture, recorded with the
# csv.reader snapshot reader that np.loadtxt replaced, and on the block-edge
# fixture, recorded while a sampled bed still built all its slope nodes
# when constructed. That fixture (n=200) reads the bed slope at two plateau
# centres and at crossings between nodes 63|64 and 127|128; its bed file
# holds the grid nodes plus one extra node in each of the first 70
# intervals. CSV args are relative to DATA.
DETECT_GOLDEN = json.loads((DATA / "detect_golden.json").read_text())
# verify-analytic's stdout and exit code, and the float.hex of
# convergence_study's errors, recorded while the flux solve still skipped
# still interfaces at the grid ends. These runs have an inflow or are
# second order, so every step solves the whole grid.
VERIFY_GOLDEN = json.loads((DATA / "verify_analytic_golden.json").read_text())


def _alert_fixture_lines(columns):
    """Lines of the alert fixture holding only the given columns."""
    rows = (DATA / "shoaling_alert_state.csv").read_text().splitlines()
    return [",".join(r.split(",")[i] for i in columns) for r in rows]


def _mangle(lines, how):
    """A CSV file, given as its header and rows, broken one way, as bytes."""
    header, *rows = (line.encode() for line in lines)
    cells = rows[2].split(b",")
    if how == "header only":
        rows = []
    elif how == "four rows":
        rows = rows[:4]
    else:
        rows[2] = {
            "ragged row": b",".join(cells[:-1]),
            "trailing comma": rows[2] + b",",
            "empty field": b",".join([cells[0], b""] + cells[2:]),
            "non-UTF-8 byte": b"\xff" + rows[2],
        }[how]
    return b"\n".join([header] + rows) + b"\n"


MALFORMED = [
    "header only",
    "four rows",
    "ragged row",
    "trailing comma",
    "empty field",
    "non-UTF-8 byte",
]


def _names_the_bad_line(message, how, width):
    """Whether message names line 4, the row _mangle broke, and no numpy advice."""
    if how in ("header only", "four rows"):
        return "line " not in message
    expected = {
        "ragged row": "line 4: expected {} numbers, got {}".format(width, width - 1),
    }.get(how, "line 4: cannot read ")
    return expected in message and "usecols" not in message


def stage_bundled_cfg(tmp_path, name):
    root = importlib.resources.files("shoalwave") / "scenarios"
    path = tmp_path / name
    path.write_text((root / name).read_text())
    return str(path)

SMALL_RUN = """\
name: tiny
grid: {x0: -10.0, dx: 0.1, n: 200}
bathymetry: {kind: flat, b0: -1.0}
initial: {kind: gaussian_pulse, center: 0.0, width: 1.0, amplitude: 0.01}
solver: {t_end: 1.0, snapshot_interval: 0.5}
detector: {}
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_small_run_exits_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert cli.main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "run tiny:" in out
        manifest = json.loads((tmp_path / "out" / "tiny" / "run.json").read_text())
        assert manifest["run_id"] == "tiny"
        assert len(manifest["snapshot_files"]) == 3
        for name in manifest["snapshot_files"]:
            assert (tmp_path / "out" / "tiny" / name).exists()

    def test_runs_are_deterministic(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "a"))
        assert cli.main(["run", cfg]) == 0
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "b"))
        assert cli.main(["run", cfg]) == 0
        for name in ("run.json", "events.jsonl"):
            a = (tmp_path / "a" / "tiny" / name).read_bytes()
            b = (tmp_path / "b" / "tiny" / name).read_bytes()
            assert a == b
        snaps = sorted((tmp_path / "a" / "tiny").glob("snap_*.csv"))
        assert snaps
        for snap in snaps:
            twin = tmp_path / "b" / "tiny" / snap.name
            assert snap.read_bytes() == twin.read_bytes()

    def test_run_id_and_output_dir_flags(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        code = cli.main(
            ["run", cfg, "--output-dir", str(tmp_path / "o"), "--run-id", "attempt-7"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "tiny" / "run.json").read_text())
        assert manifest["run_id"] == "attempt-7"

    def test_t_end_override_shortens_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert cli.main(["run", cfg, "--t-end", "0.2"]) == 0
        manifest = json.loads((tmp_path / "out" / "tiny" / "run.json").read_text())
        assert manifest["snapshot_times"][-1] == pytest.approx(0.2, abs=1e-9)

    def test_batch_runs_every_config_and_has_no_jobs_flag(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        cfg_a = write_cfg(tmp_path, SMALL_RUN, "a.cfg")
        cfg_b = write_cfg(
            tmp_path, SMALL_RUN.replace("name: tiny", "name: tiny2"), "b.cfg"
        )
        assert cli.main(["run", cfg_a, cfg_b]) == 0
        assert (tmp_path / "out" / "tiny" / "run.json").exists()
        assert (tmp_path / "out" / "tiny2" / "run.json").exists()
        capsys.readouterr()
        # Configs run one after another; there is no --jobs flag.
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", cfg_a, "--jobs", "2"])
        assert exc.value.code == cli.EXIT_CONFIG
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["usage error: shoalwave: unrecognized arguments: --jobs 2"]

    def test_jobs_print_each_block_whole_in_batch_order(self, tmp_path, capsys):
        # The first config runs longest, so the others finish before it.
        longest = SMALL_RUN.replace("name: tiny", "name: long").replace(
            "n: 200", "n: 2000"
        )
        batch = [
            write_cfg(tmp_path, longest.replace("t_end: 1.0", "t_end: 3.0"), "a.cfg"),
            write_cfg(tmp_path, SMALL_RUN, "b.cfg"),
            write_cfg(tmp_path, "name: broken\n", "c.cfg"),
            write_cfg(tmp_path, SMALL_RUN.replace("name: tiny", "name: t2"), "d.cfg"),
        ]
        out = ["--output-dir", str(tmp_path / "out")]
        assert cli.main(["run", *batch, *out]) == 1
        starts = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
        assert [s for s in starts if s[0] in ("run", "config")] == [
            ["run", "long:"],
            ["run", "tiny:"],
            ["config", "error"],
            ["run", "t2:"],
        ]

    def test_batch_rejects_an_output_directory_already_used(
        self, tmp_path, capsys, monkeypatch
    ):
        # The second "tiny" would write over the first; it ends with one
        # config error line and writes nothing, and the batch goes on.
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        first = write_cfg(tmp_path, SMALL_RUN, "first.cfg")
        longer = SMALL_RUN.replace("t_end: 1.0", "t_end: 2.0")
        again = write_cfg(tmp_path, longer, "again.cfg")
        renamed = SMALL_RUN.replace("name: tiny", "name: other")
        other = write_cfg(tmp_path, renamed, "other.cfg")
        assert cli.main(["run", first, again, other]) == 1
        lines = capsys.readouterr().out.splitlines()
        rejected = [line for line in lines if again in line]
        assert rejected == [
            "config error [{}]: output directory {} is already used by {}".format(
                again, tmp_path / "out" / "tiny", first
            )
        ]
        manifest = json.loads((tmp_path / "out" / "tiny" / "run.json").read_text())
        assert manifest["config"]["solver"]["t_end"] == 1.0
        assert (tmp_path / "out" / "other" / "run.json").exists()

    def test_batch_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        threads = []
        run = solver.run

        def recorded_run(*args, **kwargs):
            threads.append(threading.get_ident())
            return run(*args, **kwargs)

        monkeypatch.setattr(solver, "run", recorded_run)
        batch = [
            write_cfg(tmp_path, SMALL_RUN.replace("tiny", name), name + ".cfg")
            for name in ("a", "b", "c")
        ]
        out = ["--output-dir", str(tmp_path / "out")]
        assert cli.main(["run", *batch, *out]) == 0
        assert threads == [threading.get_ident()] * 3

    def test_rerun_leaves_only_the_snapshots_its_manifest_lists(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        out = ["--output-dir", str(tmp_path / "out")]
        run_dir = tmp_path / "out" / "tiny"
        assert cli.main(["run", cfg] + out) == 0
        first = sorted(p.name for p in run_dir.glob("snap_*.csv"))
        assert cli.main(["run", cfg, "--t-end", "0.4"] + out) == 0
        manifest = json.loads((run_dir / "run.json").read_text())
        kept = sorted(p.name for p in run_dir.glob("snap_*.csv"))
        assert kept == sorted(manifest["snapshot_files"])
        assert len(first) == 3 and len(kept) == 2

    def test_batch_returns_worst_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        good = write_cfg(tmp_path, SMALL_RUN, "good.cfg")
        bad = write_cfg(tmp_path, "name: broken\n", "bad.cfg")
        assert cli.main(["run", good, bad]) == 1

    def test_missing_file_exits_config(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "config error" in capsys.readouterr().out

    def test_bundled_lake_scenario_stays_quiet(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        cfg = stage_bundled_cfg(tmp_path, "lake_at_rest.cfg")
        assert cli.main(["run", cfg]) == 0
        run_dir = tmp_path / "out" / "lake_at_rest"
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["n_events"] == 0
        assert (run_dir / "events.jsonl").read_text() == ""

    def test_bundled_shoaling_scenario_logs_rush_events(self, tmp_path, monkeypatch):
        # Full reference run: the pulse climbs the shelf, reflects off the
        # wall, and the event log must carry at least one shallow inland
        # rush with a complete record per line.
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        cfg = stage_bundled_cfg(tmp_path, "shoaling_pulse.cfg")
        assert cli.main(["run", cfg]) == 0
        log = tmp_path / "out" / "shoaling_pulse" / "events.jsonl"
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records
        assert any(
            r["classification"] == "InlandRush" and r["depth_regime"] == "Shallow"
            for r in records
        )
        for r in records:
            assert set(r) >= {"t", "x_star", "classification", "side", "run_id"}


ANALYTIC_RUN = """\
name: slope
grid: {x0: -1.0, dx: 0.05, n: 41}
bathymetry: {kind: linear, b0: -1.0, b1: 0.1}
initial: {kind: linear_bottom_analytic, a0: 0.2, c0: 0.0}
solver: {t_end: 0.5}
"""


class TestRunPaths:
    """run's paths that the other tests leave to the library: the
    linear_bottom_analytic initial kind, the --second-order and
    --stop-at-first-event overrides, and a config's output_dir."""

    @pytest.mark.parametrize(
        "b1, flags", [(0.0, []), (0.1, ["--second-order"])], ids=["flat", "sloped"]
    )
    def test_an_analytic_run_ends_on_the_closed_form(self, tmp_path, capsys, b1, flags):
        # The scheme reproduces the family to rounding on a flat bed, and
        # at second order on a sloping one.
        cfg = write_cfg(tmp_path, ANALYTIC_RUN.replace("b1: 0.1", "b1: {}".format(b1)))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--output-dir", str(out), *flags]) == 0
        manifest = json.loads((out / "slope" / "run.json").read_text())
        assert manifest["config"]["solver"]["second_order"] == bool(flags)
        t = manifest["snapshot_times"][-1]
        assert t == 0.5
        grid, state, _ = load_state(out / "slope" / manifest["snapshot_files"][-1])
        sol = cli.load_config(cfg).analytic_solution(grid)
        u, surface, _ = analytic.eval_solution(sol, t, grid.x)
        assert np.max(np.abs(state.gamma_surface - surface)) <= 1e-14
        assert np.max(np.abs(state.velocity - u)) <= 1e-14

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                ("kind: linear, b0: -1.0, b1: 0.1", "kind: flat, b0: -1.0"),
                "linear_bottom_analytic needs bathymetry kind 'linear'",
            ),
            (("c0: 0.0", "c0: -1.0"), "initial: needs a wet column"),
            (("a0: 0.2, c0: 0.0", "a0: 0.2, c0: 0.0, x2: 0.5"), "initial: grid ["),
        ],
        ids=["flat bed", "c0 <= b0", "grid outside (x1, x2)"],
    )
    def test_a_bad_analytic_config_is_one_line(self, tmp_path, capsys, change, message):
        cfg = write_cfg(tmp_path, ANALYTIC_RUN.replace(*change))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--output-dir", str(out)]) == cli.EXIT_CONFIG
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error [{}]: ".format(cfg))
        assert message in lines[0]
        assert not out.exists()

    def test_stop_at_first_event_ends_at_the_first_rush(self, tmp_path, capsys):
        # The whole bundled shelf run takes 6668 steps and logs rushes
        # after its first; stopped, it ends on the step of the first one.
        cfg = stage_bundled_cfg(tmp_path, "shoaling_pulse.cfg")
        out = tmp_path / "out"
        argv = ["run", cfg, "--output-dir", str(out), "--stop-at-first-event"]
        assert cli.main(argv) == 0
        run_dir = out / "shoaling_pulse"
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["post_singular"] is True
        assert manifest["steps"] < 6668
        records = (run_dir / "events.jsonl").read_text().splitlines()
        classes = [json.loads(line)["classification"] for line in records]
        rushes = [k for k, cls in enumerate(classes) if cls.endswith("Rush")]
        assert rushes == [len(classes) - 1]
        assert json.loads(records[-1])["t"] == manifest["snapshot_times"][-1]

    def test_a_configs_output_dir_wins_over_the_flag(self, tmp_path, capsys):
        own = tmp_path / "own"
        cfg = write_cfg(tmp_path, SMALL_RUN + "output_dir: {}\n".format(own))
        flag = tmp_path / "flag"
        assert cli.main(["run", cfg, "--output-dir", str(flag)]) == 0
        assert json.loads((own / "run.json").read_text())["run_id"] == "tiny"
        assert not flag.exists()


class TestRunFailures:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("grid"),
            lambda d: d.pop("solver"),
            lambda d: d["grid"].update(n=-5),
            lambda d: d["grid"].update(extra=1),
            lambda d: d.update(mystery={}),
            lambda d: d["solver"].update(t_end=-3.0),
            lambda d: d["solver"].update(boundary="open"),
            lambda d: d["bathymetry"].update(kind="trench"),
            lambda d: d["initial"].update(kind="dam_break"),
            lambda d: d["detector"].update(window=3),
            lambda d: d["detector"].update(alert_eps_r=-1.0),
            lambda d: d["detector"].update(eps_px=0.0),
            lambda d: d["solver"].update(second_order="false"),
            lambda d: d["solver"].update(stop_at_first_event=1),
            lambda d: d["solver"].update(t_end=float("nan")),
            lambda d: d["solver"].update(h_min=float("inf")),
        ],
    )
    def test_bad_documents_exit_config(self, tmp_path, mangle):
        doc = yaml.safe_load(SMALL_RUN)
        mangle(doc)
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg]) == 1

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d["grid"].update(n="abc"),
            lambda d: d["grid"].update(n=200.5),
            lambda d: d.update(grid=[1, 2]),
        ],
    )
    def test_malformed_section_is_one_config_error_line(self, tmp_path, capsys, mangle):
        doc = yaml.safe_load(SMALL_RUN)
        mangle(doc)
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error [{}]: ".format(cfg))

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (
                lambda d: d["solver"].update(second_order="false"),
                "key 'solver.second_order' must be true or false, got 'false'",
            ),
            (
                lambda d: d["solver"].update(t_end="1e400"),
                "key 'solver.t_end' must be a finite number, got '1e400'",
            ),
            (
                lambda d: d["detector"].update(alert_eps_r=float("nan")),
                "key 'detector.alert_eps_r' must be a finite number, got nan",
            ),
            (
                lambda d: d["bathymetry"].update(b1=7.0),
                "bathymetry: unknown flat parameters: ['b1']",
            ),
            (
                lambda d: d["bathymetry"].update(b0=float("-inf")),
                "bathymetry: flat parameter 'b0' must be a finite number",
            ),
            (
                lambda d: d["initial"].update(surfce=0.5),
                "unknown initial keys: ['surfce']",
            ),
            (
                lambda d: d.update(initial={"kind": "from_file", "path": 0}),
                "key 'initial.path' must be a string, got 0",
            ),
        ],
    )
    def test_bad_value_is_one_line_naming_it(self, tmp_path, capsys, mangle, message):
        doc = yaml.safe_load(SMALL_RUN)
        mangle(doc)
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error [{}]: {}".format(cfg, message))

    @pytest.mark.parametrize("flag", ["--t-end", "--cfl"])
    def test_nonfinite_override_exits_config(self, tmp_path, capsys, flag):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert cli.main(["run", cfg, flag, "nan"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "config error [{}]: key 'solver.{}' must be a finite number, "
            "got nan".format(cfg, flag[2:].replace("-", "_"))
        ]

    def test_undecodable_config_does_not_stop_the_batch(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        binary = tmp_path / "bin.cfg"
        binary.write_bytes(b"name: \xff\xfe\n")
        good = write_cfg(tmp_path, SMALL_RUN, "good.cfg")
        assert cli.main(["run", str(binary), good]) == 1
        lines = capsys.readouterr().out.splitlines()
        errors = [line for line in lines if line.startswith("config error")]
        assert len(errors) == 1
        assert errors[0].startswith("config error [{}]: ".format(binary))
        assert (tmp_path / "out" / "tiny" / "run.json").exists()

    def test_bad_config_does_not_stop_the_batch(self, tmp_path, capsys, monkeypatch):
        # The sampled bed ends short of the grid's last node; that is a
        # config error for this file, and the next config still runs.
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        bed = tmp_path / "bed.csv"
        bed.write_text("x,b\n" + "".join("{},-1.0\n".format(x) for x in range(-10, 6)))
        doc = yaml.safe_load(SMALL_RUN)
        doc["name"] = "short_bed"
        doc["bathymetry"] = {"kind": "sampled", "path": str(bed)}
        doc["initial"] = {"kind": "lake_at_rest"}
        bad = write_cfg(tmp_path, yaml.safe_dump(doc), "short_bed.cfg")
        good = stage_bundled_cfg(tmp_path, "lake_at_rest.cfg")
        assert cli.main(["run", bad, good, "--t-end", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "config error [{}]: bathymetry: sampled range".format(bad) in out
        assert not (tmp_path / "out" / "short_bed").exists()
        assert (tmp_path / "out" / "lake_at_rest" / "run.json").exists()

    def test_unparseable_yaml_exits_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "name: [unclosed\n")
        assert cli.main(["run", cfg]) == 1
        assert "config error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text,problem",
        [
            (
                "name: [unclosed\n",
                "while parsing a flow sequence: expected ',' or ']', but got "
                "'<stream end>' at line 2, column 1",
            ),
            (
                SMALL_RUN.replace("b0: -1.0}", "b0: -1.0, b0: -2.0}"),
                "repeated key 'b0' at line 3, column 36",
            ),
            (SMALL_RUN + "name: other\n", "repeated key 'name' at line 7, column 1"),
        ],
    )
    def test_parse_error_is_one_line_with_its_place(
        self, tmp_path, capsys, text, problem
    ):
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 1
        line = "config error [{0}]: cannot parse {0}: {1}".format(cfg, problem)
        assert capsys.readouterr().out.splitlines() == [line]
        assert not (tmp_path / "out").exists()

    def test_a_merge_key_is_not_a_repeated_key(self, tmp_path):
        # A key given beside a YAML merge key overrides the merged one.
        merged = "solver: {<<: {t_end: 1.0}, t_end: 0.5,"
        doc = SMALL_RUN.replace("solver: {t_end: 1.0,", merged)
        assert cli.load_config(write_cfg(tmp_path, doc)).solver["t_end"] == 0.5

    def test_dry_pulse_exits_near_dry(self, tmp_path, capsys):
        doc = yaml.safe_load(SMALL_RUN)
        doc["bathymetry"]["b0"] = -0.5
        doc["initial"]["amplitude"] = -0.6
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg]) == 2
        assert "near-dry abort" in capsys.readouterr().out

    def test_dry_rest_state_exits_near_dry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        doc = yaml.safe_load(SMALL_RUN)
        doc["bathymetry"]["b0"] = 0.5
        doc["initial"] = {"kind": "lake_at_rest"}
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg]) == 2

    def test_nonfinite_initial_file_exits_blow_up(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
        g = Grid(-10.0, 0.1, 200)
        b = Flat(-1.0)
        u = np.zeros(200)
        u[100] = np.nan
        state_path = tmp_path / "seed.csv"
        save_state(FlowState(0.0, np.zeros(200), u), b, g, state_path)
        doc = yaml.safe_load(SMALL_RUN)
        doc["initial"] = {"kind": "from_file", "path": str(state_path)}
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg]) == 3
        assert "numeric blow-up" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid, code",
        [
            ({"x0": 100.0, "dx": 0.001, "n": 400}, 0),
            ({"x0": 100.0, "dx": 0.001, "n": 401}, 1),
            ({"x0": 100.5, "dx": 0.001, "n": 400}, 1),
            ({"x0": 100.0, "dx": 0.002, "n": 400}, 1),
        ],
        ids=["same", "n", "x0", "dx"],
    )
    def test_initial_file_must_sit_on_the_grid(self, tmp_path, capsys, grid, code):
        # Far enough from x = 0 that the nodes rebuilt from the file's first
        # spacing drift by more than 1e-9 * dx over the grid; the file's own
        # nodes match exactly.
        g = Grid(100.0, 0.001, 400)
        state_path = tmp_path / "seed.csv"
        save_state(FlowState(0.0, np.zeros(g.n), np.zeros(g.n)), Flat(-1.0), g, state_path)
        doc = yaml.safe_load(SMALL_RUN)
        doc["grid"] = grid
        doc["initial"] = {"kind": "from_file", "path": str(state_path)}
        doc["solver"] = {"t_end": 0.002}
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == code
        lines = capsys.readouterr().out.splitlines()
        if code:
            message = "initial state file does not match the grid"
            assert lines == ["config error [{}]: {}".format(cfg, message)]

    @pytest.mark.parametrize("argv", [["detect"], ["run"]])
    def test_overflow_prints_one_line_and_no_warning(self, tmp_path, capfd, argv):
        # Velocities near the float maximum overflow inside numpy before
        # the blow-up check reports them: in the detector's p_x for the
        # snapshot, and in the flux solve for the initial state.
        detect = argv[0] == "detect"
        g = Grid(0.0, 0.1, 12) if detect else Grid(-10.0, 0.1, 200)
        u = np.zeros(g.n)
        if detect:
            u[:2] = 4.4e307, 4.7e307
        else:
            u[100] = 1e300
        state_path = tmp_path / "state.csv"
        save_state(FlowState(0.0, np.zeros(g.n), u), Flat(-1.0), g, state_path)
        if detect:
            args = [*argv, str(state_path)]
        else:
            doc = yaml.safe_load(SMALL_RUN)
            doc["initial"] = {"kind": "from_file", "path": str(state_path)}
            cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
            args = [*argv, cfg, "--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == cli.EXIT_BLOW_UP
        assert [str(w.message) for w in caught] == []
        out, err = capfd.readouterr()
        assert len(out.splitlines()) == 1 and "numeric blow-up" in out
        assert err == ""


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_positive = _finite(1e-12, 1e6)

# Every required key, and any subset of the optional ones.
SCENARIO_DOCS = st.fixed_dictionaries(
    {
        "name": st.text("abcxyz_-0123456789", min_size=1, max_size=12),
        "grid": st.fixed_dictionaries(
            {"x0": _finite(-1e6, 1e6), "dx": _positive, "n": st.integers(8, 10**6)}
        ),
        "bathymetry": st.one_of(
            st.fixed_dictionaries({"kind": st.just("flat"), "b0": _finite(-1e4, 0)}),
            st.fixed_dictionaries(
                {"kind": st.just("tanh_safe"), "h": _positive, "K": _positive}
            ),
        ),
        "initial": st.fixed_dictionaries(
            {"kind": st.just("lake_at_rest")},
            optional={"surface": _finite(-1.0, 1.0)},
        ),
        "solver": st.fixed_dictionaries(
            {"t_end": _finite(0.0, 1e6)},
            optional={
                "cfl": _finite(1e-6, 1.0),
                "boundary": st.sampled_from(["transmissive", "reflective", "periodic"]),
                "h_min": _positive,
                "snapshot_interval": st.none() | _positive,
                "second_order": st.booleans(),
                "stop_at_first_event": st.booleans(),
            },
        ),
    },
    optional={
        "detector": st.fixed_dictionaries(
            {},
            optional={
                "eps_px": st.none() | _positive,
                "alert_eps_r": _positive,
                "alert_eps_gamma": _positive,
            },
        ),
        "output_dir": st.none() | st.just("runs/x"),
    },
)


class TestConfigRoundTrip:
    @settings(max_examples=200)
    @given(doc=SCENARIO_DOCS)
    def test_file_and_library_agree(self, doc):
        # Parsing is the identity on the canonical form, and what a file
        # sets (or leaves to default) builds the objects the library builds
        # from the same keyword arguments.
        cfg = cli.ScenarioConfig.from_doc(doc)
        again = cli.ScenarioConfig.from_doc(yaml.safe_load(cli.serialize_config(cfg)))
        assert again == cfg
        assert cfg.build_solver_config() == SolverConfig(**doc["solver"])
        assert cfg.build_detector_config() == DetectorConfig(
            **(doc.get("detector") or {})
        )

    def test_defaults_are_the_dataclass_defaults(self):
        doc = yaml.safe_load(SMALL_RUN)
        doc["solver"] = {"t_end": 2.5}
        del doc["detector"]
        cfg = cli.ScenarioConfig.from_doc(doc)
        assert cfg.build_solver_config() == SolverConfig(t_end=2.5)
        assert cfg.build_detector_config() == DetectorConfig()

    def test_parse_serialize_parse_is_identity(self, tmp_path):
        cfg = cli.load_config(write_cfg(tmp_path, SMALL_RUN))
        text = cli.serialize_config(cfg)
        again = cli.ScenarioConfig.from_doc(yaml.safe_load(text))
        assert again.to_doc() == cfg.to_doc()
        assert cli.serialize_config(again) == text

    def test_bundled_scenarios_parse_and_build(self):
        root = importlib.resources.files("shoalwave") / "scenarios"
        names = sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))
        assert names == ["lake_at_rest.cfg", "shoaling_pulse.cfg"]
        for name in names:
            cfg = cli.ScenarioConfig.from_doc(
                yaml.safe_load((root / name).read_text())
            )
            grid = cfg.build_grid()
            bathy = cfg.build_bathymetry()
            cfg.build_initial(grid, bathy)
            cfg.build_solver_config()
            cfg.build_detector_config()


class TestDetect:
    def test_alert_state_exits_alert(self, capsys):
        code = cli.main(["detect", str(DATA / "shoaling_alert_state.csv")])
        assert code == 4
        out = capsys.readouterr().out
        assert "ALERT: shallow-regime rush event present" in out
        assert "InlandRush" in out

    def test_alert_state_with_explicit_bathymetry(self):
        code = cli.main(
            [
                "detect",
                str(DATA / "shoaling_alert_state.csv"),
                "--bathy",
                "tanh_safe:h=0.02,K=1.99",
            ]
        )
        assert code == 4

    def test_rest_state_is_quiet(self, tmp_path, capsys):
        g = Grid(-20.0, 0.1, 400)
        b = Flat(-1.0)
        path = tmp_path / "rest.csv"
        save_state(FlowState(0.0, np.zeros(400), np.zeros(400)), b, g, path)
        assert cli.main(["detect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical points: 0" in out
        assert "alert nodes" in out

    def test_mean_depth_adds_deep_sea_line(self, tmp_path, capsys):
        g = Grid(-20.0, 0.1, 400)
        b = Flat(-3900.0)
        path = tmp_path / "deep.csv"
        save_state(FlowState(0.0, np.full(400, 7.0), np.zeros(400)), b, g, path)
        assert cli.main(["detect", str(path), "--mean-depth", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "deep-sea: max sound speed=" in out
        ms = float(out.split("max sound speed=")[1].split()[0])
        assert ms == pytest.approx(np.sqrt(3907.0), rel=1e-4)

    def test_nan_does_not_hide_a_dry_column(self, tmp_path, capsys):
        # The surface at node 5 is NaN and at node 40 far below the bed.
        lines = (DATA / "shoaling_alert_state.csv").read_text().splitlines()
        for row, value in ((6, "nan"), (41, "-5.0")):
            cells = lines[row].split(",")
            cells[1] = value
            lines[row] = ",".join(cells)
        path = tmp_path / "nan_and_dry.csv"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["detect", str(path)]) == 2
        assert "state is dry: dry column at node 40" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "case", DETECT_GOLDEN, ids=lambda case: " ".join(case["args"])
    )
    def test_output_matches_the_frozen_bytes(self, capsys, case):
        first, *flags = case["args"]
        flags = [str(DATA / f) if f.endswith(".csv") else f for f in flags]
        code = cli.main(["detect", str(DATA / first), *flags])
        assert code == case["exit"]
        assert capsys.readouterr().out == case["stdout"]

    @pytest.mark.parametrize("how", MALFORMED)
    def test_malformed_state_file_is_one_line(self, tmp_path, capsys, how):
        path = tmp_path / "bad.csv"
        path.write_bytes(_mangle(_alert_fixture_lines(range(4)), how))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_state(path)
            assert cli.main(["detect", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cannot read state file: ")
        assert str(path) in lines[0]
        assert _names_the_bad_line(lines[0], how, 4), lines[0]

    @pytest.mark.parametrize("how", MALFORMED)
    def test_malformed_bed_file_is_one_line(self, tmp_path, capsys, how):
        path = tmp_path / "bad.csv"
        lines = _alert_fixture_lines([0, 3])
        lines[0] = "x,b"
        path.write_bytes(_mangle(lines, how))
        state = str(DATA / "shoaling_alert_state.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(str(path))):
                Sampled.from_csv(path)
            assert cli.main(["detect", state, "--bathy", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bad bathymetry spec: ")
        assert str(path) in lines[0]
        assert _names_the_bad_line(lines[0], how, 2), lines[0]

    def test_tiny_spacing_bed_is_one_line_and_no_warning(self, tmp_path, capfd):
        # The b column on nodes 1e-310 apart divides by zero in the monotone
        # interpolant's node slopes before the sampled bed rejects them.
        g = Grid(0.0, 1e-310, 40)
        path = tmp_path / "state.csv"
        state = FlowState(0.0, np.zeros(40), np.zeros(40))
        save_state(state, Linear(-1.0, 1e308), g, path)
        assert cli.main(["detect", str(path)]) == cli.EXIT_CONFIG
        out, err = capfd.readouterr()
        assert len(out.splitlines()) == 1 and out.startswith("bad bathymetry spec: ")
        assert "non-finite slopes; smallest node spacing 1e-310" in out
        assert err == ""

    def test_missing_file_exits_config(self, tmp_path, capsys):
        assert cli.main(["detect", str(tmp_path / "nope.csv")]) == 1
        assert "cannot read state file" in capsys.readouterr().out

    def test_bad_bathy_spec_exits_config(self, capsys):
        state = str(DATA / "shoaling_alert_state.csv")
        assert cli.main(["detect", state, "--bathy", "volcano:h=1"]) == 1
        assert "bad bathymetry spec" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("tanh_safe:h=nan,K=1.99", "tanh_safe parameter 'h' must be a finite"),
            ("tanh_safe:h=0.02,K=1.99,extra=3", "unknown tanh_safe parameters"),
            ("tanh_safe:h=0.02", "tanh_safe needs parameters: ['K']"),
            ("flat:b0=-1,b0=2", "repeated parameter 'b0'"),
        ],
    )
    def test_bad_bathy_parameter_is_one_line(self, capsys, spec, message):
        state = str(DATA / "shoaling_alert_state.csv")
        assert cli.main(["detect", state, "--bathy", spec]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("bad bathymetry spec: " + message)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps-px", "-1"),
            ("--eps-px", "nan"),
            ("--alert-eps-r", "-1"),
            ("--gamma-ref", "nan"),
            ("--gamma-ref", "-1"),
            ("--gamma-ref", "0"),
            ("--gamma-ref", "inf"),
        ],
    )
    def test_bad_threshold_exits_config(self, capsys, flag, value):
        state = str(DATA / "shoaling_alert_state.csv")
        assert cli.main(["detect", state, flag, value]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid parameters: " + flag[2:].replace("-", "_"))

    def test_gamma_ref_override_downgrades_alert(self):
        # A tiny reference depth makes every event look deep relative to it,
        # so the shallow-rush alert does not fire.
        state = str(DATA / "shoaling_alert_state.csv")
        assert cli.main(["detect", state, "--gamma-ref", "0.01"]) == 0

    def test_deep_crossing_is_reported_but_not_alerting(self, tmp_path, capsys):
        # Same local wave shape as the alert fixture, but the column at the
        # crossing is as thick as anywhere on the snapshot, so the event is
        # downgraded and the exit stays clean.
        grid, state, bathy = build_crossing(gamma0=1.5)
        path = tmp_path / "deep_crossing.csv"
        save_state(state, bathy, grid, path)
        assert cli.main(["detect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical points: 1" in out
        assert "InlandRush" in out
        assert "[deep water: severity downgraded]" in out
        assert "ALERT" not in out


class TestVerifyAnalytic:
    def test_first_order_converges(self, capsys):
        code = cli.main(["verify-analytic", "--n", "200", "--t-end", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed-form residual max" in out
        order = float(out.split("observed order: ")[1].split()[0])
        assert order >= 0.9

    def test_default_study_reports_sane_order(self, capsys):
        code = cli.main(["verify-analytic"])
        assert code == 0
        out = capsys.readouterr().out
        order = float(out.split("observed order: ")[1].split()[0])
        assert 0.9 <= order <= 2.2

    def test_flat_bottom_is_exact(self, capsys):
        code = cli.main(["verify-analytic", "--b1", "0", "--n", "100"])
        assert code == 0
        assert "errors at rounding level: exact" in capsys.readouterr().out

    def test_second_order_is_exact_on_family(self, capsys):
        code = cli.main(
            ["verify-analytic", "--n", "100", "--t-end", "0.3", "--second-order"]
        )
        assert code == 0
        assert "errors at rounding level: exact" in capsys.readouterr().out

    def test_broken_flux_fails_study(self, capsys):
        code = cli.main(
            [
                "verify-analytic",
                "--n",
                "100",
                "--t-end",
                "0.3",
                "--flux-perturbation",
                "0.05",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        order = float(out.split("observed order: ")[1].split()[0])
        assert order < 0.9

    @pytest.mark.parametrize(
        "case", VERIFY_GOLDEN, ids=lambda case: " ".join(case["args"]) or "default"
    )
    def test_study_matches_the_frozen_bytes(self, capsys, case):
        argv = ["verify-analytic", *case["args"]]
        assert cli.main(argv) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]
        args = cli.build_parser().parse_args(argv)
        sol = analytic.LinearBottomSolution(
            args.a0, args.b0, args.b1, args.c0, args.x1, args.x2
        )
        errors, _ = cli.convergence_study(
            sol,
            args.n,
            args.t_end,
            args.x_lo,
            args.x_hi,
            second_order=args.second_order,
            flux_perturbation=args.flux_perturbation,
        )
        assert [err.hex() for err in errors] == case["errors"]

    def test_invalid_family_exits_config(self, capsys):
        assert cli.main(["verify-analytic", "--x1", "2.0", "--x2", "-2.0"]) == 1
        assert "invalid solution family" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "3"],
            ["--t-end", "-1"],
            ["--t-end", "nan"],
            ["--x-lo", "5", "--x-hi", "1"],
        ],
    )
    def test_malformed_input_is_one_line(self, capsys, argv):
        assert cli.main(["verify-analytic"] + argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid parameters: ")


class TestSmallTools:
    def test_classify_degenerate_prints_label(self, capsys):
        assert cli.main(["classify-degenerate", "1", "2", "0.5", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "OrderSqrtDepth"

    def test_classify_degenerate_signed_infinity(self, capsys):
        assert cli.main(["classify-degenerate", "2", "2", "0.5", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "SignedInfinity"

    def test_classify_degenerate_equal_linear_terms(self, capsys):
        assert cli.main(["classify-degenerate", "1", "1", "2", "2"]) == 0
        assert capsys.readouterr().out.strip() == "SignedInfinity"

    def test_classify_degenerate_rejects_flat_bed(self, capsys):
        assert cli.main(["classify-degenerate", "1", "1", "0", "1"]) == 1
        assert "invalid degenerate spec" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "numbers",
        [
            ["1", "1", "nan", "1"],
            ["1", "1", "inf", "inf"],
            ["1", "1", "1", "nan"],
            ["1", "1", "1", "1", "--gamma-local", "inf"],
        ],
    )
    def test_classify_degenerate_rejects_non_finite_numbers(self, capsys, numbers):
        assert cli.main(["classify-degenerate", *numbers]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["invalid degenerate spec: B1, C1 and gamma_local must be finite"]

    def test_nondim_reports_shallow_ocean(self, capsys):
        code = cli.main(["nondim", "800000", "3900", "9.8", "7"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["is_shallow"] is True
        assert rep["delta2"] == pytest.approx(2.38e-5, abs=1e-7)
        assert rep["epsilon"] == pytest.approx(1.79e-3, abs=1e-5)

    def test_nondim_scaled_down_basin(self, capsys):
        assert cli.main(["nondim", "8000", "39", "9.8", "7"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["is_shallow"] is True
        assert rep["delta2"] == pytest.approx(2.3765625e-5)

    def test_nondim_rejects_bad_input(self, capsys):
        assert cli.main(["nondim", "-1", "1", "9.8", "0.1"]) == 1
        assert "invalid parameters" in capsys.readouterr().out

    def test_speed_formats_both_units(self, capsys):
        assert cli.main(["speed", "4282", "9.8"]) == 0
        assert capsys.readouterr().out.strip() == "204.85 m/s = 737.5 km/h"

    def test_speed_default_gravity(self, capsys):
        assert cli.main(["speed", "1"]) == 0
        assert capsys.readouterr().out.startswith("3.13 m/s")

    def test_speed_rejects_nonpositive_depth(self, capsys):
        assert cli.main(["speed", "-4"]) == 1
        assert "invalid parameters" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["speed", "nan"],
            ["speed", "inf"],
            ["speed", "1", "nan"],
            ["nondim", "1", "1", "1", "inf"],
            ["nondim", "nan", "1", "1", "1"],
            ["nondim", "1", "inf", "1", "1"],
            ["nondim", "1", "1", "1", "1", "--ratio-max", "nan"],
            ["detect", str(DATA / "shoaling_alert_state.csv"), "--mean-depth", "nan"],
            ["detect", str(DATA / "shoaling_alert_state.csv"), "--mean-depth", "inf"],
            ["detect", str(DATA / "shoaling_alert_state.csv"), "--mean-depth=-inf"],
        ],
    )
    def test_non_finite_number_is_one_line(self, capsys, argv):
        assert cli.main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid parameters: ")


class TestMain:
    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["speed", "abc"],
                "usage error: shoalwave speed: argument depth: "
                "invalid float value: 'abc'",
            ),
            (
                ["detect"],
                "usage error: shoalwave detect: "
                "the following arguments are required: state",
            ),
            ([], "usage error: shoalwave: the following arguments are required: command"),
        ],
        ids=["bad number", "missing state", "no command"],
    )
    def test_malformed_command_line_exits_config(self, capfd, argv, line):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        out, err = capfd.readouterr()
        assert out.splitlines() == [line]
        assert err == ""

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            pytest.param(argv, code, line, id=" ".join(argv))
            for argv, code, line in [
                (
                    ["nondim", "1", "1", "1", "-1e-3"],
                    cli.EXIT_CONFIG,
                    "invalid parameters: amplitude must be nonnegative and finite",
                ),
                (["verify-analytic", "--b1", "-1e-3", "--n", "20"], cli.EXIT_OK, "n=20 "),
                (["classify-degenerate", "1", "1", "-2E+1", "1"], cli.EXIT_OK, "OrderSqrtDepth"),
                (
                    ["detect", "STATE", "--mean-depth", "-5e-1"],
                    cli.EXIT_ALERT,
                    "deep-sea: max sound speed=",
                ),
                (["run", "CFG", "--t-end", "-1e0"], cli.EXIT_CONFIG, "config error ["),
                (
                    ["speed", "-4E0"],
                    cli.EXIT_CONFIG,
                    "invalid parameters: depth must be positive and finite, got -4.0",
                ),
            ]
        ],
    )
    def test_a_negative_number_in_exponent_notation_is_a_value(
        self, tmp_path, capsys, argv, code, line
    ):
        # argparse's own rule reads only -1 and -1.5 as numbers, and took
        # -1e-3 for an option. Each command with a float argument now parses
        # it and ends as its value dictates.
        paths = {"STATE": str(DATA / "shoaling_alert_state.csv")}
        paths["CFG"] = write_cfg(tmp_path, SMALL_RUN)
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] == "run":
            argv += ["--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert any(printed.startswith(line) for printed in lines), lines
        if code == cli.EXIT_CONFIG:
            assert len(lines) == 1, lines
        if argv[0] == "run":
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spelling", ["-1e-3", "-1E-3", "-.1e-2", "-1.e-3", "-0.001", "-1e+0", "-INF", "-nan"]
    )
    def test_negative_float_spellings_parse_as_values(self, spelling):
        args = cli.build_parser().parse_args(["verify-analytic", "--b1", spelling])
        assert repr(args.b1) == repr(float(spelling))

    def test_two_calls_build_at_most_one_parser(self, monkeypatch, capsys):
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(2):
            assert cli.main(["speed", "4000"]) == cli.EXIT_OK
        assert len(builds) <= 1
        assert capsys.readouterr().out == "197.99 m/s = 712.8 km/h\n" * 2

    def test_a_command_replaced_after_the_first_call_runs(self, monkeypatch, capsys):
        assert cli.main(["speed", "4000"]) == cli.EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_speed", lambda args: seen.append(args) or 7)
        assert cli.main(["speed", "4000"]) == 7
        assert [args.depth for args in seen] == [4000.0]

    def test_every_subcommand_has_a_command_function(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert len(sub.choices) == 6
        for name in sub.choices:
            assert callable(getattr(cli, "cmd_" + name.replace("-", "_"), None))

    def test_no_option_value_leaks_into_the_next_call(self, capsys):
        state = str(DATA / "shoaling_alert_state.csv")
        runs = [["detect", state, "--gamma-ref", "0.5"], ["detect", state]]
        first = []
        for argv in runs:
            cli._parser.cache_clear()
            first.append((cli.main(argv), capsys.readouterr().out))
        # One parser serves every call below, in both orders.
        for argv, want in [*zip(runs, first), *zip(runs[::-1], first[::-1])]:
            assert (cli.main(argv), capsys.readouterr().out) == want
        assert first[0] != first[1]
