"""Seeded inputs, passes, timed units and output checks for each workload.

A pass is what one closed-loop client does once: integrate and write, then
call `detect` on snapshots, waiting for each call before the next, and
check every output. An untraced run makes one pass, then times units; a
traced run makes whole passes only.

The end-to-end timings come from units: short pieces of the same work,
repeated in rounds after the pass. A unit key names one fixed piece of
work (a time segment of the run, write_outputs, detect on the final
snapshot), so every repeat of a key does the same work and must give the
same output.
Every integration, write and detect call is one operation; an operation
fails if it raises, exits with an unexpected code or fails its output
check.

Why these two workloads: each puts most of its time in a different layer,
so an optimisation of the detector or the bed has a workload that
exercises it and one that bypasses it.

- shoaling_pulse: the bundled scenario unchanged (n=1200, tanh shelf,
  reflective wall). Most time is in the detector: riemann.compute,
  find_critical_points, classify and the _limit_sign scan. Its outputs
  must be byte-identical to digests frozen in shoaling_digests.json.
- ocean_transit: flat bed at depth 1, n=12000, periodic. Most time is in
  solver.step; the bed is flat, so classify and _limit_sign never run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.resources
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

DIGESTS = Path(__file__).resolve().parent / "shoaling_digests.json"

MASS_DRIFT_MAX = 1e-10

# ocean_transit sizing.
OCEAN_N = 12000
OCEAN_DX = 0.01
OCEAN_T_END = 2.0

# Time segments per run, about 28 steps each: each segment ends on one
# short step to land on its end time, so shorter ones would add steps the
# whole run does not take. One segment in every SAMPLE_EVERY is timed in
# every round, so a run fits many rounds; each round has one detect call.
SEGMENTS = {"shoaling_pulse": 240, "ocean_transit": 16}
SAMPLE_EVERY = {"shoaling_pulse": 16, "ocean_transit": 4}


@dataclass
class Pass:
    """Timings, work and failures of one pass."""

    run_s: float = 0.0
    detect_s: float = 0.0
    n: int = 0
    steps: int = 0
    events: int = 0
    bytes_written: int = 0
    attempted: int = 0
    problems: list = field(default_factory=list)
    # What the units repeat: the run's result and the snapshots detected.
    result: object = None
    snaps: list = field(default_factory=list)

    @property
    def cells(self) -> int:
        return self.n * self.steps

    def fail(self, what: str) -> None:
        self.problems.append(what)


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=True)


def generate(workload: str, seed: int, dest) -> list[str]:
    """Write the workload's configs (and bed CSVs) into dest; return config names.

    The same seed gives byte-identical files. Paths inside configs are
    relative to dest, so the program must run with dest as its working
    directory.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "shoaling_pulse":
        # Fixed by design: its outputs are compared against frozen digests.
        text = (
            importlib.resources.files("shoalwave") / "scenarios" / "shoaling_pulse.cfg"
        ).read_text()
        (dest / "shoaling_pulse.cfg").write_text(text)
        return ["shoaling_pulse.cfg"]
    if workload == "ocean_transit":
        doc = {
            "name": "ocean_transit",
            "grid": {"x0": -0.5 * OCEAN_N * OCEAN_DX, "dx": OCEAN_DX, "n": OCEAN_N},
            "bathymetry": {"kind": "flat", "b0": -1.0},
            "initial": {
                "kind": "gaussian_pulse",
                "center": float(rng.uniform(-20.0, 20.0)),
                "width": 1.0,
                "amplitude": float(rng.uniform(0.01, 0.02)),
            },
            "solver": {"t_end": OCEAN_T_END, "boundary": "periodic"},
            "detector": {},
        }
        (dest / "ocean_transit.cfg").write_text(_dump(doc))
        return ["ocean_transit.cfg"]
    raise ValueError("unknown workload {!r}".format(workload))


def _quiet_main(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def relative_mass_drift(w0, w1) -> float:
    """|M1 - M0| / M0 for column thickness arrays on one uniform grid."""
    m0 = float(np.sum(w0))
    return abs(float(np.sum(w1)) - m0) / m0


def digest_mismatches(run_dir, expected: dict) -> list[str]:
    """Names whose SHA-256 differs from expected, plus missing or extra snapshots."""
    run_dir = Path(run_dir)
    present = {p.name for p in run_dir.glob("snap_*.csv")} | (
        {"events.jsonl"} if (run_dir / "events.jsonl").exists() else set()
    )
    bad = sorted(present ^ set(expected))
    for name in sorted(present & set(expected)):
        digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        if digest != expected[name]:
            bad.append(name)
    return bad


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_config(sw, cfg_path, out_root: Path, p: Pass):
    """Build untimed, then time solver.run plus write_outputs."""
    cfg = sw.cli.load_config(cfg_path)
    grid = cfg.build_grid()
    bathy = cfg.build_bathymetry()
    initial = cfg.build_initial(grid, bathy)
    sol_cfg = cfg.build_solver_config()
    det_cfg = cfg.build_detector_config()
    run_dir = out_root / cfg.name
    p.attempted += 1
    t0 = time.perf_counter()
    result = sw.solver.run(initial, bathy, grid, sol_cfg, det_cfg)
    sw.solver.write_outputs(result, bathy, grid, run_dir, cfg.name, config_doc=cfg.to_doc())
    p.run_s = time.perf_counter() - t0
    p.n = grid.n
    p.steps = result.steps
    p.events = len(result.events)
    p.bytes_written = _dir_bytes(run_dir)
    return run_dir, result, bathy, grid


def _detect(sw, snaps, allowed, p: Pass) -> None:
    codes = []
    t0 = time.perf_counter()
    for snap in snaps:
        codes.append(_quiet_main(sw.cli, ["detect", str(snap)]))
    p.detect_s += time.perf_counter() - t0
    p.attempted += len(snaps)
    for snap, code in zip(snaps, codes):
        if code not in allowed:
            p.fail("detect {} exited {}".format(Path(snap).name, code))


def _snapshot(run_dir: Path, result) -> Path:
    return run_dir / "snap_{:06d}.csv".format(result.snapshot_steps[-1])


def shoaling_pulse(sw, configs, out_root: Path) -> Pass:
    p = Pass()
    run_dir, result, _, _ = run_config(sw, configs[0], out_root, p)
    p.result, p.snaps = result, [_snapshot(run_dir, result)]
    _detect(sw, p.snaps, (sw.cli.EXIT_ALERT,), p)
    expected = json.loads(DIGESTS.read_text())
    for name in digest_mismatches(run_dir, expected):
        p.fail("output {} differs from the frozen digest".format(name))
    return p


def ocean_transit(sw, configs, out_root: Path) -> Pass:
    p = Pass()
    run_dir, result, bathy, grid = run_config(sw, configs[0], out_root, p)
    p.result, p.snaps = result, [_snapshot(run_dir, result)]
    _detect(sw, p.snaps, (sw.cli.EXIT_OK,), p)
    b = bathy.eval(grid.x)
    first, last = result.snapshots[0], result.snapshots[-1]
    drift = relative_mass_drift(first.gamma_surface - b, last.gamma_surface - b)
    if not drift <= MASS_DRIFT_MAX:
        p.fail("mass drift {:.3e}".format(drift))
    return p


PASSES = {
    "shoaling_pulse": shoaling_pulse,
    "ocean_transit": ocean_transit,
}

WORKLOADS = tuple(PASSES)

# The exit codes of `detect` that each workload accepts, by cli name.
DETECT_CODES = {
    "shoaling_pulse": ("EXIT_ALERT",),
    "ocean_transit": ("EXIT_OK",),
}


@dataclass
class Unit:
    """One repeatable piece of timed work.

    call(p) does the work once, adds its operations and failures to p and
    returns (seconds, cell updates). kind is "run" (counted in run_s) or
    "detect" (counted in detect_s). The unit's best time counts weight
    times; a unit of weight 0 runs in the first round only.
    """

    key: str
    kind: str
    call: Callable
    weight: int = 1


def _detect_unit(sw, snap: Path, workload: str) -> Unit:
    allowed = tuple(getattr(sw.cli, name) for name in DETECT_CODES[workload])

    def call(p: Pass):
        p.attempted += 1
        t0 = time.perf_counter()
        code = _quiet_main(sw.cli, ["detect", str(snap)])
        elapsed = time.perf_counter() - t0
        if code not in allowed:
            p.fail("detect {} exited {}".format(snap.name, code))
        return elapsed, 0

    return Unit("detect " + "/".join(snap.parts[-2:]), "detect", call)


def units(sw, workload, configs, out_root: Path, check: Pass) -> list:
    """The timed units of one round, in order; check is the run's checked pass.

    The run is split into equal time segments, each a solver.run call.

    The first round chains every segment from the initial state. Later
    rounds restart the sampled segments, one in the middle of every
    SAMPLE_EVERY, from their recorded starts; each must reproduce its end
    state bit for bit. A sampled segment stands for its SAMPLE_EVERY
    neighbours, so its best time and cell updates count SAMPLE_EVERY times.
    Detect on the final snapshot and write_outputs of the pass's result end
    each round.
    """
    cfg = sw.cli.load_config(configs[0])
    grid = cfg.build_grid()
    bathy = cfg.build_bathymetry()
    sol_cfg = cfg.build_solver_config()
    det_cfg = cfg.build_detector_config()
    count = SEGMENTS[workload]
    every = SAMPLE_EVERY[workload]
    starts = [cfg.build_initial(grid, bathy)] + [None] * count
    detect = _detect_unit(sw, check.snaps[0], workload)

    def segment(k):
        seg_cfg = dataclasses.replace(sol_cfg, t_end=sol_cfg.t_end * (k + 1) / count)

        def call(p: Pass):
            p.attempted += 1
            t0 = time.perf_counter()
            result = sw.solver.run(starts[k], bathy, grid, seg_cfg, det_cfg)
            elapsed = time.perf_counter() - t0
            end = result.snapshots[-1]
            if starts[k + 1] is None:
                starts[k + 1] = end
            elif not (
                np.array_equal(end.gamma_surface, starts[k + 1].gamma_surface)
                and np.array_equal(end.velocity, starts[k + 1].velocity)
            ):
                p.fail("segment {} repeated with another end state".format(k))
            return elapsed, grid.n * result.steps

        weight = every if k % every == every // 2 else 0
        return Unit("segment {}".format(k), "run", call, weight)

    def write(p: Pass):
        p.attempted += 1
        out = out_root / "write"
        t0 = time.perf_counter()
        sw.solver.write_outputs(check.result, bathy, grid, out, cfg.name, config_doc=cfg.to_doc())
        elapsed = time.perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, 0

    return [segment(k) for k in range(count)] + [detect, Unit("write_outputs", "run", write)]
