"""shoalwave benchmark: one seeded workload, closed loop, one client.

Usage, from the root of a checkout (no install; the package is imported
from src/):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are shoaling_pulse and ocean_transit (see workloads.py for
what each stresses and why). The run generates its inputs from the seed,
times a cold set-up in fresh interpreters, then, within --seconds, makes
one pass with every output check and repeats the workload's timed units
in rounds.

--trace 0 reports the end-to-end metrics: setup_s (median of the cold
starts), run_s, cell_updates_per_s, detect_s and peak_rss_mb. run_s is
the weighted sum, over the run units, of each unit's best time over the
rounds (a sampled time segment stands for its neighbours; see
workloads.units), and detect_s the same over the detect units. The host's
speed changes several times a second and its share of slow time drifts
over minutes; a short unit's best time over many rounds follows neither,
where a whole pass's time follows both.
--trace 1 alternates untraced and traced whole passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead (best
traced minus best untraced run_s). Spans are written to
.bench_work/traces/.

Standard output holds a table of the metrics, one JSON line with the
environment, the samples and the host-speed calibration (a fixed numpy
loop timed at the start and end, recorded only), and, last, the result:
{"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the shoalwave sources are not in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Rounds of units that always complete, whatever --seconds says.
MIN_ROUNDS = 2


def calibration_s() -> float:
    """A fixed loop of small numpy calls, shaped like the solver's own work."""
    a = np.linspace(1.0, 2.0, 1200)
    t0 = time.perf_counter()
    for _ in range(20000):
        np.sqrt(a) * 0.5 + a
    return time.perf_counter() - t0


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        size = _read(index / "size").strip()
        if level and size:
            caches["L{} {}".format(level, kind)] = size
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "commit": commit,
    }


def cold_setups(configs, cwd: Path):
    """Run setup_child.py SETUP_REPEATS times; return (timings, failures)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timings, failures = [], []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_child.py"), *configs],
                cwd=cwd, env=env, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            failures.append("set-up timed out")
            continue
        try:
            row = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            row = None
        if proc.returncode != 0 or row is None:
            failures.append("set-up exited {}: {}".format(proc.returncode, proc.stderr[-500:]))
        elif Path(row["module"]).resolve().parent != (SRC / "shoalwave").resolve():
            failures.append("set-up imported shoalwave from {}".format(row["module"]))
        else:
            timings.append(row)
    return timings, failures


def run_passes(sw, workload, configs, seconds, out_root: Path):
    """Whole passes, odd ones traced, until about `seconds` are used."""
    run_pass = workloads.PASSES[workload]
    done = []
    start = time.perf_counter()
    while True:
        i = len(done)
        spans = tracer.Tracer() if i % 2 == 1 else None
        out = out_root / "pass_{}".format(i)
        try:
            with spans or nullcontext():
                p = run_pass(sw, configs, out)
        except Exception:
            traceback.print_exc()
            p = workloads.Pass(attempted=1)
            p.fail("pass {} raised".format(i))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        done.append((p, spans))
        elapsed = time.perf_counter() - start
        if i >= 1 and elapsed * (1.0 + 0.5 / (i + 1)) >= seconds:
            return done


def measure(sw, workload, configs, seconds, out_root: Path):
    """One checked pass, then rounds of the workload's units until `seconds`.

    Returns the pass, which holds the operations and failures of the whole
    run, the units, each unit key's timings and its cell updates, and the
    number of rounds begun. Every unit of nonzero weight is timed in each
    of the first MIN_ROUNDS rounds; the last round may stop part-way.

    Each CPU of this host has slow spells of its own, so successive rounds
    pin the process to successive CPUs: a unit's best time then comes from
    whichever CPU was fast while it ran.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    times, cells, rounds = {}, {}, 0
    try:
        check = workloads.PASSES[workload](sw, configs, out_root / "check")
    except Exception:
        traceback.print_exc()
        check = workloads.Pass(attempted=1)
        check.fail("the checked pass raised")
        return check, [], times, cells, rounds
    unit = None
    try:
        units = workloads.units(sw, workload, configs, out_root, check)
        times = {u.key: [] for u in units}
        while True:
            rounds += 1
            for unit in units:
                if rounds > 1 and not unit.weight:
                    continue
                if rounds > MIN_ROUNDS and time.perf_counter() - start >= seconds:
                    return check, units, times, cells, rounds
                os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
                elapsed, work = unit.call(check)
                times[unit.key].append(elapsed)
                if cells.setdefault(unit.key, work) != work:
                    check.fail("{} made {} cell updates, first {}".format(
                        unit.key, work, cells[unit.key]))
    except Exception:
        traceback.print_exc()
        check.attempted += 1
        check.fail("{} raised".format(unit.key if unit else "building the units"))
        return check, [], times, cells, rounds
    finally:
        os.sched_setaffinity(0, cpus)


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_call(row, scale=1e6):
    return row["incl_s"] * scale / row["calls"] if row["calls"] else 0.0


def layer_metrics(p, spans) -> dict:
    """Per-layer figures of one traced pass."""
    s = spans.summary()
    step = s["solver.step"]
    classify_calls = s["detector.classify"]["calls"]
    m = {
        "riemann.compute.us_per_call": _per_call(s["riemann.compute"]),
        "riemann._limit_sign.calls": s["riemann._limit_sign"]["calls"],
        "detector.classify.calls": classify_calls,
        "detector.classify.us_per_call": _per_call(s["detector.classify"]),
        "detector.find_critical_points.us_per_call": _per_call(s["detector.find_critical_points"]),
        "detector.events_per_classify": p.events / classify_calls if classify_calls else 0.0,
        "solver.step.calls": step["calls"],
        "solver.step.us_per_call": _per_call(step),
        "solver.step.ns_per_cell": _per_call(step, 1e9) / p.n if p.n else 0.0,
        "solver._rhs.us_per_call": _per_call(s["solver._rhs"]),
        "solver._hll.us_per_call": _per_call(s["solver._hll"]),
        "bathymetry.eval.calls": s["bathymetry.eval"]["calls"],
        "bathymetry.slope.calls": s["bathymetry.slope"]["calls"],
        "bathymetry.evals_per_step": (
            s["bathymetry.eval"]["calls"] / step["calls"] if step["calls"] else 0.0
        ),
        "bathymetry.eval.us_per_call": _per_call(s["bathymetry.eval"]),
        "fields.Grid.x.calls": s["fields.Grid.x"]["calls"],
        "solver.write_outputs.s": s["solver.write_outputs"]["incl_s"],
        "solver.write_outputs.bytes": p.bytes_written,
        "fields.save_state.us_per_call": _per_call(s["fields.save_state"]),
        "fields.load_state.us_per_call": _per_call(s["fields.load_state"]),
        "cli.cmd_detect.us_per_call": _per_call(s["cli.cmd_detect"]),
        "detector.tangent_match_residual.us_per_call": _per_call(
            s["detector.tangent_match_residual"]
        ),
        "detector.alert_nodes.us_per_call": _per_call(s["detector.alert_nodes"]),
        "trace.spans": spans.span_count(),
    }
    for layer, value in spans.layer_self_s().items():
        m[layer + ".self_s"] = value
    return m


def _samples_row(values):
    return {"n": len(values), "median": _median(values), "min": min(values),
            "max": max(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shoalwave" / "__init__.py").is_file():
        print("bench: no shoalwave sources under {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shoalwave as sw

    if Path(sw.__file__).resolve().parent != (SRC / "shoalwave").resolve():
        print("bench: imported shoalwave from {}".format(sw.__file__), file=sys.stderr)
        return 2

    tracing = bool(args.trace)
    run_dir = WORK / "{}-seed{}".format(args.workload, args.seed)
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    calib_start = calibration_s()
    home = os.getcwd()
    try:
        configs = workloads.generate(args.workload, args.seed, inputs)
        os.chdir(inputs)
        setups, setup_failures = cold_setups(configs, inputs)
        if tracing:
            done = run_passes(sw, args.workload, configs, args.seconds, run_dir)
        else:
            check, units, times, cells, rounds = measure(
                sw, args.workload, configs, args.seconds, run_dir
            )
            done = [(check, None)]
    finally:
        os.chdir(home)
        shutil.rmtree(run_dir, ignore_errors=True)
    calib_end = calibration_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = list(setup_failures)
    attempted = SETUP_REPEATS
    failed = len(setup_failures)
    for p, _ in done:
        problems.extend(p.problems)
        attempted += p.attempted
        failed += min(len(p.problems), p.attempted)
    for line in problems:
        print("bench: check failed: {}".format(line), file=sys.stderr)

    setup_s = [r["setup_s"] for r in setups]
    if tracing:
        ok = [(p, t) for p, t in done if p.run_s > 0.0]
        plain = [p for p, t in ok if t is None]
        traced = [(p, t) for p, t in ok if t is not None]
        complete = setups and plain and traced
    else:
        complete = setups and units
    if not complete:
        print("bench: no complete measurement; see the errors above", file=sys.stderr)
        return 1

    if tracing:
        per_pass = [layer_metrics(p, t) for p, t in traced]
        samples = {k: [m[k] for m in per_pass] for k in per_pass[0]}
        samples["trace.overhead_s"] = [
            min(p.run_s for p, _ in traced) - min(p.run_s for p in plain)
        ]
        how = {k: "median of {} traced passes".format(len(v)) for k, v in samples.items()}
        samples["shoalwave.import_s"] = [r["import_s"] for r in setups]
        for phase in ("load_config", "build_bathymetry", "build_initial"):
            samples["cli.{}.s".format(phase)] = [r[phase + "_s"] for r in setups]
        values = {k: _median(v) for k, v in samples.items()}
        for k in samples:
            how.setdefault(k, "median of {} cold starts".format(len(setups)))
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = "{}-seed{}".format(args.workload, args.seed)
        for old in trace_dir.glob(stem + "-pass*.npz"):
            old.unlink()
        for i, (_, t) in enumerate(traced):
            t.save(trace_dir / "{}-pass{}.npz".format(stem, i))
        header = "passes={} (traced {})".format(len(done), len(traced))
    else:
        kinds = {u.key: u.kind for u in units}
        weights = {u.key: u.weight for u in units}
        keys = {
            kind: [k for k in kinds if kinds[k] == kind and weights[k]]
            for kind in ("run", "detect")
        }

        def weighted(stat, kind):
            return sum(weights[k] * stat(times[k]) for k in keys[kind])

        run_s = weighted(min, "run")
        values = {
            "setup_s": _median(setup_s),
            "run_s": run_s,
            "cell_updates_per_s": sum(weights[k] * cells[k] for k in keys["run"]) / run_s,
            "detect_s": weighted(min, "detect"),
            "peak_rss_mb": peak_rss_mb,
        }
        how = {"setup_s": "median of {} cold starts".format(len(setups))}
        for metric, kind in (("run_s", "run"), ("detect_s", "detect")):
            counts = [len(times[k]) for k in keys[kind]]
            how[metric] = "weighted sum over {} units of the best of {}-{} (of medians {:.6g})".format(
                len(counts), min(counts), max(counts), weighted(_median, kind)
            )
        how["cell_updates_per_s"] = "weighted cell updates of the run units / run_s"
        how["peak_rss_mb"] = "peak of the process"
        samples = {"units": {
            k: {"kind": kinds[k], "weight": weights[k], "cells": cells[k], **_samples_row(times[k])}
            for k in kinds
        }, "checked_pass": {"run_s": check.run_s, "detect_s": check.detect_s}}
        header = "rounds={} units={}".format(rounds, len(kinds))
    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer" if tracing else "end_to_end"]}
    if set(values) != set(names):
        print("bench: metrics differ from BENCHMARK.json: {}".format(
            sorted(set(values) ^ set(names))), file=sys.stderr)
        return 1

    metrics = {k: {"value": v, "unit": names[k]} for k, v in values.items()}
    print("{} seed={} seconds={} trace={} {}".format(
        args.workload, args.seed, args.seconds, args.trace, header))
    for k, v in values.items():
        print("  {:<44} {:>16.6g} {:<6} {}".format(k, v, names[k], how[k]))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "calibration_s": {"start": calib_start, "end": calib_end},
        "setup_s": _samples_row(setup_s),
        "samples": {
            k: _samples_row(v) if isinstance(v, list) else v for k, v in samples.items()
        },
        "problems": problems,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
