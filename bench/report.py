"""Run every workload once and print each end-to-end metric by name and unit.

Usage, from the root of a checkout:

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in its own process, as `bench/run.py` would be run
alone, so peak_rss_mb is that workload's own peak. Exits 1 if any run
fails or reports incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    print("{:<16} {:<44} {:>16} {}".format("workload", "metric", "value", "unit"))
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("{:<16} failed with exit code {}".format(workload, proc.returncode))
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print("{:<16} {:<44} {:>16.6g} {}".format(workload, name, metric["value"], metric["unit"]))
        print("{:<16} {:<44} {:>16} {}/{} failed".format(
            workload, "operations", "correct" if result["correct"] else "INCORRECT",
            result["failed"], result["attempted"]))
        if not result["correct"] or result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
