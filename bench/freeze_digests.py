"""Re-freeze the shoaling_pulse output digests from the current sources.

Usage, from the root of a checkout: python3 bench/freeze_digests.py

Run it only in a change that alters the scheme's numbers on purpose and
says why; the benchmark counts any other difference as a failed check.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import shoalwave as sw  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    tmp = Path(tempfile.mkdtemp(dir=BENCH.parent))
    try:
        configs = workloads.generate("shoaling_pulse", 0, tmp / "inputs")
        p = workloads.Pass()
        run_dir, _, _, _ = workloads.run_config(
            sw, tmp / "inputs" / configs[0], tmp / "out", p
        )
        names = sorted(f.name for f in run_dir.glob("snap_*.csv")) + ["events.jsonl"]
        digests = {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in names
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("wrote {} digests to {}".format(len(digests), workloads.DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
