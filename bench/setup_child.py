"""Cold set-up of one workload, timed inside a fresh interpreter.

Usage: python3 setup_child.py CONFIG [CONFIG ...]  (with shoalwave importable)

Times `import shoalwave`, then `cli.load_config` and every
`ScenarioConfig.build_*` call for each config, and prints one JSON object
with the total and the time per phase, summed over the configs.
"""

import json
import sys
import time

clock = time.perf_counter
t_start = clock()
import shoalwave  # noqa: E402
from shoalwave import cli  # noqa: E402

t_import = clock()
phases = {"load_config": 0.0, "build_bathymetry": 0.0, "build_initial": 0.0, "build_other": 0.0}
for path in sys.argv[1:]:
    t0 = clock()
    cfg = cli.load_config(path)
    t1 = clock()
    grid = cfg.build_grid()
    bathy = cfg.build_bathymetry()
    t2 = clock()
    cfg.build_initial(grid, bathy)
    t3 = clock()
    cfg.build_solver_config()
    cfg.build_detector_config()
    t4 = clock()
    phases["load_config"] += t1 - t0
    phases["build_bathymetry"] += t2 - t1
    phases["build_initial"] += t3 - t2
    phases["build_other"] += t4 - t3
t_end = clock()
print(
    json.dumps(
        {
            "setup_s": t_end - t_start,
            "import_s": t_import - t_start,
            "module": shoalwave.__file__,
            **{k + "_s": v for k, v in phases.items()},
        }
    )
)
