"""Time one set-up in a fresh interpreter: import, config parse, problem build.

    python3 perfbench/probe.py <workload> <config file> <problem>

Prints one JSON object with the three phase times in seconds.
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
workload, config_path, problem = WORKLOADS[sys.argv[1]], Path(sys.argv[2]), sys.argv[3]

started = time.perf_counter()
import swarmkit  # noqa: E402

imported = time.perf_counter()
swarmkit.parse_config(config_path.read_text())
parsed = time.perf_counter()
if workload.algorithm == "pso":
    swarmkit.benchmark(problem, workload.dim)
else:
    swarmkit.load_tsp_instance(Path(problem).read_text(), name=Path(problem).stem)
built = time.perf_counter()

print(json.dumps({"import_s": imported - started, "parse_s": parsed - imported,
                  "load_s": built - parsed}))
