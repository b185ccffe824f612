"""Record the reference outputs that the benchmark compares every run against.

    python3 perfbench/record_reference.py

For each workload with inputs of its own, and each workload seed in
REFERENCE_SEEDS, it runs the experiment once with the source tree of this
checkout and stores the run's summary.json without its wall-clock fields and
the sha256 of each trace file in ``reference.json``. The committed file was
recorded from git commit 0c6ac20; outputs are meant to stay byte-identical,
so re-record only for a change that alters them on purpose.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import swarmkit  # noqa: E402

import checks  # noqa: E402
from workloads import DEFAULT_WORKLOAD_SEED, WORKLOADS, write_inputs  # noqa: E402

REFERENCE_SEEDS = range(11)


def main() -> None:
    recorded = {}
    for workload in WORKLOADS.values():
        if workload.serial_twin:
            continue
        per_seed = recorded[workload.name] = {}
        for workload_seed in REFERENCE_SEEDS:
            work = ROOT / ".perfbench_work" / workload.name
            write_inputs(workload, workload_seed, ROOT, work)
            config = swarmkit.parse_config((work / "config.txt").read_text())
            swarmkit.run_experiment(config, output_dir=str(work / "reference"))
            seeds = workload.run_seeds(workload_seed)
            summary, traces = checks.read_outputs(work / "reference", seeds)
            per_seed[str(workload_seed)] = {
                "summary": checks.normalized_summary(summary),
                "traces": {str(s): checks.trace_digest(t) for s, t in traces.items()},
            }
            print(workload.name, workload_seed, flush=True)
    payload = {"default_workload_seed": DEFAULT_WORKLOAD_SEED, "workloads": recorded}
    checks.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
