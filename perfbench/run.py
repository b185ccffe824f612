"""The swarmkit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pso-sphere --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout that has ``src/swarmkit``; it uses
that source tree, not an installed copy. It writes its inputs and outputs
under ``.perfbench_work/<workload>/`` at the root of the checkout.

Steps:

1. Generate the workload's inputs from ``--seed``: a flat ``key=value``
   config (and, for ACO, a random TSP instance file).
2. Time set-up in fresh interpreters (``import swarmkit``, ``parse_config``,
   building the problem): one discarded warm-up, then the median of several.
3. For the parallel workload, produce its workers=1 twin with the CLI.
4. Run ``runner.py``, which calls ``run_experiment`` back to back for
   ``--seconds`` seconds in one process (a closed loop, one experiment at a
   time) and checks the outputs of every call.

With ``--trace 0`` it reports the ``end_to_end`` metrics of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` ones. Times are medians over the runs.
The last line of output is the result object; the line before it records
provenance, and ``result.json`` in the work directory holds both with every
sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Measured set-up probes, half before and half after the timed runs (after one
# discarded warm-up probe), so that their median spans the whole run.
SETUP_PROBES = 6
DEADLINE_S = 170  # the whole benchmark run must end within 180 s


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run_python(deadline: float, *args: str, env=None) -> str:
    """Run ``python3 <args>`` from the checkout root, killed at ``deadline``; return its stdout."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the runner's pool workers too
        proc.communicate()
        fail(f"{args[0]} did not finish in time")
    sys.stderr.write(err)
    if proc.returncode != 0:
        fail(f"{' '.join(args[:2])} exited with code {proc.returncode}")
    return out


def provenance(workload_seed: int) -> dict:
    import numpy

    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        cpu = None
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "swarmkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload_seed": workload_seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def count_problems(workload, layers: list) -> list:
    """Counts must repeat exactly across traced runs and match their closed forms."""
    found = []
    counts = [{k: v for k, v in layer.items() if isinstance(v, int)} for layer in layers]
    if any(c != counts[0] for c in counts):
        found.append(f"counts differ between traced runs: {counts}")
    if workload.workers == 1:
        for key, expected in workload.expected_counts().items():
            if counts[0][key] != expected:
                found.append(f"{key} = {counts[0][key]}, closed form gives {expected}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "swarmkit" / "__init__.py").is_file():
        fail(f"no swarmkit source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import swarmkit
    import workloads

    if Path(swarmkit.__file__).resolve().parent != SRC / "swarmkit":
        fail(f"imported swarmkit from {swarmkit.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_WORKLOAD_SEED if args.seed is None else args.seed
    if not 0 <= seed <= workloads.MAX_WORKLOAD_SEED:
        fail(f"--seed must be in [0, {workloads.MAX_WORKLOAD_SEED}]")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        fail("--seconds must be >= 1")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    problem = workloads.write_inputs(workload, seed, ROOT, work)
    config = (work / "config.txt").relative_to(ROOT).as_posix()

    probe_args = [str(HERE / "probe.py"), workload.name, config, problem]

    def probe_setup(count: int) -> list:
        return [json.loads(run_python(deadline, *probe_args)) for _ in range(count)]

    probes = probe_setup(SETUP_PROBES // 2 + 1)[1:]

    if workload.serial_twin:
        run_python(deadline, "-m", "swarmkit", "run", config, "--output", str(work / "serial"),
                   "--workers", "1", env={**os.environ, "PYTHONPATH": str(SRC)})

    spec = {"workload": workload.name, "workload_seed": seed, "work_dir": str(work),
            "seconds": seconds, "trace": args.trace}
    runner_out = run_python(deadline, str(HERE / "runner.py"), json.dumps(spec))
    run = json.loads(runner_out.splitlines()[-1])
    probes += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    for problem_line in run["problems"]:
        print(f"check failed: {problem_line}", file=sys.stderr)
    if not run["runs"]:
        fail("no run of the workload completed")

    run_s = median([r["run_s"] for r in run["runs"]])
    correct = run["failed"] == 0
    if args.trace:
        if not run["layers"]:
            fail("no traced run of the workload completed")
        found = count_problems(workload, run["layers"])
        for line in found:
            print(f"count self-check failed: {line}", file=sys.stderr)
        correct = correct and not found
        first = run["layers"][0]  # counts: identical in every traced run, checked above
        values = {key: first[key] if isinstance(first[key], int)
                  else median([layer[key] for layer in run["layers"]]) for key in first}
        values.update({
            "problems.load.s": median([p["load_s"] for p in probes]),
            "cli.import_s": median([p["import_s"] for p in probes]),
            "cli.parse.s": median([p["parse_s"] for p in probes]),
            "cli.pool.overhead_s": median([r["pool_overhead_s"] for r in run["runs"]]),
            "bench.trace_overhead_s": median(run["traced_run_s"]) - run_s,
        })
        if workload.workers > 1:
            print("note: seeds run in worker processes, so only parent-side spans "
                  "(cli.summary) are recorded; seed-side layers read 0")
    else:
        values = {
            "run_s": run_s,
            "evals_per_s": run["runs"][-1]["evaluations"] / run_s,
            "setup_s": median([p["import_s"] + p["parse_s"] + p["load_s"] for p in probes]),
            "peak_rss_mb": run["peak_rss_kb"] / 1024,
            "ok_frac": 1 - run["failed"] / run["attempted"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = provenance(seed)
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": workload.name, "provenance": info, "samples": run}, indent=1
    ))
    print("provenance " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
