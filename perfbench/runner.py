"""Time ``run_experiment`` on one workload's generated inputs and check every run.

run.py starts this in a fresh interpreter, from the root of the checkout:

    python3 perfbench/runner.py '<json spec>'

It runs the experiment back to back for about ``seconds`` seconds, one call
at a time. In trace mode it alternates untraced and traced calls, so the
tracing overhead is measured against runs made under the same conditions.
The last line of its output is one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import swarmkit  # noqa: E402

import checks  # noqa: E402
from tracer import Recorder, Tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = {False: 3, True: 2}  # untraced runs; traced/untraced pairs
HARD_LIMIT_S = 110  # stop after the round that crosses this, whatever the minimum


def _layer_metrics(agg: dict, tallies: dict, trace_bytes: int) -> dict:
    def get(name, key):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[key]

    record_calls = get("core.record", "calls")
    transitions = tallies.get("aco.transitions", 0)
    return {
        "core.rng.calls": get("core.rng", "calls"),
        "core.rng.values": tallies.get("core.rng.values", 0),
        "core.rng.s": get("core.rng", "s"),
        "core.record.calls": record_calls,
        "core.record.s": get("core.record", "s"),
        "core.record.us_per_call": 1e6 * get("core.record", "s") / record_calls
        if record_calls else 0.0,
        "problems.objective.calls": get("problems.objective", "calls"),
        "problems.objective.s": get("problems.objective", "s"),
        "pso.init.s": get("pso.init", "s"),
        "pso.step.calls": get("pso.step", "calls"),
        "pso.step.self_s": get("pso.step", "self_s"),
        "aco.construct.calls": get("aco.construct", "calls"),
        "aco.transitions": transitions,
        "aco.construct.self_s": get("aco.construct", "self_s"),
        "aco.construct.us_per_transition": 1e6 * get("aco.construct", "s") / transitions
        if transitions else 0.0,
        "aco.tour_length.s": get("aco.tour_length", "s"),
        "aco.pheromone.calls": get("aco.pheromone", "calls"),
        "aco.pheromone.s": get("aco.pheromone", "s"),
        "cli.trace_write.rows": get("cli.trace_write", "calls"),
        "cli.trace_write.bytes": trace_bytes,
        "cli.trace_write.s": get("cli.trace_write", "s"),
        "cli.summary.s": get("cli.summary", "s"),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    work = Path(spec["work_dir"])
    seeds = workload.run_seeds(spec["workload_seed"])
    parent_only = workload.workers > 1
    reference = checks.load_reference(workload, spec["workload_seed"])
    serial = checks.read_outputs(work / "serial", seeds) if workload.serial_twin else None

    config = swarmkit.parse_config((work / "config.txt").read_text())
    swarmkit.run_experiment(
        swarmkit.parse_config((work / "warmup.txt").read_text()),
        output_dir=str(work / "warmup"),
        workers=workload.workers,
    )

    out = work / "out"
    names: list = []
    untraced, traced, spans, layers = [], [], [], []
    attempted = failed = 0
    problems: list = []

    def one_run(trace: bool) -> None:
        nonlocal attempted, failed
        shutil.rmtree(out, ignore_errors=True)
        recorder = Recorder(names) if trace else None
        attempted += len(seeds)
        try:
            with Tracing(recorder, parent_only) if trace else contextlib.nullcontext():
                started = time.perf_counter()
                swarmkit.run_experiment(config, output_dir=str(out), workers=workload.workers)
                run_s = time.perf_counter() - started
            summary_text, traces = checks.read_outputs(out, seeds)
            found = checks.check_run(workload, seeds, summary_text, traces, reference, serial)
        except Exception:  # a run that raises fails all of its seeds
            traceback.print_exc()
            failed += len(seeds)
            problems.append("run raised")
            return
        bad = {seed: p for seed, p in found.items() if p}
        failed += len(bad)
        problems.extend(f"seed {seed}: {'; '.join(p)}" for seed, p in bad.items())
        summary = json.loads(summary_text)
        if not trace:
            seed_s = sum(r["wall_clock_seconds"] for r in summary["per_seed"])
            untraced.append(
                {"run_s": run_s, "evaluations": summary["total_evaluations"],
                 "pool_overhead_s": run_s - seed_s / workload.workers}
            )
            return
        trace_bytes = 0 if parent_only else sum(len(t) for t in traces.values())
        traced.append(run_s)
        layers.append(_layer_metrics(recorder.aggregate(), recorder.tallies, trace_bytes))
        spans.append(recorder.arrays())

    budget = spec["seconds"]
    started = time.perf_counter()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        one_run(trace=False)
        if spec["trace"]:
            one_run(trace=True)
        rounds += 1
        now = time.perf_counter()
        next_end = now - started + (now - round_started)
        if next_end > HARD_LIMIT_S or (rounds >= MIN_ROUNDS[spec["trace"]] and next_end > budget):
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "runs": untraced,
        "peak_rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    if spec["trace"]:
        result["traced_run_s"] = traced
        result["layers"] = layers
        if spans:
            np.savez(
                work / "spans.npz",
                names=np.array(names),
                run=np.concatenate([np.full(s["name_id"].size, i) for i, s in enumerate(spans)]),
                **{key: np.concatenate([s[key] for s in spans]) for key in spans[0]},
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
