"""Correctness checks on the files one ``run_experiment`` call wrote.

Every timed run is checked. A seed fails when its trace breaks an invariant,
when its summary entry disagrees with its trace or closed forms, or when its
bytes differ from the recorded reference (reference workload seeds) or from
the workers=1 run (the parallel workload). A failure in a summary-wide
field fails every seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

from workloads import Workload

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TRACE_HEADER = "iteration,best_fitness,evaluations"


def normalized_summary(text: str) -> dict:
    """summary.json without its wall-clock fields, the only nondeterministic ones."""
    summary = json.loads(text)
    for record in summary["per_seed"]:
        del record["wall_clock_seconds"]
    return summary


def trace_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_outputs(out_dir: Path, seeds) -> tuple[str, dict]:
    """(summary.json text, {seed: trace bytes})."""
    summary = (out_dir / "summary.json").read_text()
    return summary, {s: (out_dir / f"trace_seed{s}.csv").read_bytes() for s in seeds}


def load_reference(workload: Workload, workload_seed: int):
    """The recorded outputs for this workload seed, or None if none were recorded."""
    reference = json.loads(REFERENCE_PATH.read_text())
    return reference["workloads"][workload.inputs].get(str(workload_seed))


def _trace_problems(workload: Workload, data: bytes) -> list:
    lines = data.decode().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return ["bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != workload.iterations:
        return [f"{len(rows)} rows, expected {workload.iterations}"]
    problems = []
    previous = float("inf")
    for i, (iteration, best, evaluations) in enumerate(rows):
        best = float(best)
        if int(iteration) != i:
            problems.append(f"row {i}: iteration {iteration}")
        if not best <= previous:
            problems.append(f"row {i}: best rose from {previous!r} to {best!r}")
        if int(evaluations) != workload.evaluations_after(i):
            problems.append(f"row {i}: evaluations {evaluations}")
        previous = best
        if len(problems) > 3:
            break
    return problems


def check_run(workload, seeds, summary_text, traces, reference=None, serial=None) -> dict:
    """{seed: [problem, ...]} for one run's outputs; an empty list means the seed passed.

    ``reference`` is the recorded entry for this workload seed; ``serial`` is
    the (summary text, traces) of the same inputs run with workers=1.
    """
    found = {s: [] for s in seeds}
    summary = json.loads(summary_text)
    per_seed = {r["seed"]: r for r in summary["per_seed"]}
    if [r["seed"] for r in summary["per_seed"]] != list(seeds):
        return {s: ["summary seeds differ from the config"] for s in seeds}

    for seed in seeds:
        trace = traces[seed]
        problems = [f"trace: {p}" for p in _trace_problems(workload, trace)]
        record = per_seed[seed]
        if record["evaluations"] != workload.evaluations_after(workload.iterations - 1):
            problems.append(f"evaluations {record['evaluations']}")
        last = trace.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")
        if float(last[1]) != record["best_fitness"]:
            problems.append("best_fitness differs from the last trace row")
        if reference is not None and trace_digest(trace) != reference["traces"][str(seed)]:
            problems.append("trace bytes differ from the reference")
        if serial is not None and trace != serial[1][seed]:
            problems.append("trace bytes differ from the workers=1 run")
        found[seed] += problems

    whole = []
    bests = [per_seed[s]["best_fitness"] for s in seeds]
    expected_aggregate = {
        "min": min(bests), "median": statistics.median(bests), "mean": statistics.fmean(bests)
    }
    if summary["aggregate"] != expected_aggregate:
        whole.append("aggregate differs from the per-seed bests")
    if summary["total_evaluations"] != sum(r["evaluations"] for r in summary["per_seed"]):
        whole.append("total_evaluations differs from the per-seed sum")
    normalized = normalized_summary(summary_text)
    if reference is not None and normalized != reference["summary"]:
        whole.append("summary differs from the reference")
    if serial is not None and normalized != normalized_summary(serial[0]):
        whole.append("summary differs from the workers=1 run")
    for seed in seeds:
        found[seed] += whole
    return found
