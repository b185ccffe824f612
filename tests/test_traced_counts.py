"""The benchmark's traced call counts on small workloads, against their closed forms.

``perfbench/`` counts calls by patching module names that the engines look up
at call time (``problems.sphere``, ``pso.step``, ``RngStream.next_uniform``,
...). A call made around those names, or one more or fewer random draw,
changes a count; ``perfbench/workloads.py`` holds the closed form of each.
This test runs the benchmark's own tracer on workloads small enough for
tier-1, without editing ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

from swarmkit import parse_config, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_WORKLOADS = (
    workloads.Workload("pso-small", algorithm="pso", iterations=6, num_seeds=2, dim=3,
                       swarm_size=4),
    workloads.Workload("aco-small", algorithm="aco", iterations=3, num_seeds=2, cities=7),
)


@pytest.mark.parametrize("workload", SMALL_WORKLOADS, ids=lambda w: w.name)
def test_traced_counts_equal_their_closed_forms(workload, tmp_path, monkeypatch):
    # The ACO config names its instance file relative to the directory it was written in.
    monkeypatch.chdir(tmp_path)
    workloads.write_inputs(workload, workloads.DEFAULT_WORKLOAD_SEED, tmp_path, tmp_path)
    config = parse_config((tmp_path / "config.txt").read_text())
    recorder = tracer.Recorder([])
    with tracer.Tracing(recorder, parent_only=False):
        run_experiment(config, output_dir=str(tmp_path / "out"), workers=1)
    trace_bytes = sum(path.stat().st_size for path in (tmp_path / "out").glob("trace_seed*.csv"))
    layers = runner._layer_metrics(recorder.aggregate(), recorder.tallies, trace_bytes)
    assert run.count_problems(workload, [layers]) == []
