"""Benchmark workloads: their sizes, generated inputs and closed-form counts.

A workload seed picks the run seeds (and, for ACO, the random instance);
everything else about a workload is fixed here. The program only ever sees
the config file and instance file written by :func:`write_inputs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFAULT_WORKLOAD_SEED = 1
MAX_WORKLOAD_SEED = 2**32 - 1


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    iterations: int
    num_seeds: int
    workers: int = 1
    dim: Optional[int] = None
    swarm_size: Optional[int] = None
    cities: Optional[int] = None
    # A workload with the same inputs run with workers=1; outputs must match it.
    serial_twin: Optional[str] = None

    @property
    def agents(self) -> int:
        """Particles per swarm, or ants per iteration (the default, one per city)."""
        return self.swarm_size if self.algorithm == "pso" else self.cities

    @property
    def inputs(self) -> str:
        """The workload whose generated inputs and reference outputs this one shares."""
        return self.serial_twin or self.name

    def run_seeds(self, workload_seed: int) -> tuple[int, ...]:
        first = workload_seed * self.num_seeds + 1
        return tuple(range(first, first + self.num_seeds))

    def evaluations_after(self, row: int) -> int:
        """Cumulative evaluations in trace row ``row`` of one seed."""
        if self.algorithm == "pso":
            return self.swarm_size * (row + 2)  # initialization + row+1 steps
        return self.agents * (row + 1)

    def expected_counts(self) -> dict:
        """Per-layer counts for one ``run_experiment`` call over all seeds."""
        s, t, a = self.num_seeds, self.iterations, self.agents
        zero = dict.fromkeys(
            ("problems.objective.calls", "pso.step.calls", "aco.construct.calls",
             "aco.transitions", "aco.pheromone.calls"), 0)
        if self.algorithm == "pso":
            counts = {
                **zero,
                "core.rng.calls": s * a * (t + 2),  # two draws per particle at init
                "core.rng.values": s * a * 2 * self.dim * (t + 1),
                "problems.objective.calls": s * a * (t + 1),
                "pso.step.calls": s * t,
            }
        else:
            transitions = s * t * a * (self.cities - 1)
            counts = {
                **zero,
                "core.rng.calls": transitions,
                "core.rng.values": transitions,
                "aco.construct.calls": s * t * a,
                "aco.transitions": transitions,
                "aco.pheromone.calls": s * 2 * t,  # evaporate + deposit
            }
        counts["core.record.calls"] = s * t
        counts["cli.trace_write.rows"] = s * t
        return counts


# Each run_experiment call takes a few seconds, so that a run of the benchmark
# holds enough calls for a steady median on a machine whose speed drifts.
_PSO_SPHERE = dict(algorithm="pso", iterations=2000, num_seeds=2, dim=10, swarm_size=30)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("pso-sphere", **_PSO_SPHERE),
        Workload("aco-tsp100", algorithm="aco", iterations=4, num_seeds=2, cities=100),
        Workload("pso-longtrace", algorithm="pso", iterations=20000, num_seeds=1, dim=2,
                 swarm_size=2),
        Workload("pso-sphere-par", **_PSO_SPHERE, workers=2, serial_twin="pso-sphere"),
    )
}


WARMUP_ITERATIONS = 20


def config_text(workload: Workload, workload_seed: int, problem: str, iterations: int) -> str:
    seeds = workload.run_seeds(workload_seed)
    lines = [
        f"algorithm={workload.algorithm}",
        f"problem={problem}",
        f"max_iterations={iterations}",
        f"seeds={seeds[0]}..{seeds[-1]}",
    ]
    if workload.algorithm == "pso":
        lines += [f"dim={workload.dim}", f"swarm_size={workload.swarm_size}"]
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, workload_seed: int, root: Path, work_dir: Path) -> str:
    """Write ``config.txt``, a short ``warmup.txt`` and, for ACO, the instance file.

    Returns the problem: a benchmark name, or the instance path relative to
    ``root`` (so summaries do not depend on where the checkout lives).
    """
    import swarmkit

    work_dir.mkdir(parents=True, exist_ok=True)
    problem = "sphere"
    if workload.algorithm == "aco":
        instance = swarmkit.random_tsp_instance(
            workload.cities, swarmkit.RngStream(workload_seed, 0)
        )
        path = work_dir / f"tsp{workload.cities}.txt"
        path.write_text(swarmkit.serialize_tsp_instance(instance))
        problem = path.relative_to(root).as_posix()
    (work_dir / "config.txt").write_text(
        config_text(workload, workload_seed, problem, workload.iterations)
    )
    (work_dir / "warmup.txt").write_text(
        config_text(workload, workload_seed, problem, min(workload.iterations, WARMUP_ITERATIONS))
    )
    return problem
