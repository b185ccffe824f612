"""Deterministic swarm optimizers: particle swarms and ant colonies.

Both optimizers draw every random number from Philox counter-based
streams derived purely from ``(seed, stream_id)``, so runs are exactly
reproducible across processes and machines.
"""

from types import ModuleType as _ModuleType

from .aco import (
    AcoConfig,
    DistanceGraph,
    PheromoneMatrix,
    Tour,
    construct_tour,
    deposit,
    evaporate,
    initialize_pheromones,
    optimize_aco,
    tour_length,
    transition_probabilities,
    transition_weights,
)
from .cli import (
    ExperimentConfig,
    RunSummary,
    aggregate_bests,
    emit_summary,
    main,
    parse_config,
    run_experiment,
)
from .core import (
    RNG_ALGORITHM,
    ConfigError,
    ContractError,
    ObjectiveSpec,
    RngStream,
    RunTrace,
    TerminationCriteria,
    TraceEntry,
    derive_stream,
    fitness_key,
    record_iteration,
    should_terminate,
)
from .problems import (
    BENCHMARK_NAMES,
    BRUTE_FORCE_MAX_NODES,
    BenchmarkFunction,
    TspInstance,
    benchmark,
    brute_force_tsp,
    enumerate_distinct_tours,
    load_tsp_instance,
    random_tsp_instance,
    rastrigin,
    rosenbrock,
    serialize_tsp_instance,
    sphere,
)
from .pso import (
    Global,
    Particle,
    PsoConfig,
    Ring,
    SwarmState,
    initialize_swarm,
    optimize,
    step,
    update_position,
    update_velocity,
)

__version__ = "0.1.0"

# The public names are exactly those bound here: this module imports only what it re-exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
