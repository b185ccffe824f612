"""Experiment harness: config parsing, multi-seed runs, traces, summaries.

Config files are flat ``key=value`` lines with ``#`` comments. Every run
writes one ``trace_seed<SEED>.csv`` per seed plus one ``summary.json``. A
trace is ``TRACE_HEADER`` then one :func:`_trace_row` per iteration, in
order and LF-terminated; fitnesses are written with ``repr``, so ``float()``
of the column restores the exact bits. The traces and then the summary are
staged under ``.tmp`` names and replace the previous run's together, summary
last; identical configs give byte-identical traces for any worker count.
``validate`` runs ``run``'s checks up to the first seed, through the same
problem loader that ``run`` calls once per experiment.
"""

from __future__ import annotations

# The process pool, argparse and json are imported where they are used, so
# that ``import swarmkit`` loads none of them and a one-worker run no pool.
import functools
import math
import os
import re
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union, get_args, get_type_hints

import numpy as np

from .aco import AcoConfig, optimize_aco
from .core import (
    RNG_ALGORITHM,
    ConfigError,
    ContractError,
    TerminationCriteria,
    TraceEntry,
    _u64,
)
from .problems import TspInstance, benchmark, brute_force_tsp, load_tsp_instance
from .pso import Global, PsoConfig, Ring, _check_envelope, optimize

DEFAULT_OUTPUT_DIR = "runs"
TRACE_HEADER = "iteration,best_fitness,evaluations"
_MAX_SEEDS = 1_000_000  # longest "a..b" range; it is expanded into a tuple of seeds

_ENGINES = {"pso": PsoConfig, "aco": AcoConfig}
# Keys the harness reads itself beyond algorithm, problem, seeds and output,
# with their types; every other key is a field of the engine config or of
# its TerminationCriteria.
_HARNESS_KEYS = {"pso": {"dim": int, "topology": str, "ring_k": int}, "aco": {}}
# Engine fields built from other keys rather than set directly.
_DERIVED_FIELDS = ("termination", "topology")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description with defaults filled in.

    Every tunable lives in ``engine``, and the engine fixes the algorithm;
    only what no engine owns is kept here. ``ring_k`` is kept even under the
    global topology because the summary echoes it.
    """

    problem: str
    seeds: tuple[int, ...]
    engine: Union[PsoConfig, AcoConfig]
    dim: Optional[int]
    output: Optional[str]
    ring_k: int

    @property
    def algorithm(self) -> str:
        """``"pso"`` for a :class:`PsoConfig` engine, ``"aco"`` otherwise."""
        return "pso" if isinstance(self.engine, PsoConfig) else "aco"


@dataclass(frozen=True)
class RunSummary:
    """Per-seed results and their aggregates for one experiment."""

    algorithm: str
    problem: str
    rng_algorithm: str
    config: dict
    per_seed: tuple[dict, ...]
    aggregate: dict
    total_evaluations: int


def _coerce(key: str, value: str, declared) -> Union[int, float]:
    """Parse as an integer where the declared type admits int, else as a float."""
    if int in (declared, *get_args(declared)):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"invalid integer for {key}: {value!r}") from None
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"invalid number for {key}: {value!r}") from None


def _parse_seed(text: str) -> int:
    return _u64(_coerce("seeds", text, int), "seed")


def _parse_seeds(value: str) -> tuple[int, ...]:
    """Either "a..b" (inclusive) or a comma-separated list."""
    if ".." in value:
        lo_text, _, hi_text = value.partition("..")
        lo, hi = _parse_seed(lo_text.strip()), _parse_seed(hi_text.strip())
        if lo > hi:
            raise ConfigError(f"seed range {value!r} is empty (start exceeds end)")
        if hi - lo + 1 > _MAX_SEEDS:
            raise ConfigError(f"seed range {value!r} has too many seeds (at most {_MAX_SEEDS})")
        return tuple(range(lo, hi + 1))
    seeds = tuple(_parse_seed(part.strip()) for part in value.split(","))
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds are not allowed")
    return seeds


def _tunables(cls) -> list:
    """The fields of ``cls`` that a config key of the same name sets."""
    return [f for f in fields(cls) if f.name not in _DERIVED_FIELDS]


@functools.cache
def _keys(algorithm: str) -> dict:
    """Every key a config for ``algorithm`` accepts, with its declared type."""
    return {
        **dict.fromkeys(("algorithm", "problem", "seeds", "output"), str),
        **{
            f.name: get_type_hints(cls)[f.name]
            for cls in (TerminationCriteria, _ENGINES[algorithm])
            for f in _tunables(cls)
        },
        **_HARNESS_KEYS[algorithm],
    }


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a flat key=value config.

    Unknown keys, keys for the other algorithm, type mismatches, and
    constraint violations all raise :class:`ConfigError` naming the key.
    Tunables are validated by the engine config they build, so a config
    that parses is one that runs.
    """
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        pairs[key] = value

    algorithm = pairs.pop("algorithm", None)
    if algorithm is None:
        raise ConfigError("missing required key algorithm")
    if algorithm not in _ENGINES:
        raise ConfigError(f"algorithm must be pso or aco, got {algorithm!r}")
    engine_cls = _ENGINES[algorithm]

    keys = _keys(algorithm)
    for key in pairs:
        if key in keys:
            continue
        if any(key in _keys(other) for other in _ENGINES):
            raise ConfigError(f"key {key} is not valid for algorithm {algorithm}")
        raise ConfigError(f"unknown key {key}")

    required = ["problem", "seeds", "dim"] if algorithm == "pso" else ["problem", "seeds"]
    required += [
        f.name
        for cls in (TerminationCriteria, engine_cls)
        for f in _tunables(cls)
        if f.default is MISSING
    ]
    for key in required:
        if key not in pairs:
            raise ConfigError(f"missing required key {key}")

    problem = pairs.pop("problem")
    seeds = _parse_seeds(pairs.pop("seeds"))
    output = pairs.pop("output", None)
    topology = pairs.pop("topology", "global")
    values = {key: _coerce(key, value, keys[key]) for key, value in pairs.items()}
    termination = TerminationCriteria(
        **{f.name: values.pop(f.name) for f in fields(TerminationCriteria) if f.name in values}
    )
    dim = values.pop("dim", None)
    ring_k = values.pop("ring_k", Ring.k)

    if algorithm == "aco":
        engine = AcoConfig(termination=termination, **values)
    else:
        spec = benchmark(problem, dim).spec  # fails as run would on an unknown name or a bad dim
        topologies = {"global": Global(), "ring": Ring(ring_k)}
        if topology not in topologies:
            raise ConfigError(f"topology must be global or ring, got {topology!r}")
        engine = PsoConfig(termination=termination, topology=topologies[topology], **values)
        _check_envelope(engine, spec)
    return ExperimentConfig(problem, seeds, engine, dim, output, ring_k)


def _config_echo(config: ExperimentConfig) -> dict:
    """The effective config in summary.json, defaults included, in a pinned key order."""
    engine = config.engine
    tunables = {f.name: getattr(engine, f.name) for f in _tunables(type(engine))}
    if config.algorithm == "pso":
        topology = "ring" if isinstance(engine.topology, Ring) else "global"
        tunables = {"dim": config.dim, **tunables, "topology": topology, "ring_k": config.ring_k}
    return {
        "algorithm": config.algorithm,
        "problem": config.problem,
        **asdict(engine.termination),
        "seeds": list(config.seeds),
        **tunables,
    }


def _read(path) -> str:
    """The UTF-8 text of ``path``, less a leading BOM; a file that does not decode is named."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{exc} in {path}") from None


def _load_instance(path: str) -> TspInstance:
    return load_tsp_instance(_read(path), name=Path(path).stem)


def _problem(config: ExperimentConfig):
    """What every seed of ``config`` runs on: the objective (PSO) or the instance's graph (ACO)."""
    if config.algorithm == "pso":
        return benchmark(config.problem, config.dim).spec
    return _load_instance(config.problem).graph


def _trace_row(entry: TraceEntry) -> str:
    return f"{entry.iteration},{entry.best_fitness!r},{entry.evaluations}"


def _run_single(config: ExperimentConfig, problem, seed: int, trace_path: Path) -> dict:
    """Run one seed on ``_problem(config)``, streaming its trace to ``trace_path``. Worker-safe."""
    optimizer = optimize if config.algorithm == "pso" else optimize_aco
    started = time.perf_counter()
    with open(trace_path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")

        def writer(entry: TraceEntry) -> None:
            fh.write(_trace_row(entry) + "\n")

        # An overflowing fitness is tallied and never wins: no warning, held once per seed.
        with np.errstate(over="ignore", invalid="ignore"):
            trace = optimizer(problem, config.engine, seed, on_iteration=writer)[-1]
    return {
        "seed": seed,
        "best_fitness": trace.best_fitness,
        "evaluations": trace.evaluations,
        "wall_clock_seconds": time.perf_counter() - started,
    }


def run_experiment(
    config: ExperimentConfig,
    output_dir: Optional[str] = None,
    workers: int = 1,
) -> RunSummary:
    """One run per seed; writes per-seed traces plus summary.json, replacing the previous run's.

    The problem is resolved once, before the output directory is created: a missing or malformed
    instance leaves nothing behind. Seeds may run in worker processes, at most one per seed and
    per usable CPU, with the same files for any worker count. The traces and then the summary are
    staged as ``.tmp`` files, which one rename loop publishes, summary last, once all are written;
    a seed or a summary write that raises deletes them and leaves the directory as it was.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out = Path(output_dir if output_dir is not None else (config.output or DEFAULT_OUTPUT_DIR))
    problem = _problem(config)
    out.mkdir(parents=True, exist_ok=True)

    run = functools.partial(_run_single, config, problem)
    # The pool may start all max_workers processes up front, so start none that
    # would have no seed to run or no CPU of its own to run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(config.seeds), cpus or 1)
    # Each seed streams to its own staged trace (map stops at the seeds); the summary comes last.
    staged = [*(out / f"trace_seed{s}.csv.tmp" for s in config.seeds), out / "summary.json.tmp"]
    try:
        if workers == 1:
            results = list(map(run, config.seeds, staged))
        else:
            from concurrent.futures import ProcessPoolExecutor

            # If one seed raises, map cancels the seeds that have not started.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run, config.seeds, staged))
        summary = RunSummary(
            algorithm=config.algorithm,
            problem=config.problem,
            rng_algorithm=RNG_ALGORITHM,
            config=_config_echo(config),
            per_seed=tuple(results),
            aggregate=aggregate_bests([r["best_fitness"] for r in results]),
            total_evaluations=sum(r["evaluations"] for r in results),
        )
        _atomic_write(staged[-1], emit_summary(summary))
        (out / "summary.json").unlink(missing_ok=True)
        for old in out.glob("trace_seed*.csv"):
            if re.fullmatch("trace_seed[0-9]+", old.stem):
                old.unlink(missing_ok=True)
        for tmp in staged:
            os.replace(tmp, tmp.with_suffix(""))
    except BaseException:
        # Leaving the pool waited for its running seeds, so none still writes a .tmp.
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    return summary


def aggregate_bests(bests: list) -> dict:
    """Summary statistics over per-seed best fitnesses, exactly recomputable.

    The median and mean are computed as ``statistics.median`` and
    ``statistics.fmean`` compute them, without importing that module.
    """
    ordered, middle = sorted(bests), len(bests) // 2
    median = ordered[middle] if len(bests) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return {"min": min(bests), "median": median, "mean": math.fsum(bests) / len(bests)}


def emit_summary(summary: RunSummary) -> str:
    """Deterministically ordered JSON for the summary (plus trailing LF)."""
    import json

    return json.dumps(asdict(summary), indent=2) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` as is to the staged ``path``, which ``run_experiment`` renames or deletes."""
    path.write_text(text, newline="")


def _cmd_run(args) -> int:
    config = parse_config(_read(args.config))
    summary = run_experiment(config, output_dir=args.output, workers=args.workers)
    for record in summary.per_seed:
        print(
            f"seed={record['seed']} best={record['best_fitness']!r} "
            f"evaluations={record['evaluations']}"
        )
    agg = summary.aggregate
    print(f"aggregate min={agg['min']!r} median={agg['median']!r} mean={agg['mean']!r}")
    return 0


def _cmd_brute_force(args) -> int:
    instance = _load_instance(str(args.instance))
    tour = brute_force_tsp(instance)
    print("tour:", " ".join(str(node) for node in tour.order))
    print(f"length: {tour.length!r}")
    return 0


def _cmd_validate(args) -> int:
    _problem(parse_config(_read(args.config)))
    print("ok")
    return 0


def main(argv=None) -> int:
    import argparse
    from concurrent.futures import BrokenExecutor

    parser = argparse.ArgumentParser(
        prog="swarmkit",
        description="Deterministic swarm optimizers with a multi-seed experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a multi-seed experiment from a config file")
    run_parser.add_argument("config", type=Path, help="flat key=value config file")
    run_parser.add_argument("--output", default=None, help="output directory (overrides config)")
    run_parser.add_argument("--workers", type=int, default=1, help="parallel seed runners")
    run_parser.set_defaults(handler=_cmd_run)

    brute_parser = sub.add_parser("brute-force", help="print the exact oracle tour of an instance")
    brute_parser.add_argument("instance", type=Path, help="TSP instance file")
    brute_parser.set_defaults(handler=_cmd_brute_force)

    validate_parser = sub.add_parser("validate", help="parse a config file without running it")
    validate_parser.add_argument("config", type=Path)
    validate_parser.set_defaults(handler=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ContractError, OSError, BrokenExecutor, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
