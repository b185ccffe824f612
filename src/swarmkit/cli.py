"""Experiment harness: config parsing, multi-seed runs, traces, summaries.

Config files are flat ``key=value`` lines with ``#`` comments. Every run
writes one ``trace_seed<SEED>.csv`` per seed (streamed row by row, then
atomically renamed into place) plus one ``summary.json``. Identical
configs produce byte-identical trace files regardless of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import statistics
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union, get_args, get_type_hints

from .aco import AcoConfig, optimize_aco
from .core import (
    _U64_MAX,
    RNG_ALGORITHM,
    ConfigError,
    ContractError,
    RunTrace,
    TerminationCriteria,
    TraceEntry,
)
from .problems import TspInstance, benchmark, brute_force_tsp, load_tsp_instance
from .pso import Global, PsoConfig, Ring, optimize

DEFAULT_OUTPUT_DIR = "runs"
TRACE_HEADER = "iteration,best_fitness,evaluations"
_MAX_SEEDS = 1_000_000  # longest "a..b" range; it is expanded into a tuple of seeds

_COMMON_KEYS = ("algorithm", "problem", "seeds", "output")
_ENGINES = {"pso": PsoConfig, "aco": AcoConfig}
# Keys the harness reads itself; every other key is a field of the engine
# config or of its TerminationCriteria.
_HARNESS_KEYS = {"pso": ("dim", "topology", "ring_k"), "aco": ()}
# Engine fields built from other keys rather than set directly.
_DERIVED_FIELDS = ("termination", "topology")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description with defaults filled in.

    Every tunable lives in ``engine``; only what no engine owns is kept
    here. ``ring_k`` is kept even under the global topology because the
    summary echoes it.
    """

    algorithm: str
    problem: str
    seeds: tuple[int, ...]
    engine: Union[PsoConfig, AcoConfig]
    dim: Optional[int] = None
    output: Optional[str] = None
    ring_k: int = 1


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
    try:
        seed = int(text)
    except ValueError:
        raise ConfigError(f"invalid seed {text!r}") from None
    if not 0 <= seed <= _U64_MAX:
        raise ConfigError(f"seed {seed} out of 64-bit unsigned range")
    return seed


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


def _accepted_keys(algorithm: str) -> set[str]:
    return {
        *_COMMON_KEYS,
        *(f.name for f in _tunables(TerminationCriteria)),
        *(f.name for f in _tunables(_ENGINES[algorithm])),
        *_HARNESS_KEYS[algorithm],
    }


@functools.cache
def _key_types(algorithm: str) -> dict:
    """Declared type of each numeric key, read once from the dataclass annotations."""
    return {
        **get_type_hints(TerminationCriteria),
        **get_type_hints(_ENGINES[algorithm]),
        "dim": int,
        "ring_k": int,
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

    allowed = _accepted_keys(algorithm)
    for key in pairs:
        if key in allowed:
            continue
        if any(key in _accepted_keys(other) for other in _ENGINES):
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
    types = _key_types(algorithm)
    values = {key: _coerce(key, value, types[key]) for key, value in pairs.items()}
    termination = TerminationCriteria(
        **{f.name: values.pop(f.name) for f in fields(TerminationCriteria) if f.name in values}
    )
    dim = values.pop("dim", None)
    ring_k = values.pop("ring_k", 1)

    if algorithm == "aco":
        engine = AcoConfig(termination=termination, **values)
    else:
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        benchmark(problem, dim)  # fails as run would on an unknown name or too small a dim
        topologies = {"global": Global(), "ring": Ring(ring_k)}
        if topology not in topologies:
            raise ConfigError(f"topology must be global or ring, got {topology!r}")
        if topology == "global" and "ring_k" in pairs:
            # The summary echoes ring_k under global too, so range-check it there as well.
            PsoConfig(termination=termination, topology=topologies["ring"], **values)
        engine = PsoConfig(termination=termination, topology=topologies[topology], **values)
    return ExperimentConfig(algorithm, problem, seeds, engine, dim, output, ring_k)


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


def _load_instance(path: str) -> TspInstance:
    return load_tsp_instance(Path(path).read_text(), name=Path(path).stem)


def _trace_row(entry: TraceEntry) -> str:
    return f"{entry.iteration},{entry.best_fitness!r},{entry.evaluations}"


def emit_trace_csv(trace: RunTrace) -> str:
    """Plot-ready CSV; floats use round-trip-exact repr, rows in order."""
    lines = [TRACE_HEADER]
    lines.extend(_trace_row(entry) for entry in trace.entries)
    return "\n".join(lines) + "\n"


def parse_trace_csv(text: str, seed: int = 0) -> RunTrace:
    """Inverse of :func:`emit_trace_csv` (the seed lives in the filename)."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"trace must start with header {TRACE_HEADER!r}")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: expected 3 columns, got {line!r}")
        try:
            entries.append(TraceEntry(int(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed trace row {line!r}") from None
    return RunTrace(seed=seed, entries=tuple(entries))


@contextlib.contextmanager
def _atomic_output(path: Path):
    """Write ``path`` through ``<name>.tmp``: renamed into place on success, deleted on failure."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _run_single(config: ExperimentConfig, seed: int, out_dir: str) -> dict:
    """Execute one seeded run, streaming its trace file. Worker-safe."""
    trace_path = Path(out_dir) / f"trace_seed{seed}.csv"
    started = time.perf_counter()
    with _atomic_output(trace_path) as fh:
        fh.write(TRACE_HEADER + "\n")

        def writer(entry: TraceEntry) -> None:
            fh.write(_trace_row(entry) + "\n")

        if config.algorithm == "pso":
            bench = benchmark(config.problem, config.dim)
            _, best, trace = optimize(bench.spec, config.engine, seed, on_iteration=writer)
        else:
            instance = _load_instance(config.problem)
            tour, trace = optimize_aco(instance.graph, config.engine, seed, on_iteration=writer)
            best = tour.length
    return {
        "seed": seed,
        "best_fitness": best,
        "evaluations": trace.evaluations,
        "wall_clock_seconds": time.perf_counter() - started,
    }


def run_experiment(
    config: ExperimentConfig,
    output_dir: Optional[str] = None,
    workers: int = 1,
) -> RunSummary:
    """One run per seed; writes per-seed traces plus summary.json.

    Seeds may execute in parallel worker processes, at most one per seed;
    results and files are identical for any worker count because each run
    is fully isolated.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out = Path(output_dir if output_dir is not None else (config.output or DEFAULT_OUTPUT_DIR))
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(config, seed, str(out)) for seed in config.seeds]
    if workers == 1 or len(jobs) == 1:
        results = [_run_single(*job) for job in jobs]
    else:
        # The pool may start all max_workers processes up front, so start none
        # that would have no seed to run.
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = [pool.submit(_run_single, *job) for job in jobs]
            try:
                results = [f.result() for f in futures]
            except BaseException:
                for future in futures:
                    future.cancel()
                raise

    summary = RunSummary(
        algorithm=config.algorithm,
        problem=config.problem,
        rng_algorithm=RNG_ALGORITHM,
        config=_config_echo(config),
        per_seed=tuple(results),
        aggregate=aggregate_bests([r["best_fitness"] for r in results]),
        total_evaluations=sum(r["evaluations"] for r in results),
    )
    _atomic_write(out / "summary.json", emit_summary(summary))
    return summary


def aggregate_bests(bests: list) -> dict:
    """Summary statistics over per-seed best fitnesses, exactly recomputable."""
    return {
        "min": min(bests),
        "median": statistics.median(bests),
        "mean": statistics.fmean(bests),
    }


def emit_summary(summary: RunSummary) -> str:
    """Deterministically ordered JSON for the summary (plus trailing LF)."""
    payload = {
        "algorithm": summary.algorithm,
        "problem": summary.problem,
        "rng_algorithm": summary.rng_algorithm,
        "config": summary.config,
        "per_seed": list(summary.per_seed),
        "aggregate": summary.aggregate,
        "total_evaluations": summary.total_evaluations,
    }
    return json.dumps(payload, indent=2) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_output(path) as fh:
        fh.write(text)


def _cmd_run(args) -> int:
    config = parse_config(args.config.read_text())
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
    config = parse_config(args.config.read_text())
    if config.algorithm == "aco":
        _load_instance(config.problem)
    print("ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmkit",
        description="Deterministic swarm optimizers with a multi-seed experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a multi-seed experiment from a config file")
    run_parser.add_argument("config", type=Path, help="flat key=value config file")
    run_parser.add_argument("--output", default=None, help="output directory (overrides config)")
    run_parser.add_argument("--workers", type=int, default=1, help="parallel seed runners")

    brute_parser = sub.add_parser("brute-force", help="print the exact oracle tour of an instance")
    brute_parser.add_argument("instance", type=Path, help="TSP instance file")

    validate_parser = sub.add_parser("validate", help="parse a config file without running it")
    validate_parser.add_argument("config", type=Path)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "brute-force":
            return _cmd_brute_force(args)
        return _cmd_validate(args)
    except (ConfigError, ContractError, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
