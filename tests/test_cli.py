"""Tests for config parsing, the experiment harness, and the command line."""

import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import UNIT_SQUARE_TEXT
from swarmkit import (
    AcoConfig,
    ConfigError,
    ExperimentConfig,
    Global,
    PsoConfig,
    Ring,
    TerminationCriteria,
    TraceEntry,
    aggregate_bests,
    benchmark,
    derive_stream,
    emit_summary,
    load_tsp_instance,
    main,
    optimize,
    optimize_aco,
    parse_config,
    random_tsp_instance,
    run_experiment,
    serialize_tsp_instance,
)
from swarmkit import cli

PSO_CONFIG_TEXT = """\
# minimal swarm run
algorithm=pso
problem=sphere
dim=10
swarm_size=30
max_iterations=2000
seeds=1..20
"""


def small_pso_text(seeds="1..3", extra=""):
    return (
        "algorithm=pso\nproblem=sphere\ndim=3\nswarm_size=5\n"
        f"max_iterations=10\nseeds={seeds}\n{extra}"
    )


def small_aco_text(instance_path, extra=""):
    return (
        f"algorithm=aco\nproblem={instance_path}\nnum_ants=4\n"
        f"max_iterations=10\nseeds=1,2\n{extra}"
    )


class TestParseConfig:
    def test_pso_defaults_filled(self):
        config = parse_config(PSO_CONFIG_TEXT)
        assert config.algorithm == "pso"
        assert config.problem == "sphere"
        assert config.dim == 10 and config.engine.swarm_size == 30
        assert config.engine.termination.max_iterations == 2000
        assert config.seeds == tuple(range(1, 21))
        assert config.engine.c1 == 2.0 and config.engine.c2 == 2.0
        assert config.engine.vmax is None and config.engine.topology == Global()
        assert config.engine.termination.target_fitness is None

    def test_aco_defaults_filled(self):
        config = parse_config("algorithm=aco\nproblem=x.txt\nmax_iterations=5\nseeds=1\n")
        engine = config.engine
        assert (engine.alpha, engine.beta, engine.rho) == (1.0, 2.0, 0.5)
        assert (engine.q, engine.tau0, engine.tau_floor) == (1.0, 1.0, 1e-12)
        assert engine.num_ants is None

    def test_algorithm_follows_the_engine(self):
        # No stored copy, so a config cannot name aco while holding a PsoConfig.
        assert "algorithm" not in {f.name for f in fields(ExperimentConfig)}
        config = parse_config("algorithm=aco\nproblem=x.txt\nmax_iterations=5\nseeds=1\n")
        assert config.algorithm == "aco" and isinstance(config.engine, AcoConfig)

    def test_comments_blanks_and_spaces_ignored(self):
        text = "# c\n\n algorithm = pso \nproblem=sphere\ndim=2\nswarm_size=3\nmax_iterations=1\nseeds=0\n"
        assert parse_config(text).algorithm == "pso"

    def test_rho_out_of_range_names_the_constraint(self):
        with pytest.raises(ConfigError, match=r"rho out of \[0,1\]"):
            parse_config("algorithm=aco\nproblem=x.txt\nmax_iterations=5\nseeds=1\nrho=1.5\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key frobnicate"):
            parse_config(small_pso_text(extra="frobnicate=1\n"))

    def test_key_from_other_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="key rho is not valid for algorithm pso"):
            parse_config(small_pso_text(extra="rho=0.5\n"))
        with pytest.raises(ConfigError, match="key dim is not valid for algorithm aco"):
            parse_config("algorithm=aco\nproblem=x\nmax_iterations=5\nseeds=1\ndim=3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key dim"):
            parse_config(small_pso_text(extra="dim=4\n"))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key algorithm"):
            parse_config("problem=sphere\n")
        with pytest.raises(ConfigError, match="missing required key seeds"):
            parse_config("algorithm=pso\nproblem=sphere\ndim=2\nswarm_size=3\nmax_iterations=1\n")
        with pytest.raises(ConfigError, match="missing required key dim"):
            parse_config("algorithm=pso\nproblem=sphere\nswarm_size=3\nmax_iterations=1\nseeds=1\n")

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm must be pso or aco"):
            parse_config("algorithm=genetic\nproblem=x\nmax_iterations=1\nseeds=1\n")

    def test_line_without_separator(self):
        with pytest.raises(ConfigError, match="line 2: expected key=value"):
            parse_config("algorithm=pso\nnonsense\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="invalid integer for dim"):
            parse_config(small_pso_text().replace("dim=3", "dim=three"))
        with pytest.raises(ConfigError, match="invalid number for c1"):
            parse_config(small_pso_text(extra="c1=fast\n"))

    def test_seed_forms(self):
        assert parse_config(small_pso_text(seeds="5")).seeds == (5,)
        assert parse_config(small_pso_text(seeds="1,2,9")).seeds == (1, 2, 9)
        assert parse_config(small_pso_text(seeds="3..6")).seeds == (3, 4, 5, 6)
        assert parse_config(small_pso_text(seeds="7..7")).seeds == (7,)

    def test_seed_errors(self):
        with pytest.raises(ConfigError, match="seed range"):
            parse_config(small_pso_text(seeds="9..1"))
        with pytest.raises(ConfigError, match="duplicate seeds"):
            parse_config(small_pso_text(seeds="1,1"))
        with pytest.raises(ConfigError, match="invalid seed"):
            parse_config(small_pso_text(seeds="a"))
        with pytest.raises(ConfigError, match="out of 64-bit"):
            parse_config(small_pso_text(seeds="-1"))
        with pytest.raises(ConfigError, match="out of 64-bit"):
            parse_config(small_pso_text(seeds=str(2**64)))
        # The whole 64-bit range is valid seed by seed but too long for a tuple.
        with pytest.raises(ConfigError, match=re.escape(f"seed range '0..{2**64 - 1}'")):
            parse_config(small_pso_text(seeds=f"0..{2**64 - 1}"))
        # Short enough for ssize_t, far too long to allocate.
        with pytest.raises(ConfigError, match=re.escape(f"seed range '0..{2**62 - 1}' has too")):
            parse_config(small_pso_text(seeds=f"0..{2**62 - 1}"))
        with pytest.raises(ConfigError, match="has too many seeds"):
            parse_config(small_pso_text(seeds=f"1..{cli._MAX_SEEDS + 1}"))

    def test_seed_range_at_the_bound_parses(self):
        top = 2**64 - 1
        seeds = parse_config(small_pso_text(seeds=f"{top - cli._MAX_SEEDS + 1}..{top}")).seeds
        assert len(seeds) == cli._MAX_SEEDS
        assert seeds[-1] == top

    def test_constraint_violations(self):
        with pytest.raises(ConfigError, match="max_iterations must be >= 1"):
            parse_config(small_pso_text().replace("max_iterations=10", "max_iterations=0"))
        with pytest.raises(ConfigError, match="dim must be >= 1"):
            parse_config(small_pso_text().replace("dim=3", "dim=0"))
        with pytest.raises(ConfigError, match="swarm_size must be >= 1"):
            parse_config(small_pso_text().replace("swarm_size=5", "swarm_size=0"))
        with pytest.raises(ConfigError, match="vmax must be > 0"):
            parse_config(small_pso_text(extra="vmax=0\n"))
        with pytest.raises(ConfigError, match="num_ants must be >= 1"):
            parse_config("algorithm=aco\nproblem=x\nmax_iterations=1\nseeds=1\nnum_ants=0\n")
        with pytest.raises(ConfigError, match="q must be > 0"):
            parse_config("algorithm=aco\nproblem=x\nmax_iterations=1\nseeds=1\nq=0\n")
        with pytest.raises(ConfigError, match="tau0 must be >= tau_floor"):
            parse_config("algorithm=aco\nproblem=x\nmax_iterations=1\nseeds=1\ntau0=1e-15\n")

    def test_unknown_benchmark_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            parse_config(small_pso_text().replace("problem=sphere", "problem=ackley"))

    def test_topology_options(self):
        config = parse_config(small_pso_text(extra="topology=ring\nring_k=2\n"))
        assert config.engine.topology == Ring(2) and config.ring_k == 2
        with pytest.raises(ConfigError, match="topology must be global or ring"):
            parse_config(small_pso_text(extra="topology=star\n"))
        with pytest.raises(ConfigError, match=r"ring_k must be in \[1, swarm_size\)"):
            parse_config(small_pso_text(extra="topology=ring\nring_k=5\n"))
        with pytest.raises(ConfigError, match=r"ring_k must be in \[1, swarm_size\)"):
            parse_config(small_pso_text(extra="ring_k=0\n"))

    def test_target_fitness_and_output_are_optional(self):
        config = parse_config(small_pso_text(extra="target_fitness=1e-3\noutput=mydir\n"))
        assert config.engine.termination.target_fitness == 1e-3
        assert config.output == "mydir"


def read_trace(path) -> list:
    """The entries of a trace file the CLI wrote, each column parsed back exactly."""
    header, *rows = Path(path).read_text().splitlines()
    assert header == cli.TRACE_HEADER
    return [TraceEntry(int(i), float(v), int(n)) for i, v, n in (row.split(",") for row in rows)]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestTraceCsv:
    def test_format_example(self):
        assert cli.TRACE_HEADER == "iteration,best_fitness,evaluations"
        assert cli._trace_row(TraceEntry(0, 3.5, 10)) == "0,3.5,10"

    def test_rows_in_iteration_order_with_lf_newlines(self, tmp_path):
        run_experiment(parse_config(small_pso_text(seeds="1")), output_dir=str(tmp_path))
        data = (tmp_path / "trace_seed1.csv").read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        lines = data.decode().splitlines()
        assert lines[0] == "iteration,best_fitness,evaluations"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(10))

    def test_round_trip_identity(self, tmp_path):
        entries = [TraceEntry(0, 3.5, 10), TraceEntry(1, 0.1, 20), TraceEntry(2, 1e-17, 30)]
        path = tmp_path / "trace.csv"
        rows = [cli.TRACE_HEADER, *map(cli._trace_row, entries)]
        path.write_text("".join(f"{row}\n" for row in rows))
        assert read_trace(path) == entries

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.integers(0, 10**6),
        st.integers(0, 10**9),
    )
    @example(-0.0, 0, 0)
    @example(5e-324, 1, 2)  # the smallest subnormal
    @example(-2.2250738585072009e-308, 3, 4)  # the largest negative subnormal
    def test_round_trip_preserves_any_finite_float(self, value, iteration, evaluations):
        columns = cli._trace_row(TraceEntry(iteration, value, evaluations)).split(",")
        assert bits(float(columns[1])) == bits(value)
        assert (int(columns[0]), int(columns[2])) == (iteration, evaluations)

    def assert_rows_are_the_trace(self, path, trace):
        rows = Path(path).read_text().splitlines()
        assert rows == [cli.TRACE_HEADER, *map(cli._trace_row, trace.entries)]

    def test_trace_matches_direct_emission(self, tmp_path):
        # The streamed file written by the harness must hold one row per
        # entry of the same run's in-memory trace.
        config = parse_config(small_pso_text(seeds="4"))
        run_experiment(config, output_dir=str(tmp_path))
        bench = benchmark("sphere", 3)
        pso = PsoConfig(swarm_size=5, termination=TerminationCriteria(max_iterations=10))
        _, _, trace = optimize(bench.spec, pso, seed=4)
        self.assert_rows_are_the_trace(tmp_path / "trace_seed4.csv", trace)

    def test_early_stopped_trace_matches_direct_emission(self, tmp_path):
        config = parse_config(small_pso_text(seeds="4", extra="target_fitness=5\n"))
        run_experiment(config, output_dir=str(tmp_path))
        termination = TerminationCriteria(max_iterations=10, target_fitness=5.0)
        pso = PsoConfig(swarm_size=5, termination=termination)
        _, _, trace = optimize(benchmark("sphere", 3).spec, pso, seed=4)
        assert len(trace.entries) < 10
        self.assert_rows_are_the_trace(tmp_path / "trace_seed4.csv", trace)

    def test_aco_trace_matches_direct_emission(self, tmp_path):
        instance_file = tmp_path / "square.txt"
        instance_file.write_text(UNIT_SQUARE_TEXT)
        config = parse_config(small_aco_text(str(instance_file)))
        run_experiment(config, output_dir=str(tmp_path / "out"))
        aco = AcoConfig(termination=TerminationCriteria(max_iterations=10), num_ants=4)
        _, trace = optimize_aco(load_tsp_instance(UNIT_SQUARE_TEXT).graph, aco, seed=2)
        self.assert_rows_are_the_trace(tmp_path / "out" / "trace_seed2.csv", trace)


class TestSummary:
    def test_aggregate_example(self):
        agg = aggregate_bests([1.0, 3.0, 2.0])
        assert agg == {"min": 1.0, "median": 2.0, "mean": 2.0}

    @given(
        st.lists(
            st.floats()
            | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308]),
            min_size=1,
            max_size=6,
        )
    )
    def test_aggregate_has_the_bits_of_statistics(self, bests):
        import statistics

        try:
            expected = [min(bests), statistics.median(bests), statistics.fmean(bests)]
        except (OverflowError, ValueError) as exc:  # fsum of inf and -inf, or of a huge sum
            with pytest.raises((OverflowError, ValueError)) as raised:
                aggregate_bests(bests)
            assert type(raised.value) is type(exc)
            return
        bits = [struct.pack("<d", v) for v in aggregate_bests(bests).values()]
        assert bits == [struct.pack("<d", v) for v in expected]

    def test_emissions_are_byte_identical(self, tmp_path):
        config = parse_config(small_pso_text())
        summary = run_experiment(config, output_dir=str(tmp_path))
        assert emit_summary(summary) == emit_summary(summary)

    def test_round_trip_field_values(self, tmp_path):
        config = parse_config(small_pso_text())
        summary = run_experiment(config, output_dir=str(tmp_path))
        parsed = json.loads(emit_summary(summary))
        assert parsed["algorithm"] == summary.algorithm
        assert parsed["problem"] == summary.problem
        assert parsed["rng_algorithm"] == summary.rng_algorithm
        assert parsed["config"] == summary.config
        assert parsed["per_seed"] == list(summary.per_seed)
        assert parsed["aggregate"] == summary.aggregate
        assert parsed["total_evaluations"] == summary.total_evaluations

    def test_key_order_is_pinned(self, tmp_path):
        config = parse_config(small_pso_text())
        summary = run_experiment(config, output_dir=str(tmp_path))
        pairs = json.loads(
            emit_summary(summary), object_pairs_hook=lambda items: [k for k, _ in items]
        )
        assert pairs[:4] == ["algorithm", "problem", "rng_algorithm", "config"]

    def test_aggregates_recompute_from_per_seed_list(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1..5"))
        summary = run_experiment(config, output_dir=str(tmp_path))
        bests = [record["best_fitness"] for record in summary.per_seed]
        assert summary.aggregate == aggregate_bests(bests)
        assert summary.total_evaluations == sum(r["evaluations"] for r in summary.per_seed)


GOLDEN_PSO_TEXT = (
    "algorithm=pso\nproblem=sphere\ndim=3\nswarm_size=5\nmax_iterations=3\nseeds=1..2\n"
)
GOLDEN_PSO_ECHO = (
    '{"algorithm": "pso", "problem": "sphere", "max_iterations": 3, "target_fitness": %s, '
    '"seeds": [1, 2], "dim": 3, "swarm_size": %d, "c1": %s, "c2": 2.0, "vmax": %s, '
    '"topology": "%s", "ring_k": %d}'
)
GOLDEN_ACO_TEXT = "algorithm=aco\nproblem=square.txt\nmax_iterations=3\n"

# Each config's summary.json echo, byte for byte: key order, defaults filled
# in, and integer literals for float keys (c1=1, beta=3) echoed as floats.
GOLDEN_ECHOES = {
    "pso-defaults": (
        GOLDEN_PSO_TEXT,
        GOLDEN_PSO_ECHO % ("null", 5, "2.0", "null", "global", 1),
    ),
    "pso-ring-c1-vmax-target": (
        GOLDEN_PSO_TEXT + "topology=ring\nring_k=2\nc1=1\nvmax=0.25\ntarget_fitness=1e-3\n",
        GOLDEN_PSO_ECHO % ("0.001", 5, "1.0", "0.25", "ring", 2),
    ),
    "pso-ring_k-under-global": (
        GOLDEN_PSO_TEXT + "ring_k=3\n",
        GOLDEN_PSO_ECHO % ("null", 5, "2.0", "null", "global", 3),
    ),
    "pso-swarm_size-1": (
        GOLDEN_PSO_TEXT.replace("swarm_size=5", "swarm_size=1"),
        GOLDEN_PSO_ECHO % ("null", 1, "2.0", "null", "global", 1),
    ),
    "aco-defaults": (
        GOLDEN_ACO_TEXT + "seeds=1\n",
        '{"algorithm": "aco", "problem": "square.txt", "max_iterations": 3, '
        '"target_fitness": null, "seeds": [1], "num_ants": null, "alpha": 1.0, "beta": 2.0, '
        '"rho": 0.5, "q": 1.0, "tau0": 1.0, "tau_floor": 1e-12}',
    ),
    "aco-every-key": (
        GOLDEN_ACO_TEXT + "seeds=4,2\nnum_ants=3\nalpha=0.5\nbeta=3\nrho=0.25\nq=2\n"
        "tau0=0.5\ntau_floor=1e-9\ntarget_fitness=4\n",
        '{"algorithm": "aco", "problem": "square.txt", "max_iterations": 3, '
        '"target_fitness": 4.0, "seeds": [4, 2], "num_ants": 3, "alpha": 0.5, "beta": 3.0, '
        '"rho": 0.25, "q": 2.0, "tau0": 0.5, "tau_floor": 1e-09}',
    ),
}

# sha256 of every output file of ``swarmkit run`` on a random 12-city instance,
# summary.json without its wall-clock lines. The exponents are ones numpy
# computes exactly on any CPU (0 -> ones, 0.5 -> sqrt, 1 -> copy, 2 -> square);
# a general pow may differ in the last ulp between machines.
GOLDEN_ACO_DIGESTS = {
    "alpha=2\nbeta=0.5\nrho=0.3\nq=2.5\nseeds=3,8\n": {
        "summary.json": "913140ed4643580e0467595f05d244755290792f7a9626d07b97d12aee69b129",
        "trace_seed3.csv": "8fa15f4ac391e844aaa225e7266bfb14c1cd4295ca0aae84a55b36adfab6b715",
        "trace_seed8.csv": "7864124a0792ccd93db27098ac8ba3a9694bb2288d261f74690b52d1a286be78",
    },
    "alpha=0\nbeta=1\nnum_ants=17\nseeds=1..2\n": {
        "summary.json": "9ad40aed3b7bc96ec5c2a57f641d4e6ee123772230bfa2316c23b44a17d8b7d2",
        "trace_seed1.csv": "b760b58b1ad299f07c4be71e5c7d5f7af9c75fae039c725cfe23ce96ed37fa77",
        "trace_seed2.csv": "ffe993f65d3bfee130113dfd7852eb8e2615aefb02a72ffc6d32574960c6c5e9",
    },
}

# sha256 of every output file of ``swarmkit run`` on PSO configs, summary.json
# without its wall-clock lines. Sphere and Rosenbrock use only +, -, * and
# sums, which give the same bits on any CPU. Rastrigin also calls cos, which
# numpy 2 takes from the C library at every SIMD level; numpy 1.x may route
# it to a kernel of its own, so that entry is checked on numpy 2 only. The
# sphere config with a target_fitness stops both seeds early. A last-ulp
# change in an objective rarely moves the best fitness of a small config; the
# dim-50 sphere config is large enough to show one (with sphere computed
# through pow, only its bytes differed at the lower SIMD levels).
GOLDEN_PSO_DIGESTS = {
    "problem=sphere\ndim=4\nswarm_size=6\nmax_iterations=40\nseeds=1..2\n": {
        "summary.json": "d22e84944a048b306a75041ebe308434f5db340d2dc0f2c4ebfde095c50c8e22",
        "trace_seed1.csv": "b68ecf77cd7f3c5a50645c11a704e249c309df57bf8350d8dc5ce9bc7d0ba39a",
        "trace_seed2.csv": "16542bd2be616461e6679286fb0acbb8a10d9ad1aea86dab85ed61747a764a75",
    },
    "problem=rosenbrock\ndim=3\nswarm_size=7\nmax_iterations=40\ntopology=ring\nring_k=2\n"
    "vmax=0.25\nseeds=3,5\n": {
        "summary.json": "08461195b19155b1693339b3bf9fc65856e67556f5c8a3656ae10b6bc6123d9c",
        "trace_seed3.csv": "fa777675cfd7af20d9d1271f21d5f2c35d885ae6c55e5ae2ae0beb769c7aecdf",
        "trace_seed5.csv": "21b676cc8bbb38244f2743347b1037b2219c9bba86eb24c57f790b51a726a102",
    },
    "problem=sphere\ndim=2\nswarm_size=5\nmax_iterations=200\ntarget_fitness=0.05\n"
    "seeds=4,9\n": {
        "summary.json": "02394f902ca21e2cde9aa663070198985a094bed5ed873f5ea99d20fd48f8a6e",
        "trace_seed4.csv": "83973220474bd96729fa6c575ea9fb6341a2f96ebcb61523b20699b1c949ec87",
        "trace_seed9.csv": "ee6bec9d63ecb19892956f89178b5d25fee4fee0f830a53576eacd2d96d16814",
    },
    "problem=rastrigin\ndim=3\nswarm_size=6\nmax_iterations=40\nseeds=1..2\n": {
        "summary.json": "96e49595a6d2bb56a5fb5c4808c135347d931fea280edfd2dd8d046f9ddccf1f",
        "trace_seed1.csv": "7ef15029bfec7fd5cefa18bb446c2837bd02bfaf3af4c267080d4119a1312dfe",
        "trace_seed2.csv": "010920edef565955cab4045044e94f565006a51b84592b60db7654e62dbb24fb",
    },
    "problem=sphere\ndim=50\nswarm_size=10\nmax_iterations=60\nseeds=1..2\n": {
        "summary.json": "9d4aab90d443a77036297290d8ede8c68182b609c539944113c2d2a320566bfa",
        "trace_seed1.csv": "26f5b2d44a5f6f53e8ab8d442473596021dc781d578dbeeb5a337a4ce346d091",
        "trace_seed2.csv": "bbb8b3455b4fad68a6faa50c9f937dd80d3927c72ceb6095de7cfb4a57cf7517",
    },
}


def output_digests(out_dir: Path) -> dict:
    """sha256 of each file in a run's output directory, wall-clock lines removed."""
    digests = {}
    for path in out_dir.iterdir():
        data = path.read_bytes()
        if path.name == "summary.json":
            data = re.sub(rb'\n *"wall_clock_seconds": [^\n]*', b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def unpinned_reason(extra: str):
    """Why this numpy's bytes for a pinned config are not checked, or None."""
    if "rastrigin" in extra and np.lib.NumpyVersion(np.__version__) < "2.0.0":
        return "numpy 1.x may compute float64 cos with a kernel of its own; pinned on numpy 2"
    return None


def pinned_digests(algorithm: str, extra: str) -> dict:
    """Digests of ``swarmkit run`` on a pinned config, run in the current directory."""
    if algorithm == "aco":
        instance = random_tsp_instance(12, derive_stream(2024, 0))
        Path("cities12.txt").write_text(serialize_tsp_instance(instance))
        text = "algorithm=aco\nproblem=cities12.txt\nmax_iterations=15\n" + extra
    else:
        text = "algorithm=pso\n" + extra
    Path("cfg.txt").write_text(text)
    assert main(["run", "cfg.txt", "--output", "out"]) == 0
    return output_digests(Path("out"))


try:
    from numpy._core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

# Runs the pinned configs in argv[2] (JSON [algorithm, extra] pairs), each in
# its own directory under argv[1], and prints numpy's CPU features and the
# digests as one JSON line.
DISPATCH_CHILD = """
import json, os, sys
import test_cli

digests = []
for i, (algorithm, extra) in enumerate(json.loads(sys.argv[2])):
    os.mkdir(f"{sys.argv[1]}/{i}")
    os.chdir(f"{sys.argv[1]}/{i}")
    digests.append(test_cli.pinned_digests(algorithm, extra))
print(json.dumps({"features": test_cli.CPU_FEATURES, "digests": digests}))
"""


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_keys(heading: str) -> set:
    """Key names in the first column of the README table under ``heading``."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    keys = set()
    for line in lines[start + 1 :]:
        if keys and not line.startswith("|"):
            break
        if line.startswith("|"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


class TestReadme:
    def test_library_quick_start_runs(self):
        section = README.read_text().split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


class TestConfigEcho:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ECHOES))
    def test_summary_config_echo_is_pinned(self, name, tmp_path, monkeypatch):
        text, expected = GOLDEN_ECHOES[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "square.txt").write_text(UNIT_SQUARE_TEXT)
        (tmp_path / "cfg.txt").write_text(text)
        assert main(["validate", "cfg.txt"]) == 0
        summary = run_experiment(parse_config(text), output_dir="out")
        assert json.dumps(summary.config) == expected
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["config"] == (
            json.loads(expected)
        )

    @pytest.mark.parametrize(
        "algorithm, base, own, other",
        [
            ("pso", GOLDEN_PSO_TEXT, "PSO keys", "ACO keys"),
            ("aco", GOLDEN_ACO_TEXT + "seeds=1\n", "ACO keys", "PSO keys"),
        ],
    )
    def test_accepted_keys_match_readme_tables(self, algorithm, base, own, other):
        documented = readme_keys("Common keys") | readme_keys(own)
        candidates = (
            documented
            | readme_keys(other)
            | {f.name for cls in (PsoConfig, AcoConfig, TerminationCriteria) for f in fields(cls)}
        )
        candidates.discard("algorithm")  # selects the table rather than being a tunable
        for key in sorted(candidates):
            kept = [line for line in base.splitlines() if not line.startswith(f"{key}=")]
            text = "\n".join(kept + [f"{key}=@"]) + "\n"
            try:
                parse_config(text)
                message = ""
            except ConfigError as exc:
                message = str(exc)
            rejected = message.startswith(("unknown key", f"key {key} is not valid"))
            assert rejected == (key not in documented), (algorithm, key, message)


class TestRunExperiment:
    def test_one_trace_per_seed_plus_summary(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1..3"))
        run_experiment(config, output_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "summary.json",
            "trace_seed1.csv",
            "trace_seed2.csv",
            "trace_seed3.csv",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1..3"))
        run_experiment(config, output_dir=str(tmp_path / "a"))
        run_experiment(config, output_dir=str(tmp_path / "b"))
        for seed in (1, 2, 3):
            name = f"trace_seed{seed}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1..4"))
        serial = run_experiment(config, output_dir=str(tmp_path / "serial"), workers=1)
        parallel = run_experiment(config, output_dir=str(tmp_path / "parallel"), workers=4)
        for seed in range(1, 5):
            name = f"trace_seed{seed}.csv"
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()
        strip = lambda s: [
            {k: v for k, v in r.items() if k != "wall_clock_seconds"} for r in s.per_seed
        ]
        assert strip(serial) == strip(parallel)
        assert serial.aggregate == parallel.aggregate

    @pytest.mark.parametrize("workers, seeds, started", [(8, "1..2", 2), (2, "1..3", 2)])
    def test_pool_starts_at_most_one_process_per_seed(
        self, workers, seeds, started, tmp_path, monkeypatch
    ):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        run_experiment(parse_config(small_pso_text(seeds=seeds)), str(tmp_path), workers=workers)
        assert sizes == [started]

    def test_import_and_one_worker_run_load_no_process_pool(self, tmp_path):
        # Runs in a fresh interpreter: this process has loaded all of them already.
        # Writing the summary loads json, so only the import is checked for it.
        script = """
import sys
import swarmkit
heavy = ["concurrent.futures", "multiprocessing", "argparse", "logging"]
heavy += ["statistics", "fractions", "decimal"]
print(*[m for m in [*heavy, "json"] if m in sys.modules])
config = swarmkit.parse_config(open(sys.argv[1]).read())
swarmkit.run_experiment(config, output_dir=sys.argv[2], workers=1)
print(*[m for m in heavy if m in sys.modules])
"""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_pso_text())
        result = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(README.parent / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (result.returncode, result.stdout) == (0, "\n\n"), result.stderr
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_aco_instance_is_read_once_per_run(self, tmp_path, monkeypatch):
        instance_file = tmp_path / "square.txt"
        instance_file.write_text(UNIT_SQUARE_TEXT)
        reads = []

        def counting_load(*args, **kwargs):
            reads.append(args)
            return load_tsp_instance(*args, **kwargs)

        monkeypatch.setattr(cli, "load_tsp_instance", counting_load)
        config = parse_config(small_aco_text(str(instance_file)).replace("1,2", "1..3"))
        summary = run_experiment(config, output_dir=str(tmp_path / "out"))
        assert [r["seed"] for r in summary.per_seed] == [1, 2, 3]
        assert len(reads) == 1

    @pytest.mark.parametrize("algorithm", ["pso", "aco"])
    def test_summary_best_is_the_last_trace_row(self, algorithm, tmp_path):
        instance_file = tmp_path / "square.txt"
        instance_file.write_text(UNIT_SQUARE_TEXT)
        text = small_pso_text() if algorithm == "pso" else small_aco_text(str(instance_file))
        summary = run_experiment(parse_config(text), output_dir=str(tmp_path / "out"))
        for record in summary.per_seed:
            trace_path = tmp_path / "out" / f"trace_seed{record['seed']}.csv"
            assert repr(record["best_fitness"]) == repr(read_trace(trace_path)[-1].best_fitness)

    def test_summaries_identical_modulo_wall_clock(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1..2"))
        run_experiment(config, output_dir=str(tmp_path / "a"))
        run_experiment(config, output_dir=str(tmp_path / "b"))
        load = lambda p: json.loads((tmp_path / p / "summary.json").read_text())
        a, b = load("a"), load("b")
        for record in a["per_seed"] + b["per_seed"]:
            record.pop("wall_clock_seconds")
        assert a == b

    def test_aco_experiment_from_instance_file(self, tmp_path):
        instance_file = tmp_path / "square.txt"
        instance_file.write_text(UNIT_SQUARE_TEXT)
        config = parse_config(small_aco_text(str(instance_file)))
        summary = run_experiment(config, output_dir=str(tmp_path / "out"))
        assert summary.algorithm == "aco"
        assert all(r["evaluations"] == 4 * 10 for r in summary.per_seed)
        entries = read_trace(tmp_path / "out" / "trace_seed1.csv")
        instance = load_tsp_instance(UNIT_SQUARE_TEXT)
        aco = AcoConfig(termination=TerminationCriteria(max_iterations=10), num_ants=4)
        _, direct = optimize_aco(instance.graph, aco, seed=1)
        assert entries == list(direct.entries)

    def test_config_output_key_sets_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = parse_config(small_pso_text(seeds="1", extra="output=from_config\n"))
        run_experiment(config)
        assert (tmp_path / "from_config" / "trace_seed1.csv").exists()

    def test_explicit_output_dir_overrides_config(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1", extra="output=ignored\n"))
        run_experiment(config, output_dir=str(tmp_path / "explicit"))
        assert (tmp_path / "explicit" / "trace_seed1.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_invalid_worker_count_rejected(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1"))
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_experiment(config, output_dir=str(tmp_path), workers=0)

    def test_failure_leaves_no_partial_files(self, tmp_path):
        config = parse_config(small_aco_text(str(tmp_path / "missing.txt")))
        with pytest.raises(OSError):
            run_experiment(config, output_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_no_temp_files_after_success(self, tmp_path):
        config = parse_config(small_pso_text(seeds="1..2"))
        run_experiment(config, output_dir=str(tmp_path))
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_target_fitness_truncates_traces(self, tmp_path):
        config = parse_config(small_pso_text(extra="target_fitness=100\n"))
        summary = run_experiment(config, output_dir=str(tmp_path))
        entries = read_trace(tmp_path / "trace_seed1.csv")
        assert len(entries) < 10
        assert entries[-1].best_fitness <= 100.0
        assert summary.per_seed[0]["best_fitness"] <= 100.0

    @pytest.mark.parametrize("extra", sorted(GOLDEN_ACO_DIGESTS))
    def test_aco_output_bytes_are_pinned(self, extra, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert pinned_digests("aco", extra) == GOLDEN_ACO_DIGESTS[extra]

    @pytest.mark.parametrize("extra", sorted(GOLDEN_PSO_DIGESTS))
    def test_pso_output_bytes_are_pinned(self, extra, tmp_path, monkeypatch):
        if reason := unpinned_reason(extra):
            pytest.skip(reason)
        monkeypatch.chdir(tmp_path)
        assert pinned_digests("pso", extra) == GOLDEN_PSO_DIGESTS[extra]


class TestDispatchLevels:
    """The pinned bytes at each SIMD level numpy dispatches below this CPU's own."""

    @pytest.mark.parametrize("level", CPU_DISPATCH)
    def test_pinned_bytes_below_the_level(self, level, tmp_path):
        # numpy runs each kernel at the highest dispatched target the CPU has, so
        # switching off ``level`` and every later target runs the one below it.
        if not CPU_FEATURES[level]:
            pytest.skip(f"this CPU lacks {level}, so numpy never runs its kernels here")
        later = CPU_DISPATCH[CPU_DISPATCH.index(level) :]
        disabled = [name for name in later if CPU_FEATURES[name]]
        pinned = [
            (algorithm, extra, digests)
            for algorithm, table in (("aco", GOLDEN_ACO_DIGESTS), ("pso", GOLDEN_PSO_DIGESTS))
            for extra, digests in table.items()
            if not unpinned_reason(extra)
        ]
        tests = Path(__file__).resolve().parent
        env = {
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
            "PYTHONPATH": os.pathsep.join([str(tests), str(tests.parent / "src")]),
        }
        configs = json.dumps([[algorithm, extra] for algorithm, extra, _ in pinned])
        result = subprocess.run(
            [sys.executable, "-c", DISPATCH_CHILD, str(tmp_path), configs],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert [name for name in disabled if report["features"][name]] == []
        assert report["digests"] == [digests for _, _, digests in pinned]


def write(path, content) -> None:
    """Write bytes as they are and text as UTF-8, whatever the locale."""
    Path(path).write_bytes(content if isinstance(content, bytes) else content.encode())


# One row per refused input: an id that starts with the name of the test the
# row once was (so -k finds it), cfg.txt and cities.txt (None: no such file),
# the commands, and the one stderr line each prints. validate and run read
# cfg.txt, brute-force reads cities.txt; a line ending in "..." is a prefix.
BOTH, ALL = ("validate", "run"), ("validate", "run", "brute-force")
ARGUMENTS = {
    "validate": ["cfg.txt"], "run": ["cfg.txt", "--output", "out"], "brute-force": ["cities.txt"]
}
PSO, ACO, SQUARE = small_pso_text(), small_aco_text("cities.txt"), UNIT_SQUARE_TEXT
TRUNCATED, FAR_APART = "4\n0 0.0 0.0\n1 0.0 1.0\n", "3\n0 0.0 0.0\n1 1e200 0.0\n2 0.0 1.0\n"
UNDECODABLE = b"\xff" + SQUARE.encode()
NO_FILE = "error: [Errno 2] No such file or directory: "
ENVELOPE = "error: c1, c2, vmax and max_iterations let a velocity sum overflow on a box bounded by"
REFUSALS = [
    ("test_validate_reports_single_line_error", PSO + "frobnicate=1\n", None, BOTH,
     "error: unknown key frobnicate"),
    *[
        (f"test_non_finite_tunable_fails_validate_and_run_alike-{algorithm}-{setting}",
         (PSO if algorithm == "pso" else ACO) + setting + "\n", SQUARE, BOTH,
         "error: {} must be finite, got {}".format(*setting.split("=")))
        for algorithm, setting in [
            ("pso", "vmax=nan"), ("pso", "c1=nan"), ("pso", "c2=-inf"), ("aco", "tau0=inf"),
            ("pso", "target_fitness=nan"), ("aco", "alpha=nan"), ("aco", "beta=inf"),
            ("aco", "q=inf"), ("aco", "tau_floor=nan"),
        ]
    ],
    ("test_validate_reads_the_aco_instance-missing", ACO, None, ALL, NO_FILE + "'cities.txt'"),
    ("test_validate_reads_the_aco_instance-truncated", ACO, TRUNCATED, ALL,
     "error: expected 4 points, found 2"),
    ("test_undecodable_config_reports_one_line", b"# caf\xe9\n" + PSO.encode(), None, BOTH,
     "error: 'utf-8' codec can't decode byte 0xe9 in position 5: "
     "invalid continuation byte in cfg.txt"),
    ("test_undecodable_instance_reports_one_line", ACO, UNDECODABLE, ALL,
     "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte in cities.txt"),
    ("test_benchmark_dimension_fails_validate_and_run_alike",
     PSO.replace("sphere", "rosenbrock").replace("dim=3", "dim=1"), None, BOTH,
     "error: rosenbrock needs dimension >= 2, got 1"),
    # numpy cannot size the first two; it refuses to allocate the third (728 TiB) at
    # once, in words that differ between numpy versions.
    *[
        (f"test_huge_dim_reports_one_line-{dim}", PSO.replace("dim=3", f"dim={dim}"), None, BOTH,
         f"error: dim {dim} is too large...")
        for dim in (10**22, 2**63 - 1, 10**14)
    ],
    # numpy cannot size the first count; it refuses to allocate the second (1.42 PiB) at once.
    *[
        (f"test_node_count_numpy_cannot_size_reports_one_line-{count}", ACO,
         f"{count}\n0 0.0 0.0\n", ALL, f"error: expected {count} points, found 1")
        for count in (10**30, 10**14)
    ],
    ("test_overflowing_vmax_reports_one_line", PSO + "vmax=1e308\n", None, BOTH,
     "error: vmax is too large: 2 * vmax overflows, got 1e+308"),
    ("test_overflowing_velocity_sum_reports_one_line-c1-c2",
     PSO.replace("dim=3", "dim=2\nc1=1e308\nc2=1e308"), None, BOTH,
     ENVELOPE + " 5.12: c1=1e+308, c2=1e+308, vmax=5.12, max_iterations=10"),
    ("test_overflowing_velocity_sum_reports_one_line-max_iterations",
     PSO.replace("max_iterations=10", f"max_iterations={10**400}"), None, BOTH,
     ENVELOPE + " 5.12: c1=2.0, c2=2.0, vmax=5.12, max_iterations=~10**400"),
    ("test_huge_coordinates_report_one_line", ACO, FAR_APART, ALL,
     "error: distances must be finite"),
    ("test_validate_missing_file", None, None, BOTH, NO_FILE + "'cfg.txt'"),
    ("test_run_rejects_bad_workers", small_pso_text(seeds="1"), None, ["run --workers 0"],
     "error: workers must be >= 1, got 0"),
    ("test_brute_force_missing_file", None, None, ["brute-force"], NO_FILE + "'cities.txt'"),
    ("test_brute_force_oversized_instance", None,
     "12\n" + "".join(f"{i} {float(i)!r} {float(i * i)!r}\n" for i in range(12)), ["brute-force"],
     "error: brute force refused: 12 nodes exceeds the limit of 11"),
]

# validate accepts this vmax; with it a particle flies far enough out that sphere
# overflows to inf, and run still exits 0 without a numpy warning.
OVERFLOWING_OBJECTIVE = (
    "algorithm=pso\nproblem=sphere\ndim=2\nswarm_size=3\nmax_iterations=3\nseeds=1\nvmax=1e160\n"
)
# What only a run can refuse: the sums and levels its pheromones reach.
RUN_TIME_REFUSALS = (
    "error: transition weights from node",
    "error: pheromone levels must be finite",
)

# Adversarial config values, and the broken instances an ACO config may name.
ADVERSARIAL = ["0", "-0", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", str(2**63)]
ADVERSARIAL += [str(10**30), "", "é", "1..0", "3,3"]
BROKEN_INSTANCES = {
    "pair.txt": "2\n0 0.0 0.0\n1 1.0 0.0\n",
    "truncated.txt": TRUNCATED,
    "latin1.txt": UNDECODABLE,
    "far.txt": FAR_APART,
    "nodes.txt": f"{10**30}\n0 0.0 0.0\n",
}
REQUIRED_KEYS = ("problem", "seeds", "max_iterations", "dim", "swarm_size")
# Small valid values and adversarial ones per key; other keys are floats. The
# keys that size a run or a loop get only small values or ones that are
# refused before anything is allocated or run.
REFUSED_COUNTS = [value for value in ADVERSARIAL if value not in (str(2**63), str(10**30))]
HUGE_DIMS = [str(10**14), str(2**63 - 1), str(10**22)]  # numpy refuses each before allocating
FUZZ_VALUES = {
    "problem": (["sphere", "rastrigin", "rosenbrock"], ADVERSARIAL),
    "seeds": (["1", "2", "1..2", "1,2"], [*ADVERSARIAL, str(2**64)]),
    "max_iterations": (["1", "2", "3"], REFUSED_COUNTS),
    "swarm_size": (["1", "2", "3"], REFUSED_COUNTS),
    "num_ants": (["1", "2", "3"], REFUSED_COUNTS),
    "ring_k": (["1", "2"], [*REFUSED_COUNTS, str(10**30)]),
    "dim": ([str(d) for d in range(1, 7)], [*REFUSED_COUNTS, *HUGE_DIMS]),
    "topology": (["global", "ring"], ADVERSARIAL),
}
ACO_PROBLEMS = (["square.txt"], ["missing.txt", *BROKEN_INSTANCES])
PSO_BUDGETS = [str(10**400), "1" + "0" * 5000]  # the velocity envelope refuses both


@st.composite
def fuzzed_configs(draw) -> str:
    """A config whose values are adversarial an eighth of the time, and four times
    in seven with an unknown, foreign, duplicate or missing line."""
    algorithm, other = draw(st.permutations(["pso", "aco"]))
    lines = [f"algorithm={algorithm}"]
    for key in cli._keys(algorithm):
        if key == "algorithm" or not (key in REQUIRED_KEYS or draw(st.booleans())):
            continue
        valid, bad = FUZZ_VALUES.get(key, (["0.5", "1", "2"], ADVERSARIAL))
        if (algorithm, key) == ("aco", "problem"):
            valid, bad = ACO_PROBLEMS
        elif (algorithm, key) == ("pso", "max_iterations"):
            bad = bad + PSO_BUDGETS
        pool = bad if draw(st.integers(0, 7)) == 0 else valid
        lines.append(f"{key}={draw(st.sampled_from(pool))}")
    edit = draw(st.sampled_from(["none", "none", "none", "unknown", "other", "duplicate", "drop"]))
    if edit == "unknown":
        lines.append("frobnicate=1")
    elif edit == "other":
        foreign = sorted(cli._keys(other).keys() - cli._keys(algorithm))
        lines.append(draw(st.sampled_from(foreign)) + "=1")
    elif edit == "duplicate":
        lines.append(draw(st.sampled_from(lines)))
    elif edit == "drop":
        required = [line for line in lines if line.split("=")[0] in REQUIRED_KEYS]
        lines.remove(draw(st.sampled_from(required)))
    return "\n".join(lines) + "\n"


SMALL_COORDINATES = st.integers(-9, 9).map(str) | st.floats(-10.0, 10.0).map(repr)
EXTREME_COORDINATES = ["1e308", "-1e308", "1.7976931348623157e308", "nan", "inf", "-inf", "5e-324"]


@st.composite
def fuzzed_instances(draw) -> bytes:
    """An instance of 3 to 8 points, whose count line says 0, 2 or 10**30 an
    eighth of the time. Points repeat, and coordinates are huge, tiny or not
    finite, an eighth of the time each; four times in seven a point line is
    truncated, has an extra field, or is missing or out of order; and an
    eighth of the time the file holds a non-UTF-8 byte."""
    n = draw(st.integers(3, 8))
    count = draw(st.sampled_from([0, 2, 10**30])) if draw(st.integers(0, 7)) == 0 else n
    points = []
    for _ in range(n):
        if points and draw(st.integers(0, 7)) == 0:
            points.append(draw(st.sampled_from(points)))  # a zero off-diagonal distance
            continue
        extreme = draw(st.integers(0, 7)) == 0
        pool = st.sampled_from(EXTREME_COORDINATES) if extreme else SMALL_COORDINATES
        points.append((draw(pool), draw(pool)))
    lines = [str(count)] + [f"{i} {x} {y}" for i, (x, y) in enumerate(points)]
    edit = draw(st.sampled_from(["none", "none", "none", "truncate", "extra", "drop", "swap"]))
    i = draw(st.integers(1, n))
    if edit == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    elif edit == "extra":
        lines[i] += " 0"
    elif edit == "drop":
        del lines[i]
    elif edit == "swap":
        j = i % n + 1  # the next point line, or the first after the last
        lines[i], lines[j] = lines[j], lines[i]
    text = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 7)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + b"\xe9" + text[cut:]
    return text


def assert_runs_or_is_refused_alike(capsys, *others):
    """Run validate and run on cfg.txt, then ``others``, in-process in the working directory.

    Each exits 0 with nothing on stderr, or 1 with one ``error:`` line and
    nothing on stdout, and leaves no ``*.tmp`` file. If validate refuses,
    every command refuses in the same line and run leaves no output
    directory. Otherwise the others succeed, and run writes every file or,
    after one of the RUN_TIME_REFUSALS, an empty output directory.
    """
    results = []
    run = ["run", "cfg.txt", "--output", "out", "--workers=1"]
    for argv in (["validate", "cfg.txt"], run, *others):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1)
        if code == 1:
            assert out == "" and err.count("\n") == 1 and err.startswith("error:"), err
        else:
            assert err == "", err  # not even a numpy warning
        assert not list(Path().rglob("*.tmp"))
        results.append((code, err))
    (validated, refusal), (ran, run_error), *rest = results
    if validated == 1:
        assert results == [(1, refusal)] * len(results) and not Path("out").exists()
        return
    assert rest == [(0, "")] * len(others)
    if ran == 0:
        seeds = parse_config(cli._read("cfg.txt")).seeds
        traces = [f"trace_seed{seed}.csv" for seed in seeds]
        assert {path.name for path in Path("out").iterdir()} == {"summary.json", *traces}
    else:
        assert run_error.startswith(RUN_TIME_REFUSALS), run_error
        assert list(Path("out").iterdir()) == []


def echo_text(echo: dict) -> str:
    """``echo`` as config lines, None values left out and seeds joined by commas.

    An f-string writes a float as its ``repr``, which parses back to the same bits.
    """
    echo = {**echo, "seeds": ",".join(map(str, echo["seeds"]))}
    return "".join(f"{key}={value}\n" for key, value in echo.items() if value is not None)


class TestConfigEchoParsesBack:
    @settings(max_examples=500)
    @given(text=fuzzed_configs())
    @example(text=small_pso_text().replace("swarm_size=5", "swarm_size=1"))  # echoes ring_k=1
    def test_every_accepted_config_echo_parses_back(self, text):
        try:
            echo = cli._config_echo(parse_config(text))
        except ConfigError:
            return
        assert cli._config_echo(parse_config(echo_text(echo))) == echo


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(small_pso_text())
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    @pytest.mark.filterwarnings("error")  # a numpy warning would print a second line
    @pytest.mark.parametrize(
        "config, cities, command, line",
        [
            pytest.param(config, cities, command, line, id=f"{name}-{command.split()[0]}")
            for name, config, cities, commands, line in REFUSALS
            for command in commands
        ],
    )
    def test_refusal_is_one_error_line(
        self, config, cities, command, line, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for path, content in (("cfg.txt", config), ("cities.txt", cities)):
            if content is not None:
                write(path, content)
        name, *flags = command.split()
        assert main([name, *ARGUMENTS[name], *flags]) == 1
        out, err = capsys.readouterr()
        assert (out, err.count("\n")) == ("", 1)
        assert err.startswith(line[:-3]) if line.endswith("...") else err == line + "\n"
        assert not Path("out").exists()

    @pytest.mark.filterwarnings("error")  # a numpy warning would print a second line
    def test_run_reports_degenerate_aco_weights(self, tmp_path, capsys):
        # The config is valid; only this instance's distances overflow eta**beta,
        # so validate accepts it and run fails without leaving output files.
        instance = tmp_path / "cities8.txt"
        instance.write_text(serialize_tsp_instance(random_tsp_instance(8, derive_stream(100, 0))))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_aco_text(str(instance), "beta=400\n"))
        assert main(["validate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: transition weights from node 0 sum to inf")
        assert err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.filterwarnings("error")  # a numpy warning would print more lines
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=fuzzed_configs())
    @example(text=small_aco_text("square.txt", "tau0=1e308\n"))
    @example(text=small_aco_text("square.txt", "q=1e308\nrho=0\n"))
    @example(text=OVERFLOWING_OBJECTIVE)
    def test_every_config_runs_or_is_refused_in_one_line(self, text, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.rmtree("out", ignore_errors=True)
        for path, content in [("square.txt", SQUARE), *BROKEN_INSTANCES.items(), ("cfg.txt", text)]:
            write(path, content)
        assert_runs_or_is_refused_alike(capsys)

    @pytest.mark.filterwarnings("error")  # a numpy warning would print more lines
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cities=fuzzed_instances())
    # numpy warned of inf - inf before the error line.
    @example(cities=b"3\n0 0 0\n1 0 0\n2 0 inf\n")
    def test_every_instance_runs_or_is_refused_in_one_line(
        self, cities, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        shutil.rmtree("out", ignore_errors=True)
        write("cfg.txt", "algorithm=aco\nproblem=cities.txt\nmax_iterations=2\nseeds=1\n")
        write("cities.txt", cities)
        assert_runs_or_is_refused_alike(capsys, ["brute-force", "cities.txt"])

    def test_broken_worker_pool_reports_single_line(self, tmp_path, capsys, monkeypatch):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                raise BrokenProcessPool("a worker process died")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BrokenPool)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_pso_text(seeds="1..2"))
        assert main(["run", str(cfg), "--output", str(tmp_path / "o"), "--workers", "2"]) == 1
        assert capsys.readouterr().err == "error: a worker process died\n"

    def test_missing_instance_fails_before_a_pool_starts(self, tmp_path, capsys, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_aco_text(str(tmp_path / "nowhere.txt")))
        argv = ["run", str(cfg), "--output", str(tmp_path / "out"), "--workers", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1
        assert pools == []
        assert not (tmp_path / "out").exists()

    def test_config_is_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# café\n" + small_pso_text(), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(README.parent / "src"), PYTHONUTF8="0", LC_ALL="C")
        result = subprocess.run(
            [sys.executable, "-m", "swarmkit", "validate", str(cfg)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 745. GiB", "error: Unable to allocate 745. GiB\n"),
            ("", "error: MemoryError\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_exhausted_memory_reports_one_line(self, message, line, tmp_path, capsys, monkeypatch):
        def out_of_memory(name, dimension):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "benchmark", out_of_memory)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_pso_text())
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--output", str(tmp_path / "o")]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", line)

    def test_run_writes_outputs_and_reports(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_pso_text(seeds="1..2"))
        out_dir = tmp_path / "results"
        assert main(["run", str(cfg), "--output", str(out_dir), "--workers", "2"]) == 0
        captured = capsys.readouterr().out
        assert "seed=1" in captured and "seed=2" in captured
        assert "aggregate min=" in captured
        assert (out_dir / "summary.json").exists()

    def test_brute_force_prints_tour_and_length(self, tmp_path, capsys):
        instance = tmp_path / "square.txt"
        instance.write_text(UNIT_SQUARE_TEXT)
        assert main(["brute-force", str(instance)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "tour: 0 1 2 3"
        assert out[1] == "length: 4.0"
