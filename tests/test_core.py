"""Tests for random streams, objectives, read-only copies and inputs, traces, and termination."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import UNIT_SQUARE_COORDS
from swarmkit import (
    RNG_ALGORITHM,
    AcoConfig,
    ConfigError,
    DistanceGraph,
    ObjectiveSpec,
    PheromoneMatrix,
    PsoConfig,
    Ring,
    RngStream,
    TerminationCriteria,
    TspInstance,
    TraceEntry,
    benchmark,
    construct_tour,
    derive_stream,
    fitness_key,
    initialize_pheromones,
    initialize_swarm,
    optimize,
    random_tsp_instance,
    record_iteration,
    should_terminate,
    step,
    transition_weights,
)


class TestRngStream:
    def test_same_seed_and_stream_id_replays_identically(self):
        a = derive_stream(7, 0)
        b = derive_stream(7, 0)
        assert [a.next_uniform() for _ in range(100)] == [b.next_uniform() for _ in range(100)]

    def test_derive_stream_is_pure(self):
        first = [derive_stream(42, 0).next_uniform() for _ in range(5)]
        second = [derive_stream(42, 0).next_uniform() for _ in range(5)]
        assert first == second

    def test_distinct_stream_ids_differ(self):
        a = derive_stream(42, 0).next_uniforms(100)
        b = derive_stream(42, 1).next_uniforms(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = derive_stream(42, 0).next_uniforms(100)
        b = derive_stream(43, 0).next_uniforms(100)
        assert not np.array_equal(a, b)

    def test_draws_lie_in_unit_interval(self):
        stream = derive_stream(3, 5)
        draws = stream.next_uniforms(10_000)
        assert (draws >= 0.0).all() and (draws < 1.0).all()

    def test_empirical_mean_smoke(self):
        # Frozen statistical check: seed 12345 / stream 0 was sampled once;
        # its observed mean is 0.50190, within the 0.01 band around 0.5.
        draws = derive_stream(12345, 0).next_uniforms(100_000)
        assert abs(float(draws.mean()) - 0.5) < 0.01

    def test_array_draws_match_scalar_draws(self):
        array = derive_stream(9, 2).next_uniforms(64)
        scalar_stream = derive_stream(9, 2)
        scalars = np.array([scalar_stream.next_uniform() for _ in range(64)])
        assert np.array_equal(array, scalars)

    @pytest.mark.parametrize("seed,stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_rejects_out_of_range_ids(self, seed, stream_id):
        with pytest.raises(ConfigError):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32, np.uint8])
    def test_numpy_integers_key_the_stream_of_their_value(self, integer):
        # np.int64(7) << 64 wraps to 0, so such a seed once drew seed 0's stream.
        assert np.array_equal(
            derive_stream(integer(7), integer(1)).next_uniforms(8),
            derive_stream(7, 1).next_uniforms(8),
        )
        spec = benchmark("sphere", 2).spec
        config = PsoConfig(termination=TerminationCriteria(max_iterations=5), swarm_size=4)
        position, best, trace = optimize(spec, config, integer(7))
        expected_position, expected_best, expected_trace = optimize(spec, config, 7)
        assert np.array_equal(position, expected_position)
        assert (best, trace) == (expected_best, expected_trace)

    def test_accepts_full_64_bit_range(self):
        derive_stream(2**64 - 1, 2**64 - 1).next_uniform()

    def test_algorithm_identifier_is_pinned(self):
        assert RNG_ALGORITHM == "philox4x64"


class TestFitnessKey:
    def test_finite_values_pass_through(self):
        assert fitness_key(1.5) == 1.5
        assert fitness_key(-3.0) == -3.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_maps_to_positive_infinity(self, value):
        assert fitness_key(value) == math.inf


class TestObjectiveSpec:
    def _spec(self, **overrides):
        kwargs = dict(
            dimension=2,
            lower_bound=np.array([-1.0, -1.0]),
            upper_bound=np.array([1.0, 1.0]),
            evaluate=lambda x: float(np.sum(x * x)),
        )
        kwargs.update(overrides)
        return ObjectiveSpec(**kwargs)

    def test_valid_spec_constructs(self):
        spec = self._spec()
        assert spec.dimension == 2
        assert spec.evaluate(np.array([1.0, 2.0])) == 5.0

    def test_bounds_become_read_only(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            spec.lower_bound[0] = 0.0

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ConfigError):
            self._spec(dimension=0)

    def test_rejects_bound_shape_mismatch(self):
        with pytest.raises(ConfigError):
            self._spec(lower_bound=np.array([-1.0]))

    def test_rejects_non_finite_bounds(self):
        with pytest.raises(ConfigError):
            self._spec(lower_bound=np.array([-np.inf, -1.0]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError):
            self._spec(lower_bound=np.array([-1.0, 2.0]))

    def test_rejects_bounds_whose_span_overflows(self):
        # Each bound is finite, but upper - lower is not: initial positions would be inf.
        with pytest.raises(ConfigError, match=r"upper_bound - lower_bound overflows"):
            self._spec(lower_bound=np.array([-1.0, -1e308]), upper_bound=np.array([1.0, 1e308]))

    def test_accepts_the_widest_finite_span(self):
        half = np.finfo(float).max / 2
        spec = self._spec(lower_bound=np.full(2, -half), upper_bound=np.full(2, half))
        assert np.isfinite(spec.upper_bound - spec.lower_bound).all()


# Each builder takes the caller's arrays and returns the arrays the built object holds.
def spec_bounds(lower, upper):
    spec = ObjectiveSpec(2, lower, upper, evaluate=sum)
    return spec.lower_bound, spec.upper_bound


def config_vmax(vmax):
    return (PsoConfig(swarm_size=2, termination=TerminationCriteria(1), vmax=vmax).vmax,)


def tsp_coordinates(coords):
    return (TspInstance.from_coordinates("square", coords).coordinates,)


TRIANGLE = [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]


class TestReadOnlyCopies:
    """Each constructor that takes arrays holds read-only copies and leaves the caller's alone."""

    @pytest.mark.parametrize(
        "build, values",
        [
            pytest.param(spec_bounds, [[-1.0, -2.0], [1.0, 2.0]], id="ObjectiveSpec"),
            pytest.param(config_vmax, [[0.5, 2.0]], id="PsoConfig.vmax"),
            pytest.param(lambda d: (DistanceGraph(d).distance,), [TRIANGLE], id="DistanceGraph"),
            pytest.param(lambda t: (PheromoneMatrix(t).tau,), [TRIANGLE], id="PheromoneMatrix"),
            pytest.param(tsp_coordinates, [UNIT_SQUARE_COORDS.tolist()], id="from_coordinates"),
        ],
    )
    def test_caller_array_stays_writeable_and_unchanged(self, build, values):
        given = [np.array(value) for value in values]
        held = build(*given)
        assert len(held) == len(given)
        for array, value, copy in zip(given, values, held):
            assert array.flags.writeable
            assert np.array_equal(array, value)
            assert not copy.flags.writeable
            assert not np.shares_memory(copy, array)
            array += 1.0
            assert np.array_equal(copy, value)


def read_only(array) -> np.ndarray:
    copy = np.array(array)
    copy.flags.writeable = False
    return copy


class TestEnginesLeaveTheirInputs:
    """The engines read their input arrays and never write into them."""

    def test_step_and_construct_tour_run_on_read_only_inputs(self):
        spec = benchmark("sphere", 3).spec
        config = PsoConfig(swarm_size=6, termination=TerminationCriteria(3), topology=Ring(1))
        streams = [derive_stream(4, 1 + k) for k in range(config.swarm_size)]
        # One step first, so that positions have left their pbests and some rows adopt.
        state = step(initialize_swarm(spec, config, derive_stream(4, 0)), spec, config, streams)
        names = ("position", "velocity", "pbest_position", "pbest_fitness", "gbest_position")
        frozen = dataclasses.replace(
            state, **{name: read_only(getattr(state, name)) for name in names}
        )
        after = step(frozen, spec, config, streams)
        assert not np.array_equal(after.pbest_fitness, state.pbest_fitness)
        for name in names:
            assert np.array_equal(getattr(frozen, name), getattr(state, name)), name

        graph = random_tsp_instance(6, derive_stream(4, 0)).graph
        aco = AcoConfig(termination=TerminationCriteria(1))
        table = transition_weights(graph, initialize_pheromones(graph, aco), aco)
        weights = read_only(table)
        for start in range(graph.n):
            construct_tour(graph, weights, aco, derive_stream(4, 1 + start), start)
        assert np.array_equal(weights, table)


class TestTerminationCriteria:
    def test_rejects_zero_max_iterations(self):
        with pytest.raises(ConfigError):
            TerminationCriteria(max_iterations=0)

    def test_minimal_criteria(self):
        criteria = TerminationCriteria(max_iterations=1)
        assert criteria.target_fitness is None


# Ties under fitness_key (0.0 and -0.0; NaN and the infinities) are where the floor's choice shows.
TIE_PRONE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]) | st.floats()


def fold_records(values, evaluations=None):
    """The entries ``record_iteration`` yields when folded over ``values``."""
    entries, entry = [], None
    for i, value in enumerate(values):
        entry = record_iteration(entry, value, i if evaluations is None else evaluations[i])
        entries.append(entry)
    return entries


class TestRecordIteration:
    def test_first_entry(self):
        assert record_iteration(None, 3.5, 10) == TraceEntry(0, 3.5, 10)

    def test_monotone_floor_retains_previous_best(self):
        entry = record_iteration(TraceEntry(0, 3.5, 10), 4.0, 20)
        assert entry == TraceEntry(1, 3.5, 20)

    def test_improvement_is_recorded(self):
        entry = record_iteration(TraceEntry(0, 3.5, 10), 1.0, 20)
        assert entry == TraceEntry(1, 1.0, 20)

    def test_non_finite_best_never_improves(self):
        entries = fold_records([2.0, math.nan, math.inf, -math.inf])
        assert [e.best_fitness for e in entries] == [2.0, 2.0, 2.0, 2.0]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_best_fitness_sequence_is_non_increasing(self, values):
        entries = fold_records(values)
        fits = [e.best_fitness for e in entries]
        assert all(later <= earlier for earlier, later in zip(fits, fits[1:]))
        assert [e.iteration for e in entries] == list(range(len(values)))

    @given(
        st.lists(st.tuples(TIE_PRONE_FLOATS, st.integers(0, 2**63)), min_size=1, max_size=50),
        st.integers(1, 60),
        st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_fold_matches_running_minimum(self, rows, max_iterations, target):
        values = [value for value, _ in rows]
        evaluations = [count for _, count in rows]
        entries = fold_records(values, evaluations)
        assert [e.iteration for e in entries] == list(range(len(values)))
        assert [e.evaluations for e in entries] == evaluations
        for i, entry in enumerate(entries):
            # min keeps the first of equal keys, as the strict floor does;
            # repr tells -0.0 from 0.0 and compares NaN.
            assert repr(entry.best_fitness) == repr(min(values[: i + 1], key=fitness_key))
        # The whole-trace definition: its length reaches the budget or its last best the target.
        criteria = TerminationCriteria(max_iterations=max_iterations, target_fitness=target)
        for length, entry in enumerate(entries, start=1):
            reached = target is not None and entry.best_fitness <= target
            assert should_terminate(entry, criteria) == (length >= max_iterations or reached)


class TestShouldTerminate:
    def test_iteration_budget_reached(self):
        criteria = TerminationCriteria(max_iterations=100)
        assert should_terminate(TraceEntry(99, 1.0, 0), criteria)
        assert not should_terminate(TraceEntry(98, 1.0, 0), criteria)

    def test_target_reached_early(self):
        criteria = TerminationCriteria(max_iterations=100, target_fitness=1.0)
        assert should_terminate(TraceEntry(4, 0.5, 0), criteria)

    def test_neither_criterion_met(self):
        criteria = TerminationCriteria(max_iterations=100, target_fitness=1e-6)
        assert not should_terminate(TraceEntry(4, 0.5, 0), criteria)
