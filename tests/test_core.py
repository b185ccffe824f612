"""Tests for random streams, objectives, traces, and termination."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmkit import (
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


class TestTerminationCriteria:
    def test_rejects_zero_max_iterations(self):
        with pytest.raises(ConfigError):
            TerminationCriteria(max_iterations=0)

    def test_minimal_criteria(self):
        criteria = TerminationCriteria(max_iterations=1)
        assert criteria.target_fitness is None


class TestRunTrace:
    def test_empty_trace_has_zero_evaluations(self):
        trace = RunTrace(seed=1)
        assert trace.evaluations == 0

    def test_best_fitness_requires_entries(self):
        with pytest.raises(ContractError):
            RunTrace(seed=1).best_fitness


class TestRecordIteration:
    def test_first_entry(self):
        trace = record_iteration(RunTrace(seed=0), 0, 3.5)
        assert trace.entries == (TraceEntry(0, 3.5, 0),)

    def test_monotone_floor_retains_previous_best(self):
        trace = record_iteration(RunTrace(seed=0), 0, 3.5)
        trace = record_iteration(trace, 1, 4.0)
        assert [e.best_fitness for e in trace.entries] == [3.5, 3.5]

    def test_improvement_is_recorded(self):
        trace = record_iteration(RunTrace(seed=0), 0, 3.5)
        trace = record_iteration(trace, 1, 1.0)
        assert [e.best_fitness for e in trace.entries] == [3.5, 1.0]

    def test_rejects_non_consecutive_iteration(self):
        trace = record_iteration(RunTrace(seed=0), 0, 3.5)
        with pytest.raises(ContractError):
            record_iteration(trace, 2, 1.0)
        with pytest.raises(ContractError):
            record_iteration(trace, 0, 1.0)
        with pytest.raises(ContractError):
            record_iteration(RunTrace(seed=0), 1, 1.0)

    def test_evaluations_carry_forward_when_omitted(self):
        trace = record_iteration(RunTrace(seed=0), 0, 3.5, evaluations=10)
        trace = record_iteration(trace, 1, 3.0)
        assert trace.entries[-1].evaluations == 10
        trace = record_iteration(trace, 2, 2.0, evaluations=30)
        assert trace.evaluations == 30

    def test_non_finite_best_never_improves(self):
        trace = record_iteration(RunTrace(seed=0), 0, 2.0)
        trace = record_iteration(trace, 1, math.nan)
        trace = record_iteration(trace, 2, math.inf)
        assert [e.best_fitness for e in trace.entries] == [2.0, 2.0, 2.0]

    def test_original_trace_is_not_mutated(self):
        trace = record_iteration(RunTrace(seed=0), 0, 3.5)
        record_iteration(trace, 1, 1.0)
        assert len(trace.entries) == 1

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_best_fitness_sequence_is_non_increasing(self, values):
        trace = RunTrace(seed=0)
        for i, value in enumerate(values):
            trace = record_iteration(trace, i, value)
        fits = [e.best_fitness for e in trace.entries]
        assert all(later <= earlier for earlier, later in zip(fits, fits[1:]))
        assert [e.iteration for e in trace.entries] == list(range(len(values)))


class TestShouldTerminate:
    def _trace_with(self, count, best):
        trace = RunTrace(seed=0)
        for i in range(count):
            trace = record_iteration(trace, i, best)
        return trace

    def test_iteration_budget_reached(self):
        trace = self._trace_with(100, 1.0)
        assert should_terminate(trace, TerminationCriteria(max_iterations=100))

    def test_target_reached_early(self):
        trace = self._trace_with(5, 0.5)
        criteria = TerminationCriteria(max_iterations=100, target_fitness=1.0)
        assert should_terminate(trace, criteria)

    def test_neither_criterion_met(self):
        trace = self._trace_with(5, 0.5)
        criteria = TerminationCriteria(max_iterations=100, target_fitness=1e-6)
        assert not should_terminate(trace, criteria)

    def test_empty_trace_without_target_continues(self):
        assert not should_terminate(RunTrace(seed=0), TerminationCriteria(max_iterations=1))

    def test_empty_trace_with_target_is_a_contract_violation(self):
        criteria = TerminationCriteria(max_iterations=10, target_fitness=1.0)
        with pytest.raises(ContractError):
            should_terminate(RunTrace(seed=0), criteria)
