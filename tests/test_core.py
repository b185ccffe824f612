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

    def test_rejects_bounds_whose_span_overflows(self):
        # Each bound is finite, but upper - lower is not: initial positions would be inf.
        with pytest.raises(ConfigError, match=r"upper_bound - lower_bound overflows"):
            self._spec(lower_bound=np.array([-1.0, -1e308]), upper_bound=np.array([1.0, 1e308]))

    def test_accepts_the_widest_finite_span(self):
        half = np.finfo(float).max / 2
        spec = self._spec(lower_bound=np.full(2, -half), upper_bound=np.full(2, half))
        assert np.isfinite(spec.upper_bound - spec.lower_bound).all()


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
