"""Tests for benchmark functions, TSP instances, and the exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SPECIAL_FLOATS, UNIT_SQUARE_TEXT, assert_same_bits
from swarmkit import (
    BENCHMARK_NAMES,
    BRUTE_FORCE_MAX_NODES,
    ConfigError,
    TspInstance,
    benchmark,
    brute_force_tsp,
    derive_stream,
    enumerate_distinct_tours,
    load_tsp_instance,
    optimize_aco,
    random_tsp_instance,
    rastrigin,
    rosenbrock,
    serialize_tsp_instance,
    sphere,
    tour_length,
)
from swarmkit import AcoConfig, TerminationCriteria, problems


class TestSphere:
    def test_zero_at_origin(self):
        assert sphere(np.zeros(5)) == 0.0

    def test_hand_computed_value(self):
        assert sphere(np.array([1.0, 2.0])) == 5.0

    def test_single_dimension(self):
        assert sphere(np.array([3.0])) == 9.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
    def test_even_symmetry(self, values):
        x = np.array(values)
        assert sphere(x) == sphere(-x)


class TestRastrigin:
    def test_zero_at_origin(self):
        assert rastrigin(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        # 10*2 + (1 - 10*cos(2*pi)) + (1 - 10*cos(2*pi)) = 2
        assert rastrigin(np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-9)

    @given(st.lists(st.floats(-5.12, 5.12), min_size=1, max_size=6))
    def test_even_symmetry(self, values):
        x = np.array(values)
        assert rastrigin(x) == rastrigin(-x)


class TestRosenbrock:
    def test_zero_at_all_ones(self):
        assert rosenbrock(np.ones(4)) == 0.0

    def test_origin_value(self):
        assert rosenbrock(np.array([0.0, 0.0])) == 1.0

    def test_hand_computed_value(self):
        assert rosenbrock(np.array([1.0, 2.0])) == 100.0

    def test_rejects_single_dimension(self):
        with pytest.raises(ConfigError):
            rosenbrock(np.array([1.0]))


class TestReduceParity:
    """The objectives reduce with ``np.add.reduce(..., axis=None)`` in place of ``np.sum``."""

    @given(
        hnp.arrays(
            np.float64,
            st.one_of(
                st.just(()),
                hnp.array_shapes(min_dims=1, max_dims=1, max_side=300),
                hnp.array_shapes(min_dims=2, max_dims=2, max_side=20),
            ),
            elements=st.floats() | SPECIAL_FLOATS,
        )
    )
    def test_add_reduce_equals_sum(self, v):
        # Lengths past 128 reach the pairwise split inside numpy's sum loop.
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(np.add.reduce(v, axis=None), np.sum(v))

    @given(
        st.lists(st.floats(-1e3, 1e3) | SPECIAL_FLOATS, min_size=2, max_size=40)
        # Finite rows of 8 or more reach the unrolled accumulators of numpy's sum loop.
        | st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=40)
    )
    def test_objectives_equal_their_sum_forms(self, values):
        x = np.array(values)
        head, tail = x[:-1], x[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(sphere(x), float(np.sum(x * x)))
            assert_same_bits(
                rastrigin(x), float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))
            )
            assert_same_bits(
                rosenbrock(x),
                float(np.sum(100.0 * (tail - head * head) ** 2 + (1.0 - head) ** 2)),
            )


class TestBenchmark:
    def test_available_names(self):
        assert set(BENCHMARK_NAMES) == {"sphere", "rastrigin", "rosenbrock"}

    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "rosenbrock"])
    @pytest.mark.parametrize("dimension", [2, 3, 7])
    def test_known_optimum_identity(self, name, dimension):
        # Each name is wired to its own objective, which is 0 at its known optimum.
        spec = benchmark(name, dimension).spec
        assert spec.evaluate is getattr(problems, name)
        assert spec.dimension == dimension
        optimum = np.ones(dimension) if name == "rosenbrock" else np.zeros(dimension)
        assert spec.evaluate(optimum) == 0.0

    def test_bounds_follow_conventions(self):
        assert benchmark("sphere", 2).spec.upper_bound[0] == 5.12
        assert benchmark("rastrigin", 2).spec.lower_bound[0] == -5.12
        assert benchmark("rosenbrock", 2).spec.upper_bound[0] == 2.048

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            benchmark("ackley", 3)

    def test_rosenbrock_needs_two_dimensions(self):
        with pytest.raises(ConfigError):
            benchmark("rosenbrock", 1)
        benchmark("sphere", 1)  # fine for the others


# Coordinates whose nonzero differences all have normal squares, and any finite
# coordinates whose three-point tours stay below half the float maximum.
NORMAL_COORDINATES = st.floats(-1e100, 1e100).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
WIDE_COORDINATES = st.floats(-1e307, 1e307)


def unscaled_distances(coords: np.ndarray) -> np.ndarray:
    """The plain formula, exact only while no square leaves the normal range."""
    delta = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((delta**2).sum(axis=-1))


class TestTspInstanceConstruction:
    def test_unit_square_distances(self, unit_square):
        d = unit_square.graph.distance
        assert d[0, 1] == 1.0
        assert d[0, 2] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert np.array_equal(d, d.T)
        assert unit_square.n == 4

    def test_coordinates_shape_checked(self):
        with pytest.raises(ConfigError):
            TspInstance.from_coordinates("bad", np.zeros((4, 3)))

    @given(st.lists(st.tuples(NORMAL_COORDINATES, NORMAL_COORDINATES), min_size=3, unique=True))
    def test_scaling_keeps_the_bits_of_the_plain_formula(self, points):
        coords = np.array(points)
        distance = TspInstance.from_coordinates("normal", coords).graph.distance
        assert_same_bits(distance, unscaled_distances(coords))

    @given(
        st.lists(st.tuples(WIDE_COORDINATES, WIDE_COORDINATES), min_size=3, max_size=3, unique=True)
    )
    def test_distances_are_within_one_ulp_of_hypot(self, points):
        distance = TspInstance.from_coordinates("wide", points).graph.distance
        for i, (xi, yi) in enumerate(points):
            for j, (xj, yj) in enumerate(points):
                exact = math.hypot(xi - xj, yi - yj)
                assert abs(distance[i, j] - exact) <= math.ulp(exact)

    @pytest.mark.parametrize("gap", [5e-324, 1e-200, 3e-162, 1.4e154])
    def test_gaps_whose_squares_leave_the_float_range_load_exactly(self, gap):
        # Unscaled, the first two read as 0, the third as 3.1434555694052576e-162, the last as inf.
        instance = TspInstance.from_coordinates("gap", [(0.0, 0.0), (gap, 0.0), (0.0, 2 * gap)])
        assert instance.graph.distance[0, 1] == gap
        assert instance.graph.distance[0, 2] == 2 * gap


class TestLoadTspInstance:
    def test_parses_unit_square(self):
        instance = load_tsp_instance(UNIT_SQUARE_TEXT, name="square")
        assert instance.n == 4
        assert instance.name == "square"
        assert instance.graph.distance[0, 2] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        # 6 distinct pairwise distances for 4 nodes
        assert (instance.graph.distance > 0).sum() == 12

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n3\n# mid comment\n0 0.0 0.0\n\n1 0.0 1.0\n2 1.0 0.0\n# tail\n"
        assert load_tsp_instance(text).n == 3

    def test_trailing_newline_optional(self):
        text = "3\n0 0.0 0.0\n1 0.0 1.0\n2 1.0 0.0"
        assert load_tsp_instance(text).n == 3

    def test_two_cities_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 1: n < 3"):
            load_tsp_instance("2\n0 0.0 0.0\n1 1.0 1.0\n")

    def test_bad_node_count_line(self):
        with pytest.raises(ConfigError, match="line 2: expected node count"):
            load_tsp_instance("# c\nfour\n")

    def test_malformed_point_line(self):
        with pytest.raises(ConfigError, match="line 3: malformed point line"):
            load_tsp_instance("3\n0 0.0 0.0\n1 oops 1.0\n2 1.0 0.0\n")

    def test_wrong_token_count(self):
        with pytest.raises(ConfigError, match="line 2: expected 'index x y'"):
            load_tsp_instance("3\n0 0.0\n1 0.0 1.0\n2 1.0 0.0\n")

    def test_duplicate_index(self):
        with pytest.raises(ConfigError, match="line 3: duplicate point index 0"):
            load_tsp_instance("3\n0 0.0 0.0\n0 0.0 1.0\n2 1.0 0.0\n")

    def test_non_consecutive_index(self):
        with pytest.raises(ConfigError, match="line 3: expected index 1, got 2"):
            load_tsp_instance("3\n0 0.0 0.0\n2 0.0 1.0\n1 1.0 0.0\n")

    def test_negative_index(self):
        # Below every index read so far, yet not a duplicate.
        with pytest.raises(ConfigError, match="line 3: expected index 1, got -1"):
            load_tsp_instance("3\n0 0.0 0.0\n-1 0.0 1.0\n2 1.0 0.0\n")

    def test_too_many_points(self):
        with pytest.raises(ConfigError, match="more than 3 point lines"):
            load_tsp_instance("3\n0 0.0 0.0\n1 0.0 1.0\n2 1.0 0.0\n3 2.0 2.0\n")

    def test_too_few_points(self):
        with pytest.raises(ConfigError, match="expected 3 points, found 2"):
            load_tsp_instance("3\n0 0.0 0.0\n1 0.0 1.0\n")

    def test_empty_text(self):
        with pytest.raises(ConfigError, match="no node count"):
            load_tsp_instance("# only comments\n")


class TestSerializeRoundTrip:
    def test_round_trip_unit_square(self, unit_square):
        text = serialize_tsp_instance(unit_square)
        again = load_tsp_instance(text, name=unit_square.name)
        assert np.array_equal(again.coordinates, unit_square.coordinates)
        assert np.array_equal(again.graph.distance, unit_square.graph.distance)

    @given(st.integers(3, 10), st.integers(0, 2**32 - 1))
    def test_round_trip_random_instances(self, n, seed):
        instance = random_tsp_instance(n, derive_stream(seed, 0))
        again = load_tsp_instance(serialize_tsp_instance(instance))
        assert np.array_equal(again.coordinates, instance.coordinates)


class TestRandomTspInstance:
    def test_deterministic_per_seed(self):
        a = random_tsp_instance(8, derive_stream(1, 0))
        b = random_tsp_instance(8, derive_stream(1, 0))
        assert np.array_equal(a.coordinates, b.coordinates)

    def test_coordinates_in_unit_square(self):
        instance = random_tsp_instance(20, derive_stream(3, 0))
        assert (instance.coordinates >= 0.0).all()
        assert (instance.coordinates < 1.0).all()

    def test_graph_invariants_hold(self):
        instance = random_tsp_instance(6, derive_stream(4, 0))
        d = instance.graph.distance
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0.0).all()

    def test_rejects_small_n(self):
        with pytest.raises(ConfigError):
            random_tsp_instance(2, derive_stream(0, 0))


class TestEnumerateDistinctTours:
    def test_counts(self):
        assert len(list(enumerate_distinct_tours(3))) == 1
        assert len(list(enumerate_distinct_tours(4))) == 3
        assert len(list(enumerate_distinct_tours(5))) == 12  # (5-1)!/2

    def test_all_start_at_node_zero_and_are_permutations(self):
        for tour in enumerate_distinct_tours(5):
            assert tour[0] == 0
            assert sorted(tour) == list(range(5))

    def test_no_direction_duplicates(self):
        tours = set(enumerate_distinct_tours(6))
        for tour in tours:
            reversed_form = (0,) + tuple(reversed(tour[1:]))
            assert reversed_form not in tours or reversed_form == tour


class TestBruteForceTsp:
    def test_triangle_any_order(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        instance = TspInstance.from_coordinates("triangle", coords)
        tour = brute_force_tsp(instance)
        assert tour.order == (0, 1, 2)
        assert tour.length == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)

    def test_unit_square_perimeter(self, unit_square):
        tour = brute_force_tsp(unit_square)
        assert tour.length == 4.0
        assert tour.order == (0, 1, 2, 3)

    def test_tie_breaks_to_lexicographically_smallest(self):
        # Collinear points: tours (0,1,2,3) and (0,1,3,2) both have length 6;
        # the lexicographically smaller order must win.
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        instance = TspInstance.from_coordinates("line", coords)
        tour = brute_force_tsp(instance)
        assert tour.length == 6.0
        assert tour.order == (0, 1, 2, 3)

    def test_oracle_never_beaten_by_any_enumerated_tour(self):
        instance = random_tsp_instance(7, derive_stream(21, 0))
        oracle = brute_force_tsp(instance)
        for order in enumerate_distinct_tours(7):
            assert oracle.length <= tour_length(instance.graph, order) + 1e-12

    def test_oracle_never_beaten_by_the_colony(self):
        instance = random_tsp_instance(6, derive_stream(31, 0))
        oracle = brute_force_tsp(instance)
        config = AcoConfig(termination=TerminationCriteria(max_iterations=15), num_ants=6)
        best, _ = optimize_aco(instance.graph, config, seed=2)
        assert best.length >= oracle.length - 1e-9

    def test_refuses_large_instances(self):
        coords = np.arange(24.0).reshape(12, 2)
        instance = TspInstance.from_coordinates("big", coords)
        assert instance.n > BRUTE_FORCE_MAX_NODES
        with pytest.raises(ConfigError, match="exceeds the limit"):
            brute_force_tsp(instance)

    def test_limit_is_eleven(self):
        assert BRUTE_FORCE_MAX_NODES == 11
