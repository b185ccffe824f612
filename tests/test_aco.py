"""Tests for the ant colony engine."""

import dataclasses
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import engine_reference
from conftest import ForcedStream, assert_same_bits
from swarmkit import aco
from swarmkit import (
    AcoConfig,
    ConfigError,
    ContractError,
    DistanceGraph,
    PheromoneMatrix,
    TerminationCriteria,
    Tour,
    construct_tour,
    deposit,
    derive_stream,
    evaporate,
    initialize_pheromones,
    optimize_aco,
    random_tsp_instance,
    tour_length,
    transition_probabilities,
    transition_weights,
)


def triangle_graph(scale=1.0):
    d = scale * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return DistanceGraph(d)


def aco_config(**kwargs):
    kwargs.setdefault("termination", TerminationCriteria(max_iterations=5))
    return AcoConfig(**kwargs)


@pytest.fixture
def square_graph(unit_square):
    return unit_square.graph


class TestDistanceGraph:
    def test_valid_graph(self):
        graph = triangle_graph()
        assert graph.n == 3
        assert graph.distance[0, 1] == 1.0

    def test_matrix_becomes_read_only(self):
        graph = triangle_graph()
        with pytest.raises(ValueError):
            graph.distance[0, 1] = 5.0

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((3, 2)), "distance matrix must be square, got shape (3, 2)"),
            (np.zeros((2, 2)), "graph needs at least 3 nodes, got 2"),
            (
                [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.1, 0.0]],
                "distance matrix must be symmetric",
            ),
            (
                [[0.0, 1.0, 2.0], [1.0, 0.0, -3.0], [2.0, -3.0, 0.0]],
                "off-diagonal distances must be strictly positive",
            ),
            (
                [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                "off-diagonal distances must be strictly positive",
            ),
            (
                [[0.5, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]],
                "diagonal distances must be zero",
            ),
            (
                [[0.0, 1.0, np.inf], [1.0, 0.0, 3.0], [np.inf, 3.0, 0.0]],
                "distances must be finite",
            ),
            (
                [[0.0, 1.0, 3e307], [1.0, 0.0, 3e307], [3e307, 3e307, 0.0]],
                "distances too large for a finite tour length: n * max distance must be at most "
                "8.988465674311579e+307, got 3 * 3e+307",
            ),
        ],
        ids=[f"matrix{i}" for i in range(8)],
    )
    def test_rejects_invalid_matrices(self, matrix, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DistanceGraph(np.array(matrix, dtype=float))


class TestPheromoneMatrix:
    def test_valid_matrix(self):
        tau = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert PheromoneMatrix(tau).n == 2

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((2, 3)), "pheromone matrix must be square, got shape (2, 3)"),
            ([[0.0, 1.0], [2.0, 0.0]], "pheromone matrix must be symmetric"),
            ([[0.0, np.nan], [np.nan, 0.0]], "pheromone levels must be finite"),
            ([[0.0, -0.5], [-0.5, 0.0]], "pheromone levels must be non-negative"),
        ],
        ids=[f"matrix{i}" for i in range(4)],
    )
    def test_rejects_invalid_matrices(self, matrix, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PheromoneMatrix(np.array(matrix, dtype=float))


class TestAcoConfig:
    def test_defaults(self):
        config = aco_config()
        assert (config.alpha, config.beta) == (1.0, 2.0)
        assert (config.rho, config.q, config.tau0) == (0.5, 1.0, 1.0)
        assert config.tau_floor == 1e-12
        assert config.num_ants is None

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_rho_bounds_error_names_the_range(self, rho):
        with pytest.raises(ConfigError, match=r"rho out of \[0,1\]"):
            aco_config(rho=rho)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_ants=0),
            dict(alpha=-1.0),
            dict(beta=-0.5),
            dict(q=0.0),
            dict(q=-1.0),
            dict(tau_floor=0.0),
            dict(tau0=1e-13),
        ],
    )
    def test_rejects_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            aco_config(**kwargs)


class TestInitializePheromones:
    def test_uniform_assignment(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config(tau0=1.0))
        off_diag = ~np.eye(4, dtype=bool)
        assert (pheromones.tau[off_diag] == 1.0).all()
        assert (np.diag(pheromones.tau) == 0.0).all()

    def test_symmetric(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config(tau0=2.5))
        assert np.array_equal(pheromones.tau, pheromones.tau.T)

    def test_tau0_below_floor_is_a_configuration_error(self):
        with pytest.raises(ConfigError):
            aco_config(tau0=1e-13, tau_floor=1e-12)


class TestTransitionProbabilities:
    def test_overflowing_weight_sum_is_a_contract_error(self, square_graph):
        config = overflowing_sum_config()
        pheromones = initialize_pheromones(square_graph, config)
        with pytest.raises(ContractError, match="transition weights from node 0 sum to inf"):
            transition_probabilities(square_graph, pheromones, 0, set(), config)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # a read-only graph
    @given(
        st.lists(
            st.sampled_from([-0.5, -5e-324, -0.0, 0.0, 5e-324, 1.0]) | st.floats(-2.0, 2.0),
            min_size=6,
            max_size=6,
        ),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        st.integers(0, 3),
    )
    # tau[0, 1] = -0.5 on the unit square: the weights from node 0 are [-0.5, 0.5, 1.0].
    @example(levels=[-0.5, 1.0, 1.0, 1.0, 1.0, 1.0], alpha=1.0, current=0)
    def test_accepted_pheromones_give_a_distribution(self, square_graph, levels, alpha, current):
        tau = np.zeros((4, 4))
        tau[np.triu_indices(4, 1)] = levels
        try:
            pheromones = PheromoneMatrix(tau + tau.T)
        except ConfigError:
            return
        try:
            probs = transition_probabilities(
                square_graph, pheromones, current, [], aco_config(alpha=alpha)
            )
        except ContractError:
            return
        assert (probs >= 0.0).all()
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_uniform_tau_and_distance_gives_uniform_probabilities(self):
        d = np.ones((4, 4)) - np.eye(4)
        graph = DistanceGraph(d)
        pheromones = initialize_pheromones(graph, aco_config())
        probs = transition_probabilities(graph, pheromones, 0, set(), aco_config())
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)

    def test_pheromone_ratio_two_to_one(self):
        # Candidates carry tau 2 and 1 at equal distance with beta=0, so the
        # probabilities normalize to exactly (2/3, 1/3).
        d = np.ones((3, 3)) - np.eye(3)
        graph = DistanceGraph(d)
        tau = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        probs = transition_probabilities(
            graph, PheromoneMatrix(tau), 0, set(), aco_config(alpha=1.0, beta=0.0)
        )
        assert probs[0] == 2.0 / 3.0
        assert probs[1] == 1.0 / 3.0

    def test_single_remaining_candidate_is_forced(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        probs = transition_probabilities(square_graph, pheromones, 0, {1, 2}, aco_config())
        assert probs.shape == (1,)
        assert probs[0] == 1.0

    def test_all_visited_is_a_contract_violation(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError):
            transition_probabilities(square_graph, pheromones, 0, {1, 2, 3}, aco_config())

    def test_current_out_of_range_rejected(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError):
            transition_probabilities(square_graph, pheromones, 9, set(), aco_config())

    def test_visited_out_of_range_rejected(self, square_graph):
        # Silently ignored before: three equal probabilities came back.
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError, match=r"visited node 7 out of range \[0, 4\)"):
            transition_probabilities(square_graph, pheromones, 0, [7, -1], aco_config())

    def test_non_integer_visited_rejected(self, square_graph):
        # A float is neither truncated to a node index nor ignored.
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError, match="visited node must be an integer, got 1.0"):
            transition_probabilities(square_graph, pheromones, 0, [1.0], aco_config())

    @pytest.mark.parametrize(
        "visited, line",
        [
            ([2**70], f"visited node {2**70} out of range [0, 4)"),
            ([np.uint64(2**63)], f"visited node {2**63} out of range [0, 4)"),
            ([1.0], "visited node must be an integer, got 1.0"),
            ([-1], "visited node -1 out of range [0, 4)"),
        ],
        ids=["2**70", "uint64-2**63", "float", "negative"],
    )
    def test_visited_nodes_pass_the_node_rule(self, square_graph, visited, line):
        # An out-of-range integer is named as out of range, not as a non-integer.
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError) as raised:
            transition_probabilities(square_graph, pheromones, 0, visited, aco_config())
        assert str(raised.value) == line

    def test_zero_exponents_give_uniform_probabilities(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(4, 8)
            instance = random_tsp_instance(n, derive_stream(rng.randint(0, 2**32), 0))
            tau = np.full((n, n), rng.uniform(0.1, 5.0))
            np.fill_diagonal(tau, 0.0)
            current = rng.randrange(n)
            visited = set(rng.sample([j for j in range(n) if j != current], rng.randint(0, n - 2)))
            probs = transition_probabilities(
                instance.graph,
                PheromoneMatrix(tau),
                current,
                visited,
                aco_config(alpha=0.0, beta=0.0),
            )
            expected = 1.0 / (n - 1 - len(visited))
            assert probs == pytest.approx([expected] * len(probs), rel=1e-12)

    def test_heuristic_prefers_short_edges(self):
        d = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        graph = DistanceGraph(d)
        pheromones = initialize_pheromones(graph, aco_config())
        probs = transition_probabilities(
            graph, pheromones, 0, set(), aco_config(alpha=1.0, beta=2.0)
        )
        # eta^2 weights are 1 and 1/16
        assert probs[0] == pytest.approx(16 / 17, rel=1e-12)
        assert probs[1] == pytest.approx(1 / 17, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weights_raise_instead_of_sampling_nan(self):
        # Some eta**400 overflow to inf, so the unchecked probabilities were [0, nan, ...].
        graph = random_tsp_instance(8, derive_stream(100, 0)).graph
        with pytest.raises(ContractError, match="transition weights from node 0 sum to inf"):
            optimize_aco(graph, aco_config(beta=400.0), seed=1)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_weights_raise_instead_of_dividing_by_zero(self):
        graph = triangle_graph(scale=1e10)
        pheromones = initialize_pheromones(graph, aco_config())
        with pytest.raises(ContractError, match="sum to 0.0"):
            transition_probabilities(graph, pheromones, 0, set(), aco_config(beta=40.0))


class TestTransitionWeights:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 40),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0),
        st.data(),
    )
    def test_table_cells_equal_the_rule_on_a_gathered_row(self, seed, n, alpha, beta, data):
        # The table is bit-exact only if ** on the full matrix gives each cell
        # the value it gets on a gathered candidate row.
        rng = np.random.default_rng(seed)
        raw_tau = 10.0 ** rng.uniform(-12.0, 3.0, (n, n))
        raw_d = rng.uniform(0.01, 100.0, (n, n))
        tau, d = raw_tau + raw_tau.T, raw_d + raw_d.T
        np.fill_diagonal(tau, 0.0)
        np.fill_diagonal(d, 0.0)
        current = data.draw(st.integers(0, n - 1))
        others = [j for j in range(n) if j != current]
        candidates = sorted(data.draw(st.sets(st.sampled_from(others), min_size=1)))

        table = transition_weights(
            DistanceGraph(d), PheromoneMatrix(tau), aco_config(alpha=alpha, beta=beta)
        )
        row = table[current, candidates]
        expected = tau[current, candidates] ** alpha * (1.0 / d[current, candidates]) ** beta
        assert np.array_equal(row, expected)
        assert row.sum() == expected.sum()
        assert (np.diag(table) == 0.0).all()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 40),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.3]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.3]) | st.floats(0.0, 400.0),
        st.sampled_from([0.0, 95.0, -95.0]),
        st.data(),
    )
    def test_probabilities_come_from_the_table_row(self, seed, n, alpha, beta, decade, data):
        # transition_probabilities must give the probabilities of the table's
        # row ``current``, or the same over- or underflow error; distances far
        # from 1 make tau**alpha * (1/d)**beta overflow or underflow on some rows.
        rng = np.random.default_rng(seed)
        graph = DistanceGraph(random_symmetric(rng, n, decade - 2, decade + 2))
        pheromones = PheromoneMatrix(random_symmetric(rng, n, -12.0, np.log10(5.0)))
        config = aco_config(alpha=alpha, beta=beta)
        current = data.draw(st.integers(0, n - 1), label="current")
        others = [j for j in range(n) if j != current]
        visited = data.draw(st.lists(st.sampled_from(others), max_size=n - 2, unique=True))
        free = np.ones(n, dtype=bool)
        free[[*visited, current]] = False

        table_row = transition_weights(graph, pheromones, config)[current]
        outcomes = []
        for compute in (
            lambda: transition_probabilities(graph, pheromones, current, visited, config),
            lambda: aco._move(table_row, free, current, config),
        ):
            try:
                outcomes.append(compute().tolist())
            except ContractError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    def test_pheromone_diagonal_is_ignored(self, square_graph):
        config = aco_config(alpha=1.5)
        pheromones = initialize_pheromones(square_graph, config)
        tau = pheromones.tau.copy()
        np.fill_diagonal(tau, [7.0, 0.5, 1e300, 3.0])
        after = transition_weights(square_graph, PheromoneMatrix(tau), config)
        assert np.array_equal(after, transition_weights(square_graph, pheromones, config))

    def test_pheromones_for_another_graph_rejected(self, square_graph):
        graph = random_tsp_instance(5, derive_stream(3, 0)).graph
        pheromones = initialize_pheromones(square_graph, aco_config())
        for call in (
            lambda: transition_weights(graph, pheromones, aco_config()),
            lambda: transition_probabilities(graph, pheromones, 0, set(), aco_config()),
        ):
            with pytest.raises(ContractError, match="pheromones cover 4 nodes, the graph 5"):
                call()


def overflowing_sum_config():
    """tau0 near the float maximum: on the unit square each weight from node 0 is
    finite, but the three of them sum past the float range."""
    return aco_config(tau0=1e308)


class TestConstructTour:
    def test_overflowing_weight_sum_is_a_contract_error(self, square_graph):
        # pytest turns RuntimeWarning into an error, so a numpy overflow warning
        # from the sum would surface here instead of the ContractError.
        config = overflowing_sum_config()
        pheromones = initialize_pheromones(square_graph, config)
        weights = transition_weights(square_graph, pheromones, config)
        assert np.isfinite(weights).all()
        with pytest.raises(ContractError, match="transition weights from node 0 sum to inf"):
            construct_tour(square_graph, weights, config, derive_stream(0, 1), start=0)

    def test_output_is_a_permutation(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        weights = transition_weights(square_graph, pheromones, aco_config())
        for seed in range(5):
            tour = construct_tour(
                square_graph, weights, aco_config(), derive_stream(seed, 1), start=seed % 4
            )
            assert sorted(tour.order) == [0, 1, 2, 3]
            assert tour.order[0] == seed % 4

    def test_deterministic_given_stream_and_start(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        weights = transition_weights(square_graph, pheromones, aco_config())
        a = construct_tour(square_graph, weights, aco_config(), derive_stream(7, 1), start=2)
        b = construct_tour(square_graph, weights, aco_config(), derive_stream(7, 1), start=2)
        assert a == b

    def test_consumes_exactly_n_minus_1_draws(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        weights = transition_weights(square_graph, pheromones, aco_config())
        stream = ForcedStream([0.3, 0.6, 0.9, 0.1])
        construct_tour(square_graph, weights, aco_config(), stream, start=0)
        assert stream.remaining == 1

    def test_stored_length_matches_recomputation(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        weights = transition_weights(square_graph, pheromones, aco_config())
        tour = construct_tour(square_graph, weights, aco_config(), derive_stream(3, 1), start=1)
        assert tour.length == tour_length(square_graph, tour.order)

    def test_heavily_biased_pheromones_fix_the_tour(self, square_graph):
        # tau of 1e6 along the path 0-1-2-3 with beta=0: the step
        # probabilities multiply to (1e6/(1e6+2)) * (1e6/(1e6+1)) > 0.999.
        tau = np.ones((4, 4)) - np.eye(4)
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            tau[a, b] = tau[b, a] = 1e6
        pheromones = PheromoneMatrix(tau)
        config = aco_config(alpha=1.0, beta=0.0)

        p_first = transition_probabilities(square_graph, pheromones, 0, set(), config)[0]
        p_second = transition_probabilities(square_graph, pheromones, 1, {0}, config)[0]
        assert p_first == 1e6 / (1e6 + 2.0)
        assert p_second == 1e6 / (1e6 + 1.0)
        assert p_first * p_second > 0.999

        weights = transition_weights(square_graph, pheromones, config)
        tour = construct_tour(square_graph, weights, config, derive_stream(0, 1), start=0)
        assert tour.order == (0, 1, 2, 3)

    def test_inverse_cdf_picks_candidates_in_ascending_node_order(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        config = aco_config(alpha=1.0, beta=0.0)  # uniform probabilities 1/3
        weights = transition_weights(square_graph, pheromones, config)
        # From node 0 candidates are (1, 2, 3); u=0.01 -> 1, u=0.5 -> 2, u=0.99 -> 3.
        for u, expected in [(0.01, 1), (0.5, 2), (0.99, 3)]:
            tour = construct_tour(
                square_graph, weights, config, ForcedStream([u, 0.0, 0.0]), start=0
            )
            assert tour.order[1] == expected

    def test_draw_on_the_last_cumulative_edge_is_safe(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        config = aco_config(alpha=1.0, beta=0.0)
        weights = transition_weights(square_graph, pheromones, config)
        tour = construct_tour(
            square_graph, weights, config, ForcedStream([0.999999999, 0.99, 0.5]), start=0
        )
        assert sorted(tour.order) == [0, 1, 2, 3]

    def test_start_out_of_range_rejected(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        weights = transition_weights(square_graph, pheromones, aco_config())
        with pytest.raises(ContractError):
            construct_tour(square_graph, weights, aco_config(), derive_stream(0, 1), start=4)

    def test_non_integer_nodes_are_refused_by_name(self, square_graph):
        # A float start raised a bare TypeError, and a float current was blamed on visited.
        config = aco_config()
        pheromones = initialize_pheromones(square_graph, config)
        weights = transition_weights(square_graph, pheromones, config)
        with pytest.raises(ContractError, match=r"^start node must be an integer, got 2\.5$"):
            construct_tour(square_graph, weights, config, derive_stream(0, 1), start=2.5)
        with pytest.raises(ContractError, match=r"^current node must be an integer, got 2\.5$"):
            transition_probabilities(square_graph, pheromones, 2.5, [0], config)
        tour = construct_tour(square_graph, weights, config, derive_stream(0, 1), start=np.int64(2))
        assert tour == construct_tour(square_graph, weights, config, derive_stream(0, 1), start=2)
        probs = [
            transition_probabilities(square_graph, pheromones, current, visited, config).tolist()
            for current, visited in ((np.int64(2), [np.int64(0)]), (2, [0]))
        ]
        assert probs[0] == probs[1]

    def test_table_of_the_wrong_shape_rejected(self, square_graph):
        # A triangle's table, and the pheromone matrix itself as the old signature took it.
        triangle = triangle_graph()
        config = aco_config()
        small = transition_weights(triangle, initialize_pheromones(triangle, config), config)
        pheromones = initialize_pheromones(square_graph, config)
        for weights in (small, pheromones):
            with pytest.raises(ContractError, match="weights must have shape"):
                construct_tour(square_graph, weights, config, derive_stream(0, 1), start=0)


class TestTourLength:
    def test_triangle_perimeter(self):
        graph = triangle_graph()
        assert tour_length(graph, (0, 1, 2)) == 3.0
        assert tour_length(graph, (2, 0, 1)) == 3.0

    def test_unit_square_perimeter(self, square_graph):
        assert tour_length(square_graph, (0, 1, 2, 3)) == 4.0

    def test_unit_square_diagonal_order(self, square_graph):
        # (0,0) -> (1,1) -> (0,1) -> (1,0): two diagonals and two unit edges.
        expected = 2.0 + 2.0 * math.sqrt(2.0)
        assert tour_length(square_graph, (0, 2, 1, 3)) == pytest.approx(expected, rel=1e-12)

    def test_any_iterable_of_nodes_is_accepted(self, square_graph):
        for order in ([0, 1, 2, 3], iter((0, 1, 2, 3)), (j for j in range(4)), np.arange(4)):
            assert tour_length(square_graph, order) == 4.0

    @pytest.mark.parametrize(
        "order",
        [(0, 1), (0, 1, 2, 2), (0, 1, 2, 4), (0, 1, 1, 2), (0, 1, 2, -1), (0.0, 1.0, 2.0, 3.0), ()],
    )
    def test_non_permutations_rejected(self, square_graph, order):
        with pytest.raises(ContractError):
            tour_length(square_graph, order)


class TestEvaporate:
    def test_rho_zero_is_identity(self, square_graph):
        config = aco_config(rho=0.0)
        pheromones = initialize_pheromones(square_graph, config)
        after = evaporate(pheromones, config)
        assert np.array_equal(after.tau, pheromones.tau)

    def test_rho_one_floors_every_edge(self, square_graph):
        config = aco_config(rho=1.0)
        pheromones = initialize_pheromones(square_graph, config)
        after = evaporate(pheromones, config)
        off_diag = ~np.eye(4, dtype=bool)
        assert (after.tau[off_diag] == config.tau_floor).all()

    def test_quarter_evaporation(self, square_graph):
        config = aco_config(rho=0.25, tau0=2.0)
        pheromones = initialize_pheromones(square_graph, config)
        after = evaporate(pheromones, config)
        off_diag = ~np.eye(4, dtype=bool)
        assert (after.tau[off_diag] == 1.5).all()

    def test_floor_engages_for_tiny_values(self, square_graph):
        config = aco_config(rho=0.9, tau0=1e-11, tau_floor=1e-12)
        pheromones = initialize_pheromones(square_graph, config)
        after = evaporate(evaporate(pheromones, config), config)
        off_diag = ~np.eye(4, dtype=bool)
        assert (after.tau[off_diag] == 1e-12).all()

    def test_preserves_symmetry_and_zero_diagonal(self, square_graph):
        config = aco_config(rho=0.3)
        after = evaporate(initialize_pheromones(square_graph, config), config)
        assert np.array_equal(after.tau, after.tau.T)
        assert (np.diag(after.tau) == 0.0).all()


class TestDeposit:
    def test_empty_tour_list_is_identity(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        after = deposit(pheromones, [], aco_config())
        assert np.array_equal(after.tau, pheromones.tau)

    def test_single_tour_gains_q_over_length(self, square_graph):
        config = aco_config(q=1.0)
        pheromones = initialize_pheromones(square_graph, config)
        tour = Tour(order=(0, 1, 2, 3), length=4.0)
        after = deposit(pheromones, [tour], config)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            assert after.tau[a, b] == 1.25
            assert after.tau[b, a] == 1.25
        assert after.tau[0, 2] == 1.0
        assert after.tau[1, 3] == 1.0

    def test_multiple_tours_accumulate(self, square_graph):
        config = aco_config(q=2.0)
        pheromones = initialize_pheromones(square_graph, config)
        tours = [Tour((0, 1, 2, 3), 4.0), Tour((0, 2, 1, 3), 2.0 + 2.0 * math.sqrt(2.0))]
        after = deposit(pheromones, tours, config)
        gain_a, gain_b = 2.0 / tours[0].length, 2.0 / tours[1].length
        assert after.tau[0, 1] == 1.0 + gain_a  # edge only in the first tour
        assert after.tau[2, 1] == 1.0 + gain_a + gain_b  # shared edge
        assert np.array_equal(after.tau, after.tau.T)

    def test_shorter_tours_deposit_more(self, square_graph):
        config = aco_config()
        pheromones = initialize_pheromones(square_graph, config)
        short = deposit(pheromones, [Tour((0, 1, 2, 3), 4.0)], config)
        long = deposit(pheromones, [Tour((0, 1, 2, 3), 8.0)], config)
        assert short.tau[0, 1] > long.tau[0, 1]

    def test_nonpositive_length_rejected(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError):
            deposit(pheromones, [Tour((0, 1, 2, 3), 0.0)], aco_config())

    @pytest.mark.parametrize(
        "tour",
        [
            Tour((0, 1, 2), 3.0),  # deposited silently before
            Tour((0, 1, 2, -1), 4.0),  # -1 wrapped to node 3
            Tour((0, 1, 2, 5), 4.0),  # a bare IndexError
        ],
    )
    def test_non_permutation_tours_rejected(self, square_graph, tour):
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError, match="order must visit every node exactly once"):
            deposit(pheromones, [Tour((0, 1, 2, 3), 4.0), tour], aco_config())

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, square_graph, length):
        # API misuse: a ContractError, not PheromoneMatrix's ConfigError (NaN) or a no-op (inf).
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ContractError, match="tour length must be finite and positive"):
            deposit(pheromones, [Tour((0, 1, 2, 3), length)], aco_config())

    def test_overflowing_gain_fails_without_a_floating_point_warning(self, square_graph):
        # q / 1e-320 overflows to inf; the one error must not follow a RuntimeWarning.
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ValueError, match="pheromone levels must be finite"):
            deposit(pheromones, [Tour((0, 1, 2, 3), 1e-320)], aco_config())

    def test_overflowing_sum_fails_without_a_floating_point_warning(self, square_graph):
        # Two finite gains of 1e308 on one edge sum to inf, inside np.add.at.
        pheromones = initialize_pheromones(square_graph, aco_config())
        with pytest.raises(ValueError, match="pheromone levels must be finite"):
            deposit(pheromones, [Tour((0, 1, 2, 3), 1.0)] * 2, aco_config(q=1e308))

    def test_input_matrix_is_not_mutated(self, square_graph):
        pheromones = initialize_pheromones(square_graph, aco_config())
        before = pheromones.tau.copy()
        deposit(pheromones, [Tour((0, 1, 2, 3), 4.0)], aco_config())
        assert np.array_equal(pheromones.tau, before)

    def test_working_memory_does_not_grow_with_the_number_of_tours(self):
        graph = random_tsp_instance(50, derive_stream(25, 0)).graph
        config = aco_config()
        pheromones = initialize_pheromones(graph, config)
        weights = transition_weights(graph, pheromones, config)
        tours = [
            construct_tour(graph, weights, config, derive_stream(25, 1 + k), start=k % 50)
            for k in range(400)
        ]

        def peak(colony):
            tracemalloc.start()
            try:
                deposit(pheromones, colony, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(tours) - peak(tours[:1]) < 16 * 1024


class TestOptimizeAco:
    def test_best_length_is_non_increasing(self, square_graph):
        config = aco_config(termination=TerminationCriteria(max_iterations=30), num_ants=4)
        _, trace = optimize_aco(square_graph, config, seed=5)
        fits = [e.best_fitness for e in trace.entries]
        assert all(b <= a for a, b in zip(fits, fits[1:]))

    def test_unit_square_reaches_perimeter(self, square_graph):
        config = aco_config(termination=TerminationCriteria(max_iterations=50), num_ants=8)
        best, _ = optimize_aco(square_graph, config, seed=1)
        assert best.length == pytest.approx(4.0, abs=1e-9)

    def test_full_run_determinism(self, square_graph):
        config = aco_config(termination=TerminationCriteria(max_iterations=20), num_ants=5)
        best_a, trace_a = optimize_aco(square_graph, config, seed=9)
        best_b, trace_b = optimize_aco(square_graph, config, seed=9)
        assert best_a == best_b
        assert trace_a == trace_b

    def test_round_robin_start_nodes_cover_the_graph(self):
        # num_ants > n wraps around: ant k starts at node k mod n. With one
        # ant the first constructed tour must match a direct construction
        # from the same derived stream starting at node 0.
        instance = random_tsp_instance(5, derive_stream(8, 0))
        config = aco_config(termination=TerminationCriteria(max_iterations=1), num_ants=1)
        best, _ = optimize_aco(instance.graph, config, seed=77)
        pheromones = initialize_pheromones(instance.graph, config)
        expected = construct_tour(
            instance.graph,
            transition_weights(instance.graph, pheromones, config),
            config,
            derive_stream(77, 1),
            start=0,
        )
        assert best == expected

    def test_num_ants_defaults_to_node_count(self, square_graph):
        config = aco_config(termination=TerminationCriteria(max_iterations=3))
        _, trace = optimize_aco(square_graph, config, seed=2)
        assert trace.evaluations == 4 * 3
        assert [e.evaluations for e in trace.entries] == [4, 8, 12]

    def test_pheromones_stay_floored_symmetric_and_finite(self):
        instance = random_tsp_instance(5, derive_stream(14, 0))
        config = aco_config(
            termination=TerminationCriteria(max_iterations=25), num_ants=3, rho=0.95
        )
        with mock.patch.object(aco, "deposit", wraps=aco.deposit) as spy:
            optimize_aco(instance.graph, config, seed=3)
        assert spy.call_count == 25
        pheromones = aco.deposit(*spy.call_args.args)  # the run's last deposit, replayed
        off_diag = ~np.eye(5, dtype=bool)
        assert (pheromones.tau[off_diag] >= config.tau_floor).all()
        assert np.isfinite(pheromones.tau).all()
        assert np.array_equal(pheromones.tau, pheromones.tau.T)

    def test_target_fitness_stops_early(self, square_graph):
        config = aco_config(
            termination=TerminationCriteria(max_iterations=500, target_fitness=4.0),
            num_ants=8,
        )
        best, trace = optimize_aco(square_graph, config, seed=1)
        assert best.length <= 4.0 + 1e-9
        assert len(trace.entries) < 500

    def test_on_iteration_callback_streams_every_entry(self, square_graph):
        config = aco_config(termination=TerminationCriteria(max_iterations=7), num_ants=2)
        seen = []
        _, trace = optimize_aco(square_graph, config, seed=4, on_iteration=seen.append)
        assert seen == list(trace.entries)

    def test_single_iteration_trace(self, square_graph):
        config = aco_config(termination=TerminationCriteria(max_iterations=1))
        _, trace = optimize_aco(square_graph, config, seed=0)
        assert len(trace.entries) == 1
        assert trace.entries[0].iteration == 0


class TestRandomizedProperties:
    @given(st.integers(0, 2**32 - 1))
    def test_constructed_tours_are_valid_permutations(self, seed):
        instance = random_tsp_instance(6, derive_stream(1234, 0))
        pheromones = initialize_pheromones(instance.graph, aco_config())
        weights = transition_weights(instance.graph, pheromones, aco_config())
        tour = construct_tour(
            instance.graph, weights, aco_config(), derive_stream(seed, 1), start=seed % 6
        )
        assert sorted(tour.order) == list(range(6))
        assert tour.length == tour_length(instance.graph, tour.order)

    def test_probability_normalization_over_random_states(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(4, 9)
            instance = random_tsp_instance(n, derive_stream(rng.randint(0, 2**32), 0))
            raw = np.array([[rng.uniform(0.05, 5.0) for _ in range(n)] for _ in range(n)])
            tau = (raw + raw.T) / 2.0
            np.fill_diagonal(tau, 0.0)
            current = rng.randrange(n)
            visited = set(
                rng.sample([j for j in range(n) if j != current], rng.randint(0, n - 2))
            )
            config = aco_config(alpha=rng.uniform(0.0, 3.0), beta=rng.uniform(0.0, 3.0))
            probs = transition_probabilities(
                instance.graph, PheromoneMatrix(tau), current, visited, config
            )
            assert abs(float(probs.sum()) - 1.0) <= 1e-12
            assert (probs >= 0.0).all()


def random_symmetric(rng, n, low_decade, high_decade):
    """Symmetric (n, n) matrix, zero diagonal, cells log-uniform over the decades."""
    raw = 10.0 ** rng.uniform(low_decade, high_decade, (n, n))
    m = np.triu(raw, 1)
    return m + m.T


def edge_draws(weights, start, picks):
    """Draws that land exactly on a cumulative-probability edge at every transition.

    Replays the list-based construction so that pick k puts the draw on the
    k-th edge of the row actually sampled; an edge at or above 1.0 is replaced
    by the largest draw below 1.0 (the last-candidate clamp). Stops at a row
    that fails the sum check, where construction raises before drawing.
    """
    remaining = [j for j in range(len(weights)) if j != start]
    current, draws = start, []
    for pick in picks:
        row = weights[current, remaining]
        total = row.sum()
        if not 0.0 < total < np.inf:
            break
        edges = np.cumsum(row / total)
        u = float(edges[pick % len(remaining)])
        if not u < 1.0:
            u = float(np.nextafter(1.0, 0.0))
        idx = min(int(np.searchsorted(edges, u, side="right")), len(remaining) - 1)
        current = remaining.pop(idx)
        draws.append(u)
    return draws


class TestSamplingParity:
    """``construct_tour`` against the public ``transition_probabilities``."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 30),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.3]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.3]),
        st.booleans(),
        st.data(),
    )
    def test_construct_tour_samples_the_transition_probabilities(
        self, seed, n, alpha, beta, on_edges, data
    ):
        # Each move must be the inverse-CDF pick over the probabilities the
        # public rule reports for the tour built so far.
        rng = np.random.default_rng(seed)
        graph = DistanceGraph(random_symmetric(rng, n, -2.0, 2.0))
        pheromones = PheromoneMatrix(random_symmetric(rng, n, -12.0, np.log10(5.0)))
        config = aco_config(alpha=alpha, beta=beta)
        weights = transition_weights(graph, pheromones, config)
        start = data.draw(st.integers(0, n - 1), label="start")
        if on_edges:
            picks = data.draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
            draws = edge_draws(weights, start, picks)
        else:
            unit = st.floats(0.0, 1.0, exclude_max=True)
            draws = data.draw(st.lists(unit, min_size=n - 1, max_size=n - 1), label="draws")
        tour = construct_tour(graph, weights, config, ForcedStream(draws), start)

        order = list(tour.order)
        for step, u in enumerate(draws, start=1):
            # ``current`` is blocked whether or not ``visited`` lists it.
            visited = order[: step - step % 2]
            probs = transition_probabilities(graph, pheromones, order[step - 1], visited, config)
            candidates = sorted(set(range(n)) - set(order[:step]))
            idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
            assert order[step] == candidates[min(idx, len(candidates) - 1)]


class TestReferenceParity:
    """The array forms against the list loops in ``tests/engine_reference.py``."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 60),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.3]),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.3]),
        st.sampled_from([0.0, 95.0, -95.0]),
        st.booleans(),
        st.data(),
    )
    def test_construct_tour_matches_the_list_loop(
        self, seed, n, alpha, beta, distance_decade, on_edges, data
    ):
        # Distances far from 1 make tau**alpha * (1/d)**beta under- or overflow
        # on some rows, so both must then raise the same error for the same node.
        rng = np.random.default_rng(seed)
        graph = DistanceGraph(random_symmetric(rng, n, distance_decade - 2, distance_decade + 2))
        pheromones = PheromoneMatrix(random_symmetric(rng, n, -12.0, np.log10(5.0)))
        config = aco_config(alpha=alpha, beta=beta)
        weights = transition_weights(graph, pheromones, config)
        start = data.draw(st.integers(0, n - 1))
        if on_edges:
            picks = data.draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
            draws = edge_draws(weights, start, picks)
            streams = ForcedStream(draws), ForcedStream(draws)
        else:
            streams = derive_stream(seed, 1), derive_stream(seed, 1)

        outcomes = []
        for build, stream in zip((construct_tour, engine_reference.construct_tour), streams):
            try:
                outcomes.append(build(graph, weights, config, stream, start))
            except ContractError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]  # the same Tour, or the same error text
        # Neither draws before its sum check passes, so both consumed the same draws.
        if on_edges:
            assert streams[0].remaining == streams[1].remaining
        else:
            assert streams[0].next_uniform() == streams[1].next_uniform()

    @given(st.integers(0, 2**32 - 1), st.integers(3, 59), st.integers(1, 79))
    def test_tour_length_and_deposit_match_the_python_folds(self, seed, n, num_tours):
        rng = np.random.default_rng(seed)
        graph = DistanceGraph(random_symmetric(rng, n, -3.0, 3.0))
        pheromones = PheromoneMatrix(random_symmetric(rng, n, -12.0, 1.0))
        config = aco_config(q=float(10.0 ** rng.uniform(-2.0, 2.0)))
        orders = [tuple(rng.permutation(n).tolist()) for _ in range(num_tours)]
        tours = [Tour(order, tour_length(graph, order)) for order in orders]

        for tour in tours:
            assert tour.length == engine_reference.tour_length(graph, tour.order)
        after = deposit(pheromones, tours, config)
        assert np.array_equal(after.tau, engine_reference.deposit(pheromones.tau, tours, config.q))


class TestWholeRunReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 25),
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        st.sampled_from([0.0, 1.0, 2.0, 3.3]),
        st.sampled_from([0.3, 1.0]),
        st.integers(1, 6),
        st.data(),
    )
    def test_optimize_aco_matches_the_straight_loop(
        self, seed, n, alpha, beta, rho, iterations, data
    ):
        # rho=1 leaves every edge at tau_floor before the deposit; at rho=0.3 a
        # floor of 0.6 binds from the second evaporation on edges no ant took.
        # Tour lengths are positive and finite, so == on them compares the bits.
        num_ants = data.draw(st.one_of(st.none(), st.integers(1, 2 * n)), label="num_ants")
        tau_floor = data.draw(st.sampled_from([1e-12, 0.2, 0.6]), label="tau_floor")
        q = data.draw(st.sampled_from([1.0, 2.0, 0.37]), label="q")
        graph = random_tsp_instance(n, derive_stream(seed, 0)).graph
        config = aco_config(
            termination=TerminationCriteria(max_iterations=iterations),
            num_ants=num_ants,
            alpha=alpha,
            beta=beta,
            rho=rho,
            tau_floor=tau_floor,
            q=q,
        )
        if data.draw(st.booleans(), label="stop early"):
            # A best length the run reaches, so the target is met exactly at some iteration.
            lengths = [e.best_fitness for e in optimize_aco(graph, config, seed)[1].entries]
            target = data.draw(st.sampled_from(lengths), label="target_fitness")
            termination = TerminationCriteria(max_iterations=iterations, target_fitness=target)
            config = dataclasses.replace(config, termination=termination)
        with mock.patch.object(aco, "deposit", wraps=aco.deposit) as spy:
            best, trace = optimize_aco(graph, config, seed)
        pheromones = aco.deposit(*spy.call_args.args)  # the run's last deposit, replayed
        ref_best, ref_trace, ref_tau = engine_reference.optimize_aco(graph, config, seed)
        assert best == ref_best
        assert trace == ref_trace
        assert_same_bits(pheromones.tau, ref_tau)
