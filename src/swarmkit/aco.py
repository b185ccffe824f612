"""Ant colony optimizer for symmetric TSP instances.

Ant System flavor: every ant builds a closed tour with the
random-proportional rule (pheromone^alpha * (1/distance)^beta), sampled
from one weight table per iteration-start pheromone snapshot; then each
iteration evaporates all edges multiplicatively and deposits q/length on
every ant's tour edges. Pheromone never drops below ``tau_floor``, so no
edge is ever locked out.

The per-transition, per-tour and per-iteration work are ndarray calls: a
gather of the unvisited nodes' weights, a ``cumsum`` left fold for tour
lengths, and two fancy-index adds per tour for the deposit. Each equals its
plain Python loop in ``tests/engine_reference.py`` bit for bit. ``transition_probabilities``
reads a row of ``transition_weights``, the table ``construct_tour`` samples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .core import (
    ConfigError,
    ContractError,
    RngStream,
    RunTrace,
    TerminationCriteria,
    TraceEntry,
    _count,
    _readonly_copy,
    derive_stream,
    record_iteration,
    require_finite,
    should_terminate,
)


def _table(values, name: str, entries: str) -> np.ndarray:
    """A read-only copy of ``values``, refused unless square, finite and symmetric."""
    table = _readonly_copy(values)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ConfigError(f"{name} matrix must be square, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ConfigError(f"{entries} must be finite")
    if not np.array_equal(table, table.T):
        raise ConfigError(f"{name} matrix must be symmetric")
    return table


@dataclass(frozen=True, eq=False)
class DistanceGraph:
    """Read-only copy of a symmetric distance matrix over n >= 3 nodes, positive off-diagonal.

    n times the largest distance is at most half the float maximum, so every tour length is finite.
    """

    distance: np.ndarray

    def __post_init__(self):
        d = _table(self.distance, "distance", "distances")
        n = d.shape[0]
        if n < 3:
            raise ConfigError(f"graph needs at least 3 nodes, got {n}")
        if not np.all(np.diag(d) == 0.0):
            raise ConfigError("diagonal distances must be zero")
        off = d[~np.eye(n, dtype=bool)]
        if not np.all(off > 0.0):
            raise ConfigError("off-diagonal distances must be strictly positive")
        # A tour length sums n distances; the factor of 2 covers the rounding of that sum.
        dmax, bound = float(off.max()), float(np.finfo(float).max) / 2
        if not dmax <= bound / n:
            raise ConfigError(
                f"distances too large for a finite tour length: n * max distance must be at "
                f"most {bound!r}, got {n} * {dmax!r}"
            )
        object.__setattr__(self, "distance", d)

    @property
    def n(self) -> int:
        return self.distance.shape[0]


@dataclass(frozen=True, eq=False)
class PheromoneMatrix:
    """Read-only copy of symmetric edge pheromone levels; every self-move weighs zero."""

    tau: np.ndarray

    def __post_init__(self):
        tau = _table(self.tau, "pheromone", "pheromone levels")
        if (tau < 0).any():
            raise ConfigError("pheromone levels must be non-negative")
        object.__setattr__(self, "tau", tau)

    @property
    def n(self) -> int:
        return self.tau.shape[0]


@dataclass(frozen=True)
class AcoConfig:
    """Tunables for the ant colony engine.

    ``num_ants=None`` means one ant per node, resolved against the graph
    at run time.
    """

    termination: TerminationCriteria
    num_ants: Optional[int] = None
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.5
    q: float = 1.0
    tau0: float = 1.0
    tau_floor: float = 1e-12

    def __post_init__(self):
        require_finite(self, "alpha", "beta", "q", "tau0", "tau_floor")
        if self.num_ants is not None:
            object.__setattr__(self, "num_ants", _count(self.num_ants, "num_ants"))
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho out of [0,1], got {self.rho}")
        if self.q <= 0:
            raise ConfigError(f"q must be > 0, got {self.q}")
        if self.tau_floor <= 0:
            raise ConfigError(f"tau_floor must be > 0, got {self.tau_floor}")
        if self.tau0 < self.tau_floor:
            raise ConfigError(
                f"tau0 must be >= tau_floor, got tau0={self.tau0} < {self.tau_floor}"
            )


@dataclass(frozen=True)
class Tour:
    """A closed node permutation and its length (return edge included)."""

    order: tuple[int, ...]
    length: float


def initialize_pheromones(graph: DistanceGraph, config: AcoConfig) -> PheromoneMatrix:
    """Uniform pheromone tau0 on every edge."""
    tau = np.full((graph.n, graph.n), config.tau0, dtype=float)
    np.fill_diagonal(tau, 0.0)
    return PheromoneMatrix(tau)


def transition_weights(
    graph: DistanceGraph, pheromones: PheromoneMatrix, config: AcoConfig
) -> np.ndarray:
    """(n, n) move weights tau^alpha * (1/distance)^beta, zero diagonal. Overflow and
    underflow give inf and 0 without a warning; a row they spoil fails the sum check."""
    if pheromones.n != graph.n:
        raise ContractError(f"pheromones cover {pheromones.n} nodes, the graph {graph.n}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = pheromones.tau ** config.alpha * (1.0 / graph.distance) ** config.beta
    np.fill_diagonal(weights, 0.0)
    return weights


def _node(value, name: str, n: int) -> int:
    """``value`` as an int; a ContractError naming ``name`` unless it is an integer in [0, n)."""
    try:
        node = operator.index(value)
    except TypeError:
        raise ContractError(f"{name} node must be an integer, got {value!r}") from None
    if not 0 <= node < n:
        raise ContractError(f"{name} node {node} out of range [0, {n})")
    return node


def transition_probabilities(
    graph: DistanceGraph,
    pheromones: PheromoneMatrix,
    current: int,
    visited: Iterable[int],
    config: AcoConfig,
) -> np.ndarray:
    """Move probabilities from ``current`` over unvisited nodes.

    Entry j (in ascending node order over the unvisited set) is proportional to
    tau^alpha * (1/distance)^beta. The vector sums to 1 and normalizes a row of
    :func:`transition_weights`, the table :func:`construct_tour` samples.
    """
    n = graph.n
    current = _node(current, "current", n)
    free = np.ones(n, dtype=bool)
    free[[*(_node(v, "visited", n) for v in visited), current]] = False
    if not free.any():
        raise ContractError("no unvisited nodes to move to")
    row = transition_weights(graph, pheromones, config)[current]
    with np.errstate(over="ignore"):
        return _move(row, free, current, config)


def _move(row: np.ndarray, free: np.ndarray, current: int, config: AcoConfig) -> np.ndarray:
    """Move probabilities of the ``free`` nodes, ascending, on ``current``'s weight row."""
    weights = row[free]
    # np.add.reduce is what ndarray.sum runs for a 1-D float64 row, minus the wrapper.
    # Finite weights may sum to inf; callers hold np.errstate(over="ignore") once per call.
    total = np.add.reduce(weights)
    if not 0.0 < total < np.inf:
        raise ContractError(
            f"transition weights from node {current} sum to {total}: tau**alpha * "
            f"(1/d)**beta overflows or underflows (alpha={config.alpha}, beta={config.beta})"
        )
    return weights / total


def construct_tour(
    graph: DistanceGraph,
    weights: np.ndarray,
    config: AcoConfig,
    stream: RngStream,
    start: int,
) -> Tour:
    """Build one closed tour by inverse-CDF sampling of a :func:`transition_weights` table.

    The unvisited nodes are an ascending list, and ``free`` masks them on the
    current node's weight row; each transition normalizes their weights and
    pops the first node whose cumulative probability exceeds the draw.
    Consumes exactly n-1 uniform draws, one per transition (the final forced
    move included), so draw accounting is independent of the probabilities
    themselves.
    """
    n = graph.n
    if np.shape(weights) != (n, n):
        raise ContractError(f"weights must have shape {(n, n)}, got {np.shape(weights)}")
    start = _node(start, "start", n)
    remaining = list(range(n))
    current = remaining.pop(start)
    order = [current]
    free = np.ones(n, dtype=bool)
    with np.errstate(over="ignore"):
        while remaining:
            free[current] = False
            probs = _move(weights[current], free, current, config)
            idx = probs.cumsum().searchsorted(stream.next_uniform(), "right")
            # A cumulative sum that falls short of 1.0 by rounding leaves idx past the end.
            current = remaining.pop(min(idx, len(remaining) - 1))
            order.append(current)
    return Tour(order=tuple(order), length=tour_length(graph, order))


def _permutation(n: int, order: Iterable[int]) -> np.ndarray:
    """``order`` as an intp node array; a ContractError unless it visits each of n nodes once."""
    nodes = order if isinstance(order, np.ndarray) else np.array(tuple(order))
    if (
        nodes.shape != (n,)
        or nodes.dtype.kind not in "iu"
        or np.sort(nodes).tolist() != list(range(n))
    ):
        raise ContractError("order must visit every node exactly once")
    return nodes.astype(np.intp, copy=False)


def _successors(nodes: np.ndarray) -> np.ndarray:
    """Each node's next stop, the last wrapping to the first.

    Equals ``np.roll(nodes, -1, axis=-1)`` without its Python-level overhead,
    which outweighed the rest of :func:`tour_length` on small tours.
    """
    return np.concatenate((nodes[..., 1:], nodes[..., :1]), axis=-1)


def tour_length(graph: DistanceGraph, order: Iterable[int]) -> float:
    """Length of the closed tour visiting ``order``, return edge included.

    The edges are summed by ``cumsum``, a sequential left fold in tour
    order, so the result equals a Python ``+=`` loop bit for bit (``sum``
    would add pairwise and round differently).
    """
    nodes = _permutation(graph.n, order)
    return float(graph.distance[nodes, _successors(nodes)].cumsum()[-1])


def evaporate(pheromones: PheromoneMatrix, config: AcoConfig) -> PheromoneMatrix:
    """Multiplicative decay by (1 - rho), floored at tau_floor per edge."""
    tau = np.maximum((1.0 - config.rho) * pheromones.tau, config.tau_floor)
    np.fill_diagonal(tau, 0.0)
    return PheromoneMatrix(tau)


def deposit(
    pheromones: PheromoneMatrix,
    tours: Iterable[Tour],
    config: AcoConfig,
) -> PheromoneMatrix:
    """Add q/length to both directions of every tour edge.

    Each tour in turn is checked, then adds to its n edges (a, b) and then to
    their reverses (b, a). A tour lists each node once, so neither add hits an
    entry twice: every entry gets its additions in a Python loop's order, the
    update is reproducible bit for bit, and the working memory is one tour's.
    """
    tau = pheromones.tau.copy()
    with np.errstate(over="ignore"):  # an overflow is inf, which PheromoneMatrix refuses
        for tour in tours:
            if not 0 < tour.length < np.inf:
                raise ContractError(f"tour length must be finite and positive, got {tour.length}")
            nodes = _permutation(pheromones.n, tour.order)
            nxt = _successors(nodes)
            tau[nodes, nxt] += config.q / tour.length
            tau[nxt, nodes] += config.q / tour.length
    return PheromoneMatrix(tau)


def optimize_aco(
    graph: DistanceGraph,
    config: AcoConfig,
    seed: int,
    on_iteration: Optional[Callable[[TraceEntry], None]] = None,
) -> tuple[Tour, RunTrace]:
    """Run the full colony loop and return the best tour with its trace.

    Ant k starts at node k mod n and owns the derived stream
    ``(seed, 1 + k)`` for the whole run; stream id 0 is reserved for
    run-level use. Each iteration constructs all tours from the weight table
    of the iteration-start pheromone snapshot, then evaporates, then deposits.
    """
    num_ants = config.num_ants if config.num_ants is not None else graph.n
    pheromones = initialize_pheromones(graph, config)
    streams = [derive_stream(seed, 1 + k) for k in range(num_ants)]

    best: Optional[Tour] = None
    entries: list[TraceEntry] = []
    entry = None
    evaluations = 0
    while True:
        weights = transition_weights(graph, pheromones, config)
        tours = [
            construct_tour(graph, weights, config, streams[k], start=k % graph.n)
            for k in range(num_ants)
        ]
        evaluations += num_ants
        for tour in tours:
            if best is None or tour.length < best.length:
                best = tour
        pheromones = deposit(evaporate(pheromones, config), tours, config)
        entry = record_iteration(entry, best.length, evaluations)
        entries.append(entry)
        if on_iteration is not None:
            on_iteration(entry)
        if should_terminate(entry, config.termination):
            return best, RunTrace(tuple(entries))
