"""Ant colony optimizer for symmetric TSP instances.

Ant System flavor: every ant builds a closed tour with the
random-proportional rule (pheromone^alpha * (1/distance)^beta), sampled
from one weight table per iteration-start pheromone snapshot; then each
iteration evaporates all edges multiplicatively and deposits q/length on
every ant's tour edges. Pheromone never drops below ``tau_floor``, so no
edge is ever locked out.
"""

from __future__ import annotations

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
    derive_stream,
    record_iteration,
    require_finite,
    should_terminate,
)


@dataclass(frozen=True, eq=False)
class DistanceGraph:
    """Symmetric distance matrix over n >= 3 nodes, positive off-diagonal."""

    distance: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distance, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ConfigError(f"distance matrix must be square, got shape {d.shape}")
        n = d.shape[0]
        if n < 3:
            raise ConfigError(f"graph needs at least 3 nodes, got {n}")
        if not np.isfinite(d).all():
            raise ConfigError("distances must be finite")
        if not np.array_equal(d, d.T):
            raise ConfigError("distance matrix must be symmetric")
        if not np.all(np.diag(d) == 0.0):
            raise ConfigError("diagonal distances must be zero")
        off = d[~np.eye(n, dtype=bool)]
        if not np.all(off > 0.0):
            raise ConfigError("off-diagonal distances must be strictly positive")
        d.flags.writeable = False
        object.__setattr__(self, "distance", d)

    @property
    def n(self) -> int:
        return self.distance.shape[0]


@dataclass(frozen=True, eq=False)
class PheromoneMatrix:
    """Edge pheromone levels; symmetric, zero diagonal."""

    tau: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError(f"pheromone matrix must be square, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise ConfigError("pheromone levels must be finite")
        if not np.array_equal(t, t.T):
            raise ConfigError("pheromone matrix must be symmetric")
        t.flags.writeable = False
        object.__setattr__(self, "tau", t)

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
        if self.num_ants is not None and self.num_ants < 1:
            raise ConfigError(f"num_ants must be >= 1, got {self.num_ants}")
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = pheromones.tau**config.alpha * (1.0 / graph.distance) ** config.beta
    np.fill_diagonal(weights, 0.0)
    return weights


def transition_probabilities(
    graph: DistanceGraph,
    pheromones: PheromoneMatrix,
    current: int,
    visited: Iterable[int],
    config: AcoConfig,
) -> np.ndarray:
    """Move probabilities from ``current`` over unvisited nodes.

    Entry j (in ascending node order over the unvisited set) is
    proportional to tau^alpha * (1/distance)^beta. The vector sums to 1.
    """
    n = graph.n
    if not 0 <= current < n:
        raise ContractError(f"current node {current} out of range [0, {n})")
    blocked = set(visited)
    blocked.add(current)
    candidates = [j for j in range(n) if j not in blocked]
    if not candidates:
        raise ContractError("no unvisited nodes to move to")
    row = transition_weights(graph, pheromones, config)[current, candidates]
    return _normalized(row, current, config)


def _normalized(weights: np.ndarray, current: int, config: AcoConfig) -> np.ndarray:
    total = weights.sum()
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

    Consumes exactly n-1 uniform draws, one per transition (the final
    forced move included), so draw accounting is independent of the
    probabilities themselves.
    """
    n = graph.n
    if np.shape(weights) != (n, n):
        raise ContractError(f"weights must have shape {(n, n)}, got {np.shape(weights)}")
    if not 0 <= start < n:
        raise ContractError(f"start node {start} out of range [0, {n})")
    order = [start]
    remaining = list(range(n))
    remaining.remove(start)
    current = start
    while remaining:
        probs = _normalized(weights[current, remaining], current, config)
        u = stream.next_uniform()
        idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        if idx >= len(remaining):  # cumulative sum fell short of 1.0 by rounding
            idx = len(remaining) - 1
        current = remaining.pop(idx)
        order.append(current)
    return Tour(order=tuple(order), length=tour_length(graph, order))


def tour_length(graph: DistanceGraph, order: Iterable[int]) -> float:
    """Length of the closed tour visiting ``order``, return edge included."""
    nodes = list(order)
    if sorted(nodes) != list(range(graph.n)):
        raise ContractError("order must visit every node exactly once")
    d = graph.distance
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        total += d[a, b]
    total += d[nodes[-1], nodes[0]]
    return float(total)


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

    Tours are applied in order and edges in tour order, so the update is
    reproducible bit for bit.
    """
    tau = pheromones.tau.copy()
    for tour in tours:
        if tour.length <= 0:
            raise ContractError(f"tour length must be positive, got {tour.length}")
        gain = config.q / tour.length
        nodes = tour.order
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            tau[a, b] += gain
            tau[b, a] += gain
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
            return best, RunTrace(seed, tuple(entries))
