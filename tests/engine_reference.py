"""Reference engines: ``swarmkit.step``, ``swarmkit.optimize`` and
``swarmkit.optimize_aco`` as straight per-agent loops.

They run over the same streams as the library: ``derive_stream(seed, 0)``
initializes the swarm, and ``derive_stream(seed, 1 + k)`` belongs to particle
or ant ``k``. They take one scalar draw at a time and move one agent at a
time. ``step`` keeps a pbest on a strict ``fitness_key`` improvement
(``update_pbest``), picks each guide with ``min`` over the ring neighbors
(``select_guide``) and clips each velocity element with ``np.clip``;
``optimize`` initializes the swarm, loops over ``step`` and folds the trace.
``optimize_aco`` builds each tour over a list of unvisited nodes
(``construct_tour``), sums lengths and deposits with Python ``+=`` folds
(``tour_length``, ``deposit``), and writes out the weight table, the
evaporation and the stopping rule. These are the list loops the colony ran
before its array rewrite, error messages included.
No private engine body is imported, so a change to the library's array
forms cannot carry these loops along with it. The differential tests in
``test_pso.py`` and ``test_aco.py`` hold single steps, single tours, deposits
and whole runs of the two to the same bits.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from swarmkit import (
    ContractError,
    Global,
    Particle,
    RunTrace,
    SwarmState,
    Tour,
    TraceEntry,
    derive_stream,
    fitness_key,
)


def _uniforms(stream, n):
    return [stream.next_uniform() for _ in range(n)]


def _vmax(objective, config):
    """The velocity cap per dimension: ``config.vmax``, or half the search range."""
    d = objective.dimension
    if config.vmax is None:
        lower, upper = list(objective.lower_bound), list(objective.upper_bound)
        return [0.5 * (upper[i] - lower[i]) for i in range(d)]
    return [float(v) for v in np.broadcast_to(config.vmax, (d,))]


def state_of(particles, non_finite_evals=0):
    """Swarm holding ``particles`` as rows; gbest is the best pbest, ties to the lowest index."""
    best = min(range(len(particles)), key=lambda i: (fitness_key(particles[i].pbest_fitness), i))
    return SwarmState(
        position=np.stack([p.position for p in particles]),
        velocity=np.stack([p.velocity for p in particles]),
        pbest_position=np.stack([p.pbest_position for p in particles]),
        pbest_fitness=np.array([p.pbest_fitness for p in particles]),
        gbest_position=particles[best].pbest_position,
        gbest_fitness=particles[best].pbest_fitness,
        non_finite_evals=non_finite_evals,
    )


def select_guide(state, particle_index, topology):
    """gbest, or the best pbest among the 2k+1 ring neighbors, ties to the lowest index."""
    n = len(state.pbest_fitness)
    if not 0 <= particle_index < n:
        raise ContractError(f"particle index {particle_index} out of range [0, {n})")
    if isinstance(topology, Global):
        return state.gbest_position
    indices = sorted({(particle_index + off) % n for off in range(-topology.k, topology.k + 1)})
    best = min(indices, key=lambda i: (fitness_key(state.pbest_fitness[i]), i))
    return state.pbest_position[best]


def update_pbest(particle, new_fitness):
    """The particle with its position as pbest on strict keyed improvement, else itself."""
    if fitness_key(new_fitness) < fitness_key(particle.pbest_fitness):
        return dataclasses.replace(
            particle, pbest_position=particle.position, pbest_fitness=float(new_fitness)
        )
    return particle


def _velocity(particle, guide, vmax, config, stream):
    """Per dimension, drawing r1 then r2: v + c1*r1*(pbest - x) + c2*r2*(guide - x), clipped."""
    rows = particle.position, particle.velocity, particle.pbest_position, guide
    velocity = []
    for x, v, p, g, cap in zip(*(np.asarray(row).tolist() for row in rows), vmax):
        r1, r2 = _uniforms(stream, 2)
        raw = v + config.c1 * r1 * (p - x) + config.c2 * r2 * (g - x)
        velocity.append(float(np.clip(raw, -cap, cap)))
    return velocity


def step(state, objective, config, streams):
    """Evaluate everyone and keep strict improvements, then move everyone toward their guide."""
    vmax = _vmax(objective, config)
    non_finite = state.non_finite_evals
    evaluated = []
    for particle in state.particles:
        fitness = float(objective.evaluate(particle.position))
        non_finite += not math.isfinite(fitness)
        evaluated.append(update_pbest(particle, fitness))
    swarm = state_of(evaluated)
    moved = []
    for k, particle in enumerate(evaluated):
        guide = select_guide(swarm, k, config.topology)
        velocity = _velocity(particle, guide, vmax, config, streams[k])
        position = [x + v for x, v in zip(particle.position.tolist(), velocity)]
        moved.append(Particle(position, velocity, particle.pbest_position, particle.pbest_fitness))
    return state_of(moved, non_finite)


def optimize(objective, config, seed):
    """Run the swarm until termination; returns (best position, best fitness, trace)."""
    d, n = objective.dimension, config.swarm_size
    lower, upper = list(objective.lower_bound), list(objective.upper_bound)
    vmax = _vmax(objective, config)

    init = derive_stream(seed, 0)
    particles = []
    non_finite = 0
    for _ in range(n):
        u = _uniforms(init, d)
        position = [lower[i] + (upper[i] - lower[i]) * u[i] for i in range(d)]
        u = _uniforms(init, d)
        velocity = [-vmax[i] + 2.0 * vmax[i] * u[i] for i in range(d)]
        fitness = float(objective.evaluate(np.array(position)))
        non_finite += not math.isfinite(fitness)
        particles.append(Particle(position, velocity, position, fitness))

    state = state_of(particles, non_finite)
    streams = [derive_stream(seed, 1 + k) for k in range(n)]
    entries = []
    while True:
        state = step(state, objective, config, streams)
        recorded = state.gbest_fitness
        if entries and not fitness_key(recorded) < fitness_key(entries[-1].best_fitness):
            recorded = entries[-1].best_fitness
        entries.append(TraceEntry(len(entries), recorded, n * (len(entries) + 2)))
        target = config.termination.target_fitness
        if len(entries) >= config.termination.max_iterations or (
            target is not None and recorded <= target
        ):
            break
    trace = RunTrace(tuple(entries), state.non_finite_evals)
    return state.gbest_position, state.gbest_fitness, trace


def optimize_aco(graph, config, seed):
    """Run the colony until termination; returns (best tour, trace, final pheromones)."""
    n = graph.n
    num_ants = config.num_ants if config.num_ants is not None else n
    streams = [derive_stream(seed, 1 + k) for k in range(num_ants)]
    tau = np.full((n, n), config.tau0)
    np.fill_diagonal(tau, 0.0)
    best, entries = None, []
    while True:
        with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal, zeroed below
            weights = tau**config.alpha * (1.0 / graph.distance) ** config.beta
        np.fill_diagonal(weights, 0.0)
        tours = [
            construct_tour(graph, weights, config, streams[k], k % n)
            for k in range(num_ants)
        ]
        for tour in tours:
            if best is None or tour.length < best.length:
                best = tour
        # Evaporate every edge, floored at tau_floor, then deposit on this iteration's tours.
        tau = np.maximum((1.0 - config.rho) * tau, config.tau_floor)
        np.fill_diagonal(tau, 0.0)
        tau = deposit(tau, tours, config.q)

        # best.length never rises, so it is the trace's running minimum as it stands.
        entries.append(TraceEntry(len(entries), best.length, num_ants * (len(entries) + 1)))
        target = config.termination.target_fitness
        if len(entries) >= config.termination.max_iterations or (
            target is not None and best.length <= target
        ):
            return best, RunTrace(tuple(entries)), tau


def construct_tour(graph, weights, config, stream, start):
    """One closed tour, sampled by inverse CDF over a list of unvisited nodes."""
    n = graph.n
    order = [start]
    remaining = list(range(n))
    remaining.remove(start)
    current = start
    while remaining:
        row = weights[current, remaining]
        total = row.sum()
        if not 0.0 < total < np.inf:
            raise ContractError(
                f"transition weights from node {current} sum to {total}: tau**alpha * "
                f"(1/d)**beta overflows or underflows (alpha={config.alpha}, beta={config.beta})"
            )
        u = stream.next_uniform()
        idx = int(np.searchsorted(np.cumsum(row / total), u, side="right"))
        if idx >= len(remaining):  # cumulative sum fell short of 1.0 by rounding
            idx = len(remaining) - 1
        current = remaining.pop(idx)
        order.append(current)
    return Tour(order=tuple(order), length=tour_length(graph, order))


def tour_length(graph, order):
    """Closed-tour length as a left fold of Python ``+=``, return edge last."""
    nodes = list(order)
    d = graph.distance
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        total += d[a, b]
    total += d[nodes[-1], nodes[0]]
    return float(total)


def deposit(tau, tours, q):
    """``tau`` plus q/length on both directions of every edge, tour by tour."""
    tau = np.array(tau, dtype=float)
    for tour in tours:
        gain = q / tour.length
        nodes = tour.order
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            tau[a, b] += gain
            tau[b, a] += gain
    return tau
