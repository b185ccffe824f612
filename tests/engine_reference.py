"""Whole-run reference engines: ``swarmkit.optimize`` and ``swarmkit.optimize_aco``
as straight per-agent loops.

Both run over the same streams as the library: ``derive_stream(seed, 0)``
initializes the swarm, and ``derive_stream(seed, 1 + k)`` belongs to particle
or ant ``k``. They take one scalar draw at a time and move one agent at a
time. The PSO guide and pbest rules come from ``pso_rule_reference``, and the
tour, length and deposit loops from ``aco_reference``. The velocity rule, its
clamp (``np.clip``), the weight table, the evaporation, the trace fold and
the stopping rule are written out here. No private engine body is imported,
so a change to the library's array forms cannot carry these loops along with
it. The differential tests in ``test_pso.py`` and ``test_aco.py`` hold whole
runs of the two to the same bits.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

import aco_reference
import pso_rule_reference
from swarmkit import Particle, RunTrace, TraceEntry, derive_stream, fitness_key


def _uniforms(stream, n):
    return [stream.next_uniform() for _ in range(n)]


def _velocity(particle, guide, vmax, config, stream):
    """Per dimension, drawing r1 then r2: v + c1*r1*(pbest - x) + c2*r2*(guide - x), clipped."""
    rows = particle.position, particle.velocity, particle.pbest_position, guide
    velocity = []
    for x, v, p, g, cap in zip(*(np.asarray(row).tolist() for row in rows), vmax):
        r1, r2 = _uniforms(stream, 2)
        raw = v + config.c1 * r1 * (p - x) + config.c2 * r2 * (g - x)
        velocity.append(float(np.clip(raw, -cap, cap)))
    return velocity


def _best_index(particles):
    """The first particle whose pbest is smallest under ``fitness_key``."""
    keys = [fitness_key(p.pbest_fitness) for p in particles]
    return keys.index(min(keys))


def optimize(objective, config, seed):
    """Run the swarm until termination; returns (best position, best fitness, trace)."""
    d, n = objective.dimension, config.swarm_size
    lower, upper = list(objective.lower_bound), list(objective.upper_bound)
    if config.vmax is None:
        vmax = [0.5 * (upper[i] - lower[i]) for i in range(d)]
    else:
        vmax = [float(v) for v in np.broadcast_to(config.vmax, (d,))]

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

    streams = [derive_stream(seed, 1 + k) for k in range(n)]
    evaluations = n
    entries = []
    while True:
        # Evaluate everyone at the current position and keep strict improvements.
        evaluated = []
        for particle in particles:
            fitness = float(objective.evaluate(particle.position))
            non_finite += not math.isfinite(fitness)
            evaluated.append(pso_rule_reference.update_pbest(particle, fitness))
        best = evaluated[_best_index(evaluated)]
        gbest, gbest_fitness = best.pbest_position, best.pbest_fitness
        swarm = SimpleNamespace(
            pbest_fitness=[p.pbest_fitness for p in evaluated],
            pbest_position=[p.pbest_position for p in evaluated],
            gbest_position=gbest,
        )
        # Then move everyone toward their guide.
        particles = []
        for k, particle in enumerate(evaluated):
            guide = pso_rule_reference.select_guide(swarm, k, config.topology)
            velocity = _velocity(particle, guide, vmax, config, streams[k])
            position = [x + v for x, v in zip(particle.position, velocity)]
            particles.append(
                Particle(position, velocity, particle.pbest_position, particle.pbest_fitness)
            )

        evaluations += n
        recorded = gbest_fitness
        if entries and not fitness_key(gbest_fitness) < fitness_key(entries[-1].best_fitness):
            recorded = entries[-1].best_fitness
        entries.append(TraceEntry(len(entries), recorded, evaluations))
        target = config.termination.target_fitness
        if len(entries) >= config.termination.max_iterations or (
            target is not None and recorded <= target
        ):
            break
    return gbest, gbest_fitness, RunTrace(tuple(entries), non_finite)


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
            aco_reference.construct_tour(graph, weights, config, streams[k], k % n)
            for k in range(num_ants)
        ]
        for tour in tours:
            if best is None or tour.length < best.length:
                best = tour
        # Evaporate every edge, floored at tau_floor, then deposit on this iteration's tours.
        tau = np.maximum((1.0 - config.rho) * tau, config.tau_floor)
        np.fill_diagonal(tau, 0.0)
        tau = aco_reference.deposit(tau, tours, config.q)

        # best.length never rises, so it is the trace's running minimum as it stands.
        entries.append(TraceEntry(len(entries), best.length, num_ants * (len(entries) + 1)))
        target = config.termination.target_fitness
        if len(entries) >= config.termination.max_iterations or (
            target is not None and best.length <= target
        ):
            return best, RunTrace(tuple(entries)), tau
