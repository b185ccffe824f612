"""Per-particle particle swarm rules that pin the row-wise forms in ``swarmkit.pso``.

Each function is a single-particle body written with plain Python
comparisons: the guide picked by a set of ring neighbors and ``min`` over
``fitness_key``, and the pbest adopted by comparing ``fitness_key`` values.
``step`` must reproduce these bit for bit; ``manual_step`` in ``test_pso.py``
and the whole-run loop in ``engine_reference.py`` are built on them.
"""

from __future__ import annotations

import dataclasses

from swarmkit import ContractError, Global, fitness_key


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
