"""Particle swarm optimizer for box-bounded continuous minimization.

The velocity rule is the plain two-term form

    v' = v + c1 * r1 * (pbest - x) + c2 * r2 * (guide - x)

with fresh uniform draws r1, r2 per dimension (drawn interleaved, r1 then
r2, dimensions ascending) and the result clamped per dimension to
[-vmax, +vmax]. There is no inertia weight and no constriction factor;
vmax alone bounds the dynamics. Positions are never clamped to the search
box.

Each particle owns the derived stream ``(seed, 1 + index)``; stream id 0
seeds initialization. That layout is part of the reproducibility contract:
a run is a pure function of (objective, config, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
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
    require_finite,
    should_terminate,
)


@dataclass(frozen=True)
class Global:
    """Every particle follows the swarm-wide best (gbest)."""


@dataclass(frozen=True)
class Ring:
    """Each particle follows the best pbest within +/-k ring neighbors (lbest)."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"ring_k must be in [1, swarm_size), got {self.k}")


Topology = Union[Global, Ring]


@dataclass(frozen=True, eq=False)
class Particle:
    """Position, velocity, and personal-best memory of one swarm member."""

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: float

    def __post_init__(self):
        position = np.asarray(self.position, dtype=float)
        velocity = np.asarray(self.velocity, dtype=float)
        pbest = np.asarray(self.pbest_position, dtype=float)
        if not (position.shape == velocity.shape == pbest.shape) or position.ndim != 1:
            raise ConfigError("particle vectors must be 1-d and share one dimension")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "velocity", velocity)
        object.__setattr__(self, "pbest_position", pbest)
        object.__setattr__(self, "pbest_fitness", float(self.pbest_fitness))


@dataclass(frozen=True, eq=False)
class PsoConfig:
    """Tunables for the swarm engine.

    ``vmax`` may be a scalar, a per-dimension vector, or None to default
    to half the search range per dimension.
    """

    swarm_size: int
    termination: TerminationCriteria
    c1: float = 2.0
    c2: float = 2.0
    vmax: Union[float, np.ndarray, None] = None
    topology: Topology = Global()

    def __post_init__(self):
        if self.swarm_size < 1:
            raise ConfigError(f"swarm_size must be >= 1, got {self.swarm_size}")
        require_finite(self, "c1", "c2")
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError(f"c1 and c2 must be >= 0, got c1={self.c1}, c2={self.c2}")
        if self.vmax is not None:
            vmax = np.asarray(self.vmax, dtype=float)
            require_finite(self, "vmax")
            if not (vmax > 0).all():
                raise ConfigError(f"vmax must be > 0, got {self.vmax}")
            if vmax.ndim == 0:
                object.__setattr__(self, "vmax", float(vmax))
            elif vmax.ndim == 1:
                vmax.flags.writeable = False
                object.__setattr__(self, "vmax", vmax)
            else:
                raise ConfigError(f"vmax must be a scalar or 1-d vector, got shape {vmax.shape}")
        if isinstance(self.topology, Ring) and not self.topology.k < self.swarm_size:
            raise ConfigError(
                f"ring_k must be in [1, swarm_size), got {self.topology.k} "
                f"with swarm_size={self.swarm_size}"
            )
        if not isinstance(self.topology, (Global, Ring)):
            raise ConfigError(f"unknown topology {self.topology!r}")


@dataclass(frozen=True, eq=False)
class SwarmState:
    """Snapshot of the swarm after some number of iterations."""

    particles: tuple[Particle, ...]
    gbest_position: np.ndarray
    gbest_fitness: float
    iteration: int
    non_finite_evals: int = 0


def resolve_vmax(config: PsoConfig, objective: ObjectiveSpec) -> Union[float, np.ndarray]:
    """The effective velocity cap: configured, or half the range per dimension."""
    if config.vmax is None:
        return 0.5 * (objective.upper_bound - objective.lower_bound)
    if isinstance(config.vmax, np.ndarray) and config.vmax.shape != (objective.dimension,):
        raise ConfigError(
            f"vmax has shape {config.vmax.shape}, objective dimension is {objective.dimension}"
        )
    return config.vmax


def initialize_swarm(
    objective: ObjectiveSpec, config: PsoConfig, stream: RngStream
) -> SwarmState:
    """Random swarm: positions uniform in the box, velocities in [-vmax, vmax].

    Draw order is pinned per particle in index order: d position draws,
    then d velocity draws, dimensions ascending. Each particle's pbest is
    its evaluated start position.
    """
    d = objective.dimension
    lower, upper = objective.lower_bound, objective.upper_bound
    vmax = resolve_vmax(config, objective)
    particles = []
    non_finite = 0
    for _ in range(config.swarm_size):
        position = lower + (upper - lower) * stream.next_uniforms(d)
        velocity = -vmax + 2.0 * vmax * stream.next_uniforms(d)
        fitness = float(objective.evaluate(position))
        if not np.isfinite(fitness):
            non_finite += 1
        particles.append(Particle(position, velocity, position, fitness))
    best = min(range(config.swarm_size), key=lambda i: (fitness_key(particles[i].pbest_fitness), i))
    return SwarmState(
        particles=tuple(particles),
        gbest_position=particles[best].pbest_position,
        gbest_fitness=particles[best].pbest_fitness,
        iteration=0,
        non_finite_evals=non_finite,
    )


def select_guide(state: SwarmState, particle_index: int, topology: Topology) -> np.ndarray:
    """The attractor position for one particle under the given topology.

    Global returns the swarm gbest. Ring(k) returns the best pbest among
    the 2k+1 ring neighbors (self included), ties to the lowest index.
    """
    n = len(state.particles)
    if not 0 <= particle_index < n:
        raise ContractError(f"particle index {particle_index} out of range [0, {n})")
    if isinstance(topology, Global):
        return state.gbest_position
    indices = sorted({(particle_index + off) % n for off in range(-topology.k, topology.k + 1)})
    best = min(indices, key=lambda i: (fitness_key(state.particles[i].pbest_fitness), i))
    return state.particles[best].pbest_position


def update_velocity(
    particle: Particle,
    guide_position: np.ndarray,
    config: PsoConfig,
    stream: RngStream,
    vmax: Union[float, np.ndarray, None] = None,
) -> np.ndarray:
    """One velocity update with fresh draws, clamped to [-vmax, vmax].

    Per dimension i (ascending, drawing r1 then r2):

        v'[i] = v[i] + c1*r1[i]*(pbest[i] - x[i]) + c2*r2[i]*(guide[i] - x[i])
    """
    if vmax is None:
        vmax = config.vmax
    if vmax is None:
        raise ConfigError("vmax is unset; set it in the config or pass it explicitly")
    guide = np.asarray(guide_position, dtype=float)
    d = particle.position.shape[0]
    if guide.shape != (d,):
        raise ContractError(f"guide has shape {guide.shape}, particle dimension is {d}")
    draws = stream.next_uniforms(2 * d)
    r1 = draws[0::2]
    r2 = draws[1::2]
    velocity = (
        particle.velocity
        + config.c1 * r1 * (particle.pbest_position - particle.position)
        + config.c2 * r2 * (guide - particle.position)
    )
    return clamp_velocity(velocity, vmax)


def clamp_velocity(velocity: np.ndarray, vmax: Union[float, np.ndarray]) -> np.ndarray:
    """Saturate each component into [-vmax, vmax]."""
    if not np.all(np.asarray(vmax) > 0):
        raise ConfigError("vmax must be strictly positive")
    return np.clip(velocity, -vmax, vmax)


def update_position(position: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Component-wise position update; deliberately not clamped to any box."""
    position = np.asarray(position, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if position.shape != velocity.shape:
        raise ContractError(
            f"position shape {position.shape} does not match velocity shape {velocity.shape}"
        )
    return position + velocity


def update_pbest(particle: Particle, new_fitness: float) -> Particle:
    """Adopt the current position as pbest on strict improvement only.

    Non-finite fitnesses never improve, so NaN objectives cannot poison
    the memory.
    """
    if fitness_key(new_fitness) < fitness_key(particle.pbest_fitness):
        return dataclasses.replace(
            particle, pbest_position=particle.position, pbest_fitness=float(new_fitness)
        )
    return particle


def _keyed(fitness: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(fitness), fitness, np.inf)


def _ring_guide_rows(pbest_pos: np.ndarray, keyed_fitness: np.ndarray, k: int) -> np.ndarray:
    n = keyed_fitness.shape[0]
    if 2 * k + 1 >= n:  # full coverage: every neighborhood is the whole swarm
        return np.broadcast_to(pbest_pos[int(np.argmin(keyed_fitness))], pbest_pos.shape)
    rows = np.sort((np.arange(n)[:, None] + np.arange(-k, k + 1)[None, :]) % n, axis=1)
    col = np.argmin(keyed_fitness[rows], axis=1)  # first minimum = lowest index
    return pbest_pos[rows[np.arange(n), col]]


def step(
    state: SwarmState,
    objective: ObjectiveSpec,
    config: PsoConfig,
    streams: Sequence[RngStream],
) -> SwarmState:
    """One full iteration: evaluate, refresh bests, then move everyone.

    Phases in order: (1) evaluate all particles at their current positions
    and update pbests, (2) refresh gbest from the new pbests, (3) update
    each velocity against its guide and apply the position step. Exactly
    swarm_size objective evaluations are performed. The arithmetic is
    vectorized across the swarm but matches the per-particle operations
    bit for bit.
    """
    n = len(state.particles)
    if len(streams) != n:
        raise ContractError(f"need {n} per-particle streams, got {len(streams)}")
    d = objective.dimension
    vmax = resolve_vmax(config, objective)

    position = np.stack([p.position for p in state.particles])
    velocity = np.stack([p.velocity for p in state.particles])
    pbest_pos = np.stack([p.pbest_position for p in state.particles])
    pbest_fit = np.array([p.pbest_fitness for p in state.particles])

    fitness = np.array([float(objective.evaluate(position[i])) for i in range(n)])
    non_finite = state.non_finite_evals + int(np.count_nonzero(~np.isfinite(fitness)))
    improved = _keyed(fitness) < _keyed(pbest_fit)
    pbest_fit = np.where(improved, fitness, pbest_fit)
    pbest_pos = np.where(improved[:, None], position, pbest_pos)

    keyed = _keyed(pbest_fit)
    best = int(np.argmin(keyed))
    gbest_position = pbest_pos[best]
    gbest_fitness = float(pbest_fit[best])

    if isinstance(config.topology, Global):
        guides = np.broadcast_to(gbest_position, position.shape)
    else:
        guides = _ring_guide_rows(pbest_pos, keyed, config.topology.k)

    draws = np.stack([streams[i].next_uniforms(2 * d) for i in range(n)])
    r1 = draws[:, 0::2]
    r2 = draws[:, 1::2]
    velocity = (
        velocity + config.c1 * r1 * (pbest_pos - position) + config.c2 * r2 * (guides - position)
    )
    velocity = np.clip(velocity, -vmax, vmax)
    position = position + velocity

    particles = tuple(
        Particle(position[i], velocity[i], pbest_pos[i], float(pbest_fit[i])) for i in range(n)
    )
    return SwarmState(
        particles=particles,
        gbest_position=gbest_position,
        gbest_fitness=gbest_fitness,
        iteration=state.iteration + 1,
        non_finite_evals=non_finite,
    )


def optimize(
    objective: ObjectiveSpec,
    config: PsoConfig,
    seed: int,
    on_iteration: Optional[Callable[[TraceEntry], None]] = None,
) -> tuple[np.ndarray, float, RunTrace]:
    """Run the swarm until termination; returns (best position, best fitness, trace).

    ``on_iteration`` is invoked with each freshly recorded trace entry,
    which lets callers stream progress to disk.
    """
    state = initialize_swarm(objective, config, derive_stream(seed, 0))
    streams = [derive_stream(seed, 1 + k) for k in range(config.swarm_size)]
    evaluations = config.swarm_size
    trace = RunTrace(seed=seed)
    iteration = 0
    while True:
        state = step(state, objective, config, streams)
        evaluations += config.swarm_size
        trace = record_iteration(trace, iteration, state.gbest_fitness, evaluations)
        if on_iteration is not None:
            on_iteration(trace.entries[-1])
        if should_terminate(trace, config.termination):
            break
        iteration += 1
    if state.non_finite_evals:
        trace = dataclasses.replace(trace, non_finite_evals=state.non_finite_evals)
    return state.gbest_position, state.gbest_fitness, trace
