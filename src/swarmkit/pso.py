"""Particle swarm optimizer for box-bounded continuous minimization.

The velocity rule is the plain two-term form

    v' = v + c1 * r1 * (pbest - x) + c2 * r2 * (guide - x)

with fresh uniform draws r1, r2 per dimension (drawn interleaved, r1 then
r2, dimensions ascending) and the result clamped per dimension to
[-vmax, +vmax]. vmax is ``config.vmax``, or half the search range per
dimension when that is unset (:func:`resolve_vmax`); ``update_velocity``
reads it from the config alone. There is no inertia weight and no
constriction factor; vmax alone bounds the dynamics. Positions are never
clamped to the search box.

The swarm state is row-per-particle arrays. ``step`` runs each rule's one
body on all rows at once; the public rule functions run it on one particle.

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
    """Snapshot of the swarm after some number of iterations, one array row per particle."""

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float
    iteration: int
    non_finite_evals: int = 0

    @property
    def particles(self) -> tuple[Particle, ...]:
        """One :class:`Particle` per row, viewing the state's arrays."""
        rows = self.position, self.velocity, self.pbest_position, self.pbest_fitness
        return tuple(map(Particle, *rows))


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
    draws = np.stack([stream.next_uniforms(d) for _ in range(2 * config.swarm_size)])
    position = lower + (upper - lower) * draws[0::2]
    velocity = -vmax + 2.0 * vmax * draws[1::2]
    return _evaluated(objective, position, velocity, prior=None)[0]


def select_guide(state: SwarmState, particle_index: int, topology: Topology) -> np.ndarray:
    """The attractor position for one particle under the given topology.

    Global returns the swarm gbest. Ring(k) returns the best pbest among
    the 2k+1 ring neighbors (self included), ties to the lowest index. It is
    row ``particle_index`` of the guides :func:`step` moves the swarm toward.
    """
    n = len(state.pbest_fitness)
    if not 0 <= particle_index < n:
        raise ContractError(f"particle index {particle_index} out of range [0, {n})")
    guides = _guides(state, _keyed(state.pbest_fitness), topology)
    return guides[particle_index] if guides.ndim == 2 else guides


def update_velocity(
    particle: Particle, guide_position: np.ndarray, config: PsoConfig, stream: RngStream
) -> np.ndarray:
    """One velocity update with fresh draws, clamped to [-config.vmax, config.vmax].

    Per dimension i (ascending, drawing r1 then r2):

        v'[i] = v[i] + c1*r1[i]*(pbest[i] - x[i]) + c2*r2[i]*(guide[i] - x[i])

    ``config.vmax`` must be set; ``dataclasses.replace(config,
    vmax=resolve_vmax(config, objective))`` gives the cap a run would use.
    """
    if config.vmax is None:
        raise ConfigError("vmax is unset; set it in the config, e.g. from resolve_vmax")
    guide = np.asarray(guide_position, dtype=float)
    d = particle.position.shape[0]
    if guide.shape != (d,):
        raise ContractError(f"guide has shape {guide.shape}, particle dimension is {d}")
    return _velocity_rule(particle, guide, stream.next_uniforms(2 * d), config, config.vmax)


def _velocity_rule(swarm, guide, draws, config, vmax):
    """The clamped velocity rule for a :class:`Particle`, or a :class:`SwarmState` row-wise.

    Along the last axis ``draws`` holds r1 at even and r2 at odd positions.
    """
    x = swarm.position
    r1, r2 = draws[..., 0::2], draws[..., 1::2]
    velocity = (
        swarm.velocity + config.c1 * r1 * (swarm.pbest_position - x) + config.c2 * r2 * (guide - x)
    )
    return np.clip(velocity, -vmax, vmax)


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
    the memory. Returns ``particle`` itself when nothing improves.
    """
    improved, pbest, fitness, _ = _adopted(
        particle, particle.position, new_fitness, _keyed(new_fitness)
    )
    return Particle(particle.position, particle.velocity, pbest, fitness) if improved else particle


def _keyed(fitness: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(fitness), fitness, np.inf)


def _adopted(prior, position, fitness, keyed):
    """Row-wise, adopt ``position`` where ``keyed`` strictly beats ``prior``'s keyed pbest.

    Returns the improved mask and the new pbest positions, fitnesses and keyed fitnesses."""
    keyed_prior = _keyed(prior.pbest_fitness)
    improved = keyed < keyed_prior
    return (
        improved,
        np.where(improved[..., None], position, prior.pbest_position),
        np.where(improved, fitness, prior.pbest_fitness),
        np.where(improved, keyed, keyed_prior),
    )


def _evaluated(objective, position, velocity, prior):
    """The swarm at ``position`` after evaluating each row once, and its keyed pbest fitnesses.

    Strict improvements on ``prior``'s pbests are kept; with no prior the
    evaluated rows are the pbests. gbest is the best pbest, lowest index on ties.
    """
    fitness = np.array([float(objective.evaluate(row)) for row in position])
    keyed = _keyed(fitness)
    non_finite = int(np.count_nonzero(keyed == np.inf))  # inf exactly where fitness is non-finite
    pbest, iteration = position, 0
    if prior is not None:
        _, pbest, fitness, keyed = _adopted(prior, position, fitness, keyed)
        non_finite += prior.non_finite_evals
        iteration = prior.iteration
    best = int(np.argmin(keyed))
    gbest = pbest[best], float(fitness[best])
    return SwarmState(position, velocity, pbest, fitness, *gbest, iteration, non_finite), keyed


def _guides(state: SwarmState, keyed: np.ndarray, topology: Topology) -> np.ndarray:
    """Each row's attractor: gbest, or the best pbest within +/-k ring neighbors."""
    n = keyed.shape[0]
    if isinstance(topology, Global) or 2 * topology.k + 1 >= n:
        return state.gbest_position  # one row, broadcast against every particle
    k = topology.k
    rows = np.sort((np.arange(n)[:, None] + np.arange(-k, k + 1)[None, :]) % n, axis=1)
    col = np.argmin(keyed[rows], axis=1)  # first minimum = lowest index
    return state.pbest_position[rows[np.arange(n), col]]


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
    n = len(state.pbest_fitness)
    if len(streams) != n:
        raise ContractError(f"need {n} per-particle streams, got {len(streams)}")
    evaluated, keyed = _evaluated(objective, state.position, state.velocity, prior=state)
    guides = _guides(evaluated, keyed, config.topology)
    draws = np.stack([stream.next_uniforms(2 * objective.dimension) for stream in streams])
    velocity = _velocity_rule(evaluated, guides, draws, config, resolve_vmax(config, objective))
    position = update_position(state.position, velocity)
    return dataclasses.replace(
        evaluated, position=position, velocity=velocity, iteration=state.iteration + 1
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
    entries: list[TraceEntry] = []
    entry = None
    while True:
        state = step(state, objective, config, streams)
        evaluations += config.swarm_size
        entry = record_iteration(entry, state.gbest_fitness, evaluations)
        entries.append(entry)
        if on_iteration is not None:
            on_iteration(entry)
        if should_terminate(entry, config.termination):
            break
    trace = RunTrace(seed, tuple(entries), state.non_finite_evals)
    return state.gbest_position, state.gbest_fitness, trace
