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
body on all rows at once; ``update_velocity`` and ``update_position`` run
the same bodies on one particle.

Each particle owns the derived stream ``(seed, 1 + index)``; stream id 0
seeds initialization. That layout is part of the reproducibility contract:
a run is a pure function of (objective, config, seed).
"""

from __future__ import annotations

import dataclasses
import math
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
    _count,
    _readonly_copy,
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
        object.__setattr__(self, "k", _count(self.k, "ring_k"))


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

    ``vmax`` may be a scalar, a per-dimension vector (kept as a read-only copy), or None
    to default to half the search range per dimension.
    """

    swarm_size: int
    termination: TerminationCriteria
    c1: float = 2.0
    c2: float = 2.0
    vmax: Union[float, np.ndarray, None] = None
    topology: Topology = Global()

    def __post_init__(self):
        object.__setattr__(self, "swarm_size", _count(self.swarm_size, "swarm_size"))
        require_finite(self, "c1", "c2")
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError(f"c1 and c2 must be >= 0, got c1={self.c1}, c2={self.c2}")
        if self.vmax is not None:
            vmax = _readonly_copy(self.vmax)
            require_finite(self, "vmax")
            if not (vmax > 0).all():
                raise ConfigError(f"vmax must be > 0, got {self.vmax}")
            if not (vmax <= np.finfo(float).max / 2).all():  # initialize_swarm takes 2 * vmax
                raise ConfigError(f"vmax is too large: 2 * vmax overflows, got {self.vmax}")
            if vmax.ndim == 0:
                object.__setattr__(self, "vmax", float(vmax))
            elif vmax.ndim == 1:
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
    """The swarm between iterations, one array row per particle."""

    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_fitness: float
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


def _check_envelope(config: PsoConfig, objective: ObjectiveSpec) -> None:
    """Refuse a run in which a velocity sum could overflow, whatever the objective returns.

    Positions start in the box and each step moves a coordinate by at most
    the cap, so every position, pbest and guide of the run lies within
    ``reach = B + max_iterations * cap`` of the origin, ``B`` being the
    largest bound magnitude. Every velocity sum is then at most
    ``cap + 2 * (c1 + c2) * reach``, and twice that must be below the float
    maximum. The sums are Python floats, so an overflow is inf, 0 * inf is
    NaN (both refused) and numpy warns of neither.
    """
    cap = float(np.max(resolve_vmax(config, objective)))
    bound = float(np.max(np.abs([objective.lower_bound, objective.upper_bound])))
    iterations = config.termination.max_iterations
    try:
        reach = bound + float(iterations) * cap
    except OverflowError:  # an integer beyond the float range
        reach = math.inf
    c1, c2 = float(config.c1), float(config.c2)
    if not 2 * (cap + 2 * (c1 + c2) * reach) < np.finfo(float).max:
        # str() refuses an int of more than 4300 digits, so a huge budget is named by its size.
        budget = iterations if iterations < 10**16 else f"~10**{math.log10(iterations):.0f}"
        raise ConfigError(
            f"c1, c2, vmax and max_iterations let a velocity sum overflow on a box bounded "
            f"by {bound!r}: c1={c1!r}, c2={c2!r}, vmax={cap!r}, max_iterations={budget}"
        )


def initialize_swarm(
    objective: ObjectiveSpec, config: PsoConfig, stream: RngStream
) -> SwarmState:
    """Random swarm: positions uniform in the box, velocities in [-vmax, vmax].

    Draw order is pinned per particle in index order: d position draws,
    then d velocity draws, dimensions ascending. Each particle's pbest is
    its evaluated start position.
    """
    d, n = objective.dimension, config.swarm_size
    lower, upper = objective.lower_bound, objective.upper_bound
    vmax = resolve_vmax(config, objective)
    draws = np.concatenate([stream.next_uniforms(d) for _ in range(2 * n)]).reshape(2 * n, d)
    position = lower + (upper - lower) * draws[0::2]
    velocity = -vmax + 2.0 * vmax * draws[1::2]
    pbest, fitness, keyed, non_finite = _evaluated(objective, position, prior=None)
    best = keyed.index(min(keyed))  # first minimum = lowest index
    return SwarmState(
        position, velocity, pbest, fitness, pbest[best], float(fitness[best]), non_finite
    )


def update_velocity(
    particle: Particle, guide_position: np.ndarray, config: PsoConfig, stream: RngStream
) -> np.ndarray:
    """One velocity update with fresh draws, clamped to [-config.vmax, config.vmax].

    Per dimension i (ascending, drawing r1 then r2):

        v'[i] = v[i] + c1*r1[i]*(pbest[i] - x[i]) + c2*r2[i]*(guide[i] - x[i])

    ``config.vmax`` must be set, and a per-dimension cap must have the
    particle's shape; ``dataclasses.replace(config, vmax=resolve_vmax(config,
    objective))`` gives the cap a run would use.
    """
    if config.vmax is None:
        raise ConfigError("vmax is unset; set it in the config, e.g. from resolve_vmax")
    guide = np.asarray(guide_position, dtype=float)
    shape = particle.position.shape
    if guide.shape != shape:
        raise ContractError(f"guide has shape {guide.shape}, particle has shape {shape}")
    if isinstance(config.vmax, np.ndarray) and config.vmax.shape != shape:
        raise ContractError(f"vmax has shape {config.vmax.shape}, particle has shape {shape}")
    draws = stream.next_uniforms(2 * shape[0])
    x, velocity, pbest = particle.position, particle.velocity, particle.pbest_position
    return _velocity_rule(x, velocity, pbest, guide, draws, config, config.vmax)


def _velocity_rule(x, velocity, pbest, guide, draws, config, vmax):
    """The clamped velocity rule for one particle, or row-wise for a swarm.

    Along the last axis ``draws`` holds r1 at even and r2 at odd positions.
    """
    r1, r2 = draws[..., 0::2], draws[..., 1::2]
    return _clamped(velocity + config.c1 * r1 * (pbest - x) + config.c2 * r2 * (guide - x), vmax)


def _clamped(velocity, vmax):
    """``np.clip(velocity, -vmax, vmax)`` without its Python wrapper; NaN passes through."""
    return np.minimum(np.maximum(velocity, -vmax), vmax)


def update_position(position: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Component-wise position update; deliberately not clamped to any box."""
    position = np.asarray(position, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if position.shape != velocity.shape:
        raise ContractError(
            f"position shape {position.shape} does not match velocity shape {velocity.shape}"
        )
    return position + velocity


def _evaluated(objective, position, prior):
    """Evaluate each row of ``position`` once, in row order, and keep the better pbests.

    A row replaces ``prior``'s pbest only when its :func:`fitness_key` is strictly
    lower; the adoptions go into new arrays and ``prior`` is left as it was. With
    no prior the evaluated rows are the pbests. Returns the pbest positions and
    fitnesses, their keys as a list, and the running count of non-finite evaluations.
    """
    evaluate = objective.evaluate
    if prior is None:
        fitness = np.array([float(evaluate(row)) for row in position])
        keyed = [fitness_key(value) for value in fitness.tolist()]
        return position, fitness, keyed, keyed.count(math.inf)
    pbest = np.array(prior.pbest_position, dtype=float)
    fitness = np.array(prior.pbest_fitness, dtype=float)
    keyed = [fitness_key(value) for value in fitness.tolist()]
    non_finite = prior.non_finite_evals
    for i, row in enumerate(position):
        value = float(evaluate(row))
        key = fitness_key(value)
        non_finite += key == math.inf
        if key < keyed[i]:
            pbest[i], fitness[i], keyed[i] = row, value, key
    return pbest, fitness, keyed, non_finite


def _guides(pbest, gbest, keyed, topology: Topology) -> np.ndarray:
    """Each row's attractor: gbest, or the best pbest within +/-k ring neighbors."""
    if isinstance(topology, Global):
        return gbest  # one row, broadcast against every particle
    n, k = len(keyed), topology.k
    rows = np.sort((np.arange(n)[:, None] + np.arange(-k, k + 1)[None, :]) % n, axis=1)
    col = np.argmin(np.array(keyed)[rows], axis=1)  # first minimum = lowest index
    return pbest[rows[np.arange(n), col]]


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
    swarm_size objective evaluations are performed, one per row in index
    order, and each stream gives one ``next_uniforms(2 * dimension)``, in
    index order. The arithmetic is vectorized across the swarm but matches
    the per-particle operations bit for bit.
    """
    n = len(state.pbest_fitness)
    if len(streams) != n:
        raise ContractError(f"need {n} per-particle streams, got {len(streams)}")
    pbest, fitness, keyed, non_finite = _evaluated(objective, state.position, prior=state)
    best = keyed.index(min(keyed))  # first minimum = lowest index
    gbest = pbest[best]
    guides = _guides(pbest, gbest, keyed, config.topology)
    m = 2 * objective.dimension
    draws = np.concatenate([stream.next_uniforms(m) for stream in streams]).reshape(n, m)
    x = state.position
    vmax = resolve_vmax(config, objective)
    velocity = _velocity_rule(x, state.velocity, pbest, guides, draws, config, vmax)
    position = update_position(x, velocity)
    gbest_fitness = float(fitness[best])
    return SwarmState(position, velocity, pbest, fitness, gbest, gbest_fitness, non_finite)


def optimize(
    objective: ObjectiveSpec,
    config: PsoConfig,
    seed: int,
    on_iteration: Optional[Callable[[TraceEntry], None]] = None,
) -> tuple[np.ndarray, float, RunTrace]:
    """Run the swarm until termination; returns (best position, best fitness, trace).

    ``on_iteration`` is invoked with each freshly recorded trace entry,
    which lets callers stream progress to disk. A config whose velocity sum
    could overflow is a :class:`ConfigError` before the first evaluation.
    """
    # Resolved once per run, so each step's resolve_vmax returns config.vmax.
    config = dataclasses.replace(config, vmax=resolve_vmax(config, objective))
    _check_envelope(config, objective)
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
    trace = RunTrace(tuple(entries), state.non_finite_evals)
    return state.gbest_position, state.gbest_fitness, trace
