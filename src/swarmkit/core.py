"""Shared foundations: seeded random streams, objectives, traces, termination.

Every stochastic component in this package draws from an :class:`RngStream`,
a counter-based Philox generator keyed by ``(seed, stream_id)``. Stream
derivation is a pure function of its arguments, so any run is replayable
from its seed alone and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

# Recorded in run metadata; changing the generator breaks replayability of
# previously published seeds.
RNG_ALGORITHM = "philox4x64"

_U64_MAX = 2**64 - 1


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class ContractError(ValueError):
    """An operation was called outside its documented preconditions."""


class RngStream:
    """One independent random stream, owned by a single agent or run.

    Two streams built from the same ``(seed, stream_id)`` produce identical
    draw sequences; distinct ids share no state.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int):
        if not 0 <= seed <= _U64_MAX:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= stream_id <= _U64_MAX:
            raise ConfigError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=(seed << 64) | stream_id))

    def next_uniform(self) -> float:
        """Draw one uniform value in [0, 1) and advance the stream."""
        return float(self._gen.random())

    def next_uniforms(self, n: int) -> np.ndarray:
        """Draw ``n`` uniforms in [0, 1); identical to ``n`` scalar draws."""
        return self._gen.random(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


# The independent stream for ``(seed, stream_id)``. A Philox stream is a pure
# function of its key, so the constructor already is the derivation: two
# calls with the same arguments replay the same sequence.
derive_stream = RngStream


def require_finite(config, *names: str) -> None:
    """Raise :class:`ConfigError` naming the first field in ``names`` that holds NaN or inf."""
    for name in names:
        value = getattr(config, name)
        if not np.isfinite(value).all():
            raise ConfigError(f"{name} must be finite, got {value}")


def fitness_key(value: float) -> float:
    """Comparison key under which non-finite fitnesses never win.

    NaN and both infinities map to +inf, so a non-finite evaluation is
    treated as no improvement while ordinary comparisons are unchanged.
    """
    return value if math.isfinite(value) else math.inf


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """A box-bounded minimization objective.

    ``evaluate`` must be deterministic: the same input vector always yields
    the same fitness.
    """

    dimension: int
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    evaluate: Callable[[np.ndarray], float]

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        lower = np.asarray(self.lower_bound, dtype=float)
        upper = np.asarray(self.upper_bound, dtype=float)
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise ConfigError(
                f"bounds must have shape ({self.dimension},), "
                f"got {lower.shape} and {upper.shape}"
            )
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ConfigError("bounds must be finite")
        if not (lower < upper).all():
            raise ConfigError("lower_bound must be strictly below upper_bound in every dimension")
        with np.errstate(over="ignore"):
            span = upper - lower
        if not np.isfinite(span).all():
            raise ConfigError("bounds are too far apart: upper_bound - lower_bound overflows")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower_bound", lower)
        object.__setattr__(self, "upper_bound", upper)


@dataclass(frozen=True)
class TerminationCriteria:
    """Stop after ``max_iterations``, or earlier once the best fitness
    reaches ``target_fitness`` (when set)."""

    max_iterations: int
    target_fitness: Optional[float] = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.target_fitness is not None:
            require_finite(self, "target_fitness")


class TraceEntry(NamedTuple):
    iteration: int
    best_fitness: float
    evaluations: int


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration best-so-far record of one run.

    Engines build it once, at the end of a run, from the entries that
    :func:`record_iteration` returned: one per iteration run, so at least
    one. ``entries`` hold the cumulative objective-call count alongside
    each best fitness; ``non_finite_evals`` counts evaluations that
    returned NaN or infinity (always treated as no improvement).
    """

    entries: tuple[TraceEntry, ...]
    non_finite_evals: int = 0

    @property
    def evaluations(self) -> int:
        return self.entries[-1].evaluations

    @property
    def best_fitness(self) -> float:
        return self.entries[-1].best_fitness


def record_iteration(previous: Optional[TraceEntry], best: float, evaluations: int) -> TraceEntry:
    """The trace entry that follows ``previous`` (``None`` for the first).

    The iteration is one past ``previous``. The recorded fitness is the
    minimum of ``best`` and the previous entry under :func:`fitness_key`,
    so a trace folded from these entries is non-increasing by construction.
    ``evaluations`` is the caller-maintained cumulative objective-call count.
    """
    if previous is None:
        return TraceEntry(0, best, evaluations)
    if not fitness_key(best) < fitness_key(previous.best_fitness):
        best = previous.best_fitness
    return TraceEntry(previous.iteration + 1, best, evaluations)


def should_terminate(entry: TraceEntry, criteria: TerminationCriteria) -> bool:
    """True once ``entry`` spends the iteration budget or reaches the target."""
    if entry.iteration + 1 >= criteria.max_iterations:
        return True
    return criteria.target_fitness is not None and entry.best_fitness <= criteria.target_fitness
