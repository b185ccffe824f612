"""Benchmark objectives, TSP instance handling, and the exact TSP oracle.

The brute-force solver exists so stochastic results can be checked against
ground truth; it shares no code with the colony engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .aco import DistanceGraph, Tour
from .core import ConfigError, ObjectiveSpec, RngStream, _count, _readonly_copy

# Exhaustive enumeration above this is a factorial blowup, not a test oracle.
BRUTE_FORCE_MAX_NODES = 11

# The objectives reduce with ``np.add.reduce(..., axis=None)``: the pairwise
# loop ``np.sum`` runs, without its Python wrapper, so the bits are the same.


def sphere(x) -> float:
    """f(x) = sum of squares; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return float(np.add.reduce(x * x, axis=None))


def rastrigin(x) -> float:
    """f(x) = 10d + sum(x^2 - 10 cos(2 pi x)); minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=None))


def rosenbrock(x) -> float:
    """Banana valley, sum of 100(x[i+1]-x[i]^2)^2 + (1-x[i])^2; minimum 0 at all ones."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ConfigError(f"rosenbrock needs dimension >= 2, got {x.size}")
    head, tail = x[:-1], x[1:]
    return float(np.add.reduce(100.0 * (tail - head * head) ** 2 + (1.0 - head) ** 2, axis=None))


@dataclass(frozen=True, eq=False)
class BenchmarkFunction:
    """A benchmark objective on its standard search box."""

    spec: ObjectiveSpec


# Box half-width and smallest dimension of each benchmark.
_BOXES = {"sphere": (5.12, 1), "rastrigin": (5.12, 1), "rosenbrock": (2.048, 2)}

BENCHMARK_NAMES = tuple(sorted(_BOXES))


def benchmark(name: str, dimension: int) -> BenchmarkFunction:
    """The benchmark ``name`` on its box ``[-h, h]^dimension``.

    An unknown name, too small a dimension, or one whose bounds numpy cannot
    size or allocate raises :class:`ConfigError`, checked in that order.
    """
    try:
        half_range, min_dim = _BOXES[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    if dimension < min_dim:
        raise ConfigError(f"{name} needs dimension >= {min_dim}, got {dimension}")
    try:
        lower, upper = np.full(dimension, -half_range), np.full(dimension, half_range)
    except (ValueError, MemoryError) as exc:  # numpy cannot size or allocate the arrays
        raise ConfigError(f"dim {dimension} is too large: {exc}") from None
    # Looked up when called, so that rebinding ``problems.sphere`` reaches the spec.
    return BenchmarkFunction(ObjectiveSpec(dimension, lower, upper, globals()[name]))


@dataclass(frozen=True, eq=False)
class TspInstance:
    """A TSP instance: a read-only copy of its 2D coordinates and their Euclidean distances."""

    name: str
    graph: DistanceGraph
    coordinates: np.ndarray

    @classmethod
    def from_coordinates(cls, name: str, coordinates) -> "TspInstance":
        coords = _readonly_copy(coordinates)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ConfigError(f"coordinates must have shape (n, 2), got {coords.shape}")
        # Each pair's difference is scaled by the power of two that brings its larger component
        # into [0.5, 1), and its root sum of squares scaled back. Powers of two scale exactly, so
        # the sum never leaves the float range, and where the plain squares stayed normal the
        # bits are theirs. A difference that overflows or is not finite stays inf or NaN, which
        # DistanceGraph rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            delta = coords[:, None, :] - coords[None, :, :]
            e = np.frexp(np.maximum(abs(delta[..., 0]), abs(delta[..., 1])))[1]
            scaled = np.ldexp(delta, -e[..., None])
            distance = np.ldexp(np.sqrt((scaled**2).sum(axis=-1)), e)
        return cls(name=name, graph=DistanceGraph(distance), coordinates=coords)

    @property
    def n(self) -> int:
        return self.graph.n


def load_tsp_instance(text: str, name: str = "instance") -> TspInstance:
    """Parse the plain-text instance format.

    Lines starting with '#' and blank lines are ignored. The first
    significant line is the node count n, followed by n lines of
    "index x y" with consecutive 0-based indices. The points are
    collected as read, so n is only compared, never allocated.
    """
    n = None
    coords = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ConfigError(f"line {lineno}: expected node count, got {line!r}") from None
            if n < 3:
                raise ConfigError(f"line {lineno}: n < 3 (got {n})")
            continue
        if len(coords) >= n:
            raise ConfigError(f"line {lineno}: more than {n} point lines")
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: expected 'index x y', got {line!r}")
        try:
            index = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed point line {line!r}") from None
        if 0 <= index < len(coords):
            raise ConfigError(f"line {lineno}: duplicate point index {index}")
        if index != len(coords):
            raise ConfigError(f"line {lineno}: expected index {len(coords)}, got {index}")
        coords.append((x, y))
    if n is None:
        raise ConfigError("empty instance: no node count found")
    if len(coords) != n:
        raise ConfigError(f"expected {n} points, found {len(coords)}")
    return TspInstance.from_coordinates(name, coords)


def serialize_tsp_instance(instance: TspInstance) -> str:
    """Inverse of :func:`load_tsp_instance`: the instance's coordinates as text."""
    lines = [str(instance.n)]
    for i, (x, y) in enumerate(instance.coordinates):
        lines.append(f"{i} {float(x)!r} {float(y)!r}")
    return "\n".join(lines) + "\n"


def random_tsp_instance(n: int, stream: RngStream) -> TspInstance:
    """n points drawn uniformly from the unit square, deterministic per stream."""
    n = _count(n, "n")  # DistanceGraph refuses fewer than 3 nodes
    coords = stream.next_uniforms(2 * n).reshape(n, 2)
    return TspInstance.from_coordinates(f"random{n}", coords)


def enumerate_distinct_tours(n: int) -> Iterator[tuple[int, ...]]:
    """All (n-1)!/2 distinct closed tours, node 0 first, one direction each.

    Direction duplicates are dropped by requiring the second node to be
    smaller than the last; output is in lexicographic order.
    """
    for perm in itertools.permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield (0,) + perm


def brute_force_tsp(instance: TspInstance) -> Tour:
    """Exact shortest closed tour by exhaustive enumeration.

    Refuses instances above BRUTE_FORCE_MAX_NODES nodes. Ties go to the
    lexicographically smallest order, which the enumeration visits first.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_NODES:
        raise ConfigError(
            f"brute force refused: {n} nodes exceeds the limit of {BRUTE_FORCE_MAX_NODES}"
        )
    d = instance.graph.distance
    best_order = None
    best_length = math.inf
    for order in enumerate_distinct_tours(n):
        total = 0.0
        prev = 0
        for node in order[1:]:
            total += d[prev, node]
            prev = node
        total += d[prev, 0]
        if total < best_length:
            best_length = total
            best_order = order
    return Tour(order=best_order, length=float(best_length))
