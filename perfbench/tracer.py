"""Span recording around swarmkit's module functions, from outside the package.

Tracing patches the names each module looks up at call time (for example
``swarmkit.pso.step`` or ``RngStream.next_uniforms``) with wrappers that
record one span per call: name, start, end and the enclosing span. Spans are
kept in flat arrays in memory and written once, at the end of the run.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from swarmkit import aco, cli, core, problems, pso


def _transitions(tour) -> int:
    return len(tour.order) - 1


class Recorder:
    """Spans of one traced ``run_experiment`` call, plus value tallies."""

    def __init__(self, names: list):
        self.names = names  # shared name table; a span stores the index
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.tallies: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn, tally=None):
        """``fn`` recording a span per call; ``tally=(key, f)`` adds ``f(result)`` to a tally."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tally is not None:
                key, f = tally
                self.tallies[key] = self.tallies.get(key, 0) + f(result)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it and never overlap one another.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


# (owner, attribute, span name, tally) for the calls made inside a seed's run.
_SEED_SIDE = (
    (core.RngStream, "next_uniform", "core.rng", ("core.rng.values", lambda value: 1)),
    (core.RngStream, "next_uniforms", "core.rng", ("core.rng.values", lambda values: values.size)),
    (pso, "record_iteration", "core.record", None),
    (aco, "record_iteration", "core.record", None),
    (problems, "sphere", "problems.objective", None),
    (problems, "rastrigin", "problems.objective", None),
    (problems, "rosenbrock", "problems.objective", None),
    (pso, "initialize_swarm", "pso.init", None),
    (pso, "step", "pso.step", None),
    (aco, "construct_tour", "aco.construct", ("aco.transitions", _transitions)),
    (aco, "tour_length", "aco.tour_length", None),
    (aco, "evaporate", "aco.pheromone", None),
    (aco, "deposit", "aco.pheromone", None),
)

# Calls made by the process that calls run_experiment, whatever the worker count.
_PARENT_SIDE = (
    (cli, "emit_summary", "cli.summary", None),
    (cli, "_atomic_write", "cli.summary", None),
)


def _with_traced_writer(recorder: Recorder, fn):
    """``fn`` (cli's optimize or optimize_aco) with its ``on_iteration`` writer traced."""

    @functools.wraps(fn)
    def call(*args, on_iteration=None, **kwargs):
        if on_iteration is not None:
            on_iteration = recorder.wrap("cli.trace_write", on_iteration)
        return fn(*args, on_iteration=on_iteration, **kwargs)

    return call


class Tracing:
    """Context manager that installs a recorder's wrappers and restores the originals.

    With ``parent_only`` (runs whose seeds execute in worker processes) only
    the calls made in this process are wrapped.
    """

    def __init__(self, recorder: Recorder, parent_only: bool):
        self.recorder = recorder
        self.targets = _PARENT_SIDE if parent_only else _SEED_SIDE + _PARENT_SIDE
        self.parent_only = parent_only
        self._saved: list = []

    def __enter__(self):
        for owner, attr, name, tally in self.targets:
            self._patch(owner, attr, self.recorder.wrap(name, getattr(owner, attr), tally))
        if not self.parent_only:
            for attr in ("optimize", "optimize_aco"):
                self._patch(cli, attr, _with_traced_writer(self.recorder, getattr(cli, attr)))
        return self.recorder

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

