"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from swarmkit import TspInstance

# pytest's ``pythonpath`` setting reaches only this process; the CLI tests
# also start ``python -m swarmkit`` subprocesses, which need the same path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "swarmkit",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("swarmkit")


class ForcedStream:
    """Stand-in stream that replays a fixed queue of draws.

    Lets tests force exact random values through any code that consumes a
    stream via next_uniform/next_uniforms.
    """

    def __init__(self, values):
        self._values = [float(v) for v in values]

    def next_uniform(self) -> float:
        if not self._values:
            raise AssertionError("forced stream exhausted")
        return self._values.pop(0)

    def next_uniforms(self, n: int) -> np.ndarray:
        return np.array([self.next_uniform() for _ in range(n)])

    @property
    def remaining(self) -> int:
        return len(self._values)


UNIT_SQUARE_COORDS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])

UNIT_SQUARE_TEXT = "# unit square\n4\n0 0.0 0.0\n1 0.0 1.0\n2 1.0 1.0\n3 1.0 0.0\n"


@pytest.fixture
def unit_square() -> TspInstance:
    return TspInstance.from_coordinates("unit-square", UNIT_SQUARE_COORDS)
