"""Shared helpers for the test suite."""

import math
import random

import pytest

from scoretreap.priorities import RandomStream


def random_priorities(py: random.Random, n: int, max_tier: int = 3) -> dict[int, tuple[int, float]]:
    """Distinct-by-construction (tier, offset) priorities for keys 1..n."""
    return {k: (py.randint(0, max_tier), py.random()) for k in range(1, n + 1)}


def random_distribution(py: random.Random, n: int, skew: float = 3.0) -> list[float]:
    """A random probability vector with a controllable tail."""
    raw = [py.random() ** skew + 1e-12 for _ in range(n)]
    s = math.fsum(raw)
    return [v / s for v in raw]


@pytest.fixture
def py_rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def stream() -> RandomStream:
    return RandomStream(12345)
