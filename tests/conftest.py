"""Shared helpers for the test suite.

Every test runs under ``TEST_TIME_LIMIT_S``: a loop that never ends (a
parent-link walk around a cycle, say) fails its test with ``TimeoutError``
instead of hanging the suite.
"""

import contextlib
import math
import random
import signal
import time
from typing import Iterator, Mapping

import pytest

from scoretreap.priorities import RandomStream

TEST_TIME_LIMIT_S = 300.0


@contextlib.contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    """Raise ``TimeoutError`` in the body once ``seconds`` of wall time pass.

    Nests: leaving restores the enclosing limit's handler and the time it had
    left, minus the time spent inside.
    """
    def time_is_up(signum, frame):
        raise TimeoutError(f"over the time limit of {seconds} s")

    handler = signal.signal(signal.SIGALRM, time_is_up)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # one limit across the test's setup, call and teardown
    with time_limit(TEST_TIME_LIMIT_S):
        yield


def random_priorities(py: random.Random, n: int, max_tier: int = 3) -> dict[int, tuple[int, float]]:
    """Distinct-by-construction (tier, offset) priorities for keys 1..n."""
    return {k: (py.randint(0, max_tier), py.random()) for k in range(1, n + 1)}


def depth_list(depths: Mapping[int, int], n: int) -> list[int]:
    """A ``{key: depth}`` map in the form ``Treap.depths()`` returns for the
    universe ``1..n``: indexed by key, 0 at absent keys and at index 0."""
    out = [0] * (n + 1)
    for k, d in depths.items():
        out[k] = d
    return out


def parent_of(t, key: int) -> int:
    """A treap key's parent, 0 at the root, read from the node arrays."""
    return t._parent[key]


def left_of(t, key: int) -> int:
    return t._left[key]


def right_of(t, key: int) -> int:
    return t._right[key]


def btree_height(tree) -> int:
    """Blocks on a B-tree's leftmost root-to-leaf path."""
    h = 1
    blk = tree.root
    while blk.children:
        blk = blk.children[0]
        h += 1
    return h


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
