"""The per-test time limit that ``conftest`` arms around every test."""

import signal

import pytest

from conftest import TEST_TIME_LIMIT_S, time_limit
from scoretreap.treap import Treap


def test_every_test_runs_under_the_suite_limit():
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_TIME_LIMIT_S


def test_a_parent_link_cycle_times_out_and_the_suite_limit_returns():
    t = Treap.build({1: (0, 0.9), 2: (0, 0.5), 3: (0, 0.7)})
    t._parent[1] = 3  # root 1 and its child 3 now point at each other
    with pytest.raises(TimeoutError):
        with time_limit(0.05):
            t.access(2)  # walks 2 -> 3 -> 1 -> 3 -> ... forever
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_TIME_LIMIT_S
