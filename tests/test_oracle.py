"""Reference-oracle tests: the oracles themselves must be independently right."""

import itertools
import random
from collections import Counter

import pytest

from conftest import depth_list, random_priorities
from scoretreap.errors import ConfigError
from scoretreap.oracle import (
    ExhaustiveStats,
    analytic_expected_depth,
    naive_depths,
    optimal_static_bst_cost,
)
from scoretreap.priorities import RandomStream
from scoretreap.sequences import TraceSpec, gen_sequence
from scoretreap.treap import Treap


def brute_force_bst_cost(freqs: list[int]) -> int:
    """Plain exponential recursion over root choices, no memo, no pruning."""

    def best(lo: int, hi: int) -> int:
        if lo > hi:
            return 0
        window = sum(freqs[lo : hi + 1])
        return window + min(best(lo, r - 1) + best(r + 1, hi) for r in range(lo, hi + 1))

    return best(0, len(freqs) - 1)


def row_only_bst_cost(frequencies: list[int]) -> int:
    """The interval DP as it was before it kept columns: the inner loop reads
    cost[r + 1][j] from the row table, and ties keep the first root."""
    n = len(frequencies)
    f = list(frequencies)
    W = [0] * (n + 1)
    for i in range(n):
        W[i + 1] = W[i] + f[i]
    cost = [[0] * (n + 1) for _ in range(n + 2)]
    root = [[0] * (n + 1) for _ in range(n + 2)]
    for i in range(1, n + 1):
        cost[i][i] = f[i - 1]
        root[i][i] = i
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            lo = root[i][j - 1]
            hi = root[i + 1][j]
            ci = cost[i]
            best = None
            best_r = lo
            for r in range(lo, hi + 1):
                c = ci[r - 1] + cost[r + 1][j]
                if best is None or c < best:
                    best = c
                    best_r = r
            cost[i][j] = best + (W[j] - W[i - 1])
            root[i][j] = best_r
    return cost[1][n]


class TestNaiveDepths:
    def test_three_key_example(self):
        pris = {1: (0, 0.9), 2: (0, 0.5), 3: (0, 0.7)}
        assert naive_depths(pris) == {1: 1, 3: 2, 2: 3}

    def test_agrees_with_treap_build(self, py_rng):
        for _ in range(120):
            n = py_rng.randint(1, 10)
            pris = random_priorities(py_rng, n)
            assert depth_list(naive_depths(pris), n) == Treap.build(pris).depths()


class TestOptimalStaticBstCost:
    def test_hand_instances(self):
        assert optimal_static_bst_cost([5]) == 5
        # root 2 serves the heavy key at depth 1: 2*1 + 1*2
        assert optimal_static_bst_cost([1, 2]) == 4
        # balanced tree over three uniform keys: 1 + 2 + 2
        assert optimal_static_bst_cost([1, 1, 1]) == 5

    def test_empty_and_zero(self):
        assert optimal_static_bst_cost([]) == 0
        assert optimal_static_bst_cost([0, 0]) == 2 * 0

    def test_matches_brute_force(self, py_rng):
        for _ in range(60):
            n = py_rng.randint(1, 7)
            freqs = [py_rng.randint(0, 9) for _ in range(n)]
            assert optimal_static_bst_cost(freqs) == brute_force_bst_cost(freqs)

    def test_matches_the_row_only_dp(self, py_rng):
        for _ in range(300):
            n = py_rng.randint(1, 60)
            hi = py_rng.choice([1, 3, 50, 10**6])
            freqs = [py_rng.randint(0, hi) for _ in range(n)]
            assert optimal_static_bst_cost(freqs) == row_only_bst_cost(freqs), freqs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_row_only_dp_on_the_c03_traces(self, seed):
        # the static-optimality claim's zipf n=1024, m=1e5 trace at this seed
        seq = gen_sequence(TraceSpec("zipf", n=1024, m=100_000, seed=seed, s=1.0))
        counts = Counter(seq.items)
        freqs = [counts.get(k, 0) for k in range(1, 1025)]
        assert optimal_static_bst_cost(freqs) == row_only_bst_cost(freqs)

    def test_never_beaten_by_any_random_treap(self, py_rng):
        for _ in range(40):
            n = py_rng.randint(2, 12)
            freqs = [py_rng.randint(0, 5) for _ in range(n)]
            opt = optimal_static_bst_cost(freqs)
            rng = RandomStream(py_rng.randint(0, 10**6))
            t = Treap.build_arrays([0] * n, [rng.next_offset() for _ in range(n)])
            cost = sum(f * d for f, d in zip(freqs, [t.access(k) for k in range(1, n + 1)]))
            assert cost >= opt

    def test_size_limit_guard(self):
        with pytest.raises(ConfigError):
            optimal_static_bst_cost([1] * 2001)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="^frequencies must be non-negative$"):
            optimal_static_bst_cost([3, -1, 2])


class TestAnalyticExpectedDepth:
    def test_small_closed_forms(self):
        assert analytic_expected_depth(1, 1) == pytest.approx(1.0)
        assert analytic_expected_depth(1, 2) == pytest.approx(1.5)
        assert analytic_expected_depth(2, 3) == pytest.approx(0.5 + 1.0 + 0.5)

    def test_symmetry(self):
        n = 33
        for x in range(1, n + 1):
            assert analytic_expected_depth(x, n) == pytest.approx(
                analytic_expected_depth(n + 1 - x, n)
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            analytic_expected_depth(0, 5)
        with pytest.raises(ValueError):
            analytic_expected_depth(6, 5)

    def test_matches_exhaustive_priority_orders(self):
        # with tier 0 and distinct offsets, the treap shape depends only on
        # the relative order of offsets: average depth over all n! orders
        n = 5
        for x in range(1, n + 1):
            total = 0
            count = 0
            for perm in itertools.permutations(range(n)):
                offs = [(p + 1) / (n + 1) for p in perm]
                t = Treap.build_arrays([0] * n, offs)
                total += t.access(x)
                count += 1
            assert total / count == pytest.approx(analytic_expected_depth(x, n))


class TestExhaustiveStats:
    SEQ = [1, 2, 3, 1]

    def test_worked_example(self):
        st = ExhaustiveStats(self.SEQ, 3)
        assert st.work_past(4, 1) == 2
        assert st.interval(1, 1) == 3
        assert st.future(1, 1) == 2
        assert st.prev(4, 1) == 4 and st.prev_strict(4, 1) == 1
        assert st.next(1, 1) == 4 and st.next(4, 1) == 0

    def test_sentinels(self):
        st = ExhaustiveStats(self.SEQ, 3)
        assert st.work_past(1, 1) == 3  # unseen -> n
        assert st.work_past(2, 2) == 3
        assert st.interval(4, 2) == 3  # never reappears -> n
        assert st.future(4, 1) == 3

    def test_future_equals_work_at_next_occurrence(self, py_rng):
        for _ in range(60):
            n = py_rng.randint(2, 10)
            m = py_rng.randint(1, 30)
            items = [py_rng.randint(1, n) for _ in range(m)]
            st = ExhaustiveStats(items, n)
            for i in range(1, m + 1):
                key = items[i - 1]
                nx = st.next(i, key)
                if nx:
                    assert st.future(i, key) == st.work_past(nx, key)
