"""Brute-force references used to pin down expected values in tests.

Everything in this module is written independently of the production
structures: the treap reference rebuilds trees by repeated argmax, the
optimal-tree reference is an interval DP, and the sequence reference rescans
windows literally.  Keep it that way -- the tests rely on the redundancy.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Mapping, Sequence

from .errors import ConfigError

__all__ = [
    "naive_depths",
    "optimal_static_bst_cost",
    "analytic_expected_depth",
    "ExhaustiveStats",
]


def naive_depths(priorities: Mapping[int, tuple[int, float]]) -> dict[int, int]:
    """Depths of the unique treap over ``(tier, offset)`` pairs, built by
    recursive argmax over intervals."""
    if not priorities:
        return {}
    keys = sorted(priorities)

    def rank(k: int) -> tuple[int, float, int]:
        tier, offset = priorities[k]
        # larger tuple = higher priority; smaller key wins ties
        return (-tier, offset, -k)

    out: dict[int, int] = {}

    def place(ks: list[int], depth: int) -> None:
        if not ks:
            return
        r = max(ks, key=rank)
        out[r] = depth
        i = ks.index(r)
        place(ks[:i], depth + 1)
        place(ks[i + 1 :], depth + 1)

    place(keys, 1)
    return out


def optimal_static_bst_cost(frequencies: Sequence[int]) -> int:
    """Minimum total access cost of any static BST (root counts as depth 1).

    Quadratic interval DP with the classic root-monotonicity pruning; sized
    for n up to 2000.
    """
    n = len(frequencies)
    if n == 0:
        return 0
    if n > 2000:
        raise ConfigError(f"DP reference is limited to n <= 2000, got {n}")
    f = [int(x) for x in frequencies]
    for x in f:
        if x < 0:
            raise ConfigError("frequencies must be non-negative")
    W = list(accumulate(f, initial=0))
    # col[j][i] is the cost of the key interval i..j (1-based), and
    # col[j][j + 1] == 0 stands for the empty one.  Rows i are filled from n
    # down to 1, each left to right, so the inner loop reads two flat lists:
    # the current row (row[r - 1], the cost of i..r-1) and column j
    # (col[j][r + 1], the cost of r+1..j).  root and root_below are the
    # optimal roots of rows i and i + 1, which bound the search; of equal
    # costs the first root is kept.  row[i - 1] is still 0 when row i reads it
    col = [[0] * (n + 2) for _ in range(n + 1)]
    row = [0] * (n + 1)
    root_below = [0] * (n + 1)
    for i in range(n, 0, -1):
        root = [0] * (n + 1)
        row[i] = col[i][i] = f[i - 1]
        root[i] = i
        left = W[i - 1]
        for j in range(i + 1, n + 1):
            lo = root[j - 1]
            hi = root_below[j]
            cj = col[j]
            best = row[lo - 1] + cj[lo + 1]
            best_r = lo
            for r in range(lo + 1, hi + 1):
                c = row[r - 1] + cj[r + 1]
                if c < best:
                    best = c
                    best_r = r
            row[j] = cj[i] = best + (W[j] - left)
            root[j] = best_r
        root_below = root
    return col[n][1]


def analytic_expected_depth(x: int, n: int) -> float:
    """Closed-form expected depth of key x in a uniformly random treap."""
    if not 1 <= x <= n:
        raise ValueError(f"key {x} outside universe 1..{n}")
    return sum(1.0 / (abs(x - y) + 1) for y in range(1, n + 1))


class ExhaustiveStats:
    """Sequence statistics computed by literal window rescans.

    Access times are 1-based.  ``n`` sentinels mark missing previous or next
    occurrences, mirroring the production conventions.
    """

    def __init__(self, items: Sequence[int], n: int):
        self.items = list(items)
        self.n = n
        self.m = len(self.items)
        self.reversed = self.items[::-1]

    def prev(self, i: int, key: int) -> int:
        """Latest access time of ``key`` at or before i, or 0."""
        try:
            # the reversed list's index p is time m - p, so the scan runs
            # backward from time i
            return self.m - self.reversed.index(key, max(self.m - i, 0))
        except ValueError:
            return 0

    def prev_strict(self, i: int, key: int) -> int:
        """Latest access time of ``key`` strictly before i, or 0."""
        return self.prev(i - 1, key) if i > 1 else 0

    def next(self, i: int, key: int) -> int:
        """Earliest access time of ``key`` strictly after i, or 0."""
        try:
            return self.items.index(key, max(i, 0)) + 1  # list index i is time i+1
        except ValueError:
            return 0

    def work_past(self, i: int, key: int) -> int:
        """Distinct items strictly between key's previous access and time i."""
        j = self.prev_strict(i, key)
        if not j:
            return self.n
        return len(set(self.items[j : i - 1]))  # times j+1 .. i-1

    def work_next(self, i: int, key: int) -> int:
        """Distinct items in the window from i+1 through key's next access."""
        nx = self.next(i, key)
        if not nx:
            return self.n
        return len(set(self.items[i:nx]))  # times i+1 .. nx

    def interval(self, i: int, key: int) -> int:
        """Distinct items strictly after prev(i, key) through next(i, key)."""
        nx = self.next(i, key)
        pv = self.prev(i, key)
        if not nx or not pv:
            return self.n
        return len(set(self.items[pv:nx]))  # times pv+1 .. nx

    def future(self, i: int, key: int) -> int:
        """work_past evaluated at key's next access, or the n sentinel."""
        nx = self.next(i, key)
        if not nx:
            return self.n
        return self.work_past(nx, key)
