"""Workload generators: distributions and access traces.

A trace's working-set sizes are counted offline by ``dynamic.compute_stats``,
which marks the latest access time of each key and counts the marks.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from .distributions import Distribution
from .errors import ConfigError

__all__ = [
    "TraceSpec",
    "AccessSequence",
    "gen_distribution",
    "gen_sequence",
]

DISTRIBUTION_FAMILIES = ("zipf", "uniform", "linear", "segmented")
SEQUENCE_FAMILIES = DISTRIBUTION_FAMILIES + ("round-robin", "block-repeat")


@dataclass
class TraceSpec:
    """What to generate: a family plus its knobs."""

    family: str
    n: int = 0
    m: int = 0
    seed: int = 0
    s: float = 1.0  # zipf exponent


@dataclass
class AccessSequence:
    """A trace of key accesses over the universe ``1..n`` (times are 1-based)."""

    n: int
    items: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"universe size must be >= 1, got {self.n}")
        items = self.items
        # min and max in C; the loop runs only to name the first bad access
        if items and not (1 <= min(items) and max(items) <= self.n):
            for i, k in enumerate(items, start=1):
                if not 1 <= k <= self.n:
                    raise ConfigError(f"access {i}: key {k} outside 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.items)

    def at(self, i: int) -> int:
        """Key accessed at time i (1-based); IndexError outside 1..m."""
        if not 1 <= i <= len(self.items):
            raise IndexError(f"time {i} outside 1..{len(self.items)}")
        return self.items[i - 1]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def gen_distribution(spec: TraceSpec) -> Distribution:
    """Build the distribution for a distributional family."""
    n = spec.n
    _require(n >= 1, f"n must be >= 1, got {n}")
    fam = spec.family
    if fam == "uniform":
        return Distribution.uniform(n)
    if fam == "zipf":
        _require(spec.s >= 0, f"zipf exponent must be >= 0, got {spec.s}")
        return Distribution.from_unnormalized([1.0 / (x ** spec.s) for x in range(1, n + 1)])
    if fam == "linear":
        denom = n * (n + 1)
        return Distribution([2.0 * (n - x + 1) / denom for x in range(1, n + 1)])
    if fam == "segmented":
        return _segmented(n)
    raise ConfigError(f"family {fam!r} has no distribution (sequence-only or unknown)")


def _segmented(n: int) -> Distribution:
    """Half-lg-n geometric segments; the tail keys carry zero mass.

    Segment i (1-based, i <= K = lg(n)/2) holds ``2^(1-i) * n / K`` keys of
    mass ``2^(i-1) / n`` each, laid out left to right; the leftover keys get
    mass zero.  Requires n to be an even power of two so K is integral.
    """
    _require(n >= 16, f"segmented family needs n >= 16, got {n}")
    lg = n.bit_length() - 1
    _require(1 << lg == n and lg % 2 == 0, f"segmented family needs n an even power of 2, got {n}")
    K = lg // 2
    masses = [0.0] * n
    pos = 0
    for i in range(1, K + 1):
        size = (n // K) >> (i - 1)  # at least 2^(K+1) // K >= 1 keys
        unit = float(1 << (i - 1)) / n
        for _ in range(size):
            masses[pos] = unit
            pos += 1
    total = math.fsum(masses)
    return Distribution([v / total for v in masses])


def gen_sequence(spec: TraceSpec) -> AccessSequence:
    """Build an access trace for any sequence family."""
    fam = spec.family
    n, m = spec.n, spec.m
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(m >= 1, f"m must be >= 1, got {m}")
    if fam == "round-robin":
        items = [(i % n) + 1 for i in range(m)]
        return AccessSequence(n, items)
    if fam == "block-repeat":
        base, extra = divmod(m, n)
        items: list[int] = []
        for k in range(1, n + 1):
            items.extend([k] * (base + (1 if k <= extra else 0)))
        return AccessSequence(n, items)
    if fam in DISTRIBUTION_FAMILIES:
        dist = gen_distribution(spec)
        cum: list[float] = []
        acc = 0.0
        for v in dist.masses():
            acc += v
            cum.append(acc)
        cum[-1] = 1.0  # guard the final bucket against fp drift
        bisect_left = bisect.bisect_left
        draw = random.Random(spec.seed).random
        items = [bisect_left(cum, draw()) + 1 for _ in range(m)]
        return AccessSequence(n, items)
    raise ConfigError(f"unknown sequence family {fam!r}")
