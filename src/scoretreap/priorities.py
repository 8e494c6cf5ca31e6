"""Priority assignment rules mapping per-item scores to treap priorities.

The randomized rules take a whole weight sequence and return its
``(tiers, offsets)`` lists, the arrays ``Treap.build_arrays`` takes: key ``k``
gets ``tiers[k-1]`` and ``offsets[k-1]``.  The doubly-logarithmic rules bucket
an item of score ``w`` into tier ``floor(log_outer(log_inner(1/w)))`` clamped
at 0, computed once per distinct weight, and give every key a fresh uniform
offset in (0, 1), drawn in key order.  ``raw_score_priority`` maps one score
to one ``(tier, offset)`` pair, the form ``Treap.build`` takes.  The score
forests take tiers, never weights: each names its rule's outer base as
``OUTER_BASE`` (the inner base is its fanout B), and the driver
(``dynamic.run_dynamic``) maps weights to their tiers.  Tier arithmetic uses
integer power walks so scores that are exact powers of the inner base land in
the mathematically exact tier instead of flickering across a floating-point
floor boundary.
"""

from __future__ import annotations

import math
import random
from itertools import islice, repeat
from typing import Iterator, Sequence

__all__ = [
    "RandomStream",
    "tier_value",
    "COMPOSITE_TIER_BASES",
    "composite_priority",
    "single_log_priority",
    "raw_score_priority",
]

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer; used only to derive child seeds deterministically
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Seeded stream of uniform offsets in the open interval (0, 1).

    Draw ``k`` of a stream is a deterministic function of the seed, so two
    streams with equal seeds produce identical offsets draw for draw.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._rng = random.Random(self.seed)

    def next_offset(self) -> float:
        u = self._rng.random()
        while u <= 0.0:  # random() yields [0, 1); keep the interval open
            u = self._rng.random()
        return u

    def draws(self) -> Iterator[float]:
        """The ``next_offset`` sequence as an iterator that draws only when
        advanced, so it can be interleaved with the other methods; mapped
        over ``repeat()``, a draw runs no Python frame."""
        return filter(None, map(random.Random.random, repeat(self._rng)))

    def offsets(self, k: int) -> list[float]:
        """``k`` offsets: the values and the draws of ``k`` calls of ``next_offset``."""
        return list(islice(self.draws(), k))

    def spawn(self, tag: int) -> "RandomStream":
        """Independent child stream, deterministic in (seed, tag)."""
        return RandomStream(_mix64(self.seed ^ _mix64(tag)))


# ----------------------------------------------------------------------
# tier arithmetic


def _exact_inverse_power(w: float, base: int) -> int | None:
    """If ``1/w`` equals ``base**k`` exactly for an integer k >= 0, return k."""
    inv = 1.0 / w
    if math.isinf(inv) or inv != int(inv):
        return None
    target = int(inv)
    k = 0
    p = 1
    while p < target:
        p *= base
        k += 1
    return k if p == target else None


def _lg_inverse(w: float) -> int | float:
    """``log2(1/w)`` for 0 < w < 1, as the exact int when 1/w is a power of 2."""
    m, e = math.frexp(w)
    if m == 0.5:  # w = 2^(e-1)
        return 1 - e
    return -math.log2(w)


def _floor_log(value: float, base: int) -> int:
    """floor(log_base(value)) for value >= 1, exact given the float value."""
    if base == 2 and isinstance(value, float):
        m, e = math.frexp(value)
        return e - 1  # m in [0.5, 1)
    k = 0
    p = base
    while p <= value:
        k += 1
        p *= base
    return k


def tier_value(w: float, inner_base: int, outer_base: int) -> int:
    """``max(0, floor(log_outer(log_inner(1/w))))`` for a positive score."""
    if not 0.0 < w < math.inf:
        raise ValueError(f"score must be a positive finite number, got {w!r}")
    if w >= 1.0:
        return 0
    if inner_base == 2:
        inner: float | int = _lg_inverse(w)
    else:
        k = _exact_inverse_power(w, inner_base)
        inner = k if k is not None else -math.log(w) / math.log(inner_base)
    if inner < 1:
        return 0
    return _floor_log(inner, outer_base)


def single_log_tier(w: float) -> int:
    """``max(0, floor(log2(1/w)))`` -- the single-log bucketing rule."""
    if not 0.0 < w < math.inf:
        raise ValueError(f"score must be a positive finite number, got {w!r}")
    if w >= 1.0:
        return 0
    return math.floor(_lg_inverse(w))


# ----------------------------------------------------------------------
# priority rules

COMPOSITE_TIER_BASES = (2, 2)  # (inner, outer) of the rule for binary trees


def composite_priority(weights: Sequence[float], rng: RandomStream) -> tuple[list[int], list[float]]:
    """Doubly-logarithmic rule for binary trees: tier floor(lg lg (1/w)) per weight."""
    inner, outer = COMPOSITE_TIER_BASES
    tier_of = {w: tier_value(w, inner, outer) for w in dict.fromkeys(weights)}
    return list(map(tier_of.__getitem__, weights)), rng.offsets(len(weights))


def single_log_priority(weights: Sequence[float], rng: RandomStream) -> tuple[list[int], list[float]]:
    """Singly-logarithmic bucketing; kept as a deliberately weak baseline."""
    tier_of = {w: single_log_tier(w) for w in dict.fromkeys(weights)}
    return list(map(tier_of.__getitem__, weights)), rng.offsets(len(weights))


def raw_score_priority(w: float) -> tuple[int, float]:
    """Deterministic priority whose order equals the score order.

    Scores are squashed through ``w / (1 + w)`` so they fit the (0, 1) offset
    slot; the map is strictly increasing, so relative order is preserved and
    remaining ties resolve by key inside the tree.
    """
    if not w > 0.0 or math.isinf(w) or math.isnan(w):
        raise ValueError(f"score must be a positive finite number, got {w!r}")
    return 0, w / (1.0 + w)
