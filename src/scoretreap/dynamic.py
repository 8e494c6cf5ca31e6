"""Time-varying scores over an access sequence.

``compute_stats`` extracts, in one sweep that counts marked access times in
a byte array and in per-block sums, the per-step backward working-set size
and its forward (next-access) counterpart; the between-occurrences interval
size is built from the forward one on first read.  On top of those:

* ``CrudeOracle`` -- a move-to-front list with one pointer per power-of-two
  rank boundary; scores rounded to the next power of two, refreshed only for
  the items whose rank steps over a boundary, with no rank query.  A step
  returns keys only: the key at index r takes band r, the score 2^r - 1.
* ``run_dynamic`` -- drives a scheme x structure pair over a trace and
  tallies access/update/rebuild costs plus the weight trajectory sums that
  the cost-decomposition check consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Sequence

from .em import DetScoreForest, RankForest, TierForestBTreap
from .errors import ConfigError
from .priorities import COMPOSITE_TIER_BASES, RandomStream, composite_priority, tier_value
from .sequences import AccessSequence
from .treap import Treap

__all__ = [
    "SequenceStats",
    "compute_stats",
    "CrudeOracle",
    "CostBreakdown",
    "run_dynamic",
    "cost_decomposition_check",
    "SCHEMES",
    "STRUCTURES",
]

SCHEMES = ("interval-set", "future-ws-exact", "future-ws-noisy", "past-ws-crude", "static")
STRUCTURES = ("treap", "tier-forest", "det-forest", "rank-forest")

NORM_CEILING = math.pi * math.pi / 6.0
NORM_STEADY = 0.645


@dataclass
class SequenceStats:
    """Per-step statistics of one access sequence (arrays are 1-based).

    ``work[i]`` is the backward working-set size of the served item
    (distinct items since its previous access; n on a first access).
    ``future[i]`` counts distinct items strictly between i and the served
    item's next access (n when it never reappears); by construction
    ``future`` at one occurrence equals ``work`` at the next.
    ``interval[i]`` is the served item's between-occurrences interval size,
    window closed at the next access (n when it never reappears).  One sweep
    yields ``work`` and ``future``; ``interval`` is built from ``future`` on
    first read and the same list is returned after that.
    """

    n: int
    m: int
    work: list[int]
    future: list[int]

    @cached_property
    def interval(self) -> list[int]:
        # the window also holds the access that closes it; future is at most
        # n - 1 when the item reappears
        n = self.n
        return [0] + [f + 1 if f < n else n for f in self.future[1:]]


def compute_stats(seq: AccessSequence) -> SequenceStats:
    n, m, items = seq.n, seq.m, seq.items
    work = [0] + [n] * m
    future = [0] + [n] * m
    last = [0] * (n + 1)
    # marks[t] is 1 while time t is the latest access of its key, so the
    # marks after x's previous access p are the distinct keys served since:
    # work at i, and future at p (future at one occurrence is work at the
    # next).  count[b] sums the marks of block b, times b*2^sh .. (b+1)*2^sh - 1,
    # about sqrt(m) blocks in all.  No time at or after i is marked yet, so the
    # marks after p are the marks from p + 1 to the end of i's block, or all
    # ``seen`` marks less those up to p: count whichever side spans fewer
    # blocks.
    sh = max(6, (m.bit_length() + 1) // 2)
    marks = bytearray(m + 1)
    count = [0] * ((m >> sh) + 1)
    seen = 0
    for i, x in enumerate(items, start=1):
        p = last[x]
        if p:
            bp, bi = p >> sh, i >> sh
            if bp == bi:
                w = marks.count(1, p + 1, i)
            elif bi - bp <= bp:
                w = marks.count(1, p + 1, (bp + 1) << sh) + sum(count[bp + 1:bi + 1])
            else:
                w = seen - sum(count[:bp]) - marks.count(1, bp << sh, p + 1)
            work[i] = future[p] = w
            marks[p] = 0
            count[bp] -= 1
        else:
            seen += 1
        last[x] = i
        marks[i] = 1
        count[i >> sh] += 1
    return SequenceStats(n=n, m=m, work=work, future=future)


def _check_norm(norm: float, steady: bool) -> None:
    """The interval-set norm certificate: pi^2/6 always, and the steady
    bound once every item has been served."""
    if norm > NORM_CEILING + 1e-9:
        raise AssertionError(f"norm {norm} exceeds pi^2/6")
    if steady and norm > NORM_STEADY + 1e-9:
        raise AssertionError(f"norm {norm} exceeds steady bound {NORM_STEADY}")


class CrudeOracle:
    """Move-to-front recency order with lazily rounded scores.

    The seen items sit on a doubly linked move-to-front list (``prev`` and
    ``next``, 0 past either end; ``head`` is rank 1, ``tail`` rank
    ``seen``), ``at[j]`` is the item at rank 2^j for every 2^j <= seen, and
    ``band[x]`` is the bit length of x's exact work rank(x) - 1 (-1 while x
    is unseen).  The band is the only record of a score: a seen item's
    rounded score is 2^band[x] - 1, and an unseen one keeps the driver's
    starting weight, that of the sentinel working-set size n.  An access at
    rank r moves each item at rank 2^j < r one place back, to work exactly
    2^j: those ``band[key]`` items are ``at[:band[key]]``, and no rank is
    ever queried.  The rounded score of an item therefore changes only when
    its rank crosses a power of two, so at most floor(log2 n) + 1 items (the
    accessed one plus one per boundary) refresh per step, each in O(1).
    """

    def __init__(self, n: int):
        self.n = n
        self.band = [-1] * (n + 1)
        self.prev = [0] * (n + 1)
        self.next = [0] * (n + 1)
        self.head = self.tail = 0
        self.seen = 0
        self.at: list[int] = []

    def step(self, key: int) -> list[int]:
        """Serve ``key``; returns U_i as keys whose index is their new band.

        The key at index r takes band r, the rounded score 2^r - 1.  Index 0
        is the served item (score 0); index r >= 1 is the item whose rank
        stepped over the boundary 2^(r-1): it now sits at rank 2^(r-1) + 1.
        """
        if not 1 <= key <= self.n:
            raise KeyError(key)
        band, at, prev, nxt = self.band, self.at, self.prev, self.next
        c = band[key]
        first = c < 0
        if first:
            c = self.seen.bit_length()
        elif c == 0:  # already at the front
            return [key]
        elif c < len(at) and at[c] == key:  # key sits on boundary 2^c
            at[c] = prev[key]
        out = [key]
        for j in range(c):
            item = at[j]
            band[item] = j + 1
            out.append(item)
            at[j] = prev[item]
        band[key] = 0
        if first:
            self.seen += 1
        else:  # unlink; key is not the head here
            p, q = prev[key], nxt[key]
            nxt[p] = q
            if q:
                prev[q] = p
            else:
                self.tail = p
        head = self.head
        prev[key] = 0
        nxt[key] = head
        if head:
            prev[head] = key
        else:
            self.tail = key
        self.head = key
        if c:
            at[0] = key
        if first and not self.seen & (self.seen - 1):
            at.append(self.tail)  # a new boundary at rank seen
        return out

    def validate(self) -> str | None:
        """The list, boundary pointers and bands agree with each other."""
        order: list[int] = []
        x, before = self.head, 0
        while x and len(order) <= self.seen:
            if not 1 <= x <= self.n:
                return f"link after {before} points to {x}, outside 1..{self.n}"
            if self.prev[x] != before:
                return f"prev of {x} is {self.prev[x]}, but {before} links to it"
            order.append(x)
            before, x = x, self.next[x]
        if len(order) != self.seen or before != self.tail:
            return (f"list from head {self.head} ends at {before} after {len(order)} "
                    f"items; tail is {self.tail}, {self.seen} seen")
        want = [order[(1 << j) - 1] for j in range(self.seen.bit_length())]
        if self.at != want:
            return f"boundary pointers {self.at}, expected {want}"
        on_list = set(order)  # no repeats: each prev link was checked
        for rank, x in enumerate(order, start=1):
            b = (rank - 1).bit_length()
            if self.band[x] != b:
                return f"item {x} at rank {rank} has band {self.band[x]}, expected {b}"
        for x in range(1, self.n + 1):
            if x not in on_list and self.band[x] != -1:
                return f"unseen item {x} has band {self.band[x]}, expected -1"
        return None


@dataclass
class CostBreakdown:
    """Measured costs of one driver run plus the weight-trajectory sums."""

    scheme: str
    structure: str
    n: int
    m: int
    base: float  # cost unit: 2 for comparison structures, B for block ones
    access_cost: int = 0
    update_cost: int = 0
    rebuild_cost: int = 0
    access_log_nat: float = 0.0  # sum of ln(1/w) over served items, at access time
    shift_l1_nat: float = 0.0  # sum over updates of |ln w_new - ln w_old|
    update_events: int = 0
    steps: list[tuple] = field(default_factory=list)

    @property
    def total_cost(self) -> int:
        return self.access_cost + self.update_cost + self.rebuild_cost


def _scheme_scores(scheme: str, stats: SequenceStats | None,
                   predicted: Sequence[float] | None, m: int, n: int):
    """Per-step stored score after serving, 1-based, or None for score-free
    schemes; the exact schemes return the statistics' own lists."""
    if scheme == "past-ws-crude" and predicted is not None:
        raise ConfigError("past-ws-crude derives its own scores")
    if scheme in ("static", "past-ws-crude"):
        return None  # score-free here: crude scores come from the oracle
    if scheme == "interval-set":
        return stats.interval
    if scheme == "future-ws-exact":
        return stats.future
    if scheme == "future-ws-noisy":
        if predicted is None:
            raise ConfigError("future-ws-noisy needs predicted scores")
        if len(predicted) != m:
            raise ConfigError(f"predicted scores length {len(predicted)} != m {m}")
        clamped = [min(max(float(s), 0.0), float(n)) for s in predicted]
        for j, s in enumerate(clamped):
            if s != s:  # NaN survives the clamp; inf clamps to n
                raise ConfigError(f"predicted score {j} is NaN")
        return [0.0] + clamped


def _score_row(s: float, inner: int, outer: int) -> tuple[float, float, int]:
    """(w, log w, tier) of a score s: w = 1/(1+s)^2 under the tier rule
    (inner, outer)."""
    w = 1.0 / (1.0 + s) ** 2
    return w, math.log(w), tier_value(w, inner, outer)


def _band_tables(n: int, w0: float, inner: int,
                 outer: int) -> tuple[list[int], list[float], list[list[float]]]:
    """The crude scheme's rows by band: band r has score 2^r - 1, for
    r = 0 .. (n-1).bit_length().  Returns the tier and log weight of each
    band, the log weights ending with the starting weight ``w0``'s so that
    band -1 (unseen) reads it, and for each update-set size k the shifts
    |log w_r - log w_(r-1)| of the keys at index r = 1 .. k - 1."""
    rows = [_score_row((1 << r) - 1, inner, outer) for r in range((n - 1).bit_length() + 1)]
    tiers = [tier for _, _, tier in rows]
    lws = [lw for _, lw, _ in rows]
    shifts = [0.0] + [abs(lws[r] - lws[r - 1]) for r in range(1, len(lws))]
    return tiers, lws + [math.log(w0)], [shifts[1:k] for k in range(len(lws) + 1)]


def run_dynamic(
    seq: AccessSequence,
    scheme: str,
    structure: str,
    B: int | None = None,
    *,
    rng: RandomStream,
    predicted_scores: Sequence[float] | None = None,
    stats: SequenceStats | None = None,
    keep_steps: bool = False,
) -> CostBreakdown:
    """Play one trace against one structure under one weight scheme.

    Protocol per step: access the served item at its current stored weight,
    then re-weight the scheme's update set, drawing a fresh priority offset
    for every re-weighted item.  All items start at weight 1/(n+1)^2, and a
    score s maps to the weight 1/(1+s)^2, the form the norm certificate of
    the interval-set scheme is stated for; under that scheme the driver
    checks the certificate on its own weights.  The block structures need the
    fanout ``B``.  The driver alone applies a structure's tier rule,
    ``tier_value(w, inner, outer)``: (2, 2) for the treap and
    (B, ``OUTER_BASE``) for a score forest.  It builds the structure from the
    starting weight's tier; a structure takes the tier on update.  The exact
    schemes map each score to its weight, log weight and tier through a memo
    kept per run.  The crude scheme reads per-band tables built once per
    run: its oracle's keys come by band, and one ``update_rows`` call plays
    a step's whole set.  An update costs the pair (search touches, rebuild
    writes), which the driver adds to ``update_cost`` and ``rebuild_cost``:
    the tier forest's ``update_weight`` returns that pair; the treap's keys
    passed plus one and the det forest's block touches come with no rebuild
    writes.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if structure not in STRUCTURES:
        raise ConfigError(f"unknown structure {structure!r}")
    if structure != "treap" and B is None:
        raise ConfigError(f"structure {structure} needs a block fanout B")
    n, m = seq.n, seq.m
    needs_stats = scheme in ("interval-set", "future-ws-exact", "future-ws-noisy") or keep_steps
    if needs_stats and stats is None:
        stats = compute_stats(seq)
    scores = _scheme_scores(scheme, stats, predicted_scores, m, n)
    oracle = CrudeOracle(n) if scheme == "past-ws-crude" else None

    w0 = 1.0 / (n + 1) ** 2
    weights = [w0] * (n + 1)  # stored weights; only the exact schemes read them
    # the interval-set norm certificate: norm is the sum of the stored weights,
    # which move only on updates; it stays under pi^2/6 throughout and under
    # the steady bound from step ``steady_from``, where the last unseen key is
    # first served (m + 1 when some key is never served)
    certify = scheme == "interval-set"
    norm = n * w0
    steady_from = m + 1
    if certify:
        first_served = dict.fromkeys(seq.items)
        if len(first_served) == n:
            steady_from = seq.items.index(next(reversed(first_served))) + 1
    log_w = [math.log(w0)] * (n + 1)  # log of weights; only the exact schemes read them

    if structure == "treap":
        st = Treap.build_arrays(*composite_priority([w0] * n, rng))
        inner, outer = COMPOSITE_TIER_BASES
        update_priority = st.update_priority
        draws = rng.draws()

        def do_update(x: int, tier: int) -> tuple[int, int]:
            return update_priority(x, tier, next(draws)) + 1, 0

        def update_rows(keys: list[int], tiers: list[int]) -> tuple[int, int]:
            return sum(map(update_priority, keys, tiers, draws)) + len(keys), 0

    elif structure == "tier-forest":
        inner, outer = B, TierForestBTreap.OUTER_BASE
        st = TierForestBTreap([tier_value(w0, inner, outer)] * n, B, rng=rng)
        do_update = st.update_weight

        def update_rows(keys: list[int], tiers: list[int]) -> tuple[int, int]:
            search, writes = zip(*map(do_update, keys, tiers))
            return sum(search), sum(writes)

    elif structure == "det-forest":
        inner, outer = B, DetScoreForest.OUTER_BASE
        st = DetScoreForest([tier_value(w0, inner, outer)] * n, B)
        update_weight = st.update_weight

        def do_update(x: int, tier: int) -> tuple[int, int]:
            return update_weight(x, tier), 0

        def update_rows(keys: list[int], tiers: list[int]) -> tuple[int, int]:
            return sum(map(update_weight, keys, tiers)), 0

    else:  # rank-forest is self-organizing: it ignores the scheme's scores
        st = RankForest(n, B)
        scores = oracle = None
    do_access = st.access

    # the exact schemes map a score to its row through a per-run memo.
    # Integer scores give at most n + 1 distinct values; noisy fractional
    # ones rarely repeat, so the memo is emptied at n + 1 entries
    memo: dict[float, tuple[float, float, int]] = {}
    if oracle is not None:
        band_tier, band_lw, band_shifts = _band_tables(n, w0, inner, outer)
        band = oracle.band

    access_cost = update_cost = rebuild_cost = update_events = 0
    access_log_nat = shift_l1_nat = 0.0
    steps: list[tuple] = []
    updated = 0  # size of the step's update set
    for i, x in enumerate(seq.items, start=1):
        cost = do_access(x)
        access_cost += cost
        if scores is not None:
            # an exact-score scheme re-weights at most the served item
            access_log_nat += -log_w[x]
            s = scores[i]
            row = memo.get(s)
            if row is None:
                if len(memo) > n:
                    memo.clear()
                row = memo[s] = _score_row(s, inner, outer)
            w_new, lw, tier = row
            if w_new == weights[x]:
                updated = 0
            else:
                updated = 1
                if certify:
                    norm += w_new - weights[x]
                    _check_norm(norm, i >= steady_from)
                ucost, rcost = do_update(x, tier)
                update_cost += ucost
                rebuild_cost += rcost
                shift_l1_nat += abs(lw - log_w[x])
                log_w[x] = lw
                weights[x] = w_new
                update_events += 1
            if i == steady_from:
                _check_norm(norm, True)
        elif oracle is not None:
            # the crude scheme re-weights every key it is given, the key at
            # index r to band r; the served key's weight before is its band's
            lw = band_lw[band[x]]
            access_log_nat += -lw
            keys = oracle.step(x)
            ucost, rcost = update_rows(keys, band_tier)
            update_cost += ucost
            rebuild_cost += rcost
            updated = len(keys)
            # one float addition per key, in key order: the served key first
            shift_l1_nat = reduce(add, band_shifts[updated], shift_l1_nat + abs(0.0 - lw))
            update_events += updated
        else:  # no weight ever moves
            access_log_nat += -log_w[x]
        if keep_steps:
            steps.append((i, x, cost, updated, stats.work[i], stats.interval[i],
                          stats.future[i]))
    return CostBreakdown(
        scheme=scheme, structure=structure, n=n, m=m,
        base=2.0 if structure == "treap" else float(B),
        access_cost=access_cost, update_cost=update_cost, rebuild_cost=rebuild_cost,
        access_log_nat=access_log_nat, shift_l1_nat=shift_l1_nat,
        update_events=update_events, steps=steps)


def cost_decomposition_check(breakdown: CostBreakdown) -> dict:
    """Compare measured total cost against the weight-trajectory bound.

    The bound is 8 (n log_b n + sum log_b(1/w at access) + total L1 shift
    of log_b weights) + 8n, with b the structure's cost base.
    """
    b = breakdown.base
    lb = math.log(b)
    n = breakdown.n
    rhs_terms = {
        "n_log_n": n * math.log(max(n, 2)) / lb,
        "access_weight": breakdown.access_log_nat / lb,
        "weight_shift": breakdown.shift_l1_nat / lb,
    }
    rhs = sum(rhs_terms.values())
    budget = 8.0 * rhs + 8.0 * n
    lhs = breakdown.total_cost
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rhs_terms": rhs_terms,
        "budget": budget,
        "ratio": lhs / rhs if rhs > 0 else math.inf,
        "ok": lhs <= budget,
    }
