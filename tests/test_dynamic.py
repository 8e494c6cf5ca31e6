"""Sequence statistics, score schemes, the crude oracle, and the dynamic driver.

Window conventions under test (all 1-based):
  work[i]     distinct items strictly between x(i)'s previous access and i,
              with sentinel n on a first access (backward convention);
  future[i]   distinct items strictly between i and x(i)'s next access,
              with sentinel n when it never reappears;
  interval[i] future[i] + 1 (the window is closed at the next access),
              sentinel n when there is no next access.
"""

import collections
import math
import random
import re
import tracemalloc

import pytest

from conftest import parent_of
from scoretreap import dynamic, em
from scoretreap.distributions import noisy_scores
from scoretreap.dynamic import (
    NORM_CEILING,
    NORM_STEADY,
    CostBreakdown,
    CrudeOracle,
    _band_tables,
    _scheme_scores,
    _score_row,
    compute_stats,
    cost_decomposition_check,
    run_dynamic,
)
from scoretreap.em import BTree, DetScoreForest, RankForest, TierForestBTreap
from scoretreap.errors import ConfigError
from scoretreap.oracle import ExhaustiveStats
from scoretreap.priorities import RandomStream, tier_value
from scoretreap.sequences import AccessSequence, TraceSpec, gen_sequence
from scoretreap.treap import Treap


def random_trace(py: random.Random, n: int, m: int) -> AccessSequence:
    return AccessSequence(n, [py.randint(1, n) for _ in range(m)])


class TestComputeStats:
    def test_worked_example(self):
        st = compute_stats(AccessSequence(3, [1, 2, 3, 1]))
        assert st.work[4] == 2
        assert st.future[1] == 2
        assert st.interval[1] == 3
        assert st.work[1] == st.work[2] == st.work[3] == 3  # first accesses
        assert st.interval[4] == 3  # no next occurrence -> n

    def test_immediate_repeat_has_interval_one(self):
        # the window is closed at the next access, so a repeat has interval 1
        assert compute_stats(AccessSequence(3, [2, 2, 1])).interval[1] == 1

    def test_matches_exhaustive_oracle(self, py_rng):
        for _ in range(80):
            n = py_rng.randint(1, 16)
            m = py_rng.randint(1, 40)
            seq = random_trace(py_rng, n, m)
            st = compute_stats(seq)
            ex = ExhaustiveStats(seq.items, n)
            for i in range(1, m + 1):
                key = seq.items[i - 1]
                assert st.work[i] == ex.work_past(i, key)
                assert st.future[i] == ex.future(i, key)
                assert st.interval[i] == ex.interval(i, key)

    def test_future_at_one_occurrence_is_work_at_the_next(self, py_rng):
        for _ in range(40):
            seq = random_trace(py_rng, py_rng.randint(1, 12), 30)
            st = compute_stats(seq)
            ex = ExhaustiveStats(seq.items, seq.n)
            for i in range(1, seq.m + 1):
                j = ex.next(i, seq.items[i - 1])
                if j:
                    assert st.future[i] == st.work[j]

    @pytest.mark.parametrize("spec", [
        TraceSpec("uniform", n=1, m=3_000),
        TraceSpec("uniform", n=2, m=3_000),
        TraceSpec("uniform", n=16, m=5_000, seed=2),
        TraceSpec("zipf", n=300, m=20_000, seed=3),
        TraceSpec("round-robin", n=64, m=3_000),
        # every gap spans about 16 blocks of 128 times, counted from either side
        TraceSpec("round-robin", n=2_000, m=6_000),
        # m at the edges of the block size: times 1..63 fill block 0 of 64
        # and m = 64, 65 spill past it; blocks of 64 up to m = 2^12 - 1,
        # blocks of 128 from m = 2^12 on
        *(TraceSpec("uniform", n=24, m=m, seed=m) for m in (63, 64, 65)),
        *(TraceSpec("zipf", n=500, m=m, seed=m) for m in (4_095, 4_096, 4_097)),
        # runs of 75 repeats: most gaps lie inside one block
        TraceSpec("block-repeat", n=40, m=3_000),
        TraceSpec("uniform", n=3, m=1),
    ], ids=lambda spec: f"{spec.family}-{spec.n}-{spec.m}")
    def test_work_matches_move_to_front_list(self, spec):
        """On long traces every work[i] is x(i)'s index in a literal front
        list before the move, or n on a first touch."""
        seq = gen_sequence(spec)
        st = compute_stats(seq)
        front: list[int] = []
        for i, x in enumerate(seq.items, start=1):
            if x in front:
                assert st.work[i] == front.index(x), i
                front.remove(x)
            else:
                assert st.work[i] == seq.n, i
            front.insert(0, x)

    def test_sweep_keeps_no_per_access_temporaries(self):
        # work and future are 8 B per access each; next-access times or a
        # stored interval list would add at least 8 more, and separate ints
        # for the large ones about 36
        seq = gen_sequence(TraceSpec("zipf", n=4096, m=100_000, seed=0))
        tracemalloc.start()
        try:
            st = compute_stats(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / seq.m < 40
        assert "interval" not in vars(st)
        run_dynamic(seq, "future-ws-exact", "treap", rng=RandomStream(0), stats=st)
        assert "interval" not in vars(st)

    def test_interval_is_built_from_future_on_first_read(self, py_rng):
        for _ in range(20):
            n = py_rng.randint(1, 12)
            st = compute_stats(random_trace(py_rng, n, 50))
            assert "interval" not in vars(st)
            interval = st.interval
            assert interval == [0] + [f + 1 if f < n else n for f in st.future[1:]]
            # fault-injection tests edit the list in place
            assert st.interval is interval

    def test_empty_sequence(self):
        st = compute_stats(AccessSequence(4, []))
        assert st.m == 0 and st.work == [0]


class TestForwardPermutationProperty:
    """At a fixed time, ranking items by their next access is a permutation."""

    def test_exhaustive_small_universes(self, py_rng):
        for _ in range(60):
            n = py_rng.randint(1, 16)
            m = py_rng.randint(1, 36)
            seq = random_trace(py_rng, n, m)
            ex = ExhaustiveStats(seq.items, n)
            for i in range(0, m + 1):
                ranks = sorted(
                    ex.work_next(i, x) for x in range(1, n + 1) if ex.next(i, x)
                )
                assert ranks == list(range(1, len(ranks) + 1))

    def test_round_robin_gives_the_full_permutation(self):
        n = 8
        seq = gen_sequence(TraceSpec("round-robin", n=n, m=3 * n))
        ex = ExhaustiveStats(seq.items, n)
        for i in range(0, n + 1):  # early enough that every item reappears
            got = sorted(ex.work_next(i, x) for x in range(1, n + 1))
            assert got == list(range(1, n + 1))

    def test_squared_reciprocal_rank_sum_stays_under_steady_bound(self, py_rng):
        for _ in range(30):
            n = py_rng.randint(2, 16)
            seq = random_trace(py_rng, n, 40)
            ex = ExhaustiveStats(seq.items, n)
            for i in range(0, seq.m + 1, 3):
                total = sum(
                    1.0 / (1.0 + (ex.work_next(i, x) if ex.next(i, x) else n)) ** 2
                    for x in range(1, n + 1)
                )
                assert total <= NORM_STEADY

    def test_interval_dominates_the_windows_it_spans(self, py_rng):
        for _ in range(40):
            n = py_rng.randint(2, 12)
            seq = random_trace(py_rng, n, 30)
            ex = ExhaustiveStats(seq.items, n)
            for i in range(1, seq.m + 1):
                for x in range(1, n + 1):
                    # the closed interval always contains the forward window
                    assert ex.interval(i, x) >= ex.work_next(i, x)
                    # ...and the backward one too, except at an access of x,
                    # where the interval restarts at the current position
                    if ex.next(i, x) and ex.prev_strict(i, x) and seq.items[i - 1] != x:
                        assert ex.interval(i, x) >= ex.work_past(i, x)
                    if seq.items[i - 1] == x and ex.next(i, x):
                        assert ex.interval(i, x) == ex.work_next(i, x)


def _round_score(work: int) -> int:
    """Next-power-of-two rounding: 2^ceil(log2(work+1)) - 1, output 0 at 0."""
    if work <= 0:
        return 0
    return (1 << work.bit_length()) - 1


def scored(keys: list[int]) -> list[tuple[int, int]]:
    """A step's keys as (item, score) rows: the key at index r has score 2^r - 1."""
    return [(item, (1 << r) - 1) for r, item in enumerate(keys)]


def stored_scores(oracle: CrudeOracle) -> list[int]:
    """Each item's rounded score as its band records it; unseen items (and
    the unused slot 0) carry the rounded sentinel n."""
    unseen = _round_score(oracle.n)
    return [(1 << b) - 1 if b >= 0 else unseen for b in oracle.band]


class RankQueryOracle:
    """Reference crude oracle: exact ranks from a literal move-to-front list
    (rank r is ``front[r - 1]``), one crosser read per power-of-two boundary,
    and each crosser's work re-derived from its post-move rank."""

    def __init__(self, n: int):
        self.n = n
        self.front: list[int] = []  # most recent first
        self.score = [_round_score(n)] * (n + 1)

    def work_of(self, key: int) -> int:
        return self.front.index(key) if key in self.front else self.n

    def step(self, key: int) -> list[tuple[int, int]]:
        front = self.front
        seen = key in front
        limit = front.index(key) if seen else len(front)
        crossers: list[int] = []
        boundary = 1
        while boundary <= limit:
            crossers.append(front[boundary - 1])
            boundary <<= 1
        if seen:
            del front[limit]
        front.insert(0, key)
        out = [(key, 0)]
        self.score[key] = 0
        for item in crossers:
            s = _round_score(self.work_of(item))
            self.score[item] = s
            out.append((item, s))
        return out


LOCKSTEP_TRACES = {
    "zipf-4096-seed0": TraceSpec("zipf", n=4096, m=20_000, seed=0),
    "zipf-4096-seed7": TraceSpec("zipf", n=4096, m=20_000, seed=7),
    "round-robin-300": TraceSpec("round-robin", n=300, m=5_000),
    "uniform-1000": TraceSpec("uniform", n=1000, m=20_000, seed=1),
    "block-repeat-50": TraceSpec("block-repeat", n=50, m=3_000),
    # first touches that open a boundary exactly when seen hits 2^k
    **{f"uniform-{n}": TraceSpec("uniform", n=n, m=600, seed=n) for n in (1, 2, 3, 16, 17)},
}


class TestCrudeOracle:
    @pytest.mark.parametrize("trace", LOCKSTEP_TRACES)
    def test_matches_rank_query_oracle(self, trace):
        seq = gen_sequence(LOCKSTEP_TRACES[trace])
        oracle, ref = CrudeOracle(seq.n), RankQueryOracle(seq.n)
        for i, key in enumerate(seq.items, start=1):
            assert scored(oracle.step(key)) == ref.step(key), (trace, i)
            if i % 500 == 0 or i == seq.m:
                assert oracle.validate() is None, (trace, i)
        assert stored_scores(oracle) == ref.score

    @pytest.mark.parametrize("field", ["link", "boundary", "band", "link range", "tail",
                                       "unseen band"])
    def test_validate_catches_state_drift(self, py_rng, field):
        n = 64
        seen = n // 2 if field == "unseen band" else n  # keys 1..seen get served
        oracle = CrudeOracle(n)
        for key in range(1, seen + 1):
            oracle.step(key)
        for _ in range(500):
            oracle.step(py_rng.randint(1, seen))
            assert oracle.validate() is None
        order = [oracle.head]  # the move-to-front list, rank 1 first
        while oracle.next[order[-1]]:
            order.append(oracle.next[order[-1]])
        if field == "link":  # rank 8 names rank 2 as its predecessor
            oracle.prev[order[7]] = order[1]
            message = f"prev of {order[7]} is {order[1]}, but {order[6]} links to it"
        elif field == "boundary":  # the rank-8 pointer lags one place
            want = list(oracle.at)
            oracle.at[3] = order[8]
            message = f"boundary pointers {oracle.at}, expected {want}"
        elif field == "band":  # rank 16 (work 15) claims the next band up
            oracle.band[order[15]] = 5
            message = f"item {order[15]} at rank 16 has band 5, expected 4"
        elif field == "link range":  # rank 10 links past the universe
            oracle.next[order[9]] = n + 1
            message = f"link after {order[9]} points to {n + 1}, outside 1..{n}"
        elif field == "tail":  # the tail pointer stops one short of the list's end
            oracle.tail = order[-2]
            message = (f"list from head {order[0]} ends at {order[-1]} after {n} items; "
                       f"tail is {order[-2]}, {n} seen")
        else:  # an item never served claims rank 1's band
            oracle.band[n] = 0
            message = f"unseen item {n} has band 0, expected -1"
        assert oracle.validate() == message

    def test_rounded_score_values(self):
        assert [_round_score(w) for w in (0, 1, 2, 3, 4)] == [0, 1, 3, 3, 7]
        oracle = CrudeOracle(8)
        seq = [1, 2, 3, 4, 1, 1]
        rows = []
        for k in seq:
            rows = scored(oracle.step(k))
        # immediate repeat: only the served key updates, with score 0
        assert rows[0] == (1, 0)
        assert len(rows) == 1

    def test_matches_reference_move_to_front(self, py_rng):
        n, steps = 40, 1500
        oracle = CrudeOracle(n)
        front: list[int] = []  # most recent first; unseen items absent
        for _ in range(steps):
            key = py_rng.randint(1, n)
            pre_work = front.index(key) if key in front else n
            assert stored_scores(oracle)[key] == _round_score(pre_work)
            rows = scored(oracle.step(key))
            if key in front:
                front.remove(key)
            front.insert(0, key)
            # the served item leads the update set with its post-move state
            assert rows[0] == (key, 0)
            assert oracle.head == front[0] == key
            # every other member sits exactly on a power-of-two work value
            for item, s in rows[1:]:
                w = front.index(item)
                assert w >= 1 and w & (w - 1) == 0
                assert s == 2 * w - 1
            # one row per crossed boundary, plus the served item
            assert len(rows) <= math.floor(math.log2(n - 1)) + 2
            # lazily stored scores stay within the two-sided log band
            for pos, item in enumerate(front):
                band = oracle.band[item]
                assert math.log2(pos + 1) <= band <= 2 * math.log2(pos + 1) + 1

    def test_update_volume_bound(self, py_rng):
        n = 1024
        oracle = CrudeOracle(n)
        cap = math.floor(math.log2(n)) + 1
        for _ in range(3000):
            rows = oracle.step(py_rng.randint(1, n))
            assert 1 <= len(rows) <= cap


class TestRunDynamic:
    B = 4

    def test_empty_sequence_gives_zero_costs(self):
        bd = run_dynamic(AccessSequence(8, []), "interval-set", "treap", rng=RandomStream(0))
        assert bd.access_cost == 0 and bd.update_cost == 0 and bd.update_events == 0

    def test_constant_sequence_is_cheap_after_warmup(self):
        seq = AccessSequence(64, [5] * 400)
        bd = run_dynamic(seq, "future-ws-exact", "treap", rng=RandomStream(1))
        assert bd.access_cost / seq.m <= 3.0

    def test_exact_schemes_read_the_stats_own_lists(self):
        seq = AccessSequence(4, [1, 2, 1, 4, 2])
        st = compute_stats(seq)
        m, n = seq.m, seq.n
        assert _scheme_scores("interval-set", st, None, m, n) is st.interval
        assert _scheme_scores("future-ws-exact", st, None, m, n) is st.future
        # predictions are 0-based; the driver reads the step-i score at [i]
        noisy = _scheme_scores("future-ws-noisy", st, [2.5, 9.0, -1.0, 0.5, 1.0], m, n)
        assert noisy == [0.0, 2.5, 4.0, 0.0, 0.5, 1.0]

    def test_noisy_with_zero_error_equals_exact(self):
        seq = gen_sequence(TraceSpec("zipf", n=48, m=1200, seed=3))
        st = compute_stats(seq)
        exact = run_dynamic(seq, "future-ws-exact", "treap", rng=RandomStream(9),
                            stats=st, keep_steps=True)
        predicted = [float(st.future[i]) for i in range(1, seq.m + 1)]
        noisy = run_dynamic(seq, "future-ws-noisy", "treap", rng=RandomStream(9),
                            predicted_scores=predicted, stats=st, keep_steps=True)
        assert noisy.steps == exact.steps
        assert noisy.total_cost == exact.total_cost

    def test_static_scheme_never_updates(self):
        seq = gen_sequence(TraceSpec("uniform", n=32, m=600, seed=2))
        bd = run_dynamic(seq, "static", "treap", rng=RandomStream(4))
        assert bd.update_cost == 0 and bd.update_events == 0
        assert bd.shift_l1_nat == 0.0

    def test_incompatible_arguments_rejected(self):
        seq = AccessSequence(8, [1, 2])
        with pytest.raises(ConfigError):
            run_dynamic(seq, "no-such-scheme", "treap", rng=RandomStream(0))
        with pytest.raises(ConfigError):
            run_dynamic(seq, "interval-set", "no-such-structure", rng=RandomStream(0))
        with pytest.raises(ConfigError):
            run_dynamic(seq, "interval-set", "tier-forest", rng=RandomStream(0))  # needs B
        with pytest.raises(ConfigError):
            run_dynamic(seq, "future-ws-noisy", "treap", rng=RandomStream(0))  # needs predictions
        with pytest.raises(ConfigError):
            run_dynamic(seq, "past-ws-crude", "treap", predicted_scores=[1.0, 1.0],
                        rng=RandomStream(0))

    @pytest.mark.parametrize("structure", ["treap", "tier-forest", "det-forest"])
    def test_doctored_intervals_break_the_norm_ceiling(self, structure):
        # two items at weight 1 sum past pi^2/6 on the second step
        seq = AccessSequence(4, [1, 2, 3, 4, 1, 2])
        st = compute_stats(seq)
        st.interval[1] = st.interval[2] = 0
        with pytest.raises(AssertionError, match=re.escape("exceeds pi^2/6")):
            run_dynamic(seq, "interval-set", structure, B=self.B, stats=st, rng=RandomStream(0))

    def test_steady_bound_holds_from_the_last_first_service(self):
        # item 1 at weight 1 keeps the norm near 1.12: under pi^2/6, over the
        # steady bound.  Step 4 serves the last unseen item without an update
        seq = AccessSequence(4, [1, 2, 3, 4])
        st = compute_stats(seq)
        st.interval[1] = 0
        with pytest.raises(AssertionError,
                           match=re.escape(f"exceeds steady bound {NORM_STEADY}")):
            run_dynamic(seq, "interval-set", "treap", stats=st, rng=RandomStream(0))
        # with item 4 never served the steady bound never applies
        seq = AccessSequence(4, [1, 2, 3, 1])
        st = compute_stats(seq)
        st.interval[1] = 0
        run_dynamic(seq, "interval-set", "treap", stats=st, rng=RandomStream(0))

    def test_interval_set_step_rows_count_unchanged_weights_as_no_update(self):
        # n = 3 starts every key at 1/16, the weight of interval 3, so step 1
        # re-weights nothing; n = 4 starts at 1/25, and step 1 moves key 1
        for n, want in ((3, 0), (4, 1)):
            bd = run_dynamic(AccessSequence(n, [1, 2, 3, 1]), "interval-set", "treap",
                             keep_steps=True, rng=RandomStream(0))
            assert bd.steps[0][3] == want, n

    @pytest.mark.parametrize("structure", ["treap", "tier-forest", "det-forest"])
    def test_noisy_scores_with_one_weight_are_no_update(self, structure):
        # two predictions one ulp apart square to the same weight: the second
        # serve of key 1 re-weights nothing, though the scores differ
        a, b = 7.463248692339043, 7.463248692339044
        assert a != b and 1.0 / (1.0 + a) ** 2 == 1.0 / (1.0 + b) ** 2
        bd = run_dynamic(AccessSequence(8, [1, 1]), "future-ws-noisy", structure, B=4,
                         predicted_scores=[a, b], keep_steps=True, rng=RandomStream(0))
        assert [row[3] for row in bd.steps] == [1, 0]
        assert bd.update_events == 1

    def test_interval_set_reweights_at_most_the_served_key(self, py_rng, monkeypatch):
        """Every step row's update-set size is 0 or 1, the sizes sum to
        ``update_events``, and each update re-prioritises that step's key."""
        updated = []
        real = Treap.update_priority

        def spy(self, key, *args):
            updated.append(key)
            return real(self, key, *args)

        monkeypatch.setattr(Treap, "update_priority", spy)
        for _ in range(25):
            n = py_rng.randint(2, 12)
            seq = random_trace(py_rng, n, 60)
            updated.clear()
            bd = run_dynamic(seq, "interval-set", "treap", keep_steps=True, rng=RandomStream(0))
            assert all(row[3] <= 1 for row in bd.steps)
            assert sum(row[3] for row in bd.steps) == bd.update_events
            assert updated == [row[1] for row in bd.steps if row[3]]

    def test_norm_certificate_fails_where_the_per_step_state_fails(self, py_rng):
        """The driver's running norm raises at the same step, with the same
        message, as a literal loop that keeps every key's stored weight
        1/(1+interval)^2 and checks the sum after each step."""
        outcomes = collections.Counter()
        for _ in range(150):
            n = py_rng.randint(2, 8)
            seq = random_trace(py_rng, n, 30)
            st = compute_stats(seq)
            for i in py_rng.sample(range(1, seq.m + 1), py_rng.randint(0, 6)):
                st.interval[i] = py_rng.randint(0, 1)
            w0 = 1.0 / (n + 1) ** 2
            weights, norm, seen, want = [w0] * (n + 1), n * w0, set(), None
            for i, x in enumerate(seq.items, start=1):
                new = 1.0 / (1.0 + st.interval[i]) ** 2
                norm += new - weights[x]
                weights[x] = new
                seen.add(x)
                if norm > NORM_CEILING + 1e-9:
                    want = f"norm {norm} exceeds pi^2/6"
                elif len(seen) == n and norm > NORM_STEADY + 1e-9:
                    want = f"norm {norm} exceeds steady bound {NORM_STEADY}"
                if want:
                    break
            try:
                run_dynamic(seq, "interval-set", "treap", stats=st, rng=RandomStream(0))
                got = None
            except AssertionError as exc:
                got = str(exc)
            assert got == want
            outcomes[want.split(" exceeds ")[1] if want else None] += 1
        assert min(outcomes[k] for k in (None, "pi^2/6", f"steady bound {NORM_STEADY}")) >= 5

    @pytest.mark.parametrize("B", [4, 16])
    def test_glued_paths_never_repeat_a_block(self, B, monkeypatch):
        """A top's treap parent has a strictly smaller tier, so the tier
        forest counts a glued path's blocks without deduplicating them: a
        walk that gathers each path's blocks with ``BTree.search``, in trees
        built from the components' members, finds no block twice, and as
        many blocks as the forest counted."""
        walks = []
        real = TierForestBTreap._path_length
        trees = {}  # component record -> its tree, built once per record

        def tree_of(forest, comp):
            if comp not in trees:
                if len(trees) >= 512:  # records die on re-tiers; keep the cache small
                    trees.clear()
                trees[comp] = BTree(forest.B, comp.members)
            return trees[comp]

        def checked(self, key):
            count = real(self, key)
            blocks = []
            target, comp = key, self.comp_of[key]
            while target:
                found, path = tree_of(self, comp).search(target)
                assert found, target
                blocks += path
                target = parent_of(self.base, comp.top)
                comp = self.comp_of[target]
            assert len({id(blk) for blk in blocks}) == len(blocks) == count, key
            walks.append(count)
            return count

        monkeypatch.setattr(TierForestBTreap, "_path_length", checked)
        for family in ("zipf", "block-repeat", "uniform", "round-robin"):
            seq = gen_sequence(TraceSpec(family, n=256, m=3_000, seed=7))
            for scheme in ("interval-set", "future-ws-exact", "past-ws-crude"):
                run_dynamic(seq, scheme, "tier-forest", B=B, rng=RandomStream(5))
        assert len(walks) > 12 * 3_000
        assert max(walks) > 1

    @pytest.mark.parametrize("structure", ["treap", "tier-forest", "det-forest", "rank-forest"])
    @pytest.mark.parametrize(
        "scheme", ["interval-set", "future-ws-exact", "past-ws-crude", "static"]
    )
    def test_every_combination_satisfies_the_decomposition(self, scheme, structure):
        seq = gen_sequence(TraceSpec("zipf", n=48, m=900, seed=11))
        bd = run_dynamic(seq, scheme, structure, B=self.B, rng=RandomStream(21))
        report = cost_decomposition_check(bd)
        assert report["ok"], report

    @pytest.mark.parametrize("structure", ["treap", "det-forest", "tier-forest", "rank-forest"])
    def test_nan_predicted_score_rejected_up_front(self, structure):
        seq = AccessSequence(8, [1, 2, 3, 1])
        predicted = [1.0, math.nan, 2.0, 0.5]
        with pytest.raises(ConfigError, match="predicted score 1 is NaN"):
            run_dynamic(seq, "future-ws-noisy", structure, B=self.B,
                        predicted_scores=predicted, rng=RandomStream(0))

    @pytest.mark.parametrize("scheme, predicted, message", [
        ("future-ws-noisy", None, "needs predicted scores"),
        ("future-ws-noisy", [1.0, 2.0, 0.5], "length 3 != m 4"),
        ("past-ws-crude", [1.0, 2.0, 0.5, 0.0], "derives its own scores"),
    ])
    def test_rank_forest_checks_scheme_inputs(self, scheme, predicted, message):
        # rank-forest ignores the scores, but not the inputs every other
        # structure rejects
        seq = AccessSequence(8, [1, 2, 3, 1])
        with pytest.raises(ConfigError, match=message):
            run_dynamic(seq, scheme, "rank-forest", B=self.B, predicted_scores=predicted,
                        rng=RandomStream(0))

    def test_infinite_predicted_score_clamps_to_n(self):
        seq = AccessSequence(8, [1, 2, 3, 1])
        inf = run_dynamic(seq, "future-ws-noisy", "treap", rng=RandomStream(3),
                          predicted_scores=[math.inf, 1.0, math.inf, 0.0])
        capped = run_dynamic(seq, "future-ws-noisy", "treap", rng=RandomStream(3),
                             predicted_scores=[8.0, 1.0, 8.0, 0.0])
        assert (inf.total_cost, inf.shift_l1_nat) == (capped.total_cost, capped.shift_l1_nat)

    def test_noisy_scheme_with_real_noise_also_decomposes(self):
        seq = gen_sequence(TraceSpec("zipf", n=48, m=900, seed=12))
        st = compute_stats(seq)
        predicted = noisy_scores([float(st.future[i]) for i in range(1, seq.m + 1)],
                                 target=seq.m / 24, rng=random.Random(5), hi=float(seq.n))
        bd = run_dynamic(seq, "future-ws-noisy", "treap", rng=RandomStream(2),
                         predicted_scores=predicted, stats=st)
        assert cost_decomposition_check(bd)["ok"]

    def test_block_repeat_cheaper_than_round_robin(self):
        n, m = 64, 4000
        for seed in range(3):
            x1 = run_dynamic(gen_sequence(TraceSpec("round-robin", n=n, m=m)),
                             "interval-set", "treap", rng=RandomStream(100 + seed))
            x2 = run_dynamic(gen_sequence(TraceSpec("block-repeat", n=n, m=m)),
                             "interval-set", "treap", rng=RandomStream(100 + seed))
            assert x2.total_cost < x1.total_cost

    def test_step_rows_align_with_stats(self, py_rng):
        seq = random_trace(py_rng, 16, 120)
        st = compute_stats(seq)
        bd = run_dynamic(seq, "interval-set", "treap", rng=RandomStream(6),
                         stats=st, keep_steps=True)
        assert len(bd.steps) == seq.m
        for i, x, cost, usize, work, interval, future in bd.steps:
            assert x == seq.items[i - 1]
            assert cost >= 1
            assert usize in (0, 1)
            assert (work, interval, future) == (st.work[i], st.interval[i], st.future[i])

    def test_crude_scheme_redraws_every_update_member(self):
        seq = AccessSequence(16, [3] * 5)
        bd = run_dynamic(seq, "past-ws-crude", "treap", rng=RandomStream(7), keep_steps=True)
        # even an immediate repeat re-prioritizes the served key
        assert all(row[3] >= 1 for row in bd.steps)


def reference_run(seq, scheme, structure, B, rng, predicted, stats):
    """The driver loop written out literally: each structure's tier rule
    (``tier_value(w, 2, 2)`` for the treap, ``(B, 4)`` and ``(B, 2)`` for the
    tier and det forests) on the build and on every update, one
    ``next_offset`` per key on the build and on every treap update,
    ``math.log`` of both weights on every update, and every total accumulated
    on the ``CostBreakdown`` itself."""
    n, m = seq.n, seq.m
    scores = (_scheme_scores(scheme, stats, predicted, m, n)
              if structure != "rank-forest" else None)
    w0 = 1.0 / (n + 1) ** 2
    weights = [w0] * (n + 1)
    bd = CostBreakdown(scheme=scheme, structure=structure, n=n, m=m,
                       base=2.0 if structure == "treap" else float(B))
    if structure == "treap":
        tiers = [tier_value(w0, 2, 2) for _ in range(n)]
        offsets = [rng.next_offset() for _ in range(n)]
        st = Treap.build_arrays(tiers, offsets)

        def update(x, w):
            return st.update_priority(x, tier_value(w, 2, 2), rng.next_offset()) + 1, 0
    elif structure == "tier-forest":
        st = TierForestBTreap([tier_value(w0, B, 4) for _ in range(n)], B, rng=rng)

        def update(x, w):
            return st.update_weight(x, tier_value(w, B, 4))
    elif structure == "det-forest":
        st = DetScoreForest([tier_value(w0, B, 2) for _ in range(n)], B)

        def update(x, w):
            return st.update_weight(x, tier_value(w, B, 2)), 0
    else:
        st = RankForest(n, B)
    oracle = CrudeOracle(n) if scheme == "past-ws-crude" and structure != "rank-forest" else None
    for i in range(1, m + 1):
        x = seq.items[i - 1]
        cost = st.access(x)
        bd.access_cost += cost
        bd.access_log_nat += -math.log(weights[x])
        updates = []
        if scores is not None:
            w_new = 1.0 / (1.0 + scores[i]) ** 2
            if w_new != weights[x]:
                updates.append((x, w_new))
        elif oracle is not None:
            updates = [(item, 1.0 / (1.0 + s) ** 2) for item, s in scored(oracle.step(x))]
        for item, w_new in updates:
            ucost, rcost = update(item, w_new)
            bd.update_cost += ucost
            bd.rebuild_cost += rcost
            bd.shift_l1_nat += abs(math.log(w_new) - math.log(weights[item]))
            weights[item] = w_new
            bd.update_events += 1
        bd.steps.append((i, x, cost, len(updates), stats.work[i], stats.interval[i],
                         stats.future[i]))
    return bd


LOCKSTEP_SCHEMES = ("interval-set", "future-ws-exact", "future-ws-noisy", "past-ws-crude",
                    "static")


class TestDriverLockstep:
    """``run_dynamic`` keeps its totals in locals, one (w, log w) row per key
    and a memo from score to row and tier; none of that may move a total, a
    float bit or a draw."""

    @pytest.mark.parametrize("structure", ["treap", "tier-forest", "det-forest", "rank-forest"])
    @pytest.mark.parametrize("scheme", LOCKSTEP_SCHEMES)
    def test_totals_equal_the_literal_loop(self, scheme, structure):
        seq = gen_sequence(TraceSpec("zipf", n=96, m=2_500, seed=4))
        st = compute_stats(seq)
        predicted = None
        if scheme == "future-ws-noisy":
            predicted = noisy_scores([float(st.future[i]) for i in range(1, seq.m + 1)],
                                     target=seq.m / 24, rng=random.Random(8), hi=float(seq.n))
            assert any(p != int(p) for p in predicted)  # the memo sees fractional scores
            # more distinct weights than the memo holds, so it is emptied mid-run
            assert len({1.0 / (1.0 + p) ** 2 for p in predicted}) > seq.n + 1
        got_rng, ref_rng = RandomStream(31), RandomStream(31)
        got = run_dynamic(seq, scheme, structure, B=4, rng=got_rng,
                          predicted_scores=predicted, stats=st, keep_steps=True)
        want = reference_run(seq, scheme, structure, 4, ref_rng, predicted, st)
        for name in ("access_cost", "update_cost", "rebuild_cost", "access_log_nat",
                     "shift_l1_nat", "update_events", "steps"):
            assert getattr(got, name) == getattr(want, name), name
        assert got_rng._rng.getstate() == ref_rng._rng.getstate()


class TestScoreMemo:
    """The driver maps each crude band's score to its tier once per run, and
    the block structures compute no tiers: they are built from the driver's."""

    @pytest.mark.parametrize("structure", ["treap", "det-forest", "tier-forest"])
    def test_tier_value_calls(self, structure, monkeypatch):
        n = 256
        seq = gen_sequence(TraceSpec("zipf", n=n, m=5_000, seed=6))
        calls = {"dynamic": 0, "em": 0}

        def counted(name, module):
            def tier(w, inner, outer):
                calls[name] += 1
                return tier_value(w, inner, outer)
            # em holds no tier_value; one set there would count any call by name
            monkeypatch.setattr(module, "tier_value", tier, raising=False)

        counted("dynamic", dynamic)
        counted("em", em)
        bands = (n - 1).bit_length() + 1  # the scores 2^r - 1, r = 0 .. 8
        bd = run_dynamic(seq, "past-ws-crude", structure, B=4, rng=RandomStream(3))
        assert bd.update_events > 10 * bands
        assert calls["em"] == 0
        # a forest's one starting tier; the treap's comes from composite_priority
        assert calls["dynamic"] == (0 if structure == "treap" else 1) + bands

    @pytest.mark.parametrize("n", [1, 2, 3, 300, 4096])
    @pytest.mark.parametrize("inner, outer", [(2, 2), (16, 2), (16, 4), (4, 4), (7, 2)])
    def test_band_tables_equal_the_score_rows(self, n, inner, outer):
        """Bit for bit, band r's tier and log weight are the score row of
        2^r - 1, band -1 reads the starting weight's log, and the shifts of
        a k-key update set are |log w_r - log w_(r-1)| for r = 1 .. k - 1."""
        w0 = 1.0 / (n + 1) ** 2
        tiers, lws, shifts = _band_tables(n, w0, inner, outer)
        top = (n - 1).bit_length()  # the band of rank n, work n - 1
        rows = [_score_row((1 << r) - 1, inner, outer) for r in range(top + 1)]
        assert tiers == [tier for _, tier in rows]
        assert list(map(float.hex, lws)) == [float.hex(lw) for (_, lw), _ in rows] + [
            float.hex(math.log(w0))]
        assert lws[-1] == _score_row(n, inner, outer)[0][1]  # unseen: the sentinel score n
        assert len(shifts) == len(rows) + 1 and shifts[0] == []
        for k in range(1, len(rows) + 1):
            assert list(map(float.hex, shifts[k])) == [
                float.hex(abs(rows[r][0][1] - rows[r - 1][0][1])) for r in range(1, k)]


class TestCostDecompositionCheck:
    def test_static_scheme_has_zero_weight_shift(self):
        seq = gen_sequence(TraceSpec("zipf", n=32, m=400, seed=1))
        bd = run_dynamic(seq, "static", "treap", rng=RandomStream(5))
        report = cost_decomposition_check(bd)
        assert report["rhs_terms"]["weight_shift"] == 0.0
        assert report["ok"]

    def test_interval_set_shift_recomputed_from_scores(self):
        seq = gen_sequence(TraceSpec("zipf", n=24, m=300, seed=2))
        st = compute_stats(seq)
        bd = run_dynamic(seq, "interval-set", "treap", rng=RandomStream(8), stats=st)
        n = seq.n
        stored = {x: 1.0 / (1.0 + n) ** 2 for x in range(1, n + 1)}
        shift = 0.0
        for i in range(1, seq.m + 1):
            x = seq.items[i - 1]
            new = 1.0 / (1.0 + st.interval[i]) ** 2
            if new != stored[x]:
                shift += abs(math.log(new) - math.log(stored[x]))
                stored[x] = new
        # the same float operations in the same order give the same bits
        assert bd.shift_l1_nat == shift

    def test_budget_and_ratio_fields(self):
        seq = gen_sequence(TraceSpec("uniform", n=16, m=200, seed=3))
        bd = run_dynamic(seq, "static", "treap", rng=RandomStream(1))
        report = cost_decomposition_check(bd)
        assert report["budget"] == pytest.approx(8.0 * report["rhs"] + 8.0 * 16)
        assert report["ratio"] == pytest.approx(report["lhs"] / report["rhs"])
        assert report["ok"] == (report["lhs"] <= report["budget"])


# -- keys outside 1..n ---------------------------------------------------------

_TIERS = [0, 1, 0, 2, 1, 0, 0, 1]
_N = len(_TIERS)
_BUILDS = {
    "Treap": lambda: Treap.build_arrays(_TIERS, [(k + 0.5) / _N for k in range(_N)]),
    "TierForestBTreap": lambda: TierForestBTreap(_TIERS, 4, rng=RandomStream(0)),
    "DetScoreForest": lambda: DetScoreForest(_TIERS, 4),
    "RankForest": lambda: RankForest(_N, 4),
    "CrudeOracle": lambda: CrudeOracle(_N),
}
# (class, method, the arguments after the key)
_KEYED_METHODS = [
    ("Treap", "access", ()), ("Treap", "update_priority", (0, 0.5)),
    ("TierForestBTreap", "access", ()), ("TierForestBTreap", "update_weight", (1,)),
    ("DetScoreForest", "access", ()), ("DetScoreForest", "update_weight", (1,)),
    ("RankForest", "access", ()), ("CrudeOracle", "step", ()),
]


@pytest.mark.parametrize("key", [0, _N + 1])
@pytest.mark.parametrize("cls, method, args", _KEYED_METHODS,
                         ids=[f"{cls}.{method}" for cls, method, _ in _KEYED_METHODS])
def test_key_outside_the_universe_raises_and_keeps_the_structure_valid(cls, method, args, key):
    st = _BUILDS[cls]()
    call = getattr(st, method)
    call(3, *args)  # a valid call first, so the structure has moved off its build
    with pytest.raises(KeyError):
        call(key, *args)
    assert st.validate() is None
