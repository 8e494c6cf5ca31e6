"""Trace and distribution generator tests."""

import bisect
import itertools
import math
import random

import pytest

from scoretreap.dynamic import compute_stats
from scoretreap.errors import ConfigError
from scoretreap.sequences import (
    AccessSequence,
    TraceSpec,
    gen_distribution,
    gen_sequence,
)


class TestGenDistribution:
    def test_linear_example(self):
        d = gen_distribution(TraceSpec("linear", n=4))
        assert d.masses() == pytest.approx([0.4, 0.3, 0.2, 0.1])

    def test_segmented_example_n16(self):
        d = gen_distribution(TraceSpec("segmented", n=16))
        m = d.masses()
        assert m[:8] == [1 / 16] * 8
        assert m[8:12] == [2 / 16] * 4
        assert m[12:] == [0.0] * 4

    def test_segmented_requires_even_power_of_two(self):
        for bad in (15, 32, 100):
            with pytest.raises(ConfigError):
                gen_distribution(TraceSpec("segmented", n=bad))

    def test_zipf_zero_exponent_is_uniform(self):
        d = gen_distribution(TraceSpec("zipf", n=10, s=0.0))
        assert d.masses() == pytest.approx([0.1] * 10)

    def test_zipf_one_matches_harmonic_weights(self):
        d = gen_distribution(TraceSpec("zipf", n=4, s=1.0))
        h = 1 + 1 / 2 + 1 / 3 + 1 / 4
        assert d.masses() == pytest.approx([1 / h, 1 / (2 * h), 1 / (3 * h), 1 / (4 * h)])

    def test_all_families_sum_to_one(self):
        for fam, n in (("zipf", 100), ("uniform", 64), ("linear", 33), ("segmented", 256)):
            assert math.fsum(gen_distribution(TraceSpec(fam, n=n)).masses()) == pytest.approx(1.0)

    def test_sequence_only_family_has_no_distribution(self):
        with pytest.raises(ConfigError):
            gen_distribution(TraceSpec("round-robin", n=4))


class TestGenSequence:
    def test_round_robin_example(self):
        assert gen_sequence(TraceSpec("round-robin", n=3, m=6)).items == [1, 2, 3, 1, 2, 3]

    def test_block_repeat_example(self):
        assert gen_sequence(TraceSpec("block-repeat", n=3, m=6)).items == [1, 1, 2, 2, 3, 3]

    def test_patterns_truncate_to_m(self):
        assert gen_sequence(TraceSpec("round-robin", n=3, m=4)).items == [1, 2, 3, 1]
        seq = gen_sequence(TraceSpec("block-repeat", n=3, m=7))
        assert len(seq.items) == 7

    def test_block_repeat_working_sets_collapse(self):
        # every non-first access of a run repeats the previous key, so its
        # backward working-set size is 0 and the log-sum stays near n log n
        n, m = 16, 512
        seq = gen_sequence(TraceSpec("block-repeat", n=n, m=m))
        stats = compute_stats(seq)
        runs_first = 0
        for i in range(2, m + 1):
            if seq.items[i - 1] == seq.items[i - 2]:
                assert stats.work[i] == 0
            else:
                runs_first += 1
        log_sum = sum(math.log2(stats.work[i] + 1) for i in range(1, m + 1))
        assert log_sum <= 4.0 * n * math.log2(n)

    def test_iid_families_valid_and_seed_deterministic(self):
        for fam in ("zipf", "uniform", "linear"):
            a = gen_sequence(TraceSpec(fam, n=20, m=500, seed=5))
            b = gen_sequence(TraceSpec(fam, n=20, m=500, seed=5))
            c = gen_sequence(TraceSpec(fam, n=20, m=500, seed=6))
            assert a.items == b.items
            assert a.items != c.items
            assert all(1 <= k <= 20 for k in a.items)

    @pytest.mark.parametrize("fam", ["zipf", "uniform", "linear", "segmented"])
    def test_iid_items_are_the_cumulative_mass_draws(self, fam):
        # the literal draw: one rng.random() per access, bisected into the
        # running sums of the masses, last sum pinned to 1
        spec = TraceSpec(fam, n=64, m=3000, seed=9, s=1.2)
        cum = list(itertools.accumulate(gen_distribution(spec).masses()))
        cum[-1] = 1.0
        rng = random.Random(spec.seed)
        want = [bisect.bisect_left(cum, rng.random()) + 1 for _ in range(spec.m)]
        assert gen_sequence(spec).items == want

    def test_segmented_zero_mass_tail_never_sampled(self):
        seq = gen_sequence(TraceSpec("segmented", n=16, m=2000, seed=1))
        assert max(seq.items) <= 12

    def test_requires_positive_length(self):
        with pytest.raises(ConfigError):
            gen_sequence(TraceSpec("uniform", n=4, m=0))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="^unknown sequence family 'no-such-family'$"):
            gen_sequence(TraceSpec("no-such-family", n=4, m=8))


class TestAccessSequenceType:
    def test_key_bounds_checked(self):
        with pytest.raises(ConfigError):
            AccessSequence(3, [1, 4])
        with pytest.raises(ConfigError):
            AccessSequence(3, [0])

    @pytest.mark.parametrize("items, message", [
        ([1, 4], "access 2: key 4 outside 1..3"),
        ([0], "access 1: key 0 outside 1..3"),
        ([2, 3, 9, 0, 1], "access 3: key 9 outside 1..3"),  # the first bad access
        ([2, -1, 7], "access 2: key -1 outside 1..3"),
    ])
    def test_message_names_the_first_bad_access(self, items, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            AccessSequence(3, items)

    @pytest.mark.parametrize("n", [0, -1])
    def test_universe_must_be_nonempty(self, n):
        with pytest.raises(ConfigError, match="universe size"):
            AccessSequence(n, [])

    def test_at_is_one_based(self):
        # time i is items[i - 1], and m counts the times
        seq = AccessSequence(3, [3, 1])
        assert seq.items == [3, 1] and seq.m == 2
