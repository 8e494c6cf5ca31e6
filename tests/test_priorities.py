"""Priority-scheme tests: tier arithmetic, band structure, and depth bounds."""

import math
import random

import pytest

from conftest import random_distribution
from scoretreap.priorities import (
    RandomStream,
    composite_priority,
    raw_score_priority,
    single_log_priority,
    single_log_tier,
    tier_value,
)
from scoretreap.treap import Treap


class TestCompositePriority:
    def test_examples(self, stream):
        assert composite_priority([1 / 16, 0.6, 2.0 ** -32], stream)[0] == [2, 0, 5]

    def test_weights_at_or_above_one_clamp_to_zero(self, stream):
        assert composite_priority([1.0, 7.5], stream)[0] == [0, 0]

    def test_nonpositive_weight_rejected(self, stream):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                composite_priority([bad], stream)
            with pytest.raises(ValueError):
                composite_priority([0.5, bad, 0.25], stream)

    def test_exact_powers_have_integral_tiers(self, stream):
        # 1/w = 2^(2^t) sits exactly on a tier boundary; floating-point noise
        # in the double log must not flip the floor
        weights = [2.0 ** -(2 ** t) for t in range(0, 6)]
        assert composite_priority(weights, stream)[0] == list(range(0, 6))

    def test_offsets_fresh_and_open_interval(self, stream):
        offs = set(composite_priority([0.25] * 50, stream)[1])
        assert len(offs) == 50
        assert all(0.0 < o < 1.0 for o in offs)

    def test_empty_weights_draw_nothing(self, stream):
        assert composite_priority([], stream) == ([], [])
        assert single_log_priority([], stream) == ([], [])
        assert stream.counter == 0


class TestBlockTier:
    """The block-tree tier ``tier_value(w, B, 4)``: floor(log4 log_B (1/w))."""

    def test_examples(self):
        assert tier_value(16.0 ** -4, 16, 4) == 1
        assert tier_value(16.0 ** -16, 16, 4) == 2

    def test_heavy_weights_clamp(self):
        for w in (1 / 16, 1 / 2, 1.0, 3.0):
            assert tier_value(w, 16, 4) == 0

    def test_exact_powers_of_b(self):
        for B in (4, 16, 64):
            for t in range(0, 4):
                w = float(B) ** -(4 ** t)
                assert tier_value(w, B, 4) == t


class TestSingleLogPriority:
    def test_examples(self, stream):
        assert single_log_priority([1 / 8, 0.9], stream)[0] == [3, 0]

    def test_exact_powers(self, stream):
        assert single_log_priority([2.0 ** -k for k in range(0, 60)], stream)[0] == list(range(0, 60))

    def test_nonpositive_weight_rejected(self, stream):
        for bad in (0.0, -1.0, float("nan"), math.inf):
            with pytest.raises(ValueError):
                single_log_priority([0.5, bad], stream)


class TestRawScorePriority:
    def test_deterministic(self):
        assert raw_score_priority(0.3) == raw_score_priority(0.3)

    def test_linear_distribution_builds_a_chain(self):
        n = 4
        p = [2 * (n - x + 1) / (n * (n + 1)) for x in range(1, n + 1)]
        assert p == [0.4, 0.3, 0.2, 0.1]
        t = Treap.build({x: raw_score_priority(p[x - 1]) for x in range(1, n + 1)})
        for x in range(1, n + 1):
            assert t.depth(x) == x
        expected_access = sum(p[x - 1] * t.depth(x) for x in range(1, n + 1))
        assert expected_access == pytest.approx(2.0)

    def test_uniform_scores_chain_through_key_tiebreak(self):
        n = 6
        t = Treap.build({x: raw_score_priority(1 / n) for x in range(1, n + 1)})
        for x in range(1, n + 1):
            assert t.depth(x) == x

    def test_priority_order_follows_score_order(self, py_rng):
        for _ in range(200):
            a, b = py_rng.random() + 1e-9, py_rng.random() + 1e-9
            pa, pb = raw_score_priority(a), raw_score_priority(b)
            if a > b:
                assert (-pa[0], pa[1]) >= (-pb[0], pb[1])


class TestCompositeTierBands:
    def test_uniform_frequencies_share_one_tier(self, stream):
        n = 64
        tiers = set(composite_priority([1.0 / n] * n, stream)[0])
        assert tiers == {tier_value(1.0 / n, 2, 2)}

    def test_point_mass_lands_in_top_band(self, stream):
        assert composite_priority([1.0], stream)[0] == [0]


class TestTierMonotonicity:
    def test_heavier_weight_never_gets_larger_tier(self, py_rng, stream):
        schemes = (
            lambda w: composite_priority([w], stream)[0][0],
            lambda w: tier_value(w, 16, 4),
            lambda w: single_log_priority([w], stream)[0][0],
        )
        for _ in range(300):
            wx, wy = sorted((py_rng.random() ** 4 + 1e-12, py_rng.random() ** 4 + 1e-12), reverse=True)
            for tier_of in schemes:
                assert tier_of(wx) <= tier_of(wy)


class TestTierBandSize:
    def test_unit_norm_band_occupancy_bound(self, py_rng):
        # packed vector: fill tier t with as many items as one unit of mass
        # admits; the count must respect 2^(2^(t+1))
        for t in (1, 2):
            count = 2 ** (2 ** (t + 1)) - 1
            w = [1.0 / count] * count
            assert sum(w) <= 1.0 + 1e-9
            tiers = [tier_value(v, 2, 2) for v in w]
            assert set(tiers) == {t}
            assert len(tiers) <= 2 ** (2 ** (t + 1))

    def test_random_unit_vectors_respect_bound(self, py_rng):
        for _ in range(80):
            n = py_rng.randint(2, 400)
            w = random_distribution(py_rng, n, skew=py_rng.choice([1.0, 3.0, 6.0]))
            counts: dict[int, int] = {}
            for v in w:
                counts[tier_value(v, 2, 2)] = counts.get(tier_value(v, 2, 2), 0) + 1
            for t, c in counts.items():
                assert c <= 2 ** (2 ** (t + 1))


class TestDeterminism:
    def test_identical_seeds_reproduce_priorities_exactly(self):
        def draw(seed: int) -> tuple[list[int], list[float]]:
            rng = RandomStream(seed)
            return composite_priority([0.5, 0.03, 1e-6, 0.2], rng)

        assert draw(42) == draw(42)
        assert draw(42) != draw(43)

    def test_stream_counter_tracks_draws(self):
        rng = RandomStream(7)
        assert rng.counter == 0
        rng.next_offset()
        composite_priority([0.1], rng)
        assert rng.counter == 2
        single_log_priority([0.1, 0.2, 0.1], rng)
        assert rng.counter == 5

    def test_spawned_streams_deterministic_and_distinct(self):
        base = RandomStream(11)
        a, b = base.spawn(1), base.spawn(2)
        assert RandomStream(11).spawn(1).next_offset() == a.next_offset()
        assert a.seed != b.seed


@pytest.fixture
def queued_stream(monkeypatch):
    """Makes streams whose ``random.Random`` hands out queued draws in order:
    ``random.Random.random`` is patched to read each generator's own queue."""
    queues = {}
    monkeypatch.setattr(random.Random, "random", lambda rng: next(queues[rng]))

    def make(draws) -> RandomStream:
        stream = RandomStream(0)
        queues[stream._rng] = iter(draws)
        return stream

    return make


class TestOffsets:
    """``RandomStream.offsets(k)`` against ``k`` calls of ``next_offset``."""

    K = 8

    @pytest.mark.parametrize("zeros", [
        [],
        [0],          # first draw of the batch
        [3],          # a middle draw
        [7],          # the last draw of the batch
        [0, 3, 7],
        [2, 3, 4, 5],  # several in a row
        [7, 8, 9],    # the refill draws zeros too
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    ])
    def test_matches_next_offset_around_zero_draws(self, queued_stream, zeros):
        draws = [0.0 if i in zeros else (i + 1) / 64 for i in range(40)]
        got, ref = queued_stream(draws), queued_stream(draws)
        offs = got.offsets(self.K)
        assert offs == [ref.next_offset() for _ in range(self.K)]
        assert 0.0 not in offs
        assert got.counter == ref.counter == self.K
        # both consumed the same raw draws: the next one agrees
        assert got.next_offset() == ref.next_offset()

    @pytest.mark.parametrize("zeros", [(), (5, 700)], ids=["no-zero", "zeros"])
    def test_thousand_draws_on_a_real_seed(self, monkeypatch, zeros):
        # the generator's draws at positions ``zeros`` read 0.0, and the
        # seeded generator goes on to redraw them
        real = random.Random.random
        drawn = {}

        def zero_at(rng):
            u = real(rng)
            drawn[rng] = i = drawn.get(rng, 0) + 1
            return 0.0 if i in zeros else u

        monkeypatch.setattr(random.Random, "random", zero_at)
        got, ref = RandomStream(2024), RandomStream(2024)
        got.next_offset(), ref.next_offset()
        assert got.offsets(1000) == [ref.next_offset() for _ in range(1000)]
        assert got.counter == ref.counter == 1001
        assert drawn[got._rng] == drawn[ref._rng] == 1001 + len(zeros)
        assert got.next_offset() == ref.next_offset()

    def test_zero_offsets(self, stream):
        assert stream.offsets(0) == []
        assert stream.counter == 0


class TestRulesMatchPerKeyReference:
    """Each rule gives key k the tier of its own weight and the k-th offset."""

    @pytest.mark.parametrize("rule, tier_of", [
        (composite_priority, lambda w: tier_value(w, 2, 2)),
        (single_log_priority, single_log_tier),
    ])
    def test_segmented_weights(self, py_rng, rule, tier_of):
        # a few distinct weights among many keys, as in the segmented builds
        levels = [2.0 ** -k for k in (1, 3, 5, 9, 17, 33)] + [0.3, 7.5]
        weights = [py_rng.choice(levels) for _ in range(500)]
        got, ref = RandomStream(77), RandomStream(77)
        tiers, offsets = rule(weights, got)
        assert tiers == [tier_of(w) for w in weights]
        assert offsets == [ref.next_offset() for _ in weights]
        assert got.counter == ref.counter


class TestEmpiricalDepthBound:
    def test_composite_mean_depth_within_entropy_style_bound(self, py_rng):
        # per-item mean depth over >= 100 seeds against 6*(1 + log2(1/w_x))
        n = 64
        seeds = 120
        w = random_distribution(py_rng, n, skew=4.0)
        totals = [0] * (n + 1)
        for s in range(seeds):
            rng = RandomStream(5000 + s)
            t = Treap.build_arrays(*composite_priority(w, rng))
            for k, d in enumerate(t.depths()):
                totals[k] += d
        for x in range(1, n + 1):
            bound = 6.0 * (1.0 + math.log2(1.0 / w[x - 1]))
            assert totals[x] / seeds <= bound


def test_tier_value_matches_reference_formula(py_rng):
    for _ in range(500):
        w = py_rng.random() ** 6 + 1e-12
        inner = math.log(1.0 / w, 2)
        want = max(0, math.floor(math.log(inner, 2))) if inner > 1 else 0
        got = tier_value(w, 2, 2)
        # allow the exact-power fast path to disagree only at representation
        # boundaries where the float double-log sits within one ulp of an int
        if abs(inner - 2 ** round(math.log(inner, 2) if inner > 1 else 0)) > 1e-9:
            assert got == want


# ----------------------------------------------------------------------
# the base-2 inner step (one frexp path) against the parent arithmetic, which
# took base 2 through the exact-power check


def _generic_inverse_power(w: float, base: int) -> int | None:
    if base == 2:
        m, e = math.frexp(w)
        if m == 0.5 and e <= 1:
            return 1 - e
        return None
    inv = 1.0 / w
    if math.isinf(inv) or inv != int(inv):
        return None
    target, k, p = int(inv), 0, 1
    while p < target:
        p *= base
        k += 1
    return k if p == target else None


def _generic_floor_log(value: float, base: int) -> int:
    if base == 2 and isinstance(value, float):
        return math.frexp(value)[1] - 1
    k, p = 0, base
    while p <= value:
        k += 1
        p *= base
    return k


def generic_tier_value(w: float, inner_base: int, outer_base: int) -> int:
    """Reference: lg lg through the exact-power check and the floor-log walk."""
    if not w > 0.0 or math.isinf(w) or math.isnan(w):
        raise ValueError(w)
    if w >= 1.0:
        return 0
    k = _generic_inverse_power(w, inner_base)
    if k is not None:
        inner: float | int = k
    elif inner_base == 2:
        inner = -math.log2(w)
    else:
        inner = -math.log(w) / math.log(inner_base)
    if inner < 1:
        return 0
    return _generic_floor_log(inner, outer_base)


def generic_single_log_tier(w: float) -> int:
    """Reference: floor(lg(1/w)) through the exact-power check."""
    if not w > 0.0 or math.isinf(w) or math.isnan(w):
        raise ValueError(w)
    if w >= 1.0:
        return 0
    k = _generic_inverse_power(w, 2)
    if k is not None:
        return k
    return max(0, math.floor(-math.log2(w)))


def _powers_of_two_and_neighbours() -> list[float]:
    out = []
    for k in range(-1074, 3):
        p = math.ldexp(1.0, k)
        out += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # 1/w a power of two whose lg is itself a power of two: the lg lg steps
    for j in range(0, 11):
        p = math.ldexp(1.0, -(1 << j))
        if p > 0.0:
            out += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    return [w for w in out if w > 0.0]


class TestBaseTwoTiers:
    def test_powers_of_two_and_float_neighbours(self):
        for w in _powers_of_two_and_neighbours():
            for outer in (2, 3, 4):
                assert tier_value(w, 2, outer) == generic_tier_value(w, 2, outer), (w, outer)
            assert single_log_tier(w) == generic_single_log_tier(w), w

    def test_random_sweep(self, py_rng):
        for _ in range(50_000):
            # log-uniform over the whole normal and subnormal range
            w = math.ldexp(py_rng.random() + 0.5, py_rng.randint(-1074, 2))
            if w == 0.0 or math.isinf(w):
                continue
            for outer in (2, 3, 4):
                assert tier_value(w, 2, outer) == generic_tier_value(w, 2, outer), (w, outer)
            assert single_log_tier(w) == generic_single_log_tier(w), w
            for q in (1.0 / (1.0 + py_rng.randint(0, 1 << 20)) ** 2, py_rng.random()):
                if q > 0.0:
                    assert tier_value(q, 2, 2) == generic_tier_value(q, 2, 2), q
                    assert single_log_tier(q) == generic_single_log_tier(q), q

    def test_other_inner_bases_unchanged(self, py_rng):
        for _ in range(2_000):
            w = py_rng.random() ** 8 + 1e-300
            for inner, outer in ((16, 4), (16, 2), (2, 4), (64, 2)):
                assert tier_value(w, inner, outer) == generic_tier_value(w, inner, outer)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_invalid_scores_rejected(self, bad):
        with pytest.raises(ValueError):
            tier_value(bad, 2, 2)
        with pytest.raises(ValueError):
            single_log_tier(bad)
