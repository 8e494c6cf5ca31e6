"""Distribution arithmetic, divergence measures, and noise injectors."""

import math
import random

import pytest

from conftest import random_distribution
from scoretreap import distributions
from scoretreap.distributions import (
    MEASURES,
    Distribution,
    cross_entropy,
    entropy,
    error_measures,
    kl,
    mae,
    noisy_scores,
    perturb,
)


def random_pair(py: random.Random, n: int) -> tuple[Distribution, Distribution]:
    return (
        Distribution(random_distribution(py, n, skew=2.0)),
        Distribution(random_distribution(py, n, skew=2.0)),
    )


class TestDistributionType:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Distribution([1.2, -0.2])

    def test_from_unnormalized(self):
        d = Distribution.from_unnormalized([2.0, 1.0, 1.0])
        assert d.masses() == [0.5, 0.25, 0.25]

    def test_uniform(self):
        d = Distribution.uniform(4)
        assert d.masses() == [0.25] * 4

    @pytest.mark.parametrize("make, message", [
        (lambda: Distribution([]), "distribution must be non-empty"),
        (lambda: Distribution.from_unnormalized([0.0]), "cannot normalize a non-positive vector"),
    ], ids=["empty", "zero-vector"])
    def test_rejected_with_its_message(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_keys_are_1_to_n(self):
        d = Distribution([0.5, 0.25, 0.25])
        assert (d[1], d[3]) == (0.5, 0.25)
        for key in (0, 4):
            with pytest.raises(KeyError):
                d[key]


class TestEntropy:
    def test_examples(self):
        assert entropy(Distribution([0.5, 0.25, 0.25])) == pytest.approx(1.5)
        assert entropy(Distribution([1.0, 0.0])) == 0.0
        assert entropy(Distribution.uniform(8)) == pytest.approx(3.0)


class TestCrossEntropyAndKl:
    def test_point_mass_example(self):
        p = Distribution([1.0, 0.0])
        q = Distribution([0.5, 0.5])
        assert cross_entropy(p, q) == pytest.approx(1.0)
        assert kl(p, q) == pytest.approx(math.log(2.0))  # nats: one bit

    def test_kl_of_identical_is_zero(self, py_rng):
        for _ in range(30):
            p, _ = random_pair(py_rng, py_rng.randint(2, 50))
            assert kl(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_kl_nonnegative_and_decomposes(self, py_rng):
        for _ in range(200):
            p, q = random_pair(py_rng, py_rng.randint(2, 40))
            d = kl(p, q)
            assert d >= -1e-12
            assert d / math.log(2.0) == pytest.approx(cross_entropy(p, q) - entropy(p), abs=1e-9)

    @pytest.mark.parametrize("divergence, name", [(kl, "kl"), (cross_entropy, "cross entropy")],
                             ids=["kl", "cross_entropy"])
    def test_support_violation_is_an_error(self, divergence, name):
        p = Distribution([0.5, 0.5])
        q = Distribution([1.0, 0.0])
        with pytest.raises(ValueError, match=f"^{name} undefined: prediction drops supported mass$"):
            divergence(p, q)

    @pytest.mark.parametrize("divergence", [cross_entropy, kl, error_measures])
    def test_length_mismatch_rejected(self, divergence):
        with pytest.raises(ValueError, match="^length mismatch: 2 vs 3$"):
            divergence(Distribution.uniform(2), Distribution.uniform(3))

    def test_kl_floor_follows_the_sum_tolerance(self):
        # both sums lie within 1e-9 of 1, so both are accepted; their kl
        # sums to -1.6e-9, above the floor the tolerance allows
        p = Distribution([0.5 - 4e-10] * 2)
        q = Distribution([0.5 + 4e-10] * 2)
        assert kl(p, q) == 0.0
        # q's masses corrupted after the check to sum to 1.01: kl = -ln 1.01
        q._p = [v * 1.01 for v in q._p]
        with pytest.raises(AssertionError, match="^kl came out negative: -0.00995"):
            kl(p, q)

    def test_kl_bounded_by_chi_square_in_nats(self, py_rng):
        for _ in range(400):
            p, q = random_pair(py_rng, py_rng.randint(2, 30))
            assert kl(p, q) <= error_measures(p, q)["chi2"] + 1e-12


class TestErrorMeasures:
    def test_identical_distributions_are_all_zero(self):
        d = Distribution.uniform(5)
        assert all(v == 0.0 for v in error_measures(d, d).values())

    def test_hand_example(self):
        p = Distribution([1.0, 0.0])
        q = Distribution([0.5, 0.5])
        em = error_measures(p, q)
        assert em["tv"] == pytest.approx(0.5)
        assert em["l2"] == pytest.approx(math.sqrt(0.5))
        assert em["linf"] == pytest.approx(0.5)
        assert em["chi2"] == pytest.approx(1.0)
        assert em["hellinger"] == pytest.approx(
            0.5 * math.sqrt((1 - math.sqrt(0.5)) ** 2 + 0.5)
        )

    def test_chi_square_is_infinite_when_q_drops_supported_mass(self):
        # key 2 has mass under p and none under q; key 3 after it adds a
        # finite term, which leaves the sum infinite
        p = Distribution([0.25, 0.25, 0.5])
        q = Distribution([0.5, 0.0, 0.5])
        em = error_measures(p, q)
        assert em["chi2"] == math.inf
        assert em["tv"] == pytest.approx(0.25)
        assert all(math.isfinite(v) for name, v in em.items() if name != "chi2")

    def test_norm_ordering_and_hellinger_inequality(self, py_rng):
        for _ in range(1000):
            p, q = random_pair(py_rng, py_rng.randint(2, 40))
            em = error_measures(p, q)
            l1 = 2.0 * em["tv"]
            assert em["linf"] <= em["l2"] + 1e-12
            assert em["l2"] <= l1 + 1e-12
            assert em["linf"] <= 2.0 * math.sqrt(2.0) * em["hellinger"] + 1e-12


class TestPerturb:
    MEASURES = ("kl", "tv", "l2", "linf", "chi2", "hellinger")

    def test_zero_target_returns_same_distribution(self, py_rng):
        p = Distribution(random_distribution(py_rng, 20))
        for measure in self.MEASURES:
            assert perturb(p, measure, 0.0, rng=random.Random(0)).masses() == p.masses()

    def test_unknown_measure_rejected_before_any_search(self):
        p = Distribution.uniform(8)
        for eps in (0.0, 0.5):
            with pytest.raises(ValueError, match="unknown error measure"):
                perturb(p, "kullback", eps, rng=random.Random(0))

    def test_achieved_error_within_band(self, py_rng):
        targets = {"kl": 0.2, "tv": 0.1, "l2": 0.05, "linf": 0.01, "chi2": 0.3, "hellinger": 0.1}
        for seed in range(5):
            rng = random.Random(100 + seed)
            p = Distribution(random_distribution(rng, 100, skew=2.0))
            for measure, eps in targets.items():
                q = perturb(p, measure, eps, rng=rng)
                got = kl(p, q) if measure == "kl" else error_measures(p, q)[measure]
                assert 0.8 * eps <= got <= 1.2 * eps

    @pytest.mark.parametrize("n", [50, 2048])
    def test_uniform_base_reachable_via_tilt(self, n):
        p = Distribution.uniform(n)
        q = perturb(p, "tv", 0.1, rng=random.Random(3))
        tv = error_measures(p, q)["tv"]
        assert 0.08 <= tv <= 0.12

    def test_floor_keeps_masses_positive(self, py_rng):
        p = Distribution(random_distribution(py_rng, 64, skew=6.0))
        q = perturb(p, "kl", 1.0, rng=random.Random(8))
        assert min(q.masses()) > 0.0

    def test_infeasible_target_rejected(self):
        p = Distribution.uniform(4)
        with pytest.raises(ValueError):
            perturb(p, "tv", 5.0, rng=random.Random(1))

    def test_walk_gives_none_when_the_family_end_is_not_a_distribution(self):
        p = Distribution([0.75, 0.25])

        def family(lam):  # moves mass lam from key 1 to key 2; tv(p, family(lam)) = lam
            return Distribution([0.75 - lam, 0.25 + lam])

        # family(1.0) has a negative mass, so the walk has no end to measure
        assert distributions._walk(p, family, 1.0, "tv", 0.1) is None
        q = distributions._walk(p, family, 0.5, "tv", 0.1)
        assert 0.09 <= error_measures(p, q)["tv"] <= 0.11


def _perturb_80_steps(p, measure, eps, rng):
    """``perturb`` as it was before its bisection stopped at a fixed point:
    always 80 steps per family."""
    n = p.n
    floor = 1.0 / (100.0 * n * n)

    def measure_of(q):
        return kl(p, q) if measure == "kl" else error_measures(p, q)[measure]

    def apply_floor(vals):
        clipped = [max(v, floor) for v in vals]
        s = math.fsum(clipped)
        return [v / s for v in clipped]

    base = p.masses()
    uni = [1.0 / n] * n
    direction = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(n)]

    def mixture(lam):
        return Distribution(apply_floor([(1 - lam) * b + lam * u for b, u in zip(base, uni)]))

    def tilt(lam):
        vals = [max(b, floor) * math.exp(lam * d) for b, d in zip(base, direction)]
        total = math.fsum(vals)
        return Distribution(apply_floor([v / total for v in vals]))

    for family, hi in ((mixture, 1.0), (tilt, 80.0)):
        try:
            reach = measure_of(family(hi))
        except ValueError:
            continue
        if reach < eps:
            continue
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if measure_of(family(mid)) < eps:
                lo = mid
            else:
                hi = mid
        q = family(hi)
        if 0.9 * eps <= measure_of(q) <= 1.1 * eps:
            return q
    raise ValueError("unreachable")


class TestPerturbEarlyStop:
    """The bisection stops once a step leaves (lo, hi) unchanged; the
    returned ``q`` must be bit-identical to the one 80 steps give."""

    TARGETS = {"kl": 0.5, "tv": 0.1, "l2": 0.02, "linf": 0.002, "chi2": 0.3, "hellinger": 0.1}

    @pytest.mark.parametrize("family", ["zipf", "uniform"])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_the_80_step_bisection(self, monkeypatch, family, measure):
        n = 300
        if family == "zipf":  # reached by the mixture walk
            p = Distribution.from_unnormalized([1.0 / k for k in range(1, n + 1)])
        else:  # the mixture walk cannot move it: only the tilt reaches eps
            p = Distribution.uniform(n)
        eps = self.TARGETS[measure]
        want = _perturb_80_steps(p, measure, eps, random.Random(5))
        calls = []
        inner = distributions._measure
        monkeypatch.setattr(distributions, "_measure", lambda *a: calls.append(a) or inner(*a))
        got = perturb(p, measure, eps, rng=random.Random(5))
        assert got.masses() == want.masses()
        # the stop fired: fewer measurements than one family's 80 steps
        assert len(calls) < 80


def _perturb_unremembered(p, measure, eps, rng=None):
    """``perturb`` as it was before it remembered its mixture walk on ``p``:
    the eager direction draw, the ``uni`` list, the ``max`` clip and the
    two-family loop, run afresh on every call."""
    n = p.n
    floor = 1.0 / (100.0 * n * n)
    if eps == 0.0:
        return Distribution(p.masses())
    rng = rng or random.Random(0)

    def measure_of(q):
        return kl(p, q) if measure == "kl" else error_measures(p, q)[measure]

    def apply_floor(vals):
        clipped = [max(v, floor) for v in vals]
        s = math.fsum(clipped)
        return [v / s for v in clipped]

    def bisect(below, hi):
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if below(mid):
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return hi

    base = p.masses()
    uni = [1.0 / n] * n
    direction = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(n)]

    def mixture(lam):
        return Distribution(apply_floor([(1 - lam) * b + lam * u for b, u in zip(base, uni)]))

    def tilt(lam):
        vals = [max(b, floor) * math.exp(lam * d) for b, d in zip(base, direction)]
        total = math.fsum(vals)
        return Distribution(apply_floor([v / total for v in vals]))

    reached = []
    for family, hi in ((mixture, 1.0), (tilt, 80.0)):
        try:
            reach = measure_of(family(hi))
        except ValueError:
            continue
        reached.append(reach)
        if reach < eps:
            continue
        q = family(bisect(lambda lam: measure_of(family(lam)) < eps, hi))
        if 0.9 * eps <= measure_of(q) <= 1.1 * eps:
            return q
    largest = f" (largest reached {max(reached):.3f})" if reached else ""
    raise ValueError(f"cannot reach {measure}={eps} from this distribution{largest}")


def _zipf(n):
    return Distribution.from_unnormalized([1.0 / k for k in range(1, n + 1)])


class TestPerturbRemembersTheMixtureWalk:
    """``perturb`` runs its rng-free mixture walk once per (p, measure, eps);
    every call must still return what a fresh walk returns, and advance its
    ``rng`` exactly as before."""

    TARGETS = {"kl": (0.5, 0.2), "tv": (0.1, 0.2), "l2": (0.02, 0.01),
               "linf": (0.002, 0.001), "chi2": (0.3, 0.6), "hellinger": (0.1, 0.05)}

    @staticmethod
    def _outcome(fn, p, measure, eps, rng):
        try:
            return fn(p, measure, eps, rng=rng).masses()
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("shared", [False, True], ids=["fresh-rngs", "shared-rng"])
    @pytest.mark.parametrize("family", ["zipf", "uniform"])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_the_unremembered_perturb(self, family, measure, shared):
        n = 300
        # zipf is reached by the mixture walk; uniform only by the tilt
        p = _zipf(n) if family == "zipf" else Distribution.uniform(n)
        a, b = self.TARGETS[measure]
        got_rng, want_rng = random.Random(11), random.Random(11)
        for i, eps in enumerate((a, b, a)):
            if not shared:
                got_rng, want_rng = random.Random(20 + i), random.Random(20 + i)
            want = self._outcome(_perturb_unremembered, p, measure, eps, want_rng)
            got = self._outcome(perturb, p, measure, eps, got_rng)
            assert isinstance(want, list), want
            assert got == want, (eps, i)
            assert got_rng.getstate() == want_rng.getstate(), (eps, i)
        assert len(p._mixture_walks) == 2

    @pytest.mark.parametrize("family", ["zipf", "uniform"])
    def test_unreachable_target_gives_the_same_error_on_a_repeat(self, family):
        n = 300
        p = _zipf(n) if family == "zipf" else Distribution.uniform(n)
        got_rng, want_rng = random.Random(4), random.Random(4)
        for _ in range(2):  # the walk, then its remembered outcome
            want = self._outcome(_perturb_unremembered, p, "tv", 5.0, want_rng)
            assert want.startswith("cannot reach tv=5.0 from this distribution (largest reached ")
            assert self._outcome(perturb, p, "tv", 5.0, got_rng) == want
            assert got_rng.getstate() == want_rng.getstate()

    def test_the_tilt_is_never_remembered(self):
        p = Distribution.uniform(300)
        qs = [perturb(p, "tv", 0.1, rng=random.Random(seed)) for seed in (1, 2)]
        assert qs[0].masses() != qs[1].masses()
        for seed, q in zip((1, 2), qs):
            want = _perturb_unremembered(p, "tv", 0.1, rng=random.Random(seed))
            assert q.masses() == want.masses()

    def test_a_repeat_call_runs_no_mixture_step(self, monkeypatch):
        p = _zipf(300)
        calls = []
        inner = distributions._measure
        monkeypatch.setattr(distributions, "_measure", lambda *a: calls.append(a) or inner(*a))
        first = perturb(p, "kl", 0.5, rng=random.Random(1))
        walked = len(calls)
        assert walked > 0
        assert perturb(p, "kl", 0.5, rng=random.Random(2)) is first
        assert len(calls) == walked
        # a new target is a new walk
        perturb(p, "kl", 0.4, rng=random.Random(2))
        assert len(calls) > walked


class TestDistributionMessages:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    @pytest.mark.parametrize("key", [1, 3, 5])
    def test_names_the_first_bad_key(self, key, bad):
        masses = [0.2] * 5
        masses[key - 1] = bad
        with pytest.raises(ValueError, match=f"^mass for key {key} must be a finite non-negative number$"):
            Distribution(masses)
        masses[4] = bad
        with pytest.raises(ValueError, match=f"^mass for key {key} must be a finite non-negative number$"):
            Distribution(masses)


class TestMae:
    def test_examples(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.5]) == pytest.approx(0.5)

    def test_is_the_summed_absolute_error(self, py_rng):
        a = [py_rng.random() for _ in range(50)]
        b = [py_rng.random() for _ in range(50)]
        assert mae(a, b) == pytest.approx(sum(abs(x - y) for x, y in zip(a, b)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])


def _noisy_scores_80_steps(scores, target, rng, lo, hi):
    """``noisy_scores`` as it was before its bisection stopped at a fixed
    point: always 80 steps after the doubling search."""
    base = [float(s) for s in scores]
    dirs = [rng.uniform(-1.0, 1.0) for _ in base]

    def apply(c):
        return [min(max(s + c * d, lo), hi) for s, d in zip(base, dirs)]

    top = 1.0
    while mae(base, apply(top)) < target:
        top *= 2.0
    bot = 0.0
    for _ in range(80):
        mid = 0.5 * (bot + top)
        if mae(base, apply(mid)) < target:
            bot = mid
        else:
            top = mid
    return apply(top)


class TestNoisyScores:
    @pytest.mark.parametrize("target", [5.0, 40.0, 200.0, 5000.0])
    def test_matches_the_80_step_bisection(self, monkeypatch, target):
        scores = [float(k % 65) for k in range(0, 400 * 7, 7)]
        want = _noisy_scores_80_steps(scores, target, random.Random(17), 0.0, 64.0)
        calls = []
        inner = distributions.mae
        monkeypatch.setattr(distributions, "mae", lambda *a: calls.append(a) or inner(*a))
        got = noisy_scores(scores, target, rng=random.Random(17), hi=64.0)
        assert got == want
        # the stop fired: fewer passes than the 80 bisection steps alone
        assert len(calls) < 80

    @pytest.mark.parametrize("scores, target, hi, message", [
        # clamped to [0, 1], two scores can move by 2 in all
        ([0.0, 0.0], 10.0, 1.0, "cannot reach summed error 10.0 within clamps"),
        # the least nonzero move of 1000.0 is one ulp, 1.137e-13
        ([1000.0, 1000.0], 1e-20, 2000.0, "summed error 1.13"),
    ], ids=["past-the-clamps", "below-one-ulp"])
    def test_unreachable_target_rejected(self, scores, target, hi, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            noisy_scores(scores, target, rng=random.Random(0), hi=hi)

    def test_zero_target_is_identity(self, py_rng):
        scores = [float(py_rng.randint(0, 9)) for _ in range(30)]
        assert noisy_scores(scores, 0.0, hi=9.0, rng=random.Random(0)) == scores

    def test_hits_target_within_ten_percent(self, py_rng):
        scores = [float(py_rng.randint(0, 64)) for _ in range(400)]
        for target in (5.0, 40.0, 200.0):
            noisy = noisy_scores(scores, target, rng=random.Random(17), hi=64.0)
            got = mae(scores, noisy)
            assert 0.9 * target <= got <= 1.1 * target
            assert all(0.0 <= v <= 64.0 for v in noisy)
