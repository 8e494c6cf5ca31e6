"""Acceptance gate: one test per published guarantee, at desk scale.

Each test prints as a single pass/fail line under ``pytest -v``.  Asymptotic
claims are replaced by exact small-instance oracles or constant-bounded
empirical checks; every tolerance is stated inline.

What each claim compares against, and whether that reference shares code
with what it checks ("independent" means it shares none):

* c01 -- ``oracle.naive_depths`` (recursive argmax): independent.  Also
  insertion in every order against the bulk build: two construction paths
  of ``Treap`` (``update_priority`` rotations against ``_sweep``) that
  share only the node arrays read through ``parent_of``/``left_of``/
  ``right_of``.
* c02 -- the interval maximum, computed in the test from the priorities;
  ancestors are read by walking ``parent_of``: independent.
* c03 -- ``oracle.optimal_static_bst_cost`` (interval DP): independent; the
  entropy bound uses ``distributions.entropy``, which no treap code calls.
* c04 -- log2(1/p_x) from the distribution's masses: independent.
* c05 -- the exact chain depth(x) = x and the closed form (n+2)/3:
  independent.
* c06 -- composite-priority treaps built by the same ``Treap.build_arrays``
  as the single-log ones: a ratio of two runs of shared code, with no exact
  reference (ROADMAP item 2).  Known to fail.
* c07 -- the clean build (same ``Treap`` and ``composite_priority`` code)
  and bounds from ``distributions.kl``/``cross_entropy``: shares the
  structure with what it checks; only the bounds are independent of it.
* c08 -- the tier forest at the unperturbed weights (same
  ``TierForestBTreap`` code, both built from ``priorities.tier_value``
  tiers) and budgets from ``distributions``: shares the structure with what
  it checks.
* c09 -- pi^2/6 and 0.645, against a norm the test re-sums with
  ``math.fsum`` from the stored weights, not the state's running norm;
  the weights come from ``compute_stats``, which ``test_dynamic`` checks
  against ``oracle.ExhaustiveStats``.
* c10 -- the served item ``seq.at(i)``: independent.
* c11 -- the round-robin trace through the same ``run_dynamic`` and treap:
  a relative claim, fully shared code.
* c12 -- a budget from ``compute_stats``' work values, the same statistics
  ``run_dynamic`` is given: shares ``compute_stats`` (checked against the
  window-rescan oracle elsewhere), not the structures.
* c13 -- ``RankForest.check_invariant`` and ``validate``: the structure's own
  checks, so shared; ``test_em``'s ``StampHeapRankForest`` lockstep is the
  independent reference for the same structure.
* c14 -- a literal move-to-front list kept in the test: independent.
* c15 -- ``oracle.ExhaustiveStats`` (window rescans): independent.
* c16 -- ``oracle.analytic_expected_depth`` (harmonic sum): independent.
* c17 -- the exact-prediction run through the same ``run_dynamic`` and tier
  forest, and a budget from ``distributions.mae``: shares the structure;
  at eps = 0 it is a replay of the same code.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from conftest import depth_list
from scoretreap.distributions import (
    cross_entropy,
    entropy,
    error_measures,
    kl,
    mae,
    noisy_scores,
    perturb,
)
from scoretreap.dynamic import (
    NORM_CEILING,
    NORM_STEADY,
    CrudeOracle,
    IntervalSetPriorityState,
    compute_stats,
    run_dynamic,
)
from scoretreap.em import RankForest, TierForestBTreap
from scoretreap.oracle import (
    ExhaustiveStats,
    analytic_expected_depth,
    naive_depths,
    optimal_static_bst_cost,
)
from scoretreap.priorities import (
    RandomStream,
    composite_priority,
    raw_score_priority,
    single_log_priority,
    tier_value,
)
from scoretreap.sequences import TraceSpec, gen_distribution, gen_sequence
from scoretreap.treap import Treap


def _build(masses, rng, maker):
    return Treap.build_arrays(*maker(masses, rng))


def _shape(t: Treap):
    return {k: (t.parent_of(k), t.left_of(k), t.right_of(k)) for k in t.keys()}


SUITE_TRACES = {
    "x1-round-robin": TraceSpec("round-robin", n=64, m=2048),
    "x2-block-repeat": TraceSpec("block-repeat", n=64, m=2048),
    "zipf": TraceSpec("zipf", n=64, m=2048, seed=5, s=1.0),
    "uniform": TraceSpec("uniform", n=64, m=2048, seed=6),
}


# -- 1 -----------------------------------------------------------------------

def test_c01_treap_unique_for_any_insertion_order():
    """1000 random priority sets, n <= 8: recursive oracle == bulk build ==
    insertion in every order (all orders for n <= 4, 24 sampled above)."""
    t0 = time.monotonic()
    py = random.Random(11)
    for trial in range(1000):
        n = 1 + trial % 8
        pris = {k: (py.randint(0, 3), py.random() * 0.998 + 0.001)
                for k in range(1, n + 1)}
        want = naive_depths(pris)
        bulk = Treap.build(pris, n=n)
        assert bulk.depths() == depth_list(want, n)
        ref = _shape(bulk)
        if n <= 4:
            orders = itertools.permutations(range(1, n + 1))
        else:
            keys = list(range(1, n + 1))
            orders = [py.sample(keys, n) for _ in range(24)]
        for order in orders:
            t = Treap(n)
            for k in order:
                t.insert(k, *pris[k])
            assert _shape(t) == ref
    assert time.monotonic() - t0 < 10.0


# -- 2 -----------------------------------------------------------------------

def test_c02_ancestor_iff_interval_priority_max():
    """x is an ancestor of y exactly when x holds the top priority on the
    key interval [x, y]; the ancestors are read by walking the built treap's
    parent links up from y.  Exhaustive over all pairs, n <= 10, 100 seeds."""
    py = random.Random(23)
    for seed in range(100):
        n = 2 + seed % 9
        pris = {k: (py.randint(0, 2), py.random() * 0.998 + 0.001)
                for k in range(1, n + 1)}
        t = Treap.build(pris, n=n)
        for y in range(1, n + 1):
            ancestors = set()
            p = t.parent_of(y)
            while p:
                ancestors.add(p)
                p = t.parent_of(p)
            for x in range(1, n + 1):
                if x == y:
                    continue
                lo, hi = min(x, y), max(x, y)
                top = max(range(lo, hi + 1),
                          key=lambda k: (-pris[k][0], pris[k][1]))
                assert (x in ancestors) == (top == x)


# -- 3 & 4 (shared instrumentation) -------------------------------------------

@pytest.fixture(scope="module")
def zipf_static_runs():
    n, m, seeds = 1024, 100_000, 20
    t0 = time.monotonic()
    dist = gen_distribution(TraceSpec("zipf", n=n, m=0, seed=0, s=1.0))
    masses = dist.masses()
    costs, dps = [], []
    depth_sum = [0.0] * (n + 1)
    freq_sum = [0] * (n + 1)
    for s in range(seeds):
        seq = gen_sequence(TraceSpec("zipf", n=n, m=m, seed=s, s=1.0))
        counts = Counter(seq.items)
        tr = _build(masses, RandomStream(9_000 + s), composite_priority)
        depths = tr.depths()
        costs.append(sum(c * depths[k] for k, c in counts.items()))
        dps.append(optimal_static_bst_cost([counts.get(k, 0) for k in range(1, n + 1)]))
        for k in range(1, n + 1):
            depth_sum[k] += depths[k]
            freq_sum[k] += counts.get(k, 0)
    return {
        "n": n, "m": m, "seeds": seeds, "dist": dist,
        "mean_cost": sum(costs) / seeds, "mean_dp": sum(dps) / seeds,
        "mean_depth": [d / seeds for d in depth_sum],
        "mean_freq": [f / seeds for f in freq_sum],
        "elapsed": time.monotonic() - t0,
    }


def test_c03_static_optimality_vs_dp_and_entropy(zipf_static_runs):
    """Zipf(1), n=1024, m=1e5, 20 seeds: mean cost <= 4 x DP optimum and
    <= 4 m Ent(p) + 4n, inside one minute."""
    r = zipf_static_runs
    assert r["mean_cost"] <= 4.0 * r["mean_dp"]
    assert r["mean_cost"] <= 4.0 * r["m"] * entropy(r["dist"]) + 4.0 * r["n"]
    assert r["elapsed"] < 60.0


def test_c04_per_item_depth_tracks_self_information(zipf_static_runs):
    """Same runs: mean depth of every item seen >= 10 times stays within
    6 (1 + log2(1/p_x))."""
    r = zipf_static_runs
    dist, checked = r["dist"], 0
    for x in range(1, r["n"] + 1):
        if r["mean_freq"][x] >= 10:
            assert r["mean_depth"][x] <= 6.0 * (1.0 + math.log2(1.0 / dist[x]))
            checked += 1
    assert checked >= r["n"] // 2  # the filter must not hollow out the claim


# -- 5 -----------------------------------------------------------------------

def test_c05_raw_score_priorities_degenerate_to_a_chain():
    """Linear profile under raw scores: depth(x) = x exactly, so the
    expected access cost (n+2)/3 grows linearly; n in {16, 256, 4096}."""
    for n in (16, 256, 4096):
        dist = gen_distribution(TraceSpec("linear", n=n, m=0, seed=0))
        pris = {k: raw_score_priority(dist[k]) for k in range(1, n + 1)}
        t = Treap.build(pris, n=n)
        depths = t.depths()
        assert all(depths[k] == k for k in range(1, n + 1))
        expected = math.fsum(dist[k] * k for k in range(1, n + 1))
        assert expected == pytest.approx((n + 2) / 3.0)
        assert expected >= n / 3.0


# -- 6 -----------------------------------------------------------------------

def test_c06_single_log_priorities_lose_ground_as_n_grows():
    """Segmented profile, 50 seeds per size: cost(single-log)/cost(composite)
    strictly increases over n in {2^8, 2^12, 2^16} and reaches 3 at 2^16."""
    t0 = time.monotonic()
    seeds = 50

    def ratio(n: int) -> float:
        dist = gen_distribution(TraceSpec("segmented", n=n, m=0, seed=0))
        masses = [max(w, 1.0 / (n * n)) for w in dist.masses()]
        tot_single = tot_comp = 0.0
        for s in range(seeds):
            ds = _build(masses, RandomStream(300_000 + s), single_log_priority).depths()
            dc = _build(masses, RandomStream(600_000 + s), composite_priority).depths()
            tot_single += math.fsum(masses[k - 1] * ds[k] for k in range(1, n + 1))
            tot_comp += math.fsum(masses[k - 1] * dc[k] for k in range(1, n + 1))
        return tot_single / tot_comp

    ratios = [ratio(n) for n in (2 ** 8, 2 ** 12, 2 ** 16)]
    assert ratios[0] < ratios[1] < ratios[2], f"ratios not increasing: {ratios}"
    assert time.monotonic() - t0 < 120.0
    assert ratios[2] >= 3.0, (
        f"separation at n=2^16 is {ratios[2]:.3f}; the gap grows like the "
        "harmonic sum of segment depths and needs n near 2^22 to reach 3")


# -- 7 -----------------------------------------------------------------------

def test_c07_cost_robust_to_kl_perturbed_weights():
    """Zipf n=1024: treaps built from q with KL(p,q) in {0.1, 0.5, 1.0} nats
    keep mean cost <= 4 m CrossEnt(p,q) + 4n and mean overhead over the
    clean build <= 6 m KL/ln2 + 6n; 10 seeds per point."""
    n, m, seeds = 1024, 50_000, 10
    dist = gen_distribution(TraceSpec("zipf", n=n, m=0, seed=0, s=1.0))
    masses = dist.masses()
    for eps in (0.1, 0.5, 1.0):
        cost_noisy, cost_base, bound_ce, bound_kl = [], [], [], []
        for s in range(seeds):
            q = perturb(dist, "kl", eps, rng=random.Random(7_000 + s))
            seq = gen_sequence(TraceSpec("zipf", n=n, m=m, seed=s, s=1.0))
            counts = Counter(seq.items)
            d_base = _build(masses, RandomStream(17_000 + s), composite_priority).depths()
            d_noisy = _build(q.masses(), RandomStream(27_000 + s), composite_priority).depths()
            cost_base.append(sum(c * d_base[k] for k, c in counts.items()))
            cost_noisy.append(sum(c * d_noisy[k] for k, c in counts.items()))
            bound_ce.append(4.0 * m * cross_entropy(dist, q) + 4.0 * n)
            bound_kl.append(6.0 * m * kl(dist, q) / math.log(2) + 6.0 * n)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(cost_noisy) <= mean(bound_ce)
        assert mean(cost_noisy) - mean(cost_base) <= mean(bound_kl)


# -- 8 -----------------------------------------------------------------------

def test_c08_block_overhead_within_each_measure_budget():
    """Tier forest at B=16, n=4096: for each distance measure, at an eps
    where the additive term dominates, the extra block I/O of the perturbed
    build stays within 8 x that additive term (3 seeds each)."""
    n, m, B, seeds = 4096, 50_000, 16, 3
    lnB = math.log(B)
    eps_for = {"kl": 1.0, "chi2": 2.0, "tv": 0.3,
               "l2": 0.05, "linf": 0.01, "hellinger": 0.2}
    dist = gen_distribution(TraceSpec("zipf", n=n, m=0, seed=0, s=1.0))
    masses = dist.masses()

    def static_blocks(weights, rng_seed, counts):
        tiers = [tier_value(w, B, TierForestBTreap.OUTER_BASE) for w in weights]
        st = TierForestBTreap(tiers, B, rng=RandomStream(rng_seed))
        return sum(c * st.access(k) for k, c in counts.items())

    for measure, eps in eps_for.items():
        overheads, budgets = [], []
        for s in range(seeds):
            q = perturb(dist, measure, eps, rng=random.Random(5_000 + s))
            if measure in ("kl", "chi2"):
                realized = kl(dist, q) if measure == "kl" else error_measures(dist, q)["chi2"]
                additive = m * realized / lnB
            else:
                realized = error_measures(dist, q)[measure]
                additive = m * math.log(1.0 + realized * n, B)
            counts = Counter(gen_sequence(
                TraceSpec("zipf", n=n, m=m, seed=s, s=1.0)).items)
            base = static_blocks(masses, 31_000 + s, counts)
            noisy = static_blocks(q.masses(), 41_000 + s, counts)
            overheads.append(noisy - base)
            budgets.append(8.0 * additive)
        assert sum(overheads) / seeds <= sum(budgets) / seeds, (measure, overheads, budgets)


# -- 9 & 10 --------------------------------------------------------------------

def test_c09_interval_score_norm_never_exceeds_the_certificate():
    """Sum of interval-set scores stays <= pi^2/6 at every step of every
    suite trace, and <= 0.645 once every item has been touched."""
    for name, spec in SUITE_TRACES.items():
        seq = gen_sequence(spec)
        st = compute_stats(seq)
        state = IntervalSetPriorityState(seq.n)
        seen: set[int] = set()
        for i in range(1, seq.m + 1):
            state.step(i, st)
            seen.add(seq.at(i))
            norm = math.fsum(state.isp[1:])
            assert norm <= NORM_CEILING + 1e-12, (name, i)
            if len(seen) == seq.n:
                assert norm <= NORM_STEADY + 1e-12, (name, i)


def test_c10_interval_scheme_reweights_at_most_one_item_per_step():
    for name, spec in SUITE_TRACES.items():
        seq = gen_sequence(spec)
        st = compute_stats(seq)
        state = IntervalSetPriorityState(seq.n)
        for i in range(1, seq.m + 1):
            u = state.step(i, st)
            assert len(u) <= 1 and u <= {seq.at(i)}, (name, i)


# -- 11 -----------------------------------------------------------------------

def test_c11_blocked_trace_beats_round_robin_under_interval_scheme():
    """n=256, m=1e5, dynamic interval-set treap: the block-repeat trace is
    strictly cheaper than round-robin for each of 10 seeds."""
    n, m = 256, 100_000
    x1 = gen_sequence(TraceSpec("round-robin", n=n, m=m))
    x2 = gen_sequence(TraceSpec("block-repeat", n=n, m=m))
    st1, st2 = compute_stats(x1), compute_stats(x2)
    for seed in range(10):
        c1 = run_dynamic(x1, "interval-set", "treap",
                         rng=RandomStream(80_000 + seed), stats=st1).total_cost
        c2 = run_dynamic(x2, "interval-set", "treap",
                         rng=RandomStream(80_000 + seed), stats=st2).total_cost
        assert c2 < c1, (seed, c1, c2)


# -- 12 -----------------------------------------------------------------------

def test_c12_total_cost_within_working_set_budget():
    """X2 and Zipf at n=1024, m=1e4: treap schemes (exact-future and crude
    backward) within 8 (n log2 n + sum log2(work+1)); rank forest at B=16
    within the same budget measured in log_B blocks."""
    n, m = 1024, 10_000
    for spec in (TraceSpec("block-repeat", n=n, m=m),
                 TraceSpec("zipf", n=n, m=m, seed=3, s=1.0)):
        seq = gen_sequence(spec)
        st = compute_stats(seq)
        work_log2 = math.fsum(math.log2(st.work[i] + 1) for i in range(1, m + 1))
        treap_budget = 8.0 * (n * math.log2(n) + work_log2)
        for scheme in ("future-ws-exact", "past-ws-crude"):
            for seed in range(2):
                bd = run_dynamic(seq, scheme, "treap",
                                 rng=RandomStream(50_000 + seed), stats=st)
                assert bd.total_cost <= treap_budget, (spec.family, scheme, seed)
        B = 16
        forest = RankForest(n, B)
        blocks = sum(forest.access(x) for x in seq.items)
        forest_budget = 8.0 * (n * math.log(n, B) + work_log2 / math.log2(B))
        assert blocks <= forest_budget, (spec.family, blocks, forest_budget)


# -- 13 -----------------------------------------------------------------------

def test_c13_rank_forest_invariant_after_every_access():
    n, B = 1024, 4
    for family in ("round-robin", "block-repeat", "zipf", "uniform"):
        seq = gen_sequence(TraceSpec(family, n=n, m=2048, seed=9, s=1.0))
        st = RankForest(n, B)
        for i, x in enumerate(seq.items, start=1):
            st.access(x)
            err = st.check_invariant()
            assert err is None, (family, i, err)
        assert st.validate() is None


# -- 14 -----------------------------------------------------------------------

def test_c14_crude_scores_stay_in_band_with_few_updates():
    """n=1024, 1e5 random steps against a literal move-to-front list: every
    reported work value is exact, every touched score sits in the log band,
    and no step re-scores more than floor(log2 n) + 1 = 11 items."""
    n, steps = 1024, 100_000
    py = random.Random(14)
    oracle = CrudeOracle(n)
    front: list[int] = []
    cap = math.floor(math.log2(n)) + 1
    for _ in range(steps):
        key = py.randint(1, n)
        rows = oracle.step(key)
        if key in front:
            front.remove(key)
        front.insert(0, key)
        assert 1 <= len(rows) <= cap
        for item, s, w in rows:
            assert w == front.index(item)
            assert math.log2(w + 1) <= math.log2(s + 1) <= 2.0 * math.log2(w + 1) + 1.0


# -- 15 -----------------------------------------------------------------------

def test_c15_future_at_previous_step_equals_work_now():
    """future(i-1, x(i)) == work(i) for every repeat access, every suite
    trace (checked against the literal window-rescan oracle)."""
    for name, spec in SUITE_TRACES.items():
        seq = gen_sequence(spec)
        ex = ExhaustiveStats(seq.items, seq.n)
        st = compute_stats(seq)
        for i in range(2, seq.m + 1):
            x = seq.at(i)
            if ex.prev_strict(i, x):
                assert ex.future(i - 1, x) == st.work[i], (name, i)


# -- 16 -----------------------------------------------------------------------

def test_c16_uniform_treap_depths_match_the_harmonic_formula():
    """Mean depth of every key over 300 uniform treaps lands within 10% of
    the exact two-sided harmonic expectation; n in {64, 1024}."""
    seeds = 300
    for n in (64, 1024):
        acc = [0.0] * (n + 1)
        for s in range(seeds):
            rng = RandomStream(90_000 + s)
            t = Treap.build_arrays([0] * n, [rng.next_offset() for _ in range(n)])
            d = t.depths()
            for k in range(1, n + 1):
                acc[k] += d[k]
        for x in range(1, n + 1):
            want = analytic_expected_depth(x, n)
            assert abs(acc[x] / seeds - want) <= 0.10 * want, (n, x)


# -- 17 -----------------------------------------------------------------------

def test_c17_noisy_interval_predictions_cost_within_mae_budget():
    """Tier forest at B=16, n=256: predictions perturbed to summed error
    eps in {0, m/2n, m/n} cost at most exact + 8 m log_B(1 + n eps/m) + 8n."""
    n, m, B = 256, 10_000, 16
    seq = gen_sequence(TraceSpec("zipf", n=n, m=m, seed=2, s=1.0))
    st = compute_stats(seq)
    intervals = [float(st.interval[i]) for i in range(1, m + 1)]
    exact = run_dynamic(seq, "future-ws-noisy", "tier-forest", B=B,
                        rng=RandomStream(5), predicted_scores=intervals, stats=st)
    for eps in (0.0, m / (2 * n), m / n):
        if eps:
            pred = noisy_scores(intervals, target=eps,
                                rng=random.Random(77), hi=float(n))
        else:
            pred = intervals
        realized = mae(intervals, pred)
        bd = run_dynamic(seq, "future-ws-noisy", "tier-forest", B=B,
                         rng=RandomStream(5), predicted_scores=pred, stats=st)
        budget = exact.total_cost + 8.0 * m * math.log(1.0 + n * realized / m, B) + 8.0 * n
        assert bd.total_cost <= budget, (eps, bd.total_cost, budget)
        if eps == 0.0:
            assert bd.total_cost == exact.total_cost
