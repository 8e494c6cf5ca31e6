"""The four pinned benchmark workloads and the layers each must reach.

Every workload is a list of ``scoretreap`` CLI invocations run in-process at
``--threads 1``.  An invocation carries its config text, its trial count and
the number of operations it completes:

* on the dynamic workloads an op is one served access, trials x ``m`` per
  ``run_dynamic`` call;
* on ``static-trees`` an op is one key placed into a built treap.

``EXERCISED`` and ``BYPASSED`` name the wrapped functions (see ``layers.py``)
that must be called, and must not be called, on each workload.  The traced
run checks both, so a change that silently moves work between layers shows
as a failed invocation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    subcommand: str
    config: str
    trials: int
    ops: int


def _working_set(structure: str, scheme: str, n: int, m: int, trials: int) -> Invocation:
    config = (f"n = {n}\nm = {m}\nfamily = zipf\ns = 1.0\nscheme = {scheme}\n"
              f"structure = {structure}\nb = 16\n")
    return Invocation("working-set", config, trials, trials * m)


def _counterexamples(raw_n: tuple[int, ...], single_log_n: tuple[int, ...],
                     trials: int) -> Invocation:
    config = (f"raw_n = {','.join(map(str, raw_n))}\n"
              f"single_log_n = {','.join(map(str, single_log_n))}\n")
    # one raw-score build per size, then a single-log and a composite build
    # per size and trial
    return Invocation("counterexamples", config, trials,
                      sum(raw_n) + 2 * trials * sum(single_log_n))


def _robustness(n: int, m: int, eps: float, trials: int) -> Invocation:
    config = f"n = {n}\nm = {m}\neps = {eps}\nmeasure = kl\n"
    # an exact-weight build and a perturbed-weight build per trial
    return Invocation("robustness", config, trials, 2 * trials * n)


def _em_compare(n: int, m: int, trials: int) -> Invocation:
    config = f"n = {n}\nm = {m}\nb = 16\nscheme = interval-set\n"
    # a tier-forest and a det-forest run per trial
    return Invocation("em-compare", config, trials, 2 * trials * m)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "ws-treap-zipf": (
        _working_set("treap", "future-ws-exact", n=4096, m=100_000, trials=2),
    ),
    "em-tier-forest": (
        _em_compare(n=1024, m=10_000, trials=2),
    ),
    "recency-crude": tuple(
        _working_set(structure, "past-ws-crude", n=4096, m=20_000, trials=1)
        for structure in ("treap", "det-forest", "rank-forest")
    ),
    "static-trees": (
        _counterexamples(raw_n=(16, 256, 4096), single_log_n=(4096, 65536), trials=5),
        _robustness(n=4096, m=20_000, eps=0.5, trials=3),
    ),
}

# what an op is on each workload: a served access or a key placed in a build
OP_KIND = {
    "ws-treap-zipf": "access",
    "em-tier-forest": "access",
    "recency-crude": "access",
    "static-trees": "key",
}

_EM = ("em.TierForestBTreap.access", "em.TierForestBTreap.update_weight",
       "em.DetScoreForest.access", "em.DetScoreForest.update_weight",
       "em.RankForest.access", "em.BTree.__init__", "em.BTree.search",
       "em.BTree.insert", "em.BTree.delete")
_TIER_FOREST = ("em.TierForestBTreap.access", "em.TierForestBTreap.update_weight")

EXERCISED: dict[str, tuple[str, ...]] = {
    "ws-treap-zipf": (
        "cli.main", "sequences.gen_sequence", "priorities.composite_priority",
        "priorities.tier_value", "treap.Treap.build_arrays", "treap.Treap.access",
        "treap.Treap.update_priority", "dynamic.compute_stats", "dynamic.run_dynamic"),
    "em-tier-forest": (
        "cli.main", "sequences.gen_sequence", "priorities.tier_value",
        "treap.Treap.build_arrays", "treap.Treap.update_priority",
        "dynamic.compute_stats", "dynamic.run_dynamic",
        "em.TierForestBTreap.access", "em.TierForestBTreap.update_weight",
        "em.DetScoreForest.access", "em.DetScoreForest.update_weight",
        "em.BTree.__init__", "em.BTree.search", "em.BTree.insert", "em.BTree.delete"),
    "recency-crude": (
        "cli.main", "sequences.gen_sequence", "priorities.composite_priority",
        "priorities.tier_value", "treap.Treap.build_arrays", "treap.Treap.access",
        "treap.Treap.update_priority", "dynamic.compute_stats", "dynamic.run_dynamic",
        "dynamic.CrudeOracle.step", "em.DetScoreForest.access",
        "em.DetScoreForest.update_weight", "em.RankForest.access", "em.BTree.__init__",
        "em.BTree.search", "em.BTree.insert", "em.BTree.delete"),
    "static-trees": (
        "cli.main", "sequences.gen_sequence", "sequences.gen_distribution",
        "distributions.perturb", "priorities.composite_priority",
        "priorities.single_log_priority", "priorities.tier_value",
        "treap.Treap.build_arrays", "treap.Treap.build", "treap.Treap.depths"),
}

BYPASSED: dict[str, tuple[str, ...]] = {
    "ws-treap-zipf": (
        "distributions.perturb", "priorities.single_log_priority", "treap.Treap.build",
        "treap.Treap.depths", "dynamic.CrudeOracle.step", *_EM),
    "em-tier-forest": (
        "distributions.perturb", "priorities.composite_priority",
        "priorities.single_log_priority", "treap.Treap.build", "treap.Treap.depths",
        "treap.Treap.access", "dynamic.CrudeOracle.step", "em.RankForest.access"),
    "recency-crude": (
        "distributions.perturb", "priorities.single_log_priority", "treap.Treap.build",
        "treap.Treap.depths", *_TIER_FOREST),
    "static-trees": (
        "treap.Treap.access", "treap.Treap.update_priority", "dynamic.compute_stats",
        "dynamic.run_dynamic", "dynamic.CrudeOracle.step", *_EM),
}
