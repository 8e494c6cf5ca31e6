"""Layer tracing from outside the program: wrap public functions, keep spans.

``WRAPPED`` lists, per module of ``src/scoretreap``, the public functions the
traced run wraps.  A wrapper is patched in wherever the original is looked
up: on its class for methods, and in every loaded ``scoretreap`` module that
imported the function by name (``dynamic.composite_priority``,
``em.tier_value``, ``cli.run_dynamic`` ...).

Each call records one span -- function, start, end, parent span -- in flat
arrays kept in memory; ``Tracer.metrics`` reduces them once the pass is
over.  A span's self time is its duration minus the durations of its direct
child spans.  Hooks on a few functions also total the counted costs the
program returns, which are the figures that must never move.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

PACKAGE = "scoretreap"

WRAPPED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "sequences": ("gen_sequence", "gen_distribution"),
    "distributions": ("perturb",),
    "priorities": ("composite_priority", "single_log_priority", "tier_value"),
    "treap": ("Treap.build_arrays", "Treap.build", "Treap.depths", "Treap.access",
              "Treap.update_priority"),
    "dynamic": ("compute_stats", "run_dynamic", "CrudeOracle.step"),
    "em": ("TierForestBTreap.access", "TierForestBTreap.update_weight",
           "DetScoreForest.access", "DetScoreForest.update_weight", "RankForest.access",
           "BTree.__init__", "BTree.search", "BTree.insert", "BTree.delete"),
}

# per-step functions: these also get latency percentiles
PER_STEP = (
    "treap.Treap.access", "treap.Treap.update_priority", "dynamic.CrudeOracle.step",
    "em.TierForestBTreap.access", "em.TierForestBTreap.update_weight",
    "em.DetScoreForest.access", "em.DetScoreForest.update_weight", "em.RankForest.access",
)

# exact counted costs: (name, unit); update_set_mean and retier_s are derived
COUNTS = (
    ("treap.nodes_touched", "count"),
    ("treap.rotations", "count"),
    ("dynamic.run_dynamic.access_cost", "count"),
    ("dynamic.run_dynamic.update_cost", "count"),
    ("dynamic.run_dynamic.rebuild_cost", "count"),
    ("dynamic.run_dynamic.update_events", "count"),
    ("dynamic.CrudeOracle.step.update_set_mean", "items"),
    ("em.TierForestBTreap.update_weight.retier_calls", "count"),
    ("em.TierForestBTreap.update_weight.rebuild_writes", "count"),
    ("em.DetScoreForest.update_weight.moves", "count"),
)
TIMED_COUNTS = (("em.TierForestBTreap.update_weight.retier_s", "s"),)
OVERHEAD = ("trace.overhead_ratio", "ratio")


def function_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in WRAPPED.items() for qual in quals]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out: dict[str, str] = {}
    for name in function_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.total_s"] = "s"
        out[f"{name}.self_s"] = "s"
        if name in PER_STEP:
            out[f"{name}.p50_us"] = "us"
            out[f"{name}.p99_us"] = "us"
    out.update(COUNTS)
    out.update(TIMED_COUNTS)
    out[OVERHEAD[0]] = OVERHEAD[1]
    return out


def resolve(name: str):
    """(owner, attribute, raw attribute) for ``module.qualname``; raises if absent."""
    mod_name, _, qual = name.partition(".")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Wraps the functions of ``WRAPPED`` (or ``only`` those) while installed.

    ``breakdowns`` keeps each ``run_dynamic`` call's (access, update,
    rebuild, update events) costs in call order.
    """

    def __init__(self, only: tuple[str, ...] | None = None) -> None:
        self.names = list(only) if only else function_names()
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.breakdowns: list[tuple[int, int, int, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for idx, name in enumerate(self.names):
            owner, attr, raw = resolve(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(idx, raw.__func__, *hooks.get(name, (None, None))))
            else:
                wrapped = self._wrap(idx, raw, *hooks.get(name, (None, None)))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # a module-level function: replace it in every module that holds it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    if mod.__dict__.get(attr) is raw:
                        self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, idx: int, fn, before, after):
        fid, start, end, parent, stack = self.fid, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(fid)
            fid.append(idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            state = before(args) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if after:
                after(args, result, t1 - t0, state)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _hooks(self) -> dict[str, tuple]:
        """(before, after) callbacks that total counted costs from returns."""
        add = self._add

        def nodes(args, result, dt, state):
            add("treap.nodes_touched", result)

        def rotations(args, result, dt, state):
            add("treap.rotations", result)

        def built(args, result, dt, state):
            add("keys_built", len(args[1]))

        def breakdown(args, result, dt, state):
            self.breakdowns.append((result.access_cost, result.update_cost,
                                    result.rebuild_cost, result.update_events))
            add("dynamic.run_dynamic.access_cost", result.access_cost)
            add("dynamic.run_dynamic.update_cost", result.update_cost)
            add("dynamic.run_dynamic.rebuild_cost", result.rebuild_cost)
            add("dynamic.run_dynamic.update_events", result.update_events)
            add("accesses_served", result.m)
            if result.structure == "treap":
                add("treap_access_cost", result.access_cost)

        def update_set(args, result, dt, state):
            add("crude_steps", 1)
            add("crude_update_set", len(result))

        def tier_before(args):
            return args[0].tier_of(args[1])

        def retier(args, result, dt, old_tier):
            if args[0].tier_of(args[1]) != old_tier:
                add("em.TierForestBTreap.update_weight.retier_calls", 1)
                add("em.TierForestBTreap.update_weight.retier_s", dt)
            add("em.TierForestBTreap.update_weight.rebuild_writes", result.rebuild_writes)

        def moves(args, result, dt, state):
            # a det-forest update touches blocks only when the bucket changes
            add("em.DetScoreForest.update_weight.moves", 1 if result else 0)

        return {
            "treap.Treap.access": (None, nodes),
            "treap.Treap.update_priority": (None, rotations),
            "treap.Treap.build_arrays": (None, built),
            "treap.Treap.build": (None, built),
            "dynamic.run_dynamic": (None, breakdown),
            "dynamic.CrudeOracle.step": (None, update_set),
            "em.TierForestBTreap.update_weight": (tier_before, retier),
            "em.DetScoreForest.update_weight": (None, moves),
        }

    # -- reduction ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since creation."""
        names = self.names
        n_fn = len(names)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for span, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[span]
        calls = [0] * n_fn
        total = [0.0] * n_fn
        self_t = [0.0] * n_fn
        per_step = {names.index(name): [] for name in PER_STEP if name in names}
        for span, idx in enumerate(self.fid):
            d = dur[span]
            calls[idx] += 1
            total[idx] += d
            self_t[idx] += d - child[span]
            if idx in per_step:
                per_step[idx].append(d)
        out: dict[str, float] = {}
        for idx, name in enumerate(names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.total_s"] = total[idx]
            out[f"{name}.self_s"] = self_t[idx]
            if idx in per_step:
                samples = sorted(per_step[idx])
                out[f"{name}.p50_us"] = _quantile(samples, 0.50) * 1e6
                out[f"{name}.p99_us"] = _quantile(samples, 0.99) * 1e6
        counts = self.counts
        for key, _ in COUNTS + TIMED_COUNTS:
            out[key] = counts.get(key, 0)
        steps = counts.get("crude_steps", 0)
        out["dynamic.CrudeOracle.step.update_set_mean"] = (
            counts.get("crude_update_set", 0) / steps if steps else 0.0)
        return out


def _quantile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for a function never called."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]
