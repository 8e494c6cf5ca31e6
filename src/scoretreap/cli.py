"""Benchmark harness: named experiments with machine-readable output.

Each subcommand reproduces one claim family end to end.  ``_PARAMETERS``
holds every subcommand's config keys and typed defaults; ``main`` resolves
the whole config against it before any work starts, so an unknown key or a
bad value exits 2 and writes nothing.  A command is then a pure function of
its parameters, seed and trial count that runs its trials in one loop and
returns its result (a traced run's per-access rows under ``steps``).
``main`` alone writes ``summary.json`` (sorted keys, so identical configs
give identical bytes) and, when tracing, ``steps.csv``.  The process exits
nonzero iff any of the experiment's checks fails.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from operator import mul

from .distributions import MEASURES, cross_entropy, entropy, kl, noisy_scores, perturb
from .dynamic import (SCHEMES, STRUCTURES, CrudeOracle, compute_stats,
                      cost_decomposition_check, run_dynamic)
from .em import DetScoreForest, RankForest, TierForestBTreap
from .errors import ConfigError
from .oracle import ExhaustiveStats, optimal_static_bst_cost
from .priorities import (RandomStream, composite_priority, raw_score_priority,
                         single_log_priority)
from .sequences import (DISTRIBUTION_FAMILIES, SEQUENCE_FAMILIES, AccessSequence,
                        TraceSpec, gen_distribution, gen_sequence)
from .treap import Treap

SUBCOMMANDS = ("static-opt", "robustness", "counterexamples", "working-set",
               "interval-set", "em-compare", "validate")


def _parse_config(path: str | None) -> dict[str, str]:
    """Key = value lines; '#' starts a comment; keys are lowercased."""
    out: dict[str, str] = {}
    if path is None:
        return out
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            out[key.strip().lower()] = val.strip()
    return out


@dataclass(frozen=True)
class _Choice:
    """A string parameter that must be one of ``allowed``."""

    default: str
    allowed: tuple[str, ...]


# future-ws-noisy needs predicted scores, which only interval-set's MAE sweep makes
_DRIVEN_SCHEMES = tuple(s for s in SCHEMES if s != "future-ws-noisy")
# the rank forest ignores the scheme, so interval-set's x1/x2 and MAE checks
# compare equal costs there and cannot pass
_SCORED_STRUCTURES = tuple(s for s in STRUCTURES if s != "rank-forest")

# Every subcommand's config keys with their defaults, ``trials`` included;
# ``seed`` and ``threads`` are common to all and default to the flags.  A
# config value must parse as its default's type.  A ``(cast, text)`` default
# is a comma-separated list of ``cast`` values, echoed in summary.json as its
# text; a ``_Choice`` value must be one of its allowed strings.
_PARAMETERS: dict[str, dict[str, object]] = {
    "static-opt": {"trials": 20, "n": 1024, "m": 100_000,
                   "family": _Choice("zipf", DISTRIBUTION_FAMILIES), "s": 1.0},
    "robustness": {"trials": 10, "n": 1024, "m": 50_000, "s": 1.0,
                   "measure": _Choice("kl", MEASURES), "eps": (float, "0.1,0.5,1.0")},
    "counterexamples": {"trials": 10, "raw_n": (int, "16,256,4096"),
                        "single_log_n": (int, "256,4096")},
    "working-set": {"trials": 5, "n": 256, "m": 10_000,
                    "family": _Choice("zipf", SEQUENCE_FAMILIES), "s": 1.0,
                    "scheme": _Choice("future-ws-exact", _DRIVEN_SCHEMES),
                    "structure": _Choice("treap", STRUCTURES), "b": 16,
                    "factor": 8.0, "trace": False},
    "interval-set": {"trials": 10, "n": 256, "m": 20_000,
                     "structure": _Choice("treap", _SCORED_STRUCTURES), "b": 16,
                     "eps": (float, "0.0,0.5,1.0"),  # in units of m/n
                     "trace": False},
    "em-compare": {"trials": 3, "n": 1024, "m": 10_000, "b": 16,
                   "scheme": _Choice("interval-set", _DRIVEN_SCHEMES)},
    "validate": {"trials": 1, "n": 128, "m": 2_000},
}


def _resolve(key: str, default, raw: str | None) -> tuple[object, object]:
    """(value the command reads, value summary.json echoes) of one key."""
    if isinstance(default, tuple):
        cast, text = default
        text = text if raw is None else raw
        try:
            vals = [cast(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"{key} must list {cast.__name__} values, got {text!r}") from None
        if not vals:
            raise ConfigError(f"{key} must list at least one value")
        if cast is float and not all(map(math.isfinite, vals)):
            raise ConfigError(f"{key} must list finite float values, got {text!r}")
        return vals, text
    if isinstance(default, _Choice):
        val = default.default if raw is None else raw
        if val not in default.allowed:
            raise ConfigError(f"{key} must be one of {', '.join(default.allowed)}, got {raw!r}")
        return val, val
    if raw is None:
        return default, default
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True, True
        if raw.lower() in ("0", "false", "no", "off"):
            return False, False
        raise ConfigError(f"{key} must be 1/true/yes/on or 0/false/no/off, got {raw!r}")
    try:
        val = type(default)(raw)
    except ValueError:
        raise ConfigError(f"{key} must be {type(default).__name__}, got {raw!r}") from None
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{key} must be a finite float, got {raw!r}")
    return val, val


def _expected_depth(rule, masses: list[float], rng: RandomStream) -> float:
    """Mean depth under ``masses`` of the treap whose keys take the tiers and
    offsets ``rule(masses, rng)`` returns."""
    depths = Treap.build_arrays(*rule(masses, rng)).depths()
    return math.fsum(map(mul, masses, depths[1:]))


def _static_treap_cost(masses: list[float], counts: dict[int, int], rng: RandomStream) -> int:
    """Total cost of a fixed composite-priority treap: counts dot depths."""
    depths = Treap.build_arrays(*composite_priority(masses, rng)).depths()
    return sum(c * depths[k] for k, c in counts.items())


def _write_summary(out_dir: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_steps(out_dir: str, rows: list[tuple]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steps.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "key", "cost", "update_set_size", "work", "interval", "future"])
        w.writerows(rows)


def _checks_summary(checks: dict[str, bool]) -> dict:
    return {"checks": checks, "all_passed": all(checks.values())}


def _means(rows: list[tuple], trials: int) -> list[float]:
    """Per-column means of one row per trial, summed in trial order."""
    return [sum(col) / trials for col in zip(*rows)]


# --------------------------------------------------------------------------


def cmd_static_opt(p: dict, seed: int, trials: int) -> dict:
    n, m, family, s = p["n"], p["m"], p["family"], p["s"]
    dist = gen_distribution(TraceSpec(family=family, n=n, m=m, seed=seed, s=s))
    masses = dist.masses()
    ent = entropy(dist)
    rows = []
    for t in range(trials):
        counts = Counter(gen_sequence(TraceSpec(family=family, n=n, m=m, seed=seed + t, s=s)).items)
        cost = _static_treap_cost(masses, counts, RandomStream(seed).spawn(t))
        freqs = [counts[k] for k in range(1, n + 1)]
        rows.append((cost, optimal_static_bst_cost(freqs)))
    mean_cost, mean_opt = _means(rows, trials)
    ent_bound = 4.0 * m * ent + 4.0 * n
    checks = {
        "cost_le_4x_dp_opt": mean_cost <= 4.0 * mean_opt,
        "cost_le_entropy_bound": mean_cost <= ent_bound,
    }
    return {
        "measured_cost": mean_cost,
        "dp_opt": mean_opt,
        "entropy_bits": ent,
        "entropy_bound": ent_bound,
        "ratio": mean_cost / mean_opt,
        **_checks_summary(checks),
    }


def cmd_robustness(p: dict, seed: int, trials: int) -> dict:
    n, m, s, measure = p["n"], p["m"], p["s"], p["measure"]
    dist = gen_distribution(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=s))
    # every perturbation first, so an unreachable eps fails before any sweep
    # work; the trials of one eps share the mixture walk, which ``dist`` keeps
    perturbed = [[perturb(dist, measure, eps, rng=random.Random(seed * 7717 + t))
                  for t in range(trials)] for eps in p["eps"]]
    # a trial's trace and base build do not depend on eps: each trial keeps
    # its base cost and its stream as the base build left it, and every
    # eps's noisy build continues a copy of that stream
    trial_counts = [Counter(gen_sequence(
        TraceSpec(family="zipf", n=n, m=m, seed=seed + t, s=s)).items) for t in range(trials)]
    masses = dist.masses()
    trial_bases = []
    for t, counts in enumerate(trial_counts):
        rng = RandomStream(seed).spawn(t)
        trial_bases.append((_static_treap_cost(masses, counts, rng), rng))
    points = []
    checks: dict[str, bool] = {}
    for eps, prs in zip(p["eps"], perturbed):
        rows = []
        for pr, counts, (base_cost, after_base) in zip(prs, trial_counts, trial_bases):
            noisy_cost = _static_treap_cost(pr.masses(), counts, copy.deepcopy(after_base))
            rows.append((base_cost, noisy_cost, cross_entropy(dist, pr), kl(dist, pr)))
        base, noisy, ce, dk = _means(rows, trials)
        cost_bound = 4.0 * m * ce + 4.0 * n
        over_bound = 6.0 * m * dk / math.log(2) + 6.0 * n
        checks[f"{measure}_{eps}_cost"] = noisy <= cost_bound
        checks[f"{measure}_{eps}_overhead"] = noisy - base <= over_bound
        points.append({
            "eps": eps, "base_cost": base, "noisy_cost": noisy,
            "cross_entropy_bits": ce, "kl_nats": dk,
            "cost_bound": cost_bound, "overhead_bound": over_bound,
        })
    return {"measure": measure, "points": points, **_checks_summary(checks)}


def cmd_counterexamples(p: dict, seed: int, trials: int) -> dict:
    raw_rows = []
    checks: dict[str, bool] = {}
    for n in p["raw_n"]:
        dist = gen_distribution(TraceSpec(family="linear", n=n, m=0, seed=seed))
        pris = {k: raw_score_priority(dist[k]) for k in range(1, n + 1)}
        tr = Treap.build(pris, n=n)
        depths = tr.depths()
        chain = depths == list(range(n + 1))
        expected = math.fsum(map(mul, dist.masses(), depths[1:]))
        checks[f"raw_chain_n{n}"] = chain
        checks[f"raw_expected_ge_n_over_3_n{n}"] = expected >= n / 3.0
        raw_rows.append({"n": n, "is_chain": chain, "expected_access": expected})
    log_rows = []
    for n in p["single_log_n"]:
        dist = gen_distribution(TraceSpec(family="segmented", n=n, m=0, seed=seed))
        # zero-mass tail items get a floor weight; it lands them strictly
        # below every massed tier under both rules, leaving costs untouched
        masses = [max(w, 1.0 / (n * n)) for w in dist.masses()]
        rows = [(_expected_depth(single_log_priority, masses, RandomStream(seed).spawn(1000 + t)),
                 _expected_depth(composite_priority, masses, RandomStream(seed).spawn(2000 + t)))
                for t in range(trials)]
        mean_single, mean_comp = _means(rows, trials)
        log_rows.append({"n": n, "single_log_cost": mean_single,
                         "composite_cost": mean_comp, "ratio": mean_single / mean_comp})
    for a, b in zip(log_rows, log_rows[1:]):
        checks[f"single_log_ratio_increases_n{b['n']}"] = b["ratio"] > a["ratio"]
    return {"raw_score": raw_rows, "single_log": log_rows, **_checks_summary(checks)}


def cmd_working_set(p: dict, seed: int, trials: int) -> dict:
    n, m, scheme, structure = p["n"], p["m"], p["scheme"], p["structure"]
    seq = gen_sequence(TraceSpec(family=p["family"], n=n, m=m, seed=seed, s=p["s"]))
    stats = compute_stats(seq)
    runs = [run_dynamic(seq, scheme, structure, B=p["b"], rng=RandomStream(seed).spawn(t),
                        stats=stats, keep_steps=p["trace"] and t == 0)
            for t in range(trials)]
    base = runs[0].base
    log_of = [math.log(w + 1, base) for w in range(n + 1)]
    bound = p["factor"] * (n * math.log(n, base) +
                           sum(map(log_of.__getitem__, islice(stats.work, 1, None))))
    mean_total = sum(r.total_cost for r in runs) / trials
    checks = {"cost_le_working_set_bound": mean_total <= bound}
    return {
        "scheme": scheme, "structure": structure, "mean_total_cost": mean_total,
        "working_set_bound": bound, "ratio": mean_total / bound, "steps": runs[0].steps,
        **_checks_summary(checks),
    }


def cmd_interval_set(p: dict, seed: int, trials: int) -> dict:
    n, m, structure, B = p["n"], p["m"], p["structure"], p["b"]
    x1 = gen_sequence(TraceSpec(family="round-robin", n=n, m=m, seed=seed))
    x2 = gen_sequence(TraceSpec(family="block-repeat", n=n, m=m, seed=seed))
    st1, st2 = compute_stats(x1), compute_stats(x2)
    runs = []
    for t in range(trials):
        c1 = run_dynamic(x1, "interval-set", structure, B=B, rng=RandomStream(seed).spawn(t),
                         stats=st1, keep_steps=p["trace"] and t == 0)
        c2 = run_dynamic(x2, "interval-set", structure, B=B, rng=RandomStream(seed).spawn(t),
                         stats=st2)
        runs.append((c1, c2))
    per_seed = [(a.total_cost, b.total_cost) for a, b in runs]
    checks = {"x2_cheaper_every_seed": all(b < a for a, b in per_seed)}
    # MAE sweep on a Zipf trace
    zipf = gen_sequence(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=1.0))
    stz = compute_stats(zipf)
    truth = [float(stz.future[i]) for i in range(1, m + 1)]
    sweep = []
    exact_run = run_dynamic(zipf, "future-ws-exact", structure, B=B,
                            rng=RandomStream(seed).spawn(91), stats=stz)
    for rel in p["eps"]:
        target = rel * m / n
        pred = truth if target == 0 else noisy_scores(
            truth, target, random.Random(seed * 31 + int(rel * 1000)), hi=float(n))
        noisy_run = run_dynamic(zipf, "future-ws-noisy", structure, B=B,
                                rng=RandomStream(seed).spawn(91), stats=stz,
                                predicted_scores=pred)
        budget = exact_run.total_cost + 8.0 * m * math.log(
            1.0 + n * target / m, exact_run.base) + 8.0 * n
        # at target 0 the predictions are the truth and the stream is the
        # same, so the noisy run must cost exactly what the exact run did
        checks[f"mae_{rel}"] = (noisy_run.total_cost <= budget if target
                                else noisy_run.total_cost == exact_run.total_cost)
        sweep.append({"eps_rel": rel, "mae_target": target,
                      "noisy_cost": noisy_run.total_cost, "budget": budget})
    return {
        "structure": structure,
        "x1_costs": [a for a, _ in per_seed], "x2_costs": [b for _, b in per_seed],
        "mae_sweep": sweep, "exact_cost": exact_run.total_cost, "steps": runs[0][0].steps,
        **_checks_summary(checks),
    }


def cmd_em_compare(p: dict, seed: int, trials: int) -> dict:
    n, m, B, scheme = p["n"], p["m"], p["b"], p["scheme"]
    seq = gen_sequence(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=1.0))
    stats = compute_stats(seq)
    runs = []
    for t in range(trials):
        tf = run_dynamic(seq, scheme, "tier-forest", B=B,
                         rng=RandomStream(seed).spawn(t), stats=stats)
        df = run_dynamic(seq, scheme, "det-forest", B=B,
                         rng=RandomStream(seed).spawn(t), stats=stats)
        runs.append((tf, df))
    rep_tf = cost_decomposition_check(runs[0][0])
    rep_df = cost_decomposition_check(runs[0][1])
    checks = {
        "tier_forest_decomposition": rep_tf["ok"],
        "det_forest_decomposition": rep_df["ok"],
    }
    return {
        "scheme": scheme, "B": B,
        "tier_forest_cost": sum(tf.total_cost for tf, _ in runs) / trials,
        "det_forest_cost": sum(df.total_cost for _, df in runs) / trials,
        "tier_forest_ratio": rep_tf["ratio"], "det_forest_ratio": rep_df["ratio"],
        **_checks_summary(checks),
    }


def cmd_validate(p: dict, seed: int, trials: int) -> dict:
    n, m = p["n"], p["m"]
    checks: dict[str, bool] = {}
    rnd = random.Random(seed)
    # treap structural fuzz
    tr = Treap(n)
    present: set[int] = set()
    ok = True
    for _ in range(m):
        if present and rnd.random() < 0.4:
            k = rnd.choice(sorted(present))
            tr.delete(k)
            present.discard(k)
        else:
            k = rnd.randint(1, n)
            if k in present:
                continue
            tr.insert(k, rnd.randint(0, 3), rnd.random() * 0.998 + 0.001)
            present.add(k)
        if tr.validate() is not None:
            ok = False
            break
    checks["treap_fuzz"] = ok
    # block structures
    B = 4
    rf = RankForest(n, B)
    ok = True
    for _ in range(m):
        rf.access(rnd.randint(1, n))
        if rf.validate() is not None:  # the recency lists, trees and size bands
            ok = False
            break
    checks["rank_forest_invariant"] = ok
    # both forests take tiers, not weights: they start all in tier 0, take
    # random tiers 0..2, validate after every update and stop at the first
    # failure
    forests = {"det_forest_valid": DetScoreForest([0] * n, B),
               "tier_forest_valid": TierForestBTreap([0] * n, B, rng=RandomStream(seed))}
    for name, forest in forests.items():
        checks[name] = True
        for _ in range(200):
            forest.update_weight(rnd.randint(1, n), rnd.randint(0, 2))
            if forest.validate() is not None:
                checks[name] = False
                break
    # isp norm + crude band on a random trace.  The driver checks the norm
    # certificate on its own weights and raises at the first breach; it
    # re-weights only the served key, so "unit updates" holds by construction.
    # The norm check's trace serves keys 1..n once before the zipf accesses,
    # so the steady bound, in force once every key is served, runs on every seed
    seq = gen_sequence(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=1.0))
    stats = compute_stats(seq)
    isp_seq = AccessSequence(n, list(range(1, n + 1)) + seq.items)
    try:
        run_dynamic(isp_seq, "interval-set", "treap", rng=RandomStream(seed),
                    stats=compute_stats(isp_seq))
        ok = True
    except AssertionError:
        ok = False
    checks["isp_norm_and_unit_updates"] = ok
    # the crude oracle against a literal move-to-front list, where a key's
    # exact work w is its index: after every step the score s that the steps
    # last gave each seen key (2^r - 1 at index r of a step's keys; n before
    # any) must lie in the two-sided band
    # log2(w + 1) <= log2(s + 1) <= 2 log2(w + 1) + 1, i.e. w <= s < 2 (w + 1)^2,
    # so a wrong or missing row leaves a stale score that fails it
    oracle = CrudeOracle(n)
    front: list[int] = []
    score: dict[int, int] = {}
    ok = True
    for x in seq.items:
        U = oracle.step(x)
        if x in front:
            front.remove(x)
        front.insert(0, x)
        score.update((item, (1 << r) - 1) for r, item in enumerate(U))
        ok = (len(U) <= math.floor(math.log2(n)) + 1
              and all(w <= s < 2 * (w + 1) ** 2
                      for w, s in enumerate(map(score.get, front, repeat(n))))
              and oracle.validate() is None)
        if not ok:
            break
    checks["crude_band_and_volume"] = ok
    # against the window-rescan reference, which shares no code with compute_stats
    rescan = ExhaustiveStats(seq.items, n)
    checks["futures_match_next_work"] = all(
        stats.future[i] == rescan.future(i, x) for i, x in enumerate(seq.items, start=1))
    return _checks_summary(checks)


COMMANDS = {
    "static-opt": cmd_static_opt,
    "robustness": cmd_robustness,
    "counterexamples": cmd_counterexamples,
    "working-set": cmd_working_set,
    "interval-set": cmd_interval_set,
    "em-compare": cmd_em_compare,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scoretreap",
                                     description="treap/B-tree benchmark experiments")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="key = value parameter file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1, help="accepted only as 1")
    args = parser.parse_args(argv)
    # a config seed or threads beats its flag; --trials beats a config trials
    defaults = {**_PARAMETERS[args.subcommand], "seed": args.seed, "threads": args.threads}
    try:
        cfg = _parse_config(args.config)
        # a misspelt key would otherwise leave its default silently in force
        stray = sorted(set(cfg) - set(defaults))
        if stray:
            raise ConfigError(f"unknown config key(s): {', '.join(stray)}")
        resolved = {key: _resolve(key, default, cfg.get(key))
                    for key, default in defaults.items()}
        params = {key: val for key, (val, _) in resolved.items()}
        echo = {key: shown for key, (_, shown) in resolved.items()}
        if args.trials is not None:
            params["trials"] = echo["trials"] = args.trials
        if params["trials"] < 1:
            raise ConfigError(f"trials must be at least 1, got {params['trials']}")
        if params["threads"] != 1:
            raise ConfigError(f"threads must be 1 (trials run in one loop), got {params['threads']}")
        # checked for every structure, the treap included, so that a config
        # runs under any structure it names
        if params.get("b", 4) < 4:
            raise ConfigError(f"block fanout must be >= 4, got {params['b']}")
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = COMMANDS[args.subcommand](params, params["seed"], params["trials"])
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    steps = result.pop("steps", None)
    if params.get("trace"):
        _write_steps(args.out, steps)
    payload = {"experiment": args.subcommand, "parameters": echo, **result}
    _write_summary(args.out, payload)
    print(json.dumps({"experiment": args.subcommand,
                      "all_passed": payload.get("all_passed", True)}))
    return 0 if payload.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
