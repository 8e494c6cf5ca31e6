"""Benchmark harness: named experiments with machine-readable output.

Each subcommand reproduces one claim family end to end and writes
``summary.json`` (sorted keys, so identical configs give identical bytes)
plus, when per-access tracing is requested, ``steps.csv``.  The process
exits nonzero iff any of the experiment's checks fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

from .distributions import (Distribution, cross_entropy, entropy, error_measures, kl, mae,
                            noisy_scores, perturb)
from .dynamic import (CrudeOracle, IntervalSetPriorityState, compute_stats,
                      cost_decomposition_check, run_dynamic)
from .em import DetScoreForest, EMConfig, RankForest, TierForestBTreap, em_report
from .errors import ConfigError
from .oracle import optimal_static_bst_cost
from .priorities import (RandomStream, composite_priority, raw_score_priority,
                         single_log_priority)
from .sequences import TraceSpec, gen_distribution, gen_sequence
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


class _Params:
    """Typed view over the merged config with every read echoed."""

    def __init__(self, cfg: dict[str, str]):
        self._cfg = cfg
        self.used: dict[str, object] = {}

    def _get(self, key: str, default, cast):
        raw = self._cfg.get(key)
        val = default if raw is None else cast(raw)
        self.used[key] = val
        return val

    def int_(self, key: str, default: int) -> int:
        return self._get(key, default, int)

    def float_(self, key: str, default: float) -> float:
        return self._get(key, default, float)

    def str_(self, key: str, default: str) -> str:
        return self._get(key, default, str)

    def bool_(self, key: str, default: bool) -> bool:
        def cast(raw: str) -> bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ConfigError(f"{key} must be 1/true/yes/on or 0/false/no/off, got {raw!r}")
        return self._get(key, default, cast)

    def floats(self, key: str, default: str) -> list[float]:
        return self._list(key, default, float)

    def ints(self, key: str, default: str) -> list[int]:
        return self._list(key, default, int)

    def _list(self, key: str, default: str, cast) -> list:
        """Comma-separated values; an empty list is a config error."""
        vals = [cast(tok) for tok in self._get(key, default, str).split(",") if tok.strip()]
        if not vals:
            raise ConfigError(f"{key} must list at least one value")
        return vals


def _fanout(trials: int, threads: int, one):
    """Run trial workers, merged deterministically by trial index."""
    if threads <= 1:
        return [one(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(trials)))


def _rule_treap(rule, masses: list[float], rng: RandomStream) -> Treap:
    """The treap in which key k has priority ``rule(masses[k-1], rng)``."""
    tiers, offsets = zip(*[rule(w, rng) for w in masses])
    return Treap.build_arrays(tiers, offsets)


def _static_treap_cost(masses: list[float], counts: dict[int, int], rng: RandomStream) -> tuple[int, dict[int, int]]:
    """Total cost of a fixed composite-priority treap: counts dot depths."""
    depths = _rule_treap(composite_priority, masses, rng).depths()
    return sum(c * depths[k] for k, c in counts.items()), depths


def _trace_counts(spec: TraceSpec) -> dict[int, int]:
    seq = gen_sequence(spec)
    counts: dict[int, int] = {}
    for x in seq.items:
        counts[x] = counts.get(x, 0) + 1
    return counts


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


# --------------------------------------------------------------------------


def cmd_static_opt(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    n = p.int_("n", 1024)
    m = p.int_("m", 100_000)
    family = p.str_("family", "zipf")
    s = p.float_("s", 1.0)
    dist = gen_distribution(TraceSpec(family=family, n=n, m=m, seed=seed, s=s))
    masses = dist.masses()
    ent = entropy(dist)

    def one(t: int) -> tuple[int, int]:
        counts = _trace_counts(TraceSpec(family=family, n=n, m=m, seed=seed + t, s=s))
        cost, _ = _static_treap_cost(masses, counts, RandomStream(seed).spawn(t))
        freqs = [counts.get(k, 0) for k in range(1, n + 1)]
        return cost, optimal_static_bst_cost(freqs)

    results = _fanout(trials, threads, one)
    mean_cost = sum(r[0] for r in results) / trials
    mean_opt = sum(r[1] for r in results) / trials
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


def cmd_robustness(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    n = p.int_("n", 1024)
    m = p.int_("m", 50_000)
    s = p.float_("s", 1.0)
    measure = p.str_("measure", "kl")
    eps_list = p.floats("eps", "0.1,0.5,1.0")
    dist = gen_distribution(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=s))
    points = []
    checks: dict[str, bool] = {}
    for eps in eps_list:
        def one(t: int) -> tuple[int, int, float, float]:
            pr = perturb(dist, measure, eps, rng=random.Random(seed * 7717 + t))
            counts = _trace_counts(TraceSpec(family="zipf", n=n, m=m, seed=seed + t, s=s))
            rng = RandomStream(seed).spawn(t)
            base_cost, _ = _static_treap_cost(dist.masses(), counts, rng)
            noisy_cost, _ = _static_treap_cost(pr.masses(), counts, rng)
            return base_cost, noisy_cost, cross_entropy(dist, pr), kl(dist, pr)

        rows = _fanout(trials, threads, one)
        base = sum(r[0] for r in rows) / trials
        noisy = sum(r[1] for r in rows) / trials
        ce = sum(r[2] for r in rows) / trials
        dk = sum(r[3] for r in rows) / trials
        cost_bound = 4.0 * m * ce + 4.0 * n
        over_bound = 6.0 * m * dk / math.log(2) + 6.0 * n
        ok_cost = noisy <= cost_bound
        ok_over = noisy - base <= over_bound
        checks[f"{measure}_{eps}_cost"] = ok_cost
        checks[f"{measure}_{eps}_overhead"] = ok_over
        points.append({
            "eps": eps, "base_cost": base, "noisy_cost": noisy,
            "cross_entropy_bits": ce, "kl_nats": dk,
            "cost_bound": cost_bound, "overhead_bound": over_bound,
        })
    return {"measure": measure, "points": points, **_checks_summary(checks)}


def cmd_counterexamples(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    raw_sizes = p.ints("raw_n", "16,256,4096")
    log_sizes = p.ints("single_log_n", "256,4096")
    raw_rows = []
    checks: dict[str, bool] = {}
    for n in raw_sizes:
        dist = gen_distribution(TraceSpec(family="linear", n=n, m=0, seed=seed))
        pris = {k: raw_score_priority(dist[k]) for k in range(1, n + 1)}
        tr = Treap.build(pris, n=n)
        depths = tr.depths()
        chain = all(depths[k] == k for k in range(1, n + 1))
        expected = math.fsum(dist[k] * depths[k] for k in range(1, n + 1))
        checks[f"raw_chain_n{n}"] = chain
        checks[f"raw_expected_ge_n_over_3_n{n}"] = expected >= n / 3.0
        raw_rows.append({"n": n, "is_chain": chain, "expected_access": expected})
    log_rows = []
    for n in log_sizes:
        dist = gen_distribution(TraceSpec(family="segmented", n=n, m=0, seed=seed))
        # zero-mass tail items get a floor weight; it lands them strictly
        # below every massed tier under both rules, leaving costs untouched
        masses = [max(w, 1.0 / (n * n)) for w in dist.masses()]

        def one(t: int) -> tuple[float, float]:
            rng = RandomStream(seed).spawn(1000 + t)
            ds = _rule_treap(single_log_priority, masses, rng).depths()
            rng2 = RandomStream(seed).spawn(2000 + t)
            dc = _rule_treap(composite_priority, masses, rng2).depths()
            es = math.fsum(masses[k - 1] * ds[k] for k in range(1, n + 1))
            ec = math.fsum(masses[k - 1] * dc[k] for k in range(1, n + 1))
            return es, ec

        rows = _fanout(trials, threads, one)
        mean_single = sum(r[0] for r in rows) / trials
        mean_comp = sum(r[1] for r in rows) / trials
        log_rows.append({"n": n, "single_log_cost": mean_single,
                         "composite_cost": mean_comp, "ratio": mean_single / mean_comp})
    for a, b in zip(log_rows, log_rows[1:]):
        checks[f"single_log_ratio_increases_n{b['n']}"] = b["ratio"] > a["ratio"]
    return {"raw_score": raw_rows, "single_log": log_rows, **_checks_summary(checks)}


def cmd_working_set(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    n = p.int_("n", 256)
    m = p.int_("m", 10_000)
    family = p.str_("family", "zipf")
    s = p.float_("s", 1.0)
    scheme = p.str_("scheme", "future-ws-exact")
    structure = p.str_("structure", "treap")
    B = p.int_("b", 16)
    factor = p.float_("factor", 8.0)
    trace = p.bool_("trace", False)
    cfg = EMConfig(B=B)
    base = 2.0 if structure == "treap" else float(B)
    spec = TraceSpec(family=family, n=n, m=m, seed=seed, s=s)
    seq = gen_sequence(spec)
    stats = compute_stats(seq)
    bound = factor * (n * math.log(n, base) +
                      sum(math.log(stats.work[i] + 1, base) for i in range(1, m + 1)))

    def one(t: int):
        return run_dynamic(seq, scheme, structure, cfg=cfg,
                           rng=RandomStream(seed).spawn(t), stats=stats,
                           keep_steps=trace and t == 0)

    runs = _fanout(trials, threads, one)
    mean_total = sum(r.total_cost for r in runs) / trials
    if trace:
        _write_steps(out_dir, runs[0].steps)
    checks = {"cost_le_working_set_bound": mean_total <= bound}
    return {
        "scheme": scheme, "structure": structure, "mean_total_cost": mean_total,
        "working_set_bound": bound, "ratio": mean_total / bound,
        **_checks_summary(checks),
    }


def cmd_interval_set(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    n = p.int_("n", 256)
    m = p.int_("m", 20_000)
    structure = p.str_("structure", "treap")
    B = p.int_("b", 16)
    eps_list = p.floats("eps", "0.0,0.5,1.0")  # in units of m/n
    trace = p.bool_("trace", False)
    cfg = EMConfig(B=B)
    x1 = gen_sequence(TraceSpec(family="round-robin", n=n, m=m, seed=seed))
    x2 = gen_sequence(TraceSpec(family="block-repeat", n=n, m=m, seed=seed))
    st1, st2 = compute_stats(x1), compute_stats(x2)

    def one(t: int):
        rng1 = RandomStream(seed).spawn(t)
        rng2 = RandomStream(seed).spawn(t)
        c1 = run_dynamic(x1, "interval-set", structure, cfg=cfg, rng=rng1, stats=st1,
                         keep_steps=trace and t == 0)
        c2 = run_dynamic(x2, "interval-set", structure, cfg=cfg, rng=rng2, stats=st2)
        return c1, c2

    runs = _fanout(trials, threads, one)
    per_seed = [(a.total_cost, b.total_cost) for a, b in runs]
    if trace:
        _write_steps(out_dir, runs[0][0].steps)
    checks = {"x2_cheaper_every_seed": all(b < a for a, b in per_seed)}
    # MAE sweep on a Zipf trace
    zipf = gen_sequence(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=1.0))
    stz = compute_stats(zipf)
    truth = [float(stz.future[i]) for i in range(1, m + 1)]
    sweep = []
    exact_run = run_dynamic(zipf, "future-ws-exact", structure, cfg=cfg,
                            rng=RandomStream(seed).spawn(91), stats=stz)
    for rel in eps_list:
        target = rel * m / n
        pred = truth if target == 0 else noisy_scores(
            truth, target, random.Random(seed * 31 + int(rel * 1000)), lo=0.0, hi=float(n))
        noisy_run = run_dynamic(zipf, "future-ws-noisy", structure, cfg=cfg,
                                rng=RandomStream(seed).spawn(91), stats=stz,
                                predicted_scores=pred)
        budget = exact_run.total_cost + 8.0 * m * math.log(
            1.0 + n * target / m, cfg.B if structure != "treap" else 2) + 8.0 * n
        ok = noisy_run.total_cost <= budget
        checks[f"mae_{rel}"] = ok
        sweep.append({"eps_rel": rel, "mae_target": target,
                      "noisy_cost": noisy_run.total_cost, "budget": budget})
    return {
        "structure": structure,
        "x1_costs": [a for a, _ in per_seed], "x2_costs": [b for _, b in per_seed],
        "mae_sweep": sweep, "exact_cost": exact_run.total_cost,
        **_checks_summary(checks),
    }


def cmd_em_compare(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    n = p.int_("n", 1024)
    m = p.int_("m", 10_000)
    B = p.int_("b", 16)
    scheme = p.str_("scheme", "interval-set")
    cfg = EMConfig(B=B)
    seq = gen_sequence(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=1.0))
    stats = compute_stats(seq)

    def one(t: int):
        tf = run_dynamic(seq, scheme, "tier-forest", cfg=cfg,
                         rng=RandomStream(seed).spawn(t), stats=stats)
        df = run_dynamic(seq, scheme, "det-forest", cfg=cfg,
                         rng=RandomStream(seed).spawn(t), stats=stats)
        return tf, df

    runs = _fanout(trials, threads, one)
    tf_costs = [a.total_cost for a, _ in runs]
    df_costs = [b.total_cost for _, b in runs]
    rep_tf = cost_decomposition_check(runs[0][0])
    rep_df = cost_decomposition_check(runs[0][1])
    checks = {
        "tier_forest_decomposition": rep_tf["ok"],
        "det_forest_decomposition": rep_df["ok"],
    }
    return {
        "scheme": scheme, "B": B,
        "tier_forest_cost": sum(tf_costs) / trials,
        "det_forest_cost": sum(df_costs) / trials,
        "tier_forest_ratio": rep_tf["ratio"], "det_forest_ratio": rep_df["ratio"],
        **_checks_summary(checks),
    }


def cmd_validate(p: _Params, seed: int, trials: int, threads: int, out_dir: str) -> dict:
    n = p.int_("n", 128)
    m = p.int_("m", 2_000)
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
    rf = RankForest(n, EMConfig(B=4))
    ok = True
    for i in range(m):
        rf.access(rnd.randint(1, n))
        if rf.check_invariant() is not None:
            ok = False
            break
    checks["rank_forest_invariant"] = ok
    dsf = DetScoreForest([1.0 / (n + 1) ** 2] * n, EMConfig(B=4))
    checks["det_forest_valid"] = dsf.validate() is None
    tf = TierForestBTreap([1.0 / (n + 1) ** 2] * n, EMConfig(B=4), rng=RandomStream(seed))
    for _ in range(200):
        tf.update_weight(rnd.randint(1, n), 2.0 ** -rnd.randint(1, 60))
    checks["tier_forest_valid"] = tf.validate() is None
    # isp norm + crude band on a random trace
    seq = gen_sequence(TraceSpec(family="zipf", n=n, m=m, seed=seed, s=1.0))
    stats = compute_stats(seq)
    state = IntervalSetPriorityState(n)
    ok = True
    try:
        for i in range(1, m + 1):
            if len(state.step(i, stats)) > 1:
                ok = False
                break
    except AssertionError:
        ok = False
    checks["isp_norm_and_unit_updates"] = ok
    oracle = CrudeOracle(n)
    ok = True
    for i in range(1, m + 1):
        U = oracle.step(seq.items[i - 1])
        if len(U) > math.floor(math.log2(n)) + 1:
            ok = False
            break
        for item, sc, w in U[1:]:
            if not (math.log2(w + 1) <= math.log2(sc + 1) <= 2 * math.log2(w + 1) + 1):
                ok = False
                break
    checks["crude_band_and_volume"] = ok
    checks["futures_match_next_work"] = all(
        stats.future[i] == (stats.work[stats.next[i]] if stats.next[i] <= m else n)
        for i in range(1, m + 1))
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

_DEFAULT_TRIALS = {
    "static-opt": 20, "robustness": 10, "counterexamples": 10,
    "working-set": 5, "interval-set": 10, "em-compare": 3, "validate": 1,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scoretreap",
                                     description="treap/B-tree benchmark experiments")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="key = value parameter file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        cfg = _parse_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = _Params(cfg)
    seed = params.int_("seed", args.seed)
    trials = args.trials if args.trials is not None else params.int_(
        "trials", _DEFAULT_TRIALS[args.subcommand])
    threads = params.int_("threads", args.threads)
    try:
        # the experiments run small fanouts on purpose; set once here, since
        # trial threads must not edit the process-wide warning filters
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=r"fanout B=\d+ is small",
                                    category=UserWarning)
            result = COMMANDS[args.subcommand](params, seed, trials, threads, args.out)
        # a misspelt key would otherwise leave its default silently in force;
        # ``trials`` goes unread when --trials is given
        stray = sorted(set(cfg) - set(params.used) - {"seed", "trials", "threads"})
        if stray:
            raise ConfigError(f"unknown config key(s): {', '.join(stray)}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "experiment": args.subcommand,
        "parameters": {**params.used, "seed": seed, "trials": trials, "threads": threads},
        **result,
    }
    _write_summary(args.out, payload)
    print(json.dumps({"experiment": args.subcommand,
                      "all_passed": payload.get("all_passed", True)}))
    return 0 if payload.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
