"""End-to-end runs of the benchmark command line."""

import hashlib
import json
import math
import random
from itertools import repeat
from pathlib import Path

import pytest

from scoretreap import cli, distributions, dynamic
from scoretreap.cli import _PARAMETERS, main
from scoretreap.distributions import perturb
from scoretreap.dynamic import CrudeOracle, compute_stats
from scoretreap.em import DetScoreForest, RankForest, TierForestBTreap
from scoretreap.sequences import TraceSpec, gen_distribution, gen_sequence
from scoretreap.treap import Treap


def run_cli(tmp_path: Path, sub: str, config: str | None = None, *,
            seed: int = 0, trials: int = 2, tag: str = "out"):
    out = tmp_path / tag
    argv = [sub, "--out", str(out), "--seed", str(seed),
            "--trials", str(trials), "--threads", "1"]
    if config is not None:
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code = main(argv)
    summary = json.loads((out / "summary.json").read_text())
    return code, summary, out


class TestPlumbing:
    def test_validate_passes(self, tmp_path):
        code, summary, _ = run_cli(tmp_path, "validate", "n = 64\nm = 500\n", trials=1)
        assert code == 0
        assert summary["all_passed"] is True
        assert summary["experiment"] == "validate"
        assert summary["parameters"]["n"] == 64

    def test_validate_fails_on_a_treap_delete_that_keeps_its_size(self, tmp_path, monkeypatch):
        real_delete = Treap.delete

        def leaky_delete(self, key):
            rot = real_delete(self, key)
            self.size += 1  # the unlink forgot to shrink the tree
            return rot

        monkeypatch.setattr(Treap, "delete", leaky_delete)
        assert self.failing_checks(tmp_path) == ["treap_fuzz"]

    def failing_checks(self, tmp_path, config="n = 64\nm = 500\n"):
        """Run a failing ``validate``; return the names of the false checks."""
        code, summary, _ = run_cli(tmp_path, "validate", config, trials=1)
        assert code == 1
        assert summary["all_passed"] is False
        return [k for k, ok in summary["checks"].items() if not ok]

    def test_validate_fails_on_a_rank_forest_that_sheds_late(self, tmp_path, monkeypatch):
        real_access = RankForest.access

        def late_access(self, key):
            cap_hi = self.cap_hi
            self.cap_hi = lambda i: cap_hi(i) + 1  # the cascade's overflow test is off by one
            try:
                return real_access(self, key)
            finally:
                del self.cap_hi

        monkeypatch.setattr(RankForest, "access", late_access)
        # n > 2 B^4 = 512 at B = 4, so the front tree starts full
        assert self.failing_checks(tmp_path, "n = 600\nm = 500\n") == ["rank_forest_invariant"]

    def test_validate_fails_on_a_key_in_the_wrong_recency_list_for_one_access(
            self, tmp_path, monkeypatch):
        # the drift lasts one access, so only a validate after every access
        # sees it: the trees, and with them the size bands, never change
        real_access = RankForest.access
        calls = []

        def drifting_access(self, key):
            calls.append(key)
            if len(calls) == 101:  # put the stray key back first
                moved = calls[99]
                del self.order[2][moved]
                self.order[1][moved] = None
            cost = real_access(self, key)
            if len(calls) == 100:  # the served key lands in tree 2's list
                del self.order[1][key]
                self.order[2][key] = None
            return cost

        monkeypatch.setattr(RankForest, "access", drifting_access)
        assert self.failing_checks(tmp_path) == ["rank_forest_invariant"]

    def test_validate_fails_on_a_crude_boundary_pointer_stale_for_one_step(
            self, tmp_path, monkeypatch):
        # the update sets stay right, so only a validate after every step
        # sees the drift
        real_step = CrudeOracle.step
        calls = []

        def drifting_step(self, key):
            calls.append(key)
            if len(calls) == 101:  # put the rank-8 pointer back first
                self.at[3] = self.prev[self.at[3]]
            rows = real_step(self, key)
            if len(calls) == 100:  # the rank-8 pointer names rank 9
                self.at[3] = self.next[self.at[3]]
            return rows

        monkeypatch.setattr(CrudeOracle, "step", drifting_step)
        assert self.failing_checks(tmp_path) == ["crude_band_and_volume"]

    def test_validate_fails_on_doctored_intervals(self, tmp_path, monkeypatch):
        def bad_stats(seq):
            stats = compute_stats(seq)
            # the first two served keys (distinct on this trace) at weight 1
            # sum past pi^2/6
            stats.interval[1] = stats.interval[2] = 0
            return stats

        monkeypatch.setattr("scoretreap.cli.compute_stats", bad_stats)
        assert self.failing_checks(tmp_path) == ["isp_norm_and_unit_updates"]

    def test_validate_steady_norm_bound_runs_on_every_seed(self, tmp_path, monkeypatch):
        """The norm check's trace serves every key before its zipf accesses,
        so with no room under the steady bound the check fails on every
        seed, not only on those whose zipf trace happens to serve every key."""
        monkeypatch.setattr(dynamic, "NORM_STEADY", 0.0)
        for seed in range(8):
            code, summary, _ = run_cli(tmp_path, "validate", seed=seed, trials=1, tag=f"s{seed}")
            assert code == 1
            assert [k for k, ok in summary["checks"].items() if not ok] == [
                "isp_norm_and_unit_updates"], seed

    @pytest.mark.parametrize("fault", ["score below band", "rows twice",
                                       "item one place nearer the front", "last row dropped"])
    def test_validate_fails_on_a_wrong_crude_update_set(self, tmp_path, monkeypatch, fault):
        """Each fault returns keys only, as the oracle does: the key at index r
        takes the score 2^r - 1.  The last two faults give each key the score
        that is right for the rank it names, so only a check of every key
        against its exact work sees that the item that crossed the boundary
        kept its old score."""
        real_step = CrudeOracle.step

        def bad_step(self, key):
            head, *rows = real_step(self, key)
            if fault == "rows twice":  # over floor(log2 n) + 1 rows once 4 boundaries move
                return [head] + rows + rows
            if fault == "last row dropped":
                return [head] + rows[:-1]
            if fault == "item one place nearer the front":  # rank 2^j, not 2^j + 1
                return [head] + [self.prev[item] for item in rows]
            # each refreshed key after the first sits one index early, so its
            # score is one band below its rank's
            return [head] + rows[1:]

        monkeypatch.setattr(CrudeOracle, "step", bad_step)
        assert self.failing_checks(tmp_path) == ["crude_band_and_volume"]

    def test_validate_fails_on_a_det_forest_with_a_stale_bucket(self, tmp_path, monkeypatch):
        real_update = DetScoreForest.update_weight

        def stale_update(self, key, new_idx):
            old_idx = self.tree_index[key]
            touched = real_update(self, key, new_idx)
            self.tree_index[key] = old_idx  # the move forgot to record the new bucket
            return touched

        monkeypatch.setattr(DetScoreForest, "update_weight", stale_update)
        assert self.failing_checks(tmp_path) == ["det_forest_valid"]

    def test_validate_fails_on_a_tier_forest_with_a_stale_top(self, tmp_path, monkeypatch):
        # same-tier rotations that forget to move the component top
        monkeypatch.setattr(TierForestBTreap, "_refresh_root", lambda self, key: None)
        assert self.failing_checks(tmp_path) == ["tier_forest_valid"]

    def test_validate_fails_on_a_future_off_by_one(self, tmp_path, monkeypatch):
        def bad_stats(seq):
            stats = compute_stats(seq)
            stats.future[1] += 1  # one next-access window counts an extra item
            return stats

        monkeypatch.setattr("scoretreap.cli.compute_stats", bad_stats)
        assert self.failing_checks(tmp_path) == ["futures_match_next_work"]

    def test_validate_fails_on_work_and_future_wrong_in_step(self, tmp_path, monkeypatch):
        def bad_stats(seq):
            stats = compute_stats(seq)
            # the earliest access i whose key recurs, and its next access j
            i, j = next((i, j) for i, x in enumerate(seq.items, start=1)
                        for j in range(i + 1, seq.m + 1) if seq.at(j) == x)
            # both ends of one occurrence pair count an extra item, so future
            # still equals work at the next access
            stats.work[j] += 1
            stats.future[i] += 1
            return stats

        monkeypatch.setattr("scoretreap.cli.compute_stats", bad_stats)
        assert self.failing_checks(tmp_path) == ["futures_match_next_work"]

    def test_validate_defaults_reach_every_forest_update_path(self, tmp_path, monkeypatch):
        """At its defaults the forest fuzz re-tiers, re-tops a component
        after same-tier rotations and moves det-forest keys between buckets,
        so the two forest checks validate all three update paths."""
        calls = {"retier": 0, "refresh_root": 0, "bucket_move": 0}
        real_retier = TierForestBTreap._retier
        real_refresh_root = TierForestBTreap._refresh_root
        real_det_update = DetScoreForest.update_weight

        def retier(self, *args):
            calls["retier"] += 1
            return real_retier(self, *args)

        def refresh_root(self, key):
            calls["refresh_root"] += 1
            return real_refresh_root(self, key)

        def det_update(self, key, new_idx):
            calls["bucket_move"] += new_idx != self.tree_index[key]
            return real_det_update(self, key, new_idx)

        monkeypatch.setattr(TierForestBTreap, "_retier", retier)
        monkeypatch.setattr(TierForestBTreap, "_refresh_root", refresh_root)
        monkeypatch.setattr(DetScoreForest, "update_weight", det_update)
        code, summary, _ = run_cli(tmp_path, "validate", trials=1)
        assert code == 0 and summary["all_passed"] is True
        assert min(calls.values()) >= 1, calls

    def test_runs_without_a_config_file(self, tmp_path):
        code, summary, _ = run_cli(tmp_path, "validate", trials=1)
        assert code == 0 and summary["all_passed"] is True
        assert summary["parameters"] == {"trials": 1, "n": 128, "m": 2_000, "seed": 0,
                                         "threads": 1}

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_line_numbers(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 64\nm 500\n")
        code = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = sixty-four\n")
        code = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n must be int" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, config, message", [
        ("robustness", "eps =\n", "at least one value"),
        ("interval-set", "eps = , ,\n", "at least one value"),
        ("counterexamples", "raw_n =\n", "at least one value"),
        ("counterexamples", "single_log_n = ,\n", "at least one value"),
        ("robustness", "eps = 0.1,x\n", "eps must list float values, got '0.1,x'"),
        ("counterexamples", "raw_n = 64,1e3\n", "raw_n must list int values, got '64,1e3'"),
    ], ids=["eps-blank", "eps-commas", "raw_n-blank", "single_log_n-comma", "eps-word",
            "raw_n-float"])
    def test_empty_list_option_rejected(self, tmp_path, capsys, sub, config, message):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(config)
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("sub, config, message", [
        ("working-set", "factor = nan\n", "factor must be a finite float, got 'nan'"),
        ("interval-set", "eps = 0.0,-inf\n",
         "eps must list finite float values, got '0.0,-inf'"),
        ("static-opt", "s = inf\n", "s must be a finite float, got 'inf'"),
    ], ids=["working-set-factor", "interval-set-eps", "static-opt-s"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, sub, config, message):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(config)
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, config, message", [
        ("robustness", "n = 64\nm = 500\neps = 0.1,-0.5\n",
         "target must be non-negative, got -0.5"),
        ("interval-set", "n = 48\nm = 1200\neps = 0.0,-0.5\n",
         "target error must be >= 0, got -12.5"),  # -0.5 m/n
    ], ids=["robustness", "interval-set"])
    def test_negative_eps_rejected(self, tmp_path, capsys, sub, config, message):
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(config)
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o"), "--trials", "1"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_boolean_switch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 32\nm = 200\ntrace = ture\n")
        code = main(["working-set", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "trace" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()
        code, summary, out = run_cli(tmp_path, "working-set",
                                     "n = 32\nm = 200\ntrace = Off\n", trials=1)
        assert code == 0 and summary["parameters"]["trace"] is False
        assert not (out / "steps.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys, monkeypatch):
        def no_work(spec):
            raise AssertionError("the experiment ran before the config was checked")

        monkeypatch.setattr("scoretreap.cli.gen_sequence", no_work)
        cfg = tmp_path / "stray.cfg"
        cfg.write_text("n = 32\nsize_m = 200\ntrace = true\n")
        code = main(["working-set", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--trials", "1"])
        assert code == 2
        assert "size_m" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        monkeypatch.undo()
        # keys a command-line flag overrides still count as known
        code, summary, _ = run_cli(tmp_path, "working-set",
                                   "n = 32\nm = 200\nseed = 0\ntrials = 3\nthreads = 1\n",
                                   trials=1)
        assert code == 0 and summary["parameters"]["trials"] == 1

    @pytest.mark.parametrize("sub, config", [
        ("static-opt", "family = round-robin\n"),
        ("robustness", "measure = kullback\n"),
        ("working-set", "family = file\n"),
        ("working-set", "scheme = future-ws-noisy\n"),
        ("working-set", "structure = tree\n"),
        ("interval-set", "structure = Treap\n"),
        ("interval-set", "structure = rank-forest\n"),
        ("em-compare", "scheme = no-such-scheme\n"),
    ], ids=["static-opt-family", "robustness-measure", "working-set-family",
            "working-set-scheme", "working-set-structure", "interval-set-structure",
            "interval-set-rank-forest", "em-compare-scheme"])
    def test_value_outside_choices_rejected(self, tmp_path, capsys, monkeypatch, sub, config):
        def no_work(spec):
            raise AssertionError("the experiment ran before the config was checked")

        monkeypatch.setattr("scoretreap.cli.gen_sequence", no_work)
        monkeypatch.setattr("scoretreap.cli.gen_distribution", no_work)
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(config)
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        key = config.split("=")[0].strip()
        assert f"{key} must be one of" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreachable_eps_fails_before_any_sweep_point(self, tmp_path, capsys, monkeypatch):
        def no_work(spec):
            raise AssertionError("a sweep point ran before every eps was reached")

        monkeypatch.setattr("scoretreap.cli.gen_sequence", no_work)
        cfg = tmp_path / "tv.cfg"
        cfg.write_text("measure = tv\n")
        code = main(["robustness", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot reach tv=1.0" in err
        assert "largest reached 0.602" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flag", [("", "2"), ("threads = 2\n", "1")],
                             ids=["flag", "config"])
    def test_threads_other_than_one_rejected(self, tmp_path, capsys, config, flag):
        cfg = tmp_path / "threads.cfg"
        cfg.write_text(config)
        code = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", flag])
        assert code == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("config, flags", [("trials = 0\n", []), ("", ["--trials", "0"])],
                             ids=["config", "flag"])
    def test_zero_trials_rejected(self, tmp_path, capsys, config, flags):
        cfg = tmp_path / "trials.cfg"
        cfg.write_text(config)
        code = main(["static-opt", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", [sub for sub, keys in _PARAMETERS.items() if "b" in keys])
    @pytest.mark.parametrize("b", [3, 2, 0])
    def test_block_fanout_below_four_rejected(self, tmp_path, capsys, monkeypatch, sub, b):
        # whatever the structure: the treap has no blocks, but the config is rejected
        def no_work(spec):
            raise AssertionError("the experiment ran before the fanout was checked")

        monkeypatch.setattr("scoretreap.cli.gen_sequence", no_work)
        cfg = tmp_path / "fanout.cfg"
        cfg.write_text(f"b = {b}\n" + ("structure = treap\n" if sub != "em-compare" else ""))
        code = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"block fanout must be >= 4, got {b}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_list_parameters_echo_as_text(self, tmp_path):
        _, given, _ = run_cli(tmp_path, "robustness", "n = 64\nm = 500\neps = 0.5\n",
                              trials=1, tag="given")
        _, default, _ = run_cli(tmp_path, "robustness", "n = 64\nm = 500\n",
                                trials=1, tag="default")
        assert given["parameters"]["eps"] == "0.5"
        assert default["parameters"]["eps"] == "0.1,0.5,1.0"
        assert [pt["eps"] for pt in default["points"]] == [0.1, 0.5, 1.0]

    def test_comments_and_blank_lines(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "validate",
            "# sizing\n\nn = 32   # keep it small\nm = 300\n", trials=1)
        assert code == 0 and summary["parameters"]["n"] == 32

    def test_summary_is_deterministic(self, tmp_path):
        _, _, out_a = run_cli(tmp_path, "static-opt", "n = 64\nm = 2000\n",
                              trials=3, tag="a")
        _, _, out_b = run_cli(tmp_path, "static-opt", "n = 64\nm = 2000\n",
                              trials=3, tag="b")
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


class TestExperiments:
    def test_static_opt_fields(self, tmp_path):
        code, s, _ = run_cli(tmp_path, "static-opt", "n = 64\nm = 2000\n", trials=3)
        assert code == 0 and s["all_passed"]
        assert set(s["checks"]) == {"cost_le_4x_dp_opt", "cost_le_entropy_bound"}
        assert s["measured_cost"] >= s["dp_opt"] > 0
        assert s["ratio"] == pytest.approx(s["measured_cost"] / s["dp_opt"])
        assert s["entropy_bound"] >= s["entropy_bits"]

    @pytest.mark.parametrize("doctored", ["dp_opt", "entropy"])
    def test_static_opt_checks_can_fail(self, tmp_path, monkeypatch, doctored):
        """A DP optimum a tenth of the real one puts the measured cost past
        4x it (the ratio is about 1.5), and a zero entropy leaves only the
        4n term of the entropy bound; each fails its own check alone, and the
        command exits 1."""
        if doctored == "dp_opt":
            real_opt = cli.optimal_static_bst_cost
            monkeypatch.setattr(cli, "optimal_static_bst_cost", lambda freqs: real_opt(freqs) / 10)
        else:
            monkeypatch.setattr(cli, "entropy", lambda dist: 0.0)
        code, s, _ = run_cli(tmp_path, "static-opt", "n = 64\nm = 2000\n", trials=3)
        assert code == 1 and s["all_passed"] is False
        assert s["checks"] == {"cost_le_4x_dp_opt": doctored != "dp_opt",
                               "cost_le_entropy_bound": doctored != "entropy"}

    def test_robustness_points(self, tmp_path):
        code, s, _ = run_cli(tmp_path, "robustness",
                             "n = 128\nm = 3000\neps = 0.5\n", trials=2)
        assert code == 0 and s["all_passed"]
        (pt,) = s["points"]
        assert set(pt) == {"eps", "kl_nats", "cross_entropy_bits", "base_cost",
                           "noisy_cost", "cost_bound", "overhead_bound"}
        assert pt["eps"] == 0.5
        assert pt["noisy_cost"] <= pt["cost_bound"]

    def test_robustness_walks_once_per_eps(self, tmp_path, monkeypatch):
        """The trials of one eps share the mixture walk: three trials run as
        many measurements as one ``perturb`` call on the same input."""
        calls = []
        inner = distributions._measure
        monkeypatch.setattr(distributions, "_measure", lambda *a: calls.append(a) or inner(*a))
        code, s, _ = run_cli(tmp_path, "robustness",
                             "n = 128\nm = 3000\ns = 1.0\nmeasure = kl\neps = 0.5\n", trials=3)
        assert code == 0 and s["all_passed"]
        swept = len(calls)
        calls.clear()
        dist = gen_distribution(TraceSpec(family="zipf", n=128, m=3000, seed=0, s=1.0))
        perturb(dist, "kl", 0.5, rng=random.Random(0))
        assert swept == len(calls) > 0

    @pytest.mark.parametrize("seed, digest", [
        (0, "cb027d331ae0da49866df7f85e7c9c20ce97bb67824642b52f97aac650555587"),
        (1, "1a1fa8e3430222bfa08eb8664703e94fff41c2bf818732603cd9bc71ea141dee"),
    ], ids=["seed0", "seed1"])
    def test_robustness_builds_each_base_once(self, tmp_path, monkeypatch, seed, digest):
        """At the defaults (10 trials, three eps) a trial's base treap is
        built once, not once per eps, and every noisy build continues the
        stream from where the base build left it: the summary keeps the
        bytes that a base build per eps gave (these sha256 literals)."""
        builds = []
        inner = cli._static_treap_cost
        monkeypatch.setattr(cli, "_static_treap_cost", lambda *a: builds.append(a) or inner(*a))
        out = tmp_path / "o"
        assert main(["robustness", "--out", str(out), "--seed", str(seed), "--threads", "1"]) == 0
        assert len(builds) == 10 + 10 * 3
        assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("sub, config, trials, digest", [
        ("static-opt", "n = 64\nm = 2000\n", 3,
         "03f18b7fee46155f1d68a570d0f38f36890303ce4bf23bd865e7e79b75845e9b"),
        ("counterexamples", "raw_n = 16\nsingle_log_n = 256,1024\n", 2,
         "61813b85176ef98c5f22fefeec980b54fe41059e2e277538aac0536c31c9683a"),
        ("working-set", "n = 64\nm = 1500\n", 2,
         "f5c21406b1b3ddac25f77a34df4acda1247310051041ca6c2ebc7bd803fd8cc9"),
        ("working-set", "n = 128\nm = 2000\nstructure = tier-forest\nb = 4\n", 2,
         "d5e013dac3f301d8510386b049783741ab0cbe0a2ebfe7b8a0d0040ed816b0d4"),
        ("interval-set", "n = 48\nm = 1200\n", 2,
         "7c729cbf6e3472106ac9b5f6c523d2f6e85658a4147be2443572234c80a82a83"),
        ("em-compare", "n = 256\nm = 1500\nb = 4\n", 1,
         "8deeb9d18cbc4b330dfe91e52e51eff5a60ed37012f478bb98684da82f724c09"),
        ("validate", "n = 64\nm = 500\n", 1,
         "82cd36d543a40ee5f2b67bca818e952bb02d13a835ab25e0538e6280c0729620"),
    ], ids=["static-opt", "counterexamples", "working-set-treap", "working-set-tier-forest",
            "interval-set", "em-compare", "validate"])
    def test_summary_digest(self, tmp_path, sub, config, trials, digest):
        """Each command's summary at a small config and seed 0 keeps its
        bytes (these sha256 literals); the tier-forest configs re-tier, so
        their update and rebuild counts are part of what is pinned.  A
        change that moves a summary on purpose re-pins its digest."""
        code, s, out = run_cli(tmp_path, sub, config, trials=trials)
        assert code == 0 and s["all_passed"] is True
        assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == digest

    def test_counterexamples_linear_profile(self, tmp_path):
        code, s, _ = run_cli(tmp_path, "counterexamples",
                             "raw_n = 4,16\nsingle_log_n = 64,256\n", trials=2)
        rows = {r["n"]: r for r in s["raw_score"]}
        assert rows[4]["is_chain"] and rows[16]["is_chain"]
        # linear profile on a 4-chain: (4*1 + 3*2 + 2*3 + 1*4) / 10
        assert rows[4]["expected_access"] == pytest.approx(2.0)
        assert rows[16]["expected_access"] >= 16 / 3.0
        for r in s["single_log"]:
            assert r["ratio"] == pytest.approx(r["single_log_cost"] / r["composite_cost"])
        assert code in (0, 1)  # the growth check may fail at toy sizes

    def test_working_set_trace_and_bound(self, tmp_path):
        code, s, out = run_cli(tmp_path, "working-set",
                               "n = 64\nm = 1500\ntrace = true\n", trials=2)
        assert code == 0 and s["checks"]["cost_le_working_set_bound"]
        assert s["mean_total_cost"] <= s["working_set_bound"]
        header = (out / "steps.csv").read_text().splitlines()[0]
        assert header == "i,key,cost,update_set_size,work,interval,future"
        assert len((out / "steps.csv").read_text().splitlines()) == 1501

    @pytest.mark.parametrize("family", ["zipf", "round-robin"])
    @pytest.mark.parametrize("structure, base", [("treap", 2.0), ("det-forest", 16.0)])
    def test_working_set_bound_is_the_literal_log_sum(self, tmp_path, structure, base, family):
        # bit for bit: the same log calls added in the same order
        n, m, seed = 64, 1500, 3
        _, s, _ = run_cli(tmp_path, "working-set",
                          f"n = {n}\nm = {m}\nstructure = {structure}\nfamily = {family}\n",
                          seed=seed, trials=1)
        st = compute_stats(gen_sequence(TraceSpec(family, n=n, m=m, seed=seed, s=1.0)))
        want = 8.0 * (n * math.log(n, base) +
                      sum(map(math.log, [w + 1 for w in st.work[1:]], repeat(base))))
        assert s["working_set_bound"] == want

    def test_working_set_bound_can_fail(self, tmp_path):
        code, s, _ = run_cli(tmp_path, "working-set",
                             "n = 64\nm = 800\nfactor = 0.000001\n", trials=1)
        assert code == 1 and not s["all_passed"]

    def test_interval_set_sweep(self, tmp_path):
        code, s, _ = run_cli(tmp_path, "interval-set",
                             "n = 48\nm = 1200\n", trials=2)
        assert code == 0 and s["all_passed"]
        assert set(s["checks"]) == {"mae_0.0", "mae_0.5", "mae_1.0",
                                    "x2_cheaper_every_seed"}
        sweep = {row["eps_rel"]: row for row in s["mae_sweep"]}
        assert sweep[0.0]["noisy_cost"] == s["exact_cost"]
        for row in s["mae_sweep"]:
            assert row["noisy_cost"] <= row["budget"]
        assert all(b < a for a, b in zip(s["x1_costs"], s["x2_costs"]))

    def test_interval_set_mae_0_requires_the_exact_cost(self, tmp_path, monkeypatch):
        """A rel-0 noisy run one unit dearer than the exact run, far inside
        the 8n room of the budget, fails ``mae_0.0`` alone, and the command
        exits 1."""
        real_run = cli.run_dynamic
        noisy_runs = []

        def run_dynamic(seq, scheme, structure, *args, **kwargs):
            res = real_run(seq, scheme, structure, *args, **kwargs)
            if scheme == "future-ws-noisy":
                noisy_runs.append(res)
                if len(noisy_runs) == 1:  # the sweep's first eps, rel 0
                    res.access_cost += 1
            return res

        monkeypatch.setattr(cli, "run_dynamic", run_dynamic)
        code, s, _ = run_cli(tmp_path, "interval-set", "n = 48\nm = 1200\n", trials=2)
        assert code == 1 and s["all_passed"] is False
        assert s["checks"] == {"mae_0.0": False, "mae_0.5": True, "mae_1.0": True,
                               "x2_cheaper_every_seed": True}
        row = s["mae_sweep"][0]
        assert row["eps_rel"] == 0.0 and row["noisy_cost"] == s["exact_cost"] + 1
        assert row["noisy_cost"] <= row["budget"]

    def test_interval_set_x2_check_fails_on_the_round_robin_trace(self, tmp_path, monkeypatch):
        """Handed the round-robin trace in place of the block-repeat one, the
        x2 runs replay the x1 runs on the same streams and cost exactly as
        much, so ``x2_cheaper_every_seed`` alone fails and the command exits 1."""
        real_gen = cli.gen_sequence

        def gen_sequence(spec):
            if spec.family == "block-repeat":
                spec = TraceSpec("round-robin", n=spec.n, m=spec.m, seed=spec.seed, s=spec.s)
            return real_gen(spec)

        monkeypatch.setattr(cli, "gen_sequence", gen_sequence)
        code, s, _ = run_cli(tmp_path, "interval-set", "n = 48\nm = 1200\n", trials=2)
        assert code == 1 and s["all_passed"] is False
        assert s["checks"] == {"mae_0.0": True, "mae_0.5": True, "mae_1.0": True,
                               "x2_cheaper_every_seed": False}
        assert s["x2_costs"] == s["x1_costs"]

    @pytest.mark.parametrize("inflated", ["tier-forest", "det-forest"])
    def test_em_compare_checks_can_fail(self, tmp_path, monkeypatch, inflated):
        """A forest whose counted costs are inflated far past the bound fails
        its own decomposition check alone, and the command exits 1."""
        if inflated == "tier-forest":
            real_update = TierForestBTreap.update_weight

            def update_weight(self, key, new_tier):
                cost = real_update(self, key, new_tier)
                return cost._replace(search=cost.search + 10**9)

            monkeypatch.setattr(TierForestBTreap, "update_weight", update_weight)
        else:
            real_access = DetScoreForest.access
            monkeypatch.setattr(DetScoreForest, "access",
                                lambda self, key: real_access(self, key) + 10**9)
        code, s, _ = run_cli(tmp_path, "em-compare", "n = 256\nm = 1500\nb = 4\n", trials=1)
        assert code == 1 and s["all_passed"] is False
        assert s["checks"] == {"tier_forest_decomposition": inflated != "tier-forest",
                               "det_forest_decomposition": inflated != "det-forest"}

    def test_em_compare(self, tmp_path):
        code, s, _ = run_cli(tmp_path, "em-compare",
                             "n = 256\nm = 1500\nb = 16\n", trials=1)
        assert code == 0
        assert s["B"] == 16
        assert s["checks"]["tier_forest_decomposition"]
        assert s["checks"]["det_forest_decomposition"]
        assert s["tier_forest_cost"] > 0 and s["det_forest_cost"] > 0
        assert math.isfinite(s["tier_forest_ratio"])
