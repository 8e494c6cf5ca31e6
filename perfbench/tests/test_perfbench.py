"""Self-tests of the benchmark: names, layer map, count agreement, gating.

    python3 -m pytest perfbench/tests -q

The per-workload tests run one untraced and one traced pass of each
workload at the pinned seed, about 30 s in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import BYPASSED, EXERCISED, WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))


def test_every_wrapped_name_resolves_in_src():
    for name in layers.function_names():
        owner, attr, raw = layers.resolve(name)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), name
        assert fn.__module__ == f"scoretreap.{name.partition('.')[0]}", name


def test_layer_map_names_are_wrapped():
    wrapped = set(layers.function_names())
    for workload in WORKLOADS:
        assert set(EXERCISED[workload]) <= wrapped
        assert set(BYPASSED[workload]) <= wrapped
        assert not set(EXERCISED[workload]) & set(BYPASSED[workload])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_install_and_uninstall_restore_every_name():
    import scoretreap
    from scoretreap import cli, dynamic, em, treap

    before = (cli.run_dynamic, dynamic.composite_priority, em.tier_value,
              scoretreap.compute_stats, treap.Treap.__dict__["build_arrays"],
              em.BTree.__init__)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli.run_dynamic is not before[0]
        assert dynamic.composite_priority is not before[1]
        assert em.tier_value is not before[2]
        assert scoretreap.compute_stats is not before[3]
    finally:
        tracer.uninstall()
    after = (cli.run_dynamic, dynamic.composite_priority, em.tier_value,
             scoretreap.compute_stats, treap.Treap.__dict__["build_arrays"],
             em.BTree.__init__)
    assert all(a is b for a, b in zip(after, before))


def test_self_time_excludes_child_spans():
    from scoretreap import priorities

    tracer = layers.Tracer()
    tracer.install()
    try:
        rng = priorities.RandomStream(1)
        for w in (0.5, 0.01, 1e-9):
            priorities.composite_priority(w, rng)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["priorities.composite_priority.calls"] == 3
    assert m["priorities.tier_value.calls"] == 3
    comp_total = m["priorities.composite_priority.total_s"]
    comp_self = m["priorities.composite_priority.self_s"]
    assert comp_self == pytest.approx(comp_total - m["priorities.tier_value.total_s"])
    assert 0 < comp_self < comp_total


def test_a_changed_summary_or_cost_is_a_failed_invocation():
    p = run.Pass()
    p.codes, p.digests, p.costs = [0, 0], ["a", "b"], [[[1, 2, 3, 4]], []]
    pin = {"summary_sha256": ["a", "b"], "run_dynamic": [[[1, 2, 3, 4]], []]}
    assert run.check_invocations(p, pin) == [True, True]
    assert run.check_invocations(p, {**pin, "summary_sha256": ["a", "c"]}) == [True, False]
    assert run.check_invocations(p, {**pin, "run_dynamic": [[[1, 2, 3, 5]], []]}) == [False, True]
    p.codes = [1, 0]
    assert run.check_invocations(p, pin) == [False, True]


def test_every_workload_is_pinned_at_the_default_seed():
    for workload, invocations in WORKLOADS.items():
        pin = run.load_pins(workload, 0)
        assert pin is not None, workload
        assert len(pin["summary_sha256"]) == len(invocations)
        assert len(pin["run_dynamic"]) == len(invocations)
        assert set(pin["counts"]) == {name for name, _ in layers.COUNTS}


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced(request, tmp_path_factory):
    workload = request.param
    run_dir = tmp_path_factory.mktemp(workload)
    configs = run.prepare(workload, run_dir)
    result = run.measure(workload, 0, 0, True, configs, run_dir, run.load_pins(workload, 0))
    return workload, result


def test_traced_pass_matches_pins_and_layer_map(traced):
    workload, result = traced
    assert result["diagnostic"]["failures"] == []
    assert all(result["verdicts"]) and len(result["verdicts"]) == 2 * len(WORKLOADS[workload])


def test_bypassed_layers_stay_bypassed(traced):
    workload, result = traced
    m = result["layer_runs"][0]
    if workload != "em-tier-forest":
        assert m["em.TierForestBTreap.update_weight.calls"] == 0
    if workload != "recency-crude":
        assert m["dynamic.CrudeOracle.step.calls"] == 0
    if workload == "static-trees":
        assert m["dynamic.compute_stats.calls"] == 0
        assert m["treap.Treap.access.calls"] == 0


def test_counts_agree_across_sources(traced):
    workload, result = traced
    m = result["layer_runs"][0]
    # the traced pass's summed costs against the untraced pass's per-call ones
    calls = [costs for inv in result["passes"][0].costs for costs in inv]
    assert m["dynamic.run_dynamic.access_cost"] == sum(c[0] for c in calls)
    assert m["dynamic.run_dynamic.rebuild_cost"] == sum(c[2] for c in calls)
    assert m["em.TierForestBTreap.update_weight.rebuild_writes"] == \
        m["dynamic.run_dynamic.rebuild_cost"]
    if workload == "ws-treap-zipf":  # the only structure there is the treap
        assert m["treap.nodes_touched"] == m["dynamic.run_dynamic.access_cost"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "static-trees",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
