"""Run one scoretreap benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  Each workload is a fixed list of CLI invocations (``workloads.py``)
called in-process through ``scoretreap.cli.main`` at ``--threads 1``; a pass
runs the list once, and passes repeat until ``--seconds`` would be exceeded.
The seed is the CLI ``--seed`` of every invocation.

An invocation fails when it raises, exits non-zero, or writes a
``summary.json`` (or returns ``run_dynamic`` costs) other than the pinned
ones in ``pins.json``; on an unpinned seed, other than its first pass.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters, started through the run, that import the package and
write the configs), ``ops_per_s`` (median over passes) and ``peak_rss_mb``.
Both times are scaled to a reference machine speed (``SpeedProbe``).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``layers.py``; a traced pass also fails when its summaries differ
from the untraced pass, its counted costs differ from the pins, a layer is
reached or bypassed against ``workloads.EXERCISED``/``BYPASSED``, or two
sources of one count disagree.

The last stdout line is the result object; the line before it holds
diagnostics (host CPU steal share from ``/proc/stat``, CPU time per wall
second, pass times) that no gate reads.  The full report is also written to
``.perfbench_runs/<workload>-seed<seed>-trace<t>/report.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PINS = BENCH_DIR / "pins.json"
SETUP_PROBES = 9
SPEED_PERIOD_S = 0.05
SPEED_LOOP = 5000
# the speed loop's duration on the 2-core VM the benchmark was defined on
REF_SPEED_LOOP_S = 2.5e-4

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402
from workloads import BYPASSED, EXERCISED, OP_KIND, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def prepare(workload: str, run_dir: Path) -> list[Path]:
    """Import the package and write the workload's configs; returns their paths."""
    sys.path.insert(0, str(SRC))
    import scoretreap.cli  # noqa: F401  -- the import is part of set-up

    run_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for j, inv in enumerate(WORKLOADS[workload]):
        path = run_dir / f"inv{j}.cfg"
        path.write_text(inv.config)
        paths.append(path)
    return paths


def time_speed_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(SPEED_LOOP):
        s += i
    return time.perf_counter() - t0


def setup_time(workload: str, seed: int) -> float:
    """Time of a fresh interpreter doing everything up to the first call.

    Scaled to reference machine speed like ``ops_per_s``, by the speed loop
    timed just before the interpreter starts.
    """
    slowdown = statistics.median(time_speed_loop() for _ in range(25)) / REF_SPEED_LOOP_S
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) / slowdown


class SpeedProbe:
    """Samples how fast the machine runs Python while an invocation runs.

    A wall-clock timer interrupts the program every ``SPEED_PERIOD_S`` and
    times a fixed loop of ``SPEED_LOOP`` additions.  On a shared VM the
    speed of the CPU changes by up to 1.5x in phases of seconds (no steal is
    reported); the median loop time over an invocation divided by
    ``REF_SPEED_LOOP_S`` is the slowdown its wall time is divided by.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_speed_loop())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REF_SPEED_LOOP_S if self.samples else 1.0


class Pass:
    """One run of a workload's invocations: exit codes, digests, costs, walls."""

    def __init__(self) -> None:
        self.codes: list[object] = []
        self.digests: list[str | None] = []
        self.costs: list[list[list[int]]] = []
        self.walls: list[float] = []
        self.slowdowns: list[float] = []
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def ref_wall(self) -> float:
        """Wall time at the reference machine speed."""
        return sum(w / s for w, s in zip(self.walls, self.slowdowns))


def run_pass(workload: str, configs: list[Path], run_dir: Path, seed: int,
             tracer: layers.Tracer) -> Pass:
    """Run every invocation once; ``tracer`` must already be installed."""
    cli = sys.modules["scoretreap.cli"]
    result = Pass()
    for j, (inv, cfg) in enumerate(zip(WORKLOADS[workload], configs)):
        out = run_dir / f"inv{j}"
        summary = out / "summary.json"
        summary.unlink(missing_ok=True)
        argv = [inv.subcommand, "--config", str(cfg), "--out", str(out), "--seed", str(seed),
                "--trials", str(inv.trials), "--threads", "1"]
        first = len(tracer.breakdowns)
        gc.collect()
        with SpeedProbe() as speed:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code: object = cli.main(argv)
            except Exception as exc:  # a raising invocation is a counted failure
                code = f"raised {exc!r}"
            result.walls.append(time.perf_counter() - t0)
        result.slowdowns.append(speed.slowdown())
        result.codes.append(code)
        result.digests.append(
            hashlib.sha256(summary.read_bytes()).hexdigest() if summary.exists() else None)
        result.costs.append([list(b) for b in tracer.breakdowns[first:]])
    return result


def check_invocations(p: Pass, reference: dict) -> list[bool]:
    """Per-invocation verdicts against the pins (or the run's first pass)."""
    ok = []
    for j, code in enumerate(p.codes):
        reasons = []
        if code != 0:
            reasons.append(f"exit {code}")
        if p.digests[j] is None:
            reasons.append("no summary.json")
        elif p.digests[j] != reference["summary_sha256"][j]:
            reasons.append("summary.json differs from the reference")
        if p.costs[j] != reference["run_dynamic"][j]:
            reasons.append(f"run_dynamic costs {p.costs[j]} != {reference['run_dynamic'][j]}")
        p.failures.extend(f"invocation {j}: {r}" for r in reasons)
        ok.append(not reasons)
    return ok


def check_traced(workload: str, traced: Pass, untraced: Pass, tracer: layers.Tracer,
                 metrics: dict, ref_counts: dict) -> list[str]:
    """Pass-level checks of a traced pass; returns the problems found."""
    problems = []
    if traced.digests != untraced.digests:
        problems.append("traced summary.json bytes differ from the untraced pass")
    for name in EXERCISED[workload]:
        if metrics[f"{name}.calls"] == 0:
            problems.append(f"{name} was not called")
    for name in BYPASSED[workload]:
        if metrics[f"{name}.calls"] != 0:
            problems.append(f"{name} was called {metrics[f'{name}.calls']} times")
    counts = tracer.counts
    agree = {
        "treap.nodes_touched == treap-run access_cost":
            (metrics["treap.nodes_touched"], counts.get("treap_access_cost", 0)),
        "rebuild_writes == rebuild_cost":
            (metrics["em.TierForestBTreap.update_weight.rebuild_writes"],
             metrics["dynamic.run_dynamic.rebuild_cost"]),
        "update_events == treap re-prioritisations + det-forest updates":
            (metrics["dynamic.run_dynamic.update_events"],
             metrics["treap.Treap.update_priority.calls"]
             + metrics["em.DetScoreForest.update_weight.calls"]),
        "ops == " + ("accesses served" if OP_KIND[workload] == "access" else "keys built"):
            (sum(inv.ops for inv in WORKLOADS[workload]),
             counts.get("accesses_served" if OP_KIND[workload] == "access" else "keys_built", 0)),
    }
    problems.extend(f"{label}: {a} != {b}" for label, (a, b) in agree.items() if a != b)
    observed = exact_counts(metrics)
    if observed != ref_counts:
        diff = {k: (observed[k], ref_counts.get(k)) for k in observed
                if observed[k] != ref_counts.get(k)}
        problems.append(f"counted costs differ from the reference: {diff}")
    return problems


def exact_counts(metrics: dict) -> dict:
    return {name: metrics[name] for name, _ in layers.COUNTS}


def steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host CPU line of /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7], sum(ticks[:8])


def load_pins(workload: str, seed: int) -> dict | None:
    return json.loads(PINS.read_text()).get(workload, {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool, configs: list[Path],
            run_dir: Path, pins: dict | None) -> dict:
    """Run passes for ``seconds``; checks against ``pins`` (None: the first pass)."""
    verdicts: list[bool] = []
    passes: list[Pass] = []
    traced_passes: list[Pass] = []
    layer_runs: list[dict] = []
    ratios: list[float] = []
    setup: list[float] = []
    reference = pins
    ref_counts = pins["counts"] if pins else None
    cpu0, steal0, t_begin = time.process_time(), steal_ticks(), time.perf_counter()
    while True:
        if not trace:  # set-up probes spread over the run's speed phases
            setup.append(setup_time(workload, seed))
        recorder = layers.Tracer(only=("dynamic.run_dynamic",))
        recorder.install()
        try:
            p = run_pass(workload, configs, run_dir, seed, recorder)
        finally:
            recorder.uninstall()
        reference = reference or {"summary_sha256": p.digests, "run_dynamic": p.costs}
        verdicts += check_invocations(p, reference)
        passes.append(p)
        if trace:
            tracer = layers.Tracer()
            tracer.install()
            try:
                t = run_pass(workload, configs, run_dir, seed, tracer)
            finally:
                tracer.uninstall()
            ok = check_invocations(t, reference)
            layer = tracer.metrics()
            ref_counts = ref_counts or exact_counts(layer)
            problems = check_traced(workload, t, p, tracer, layer, ref_counts)
            t.failures.extend(problems)
            verdicts += [v and not problems for v in ok]
            traced_passes.append(t)
            layer_runs.append(layer)
            ratios.append(t.ref_wall / p.ref_wall)
            del tracer  # frees the pass's spans before the next pass
        elapsed = time.perf_counter() - t_begin
        per_round = elapsed / len(passes)
        if elapsed + per_round > seconds:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(setup_time(workload, seed))
    wall = time.perf_counter() - t_begin
    steal1 = steal_ticks()
    ops = sum(inv.ops for inv in WORKLOADS[workload])
    diagnostic = {
        "passes": len(passes),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "traced_pass_wall_s": [round(t.wall, 4) for t in traced_passes],
        "slowdowns": [round(s, 4) for p in passes for s in p.slowdowns],
        "wall_ops_per_s": statistics.median(ops / p.wall for p in passes),
        "cpu_s_per_wall_s": (time.process_time() - cpu0) / wall,
        "steal_share": (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
        if steal0 and steal1 else None,
        "pinned_seed": pins is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": [f for p in passes + traced_passes for f in p.failures],
    }
    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        metrics[layers.OVERHEAD[0]] = statistics.median(ratios)
        units = layers.metric_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": statistics.median(ops / p.ref_wall for p in passes),
            "peak_rss_mb": diagnostic["peak_rss_mb"],
        }
        diagnostic["setup_probe_s"] = [round(t, 4) for t in setup]
        units = END_TO_END_UNITS
    return {"verdicts": verdicts, "metrics": metrics, "units": units,
            "diagnostic": diagnostic, "passes": passes, "layer_runs": layer_runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and write configs, then exit (times set-up)")
    args = parser.parse_args(argv)
    if not (SRC / "scoretreap" / "__init__.py").is_file():
        print(f"error: no scoretreap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_only:
        prepare(args.workload, run_dir / "probe")
        return 0
    configs = prepare(args.workload, run_dir)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), configs, run_dir,
                  load_pins(args.workload, args.seed))
    metrics = run["metrics"]
    verdicts = run["verdicts"]
    result = {
        "correct": all(verdicts),
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in sorted(metrics.items())},
    }
    for line in run["diagnostic"]["failures"]:
        print(f"failure: {line}", file=sys.stderr)
    (run_dir / "report.json").write_text(json.dumps(
        {"args": vars(args), "result": result, "diagnostic": run["diagnostic"]}, indent=1))
    print(json.dumps({"diagnostic": run["diagnostic"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
