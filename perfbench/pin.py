"""Record the behaviour fingerprint of every workload in ``pins.json``.

    python3 perfbench/pin.py --seeds 0-10 [--workload NAME ...]

For each workload and seed this runs one untraced and one traced pass and
stores the sha256 of every ``summary.json``, every ``run_dynamic`` call's
(access, update, rebuild, update events) costs, and the exact counted costs
of ``layers.COUNTS``.  It refuses to pin a seed on which any invocation or
traced-pass check fails.  Pin only from a commit whose behaviour is the
reference: a change that must keep behaviour is checked against the pins,
never re-pinned.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[0], help="N or LO-HI")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    pins = json.loads(run.PINS.read_text()) if run.PINS.exists() else {}
    for workload in args.workload or list(run.WORKLOADS):
        for seed in args.seeds:
            run_dir = run.RUNS / f"pin-{workload}-seed{seed}"
            configs = run.prepare(workload, run_dir)
            result = run.measure(workload, seed, 0, True, configs, run_dir, None)
            if not all(result["verdicts"]):
                print(f"{workload} seed {seed}: not pinned: {result['diagnostic']['failures']}",
                      file=sys.stderr)
                return 1
            untraced = result["passes"][0]
            pins.setdefault(workload, {})[str(seed)] = {
                "summary_sha256": untraced.digests,
                "run_dynamic": untraced.costs,
                "counts": run.exact_counts(result["layer_runs"][0]),
            }
            print(f"{workload} seed {seed}: pinned", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
