"""A/A check: two sets of runs of the same commit must agree.

    python3 ledger/aa.py [--runs N] [--workloads a,b,...] [--seconds S]

Runs every workload ``2 * N`` times (default ``N = 1``: twice), each run
with another seed, split into set A (seeds 1..N) and set B (seeds
N+1..2N).  Prints, per workload and end-to-end metric, the two medians,
how much worse B is than A, each set's spread (inter-quartile distance over
median, from ``N >= 2``) and the bound from ``BENCHMARK.json``.  The
benchmark contract wants every spread except ``setup_s``'s within its
bound — below a third of it to be safe — and B no worse than A by more
than the bound.  Every run's values land in ``ledger/out/aa.json``.  Exits
non-zero when a pairing does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from ledger.stats import spread  # noqa: E402


def one_run(command: List[str], workload: str, seed: int, seconds: float) -> Dict[str, float]:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    final = json.loads(done.stdout.strip().splitlines()[-1])
    if not final["correct"] or final["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed ops: {final}")
    return {name: m["value"] for name, m in final["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    args = parser.parse_args()

    ok = True
    raw: Dict[str, List[List[Dict[str, float]]]] = {}
    for workload in args.workloads.split(","):
        sets = [
            [one_run(benchmark["command"], workload, seed, args.seconds) for seed in seeds]
            for seeds in (range(1, args.runs + 1), range(args.runs + 1, 2 * args.runs + 1))
        ]
        raw[workload] = sets
        print(f"\n{workload}  ({args.runs} run(s) per set, {args.seconds:g} s each)")
        print(f"  {'metric':<16} {'median A':>12} {'median B':>12} {'B worse by':>11} "
              f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if metric["better"] == "lower" else (med_a - med_b) / med_a
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in (a, b)]
            holds = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and holds
            print(f"  {name:<16} {med_a:>12.4f} {med_b:>12.4f} {worse:>+11.1%} "
                  f"{spreads[0]:>9.1%} {spreads[1]:>9.1%} {bound:>6.0%}  "
                  f"{'ok' if holds else 'OUTSIDE BOUND'}")
    os.makedirs(os.path.join(LEDGER_DIR, "out"), exist_ok=True)
    with open(os.path.join(LEDGER_DIR, "out", "aa.json"), "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
