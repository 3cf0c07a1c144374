"""The perf ledger's one command.

    python3 ledger/run.py --workload <name> --seed <int> [--seconds S]
                          [--trace [0|1]] [--smoke]

Builds the workload's deployment through the public API, drives it from
this process, gates every trial on the paper's contract, prints every
metric by name with its unit, persists the report under
``ledger/out/run-NNNN/`` and ends with one JSON line: the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.  See ``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
# Worker processes (multiprocessing "spawn") inherit sys.path, so they can
# import both the system under test and ledger.probes.
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ledger import hostinfo  # noqa: E402
from ledger.flstore_tcp import FlstoreTrial  # noqa: E402
from ledger.geo import KILL_AT, WORKERS, GeoTrial  # noqa: E402
from ledger.stats import percentile, spread, summary  # noqa: E402
from ledger.workloads import REF_SECONDS, WORKLOADS, FlstoreSpec  # noqa: E402

#: The whole command must exit well within the contract's 180 s.
RUN_DEADLINE_SECONDS = 150.0
SMOKE_SCALE = 1.0 / 20.0
#: Wedged trials a run may replace by fresh ones before it fails.
MAX_REPLACED_TRIALS = 2
#: No new trial starts once the run has taken ``OVERRUN`` x ``--seconds``,
#: unless fewer than ``MIN_TRIALS`` are done.
OVERRUN = 1.25
MIN_TRIALS = 3


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def new_run_dir() -> str:
    out = os.path.join(LEDGER_DIR, "out")
    os.makedirs(out, exist_ok=True)
    number = 1 + max(
        (int(d[4:]) for d in os.listdir(out) if d.startswith("run-") and d[4:].isdigit()),
        default=0,
    )
    while True:
        path = os.path.join(out, f"run-{number:04d}")
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            number += 1


# ---------------------------------------------------------------------- #
# Trials
# ---------------------------------------------------------------------- #


def run_trial(
    spec: Any, seed: int, deadline: float, run_dir: str, trace: bool, fault: bool = False
) -> Dict[str, Any]:
    """One trial on a fresh deployment; spans (if any) land in ``run_dir``."""
    gc.collect()  # the previous trial's deployment is cyclic garbage
    if isinstance(spec, FlstoreSpec):
        trial: Any = FlstoreTrial(spec, seed, deadline, trace=trace)
        result = trial.run()
    else:
        trial = GeoTrial(
            spec, seed, deadline, run_dir, trace=trace, kill_at=KILL_AT if fault else None
        )
        result = trial.run_fault() if fault else trial.run()
    tracer = getattr(trial, "tracer", None)
    if tracer is not None:
        tracer.log.write_jsonl(os.path.join(run_dir, "spans.jsonl"))
        result["spans"] = len(tracer.log.spans)
    return result


def run_healthy_trial(
    spec: Any, seed: int, deadline: float, run_dir: str, trace: bool, discarded: List[Dict[str, Any]], fault: bool = False
) -> Dict[str, Any]:
    """:func:`run_trial`, replacing a trial that wedges by a fresh one —
    at most ``MAX_REPLACED_TRIALS`` times per run, after which a wedge
    fails the run.

    A wedge is the system under test falling over on its own (README
    "Hazards": a worker connection stalled at the TCP level, a supervised
    store worker whose snapshot outgrew the frame limit), about once in
    forty runs on the sizing host.  What it measured is discarded with it,
    and it is *reported*: the discarded trials are
    counted in ``driver.wedged_trials``, their ops in
    ``driver.failed_frac``, and listed in ``report.json``."""
    while True:
        result = run_trial(spec, seed, deadline, run_dir, trace, fault)
        if not result["wedged"] or len(discarded) >= MAX_REPLACED_TRIALS:
            return result
        print(f"trial wedged and was replaced: {result['problems']}")
        discarded.append(result)


def pooled(trials: List[Dict[str, Any]], pool: str) -> List[float]:
    return [s * 1000.0 for t in trials for s in t["latencies"].get(pool, [])]


def per_trial(trials: List[Dict[str, Any]], key: str) -> List[float]:
    return [t[key] for t in trials if key in t]


def failed_ops(trials: List[Dict[str, Any]]) -> int:
    """Failed ops; every op of a wedged trial counts as failed."""
    return sum(t["attempted"] if t["wedged"] else t["failed"] for t in trials)


def latency_row(trials: List[Dict[str, Any]], pool: str, q: float) -> Optional[Dict[str, Any]]:
    """Median across trials of each trial's own percentile (ms).

    A whole-trial disturbance (a GC pause, a socket stall) then moves one
    trial's value, not the reported one; ``samples`` counts all trials'."""
    values = [
        percentile(t["latencies"][pool], q) * 1000.0
        for t in trials
        if t["latencies"].get(pool)
    ]
    if not values:
        return None
    samples = sum(len(t["latencies"].get(pool, ())) for t in trials)
    return {**summary(values), "samples": samples}


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def end_to_end(trials: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of the untraced trials, each with its spread."""
    rows: Dict[str, Dict[str, Any]] = {}
    for name in ("setup_s", "throughput_rps"):
        values = per_trial(trials, name)
        if values:
            rows[name] = summary(values)
    for name, q in (("ack_p50_ms", 0.50), ("ack_p90_ms", 0.90)):
        row = latency_row(trials, "ack", q)
        if row is not None:
            rows[name] = row
    rows["peak_rss_mb"] = {"median": hostinfo.peak_rss_mb(), "n": 1}
    return rows


def diagnostics(
    trials: List[Dict[str, Any]], discarded: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Workload-specific end-to-end rows and run-validity rows: reported by
    name, never gated (see README "Demoted metrics").  ``discarded`` are
    the trials that wedged and were replaced."""
    rows: Dict[str, Dict[str, Any]] = {}
    for pool in ("repl_lag", "read_lid", "read_tag"):
        for tag, q in (("p50", 0.50), ("p90", 0.90)):
            row = latency_row(trials, pool, q)
            if row is not None:
                rows[f"driver.{pool}_{tag}_ms"] = row
    ack = pooled(trials, "ack")
    if ack:
        rows["driver.ack_p99_ms"] = {"median": percentile(ack, 0.99), "n": len(ack)}
    ops = per_trial(trials, "ops_per_s")
    if ops:
        rows["driver.ops_per_s"] = summary(ops)
    attempted = sum(t["attempted"] for t in trials + discarded)
    rows["driver.failed_frac"] = {
        "median": failed_ops(trials + discarded) / attempted if attempted else 1.0,
        "n": attempted,
    }
    rows["driver.wedged_trials"] = {
        "median": sum(t["wedged"] for t in trials + discarded),
        "n": len(trials) + len(discarded),
    }
    late = per_trial(trials, "generator_late_max_ms")
    rows["driver.generator_late_max_ms"] = {"median": max(late, default=0.0), "n": len(late)}
    slowdowns = per_trial(trials, "host_slowdown")
    if slowdowns:
        rows["driver.host_slowdown"] = summary(slowdowns)
        # What the host actually delivered: undo the normalisation.
        rows["driver.raw_throughput_rps"] = summary(
            [t["throughput_rps"] / t["host_slowdown"] for t in trials if "host_slowdown" in t]
        )
    throughputs = per_trial(trials, "throughput_rps")
    rows["driver.trial_spread_frac"] = {
        "median": spread(throughputs) if len(throughputs) > 1 else 0.0,
        "n": len(throughputs),
    }
    return rows


def per_layer(
    untraced: Dict[str, Any],
    traced: Dict[str, Any],
    fault: Optional[Dict[str, Any]],
    discarded: List[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    rows = diagnostics([untraced], discarded)
    for name, value in traced["layers"].items():
        rows[name] = {"median": value, "n": 1}
    if fault is not None:
        for name, value in fault["layers"].items():
            if name.startswith(("driver.service_gap", "runtime.supervisor", "runtime.multiproc.loss")):
                rows[name] = {"median": value, "n": 1}
    if "throughput_rps" in untraced and "throughput_rps" in traced:
        rows["driver.trace_overhead_frac"] = {
            "median": 1.0 - traced["throughput_rps"] / untraced["throughput_rps"],
            "n": 1,
        }
    return rows


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #


def print_table(title: str, rows: Dict[str, Dict[str, Any]], units: Dict[str, str]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<52} {'unit':<10} {'value':>14} {'q1':>12} {'q3':>12} {'n':>8}")
    for name, row in rows.items():
        q1 = f"{row['q1']:.4f}" if "q1" in row else "-"
        q3 = f"{row['q3']:.4f}" if "q3" in row else "-"
        print(
            f"  {name:<52} {units.get(name, ''):<10} {row['median']:>14.4f} "
            f"{q1:>12} {q3:>12} {row.get('samples', row['n']):>8}"
        )


def strip(trial: Dict[str, Any]) -> Dict[str, Any]:
    """A trial result with each latency pool reduced to its percentiles."""
    out = {k: v for k, v in trial.items() if k != "latencies"}
    out["latencies_ms"] = {
        pool: {
            "n": len(samples),
            **{f"p{int(q * 100)}": percentile(samples, q) * 1000.0 for q in (0.5, 0.9, 0.99)},
            "max": max(samples) * 1000.0,
        }
        for pool, samples in trial["latencies"].items()
        if samples
    }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="sizes / 20, one trial")
    args = parser.parse_args(argv)

    started = perf_counter()
    deadline = started + RUN_DEADLINE_SECONDS
    scale = SMOKE_SCALE if args.smoke else args.seconds / REF_SECONDS
    spec = WORKLOADS[args.workload].scaled(scale, trials=1 if args.smoke else None)
    supervised = getattr(spec, "supervised", False)
    workers = WORKERS if getattr(spec, "multiproc", False) else 0
    host = hostinfo.fingerprint(workers)
    run_dir = new_run_dir()
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    print(f"ledger: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={args.smoke}")
    print(f"host: {json.dumps(host)}")
    print(f"spec: {spec}")

    trials: List[Dict[str, Any]] = []
    discarded: List[Dict[str, Any]] = []

    def trial(trace: bool, fault: bool = False) -> Dict[str, Any]:
        result = run_healthy_trial(spec, args.seed, deadline, run_dir, trace, discarded, fault)
        trials.append(result)
        return result

    if args.trace:
        untraced, traced = trial(trace=False), trial(trace=True)
        fault = trial(trace=True, fault=True) if supervised else None
        rows = per_layer(untraced, traced, fault, discarded)
        reported = benchmark["per_layer"]
        title = "per-layer metrics (traced trial; driver.* rows from the untraced trial)"
    else:
        for index in range(spec.trials):
            # On a slow spell of the host fewer trials keep the run in time.
            if index >= MIN_TRIALS and perf_counter() - started > args.seconds * OVERRUN:
                print(f"host too slow for {spec.trials} trials: stopping after {index}")
                break
            trial(trace=False)
        rows = end_to_end(trials)
        extra = diagnostics(trials, discarded)
        reported = benchmark["end_to_end"]
        title = "end-to-end metrics (median and quartiles across trials; latencies per trial)"

    print_table(title, rows, units)
    if not args.trace:
        print_table("diagnostics (not gated)", extra, units)

    problems = [f"trial {i}: {p}" for i, t in enumerate(trials) for p in t["problems"]]
    attempted = sum(t["attempted"] for t in trials)
    failed = failed_ops(trials)
    correct = not problems and failed == 0
    for problem in problems:
        print(f"GATE FAILED: {problem}")

    metrics = {}
    for metric in reported:
        # A layer the workload does not run reads 0 (see README).
        value = rows.get(metric["name"], {}).get("median", 0.0)
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    final = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "args": vars(args),
        "host": host,
        "spec": repr(spec),
        "wall_seconds": perf_counter() - started,
        "rows": rows if args.trace else {**rows, **extra},
        "problems": problems,
        "trials": [strip(t) for t in trials],
        "discarded_trials": [strip(t) for t in discarded],
        "final": final,
    }
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(f"\nreport: {os.path.relpath(run_dir, ROOT)}/report.json "
          f"({perf_counter() - started:.1f} s, gate {'passed' if correct else 'FAILED'})")
    print(json.dumps(final))
    return 0 if correct else 1


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # Every path out — a result, a failed gate, an exception, SIGTERM —
    # first stops and reaps every process this run started.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        hostinfo.stop_children()
    sys.exit(code)
