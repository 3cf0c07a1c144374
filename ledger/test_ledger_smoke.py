"""Self-test of the perf ledger: ``python -m pytest ledger/ -q``.

Unit tests for the percentile helper, the open-loop schedule and the
seeded generators, plus a smoke run of every workload (sizes / 20, one
trial) that exercises generator, watchdog, correctness gate and trace.
Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import pytest

from ledger import run as ledger_run  # also puts src/ on sys.path
from ledger.hostinfo import EDGE_UNITS, HostClock
from ledger.stats import OpenLoopSchedule, percentile, quartiles, spread
from ledger.workloads import BODY_BYTES, WORKLOADS, FlstoreScript, GeoOps

ROOT = ledger_run.ROOT


# -- percentile helper ------------------------------------------------------ #


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.9) == 5.0
    assert percentile(values, 0.2) == 1.0
    assert percentile(values, 0.21) == 2.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile(list(range(1, 101)), 0.9) == 90


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_quartiles_follow_the_contract_rule():
    values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


# -- open-loop schedule ----------------------------------------------------- #


def test_open_loop_stamps_due_times_not_send_times():
    schedule = OpenLoopSchedule(start=100.0, rate=10.0, count=5)
    assert list(schedule.take(99.9)) == []
    assert list(schedule.take(100.0)) == [0]
    # The generator stalls for 0.35 s: ops 1..3 are handed out together,
    # each still due on its own slot, and the stall is recorded.
    assert list(schedule.take(100.35)) == [1, 2, 3]
    assert [schedule.due(i) for i in (1, 2, 3)] == pytest.approx([100.1, 100.2, 100.3])
    assert schedule.late_max == pytest.approx(0.25)
    assert schedule.seconds_to_next(100.35) == pytest.approx(0.05)
    assert not schedule.done
    assert list(schedule.take(200.0)) == [4]  # never beyond count
    assert schedule.done and list(schedule.take(300.0)) == []
    assert schedule.seconds_to_next(300.0) == 0.0


# -- host clock ---------------------------------------------------------------- #


def test_host_clock_stands_still_while_it_calibrates():
    clock = HostClock(interval=0.0, pause=True)
    window = clock.mark()
    before_wall, before = perf_counter(), clock.now()
    for _ in range(50):
        clock.tick()
    wall, own = perf_counter() - before_wall, clock.now() - before
    assert len(clock.samples) == EDGE_UNITS + 50
    assert own < wall / 5  # nearly all of the wall time was calibration
    assert clock.slowdown(window) > 0
    assert len(clock.samples) == 2 * EDGE_UNITS + 50  # both edges of the window


def test_host_clock_ticks_at_most_once_per_interval_and_can_be_off():
    clock = HostClock(interval=3600.0, pause=False)
    clock.tick()
    clock.tick()
    assert len(clock.samples) == 1
    before = clock.now()
    assert abs(before - perf_counter()) < 0.01  # not pausing: plain perf_counter
    off = HostClock(interval=None, pause=True)
    window = off.mark()
    off.tick()
    assert off.slowdown(window) == 1.0 and not off.samples


# -- seeded generators ------------------------------------------------------ #


def test_geo_ops_are_a_function_of_seed_and_index():
    a, b, other = GeoOps(7), GeoOps(7), GeoOps(8)
    sample = list(range(0, 30_000, 7))
    assert [a.op(i) for i in sample] == [b.op(i) for i in sample]
    assert [a.body(i) for i in sample] == [b.body(i) for i in sample]
    assert [a.op(i) for i in sample] != [other.op(i) for i in sample]
    assert all(len(a.body(i)) == BODY_BYTES for i in sample)
    assert len({a.body(i) for i in sample}) == len(sample)  # every record distinct
    ops = [a.op(i) for i in range(20_000)]
    tagged = sum(tag is not None for tag, _ in ops) / len(ops)
    deps = sum(dep for _, dep in ops) / len(ops)
    assert 0.17 < tagged < 0.23 and 0.035 < deps < 0.065


def test_flstore_scripts_are_deterministic_and_mixed():
    a, b = FlstoreScript(3, 0), FlstoreScript(3, 0)
    assert [a.kind(i) for i in range(500)] == [b.kind(i) for i in range(500)]
    assert [a.fraction(i) for i in range(500)] == [b.fraction(i) for i in range(500)]
    assert a.body(17) == b.body(17) != FlstoreScript(3, 1).body(17)
    kinds = [a.kind(i) for i in range(5000)]
    assert 0.46 < kinds.count("append") / 5000 < 0.54
    assert 0.12 < kinds.count("read_tag") / 5000 < 0.18


# -- watchdog ----------------------------------------------------------------- #


def test_a_wedged_trial_is_torn_down_and_counted(tmp_path):
    from ledger.geo import GeoTrial

    spec = WORKLOADS["geo-local"].scaled(0.05, trials=1)
    trial = GeoTrial(spec, seed=1, deadline=perf_counter() - 1.0, work_dir=str(tmp_path))
    result = trial.run()
    assert result["wedged"] and any("wedged" in p for p in result["problems"])
    assert result["attempted"] > 0 and "throughput_rps" not in result


def test_wedged_trials_are_replaced_at_most_twice_per_run(monkeypatch):
    outcomes = iter([True, False, True, True])
    monkeypatch.setattr(
        ledger_run, "run_trial",
        lambda *args: {"wedged": next(outcomes), "problems": ["wedged: test"]},
    )
    discarded = []
    first = ledger_run.run_healthy_trial(None, 1, 0.0, "", False, discarded)
    assert not first["wedged"] and len(discarded) == 1
    second = ledger_run.run_healthy_trial(None, 1, 0.0, "", False, discarded)
    assert second["wedged"] and len(discarded) == ledger_run.MAX_REPLACED_TRIALS


# -- smoke: every workload, untraced and traced ---------------------------- #


def processes_carrying(marker: str):
    """Command lines of live processes whose environment holds ``marker``:
    whatever a run started inherits the run's environment."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if marker.encode() not in handle.read():
                    continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                found.append(handle.read().replace(b"\0", b" ").decode(errors="replace"))
        except OSError:
            continue  # ended while we were looking, or not ours to read
    return found


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_meets_the_output_contract(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    marker = f"ledger-smoke-{os.getpid()}-{workload}-{trace}"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "ledger", "run.py"), "--workload", workload,
         "--seed", "5", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "LEDGER_SMOKE_MARKER": marker},
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    # Nothing the run started may outlive it, not even multiprocessing's
    # resource tracker.
    assert processes_carrying(marker) == []
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    expected = benchmark["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in final["metrics"].values())
        return
    values = {name: m["value"] for name, m in final["metrics"].items()}
    assert values["driver.wedged_trials"] <= ledger_run.MAX_REPLACED_TRIALS
    local = workload == "geo-local"
    # Layers a workload does not run read zero; the ones it runs do not.
    assert (values["chariots.queues.busy_us_per_record"] > 0) == local
    assert (values["runtime.multiproc.frames_per_record"] > 0) == workload.startswith("geo-mp")
    assert (values["net.server.append_handle_us"] > 0) == (workload == "flstore-tcp-mixed")
    assert (values["runtime.supervisor.recovery_s"] > 0) == (workload == "geo-mp-supervised")
    if local:
        assert abs(values["driver.unattributed_frac"]) < 0.05
