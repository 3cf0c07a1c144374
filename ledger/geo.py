"""Driver of the three ``geo-*`` workloads.

One :class:`GeoTrial` = one fresh two-datacenter, six-stage
``ChariotsDeployment`` (default ``DeploymentSpec``: one actor per stage),
built through the public API on ``LocalRuntime`` or ``MultiprocRuntime``,
driven from this single process, checked against the paper's contract by
the correctness gate, and torn down.  Nothing here is timed from inside the
system: the trial stamps its own sends and acks, reads public counters, and
asks :mod:`ledger.probes` for summaries computed next to the data.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.plan import FaultPlan
from repro.chaos.procchaos import ProcChaos
from repro.chariots import ChariotsDeployment
from repro.core.errors import ChariotsError
from repro.runtime.local import LocalRuntime
from repro.runtime.multiproc import MultiprocRuntime
from repro.runtime.supervisor import ProcessSupervisor

from ledger import calibrate, hostinfo, probes
from ledger.hostinfo import HostClock
from ledger.stats import OpenLoopSchedule, percentile
from ledger.trace import LocalTracer
from ledger.workloads import (
    CALIBRATION_INTERVAL,
    LOCAL_CHUNK,
    MAX_MP_TRIAL_RECORDS,
    SAT_WINDOW,
    WARMUP_RECORDS,
    WARMUP_WINDOW,
    GeoOps,
    GeoSpec,
)

DCS = ("A", "B")
WORKERS = 2
STAGE_WORKER, STORE_WORKER = 0, 1
_STAGE_KINDS = ("batcher", "filter", "queue", "sender", "receiver")
_STORE_KINDS = ("store", "indexer")

#: No single wait may outlast this (seconds); a trial that hits it is wedged.
#: Long enough to sit out a TCP zero-window stall on a worker connection:
#: the kernel's window probes back off 0.2, 0.4, … 12.8 s (25 s in all), and
#: stalls of up to 11 s were seen while sizing (README "Hazards").
WAIT_BUDGET = 45.0
#: During set-up a stalled deployment is cheaper to replace than to sit out.
SETUP_WAIT_BUDGET = 12.0
#: Replication-lag sampling rate in the ``lag`` phase.
LAG_SAMPLE_HZ = 20.0
#: Fault segment: seconds after runtime construction at which the stage
#: worker is SIGKILLed, and how long the open loop keeps sending.
KILL_AT = 2.0
FAULT_SECONDS = 4.0


def placement(name: str, workers: int) -> Optional[int]:
    """Both datacenters' stages → worker 0, both stores + indexers →
    worker 1, control plane (clients, controllers, GC, supervisor) in the
    parent: every record crosses the parent router at least three times per
    datacenter (draft in, placement across, replication read back)."""
    if workers <= 0:
        return None
    parts = name.split("/")
    kind = parts[1] if len(parts) > 1 and parts[0] in DCS else ""
    if kind in _STAGE_KINDS:
        return STAGE_WORKER
    if kind in _STORE_KINDS:
        return STORE_WORKER % workers
    return None


class Wedged(Exception):
    """A wait passed its deadline: the trial is torn down and counted."""


class GeoTrial:
    """One trial of a ``geo-*`` workload on a fresh deployment."""

    def __init__(
        self,
        spec: GeoSpec,
        seed: int,
        deadline: float,
        work_dir: str,
        trace: bool = False,
        kill_at: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.deadline = deadline
        self.work_dir = work_dir
        self.trace = trace
        self.kill_at = kill_at
        self.ops = GeoOps(seed)
        self.tracer = LocalTracer() if trace and not spec.multiproc else None
        #: Every stamp behind a reported time is taken on this clock.
        self.clock = HostClock(
            CALIBRATION_INTERVAL if spec.host_normalised else None, pause=not spec.multiproc
        )
        self.rt: Any = None
        self.dep: Any = None
        self.supervisor: Optional[ProcessSupervisor] = None
        self.journal_dir: Optional[str] = None
        self.clients: List[Any] = []
        # Per-op bookkeeping, indexed by global op number.
        self.due: List[float] = []
        self.ack_at: List[float] = []
        self.ack_lid: List[int] = []
        self.sent = 0
        self.acked = 0
        self.bad_acks = 0
        #: Newest TOId of the *other* datacenter each datacenter is known to
        #: have incorporated (what a client there could have read).
        self.known = [0] * len(DCS)
        # Open-loop bookkeeping: how late the generator ran, replication-lag
        # samples and the deferred-queue peak seen by the lag probe.
        self.late_max = 0.0
        self.lags: List[float] = []
        self.deferred_peak = 0
        # Driver-side time split (single-process reconciliation).
        self.t_send = 0.0
        self.t_run = 0.0
        self.result: Dict[str, Any] = {
            "wedged": False,
            "problems": [],
            "latencies": {},
            "layers": {},
        }

    # ------------------------------------------------------------------ #
    # Set-up / tear-down
    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        window = self.clock.mark()
        start = self.clock.now()
        spec = self.spec
        if spec.multiproc:
            chaos = None
            if self.kill_at is not None:
                plan = FaultPlan(self.seed).kill(STAGE_WORKER, at=self.kill_at)
                chaos = ProcChaos.from_plan(plan)
            self.rt = MultiprocRuntime(workers=WORKERS, placement=placement, chaos=chaos)
        else:
            self.rt = LocalRuntime()
        self.dep = ChariotsDeployment(self.rt, DCS, batch_size=1000)
        if spec.supervised:
            self.journal_dir = os.path.join(self.work_dir, "journals")
            os.makedirs(self.journal_dir, exist_ok=True)
            self.supervisor = ProcessSupervisor()
            self.dep.supervise(self.supervisor, journal_dir=self.journal_dir)
        if self.tracer is not None:
            for actor in self.rt.actors():
                self.tracer.wrap(actor)
        self.rt.start()
        self.clients = [self.dep.client(dc) for dc in DCS]
        if self.tracer is not None:
            for client in self.clients:
                self.tracer.wrap(client)
                self.tracer.wrap_client_append(client)
        self.stores = [self.dep[dc].maintainers[0].name for dc in DCS]
        if any(len(self.dep[dc].maintainers) != 1 for dc in DCS):
            raise ChariotsError("the ledger's gate assumes one maintainer per datacenter")
        self._closed(WARMUP_RECORDS, WARMUP_WINDOW)
        self.result["setup_s"] = (self.clock.now() - start) / self.clock.slowdown(window)

    def _teardown(self) -> None:
        stop = getattr(self.rt, "stop", None)
        if stop is not None:
            stop()
        if self.dep is not None:
            for dc in DCS:
                for journal in (self.dep[dc].journals or {}).values():
                    journal.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Sending, acks, waiting
    # ------------------------------------------------------------------ #

    def _refresh_known(self) -> None:
        """What each datacenter has incorporated of the other (read from its
        GC coordinator's own Awareness Table row, in this process).  An
        explicit dependency may only name a record the client could have
        read locally: depending on one that has not arrived breaks causal
        order at the host datacenter."""
        for k, dc in enumerate(DCS):
            self.known[k] = self.dep[dc].frontier().get(DCS[1 - k], 0)

    def _send(self, due: float) -> None:
        i = self.sent
        k = i % len(DCS)
        tag, wants_dep = self.ops.op(i)
        deps = None
        if wants_dep and self.known[k]:
            deps = {DCS[1 - k]: self.known[k]}
        self.due.append(due)
        self.ack_at.append(0.0)
        self.ack_lid.append(-1)
        self.sent = i + 1
        self.clients[k].append(
            self.ops.body(i),
            tags=None if tag is None else {"k": tag},
            deps=deps,
            on_done=self._on_ack,
        )

    def _on_ack(self, result: Any) -> None:
        # One client per datacenter and strict alternation: TOId t of host k
        # is op len(DCS)*(t-1)+k (the gate re-checks this against bodies).
        rid = result.rid
        i = len(DCS) * (rid.toid - 1) + DCS.index(rid.host)
        if i >= self.sent or self.ack_at[i]:
            self.bad_acks += 1
            return
        self.ack_at[i] = self.clock.now()
        self.ack_lid[i] = result.lid
        self.acked += 1

    def _pump_local(self) -> None:
        start = perf_counter()
        self.rt.run_for(0.001)  # virtual seconds
        self.t_run += perf_counter() - start
        self.clock.tick()

    def _wait(self, predicate: Callable[[], bool], what: str) -> None:
        budget = WAIT_BUDGET if "setup_s" in self.result else SETUP_WAIT_BUDGET
        deadline = min(self.deadline, perf_counter() + budget)
        if self.spec.multiproc:
            def ticking() -> bool:  # run_until checks between pump slices
                self.clock.tick()
                return predicate()

            try:
                self.rt.run_until(ticking, timeout=max(0.0, deadline - perf_counter()))
            except ChariotsError as exc:
                raise Wedged(f"{what}: {exc}") from exc
        else:
            while not predicate():
                if perf_counter() > deadline:
                    raise Wedged(what)
                self._pump_local()

    def _stored_everywhere(self) -> bool:
        return all(
            probes.peek(self.rt, store, probes.stored_count) >= self.sent
            for store in self.stores
        )

    def _drain(self) -> float:
        """Every op sent so far acked and stored in every datacenter;
        returns the time that first held."""
        self._wait(lambda: self.acked >= self.sent, "acks")
        self._wait(self._stored_everywhere, "replication")
        return self.clock.now()

    # ------------------------------------------------------------------ #
    # Load shapes
    # ------------------------------------------------------------------ #

    def _closed(self, count: int, window: int = SAT_WINDOW) -> Tuple[float, float]:
        """Closed loop over ``count`` records; (first send, stored everywhere).

        Single-process: ``LOCAL_CHUNK`` appends, then one virtual
        millisecond of the event loop.  Multiproc: at most ``window``
        un-acked appends in flight, gated on acks.
        """
        first = self.clock.now()
        target = self.sent + count
        if self.spec.multiproc:
            while self.acked < target:
                self._refresh_known()
                while self.sent < target and self.sent - self.acked < window:
                    self._send(self.clock.now())
                seen = self.acked
                self._wait(lambda: self.acked > seen, "closed-loop ack")
        else:
            tracer = self.tracer
            while self.sent < target:
                start = perf_counter()
                span = tracer.begin_chunk() if tracer is not None else 0
                self._refresh_known()
                for _ in range(min(LOCAL_CHUNK, target - self.sent)):
                    self._send(self.clock.now())
                end = perf_counter()
                if tracer is not None:
                    tracer.end_chunk(span, start, end)
                self.t_send += end - start
                self._pump_local()
        return first, self._drain()

    def _open(self, seconds: float, sample_lag: bool = False) -> Tuple[int, int]:
        """Open loop at ``spec.rate`` for ``seconds``; every op is stamped
        with its *due* time.  Returns (first op, end op); generator lateness
        and, with ``sample_lag``, replication-lag samples accumulate on the
        trial."""
        first_op = self.sent
        schedule = OpenLoopSchedule(
            perf_counter() + 0.002, self.spec.rate, int(self.spec.rate * seconds)
        )
        next_sample = schedule.start
        direction = 0
        while not schedule.done:
            now = perf_counter()
            if now > self.deadline:
                raise Wedged("open loop ran past the run deadline")
            due_ops = schedule.take(now)
            if due_ops:
                self._refresh_known()
                for op in due_ops:
                    self._send(schedule.due(op))
            if sample_lag and now >= next_sample:
                next_sample += 1.0 / LAG_SAMPLE_HZ
                self._sample_lag(direction)
                direction ^= 1
            self.clock.tick()
            self.rt.run_for(
                max(0.0002, min(0.002, schedule.seconds_to_next(perf_counter())))
            )
        self.late_max = max(self.late_max, schedule.late_max)
        self._wait(lambda: self.acked >= self.sent, "open-loop acks")
        return first_op, self.sent

    def _sample_lag(self, remote: int) -> None:
        """Sample time − due time of the newest record of the other
        datacenter that ``DCS[remote]`` already stores.  The probe's round
        trip is inside the sample (see ``peek_rtt_p50_ms``)."""
        toid = probes.peek(self.rt, self.stores[remote], probes.newest_remote_toid)
        now = perf_counter()
        op = len(DCS) * (toid - 1) + (1 - remote)
        if toid and op < self.sent:
            self.lags.append(now - self.due[op])
        if self.trace:
            queue = self.dep[DCS[remote]].queues[0].name
            counters = probes.peek(self.rt, queue, probes.stage_counters)
            self.deferred_peak = max(self.deferred_peak, counters.get("deferred_count", 0))

    def _ack_latencies(self, first_op: int, end_op: int) -> List[float]:
        return [
            self.ack_at[i] - self.due[i]
            for i in range(first_op, end_op)
            if self.ack_at[i]
        ]

    # ------------------------------------------------------------------ #
    # The correctness gate (outside every timed window)
    # ------------------------------------------------------------------ #

    def _gate(self, fault_injected: bool = False) -> None:
        problems: List[str] = self.result["problems"]
        sent = self.sent
        if self.acked != sent or self.bad_acks:
            problems.append(f"acked {self.acked}/{sent}, {self.bad_acks} unexpected acks")
        per_host = {dc: (sent - k + len(DCS) - 1) // len(DCS) for k, dc in enumerate(DCS)}
        for k, dc in enumerate(DCS):
            # A 1 % sample of this datacenter's own acks: (host, toid, lid).
            sample = [
                (dc, i // len(DCS) + 1, self.ack_lid[i])
                for i in range(k, sent, len(DCS))
                if self.ack_at[i] and (i // len(DCS)) % 100 == self.seed % 100
            ]
            summary = probes.peek(
                self.rt,
                self.stores[k],
                partial(probes.store_summary, seed=self.seed, hosts=DCS, ack_sample=sample),
            )
            checks = {
                f"stores {summary['count']} records, sent {sent}": summary["count"] == sent,
                "LIds not unique": summary["lids_unique"],
                "LIds not gap-free from 0": summary["gap_free"] and summary["first_lid"] == 0,
                "causal order violated": summary["causal_ok"],
                f"per-host counts {summary['per_host']} != {per_host}": summary["per_host"] == per_host,
                "TOIds not dense per host": all(summary["toids_dense"].values()),
                f"{summary['foreign_records']} records of unknown hosts": not summary["foreign_records"],
                f"{summary['bad_bodies']} records carry the wrong body": not summary["bad_bodies"],
                f"{summary['ack_mismatches']}/{summary['acks_checked']} sampled acks not at their LId": not summary["ack_mismatches"],
            }
            problems.extend(f"{dc}: {text}" for text, ok in checks.items() if not ok)
        counters = self._stage_counters()
        duplicates = sum(c.get("duplicates_dropped", 0) for c in counters["filters"])
        loss = dict(getattr(self.rt, "loss_accounting", {}))
        # On real processes a sender whose ReadNewReply takes longer than its
        # replication interval fetches the same range twice and ships it
        # twice; the filters drop the copies, so the log stays exactly-once
        # (checked above) and the waste shows in ``ship_ratio``.  Only the
        # single-process runtime, where delivery is instant, must drop none.
        if duplicates and not self.spec.multiproc:
            problems.append(f"{duplicates} duplicates dropped without a fault")
        if loss and not fault_injected:
            problems.append(f"loss accounted without a fault: {loss}")
        self._report_useful_work(counters, duplicates, loss)

    def _report_useful_work(
        self, counters: Dict[str, List[Dict[str, int]]], duplicates: int, loss: Dict[str, int]
    ) -> None:
        """Useful-work ratios and shipment sizes from the stages' counters."""
        layers = self.result["layers"]
        layers["chariots.filters.duplicates_dropped"] = duplicates
        layers["runtime.multiproc.loss_frames"] = sum(
            v for name, v in loss.items() if name.endswith("frames")
        )
        shipped = sum(c.get("records_shipped", 0) for c in counters["senders"])
        layers["chariots.sender.ship_ratio"] = shipped / (self.sent * (len(DCS) - 1))
        received = sum(c.get("records_received", 0) for c in counters["receivers"])
        shipments = sum(c.get("shipments_received", 0) for c in counters["receivers"])
        layers["chariots.receiver.records_per_shipment"] = (
            received / shipments if shipments else 0.0
        )
        layers["flstore.indexer.postings_stored"] = sum(
            c.get("postings_stored", 0) for c in counters["indexers"]
        )

    def _stage_counters(self) -> Dict[str, List[Dict[str, int]]]:
        out: Dict[str, List[Dict[str, int]]] = {}
        for stage in ("filters", "senders", "receivers", "indexers"):
            out[stage] = [
                probes.peek(self.rt, actor.name, probes.stage_counters)
                for dc in DCS
                for actor in getattr(self.dep[dc], stage)
            ]
        return out

    # ------------------------------------------------------------------ #
    # Trials
    # ------------------------------------------------------------------ #

    def run(self) -> Dict[str, Any]:
        """Set up, run the workload's phases, gate, tear down."""
        return self._guarded(self._phases)

    def run_fault(self) -> Dict[str, Any]:
        """The fault segment: open loop while the stage worker is SIGKILLed."""
        return self._guarded(self._fault_segment)

    def _guarded(self, body: Callable[[], None]) -> Dict[str, Any]:
        result = self.result
        try:
            self._setup()
            body()
        except Wedged as exc:
            result["wedged"] = True
            result["problems"].append(f"wedged: {exc}")
        except ChariotsError as exc:  # worker death, control timeout, …
            result["wedged"] = True
            result["problems"].append(f"runtime failure: {exc}")
        finally:
            self._teardown()
        result["attempted"] = self.sent
        result["failed"] = self.sent - self.acked
        result["generator_late_max_ms"] = self.late_max * 1000.0
        return result

    def _phases(self) -> None:
        spec = self.spec
        result = self.result
        latencies = result["latencies"]
        layers = result["layers"]
        clock = self.clock
        if spec.multiproc:
            window = clock.mark()
            ops = self._open(spec.rate_seconds)
            slowdown = clock.slowdown(window)
            latencies["ack"] = [s / slowdown for s in self._ack_latencies(*ops)]
            self._drain()
            self._open(spec.lag_seconds, sample_lag=True)
            latencies["repl_lag"] = self.lags
            layers["chariots.queues.deferred_peak"] = self.deferred_peak
            self._drain()
        closed_first_op = self.sent
        count = spec.closed_records
        if spec.multiproc:
            count = min(count, MAX_MP_TRIAL_RECORDS - self.sent)
        before = self._snapshot() if self.trace else None
        window = clock.mark()
        first, stored = self._closed(count)
        slowdown = clock.slowdown(window)
        if before is not None:
            self._account(before, count, stored - first)
        result["throughput_rps"] = count / (stored - first) * slowdown
        result["host_slowdown"] = slowdown
        result["closed_records"] = count
        result["closed_seconds"] = stored - first
        if not spec.multiproc:
            latencies["ack"] = [
                s / slowdown for s in self._ack_latencies(closed_first_op, self.sent)
            ]
        self._gate()
        if self.trace and spec.multiproc:
            self._probe_costs()

    # -- per-layer accounting (traced run only) ------------------------- #

    def _snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {"t_send": self.t_send, "t_run": self.t_run}
        if self.spec.multiproc:
            snap["routed"] = (self.rt.messages_routed, self.rt.bytes_routed)
            snap["parent_cpu"] = time.process_time()
            snap["worker_cpu"] = self._worker_cpu()
        else:
            assert self.tracer is not None
            snap["busy"] = dict(self.tracer.log.busy)
            snap["append"] = self.tracer.append_seconds
            snap["sent_by_type"] = dict(self.tracer.sent)
            snap["messages"] = self.rt.messages_sent
            snap["batched"] = self._records_batched()
        return snap

    def _worker_cpu(self) -> Dict[int, float]:
        cpu = {}
        for child in multiprocessing.active_children():
            if child.name.startswith("repro-mp-worker-") and child.pid is not None:
                cpu[int(child.name.rsplit("-", 1)[1])] = hostinfo.process_cpu_seconds(child.pid)
        return cpu

    def _records_batched(self) -> int:
        return sum(b.records_batched for dc in DCS for b in self.dep[dc].batchers)

    def _account(self, before: Dict[str, Any], records: int, wall: float) -> None:
        layers = self.result["layers"]
        per_record = 1e6 / records
        if self.spec.multiproc:
            frames = self.rt.messages_routed - before["routed"][0]
            layers["runtime.multiproc.frames_per_record"] = frames / records
            layers["runtime.multiproc.bytes_per_record"] = (
                self.rt.bytes_routed - before["routed"][1]
            ) / records
            parent = time.process_time() - before["parent_cpu"]
            after = self._worker_cpu()
            stage = after.get(STAGE_WORKER, 0.0) - before["worker_cpu"].get(STAGE_WORKER, 0.0)
            store = after.get(STORE_WORKER, 0.0) - before["worker_cpu"].get(STORE_WORKER, 0.0)
            layers["runtime.multiproc.parent_cpu_us_per_record"] = parent * per_record
            layers["runtime.multiproc.stage_worker_cpu_us_per_record"] = stage * per_record
            layers["runtime.multiproc.store_worker_cpu_us_per_record"] = store * per_record
            total = parent + stage + store
            layers["runtime.multiproc.parent_cpu_share"] = parent / total if total else 0.0
            self.result["cpu_us_per_record"] = total * per_record
            return
        assert self.tracer is not None
        busy = {
            layer: seconds - before["busy"].get(layer, 0.0)
            for layer, seconds in self.tracer.log.busy.items()
            if layer != "driver"
        }
        postings = max(1, sum(ix.core.postings_stored for dc in DCS for ix in self.dep[dc].indexers))
        for layer, seconds in busy.items():
            if layer in ("chariots.gc", "flstore.controller"):
                layers[f"{layer}.busy_s"] = seconds
            elif layer == "flstore.indexer":
                layers["flstore.indexer.busy_us_per_posting"] = seconds * 1e6 / postings
            else:
                layers[f"{layer}.busy_us_per_record"] = seconds * per_record
        t_send = self.t_send - before["t_send"]
        t_run = self.t_run - before["t_run"]
        append_busy = self.tracer.append_seconds - before["append"]
        handlers = sum(busy.values()) - append_busy
        layers["runtime.local.msgs_per_record"] = (
            self.rt.messages_sent - before["messages"]
        ) / records
        layers["runtime.local.overhead_us_per_record"] = (t_run - handlers) * per_record
        layers["driver.generator_us_per_record"] = (t_send - append_busy) * per_record
        layers["driver.unattributed_frac"] = (wall - t_send - t_run) / wall
        flushes = self.tracer.sent["FilterBatch"] - before["sent_by_type"].get("FilterBatch", 0)
        # Receivers forward shipments to batchers as FilterBatch too.
        flushes -= sum(r.shipments_received for dc in DCS for r in self.dep[dc].receivers)
        batched = self._records_batched() - before["batched"]
        layers["chariots.batcher.records_per_flush"] = batched / flushes if flushes > 0 else 0.0
        layers["flstore.maintainer.gossip_msgs"] = self.tracer.sent["GossipHL"]

    def _probe_costs(self) -> None:
        """Measurement floors and calibrations of the multiproc path."""
        layers = self.result["layers"]
        rtts = []
        for _ in range(30):
            start = perf_counter()
            probes.peek(self.rt, self.stores[0], probes.noop)
            rtts.append((perf_counter() - start) * 1000.0)
        layers["runtime.multiproc.peek_rtt_p50_ms"] = percentile(rtts, 0.5)
        records = calibrate.geo_records(self.ops)
        layers["runtime.multiproc.envelope_us_per_frame"] = calibrate.envelope_us(self.rt, records)
        layers.update(calibrate.geo_codec_path(records))
        layers.update(calibrate.batch_codec(records))
        codec_us = (
            layers["net.binary_codec.encode_us_per_record"]
            + layers["net.binary_codec.decode_us_per_record"]
        )
        layers["net.binary_codec.cpu_share_est"] = codec_us / self.result["cpu_us_per_record"]
        if self.journal_dir is not None:
            layers.update(calibrate.journal(records, self.journal_dir))

    # -- fault segment ----------------------------------------------------- #

    def _fault_segment(self) -> None:
        assert self.supervisor is not None and self.kill_at is not None
        result = self.result
        layers = result["layers"]
        first_op, end_op = self._open(FAULT_SECONDS)
        self._wait(lambda: bool(self.supervisor.recoveries), "worker recovery")
        self._drain()
        acks = sorted(self.ack_at[i] for i in range(first_op, end_op) if self.ack_at[i])
        gaps = [b - a for a, b in zip(acks, acks[1:])]
        layers["driver.service_gap_ms"] = max(gaps) * 1000.0 if gaps else 0.0
        recoveries = self.supervisor.recoveries
        layers["runtime.supervisor.recovery_s"] = max(r["seconds"] for r in recoveries)
        layers["runtime.supervisor.frames_replayed"] = sum(r["replayed"] for r in recoveries)
        result["latencies"]["fault_ack"] = self._ack_latencies(first_op, end_op)
        self._gate(fault_injected=True)
