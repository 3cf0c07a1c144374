"""Driver of the ``flstore-tcp-mixed`` workload.

One :class:`FlstoreTrial` = one fresh ``FLStoreNetDeployment`` (3
maintainers, 1 indexer, LId ranges of 100) on localhost TCP plus
``AsyncFLStoreClient``s on the binary codec, all in one event loop.  Each
client runs its seeded script closed-loop: the next op starts when the
previous one returned.  Reads sit beside writes, requests are framed
request/response, and no Chariots stage is involved — the layers shared
with the ``geo-*`` workloads (maintainer, indexer, codec) are used
differently here.
"""

from __future__ import annotations

import asyncio
import math
import time
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.core.config import FLStoreConfig
from repro.core.errors import ChariotsError
from repro.core.record import ReadRules, Record
from repro.net.deploy import FLStoreNetDeployment
from repro.net.protocol import CODEC_BINARY

from ledger import calibrate
from ledger.hostinfo import HostClock
from ledger.trace import ServerTracer
from ledger.workloads import (
    APPEND,
    APPEND_BATCH,
    CALIBRATION_INTERVAL,
    READ_LID,
    WARMUP_RECORDS,
    FlstoreScript,
    FlstoreSpec,
)

#: Seconds between head-of-log gossip rounds and index-pump rounds.  At the
#: default 5 ms the three maintainers open 1 200 connections a second whatever
#: the load, a third of this thread's time on the sizing host; work at a fixed
#: rate per *second* makes throughput fall faster than the host slows, which
#: no host-speed normalisation undoes (README "Host-speed normalisation").
GOSSIP_INTERVAL = 0.05

#: Errors an op may end in without crashing the trial: it counts as failed.
_OP_ERRORS = (ChariotsError, ConnectionError, OSError, asyncio.TimeoutError)
#: Request kinds the clients cause (the index pump and gossip are not ops).
_CLIENT_KINDS = ("append", "read_lid", "read_rules", "head", "lookup")


class FlstoreTrial:
    """One trial of ``flstore-tcp-mixed`` on a fresh deployment."""

    def __init__(self, spec: FlstoreSpec, seed: int, deadline: float, trace: bool = False) -> None:
        self.spec = spec
        self.seed = seed
        self.deadline = deadline
        self.tracer = ServerTracer() if trace else None
        #: Clients and servers share one thread, so the clock can stand
        #: still while it calibrates.
        self.clock = HostClock(CALIBRATION_INTERVAL, pause=True)
        self.scripts = [FlstoreScript(seed, c) for c in range(spec.clients)]
        #: Per client: every acked (toid, lid), warm-up included.
        self.acks: List[List[Tuple[int, int]]] = [[] for _ in self.scripts]
        self.next_toid = [1] * spec.clients
        self.attempted = 0
        self.failed = 0
        self.bad_reads = 0
        self.latencies: Dict[str, List[float]] = {
            "ack": [], "read_lid": [], "read_tag": [], "op": []
        }
        self.result: Dict[str, Any] = {
            "wedged": False,
            "problems": [],
            "latencies": self.latencies,
            "layers": {},
        }

    def run(self) -> Dict[str, Any]:
        try:
            asyncio.run(self._trial())
        except asyncio.TimeoutError:
            self.result["wedged"] = True
            self.result["problems"].append("wedged: trial passed its deadline")
        self.result["attempted"] = self.attempted
        self.result["failed"] = self.failed
        return self.result

    # ------------------------------------------------------------------ #

    async def _trial(self) -> None:
        window = self.clock.mark()
        start = self.clock.now()
        deployment = FLStoreNetDeployment(
            n_maintainers=3,
            n_indexers=1,
            batch_size=100,
            config=FLStoreConfig(gossip_interval=GOSSIP_INTERVAL),
        )
        clients: List[Any] = []
        try:
            await deployment.start()
            if self.tracer is not None:
                for server in deployment.maintainers + deployment.indexers:
                    self.tracer.wrap(server, "net.server")
            for c in range(self.spec.clients):
                clients.append(await deployment.client(f"c{c}", codec=CODEC_BINARY))
            await self._bounded(self._warm_up(clients))
            self.result["setup_s"] = (self.clock.now() - start) / self.clock.slowdown(window)
            if self.tracer is not None:
                self.tracer.seconds.clear()
                self.tracer.calls.clear()
            for pool in self.latencies.values():
                pool.clear()
            await self._bounded(self._measure(clients))
            await self._bounded(self._gate(deployment, clients[0]))
        finally:
            for client in clients:
                await client.close()
            await deployment.stop()

    async def _bounded(self, awaitable: Any) -> Any:
        """Every wait has a deadline: the run's own."""
        return await asyncio.wait_for(awaitable, max(0.1, self.deadline - perf_counter()))

    async def _warm_up(self, clients: List[Any]) -> None:
        calls = math.ceil(WARMUP_RECORDS / (len(clients) * APPEND_BATCH))
        for c, client in enumerate(clients):
            for _ in range(calls):
                await self._op(c, client, APPEND, 0)
            # Touch every connection (maintainers, indexer) before timing.
            for i in range(32):
                if self.scripts[c].kind(i) != APPEND:
                    await self._op(c, client, self.scripts[c].kind(i), i)

    async def _measure(self, clients: List[Any]) -> None:
        records_before = sum(len(a) for a in self.acks)
        cpu_before = time.process_time()
        clock = self.clock
        window = clock.mark()
        first = clock.now()
        await asyncio.gather(
            *(self._script(c, client) for c, client in enumerate(clients))
        )
        wall = clock.now() - first
        slowdown = clock.slowdown(window)
        cpu = time.process_time() - cpu_before
        ops = self.spec.clients * self.spec.ops_per_client
        appended = sum(len(a) for a in self.acks) - records_before
        result = self.result
        result["throughput_rps"] = appended / wall * slowdown
        result["ops_per_s"] = ops / wall * slowdown
        result["host_slowdown"] = slowdown
        result["closed_records"] = appended
        result["closed_seconds"] = wall
        if self.tracer is not None:
            self._account(ops, cpu)
        for pool in self.latencies.values():
            pool[:] = [s / slowdown for s in pool]

    async def _script(self, c: int, client: Any) -> None:
        script = self.scripts[c]
        for i in range(self.spec.ops_per_client):
            await self._op(c, client, script.kind(i), i)

    async def _op(self, c: int, client: Any, kind: str, i: int) -> None:
        """One script op; its timed part is the single client call the
        metric names (building records and checking replies are outside)."""
        script = self.scripts[c]
        self.attempted += 1
        now = self.clock.now
        self.clock.tick()
        begin = now()
        try:
            if kind == APPEND:
                toid = self.next_toid[c]
                self.next_toid[c] = toid + APPEND_BATCH
                records = [
                    Record.make(
                        f"client/c{c}", t, script.body(t), tags={"k": script.tag_value(t)}
                    )
                    for t in range(toid, toid + APPEND_BATCH)
                ]
                start = now()
                results = await client.append_records(records)
                self.latencies["ack"].append(now() - start)
                if [r.rid.toid for r in results] != list(range(toid, toid + APPEND_BATCH)):
                    self.bad_reads += 1
                self.acks[c].extend((r.rid.toid, r.lid) for r in results)
            elif kind == READ_LID:
                head = await client.head()
                if head >= 0:
                    lid = int(script.fraction(i) * (head + 1))
                    start = now()
                    entry = await client.read_lid(lid)
                    self.latencies["read_lid"].append(now() - start)
                    if entry.lid != lid:
                        self.bad_reads += 1
            else:
                value = script.tag_value(i)
                rules = ReadRules(tag_key="k", tag_value=value, limit=10, most_recent=True)
                start = now()
                entries = await client.read(rules)
                self.latencies["read_tag"].append(now() - start)
                lids = [e.lid for e in entries]
                if lids != sorted(lids, reverse=True) or any(
                    e.record.tag_dict().get("k") != value for e in entries
                ):
                    self.bad_reads += 1
        except _OP_ERRORS:
            self.failed += 1
        self.latencies["op"].append(now() - begin)

    # ------------------------------------------------------------------ #
    # Correctness gate (outside the timed window)
    # ------------------------------------------------------------------ #

    async def _gate(self, deployment: FLStoreNetDeployment, client: Any) -> None:
        problems: List[str] = self.result["problems"]
        total = sum(len(a) for a in self.acks)
        lids = [lid for acks in self.acks for _toid, lid in acks]
        if len(set(lids)) != len(lids):
            problems.append("acked LIds are not unique")
        stored = sum(server.core.stored_count() for server in deployment.maintainers)
        if stored != total:
            problems.append(f"maintainers store {stored} records, {total} were acked")
        if self.bad_reads:
            problems.append(f"{self.bad_reads} replies failed their inline check")
        if self.failed:
            problems.append(f"{self.failed} ops failed")
        # Head of log once gossip settles.  Post-assignment leaves each
        # maintainer's next range open, so HL is the *lowest* maintainer
        # frontier, not the highest acked LId.
        frontiers = [server.core.next_unassigned for server in deployment.maintainers]
        expected_head = min(f for f in frontiers if f is not None) - 1
        heads: List[int] = []
        for _ in range(200):
            heads = [await client.head() for _ in deployment.maintainers]
            if min(heads) >= expected_head:
                break
            await asyncio.sleep(0.005)
        if min(heads) < expected_head:
            problems.append(f"head of log {heads} never reached {expected_head}")
        # Sampled acks read back the same record; every LId below HL reads.
        mismatches = 0
        for c, acks in enumerate(self.acks):
            for toid, lid in acks[self.seed % 97 :: 97]:
                entry = await client.read_lid(lid)
                record = entry.record
                if (
                    record.host != f"client/c{c}"
                    or record.toid != toid
                    or record.body != self.scripts[c].body(toid)
                ):
                    mismatches += 1
        if mismatches:
            problems.append(f"{mismatches} sampled acks read back a different record")
        for lid in range(self.seed % 53, expected_head + 1, 53):
            try:
                await client.read_lid(lid)
            except ChariotsError as exc:
                problems.append(f"LId {lid} below the head of log is unreadable: {exc}")
                break
        indexer = deployment.indexers[0].core
        for _ in range(200):
            if indexer.postings_stored >= total:
                break
            await asyncio.sleep(0.005)
        if indexer.postings_stored != total:
            problems.append(f"indexer holds {indexer.postings_stored} postings for {total} records")
        self.result["layers"]["flstore.indexer.postings_stored"] = indexer.postings_stored

    # ------------------------------------------------------------------ #
    # Per-layer accounting (traced run only)
    # ------------------------------------------------------------------ #

    def _account(self, ops: int, cpu_seconds: float) -> None:
        tracer = self.tracer
        assert tracer is not None
        layers = self.result["layers"]
        layers["net.server.append_handle_us"] = tracer.mean_us("append")
        layers["net.server.read_handle_us"] = tracer.mean_us("read_lid", "read_rules", "head")
        layers["net.server.lookup_handle_us"] = tracer.mean_us("lookup")
        served = sum(tracer.seconds[kind] for kind in _CLIENT_KINDS)
        layers["net.client.overhead_us_per_op"] = (
            (sum(self.latencies["op"]) - served) / ops * 1e6
        )
        layers["flstore.maintainer.gossip_msgs"] = tracer.calls["gossip"]
        script = self.scripts[0]
        records = [
            Record.make("client/c0", t, script.body(t), tags={"k": script.tag_value(t)})
            for t in range(1, APPEND_BATCH + 1)
        ]
        frames = calibrate.frames(records)
        layers.update(frames)
        layers.update(calibrate.batch_codec(records))
        # Each append request is encoded by the client and decoded by the
        # server, both in this process.
        encode = frames["net.protocol.frame_encode_us"]
        decode = frames["net.protocol.frame_decode_us"]
        layers["net.binary_codec.encode_us_per_record"] = encode / APPEND_BATCH
        layers["net.binary_codec.decode_us_per_record"] = decode / APPEND_BATCH
        codec_seconds = len(self.latencies["ack"]) * (encode + decode) / 1e6
        layers["net.binary_codec.cpu_share_est"] = (
            codec_seconds / cpu_seconds if cpu_seconds else 0.0
        )
