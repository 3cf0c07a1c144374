"""Count, don't time: exact, host-independent costs of the append path.

On ``LocalRuntime`` the work a run does is a pure function of its inputs,
so a count can gate in tier-1 where a wall-clock time cannot:

* the messages a two-datacenter run delivers, by type — records travel as
  runs, which changes payloads, never how many messages carry them — and
  how the queues' frontier reports scale with queues and datacenters;
* the objects the cyclic collector tracks for a stored log — a
  maintainer's segments keep the log out of its sight;
* the virtual time a lone append waits for its ack — none, since no stage
  holds a record for a clock — and the timers an idle deployment fires.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.chariots import ChariotsDeployment
from repro.core import DeploymentSpec
from repro.core.record import RecordRun
from repro.flstore import MaintainerCore, OwnershipPlan
from repro.runtime import LocalRuntime


class CountingRuntime(LocalRuntime):
    """Counts every delivery by message type, at the one delivery point."""

    def __init__(self) -> None:
        super().__init__()
        self.delivered: Counter = Counter()

    def _on_deliver(self, src, dst, message):
        self.delivered[type(message).__name__] += 1
        super()._on_deliver(src, dst, message)


#: Deliveries of the run below, by message type.
MESSAGE_COUNTS = {
    "FilterBatch": 220,
    "AdmittedBatch": 210,
    "PlaceRecords": 210,
    "FrontierUpdate": 10,
    "DraftBatch": 200,
    "DraftCommitBatch": 200,
    "IndexUpdate": 40,
    "AtableSnapshot": 10,
    "ReadNewRequest": 10,
    "ReadNewReply": 10,
    "ReplicationShipment": 10,
    "ShipmentAck": 10,
    "SessionRequest": 2,
    "SessionInfo": 2,
}


def test_a_two_datacenter_run_delivers_the_pinned_messages():
    # 20 000 appends in bursts of 200, alternating A and B, every fifth
    # tagged; each burst gets a millisecond, then the run goes on until
    # every append is acked and stored in both datacenters.
    runtime = CountingRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=1000)
    clients = {dc: deployment.client(dc) for dc in ("A", "B")}
    total, burst = 20_000, 200
    acked = []
    for start in range(0, total, burst):
        for i in range(start, start + burst):
            client = clients["AB"[i % 2]]
            client.append(b"x" * 64, tags={"k": i % 7} if i % 5 == 0 else None,
                          on_done=acked.append)
        runtime.run_for(0.001)
    runtime.run_until(
        lambda: len(acked) == total
        and all(deployment[dc].total_records() == total for dc in ("A", "B")),
        timeout=60,
    )
    assert dict(runtime.delivered) == MESSAGE_COUNTS
    assert sum(runtime.delivered.values()) == 1144


@pytest.mark.parametrize(
    "datacenters, queues, rounds, reports, messages",
    [
        ("AB", 2, 42, 6, 500),  # a token ring of two queues per datacenter
        ("ABCDEFGH", 1, 864, 40, 6224),  # 0.389 messages per record
    ],
)
def test_each_queue_reports_its_frontier_at_most_once_per_tick(
    datacenters, queues, rounds, reports, messages
):
    # 2 000 appends per datacenter in bursts of 200, alternating the
    # datacenters, each burst given a millisecond, then settle.  Every
    # sequencing round moves a queue's frontier, but the queue reports it
    # at most once per replication_interval.
    runtime = CountingRuntime()
    deployment = ChariotsDeployment(runtime, list(datacenters), spec=DeploymentSpec(queues=queues))
    clients = [deployment.client(dc) for dc in datacenters]
    burst = 200
    for start in range(0, 2_000 * len(clients), burst):
        for i in range(start, start + burst):
            clients[i % len(clients)].append(b"x" * 64)
        runtime.run_for(0.001)
    assert deployment.settle()
    assert runtime.delivered["AdmittedBatch"] == rounds
    assert runtime.delivered["FrontierUpdate"] == reports
    assert sum(runtime.delivered.values()) == messages


def test_a_lone_append_is_acked_without_the_clock_moving():
    # Every stage hands a record on when its turn ends, so on the virtual
    # clock the whole append path (client, batcher, filter, queue,
    # maintainer, ack) takes no time at all.
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"])
    client = deployment.client("A")
    runtime.start()
    before = runtime.now
    acked = []
    client.append(b"lone", on_done=acked.append)
    runtime.run_until(lambda: bool(acked), timeout=1)
    assert acked[0].lid == 0
    assert runtime.now == before
    # The queue reports the frontier to the GC coordinator a
    # replication_interval later, yet frontier() reads the queues too, so
    # the append counts at once.
    assert deployment["A"].frontier() == {"A": 1, "B": 0}
    assert deployment["A"].gc.atable.self_row() == {"A": 0, "B": 0}


def test_an_idle_two_datacenter_deployment_fires_only_its_tick_timers():
    # A virtual second with nothing appended: 402 maintainer gossip ticks,
    # 100 GC gossips and 100 sender ticks fire, and their 300 messages are
    # delivered.  No batcher keeps a timer while it holds nothing.
    runtime = CountingRuntime()
    ChariotsDeployment(runtime, ["A", "B"])
    runtime.run_for(1.0)
    events, delivered = runtime.loop._events_processed, sum(runtime.delivered.values())
    runtime.run_for(1.0)
    deliveries = sum(runtime.delivered.values()) - delivered
    assert deliveries == 300
    assert runtime.loop._events_processed - events - deliveries == 602


def test_a_stored_log_is_out_of_the_collectors_sight():
    # 100 000 ledger-shaped records (512-byte bodies, one shared deps
    # tuple, 20 % tagged) placed as runs of 64: the collector's census may
    # grow by at most one object per 100 records.
    deps = (("B", 41),)
    runs = []
    lid = toid = 0
    for _ in range(100_000 // 64 + 1):
        n = min(64, 100_000 - lid)
        if n <= 0:
            break
        runs.append((lid, RecordRun(
            "A", toid + 1, deps,
            [bytes([(toid + i) % 251]) * 512 for i in range(n)],
            [(("k", (toid + i) % 50),) if (toid + i) % 5 == 0 else () for i in range(n)],
        )))
        lid += n
        toid += n
    core = MaintainerCore("m0", OwnershipPlan(["m0"], batch_size=1000))
    gc.collect()
    before = len(gc.get_objects())
    for placement in runs:
        core.place_run([placement])
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert core.stored_count() == 100_000
    assert grown <= 100_000 / 100, grown
