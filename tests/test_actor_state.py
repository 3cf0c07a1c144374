"""Actor state that a worker process pickles stays plain and small.

``MultiprocRuntime`` pickles actors when it ships them to their worker and
in every supervised snapshot.  Python 3.14 removes pickling of ``itertools``
objects (3.12 and 3.13 warn), so no actor may hold one; the sender's
jitter source pickles as its seed and draw count, not as the Mersenne
Twister state; and a sender holds no records, so its snapshot does not grow
with the log.
"""

import itertools
import pickle

from repro.baseline import CorfuLog
from repro.baseline.corfu import CorfuLoadClient
from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment
from repro.chariots.batcher import Batcher
from repro.chariots.filters import FilterMap
from repro.chariots.messages import AdmittedBatch, DraftBatch, DraftRecord, FrontierUpdate
from repro.chariots.queues import QueueStage
from repro.chariots.receiver import Receiver
from repro.chariots.sender import Sender
from repro.core import PipelineConfig, RetryPolicy
from repro.flstore import FLStore, OwnershipPlan
from repro.flstore.maintainer import LogMaintainer
from repro.runtime import LocalRuntime
from repro.sim import LoadClient

from conftest import SinkActor, rec

_ITERTOOLS_TYPES = tuple(
    value for value in vars(itertools).values() if isinstance(value, type)
)


def itertools_attributes(actor):
    """Names of the attributes holding an ``itertools`` object, looking
    one level into dict values and list items."""
    found = []
    for name, value in vars(actor).items():
        if isinstance(value, dict):
            inner = list(value.values())
        elif isinstance(value, list):
            inner = value
        else:
            inner = []
        if any(isinstance(v, _ITERTOOLS_TYPES) for v in [value, *inner]):
            found.append(name)
    return found


def assert_itertools_free(runtime):
    actors = runtime.actors()
    assert actors
    offenders = {actor.name: itertools_attributes(actor) for actor in actors}
    assert {name: attrs for name, attrs in offenders.items() if attrs} == {}


def test_chariots_actors_hold_no_itertools_objects():
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
    client = deployment.blocking_client("A")
    runtime.start()
    client.append("x")
    assert deployment.settle()
    assert_itertools_free(runtime)


def test_flstore_actors_hold_no_itertools_objects():
    runtime = LocalRuntime()
    store = FLStore(runtime, n_maintainers=2, batch_size=4)
    client = store.blocking_client()
    runtime.start()
    client.append("x")
    assert_itertools_free(runtime)


def test_load_generators_hold_no_itertools_objects():
    runtime = LocalRuntime()
    corfu = CorfuLog(runtime, n_units=2, batch_size=4)
    corfu.client()
    runtime.register(
        CorfuLoadClient("corfu/load", corfu.sequencer.name, corfu.plan, rec("A", 1), 100.0)
    )
    runtime.register(LoadClient("load", ["corfu/store/0"], lambda *_: None, 100.0))
    runtime.start()
    assert_itertools_free(runtime)


def make_sender():
    return Sender(
        "A/send", "A", maintainers=["A/store"], peer_receivers={"B": ["B/recv"]},
        config=PipelineConfig(),
    )


def test_a_fresh_sender_pickles_small():
    assert len(pickle.dumps(make_sender(), protocol=pickle.HIGHEST_PROTOCOL)) <= 2048


def test_an_unpickled_sender_continues_the_jitter_sequence():
    policy = RetryPolicy(jitter=0.3)
    sender = make_sender()
    for attempt in range(5):
        policy.delay(attempt, sender._rng)
    copy = pickle.loads(pickle.dumps(sender))
    assert [policy.delay(1, copy._rng) for _ in range(20)] == [
        policy.delay(1, sender._rng) for _ in range(20)
    ]


def detached_size(actor):
    """Bytes of ``actor`` pickled without its runtime, as a worker's
    snapshot pickles it."""
    runtime, actor.runtime = actor.runtime, None
    try:
        return len(pickle.dumps(actor, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        actor.runtime = runtime


def test_a_sender_snapshot_does_not_grow_with_the_log():
    # No ack ever arrives, so the peer's breaker opens with every record
    # unacknowledged: a sender holding the log tail would pickle it all.
    runtime = LocalRuntime(chaos=FaultPlan().drop(message_type="ShipmentAck"))
    store = LogMaintainer("A/store", OwnershipPlan(["A/store"], batch_size=10), peers=["A/store"])
    sender = Sender(
        "A/send", "A", maintainers=["A/store"], peer_receivers={"B": ["B/recv"]},
        config=PipelineConfig(
            replication_interval=0.01, retransmit_base=0.02, retransmit_max=0.04,
            breaker_failure_threshold=2, breaker_reset_timeout=0.2,
        ),
    )
    receiver = Receiver("B/recv", "B", batchers=["B/batcher"])
    runtime.register_all([store, SinkActor("B/batcher"), receiver, sender])
    runtime.start()
    sizes = []
    appended = 0
    for count in (100, 5000):
        store.core.append([rec("A", t) for t in range(appended + 1, appended + count + 1)])
        appended += count
        runtime.run_for(0.5)
        sizes.append(detached_size(sender))
    assert sizes[1] <= sizes[0] + 64
    assert sender.breaker("B").opens >= 1
    assert receiver.records_received >= 5100  # every record was shipped


def test_a_restored_batcher_sends_on_the_drafts_its_snapshot_held():
    # A snapshot taken mid-turn carries the buffered drafts and the armed
    # flag, but not the timer that would have flushed them: the restored
    # batcher's start must hand them on by itself.
    batcher = Batcher("batcher", FilterMap(["filter"]), PipelineConfig(batcher_flush_threshold=64))
    LocalRuntime().register(batcher)
    drafts = [DraftRecord("c", seq, b"d%d" % seq) for seq in (1, 2, 3)]
    batcher.on_message("client", DraftBatch(drafts))
    assert batcher._armed and batcher._pending_records == 3
    batcher.runtime = None  # detached, as a worker's snapshot pickles it
    restored = pickle.loads(pickle.dumps(batcher))
    runtime = LocalRuntime()
    sink = runtime.register(SinkActor("filter"))
    runtime.register(restored)
    runtime.run_for(0.01)
    assert [d for m in sink.messages for d in m.drafts] == drafts
    assert restored._pending_records == 0 and not restored._armed


def test_a_restored_queue_reports_the_frontier_its_snapshot_held():
    # A snapshot taken between a round and its report carries the frontier
    # and the armed report flag, not the timer: the queue's start must set
    # the report again by itself.
    plan = OwnershipPlan(["store"], batch_size=10)
    queue = QueueStage("queue", "A", plan, gc="gc", holds_initial_token=True)
    runtime = LocalRuntime()
    runtime.register_all([SinkActor("store"), SinkActor("client"), queue])
    queue.on_message("filter", AdmittedBatch(drafts=[DraftRecord("client", 1, b"d")]))
    assert queue._report_armed and queue.frontier == {"A": 1}
    queue.runtime = None  # detached, as a worker's snapshot pickles it
    restored = pickle.loads(pickle.dumps(queue))
    runtime = LocalRuntime()
    gc = runtime.register(SinkActor("gc"))
    runtime.register(restored)
    runtime.run_for(PipelineConfig().replication_interval)
    assert [m.vector for m in gc.messages if type(m) is FrontierUpdate] == [{"A": 1}]
    assert not restored._report_armed
