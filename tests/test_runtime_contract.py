"""The ``repro.runtime.Runtime`` contract, on every substrate: local, sim,
aio (TCP) and multiproc inline and with two worker processes, all driven
synchronously through the same calls — and all taking the same fault input,
one seeded ``FaultPlan`` as ``chaos``."""

import gc
import math

import pytest

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.chariots.messages import ReplicationShipment
from repro.core import PipelineConfig, ReadRules
from repro.core.errors import ConfigurationError, RuntimeExhaustedError
from repro.flstore import FLStore
from repro.net.aio_runtime import AioRuntime
from repro.net.binary_codec import decode_message_binary
from repro.runtime import Actor, LocalRuntime, Supervisor
from repro.runtime import local as runtime_local
from repro.runtime.local import GC_POLICY
from repro.runtime.multiproc import MultiprocRuntime, default_placement
from repro.runtime.multiproc.wire import _parse_envelope
from repro.sim import SimRuntime

from conftest import run_abstract

DCS = ["A", "B"]

#: Fixed workload: (datacenter, payload) appends — identical on every run.
WORKLOAD = [(DCS[i % 2], f"p{i}") for i in range(30)]


def by_datacenter(name, workers):
    """Each datacenter's data plane on a worker of its own, so every
    cross-datacenter message crosses processes: a direct link between the
    workers, or the parent router under a fault plan with rules or
    partitions."""
    home = default_placement(name, workers)
    prefix = name.split("/", 1)[0]
    if home is None or prefix not in DCS:
        return home
    return DCS.index(prefix) % workers


SUBSTRATES = {
    "local": LocalRuntime,
    "sim": SimRuntime,
    "aio": AioRuntime,
    "multiproc-0": lambda chaos=None: MultiprocRuntime(workers=0, chaos=chaos),
    "multiproc-2": lambda chaos=None: MultiprocRuntime(
        workers=2, placement=by_datacenter, chaos=chaos
    ),
}


@pytest.fixture(params=list(SUBSTRATES))
def substrate(request):
    return request.param


@pytest.fixture
def make():
    """Builds runtimes by substrate name; stops every one at teardown."""
    made = []

    def build(substrate, chaos=None):
        made.append(SUBSTRATES[substrate](chaos=chaos))
        return made[-1]

    yield build
    for runtime in made:
        runtime.stop()


@pytest.fixture
def rt(make, substrate):
    return make(substrate)


class Recorder(Actor):
    """Counts its starts, keeps its messages, and runs one one-shot timer
    and one periodic timer it cancels after three ticks."""

    def __init__(self, name):
        super().__init__(name)
        self.starts, self.seen, self.once, self.ticks = 0, [], 0, 0

    def on_start(self):
        self.starts += 1
        self.set_timer(0.01, self._once)
        self.periodic = self.set_timer(0.01, self._tick, periodic=True)

    def _once(self):
        self.once += 1

    def _tick(self):
        self.ticks += 1
        if self.ticks == 3:
            self.periodic.cancel()

    def on_message(self, sender, message):
        self.seen.append((sender, message))


class Echo(Actor):
    """Keeps what it receives and sends each message back."""

    def __init__(self, name):
        super().__init__(name)
        self.seen = []

    def on_message(self, sender, message):
        self.seen.append(message)
        self.send(sender, message)


class Caller(Actor):
    """Keeps ``(arrival time, message)`` of every answer."""

    def __init__(self, name):
        super().__init__(name)
        self.answers = []

    def on_message(self, sender, message):
        self.answers.append((self.now, message))


def seen_count(actor):
    """Module-level, so a worker process can run it."""
    return len(actor.seen)


def seen_by(actor):
    return list(actor.seen)


def test_registry(rt):
    early = rt.register(Recorder("early"))
    with pytest.raises(ConfigurationError, match="already registered"):
        rt.register(Recorder("early"))
    rt.start()
    rt.start()
    late = rt.register(Recorder("late"))  # registered after start: starts at once
    assert (early.starts, late.starts) == (1, 1)
    assert rt.actor("late") is late
    assert rt.has_actor("early") and not rt.has_actor("ghost")
    assert {actor.name for actor in rt.actors()} == {"early", "late"}


def test_unknown_destination_raises(rt):
    actor = rt.register(Recorder("a"))
    rt.start()
    with pytest.raises(ConfigurationError, match="unknown actor"):
        actor.send("ghost", "hello")


def test_one_shot_and_periodic_timers(rt):
    ticker = rt.register(Recorder("ticker"))
    rt.run_until(lambda: ticker.ticks == 3, timeout=5)
    rt.run_for(0.05)  # a cancelled periodic timer stays cancelled
    assert (ticker.once, ticker.ticks) == (1, 3)
    with pytest.raises(RuntimeExhaustedError):
        rt.run_until(lambda: False, timeout=0.2)


def test_settle_true_and_false(rt):
    a, b = rt.register_all([Recorder("a"), Recorder("b")])
    rt.start()
    a.send("b", "hello")
    assert rt.settle(lambda: b.seen == [("a", "hello")], max_seconds=5)
    assert rt.settle(lambda: False, max_seconds=0.3) is False


def test_peek_runs_where_the_actor_lives(rt):
    rt.register(Recorder("store/probe"))  # on a worker under multiproc placement
    sender = rt.register(Recorder("sender"))
    rt.start()
    sender.send("store/probe", "x")
    rt.run_until(lambda: rt.peek("store/probe", seen_count) == 1, timeout=10)


def test_stop_is_idempotent(rt):
    rt.register(Recorder("a"))
    rt.start()
    rt.stop()
    rt.stop()


@pytest.mark.parametrize("substrate", ["local", "sim", "aio", "multiproc-2"])
def test_a_stopped_runtime_refuses_to_run(make, substrate):
    rt = make(substrate)
    recorder = rt.register(Recorder("a"))
    rt.start()
    rt.stop()
    name = type(rt).__name__
    with pytest.raises(ConfigurationError, match=f"^{name} stopped$"):
        rt.run_for(0.01)
    with pytest.raises(ConfigurationError, match=f"^{name} stopped$"):
        rt.run_until(lambda: False, timeout=0.01)
    assert seen_count(recorder) == 0


#: CPython's own collector thresholds, which differ from ``GC_POLICY``.
CPYTHON_THRESHOLDS = (700, 10, 10)


def collector_thresholds(_actor):
    """The collector thresholds of the process the actor lives in."""
    return gc.get_threshold()


@pytest.fixture
def no_policy_held(monkeypatch):
    """No runtime holds the collector policy and the thresholds are CPython's
    own; the hold count and the thresholds come back at teardown.  Ask for
    it before ``make``, so the runtimes stop while the count is this test's."""
    saved = gc.get_threshold()
    monkeypatch.setattr(runtime_local, "_gc_holds", 0)
    gc.set_threshold(*CPYTHON_THRESHOLDS)
    yield CPYTHON_THRESHOLDS
    gc.set_threshold(*saved)


@pytest.mark.parametrize("substrate", ["local", "sim", "aio", "multiproc-2"])
def test_a_started_runtime_holds_the_collector_policy(no_policy_held, make, substrate):
    rt = make(substrate)
    rt.register(Recorder("store/probe"))  # on a worker under multiproc placement
    assert gc.get_threshold() == no_policy_held
    rt.start()
    assert gc.get_threshold() == GC_POLICY
    assert rt.peek("store/probe", collector_thresholds) == GC_POLICY
    rt.stop()
    assert gc.get_threshold() == no_policy_held
    rt.stop()
    assert gc.get_threshold() == no_policy_held


@pytest.mark.parametrize("substrate", ["local", "sim", "aio", "multiproc-2"])
def test_overlapping_runtimes_restore_the_thresholds_after_the_last_stop(
    no_policy_held, make, substrate
):
    first, second = make(substrate), make("local")
    first.start()
    second.start()
    first.stop()
    first.stop()  # a second stop gives back nothing more
    assert gc.get_threshold() == GC_POLICY
    second.stop()
    assert gc.get_threshold() == no_policy_held


def test_blocking_append_and_read(rt):
    client = ChariotsDeployment(rt, ["A"], batch_size=4).blocking_client("A")
    result = client.append("hello")
    assert client.read_lid(result.lid).entries[0].record.body == "hello"


def postings_stored(indexer):
    return indexer.core.postings_stored


@pytest.mark.parametrize("substrate", ["local", "sim", "aio", "multiproc-2"])
def test_a_tag_read_costs_one_request_per_owning_maintainer(make, substrate):
    """A limit-10 tag read whose hits live on all three maintainers costs
    the lookup and one read per maintainer, not one read per LId; a point
    read of an unfilled LId still answers with no entries and the reason."""
    rt = make(substrate)
    store = FLStore(rt, n_maintainers=3, n_indexers=1, batch_size=4)
    client = store.blocking_client()
    for i in range(30):  # round-robin appends: ten records on each maintainer
        client.append(f"v{i}", tags={"k": "v"})
    assert rt.settle(lambda: rt.peek("indexer/0", postings_stored) == 30, max_seconds=30)
    issued = client.client._request_id
    entries = client.read(ReadRules(tag_key="k", tag_value="v", limit=10))
    assert client.client._request_id - issued <= 1 + 3
    lids = [33, 32, 29, 28, 25, 24, 23, 22, 21, 20]
    assert [entry.lid for entry in entries] == lids
    assert {store.plan.owner(lid) for lid in lids} == {"store/0", "store/1", "store/2"}
    assert entries == [client.read_lid(lid).entries[0] for lid in lids]
    unfilled = client.read_lid(34)
    assert unfilled.entries == [] and unfilled.error


def converge_on_workload(rt, phases=1, **deployment_args):
    """Append :data:`WORKLOAD` on a two-datacenter deployment in ``phases``
    equal parts, settling after each, and return the verdict of
    ``check_logs`` against the abstract solution."""
    deployment = ChariotsDeployment(rt, DCS, batch_size=8, **deployment_args)
    clients = {dc: deployment.client(dc) for dc in DCS}
    acks = []
    part = len(WORKLOAD) // phases
    for start in range(0, len(WORKLOAD), part):
        for dc, payload in WORKLOAD[start : start + part]:
            clients[dc].append(payload, on_done=acks.append)
        rt.run_until(lambda: len(acks) == min(start + part, len(WORKLOAD)), timeout=60)
        assert deployment.settle(max_seconds=60)
    return check_logs(deployment.logs(), reference=run_abstract(DCS, WORKLOAD), acks=acks)


def test_two_datacenters_converge_to_the_abstract_solution(rt):
    verdict = converge_on_workload(rt)
    assert verdict.ok, verdict


# --------------------------------------------------------------------------- #
# One fault plan on every runtime
# --------------------------------------------------------------------------- #


def test_drop_delay_and_a_partition_window_act_on_an_exchange(make, substrate):
    """A drop rule loses m1, a partition window opened and closed at
    ``runtime.now`` loses m3, and a delay rule holds every answer back."""
    plan = (
        FaultPlan(seed=3)
        .drop(dst="B/", max_count=1)
        .delay(dst="A/", delay=0.2)
        .partition("A/", "B/", start=math.inf)
    )
    rt = make(substrate, chaos=plan)
    caller = rt.register(Caller("A/caller"))
    rt.register(Echo("B/store/echo"))  # on a worker under multiproc placement
    rt.start()
    window = plan.partitions[0]
    sent = {}

    def call(message):
        sent[message] = rt.now
        caller.send("B/store/echo", message)

    call("m1")
    call("m2")
    window.start = rt.now
    call("m3")
    window.end = rt.now
    call("m4")
    rt.run_until(lambda: len(caller.answers) == 2, timeout=10)
    rt.run_for(0.3)  # long enough for anything else to land
    assert rt.peek("B/store/echo", seen_by) == ["m2", "m4"]
    assert sorted(message for _at, message in caller.answers) == ["m2", "m4"]
    for at, message in caller.answers:
        assert at - sent[message] >= 0.1  # the delay rule's minimum
    assert (plan.stats["dropped"], plan.stats["partitioned"], plan.stats["delayed"]) == (1, 1, 2)


#: Faster retransmission than production: a dropped shipment goes again
#: after 0.1 s, which keeps the wall-clock substrates quick.
FAST_RETRANSMIT = PipelineConfig(retransmit_base=0.1, retransmit_max=0.8)


class ReceiverWatch(FaultPlan):
    """A fault plan that keeps each message sent to ``B/receiver``, split
    into those it let through and those it lost."""

    def __init__(self, seed):
        super().__init__(seed)
        self.passed = []
        self.lost = []

    def intercept(self, src, dst, message, now):
        delays = super().intercept(src, dst, message, now)
        if dst.startswith("B/receiver"):
            if isinstance(message, bytes):  # multiproc routes a worker's frame whole
                message = decode_message_binary(bytes(_parse_envelope(memoryview(message)[4:])[4]))
            (self.passed if delays is not None else self.lost).append(message)
        return delays


def test_workload_converges_under_drops_duplicates_and_reorders(make, substrate):
    plan = (
        ReceiverWatch(seed=5)
        .drop(dst="B/receiver", max_count=1)
        .duplicate(dst="B/receiver", delay=0.02, max_count=2)
        .reorder(dst="B/receiver", delay=0.02)
    )
    rt = make(substrate, chaos=plan)
    # Two phases, so that the drop and both duplicates find data shipments.
    verdict = converge_on_workload(rt, phases=2, pipeline_config=FAST_RETRANSMIT)
    assert verdict.ok, verdict
    assert plan.stats["dropped"] == 1
    assert plan.stats["duplicated"] == 2
    assert plan.stats["reordered"] > 0
    # The drop hit a data shipment, and so did both duplicates: every
    # message for B's receivers is one, and at least three were sent.
    [lost] = plan.lost
    assert isinstance(lost, ReplicationShipment) and lost.records
    assert len(plan.passed) >= 2
    assert all(isinstance(m, ReplicationShipment) and m.records for m in plan.passed)


@pytest.mark.parametrize("substrate", ["local", "sim", "aio"])
def test_crash_parks_mail_until_a_supervisor_restart_delivers_it(make, substrate):
    rt = make(substrate, chaos=FaultPlan().crash("b", at=0.0))
    a, b = rt.register_all([Recorder("a"), Recorder("b")])
    rt.run_until(lambda: "b" in rt.crashed_actors(), timeout=5)
    a.send("b", "hello")
    rt.run_until(lambda: rt.messages_parked == 1, timeout=5)
    replacement = Recorder("b")
    supervisor = Supervisor()
    supervisor.supervise("b", lambda: replacement)
    rt.register(supervisor)
    rt.run_until(lambda: replacement.seen == [("a", "hello")], timeout=5)
    assert b.seen == []
    assert supervisor.restarts["b"] == 1 and not "b" in rt.crashed_actors()
    assert rt.loss_accounting == {}


@pytest.mark.parametrize("substrate", ["local", "sim", "aio"])
def test_mail_parked_for_an_actor_nobody_revives_is_a_loss(make, substrate):
    rt = make(substrate, chaos=FaultPlan().crash("b", at=0.0))
    a, _b = rt.register_all([Recorder("a"), Recorder("b")])
    rt.run_until(lambda: "b" in rt.crashed_actors(), timeout=5)
    assert rt.loss_accounting == {}
    a.send("b", "hello")
    a.send("b", "again")
    rt.run_until(lambda: rt.messages_parked == 2, timeout=5)
    rt.run_for(0.1)
    assert rt.loss_accounting == {"parked_messages": 2}


def refused_plans(substrate):
    """The faults ``substrate`` cannot apply: worker kills without worker
    processes; single-actor crashes and message-type rules on multiproc,
    which kills whole workers and routes their frames undecoded."""
    kill = FaultPlan().kill(0, at=1.0)
    if not substrate.startswith("multiproc"):
        return [kill]
    refused = [FaultPlan().crash("a", at=1.0), FaultPlan().drop(message_type="str")]
    return refused + [kill] if substrate == "multiproc-0" else refused


def test_faults_a_runtime_cannot_apply_are_refused_at_start(make, substrate):
    for plan in refused_plans(substrate):
        rt = make(substrate, chaos=plan)
        rt.register(Recorder("a"))
        with pytest.raises(ConfigurationError):
            rt.start()
