"""The ``repro.runtime.Runtime`` contract, on every substrate: local, sim,
aio (TCP) and multiproc inline and with two worker processes, all driven
synchronously through the same calls."""

import pytest

from repro.chariots import ChariotsDeployment, check_logs
from repro.core.errors import ConfigurationError, RuntimeExhaustedError
from repro.net.aio_runtime import AioRuntime
from repro.runtime import Actor, LocalRuntime
from repro.runtime.multiproc import MultiprocRuntime
from repro.sim import SimRuntime

from conftest import run_abstract

DCS = ["A", "B"]

#: Fixed workload: (datacenter, payload) appends — identical on every run.
WORKLOAD = [(DCS[i % 2], f"p{i}") for i in range(30)]

SUBSTRATES = {
    "local": LocalRuntime,
    "sim": SimRuntime,
    "aio": AioRuntime,
    "multiproc-0": lambda: MultiprocRuntime(workers=0),
    "multiproc-2": lambda: MultiprocRuntime(workers=2),
}


@pytest.fixture(params=list(SUBSTRATES))
def rt(request):
    runtime = SUBSTRATES[request.param]()
    yield runtime
    runtime.stop()


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


def seen_count(actor):
    """Module-level, so a worker process can run it."""
    return len(actor.seen)


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


def test_blocking_append_and_read(rt):
    client = ChariotsDeployment(rt, ["A"], batch_size=4).blocking_client("A")
    result = client.append("hello")
    assert client.read_lid(result.lid).entries[0].record.body == "hello"


def test_two_datacenters_converge_to_the_abstract_solution(rt):
    deployment = ChariotsDeployment(rt, DCS, batch_size=8)
    clients = {dc: deployment.client(dc) for dc in DCS}
    acks = []
    for dc, payload in WORKLOAD:
        clients[dc].append(payload, on_done=acks.append)
    rt.run_until(lambda: len(acks) == len(WORKLOAD), timeout=60)
    assert deployment.settle(max_seconds=60)
    reference = run_abstract(DCS, WORKLOAD)
    verdict = check_logs(deployment.logs(), reference=reference, acks=acks)
    assert verdict.ok, verdict
