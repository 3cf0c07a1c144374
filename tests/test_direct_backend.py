"""The direct (abstract-solution) backend drives every application
unchanged — the paper's point that the semantics live in the log, not in
the deployment machinery."""

import pytest

from repro.apps import (
    EventPublisher,
    Hyksos,
    LogAuditor,
    MessageFuturesManager,
    ReplicatedCounter,
    ReplicatedDict,
    StreamJoiner,
    StreamReader,
)
from repro.chariots import check_logs
from repro.chariots.direct import DirectDeployment


@pytest.fixture
def direct():
    return DirectDeployment(["A", "B"], auto_replicate=False)


class TestDirectClient:
    def test_append_and_read(self, direct):
        client = direct.client("A")
        result = client.append("hello", tags={"k": 1})
        assert result.lid == 0
        assert client.read_lid(0).entries[0].record.body == "hello"

    def test_head(self, direct):
        client = direct.client("A")
        assert client.head() == -1
        client.append("x")
        assert client.head() == 0

    def test_read_lid_error_shim(self, direct):
        reply = direct.client("A").read_lid(42)
        assert reply.entries == []
        assert reply.error is not None

    def test_replicate_pump(self, direct):
        direct.client("A").append("from-A")
        assert direct.client("B").head() == -1
        direct.replicate()
        assert direct.client("B").head() == 0
        assert check_logs(direct.logs()).ok

    def test_auto_replicate_mode(self):
        deployment = DirectDeployment(["A", "B"], auto_replicate=True)
        deployment.client("A").append("x")
        assert deployment.client("B").head() == 0


class TestAppsOnDirectBackend:
    def test_hyksos(self, direct):
        kv_a = Hyksos(direct.client("A"))
        kv_b = Hyksos(direct.client("B"))
        kv_a.put("x", 10)
        kv_b.put("x", 30)
        direct.replicate()
        assert kv_a.get_convergent("x") == kv_b.get_convergent("x")
        values, _ = kv_a.get_transaction(["x"])
        assert values["x"] in (10, 30)

    def test_streams_and_join(self, direct):
        EventPublisher(direct.client("A")).publish("l", {"k": 1})
        EventPublisher(direct.client("B")).publish("r", {"k": 1})
        direct.replicate()
        reader = StreamReader(direct.client("A"), "l")
        assert len(reader.poll()) == 1
        joiner = StreamJoiner(direct.client("B"), "l", "r", key_fn=lambda p: p["k"])
        assert len(joiner.step()) == 1

    def test_replicated_objects(self, direct):
        counter_a = ReplicatedCounter(direct.client("A"))
        counter_b = ReplicatedCounter(direct.client("B"))
        counter_a.increment(2)
        counter_b.increment(3)
        direct.replicate()
        counter_a.sync()
        counter_b.sync()
        assert counter_a.value == counter_b.value == 5

    def test_replicated_dict_convergence_under_staged_delivery(self, direct):
        d_a = ReplicatedDict(direct.client("A"))
        d_b = ReplicatedDict(direct.client("B"))
        d_a.set("k", "from-A")
        d_b.set("k", "from-B")  # concurrent
        direct.replicate()
        d_a.sync()
        d_b.sync()
        assert d_a.get("k") == d_b.get("k")

    def test_message_futures_conflict(self, direct):
        ma = MessageFuturesManager("A", direct.client("A"), ["A", "B"])
        mb = MessageFuturesManager("B", direct.client("B"), ["A", "B"])
        ta = ma.begin(); ta.write("k", 1)
        tb = mb.begin(); tb.write("k", 2)
        pa, pb = ta.commit(), tb.commit()
        for _ in range(6):
            direct.replicate()
            ma.pump()
            mb.pump()
            if pa.decided and pb.decided:
                break
        assert pa.decided and pb.decided
        assert [pa.committed, pb.committed].count(True) == 1
        assert ma.committed_state() == mb.committed_state()

    def test_auditor(self, direct):
        client = direct.client("A")
        kv = Hyksos(client)
        kv.put("x", 1)
        kv.put("x", 2)
        auditor = LogAuditor(client)
        assert [v.value for v in auditor.history("x")] == [1, 2]
        assert auditor.state_at(0) == {"x": 1}
