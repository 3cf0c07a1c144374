"""Tests for the CORFU-style sequencer baseline (repro.baseline)."""

import pytest

from repro.baseline import CorfuLog, Sequencer, SequencerRequest
from repro.core import ConfigurationError
from repro.runtime import LocalRuntime

from conftest import rec


class TestSequencer:
    def make(self):
        rt = LocalRuntime()
        seq = Sequencer("seq")
        rt.register(seq)
        from conftest import SinkActor

        sink = SinkActor("sink")
        rt.register(sink)
        rt.start()
        return rt, seq, sink

    def test_ranges_are_dense_and_disjoint(self):
        rt, seq, sink = self.make()
        for i in range(3):
            sink.send("seq", SequencerRequest(i, count=5))
        rt.run()
        ranges = [(m.start, m.count) for m in sink.messages]
        assert ranges == [(0, 5), (5, 5), (10, 5)]

    def test_zero_count_rejected(self):
        rt, seq, sink = self.make()
        sink.send("seq", SequencerRequest(1, count=0))
        with pytest.raises(ConfigurationError):
            rt.run()

    def test_grants_counter(self):
        rt, seq, sink = self.make()
        sink.send("seq", SequencerRequest(1, count=2))
        rt.run()
        assert seq.grants_issued == 1
        sink.send("seq", SequencerRequest(2, count=1))
        rt.run()
        assert sink.messages[-1].start == 2  # the next grant starts past it


class TestCorfuLog:
    def test_append_round_trip(self):
        rt = LocalRuntime()
        log = CorfuLog(rt, n_units=3, batch_size=5)
        client = log.client()
        rt.start()
        done = []
        client.append_records([rec("c", i + 1) for i in range(7)], on_done=done.append)
        rt.run_for(0.05)
        assert len(done) == 1
        assert [r.lid for r in done[0]] == list(range(7))
        assert log.total_records() == 7

    def test_striping_across_units(self):
        rt = LocalRuntime()
        log = CorfuLog(rt, n_units=2, batch_size=2)
        client = log.client()
        rt.start()
        client.append_records([rec("c", i + 1) for i in range(8)])
        rt.run_for(0.05)
        counts = [unit.core.stored_count() for unit in log.units]
        assert counts == [4, 4]

    def test_concurrent_clients_never_collide(self):
        rt = LocalRuntime()
        log = CorfuLog(rt, n_units=2, batch_size=3)
        c1, c2 = log.client(), log.client()
        rt.start()
        c1.append_records([rec("x", i + 1) for i in range(5)])
        c2.append_records([rec("y", i + 1) for i in range(5)])
        rt.run_for(0.05)
        lids = [e.lid for e in log.all_entries()]
        assert lids == list(range(10))

    def test_head_of_log_advances_via_gossip(self):
        rt = LocalRuntime()
        log = CorfuLog(rt, n_units=2, batch_size=2)
        client = log.client()
        rt.start()
        client.append_records([rec("c", i + 1) for i in range(6)])
        rt.run_for(0.1)
        assert log.head_of_log() == 5

    def test_sequencer_is_on_every_append_path(self):
        rt = LocalRuntime()
        log = CorfuLog(rt, n_units=4, batch_size=5)
        clients = [log.client() for _ in range(4)]
        rt.start()
        for i, client in enumerate(clients):
            client.append_records([rec(f"c{i}", 1)])
        rt.run_for(0.05)
        # Every append crossed the single sequencer: the bottleneck by design.
        assert log.sequencer.grants_issued == 4
