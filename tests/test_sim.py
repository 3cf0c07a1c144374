"""Tests for the discrete-event capacity simulator (repro.sim)."""

import pytest

from repro.core import MachineProfile, NetworkProfile
from repro.core.errors import ConfigurationError
from repro.runtime import Actor, RecordBatch
from repro.sim import LoadClient, MetricsRegistry, SimRuntime
from repro.sim.machine import Machine

from conftest import SinkActor


SIMPLE = MachineProfile(
    name="simple",
    per_record_cost=0.001,  # 1000 records/s
    nic_bandwidth_bytes=1e6,
    saturation_queue=5,
    overload_penalty=0.1,
    overload_cap=2.0,
)


class TestMachine:
    def test_cpu_serialises_jobs(self):
        machine = Machine("m", SIMPLE)
        first = machine.submit_cpu(0.0, 0.5)
        second = machine.submit_cpu(0.0, 0.5)
        assert first == pytest.approx(0.5)
        assert second == pytest.approx(1.0)

    def test_cpu_idle_gap_respected(self):
        machine = Machine("m", SIMPLE)
        machine.submit_cpu(0.0, 0.1)
        late = machine.submit_cpu(5.0, 0.1)
        assert late == pytest.approx(5.1)

    def test_overload_factor_grows_with_backlog(self):
        machine = Machine("m", SIMPLE)
        for _ in range(SIMPLE.saturation_queue):
            machine.submit_cpu(0.0, 0.01)
        assert machine.overload_factor() == 1.0
        machine.submit_cpu(0.0, 0.01)
        assert machine.overload_factor() > 1.0

    def test_overload_factor_capped(self):
        machine = Machine("m", SIMPLE)
        for _ in range(1000):
            machine.submit_cpu(0.0, 0.001)
        assert machine.overload_factor() == SIMPLE.overload_cap

    def test_complete_cpu_reduces_backlog(self):
        machine = Machine("m", SIMPLE)
        for _ in range(SIMPLE.saturation_queue + 1):
            machine.submit_cpu(0.0, 0.01)
        assert machine.overload_factor() > 1.0
        machine.complete_cpu()
        assert machine.overload_factor() == 1.0

    def test_negative_cost_rejected(self):
        machine = Machine("m", SIMPLE)
        with pytest.raises(ConfigurationError):
            machine.submit_cpu(0.0, -1.0)

    def test_nic_transmission_time(self):
        machine = Machine("m", SIMPLE)
        done = machine.transmit(0.0, 1_000_000)  # 1 MB at 1 MB/s
        assert done == pytest.approx(1.0)

    def test_nic_serialises_frames(self):
        machine = Machine("m", SIMPLE)
        machine.transmit(0.0, 500_000)
        done = machine.transmit(0.0, 500_000)
        assert done == pytest.approx(1.0)

    def test_full_duplex_by_default(self):
        machine = Machine("m", SIMPLE)
        machine.transmit(0.0, 1_000_000)
        rx_done = machine.receive(0.0, 1_000_000)
        assert rx_done == pytest.approx(1.0)  # rx unaffected by tx

    def test_shared_nic_couples_directions(self):
        machine = Machine("m", SIMPLE, shared_nic=True)
        machine.transmit(0.0, 1_000_000)
        rx_done = machine.receive(0.0, 1_000_000)
        assert rx_done == pytest.approx(2.0)  # rx waits for tx

    def test_peak_rate(self):
        assert 1.0 / Machine("m", SIMPLE).record_cost(1) == pytest.approx(1000.0)

    def test_record_cost_control_message_minimum(self):
        machine = Machine("m", SIMPLE)
        assert machine.record_cost(0) > 0
        assert machine.record_cost(10) == pytest.approx(0.01)


class TestMetricsRegistry:
    def test_total_and_rate(self):
        metrics = MetricsRegistry(bin_width=0.1)
        for t in (0.05, 0.15, 0.25):
            metrics.add("src", "m", 10, t)
        assert metrics.total("src", "m") == 30
        assert metrics.rate("src", "m", 0.0, 0.3) == pytest.approx(100.0)

    def test_rate_window_excludes_outside_bins(self):
        metrics = MetricsRegistry(bin_width=0.1)
        metrics.add("src", "m", 100, 0.05)
        metrics.add("src", "m", 100, 0.95)
        assert metrics.rate("src", "m", 0.1, 0.9) == pytest.approx(0.0)

    def test_timeseries(self):
        metrics = MetricsRegistry(bin_width=1.0)
        metrics.add("src", "m", 5, 0.5)
        metrics.add("src", "m", 7, 1.5)
        assert metrics.timeseries("src", "m") == [(0.0, 5.0), (1.0, 7.0)]

    def test_timeseries_coarsening(self):
        metrics = MetricsRegistry(bin_width=0.5)
        metrics.add("src", "m", 1, 0.1)
        metrics.add("src", "m", 1, 0.6)
        series = metrics.timeseries("src", "m", bin_width=1.0)
        assert series == [(0.0, 2.0)]

    def test_incompatible_bin_width_rejected(self):
        metrics = MetricsRegistry(bin_width=0.3)
        metrics.add("s", "m", 1, 0.0)
        with pytest.raises(ConfigurationError):
            metrics.timeseries("s", "m", bin_width=0.5)

    def test_stage_rate_sums_prefix(self):
        metrics = MetricsRegistry(bin_width=0.1)
        metrics.add("stage/0", "m", 10, 0.05)
        metrics.add("stage/1", "m", 20, 0.05)
        metrics.add("other/0", "m", 99, 0.05)
        assert metrics.stage_rate("stage/", "m", 0.0, 0.1) == pytest.approx(300.0)

    def test_empty_window_rejected(self):
        metrics = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            metrics.rate("s", "m", 1.0, 1.0)


class _Forwarder(Actor):
    """Relays batches to a sink (to exercise a two-hop simulated path)."""

    def __init__(self, name, sink):
        super().__init__(name)
        self.sink = sink

    def on_message(self, sender, message):
        if isinstance(message, RecordBatch):
            self.send(self.sink, message)


class TestSimRuntime:
    def test_message_crosses_nic_and_cpu(self):
        from conftest import rec

        runtime = SimRuntime()
        sink = SinkActor("sink")
        runtime.place_on_new_machine(sink, profile=SIMPLE)
        src = SinkActor("src")
        runtime.place_on_new_machine(src, profile=SIMPLE)
        runtime.start()
        runtime.send("src", "sink", RecordBatch([rec("A", 1)]))
        runtime.run()
        assert sink.records_received == 1
        assert runtime.now > 0  # time passed: latency + NIC + CPU

    def test_throughput_capped_by_cpu(self):
        from conftest import rec

        runtime = SimRuntime()
        sink = SinkActor("sink")
        runtime.place_on_new_machine(sink, profile=SIMPLE)  # 1000 rec/s

        template = rec("A", 1)
        client = LoadClient(
            "client",
            targets=["sink"],
            batch_factory=lambda name, i, n: RecordBatch([template] * n),
            target_rate=5000.0,
            batch_size=50,
        )
        fast = MachineProfile(name="fast", per_record_cost=1e-6)
        runtime.place_on_new_machine(client, profile=fast)
        runtime.run(until_time=2.0)
        achieved = runtime.metrics.rate("sink", "in_records", 1.0, 2.0)
        # Overloaded: capped at peak/overload_cap = 500 rec/s.
        assert achieved <= 1000.0
        assert achieved >= 300.0

    def test_under_capacity_load_is_delivered_in_full(self):
        from conftest import rec

        runtime = SimRuntime()
        sink = SinkActor("sink")
        runtime.place_on_new_machine(sink, profile=SIMPLE)
        template = rec("A", 1)
        client = LoadClient(
            "client",
            targets=["sink"],
            batch_factory=lambda name, i, n: RecordBatch([template] * n),
            target_rate=400.0,
            batch_size=20,
        )
        fast = MachineProfile(name="fast", per_record_cost=1e-6)
        runtime.place_on_new_machine(client, profile=fast)
        runtime.run(until_time=2.0)
        achieved = runtime.metrics.rate("sink", "in_records", 1.0, 2.0)
        assert achieved == pytest.approx(400.0, rel=0.1)

    def test_wan_latency_between_datacenters(self):
        from conftest import rec

        runtime = SimRuntime(network=NetworkProfile(wan_rtt=0.2))
        a = SinkActor("a")
        b = SinkActor("b")
        runtime.add_machine("ma", SIMPLE, datacenter="A")
        runtime.add_machine("mb", SIMPLE, datacenter="B")
        runtime.place(a, "ma")
        runtime.place(b, "mb")
        runtime.start()
        runtime.send("a", "b", RecordBatch([rec("A", 1)]))
        runtime.run()
        assert runtime.now >= 0.1  # one-way WAN latency

    def test_latency_override(self):
        runtime = SimRuntime(network=NetworkProfile(wan_rtt=1.0))
        m1 = runtime.add_machine("m1", SIMPLE, datacenter="A")
        m2 = runtime.add_machine("m2", SIMPLE, datacenter="B")
        assert runtime.latency_between(m1, m2) == 0.5

    def test_unplaced_actors_communicate_instantly(self):
        runtime = SimRuntime()
        sink = SinkActor("sink")
        runtime.register(sink)
        src = SinkActor("src")
        runtime.register(src)
        runtime.start()
        runtime.send("src", "sink", "control")
        runtime.run()
        assert sink.messages == ["control"]

    def test_duplicate_machine_name_rejected(self):
        runtime = SimRuntime()
        runtime.add_machine("m", SIMPLE)
        with pytest.raises(ConfigurationError):
            runtime.add_machine("m", SIMPLE)

    def test_placement_requires_known_machine(self):
        runtime = SimRuntime()
        with pytest.raises(ConfigurationError):
            runtime.place(SinkActor("s"), "ghost")


class TestLoadClient:
    def test_total_records_bound(self):
        from conftest import rec

        runtime = SimRuntime()
        sink = SinkActor("sink")
        runtime.place_on_new_machine(sink, profile=MachineProfile(per_record_cost=1e-6))
        template = rec("A", 1)
        client = LoadClient(
            "client",
            targets=["sink"],
            batch_factory=lambda name, i, n: RecordBatch([template] * n),
            target_rate=1000.0,
            batch_size=30,
            total_records=100,
        )
        runtime.place_on_new_machine(client, profile=MachineProfile(per_record_cost=1e-6))
        runtime.run(until_time=5.0)
        assert client.records_generated == 100
        assert sink.records_received == 100

    def test_round_robin_targets(self):
        from conftest import rec

        runtime = SimRuntime()
        sinks = [SinkActor(f"sink{i}") for i in range(2)]
        fast = MachineProfile(per_record_cost=1e-6)
        for sink in sinks:
            runtime.place_on_new_machine(sink, profile=fast)
        template = rec("A", 1)
        client = LoadClient(
            "client",
            targets=["sink0", "sink1"],
            batch_factory=lambda name, i, n: RecordBatch([template] * n),
            target_rate=1000.0,
            batch_size=10,
            total_records=100,
        )
        runtime.place_on_new_machine(client, profile=fast)
        runtime.run(until_time=2.0)
        assert sinks[0].records_received == 50
        assert sinks[1].records_received == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadClient("c", [], lambda n, i, k: None, target_rate=1.0)
        with pytest.raises(ConfigurationError):
            LoadClient("c", ["t"], lambda n, i, k: None, target_rate=0)
