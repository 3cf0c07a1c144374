"""Smoke tests for the capacity-model harness: shapes, not absolute numbers.

The full-size runs are the scenario catalog's ``paper-figure`` entries;
these short runs assert the qualitative claims the paper's evaluation makes
so regressions in the capacity model are caught by ``pytest tests/``.
"""

import pytest

from repro.scenarios.harness import (
    run_corfu_sim,
    run_flstore_sim,
    run_pipeline_sim,
)
from repro.core import PRIVATE_CLOUD, PUBLIC_CLOUD

SHORT = dict(duration=0.8, warmup=0.3)


class TestFigure7Shape:
    def test_throughput_tracks_target_below_capacity(self):
        result = run_flstore_sim(1, 100_000, **SHORT)
        assert result.achieved_total == pytest.approx(100_000, rel=0.05)

    def test_throughput_degrades_past_the_peak(self):
        at_peak = run_flstore_sim(1, 150_000, **SHORT)
        overloaded = run_flstore_sim(1, 250_000, **SHORT)
        assert at_peak.achieved_total > overloaded.achieved_total
        # §7.1: drops to "around 120K appends per second".
        assert overloaded.achieved_total == pytest.approx(120_000, rel=0.08)


class TestFigure8Shape:
    def test_near_linear_scaling_private_cloud(self):
        single = run_flstore_sim(1, 131_000, maintainer_profile=PRIVATE_CLOUD, **SHORT)
        scaled = run_flstore_sim(4, 131_000, maintainer_profile=PRIVATE_CLOUD, **SHORT)
        assert scaled.perfect_scaling_fraction > 0.97  # paper: 99.3% at n=10
        assert scaled.achieved_total == pytest.approx(4 * single.achieved_total, rel=0.05)

    def test_overloaded_public_cloud_still_scales(self):
        scaled = run_flstore_sim(3, 250_000, maintainer_profile=PUBLIC_CLOUD, **SHORT)
        assert scaled.perfect_scaling_fraction > 0.95
        # Each maintainer is saturated near its overloaded rate, not 250K.
        assert scaled.achieved_per_maintainer < 150_000


class TestTablesShape:
    def test_table2_all_stages_track_the_client(self):
        result = run_pipeline_sim(clients=1, **SHORT)
        client_rate = result.stage_total("Client")
        for stage in ("Batcher", "Filter", "Queue", "Store"):
            assert result.stage_total(stage) == pytest.approx(client_rate, rel=0.06)
        assert result.bottleneck() == "Client"

    def test_table3_batcher_becomes_bottleneck(self):
        result = run_pipeline_sim(clients=2, **SHORT)
        assert result.bottleneck() == "Batcher"
        assert result.stage_total("Batcher") < result.stage_total("Client")

    def test_table4_filter_becomes_bottleneck(self):
        result = run_pipeline_sim(clients=2, batchers=2, **SHORT)
        assert result.bottleneck() == "Filter"
        # §7.2: batcher stage throughput "more than doubled".
        three = run_pipeline_sim(clients=2, **SHORT)
        assert result.stage_total("Batcher") > 1.5 * three.stage_total("Batcher")

    def test_table5_two_of_everything_doubles_throughput(self):
        basic = run_pipeline_sim(clients=1, **SHORT)
        doubled = run_pipeline_sim(
            clients=2, batchers=2, filters=2, queues=2, maintainers=2,
            senders=2, receivers=2, **SHORT
        )
        assert doubled.stage_total("Store") == pytest.approx(
            2 * basic.stage_total("Store"), rel=0.08
        )
        # Each machine stays close to the basic single-machine case.
        for machine_rate in doubled.stage_rates["Store"].values():
            assert machine_rate == pytest.approx(basic.stage_total("Store"), rel=0.1)


class TestFigure9Shape:
    def test_fixed_workload_drains_after_clients_stop(self):
        result = run_pipeline_sim(
            clients=2,
            batchers=2,
            total_records=160_000,
            duration=1.2,
            warmup=0.2,
            run_past_load=1.5,
            timeseries_for=("A/client/0", "A/batcher/0", "A/queue/0"),
        )
        assert result.records_stored == 160_000
        queue_series = dict(result.timeseries["A/queue/0"])
        client_series = dict(result.timeseries["A/client/0"])
        # Clients finish early; the queue keeps draining afterwards.
        client_end = max(t for t, rate in client_series.items() if rate > 0)
        queue_end = max(t for t, rate in queue_series.items() if rate > 0)
        assert queue_end > client_end


class TestPipelineSimPerf:
    def test_pipeline_sim_reports_wall_clock(self):
        result = run_pipeline_sim(clients=1, duration=0.2, warmup=0.05)
        assert result.wall_clock > 0.0


class TestCorfuBaseline:
    def test_sequencer_caps_cluster_throughput(self):
        capacity = 5_000.0  # grants/s; with batch 16 -> 80 K appends ceiling
        small = run_corfu_sim(
            n_units=1, target_per_unit=125_000, sequencer_capacity=capacity,
            grant_batch=16, **SHORT
        )
        big = run_corfu_sim(
            n_units=4, target_per_unit=125_000, sequencer_capacity=capacity,
            grant_batch=16, **SHORT
        )
        ceiling = capacity * 16
        assert big.achieved_total <= ceiling * 1.1
        # Adding units does not scale past the sequencer.
        assert big.achieved_total < 2 * small.achieved_total

    def test_flstore_scales_where_corfu_does_not(self):
        corfu = run_corfu_sim(
            n_units=4, target_per_unit=125_000, sequencer_capacity=5_000.0,
            grant_batch=16, **SHORT
        )
        flstore = run_flstore_sim(4, 125_000, **SHORT)
        assert flstore.achieved_total > 3 * corfu.achieved_total
