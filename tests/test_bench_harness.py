"""Smoke tests for the simulated §7 experiments: shapes, not absolute numbers.

The full-size runs are the scenario catalog's ``paper-figure`` entries;
these short one-point specs, run through the same ``run_scenario`` path,
assert the qualitative claims the paper's evaluation makes so regressions
in the capacity model are caught by ``pytest tests/``.
"""

import pytest

from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec, run_scenario

SHORT = dict(duration=0.8, warmup=0.3)


def _run(kind, profile, topology=None, **workload):
    """One short single-point run of ``kind``."""
    spec = ScenarioSpec(
        name=f"short-{kind}",
        title="short",
        kind=kind,
        topology=TopologySpec(profile=profile, **(topology or {})),
        workload=WorkloadSpec(**{**SHORT, **workload}),
    )
    return run_scenario(spec)


def flstore(maintainers, target, profile="public-cloud"):
    run = _run("flstore", profile, {"maintainers": maintainers}, target_rate=target)
    return run.aggregates["points"][0]


def pipeline(**topology):
    return _run("pipeline", "private-cloud", topology).aggregates["points"][0]


def corfu(units, target, sequencer_capacity, grant_batch):
    topology = {"units": units, "sequencer_capacity": sequencer_capacity,
                "grant_batch": grant_batch}
    return _run("corfu", "public-cloud", topology, target_rate=target).aggregates["points"][0]


class TestFigure7Shape:
    def test_throughput_tracks_target_below_capacity(self):
        result = flstore(1, 100_000)
        assert result["achieved"] == pytest.approx(100_000, rel=0.05)

    def test_throughput_degrades_past_the_peak(self):
        at_peak = flstore(1, 150_000)
        overloaded = flstore(1, 250_000)
        assert at_peak["achieved"] > overloaded["achieved"]
        # §7.1: drops to "around 120K appends per second".
        assert overloaded["achieved"] == pytest.approx(120_000, rel=0.08)


class TestFigure8Shape:
    def test_near_linear_scaling_private_cloud(self):
        single = flstore(1, 131_000, profile="private-cloud")
        scaled = flstore(4, 131_000, profile="private-cloud")
        assert scaled["scaling_fraction"] > 0.97  # paper: 99.3% at n=10
        assert scaled["achieved"] == pytest.approx(4 * single["achieved"], rel=0.05)

    def test_overloaded_public_cloud_still_scales(self):
        scaled = flstore(3, 250_000)
        assert scaled["scaling_fraction"] > 0.95
        # Each maintainer is saturated near its overloaded rate, not 250K.
        assert scaled["achieved_per_maintainer"] < 150_000


class TestTablesShape:
    def test_table2_all_stages_track_the_client(self):
        result = pipeline(clients=1)
        client_rate = result["stage_totals"]["Client"]
        for stage in ("Batcher", "Filter", "Queue", "Store"):
            assert result["stage_totals"][stage] == pytest.approx(client_rate, rel=0.06)
        assert result["bottleneck"] == "Client"

    def test_table3_batcher_becomes_bottleneck(self):
        result = pipeline(clients=2)
        assert result["bottleneck"] == "Batcher"
        assert result["stage_totals"]["Batcher"] < result["stage_totals"]["Client"]

    def test_table4_filter_becomes_bottleneck(self):
        result = pipeline(clients=2, batchers=2)
        assert result["bottleneck"] == "Filter"
        # §7.2: batcher stage throughput "more than doubled".
        three = pipeline(clients=2)
        assert result["stage_totals"]["Batcher"] > 1.5 * three["stage_totals"]["Batcher"]

    def test_table5_two_of_everything_doubles_throughput(self):
        basic = pipeline(clients=1)
        doubled = pipeline(
            clients=2, batchers=2, filters=2, queues=2, maintainers=2,
            senders=2, receivers=2,
        )
        assert doubled["stage_totals"]["Store"] == pytest.approx(
            2 * basic["stage_totals"]["Store"], rel=0.08
        )
        # Each machine stays close to the basic single-machine case.
        for machine_rate in doubled["stage_rates"]["Store"].values():
            assert machine_rate == pytest.approx(basic["stage_totals"]["Store"], rel=0.1)


class TestFigure9Shape:
    def test_fixed_workload_drains_after_clients_stop(self):
        run = _run(
            "pipeline",
            "private-cloud",
            {"clients": 2, "batchers": 2},
            total_records=160_000,
            duration=1.2,
            warmup=0.2,
            run_past_load=1.5,
            timeseries_sources=("A/client/0", "A/batcher/0", "A/queue/0"),
        )
        assert run.aggregates["points"][0]["records_stored"] == 160_000
        queue_series = dict(run.timeseries["base"]["A/queue/0"])
        client_series = dict(run.timeseries["base"]["A/client/0"])
        # Clients finish early; the queue keeps draining afterwards.
        client_end = max(t for t, rate in client_series.items() if rate > 0)
        queue_end = max(t for t, rate in queue_series.items() if rate > 0)
        assert queue_end > client_end


class TestCorfuBaseline:
    def test_sequencer_caps_cluster_throughput(self):
        capacity = 5_000.0  # grants/s; with batch 16 -> 80 K appends ceiling
        small = corfu(1, 125_000, sequencer_capacity=capacity, grant_batch=16)
        big = corfu(4, 125_000, sequencer_capacity=capacity, grant_batch=16)
        ceiling = capacity * 16
        assert big["achieved"] <= ceiling * 1.1
        # Adding units does not scale past the sequencer.
        assert big["achieved"] < 2 * small["achieved"]

    def test_flstore_scales_where_corfu_does_not(self):
        baseline = corfu(4, 125_000, sequencer_capacity=5_000.0, grant_batch=16)
        scaled = flstore(4, 125_000)
        assert scaled["achieved"] > 3 * baseline["achieved"]
