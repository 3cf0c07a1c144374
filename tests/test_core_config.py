"""Validation tests for configuration objects (repro.core.config)."""

import pytest

from repro.core import (
    PRIVATE_CLOUD,
    PUBLIC_CLOUD,
    ConfigurationError,
    DeploymentSpec,
    FLStoreConfig,
    MachineProfile,
    NetworkProfile,
    PipelineConfig,
)
from repro.flstore.range_map import OwnershipPlan, RangeEpoch


class TestFLStoreConfig:
    """The round size is not an FLStoreConfig field: it is the ``batch_size``
    of the ownership plan's epochs, checked there."""

    def test_defaults_match_paper(self):
        plan = OwnershipPlan(["m0", "m1"])
        assert plan.current_epoch.batch_size == 1000  # Figure 4's example round size

    def test_batch_size_positive(self):
        with pytest.raises(ConfigurationError):
            OwnershipPlan(["m0"], batch_size=0)
        with pytest.raises(ConfigurationError):
            RangeEpoch(0, 0, ("m0",))

    def test_gossip_interval_positive(self):
        with pytest.raises(ConfigurationError):
            FLStoreConfig(gossip_interval=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            FLStoreConfig().gossip_interval = 5


class TestPipelineConfig:
    def test_flush_threshold_positive(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(batcher_flush_threshold=0)

    def test_token_deferred_limit_non_negative(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(token_deferred_limit=-1)

    def test_zero_deferred_limit_allowed(self):
        assert PipelineConfig(token_deferred_limit=0).token_deferred_limit == 0


class TestMachineProfile:
    def test_per_record_cost_positive(self):
        with pytest.raises(ConfigurationError):
            MachineProfile(per_record_cost=0)

    def test_nic_bandwidth_positive(self):
        with pytest.raises(ConfigurationError):
            MachineProfile(nic_bandwidth_bytes=0)

    def test_overload_cap_at_least_one(self):
        with pytest.raises(ConfigurationError):
            MachineProfile(overload_cap=0.9)

    def test_private_cloud_peaks_near_132k(self):
        assert 1.0 / PRIVATE_CLOUD.per_record_cost == pytest.approx(132_000)

    def test_public_cloud_degrades_to_about_120k(self):
        degraded = (1.0 / PUBLIC_CLOUD.per_record_cost) / PUBLIC_CLOUD.overload_cap
        assert 115_000 < degraded < 125_000  # Figure 7's overloaded plateau


class TestNetworkProfile:
    def test_lan_latency_is_half_rtt(self):
        net = NetworkProfile(lan_rtt=0.0002)
        assert net.lan_latency == pytest.approx(0.0001)

    def test_default_lan_rtt_matches_paper(self):
        assert NetworkProfile().lan_rtt == pytest.approx(0.00015)  # §7: 0.15 ms


class TestDeploymentSpec:
    def test_every_stage_needs_a_machine(self):
        with pytest.raises(ConfigurationError):
            DeploymentSpec(filters=0)
