"""ScenarioSpec round-trip, tag filtering, invariants, and path resolution."""

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import (
    CATALOG,
    Invariant,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    check_invariants,
    resolve_path,
    select,
    resolve_profile,
)


# --------------------------------------------------------------------- #
# Round-trip
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("spec", CATALOG, ids=[s.name for s in CATALOG])
def test_every_catalog_entry_roundtrips_through_json(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_roundtrip_preserves_faults_and_sweep():
    spec = ScenarioSpec(
        name="rt",
        title="round trip",
        kind="flstore",
        faults={"seed": 3, "rules": [{"kind": "drop", "probability": 0.1}],
                "crashes": [], "partitions": []},
        sweep=({"label": "a", "workload": {"target_rate": 1000.0}},),
        invariants=(Invariant(metric="points.0.achieved", op="gt", value=0),),
    )
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.faults["rules"][0]["kind"] == "drop"


def test_to_dict_prunes_defaults():
    spec = ScenarioSpec(name="compact", title="t", kind="pipeline")
    data = spec.to_dict()
    assert data["topology"] == {}
    assert data["workload"] == {}
    assert "faults" not in data
    assert "sweep" not in data


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario kind"):
        ScenarioSpec(name="bad", title="t", kind="nope")


@pytest.mark.parametrize(
    "kind,runtime",
    [("flstore", "local"), ("corfu", "aio"), ("pipeline", "local"),
     ("pipeline", "multiproc")],
)
def test_sim_only_kind_rejects_other_runtimes(kind, runtime):
    with pytest.raises(ConfigurationError, match="only runs on the sim"):
        ScenarioSpec(name="bad", title="t", kind=kind, runtime=runtime)


def test_topology_rejects_negative_workers_and_expansion():
    with pytest.raises(ConfigurationError, match="workers"):
        TopologySpec(workers=-1)
    with pytest.raises(ConfigurationError, match="expand_maintainers"):
        TopologySpec(expand_maintainers=-1)


def test_bad_pipeline_override_fails_eagerly():
    with pytest.raises(TypeError):
        ScenarioSpec(name="bad", title="t", pipeline={"no_such_field": 1})


def test_topology_rejects_zero_stage_counts():
    with pytest.raises(ConfigurationError, match="clients"):
        TopologySpec(clients=0)


def test_workload_rejects_warmup_past_duration():
    with pytest.raises(ConfigurationError, match="warmup"):
        WorkloadSpec(duration=0.5, warmup=0.5)


def test_unknown_sweep_override_key_rejected():
    spec = ScenarioSpec(name="s", title="t",
                        sweep=({"label": "x", "bogus": {}},))
    with pytest.raises(ConfigurationError, match="unknown sweep override"):
        spec.points()


# --------------------------------------------------------------------- #
# Tag filtering and sweep resolution
# --------------------------------------------------------------------- #


def test_select_requires_every_tag():
    geo_soak = select(tags=["geo", "soak"])
    assert [s.name for s in geo_soak] == ["geo-partition-soak"]
    assert all("geo" in s.tags and "soak" in s.tags for s in geo_soak)


def test_select_by_name():
    assert [s.name for s in select(names_filter=["fig7-single-maintainer"])] == [
        "fig7-single-maintainer"
    ]
    assert select(names_filter=["missing"]) == []


def test_points_default_label_is_base():
    spec = ScenarioSpec(name="s", title="t")
    assert [label for label, _ in spec.points()] == ["base"]


def test_sweep_points_merge_sections_over_base():
    spec = ScenarioSpec(
        name="s", title="t", pipeline={"replication_interval": 0.01},
        sweep=(
            {"label": "wide", "topology": {"batchers": 3},
             "pipeline": {"batcher_flush_threshold": 100}},
        ),
    )
    (label, point), = spec.points()
    assert label == "wide"
    assert point.topology.batchers == 3
    # Sweep pipeline overrides merge with (not replace) the base dict.
    assert point.pipeline == {"replication_interval": 0.01,
                              "batcher_flush_threshold": 100}
    assert point.sweep == ()


# --------------------------------------------------------------------- #
# resolve_path / resolve_profile
# --------------------------------------------------------------------- #


def test_resolve_path_traverses_dicts_and_lists():
    doc = {"points": [{"stage_totals": {"Filter": 7}}]}
    assert resolve_path(doc, "points.0.stage_totals.Filter") == 7


def test_resolve_path_reports_full_path_on_miss():
    with pytest.raises(KeyError, match=r"points\.0\.missing.*'missing'"):
        resolve_path({"points": [{}]}, "points.0.missing")


def test_resolve_profile_accepts_name_and_inline_dict():
    assert resolve_profile("public-cloud").name == "public-cloud"
    inline = resolve_profile({"name": "x", "per_record_cost": 1e-6,
                              "nic_bandwidth_bytes": 1e9})
    assert inline.name == "x"
    with pytest.raises(ConfigurationError, match="unknown machine profile"):
        resolve_profile("no-such-profile")


# --------------------------------------------------------------------- #
# Invariant evaluation
# --------------------------------------------------------------------- #

_DOC = {"points": [{"achieved": 100, "target": 100},
                   {"achieved": 950, "target": 1000}],
        "best": {"index": 1}}


@pytest.mark.parametrize(
    "inv,ok",
    [
        (Invariant(metric="best.index", op="eq", value=1), True),
        (Invariant(metric="points.0.achieved", op="lt", value=101), True),
        (Invariant(metric="points.0.achieved", op="gt", value=100), False),
        (Invariant(metric="points.0.achieved", op="ge", value=100), True),
        (Invariant(metric="points.1.achieved", op="approx", value=1000, rel=0.06), True),
        (Invariant(metric="points.1.achieved", op="approx", value=1000, rel=0.01), False),
        (Invariant(metric="points.1.achieved", op="between", band=(900, 1000)), True),
        (Invariant(metric="points.1.achieved", op="ratio_between",
                   other="points.1.target", band=(0.9, 1.0)), True),
    ],
)
def test_invariant_ops(inv, ok):
    assert (inv.check(_DOC) is None) is ok


def test_invariant_other_path_with_scale():
    inv = Invariant(metric="points.1.achieved", op="approx",
                    other="points.0.achieved", scale=10, rel=0.06)
    assert inv.check(_DOC) is None


def test_invariant_failure_message_names_metric_and_note():
    inv = Invariant(metric="points.0.achieved", op="eq", value=7,
                    note="the paper says seven")
    message = inv.check(_DOC)
    assert "points.0.achieved" in message
    assert "the paper says seven" in message
    assert "100" in message


def test_invariant_missing_path_reported_not_raised():
    failures = check_invariants(
        ScenarioSpec(name="s", title="t",
                     invariants=(Invariant(metric="points.9.achieved", op="gt",
                                           value=0),)),
        _DOC,
    )
    assert failures and "points.9.achieved" in failures[0]
