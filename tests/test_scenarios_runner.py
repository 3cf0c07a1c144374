"""Runner lifecycle: phases, artifact persistence, determinism, failures."""

import json

import pytest

from repro.scenarios import (
    EXECUTORS,
    Invariant,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    next_run_id,
    run_scenario,
)

#: A seconds-scale deterministic spec used throughout (tiny FLStore run).
def _quick_spec(**overrides):
    defaults = dict(
        name="quick-flstore",
        title="quick",
        kind="flstore",
        topology=TopologySpec(maintainers=1, profile="public-cloud"),
        workload=WorkloadSpec(target_rate=50_000, duration=0.3, warmup=0.1),
        invariants=(Invariant(metric="points.0.achieved", op="gt", value=0),),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_lifecycle_phases_and_artifacts(tmp_path):
    result = ScenarioRunner(run_root=tmp_path).run(_quick_spec())
    assert [(p.name, p.status) for p in result.phases] == [
        ("standup", "ok"), ("experiment", "ok")
    ]
    assert result.status == "passed"
    run_dir = result.artifacts_dir
    assert run_dir == tmp_path / "quick-flstore" / "run-0001"
    names = {p.name for p in run_dir.iterdir()}
    assert {"spec.json", "aggregates.json", "run.json"} <= names
    # The persisted spec is the spec that ran.
    assert json.loads((run_dir / "spec.json").read_text()) == result.spec.to_dict()
    run_doc = json.loads((run_dir / "run.json").read_text())
    assert run_doc["status"] == "passed"
    assert run_doc["invariant_failures"] == []


def test_run_ids_are_sequential(tmp_path):
    runner = ScenarioRunner(run_root=tmp_path)
    first = runner.run(_quick_spec())
    second = runner.run(_quick_spec())
    assert first.run_id == "run-0001"
    assert second.run_id == "run-0002"
    scenario_dir = tmp_path / "quick-flstore"
    assert next_run_id(scenario_dir) == "run-0003"


def test_seeded_runs_produce_byte_identical_aggregates(tmp_path):
    runner = ScenarioRunner(run_root=tmp_path)
    # Two maintainers so gossip traffic exists for the fault rule to hit.
    spec = _quick_spec(
        topology=TopologySpec(maintainers=2, profile="public-cloud"),
        faults={
            "seed": 5,
            "rules": [{"kind": "duplicate", "message_type": "GossipHL",
                       "probability": 0.3, "delay": 0.01}],
            "crashes": [], "partitions": [],
        },
    )
    first = runner.run(spec)
    second = runner.run(spec)
    a = (first.artifacts_dir / "aggregates.json").read_bytes()
    b = (second.artifacts_dir / "aggregates.json").read_bytes()
    assert a == b
    assert json.loads(a)["faults"]["duplicated"] > 0


def test_no_persist_runner_writes_nothing(tmp_path):
    result = run_scenario(_quick_spec(), run_root=None)
    assert result.artifacts_dir is None
    assert result.passed
    assert list(tmp_path.iterdir()) == []


def test_artifacts_persist_when_experiment_raises(tmp_path, monkeypatch):
    def explode(point, plan):
        raise RuntimeError("mid-experiment crash")

    monkeypatch.setitem(EXECUTORS, "flstore", explode)
    result = ScenarioRunner(run_root=tmp_path).run(_quick_spec())
    assert result.status == "error"
    assert "mid-experiment crash" in result.error
    assert result.phase("experiment").status == "failed"
    # Every artifact is still persisted, and run.json records the failure.
    names = {p.name for p in result.artifacts_dir.iterdir()}
    assert {"spec.json", "aggregates.json", "run.json"} <= names
    run_doc = json.loads((result.artifacts_dir / "run.json").read_text())
    assert run_doc["status"] == "error"
    assert any(p["name"] == "experiment" and p["status"] == "failed"
               for p in run_doc["phases"])


def test_standup_failure_skips_experiment(tmp_path):
    bad = _quick_spec(faults={"seed": 1, "rules": [{"kind": "frobnicate"}],
                              "crashes": [], "partitions": []})
    result = ScenarioRunner(run_root=tmp_path).run(bad)
    assert result.status == "error"
    assert result.phase("standup").status == "failed"
    assert result.phase("experiment").status == "skipped"


def test_invariant_failure_marks_run_failed_and_raises(tmp_path):
    spec = _quick_spec(invariants=(
        Invariant(metric="points.0.achieved", op="gt", value=10**9,
                  note="impossible claim"),
    ))
    result = ScenarioRunner(run_root=tmp_path).run(spec)
    assert result.status == "failed"
    assert "impossible claim" in result.invariant_failures[0]
    with pytest.raises(ScenarioError, match="impossible claim") as excinfo:
        ScenarioRunner(run_root=tmp_path).run(spec, raise_on_failure=True)
    # The raised error still carries the persisted result.
    assert excinfo.value.result.artifacts_dir is not None


def test_geo_scenario_requires_two_datacenters():
    spec = ScenarioSpec(
        name="bad-geo", title="t", kind="geo",
        topology=TopologySpec(datacenters=("A",)),
        workload=WorkloadSpec(total_records=100, duration=0.5, warmup=0.1),
    )
    result = run_scenario(spec, raise_on_failure=False)
    assert result.status == "error"
    assert ">= 2 datacenters" in result.error


def test_incomparable_metric_fails_the_run_instead_of_raising(tmp_path):
    """A metric a run could not produce fails its invariant; the runner
    still finishes and persists every artifact."""
    spec = _quick_spec(invariants=(
        Invariant(metric="points.0.achieved", op="gt", other="points.0.label"),
    ))
    result = ScenarioRunner(run_root=tmp_path).run(spec)
    assert result.status == "failed"
    assert "not comparable" in result.invariant_failures[0]
    assert (result.artifacts_dir / "run.json").is_file()
