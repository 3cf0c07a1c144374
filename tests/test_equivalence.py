"""Pipeline ≡ abstract-solution equivalence (§6.2's stated goal).

The distributed pipeline must produce "a behavior identical to the abstract
solution" — property-based tests drive random multi-datacenter workloads
through both and judge the pipeline's logs with ``check_logs`` against the
abstract solution's (same record sets, causal order, per-host total orders).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.runtime import LocalRuntime

from conftest import run_abstract

DCS = ["A", "B", "C"]

#: A workload step: ``(datacenter, body)`` — an append at that DC.
workload_strategy = st.lists(
    st.tuples(st.sampled_from(DCS), st.integers(0, 999).map(lambda p: f"p{p}")),
    min_size=1,
    max_size=25,
)


def run_pipeline(workload, seed):
    runtime = LocalRuntime(chaos=FaultPlan(seed).reorder(delay=0.03))
    deployment = ChariotsDeployment(runtime, DCS, batch_size=4)
    clients = {dc: deployment.blocking_client(dc) for dc in DCS}
    for dc, body in workload:
        clients[dc].append(body)
    assert deployment.settle(max_seconds=60)
    return deployment.logs()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workload_strategy, seed=st.integers(0, 1000))
def test_pipeline_matches_abstract_record_sets(workload, seed):
    assert check_logs(run_pipeline(workload, seed), reference=run_abstract(DCS, workload)).ok


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workload_strategy)
def test_abstract_deployment_always_converges_causally(workload):
    assert check_logs(run_abstract(DCS, workload)).ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1, defect 1")
def test_explicit_dep_on_unincorporated_remote_record():
    """The abstract solution defers a record until its dependencies are in
    the log; the queue stage sequences it at once, so B's log is
    ``[<B,1>, <A,1>]`` and the verdict names ``<B,1>`` at LId 0."""
    deployment = ChariotsDeployment(LocalRuntime(), ["A", "B"], batch_size=4)
    a = deployment.blocking_client("A").append("a1")
    deployment.blocking_client("B").append("b", deps={"A": a.toid})
    assert deployment.settle(max_seconds=10)
    assert check_logs(deployment.logs()).ok
