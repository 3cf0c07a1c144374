"""Property-based tests on whole protocols: transaction agreement,
abstract-solution convergence under adversarial exchange schedules, and
simulator determinism."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import MessageFuturesManager
from repro.chariots import AbstractDeployment, check_logs
from repro.chariots.direct import DirectDeployment

DCS = ["A", "B", "C"]


# --------------------------------------------------------------------- #
# Abstract solution under arbitrary pairwise exchange schedules
# --------------------------------------------------------------------- #

#: A schedule step: (appender dc, exchange src, exchange dst) indices.
schedule_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(schedule_strategy)
def test_abstract_causality_holds_at_every_intermediate_state(schedule):
    deployment = AbstractDeployment(DCS)
    counter = 0
    for appender, src, dst in schedule:
        counter += 1
        deployment[DCS[appender]].append(f"r{counter}")
        if src != dst:
            deployment.exchange(DCS[src], DCS[dst])
        # The causal invariant is not just eventual — it holds after
        # every single step, at every datacenter (judged alone: sets differ).
        for dc in DCS:
            assert check_logs({dc: deployment[dc].entries()}).ok
    deployment.sync()
    assert check_logs({dc: deployment[dc].entries() for dc in DCS}).ok


@settings(max_examples=100, deadline=None)
@given(schedule_strategy)
def test_abstract_atable_never_overclaims(schedule):
    """The ATable is an *under*-approximation of knowledge: whenever it says
    a peer knows a record, the peer really has it."""
    deployment = AbstractDeployment(DCS)
    counter = 0
    for appender, src, dst in schedule:
        counter += 1
        deployment[DCS[appender]].append(f"r{counter}")
        if src != dst:
            deployment.exchange(DCS[src], DCS[dst])
        for dc in DCS:
            table = deployment[dc].atable
            for peer in DCS:
                for host in DCS:
                    claimed = table.get(peer, host)
                    actual = deployment[peer].frontier.max_toid(host)
                    assert claimed <= actual


# --------------------------------------------------------------------- #
# Message Futures: global agreement on every decision
# --------------------------------------------------------------------- #

#: Transactions: (dc index, key index) — same key index => conflict.
txn_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(txn_strategy)
def test_message_futures_agreement(txns):
    deployment = DirectDeployment(DCS)
    managers = {
        dc: MessageFuturesManager(dc, deployment.client(dc), DCS) for dc in DCS
    }
    pendings = []
    for dc_index, key_index in txns:
        manager = managers[DCS[dc_index]]
        txn = manager.begin()
        txn.write(f"key-{key_index}", f"{txn.txn_id}")
        pendings.append(txn.commit())

    for _ in range(12):
        deployment.replicate()
        for manager in managers.values():
            manager.pump()
        if all(
            managers[dc].decision(p.txn_id) is not None
            for p in pendings
            for dc in DCS
        ):
            break

    # Every manager decided every transaction, identically.
    for pending in pendings:
        decisions = {managers[dc].decision(pending.txn_id) for dc in DCS}
        assert len(decisions) == 1
        assert decisions.pop() is not None

    # Conflicting concurrent groups never commit two writers of one key...
    # but causally-ordered ones may all commit; the invariant that must
    # hold universally is identical final state everywhere.
    states = [managers[dc].committed_state() for dc in DCS]
    assert all(state == states[0] for state in states[1:])


# --------------------------------------------------------------------- #
# Simulator determinism
# --------------------------------------------------------------------- #


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(50_000, 150_000))
def test_simulation_results_are_deterministic(n_maintainers, target):
    from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec, run_scenario

    spec = ScenarioSpec(
        name="determinism",
        title="determinism",
        kind="flstore",
        topology=TopologySpec(maintainers=n_maintainers, profile="public-cloud"),
        workload=WorkloadSpec(target_rate=float(target), duration=0.5, warmup=0.2),
    )
    first = run_scenario(spec).aggregates["points"][0]
    second = run_scenario(spec).aggregates["points"][0]
    assert first["achieved"] == second["achieved"]
    assert first["records_stored"] == second["records_stored"]
    assert first["head_lag"] == second["head_lag"]
    assert first == second


# --------------------------------------------------------------------- #
# Hyksos convergent reads under random concurrent workloads
# --------------------------------------------------------------------- #

kv_workload = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 99)),
    min_size=1,
    max_size=15,
)


@settings(max_examples=100, deadline=None)
@given(kv_workload)
def test_hyksos_convergent_reads_agree_everywhere(workload):
    from repro.apps import Hyksos

    deployment = DirectDeployment(DCS)
    sessions = {dc: Hyksos(deployment.client(dc)) for dc in DCS}
    keys = set()
    for dc_index, key_index, value in workload:
        key = f"k{key_index}"
        keys.add(key)
        sessions[DCS[dc_index]].put(key, value)
    deployment.replicate()
    for key in keys:
        answers = {dc: sessions[dc].get_convergent(key) for dc in DCS}
        values = set(answers.values())
        assert len(values) == 1, answers
