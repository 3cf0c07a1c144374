"""Live elasticity: growing a running Chariots datacenter (§6.3).

Every pipeline stage scales without stopping the system.  Filters and log
maintainers use *future reassignment* — the new ownership takes effect at a
TOId/LId boundary that has not been reached yet, so no in-flight record is
ever orphaned; queues splice into the token loop; batchers just announce
themselves.

Run:  python examples/elastic_scaling.py
"""

from repro import ChariotsDeployment, LocalRuntime
from repro.chariots.elasticity import (
    expand_batchers,
    expand_filters,
    expand_maintainers,
    expand_queues,
)


def describe(pipeline) -> str:
    return (
        f"batchers={len(pipeline.batchers)} filters={len(pipeline.filters)} "
        f"queues={len(pipeline.queues)} maintainers={len(pipeline.maintainers)}"
    )


def main() -> None:
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=50)
    ca = deployment.blocking_client("A")
    cb = deployment.blocking_client("B")

    print(f"initial deployment at A: {describe(deployment['A'])}")
    for i in range(20):
        ca.append(f"pre-scale-{i}")
        cb.append(f"remote-{i}")
    deployment.settle(max_seconds=10)
    print(f"records at A before scaling: {deployment['A'].total_records()}")
    print()

    # --- Scale every stage while the system keeps running ----------------- #
    [new_store] = expand_maintainers(deployment["A"], 1)
    print(f"added log maintainer {new_store.name}: its ranges start at a "
          f"future LId (epoch journal: "
          f"{[(e.start_lid, len(e.maintainers)) for e in deployment['A'].plan.epochs]})")

    [new_filter] = expand_filters(deployment["A"], host="B", count=1)
    print(f"added filter {new_filter.name}: it champions a residue slice of "
          f"B's records from a future TOId onward")

    expand_queues(deployment["A"], 1)
    print(f"added queue {deployment['A'].queues[-1].name}: spliced into the "
          f"token exchange loop")

    expand_batchers(deployment["A"], 1)
    print(f"added batcher {deployment['A'].batchers[-1].name}: receivers and "
          f"new clients pick it up automatically")
    print(f"deployment at A is now: {describe(deployment['A'])}")
    print()

    # --- The system keeps working through and after the expansion --------- #
    # Enough records that A's log runs into the new maintainer's first LId
    # range and B's TOIds pass the new filter's first one.
    fresh_client = deployment.blocking_client("A")
    for i in range(120):
        fresh_client.append(f"post-scale-{i}")
        cb.append(f"more-remote-{i}")
    converged = deployment.settle(max_seconds=20)
    print(f"replication converged after scaling: {converged}")
    print(f"records at A: {deployment['A'].total_records()}, "
          f"at B: {deployment['B'].total_records()}")
    print(f"new maintainer now stores {new_store.core.stored_count()} records")
    print(f"new filter admitted {new_filter.core.records_admitted} records")

    # Old records remain readable through the epoch journal.
    entry = fresh_client.read_lid(0).entries[0]
    print(f"oldest record still readable via the epoch journal: "
          f"LId 0 -> {entry.record.body!r}")
    if not converged or new_store.core.stored_count() == 0:
        raise SystemExit("the new maintainer stored nothing: the expansion was not exercised")


if __name__ == "__main__":
    main()
