"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core import CausalFrontier, DeferredQueue, causal_order_respected
from repro.core.causality import topological_causal_sort
from repro.core.errors import DuplicateRecordError
from repro.chariots.filters import FilterCore, FilterMap
from repro.flstore import MaintainerCore, OwnershipPlan

from conftest import owned_lids, rec

# --------------------------------------------------------------------- #
# OwnershipPlan: the deterministic assignment is a partition
# --------------------------------------------------------------------- #

plan_strategy = st.tuples(
    st.integers(1, 6),      # maintainers
    st.integers(1, 50),     # batch size
    st.integers(0, 500),    # probe range
)


@settings(max_examples=100, deadline=None)
@given(plan_strategy)
def test_ownership_plan_partitions_lid_space(params):
    n, batch, upto = params
    names = [f"m{i}" for i in range(n)]
    plan = OwnershipPlan(names, batch_size=batch)
    owned = {name: set(owned_lids(plan, name, upto)) for name in names}
    union = set()
    for lids in owned.values():
        assert not (union & lids)  # disjoint
        union |= lids
    assert union == set(range(upto + 1))  # complete


@settings(max_examples=100, deadline=None)
@given(plan_strategy, st.integers(-1, 500))
def test_next_owned_lid_is_consistent_with_owner(params, after):
    n, batch, _ = params
    names = [f"m{i}" for i in range(n)]
    plan = OwnershipPlan(names, batch_size=batch)
    for name in names:
        nxt = plan.next_owned_lid(name, after)
        assert nxt is not None and nxt > after
        assert plan.owner(nxt) == name
        # Nothing owned by `name` exists strictly between after and nxt.
        for lid in range(max(after + 1, 0), nxt):
            assert plan.owner(lid) != name


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 20),
    st.integers(1, 4),
    st.integers(1, 10),
)
def test_epoch_journal_keeps_partitioning(n1, batch, extra, rounds_later):
    names = [f"m{i}" for i in range(n1)]
    plan = OwnershipPlan(names, batch_size=batch)
    boundary = batch * n1 * rounds_later
    plan.add_epoch(boundary, names + [f"x{i}" for i in range(extra)])
    everyone = plan.maintainers()
    upto = boundary + batch * len(everyone) * 2
    owned = {name: set(owned_lids(plan, name, upto)) for name in everyone}
    union = set()
    for lids in owned.values():
        assert not (union & lids)
        union |= lids
    assert union == set(range(upto + 1))


# --------------------------------------------------------------------- #
# Causality: sort output always valid; frontier admission is prefix-closed
# --------------------------------------------------------------------- #

def build_records(spec):
    """spec: list of (host index, has_cross_dep) -> a coherent record set."""
    counters = {}
    seen = {}
    records = []
    for host_index, with_dep in spec:
        host = f"H{host_index}"
        counters[host] = counters.get(host, 0) + 1
        deps = {}
        if with_dep and seen:
            other = sorted(seen)[0]
            if other != host:
                deps[other] = seen[other]
        record = rec(host, counters[host], deps=deps)
        records.append(record)
        seen[host] = counters[host]
    return records


record_spec = st.lists(
    st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=20
)


@settings(max_examples=100, deadline=None)
@given(record_spec, st.randoms())
def test_topological_sort_of_shuffled_records_is_causal(spec, rng):
    records = build_records(spec)
    shuffled = list(records)
    rng.shuffle(shuffled)
    ordered = topological_causal_sort(shuffled)
    assert causal_order_respected(ordered)
    assert {r.rid for r in ordered} == {r.rid for r in records}


@settings(max_examples=100, deadline=None)
@given(record_spec, st.randoms())
def test_deferred_queue_eventually_admits_everything(spec, rng):
    records = build_records(spec)
    shuffled = list(records)
    rng.shuffle(shuffled)
    frontier = CausalFrontier()
    deferred = DeferredQueue()
    admitted = []
    for record in shuffled:
        if frontier.admissible(record):
            frontier.advance(record)
            admitted.append(record)
        else:
            try:
                deferred.push(record)
            except DuplicateRecordError:
                pass
        admitted.extend(deferred.drain(frontier))
    assert len(admitted) == len(records)
    assert causal_order_respected(admitted)


# --------------------------------------------------------------------- #
# FilterCore: exactly-once under shuffles and duplication
# --------------------------------------------------------------------- #


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 25),
    st.randoms(),
    st.integers(1, 3),  # duplication factor
)
def test_filter_admits_each_record_exactly_once(n, rng, dups):
    fmap = FilterMap(["f"])
    fmap.assign_host("A", ["f"])
    core = FilterCore("f", fmap)
    stream = [rec("A", t) for t in range(1, n + 1)] * dups
    rng.shuffle(stream)
    released = []
    for record in stream:
        released.extend(core.offer_externals([record]))
    assert [r.toid for r in released] == list(range(1, n + 1))
    assert core.buffered_count() == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.randoms())
def test_sliced_filters_jointly_admit_exactly_once(n, rng):
    fmap = FilterMap(["x", "y"])
    fmap.assign_host("A", ["x", "y"])
    cores = {name: FilterCore(name, fmap) for name in ("x", "y")}
    stream = [rec("A", t) for t in range(1, n + 1)] * 2  # duplicated
    rng.shuffle(stream)
    released = []
    for record in stream:
        champion = fmap.filter_for_record(record)
        released.extend(cores[champion].offer_externals([record]))
    assert sorted(r.toid for r in released) == list(range(1, n + 1))


FILTERS = ("f0", "f1", "f2")
champions_strategy = st.lists(st.sampled_from(FILTERS), min_size=1, max_size=3, unique=True)


@settings(max_examples=100, deadline=None)
@given(
    champions_strategy,
    # (stream step, extra distance, new champions): may drop a filter
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 4), champions_strategy), max_size=4),
    st.integers(1, 25),
    st.integers(1, 3),  # duplication factor
    st.randoms(),
)
def test_reassigned_filters_jointly_admit_exactly_once(first, reassignments, n, dups, rng):
    """Records are routed when sent and delivered later in any order, so a
    reassignment can overtake them; the former champion forwards them.
    Each reassignment starts past every TOId admitted so far (the future
    reassignment of §6.3), and a closing retransmission round stands for
    the sender resending what was not acknowledged."""
    fmap = FilterMap(list(FILTERS))
    fmap.assign_host("A", first)
    cores = {name: FilterCore(name, fmap) for name in FILTERS}
    admitted = {name: [] for name in FILTERS}
    stream = [rec("A", t) for t in range(1, n + 1)] * dups
    rng.shuffle(stream)
    in_flight = []

    def deliver(index):
        champion, record = in_flight.pop(index)
        core = cores[champion]
        admitted[champion].extend(r.toid for r in core.offer_externals([record]))
        in_flight.extend((fmap.filter_for_record(r), r) for r in core.take_misrouted())

    for step, record in enumerate(stream):
        for at, distance, champions in reassignments:
            if at == step:
                start = fmap.plan("A").current_epoch.start_lid
                highest = max((t for toids in admitted.values() for t in toids), default=0)
                from_toid = max(highest + 1, start + 1, 2) + distance
                fmap.reassign_host("A", champions, from_toid)
        in_flight.append((fmap.filter_for_record(record), record))
        if rng.random() < 0.5:
            deliver(rng.randrange(len(in_flight)))
    in_flight.extend((fmap.filter_for_record(r), r) for r in stream)
    while in_flight:
        deliver(rng.randrange(len(in_flight)))

    assert sorted(t for toids in admitted.values() for t in toids) == list(range(1, n + 1))
    for toids in admitted.values():
        assert toids == sorted(toids)


# --------------------------------------------------------------------- #
# MaintainerCore: post-assignment never reuses or skips LIds
# --------------------------------------------------------------------- #


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 10),
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
)
def test_post_assignment_is_collision_free(n, batch, sends):
    names = [f"m{i}" for i in range(n)]
    plan = OwnershipPlan(names, batch_size=batch)
    cores = {name: MaintainerCore(name, plan) for name in names}
    counter = 0
    assigned = []
    for target_index in sends:
        counter += 1
        target = names[target_index % n]
        [result] = cores[target].append([rec("c", counter)])
        assigned.append(result.lid)
        assert plan.owner(result.lid) == target
    assert len(assigned) == len(set(assigned))
