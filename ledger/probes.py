"""Probes evaluated where an actor lives.

``MultiprocRuntime.peek(name, fn)`` pickles ``fn`` by reference and runs it
inside the worker that hosts the actor, so every function here is
module-level (``functools.partial`` of one pickles too) and returns a small
summary.  Pulling whole actors back instead (``refresh_actors`` /
``settle``) pickles entire stores and hits the 30 s control timeout at
about 20 000 records.  :func:`peek` runs the same probes directly on a
single-process runtime, so one correctness gate serves every ``geo-*``
workload.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.causality import causal_order_respected

from ledger.workloads import GeoOps


def peek(runtime: Any, name: str, fn: Callable[[Any], Any]) -> Any:
    """``fn(actor)`` evaluated in the actor's own process."""
    remote = getattr(runtime, "peek", None)
    if remote is not None:
        return remote(name, fn)
    return fn(runtime.actor(name))


def noop(actor: Any) -> None:
    """Round-trip probe: what a ``peek`` itself costs."""


def stored_count(maintainer: Any) -> int:
    return int(maintainer.core.stored_count())


def newest_remote_toid(maintainer: Any) -> int:
    """TOId of the newest stored record hosted by *another* datacenter.

    Scans back from the newest LId (bounded): local appends interleave with
    shipments, so the newest remote record is at most a few shipments deep.
    """
    core = maintainer.core
    local_dc = maintainer.name.split("/", 1)[0]
    lid = core.max_stored_lid
    for _ in range(8192):
        if lid < 0:
            break
        entry = core.try_get(lid)
        if entry is not None and entry.record.host != local_dc:
            return int(entry.record.toid)
        lid -= 1
    return 0


def stage_counters(actor: Any) -> Dict[str, int]:
    """Public counters of whichever Chariots stage ``actor`` is."""
    out: Dict[str, int] = {}
    for attr in (
        "records_batched",
        "records_sequenced",
        "deferred_count",
        "records_shipped",
        "records_received",
        "shipments_received",
    ):
        value = getattr(actor, attr, None)
        if isinstance(value, int):
            out[attr] = value
    core = getattr(actor, "core", None)
    for attr in ("duplicates_dropped", "records_admitted", "postings_stored", "records_placed"):
        value = getattr(core, attr, None)
        if isinstance(value, int):
            out[attr] = value
    return out


def store_summary(
    maintainer: Any,
    seed: int,
    hosts: Sequence[str],
    ack_sample: List[Tuple[str, int, int]],
) -> Dict[str, Any]:
    """Everything the correctness gate needs to know about one datacenter's
    log, computed next to the data.

    ``ack_sample`` holds ``(host, toid, lid)`` acks the driver received for
    records *hosted here*; each must sit at exactly that LId.
    """
    core = maintainer.core
    entries = core.stored_entries()  # LId order
    lids = [entry.lid for entry in entries]
    records = [entry.record for entry in entries]
    ops = GeoOps(seed)
    n_hosts = len(hosts)
    host_index = {host: k for k, host in enumerate(hosts)}
    toids: Dict[str, List[int]] = {host: [] for host in hosts}
    bad_bodies = 0
    foreign = 0
    for record in records:
        k = host_index.get(record.host)
        if k is None:
            foreign += 1
            continue
        toids[record.host].append(record.toid)
        # Single client per datacenter + strict alternation: the record with
        # TOId t at host k is op n_hosts*(t-1)+k, and must carry its body.
        if record.body != ops.body(n_hosts * (record.toid - 1) + k):
            bad_bodies += 1
    dense = {}
    for host, seen in toids.items():
        seen.sort()
        dense[host] = seen == list(range(1, len(seen) + 1))
    ack_mismatches = 0
    for host, toid, lid in ack_sample:
        entry = core.try_get(lid)
        if entry is None or entry.rid.host != host or entry.rid.toid != toid:
            ack_mismatches += 1
    return {
        "count": len(entries),
        "lids_unique": len(set(lids)) == len(lids),
        "gap_free": not lids or lids == list(range(lids[0], lids[0] + len(lids))),
        "first_lid": lids[0] if lids else -1,
        "causal_ok": causal_order_respected(records),
        "per_host": {host: len(seen) for host, seen in toids.items()},
        "toids_dense": dense,
        "foreign_records": foreign,
        "bad_bodies": bad_bodies,
        "ack_mismatches": ack_mismatches,
        "acks_checked": len(ack_sample),
    }
