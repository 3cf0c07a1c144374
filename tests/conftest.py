"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import sys
import tempfile
from itertools import chain as chained
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.analysis import ProjectInfo, scan
from repro.apps.hyksos import key_tag
from repro.chariots import AbstractDeployment, ChariotsDeployment
from repro.core import DeploymentSpec, LogEntry, ReadRules, Record
from repro.core.record import split_placements
from repro.flstore import FileJournal
from repro.runtime import Actor, LocalRuntime


@pytest.fixture(scope="session")
def src_project() -> ProjectInfo:
    """One analyzer scan of ``src/`` for every test that only reads it.
    Rules and model builders never change a scan; they only memoise the
    project model and actor graph on it, so later users start warm."""
    return scan([Path(__file__).resolve().parent.parent / "src"])


@pytest.fixture
def runtime() -> LocalRuntime:
    return LocalRuntime()


@pytest.fixture
def two_dc_deployment(runtime: LocalRuntime) -> ChariotsDeployment:
    """A small two-datacenter Chariots deployment on the local runtime."""
    return ChariotsDeployment(runtime, ["A", "B"], batch_size=8)


@pytest.fixture
def three_dc_deployment(runtime: LocalRuntime) -> ChariotsDeployment:
    return ChariotsDeployment(
        runtime,
        ["A", "B", "C"],
        spec=DeploymentSpec(batchers=2, filters=2, queues=2, maintainers=2),
        batch_size=5,
    )


def rec(host: str, toid: int, body=None, deps: Optional[Dict[str, int]] = None, tags=None) -> Record:
    """Shorthand record constructor for tests."""
    return Record.make(host, toid, body if body is not None else f"{host}:{toid}", tags=tags, deps=deps)


def chain(host: str, n: int, start: int = 1) -> List[Record]:
    """n records from one host in total order."""
    return [rec(host, t) for t in range(start, start + n)]


def run_abstract(dcs: List[str], appends: List[Tuple[str, Any]]) -> Dict[str, List[LogEntry]]:
    """The abstract solution's logs after ``(datacenter, body)`` appends and a
    full sync: the ``reference`` a pipeline run of the workload is judged by."""
    deployment = AbstractDeployment(dcs)
    for dc, body in appends:
        deployment[dc].append(body)
    deployment.sync()
    return {dc: deployment[dc].entries() for dc in dcs}


def python_calls(fn: Callable[[Any], Any], arg: Any) -> int:
    """Python-level function calls ``fn(arg)`` makes, the one to ``fn``
    included (C calls are not counted)."""
    fn(arg)  # warm: first-use interning is not a per-message cost
    calls = 0

    def profiler(_frame: Any, event: str, _arg: Any) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn(arg)
    finally:
        sys.setprofile(None)
    return calls


def entries_after(
    core: Any, after_lid: int, limit: int = 4096, host: Optional[str] = None
) -> Tuple[List[LogEntry], int]:
    """``core.runs_after(...)`` as one ``LogEntry`` per record, with the
    cursor it reached."""
    items, upto = core.runs_after(after_lid, limit, host)
    return [LogEntry(*pair) for pair in split_placements(items)], upto


def convergent_get(log: Any, key: str) -> Any:
    """A causal+ (COPS-style) read of a Hyksos key over ``log``: among the
    puts to ``key`` that no other put causally dominates, the highest
    ``(TOId, host)`` wins.  Every datacenter holding the same puts answers
    alike, which is what the convergence tests check."""
    puts = [e.record for e in log.read(ReadRules(tag_key=key_tag(key), most_recent=False))]
    undominated = [
        record
        for record in puts
        if not any(other is not record and other.depends_on(record.rid) for other in puts)
    ]
    if not undominated:
        return None
    winner = max(undominated, key=lambda record: (record.toid, record.host))
    return winner.tag_dict()[key_tag(key)]


def decided(pending: Any) -> bool:
    """Whether the manager of a ``PendingCommit`` has decided it."""
    return pending.manager.decision(pending.txn_id) is not None


def replayed(journal: Any) -> Iterator[Tuple[int, Record]]:
    """Every record ``journal.replay_runs()`` yields, as ``(lid, record)``
    pairs in order, runs split."""
    return split_placements(chained.from_iterable(journal.replay_runs()))


def archived(archive: Any) -> Dict[int, Record]:
    """Every record an ``ArchiveStore`` holds, by LId, read back from a
    dump by the journal's block reader: the archive keeps evictions for
    cold storage and serves no reads of its own."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "archive.dump")
        archive.dump(path)
        journal = FileJournal(path)
        try:
            return dict(replayed(journal))
        finally:
            journal.close()


def archive_read(archive: Any, rules: ReadRules) -> List[LogEntry]:
    """A read of an ``ArchiveStore`` by ``rules``, answered as a scan is:
    the matching entries in the rules' LId direction, up to their limit."""
    entries = [LogEntry(lid, record) for lid, record in archived(archive).items()]
    return rules.merge_scan(entry for entry in entries if rules.matches(entry))


def owned_lids(plan: Any, name: str, upto: int) -> List[int]:
    """Every LId in ``[0, upto]`` that ``plan`` gives ``name``, ascending,
    stepped the way the maintainers step: ``next_owned_lid`` from -1."""
    lids: List[int] = []
    lid = plan.next_owned_lid(name, -1)
    while lid is not None and lid <= upto:
        lids.append(lid)
        lid = plan.next_owned_lid(name, lid)
    return lids


class SinkActor(Actor):
    """Keeps whatever arrives; stands in for a stage a test does not run."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.messages: List[Any] = []
        self.records_received = 0

    def on_message(self, sender: str, message: Any) -> None:
        self.messages.append(message)
        counter = getattr(message, "record_count", None)
        if callable(counter):
            self.records_received += counter()


def streams_caught_up(sender: Any, maintainers: List[Any]) -> bool:
    """Whether every replication stream of ``sender`` has no shipment
    outstanding and its cursor at the last LId of its maintainer's log
    (``maintainers`` are the ``LogMaintainer`` actors it reads)."""
    last = {m.name: m.core.runs_after(-1, 1 << 30)[1] for m in maintainers}
    return all(
        not (stream.shipping and stream.seq is not None)
        and stream.acked_upto == last[maintainer]
        for (_dc, maintainer), stream in sender._streams.items()
    )
