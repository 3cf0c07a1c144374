"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.analysis import ProjectInfo, scan
from repro.chariots import AbstractDeployment, ChariotsDeployment
from repro.core import DeploymentSpec, LogEntry, Record
from repro.core.record import split_placements
from repro.runtime import LocalRuntime


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
