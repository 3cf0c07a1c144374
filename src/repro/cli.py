"""Command-line interface: demos and log inspection.

Usage (also available as ``chariots-repro`` when installed with pip):

    python -m repro.cli demo                     # two-datacenter walkthrough
    python -m repro.cli table1                   # the systems comparison
    python -m repro.cli inspect-journal m0.journal
    python -m repro.cli inspect-archive archive.jsonl

Experiments live in the scenario catalog: ``python -m repro.scenarios``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_demo(args: argparse.Namespace) -> int:
    from .chariots import ChariotsDeployment
    from .runtime import LocalRuntime

    runtime = LocalRuntime()
    dcs = args.datacenters.split(",")
    deployment = ChariotsDeployment(runtime, dcs, batch_size=100)
    clients = {dc: deployment.blocking_client(dc) for dc in dcs}
    print(f"Chariots demo: {len(dcs)} datacenters ({', '.join(dcs)})")
    for i in range(args.records):
        for dc, client in clients.items():
            client.append(f"record-{i}-from-{dc}", tags={"round": i})
    converged = deployment.settle(max_seconds=30)
    print(f"appended {args.records} records per datacenter; converged: {converged}")
    for dc in dcs:
        pipe = deployment[dc]
        print(f"  {dc}: {pipe.total_records()} records, head of log {pipe.head_of_log()}, "
              f"frontier {pipe.frontier()}")
    show = min(6, args.records * len(dcs))
    print(f"first {show} log positions at {dcs[0]}:")
    for entry in deployment[dcs[0]].all_entries()[:show]:
        print(f"  [{entry.lid}] {entry.rid} {entry.record.body!r}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .scenarios.comparison import render

    print(render())
    return 0


def _cmd_inspect_journal(args: argparse.Namespace) -> int:
    from .flstore.journal import FileJournal

    journal = FileJournal(args.path)
    runs = list(journal.replay_runs())
    journal.close()
    entries = [pair for run in runs for pair in run]
    if not entries:
        print(f"{args.path}: empty journal")
        return 0
    lids = [lid for lid, _ in entries]
    hosts = sorted({record.host for _, record in entries})
    size = os.path.getsize(args.path)
    print(f"{args.path}: {len(entries)} placements")
    print(f"  blocks: {len(runs)} ({size} bytes, {size / len(entries):.1f} per record)")
    print(f"  LId range: {min(lids)}..{max(lids)}")
    print(f"  host datacenters: {', '.join(hosts)}")
    if args.verbose:
        for lid, record in entries[: args.limit]:
            print(f"  [{lid}] {record.rid} tags={record.tag_dict()}")
    return 0


def _cmd_inspect_archive(args: argparse.Namespace) -> int:
    from .core import ReadRules
    from .flstore.archive import ArchiveStore

    archive = ArchiveStore.load(args.path)
    print(f"{args.path}: {len(archive)} archived records")
    lid_range = archive.lid_range()
    if lid_range:
        print(f"  LId range: {lid_range[0]}..{lid_range[1]}")
    if args.verbose:
        for entry in archive.read(ReadRules(most_recent=False, limit=args.limit,
                                            include_internal=True)):
            print(f"  [{entry.lid}] {entry.rid} tags={entry.record.tag_dict()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chariots-repro",
        description="Chariots shared-log reproduction: demos and log inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a multi-datacenter demo")
    demo.add_argument("--datacenters", default="A,B", help="comma-separated ids")
    demo.add_argument("--records", type=int, default=5, help="appends per datacenter")
    demo.set_defaults(func=_cmd_demo)

    table1 = sub.add_parser("table1", help="print the systems comparison (Table 1)")
    table1.set_defaults(func=_cmd_table1)

    journal = sub.add_parser("inspect-journal", help="summarise a maintainer journal")
    journal.add_argument("path")
    journal.add_argument("-v", "--verbose", action="store_true")
    journal.add_argument("--limit", type=int, default=20)
    journal.set_defaults(func=_cmd_inspect_journal)

    archive = sub.add_parser("inspect-archive", help="summarise a cold-storage dump")
    archive.add_argument("path")
    archive.add_argument("-v", "--verbose", action="store_true")
    archive.add_argument("--limit", type=int, default=20)
    archive.set_defaults(func=_cmd_inspect_archive)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
