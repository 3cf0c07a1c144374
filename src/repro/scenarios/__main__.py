"""Command-line front end for the scenario catalog.

::

    python -m repro.scenarios list [--tag TAG]... [--deterministic]
    python -m repro.scenarios show NAME
    python -m repro.scenarios run [NAME]... [--tag TAG]... [--deterministic]
                                  [--run-root DIR | --no-persist]

``run`` executes the selected entries through the phased runner,
persisting artifacts under ``<run-root>/<scenario>/<run-id>/`` and exits
non-zero if any scenario errors or breaks an invariant.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import catalog
from .runner import ScenarioRunner
from .spec import RUNTIMES, ScenarioSpec


def _select(args: argparse.Namespace) -> List[ScenarioSpec]:
    deterministic = True if getattr(args, "deterministic", False) else None
    specs = catalog.select(
        tags=args.tag,
        names_filter=getattr(args, "names", []),
        deterministic=deterministic,
        runtime=getattr(args, "runtime", None),
    )
    known = set(catalog.names())
    for name in getattr(args, "names", []):
        if name not in known:
            raise SystemExit(f"unknown scenario {name!r} (try `list`)")
    return specs


def _cmd_list(args: argparse.Namespace) -> int:
    specs = _select(args)
    if not specs:
        print("no scenarios match")
        return 1
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        tags = ",".join(spec.tags) or "-"
        print(f"{spec.name:<{width}}  {spec.kind:<10} {spec.runtime:<5} "
              f"{tags:<24} {spec.title}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(catalog.get(args.name).to_json(), end="")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _select(args)
    if not specs:
        print("no scenarios match")
        return 1
    run_root: Optional[Path] = None if args.no_persist else Path(args.run_root)
    runner = ScenarioRunner(run_root=run_root)
    failures = 0
    for spec in specs:
        result = runner.run(spec)
        where = f"  -> {result.artifacts_dir}" if result.artifacts_dir else ""
        print(f"{spec.name}: {result.status}{where}")
        if result.error:
            print(f"  error: {result.error}")
        for message in result.invariant_failures:
            print(f"  invariant: {message}")
        if not result.passed:
            failures += 1
    print(f"{len(specs) - failures}/{len(specs)} scenarios passed")
    return 1 if failures else 0


def _add_filters(parser: argparse.ArgumentParser, with_names: bool = True) -> None:
    if with_names:
        parser.add_argument("names", nargs="*", help="scenario names (default: all)")
    parser.add_argument("--tag", action="append", default=[],
                        help="require this tag (repeatable, ANDed)")
    parser.add_argument("--deterministic", action="store_true",
                        help="only seeded sim/local scenarios")
    parser.add_argument("--runtime", default=None, choices=RUNTIMES,
                        help="only scenarios on this runtime")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run and check the declarative scenario catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    _add_filters(p_list, with_names=False)
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="print one spec as JSON")
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_show)

    p_run = sub.add_parser("run", help="run scenarios and check invariants")
    _add_filters(p_run)
    p_run.add_argument("--run-root", default="runs",
                       help="artifact directory (default: runs/)")
    p_run.add_argument("--no-persist", action="store_true",
                       help="run in-memory, write no artifacts")
    p_run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
