"""Command-line driver: ``python -m repro.analysis [paths...]``.

Pipeline: scan → run rules → drop noqa-suppressed findings → report.
Exit codes: 0 clean, 1 any finding, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .actors import actor_graph_dict, build_actor_graph
from .findings import Finding
from .model import build_model
from .noqa import is_suppressed
from .project import ProjectInfo, scan
from .rules import ALL_RULES, rules_by_code
from .rules.noqa_audit import DeadNoqaRule
from .sarif import render_sarif


def run_rules(
    project: ProjectInfo, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """All findings for the project, noqa applied, deterministically ordered."""
    table = rules_by_code()
    if select:
        unknown = sorted(set(select) - set(table))
        if unknown:
            raise ValueError(f"unknown rule codes: {', '.join(unknown)}")
        codes = list(select)
    else:
        codes = sorted(table)
    noqa_by_path = {m.relpath: m.noqa for m in project}
    # relpath -> noqa lines that suppressed at least one finding; feeds the
    # CHR017 dead-directive audit below.
    matched: Dict[str, Set[int]] = {}
    findings: List[Finding] = []
    for code in codes:
        rule = table[code]()
        for finding in rule.check(project):
            noqa = noqa_by_path.get(finding.path, {})
            if is_suppressed(noqa, finding.line, finding.code):
                matched.setdefault(finding.path, set()).add(finding.line)
                continue
            findings.append(finding)
    if select is None:
        # Only a full run can tell a dead directive from an out-of-scope one.
        # CHR017 findings deliberately bypass noqa filtering: a dead directive
        # must not be able to suppress its own report.
        findings.extend(DeadNoqaRule().audit_directives(project, matched))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return findings


def _render_text(findings: List[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def _render_json(findings: List[Finding]) -> str:
    return json.dumps(
        {"findings": [f.to_dict() for f in findings], "count": len(findings)},
        indent=2,
    )


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"       {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-specific static analysis for the Chariots reproduction: "
            "protocol exhaustiveness, determinism, async safety, hot-path "
            "slots, and typed-API completeness."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text); sarif emits a SARIF 2.1.0 "
        "document for code-scanning uploads",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    parser.add_argument(
        "--graph",
        choices=("json", "dot"),
        metavar="{json,dot}",
        help="dump the message-flow graph (messages + request types, with "
        "construction/dispatch/send/handle sites; json adds the cross-actor "
        "send/handle graph) instead of linting",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    project = scan(paths)

    if args.graph:
        model = build_model(project)
        if args.graph == "json":
            payload = model.graph_dict()
            payload["actors"] = actor_graph_dict(build_actor_graph(project))
            payload["version"] = 2  # 2 = message-flow graph + actors section
            output = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            output = model.graph_dot()
        print(output, end="")
        return 0

    try:
        findings = run_rules(project, select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        output = _render_json(findings)
    elif args.format == "sarif":
        output = render_sarif(findings, root=project.root)
    else:
        output = _render_text(findings)
    print(output)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
