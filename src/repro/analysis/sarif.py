"""SARIF 2.1.0 renderer (``--format sarif``).

Static Analysis Results Interchange Format output so CI can upload the
lint run to code-scanning dashboards (GitHub annotates PR diffs from it).
The emitted document is deliberately minimal but complete: one run, the
full rule table as ``tool.driver.rules`` (so dashboards can describe a
rule even when it produced no results this run), and one ``result`` per
finding carrying its line-independent fingerprint
(:meth:`~repro.analysis.findings.Finding.fingerprint`) under
``partialFingerprints`` — scanning services dedup alerts across pushes by
it.

Columns are converted from the linter's 0-based convention to SARIF's
1-based one.  File URIs are emitted relative to the invocation's working
directory when the scan root lies under it (``src/repro/...`` when CI runs
``python -m repro.analysis src`` from the repo root), which is what the
GitHub upload action expects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .findings import Finding
from .rules import ALL_RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: ``partialFingerprints`` key; versioned so a future fingerprint scheme
#: change doesn't silently re-match old alerts.
FINGERPRINT_KEY = "chariotsFingerprint/v1"


def _uri_prefix(root: Optional[Path]) -> str:
    """Scan-root prefix to restore repo-relative URIs, when derivable."""
    if root is None:
        return ""
    try:
        rel = root.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        return ""
    posix = rel.as_posix()
    return "" if posix == "." else posix + "/"


def sarif_dict(
    findings: Sequence[Finding], *, root: Optional[Path] = None
) -> Dict[str, Any]:
    """The findings as a SARIF 2.1.0 document (JSON-ready dict)."""
    rule_index: Dict[str, int] = {}
    rules: List[Dict[str, Any]] = []
    for rule in ALL_RULES:
        rule_index[rule.code] = len(rules)
        rules.append(
            {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {"text": rule.name},
                "fullDescription": {"text": rule.description},
                "defaultConfiguration": {"level": "error"},
            }
        )
    prefix = _uri_prefix(root)
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": prefix + finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint()},
        }
        if finding.code in rule_index:
            result["ruleIndex"] = rule_index[finding.code]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding], *, root: Optional[Path] = None
) -> str:
    """The findings as pretty-printed SARIF 2.1.0 JSON."""
    return json.dumps(sarif_dict(findings, root=root), indent=2)


__all__ = ["FINGERPRINT_KEY", "SARIF_SCHEMA", "SARIF_VERSION", "render_sarif", "sarif_dict"]
