"""CHR017 — dead ``# chariots: noqa`` directives.

A suppression that suppresses nothing is worse than noise: it documents an
invariant violation that no longer exists, and it will silently swallow the
*next* finding of that code on that line.  The driver flags every noqa
directive that matched no pre-noqa finding during a full run.

This rule is driver-implemented: deciding whether a directive is dead
requires the findings of *every other rule* before noqa filtering, which a
rule's ``check()`` cannot see.  The class exists so the code participates in
``--list-rules`` and ``--select`` validation; its own
``check()`` yields nothing, and the check only runs on full (unselected)
runs — under ``--select`` a directive for an unselected rule would look
dead.  A directive that explicitly lists ``CHR017`` is never reported
(that is the intentional opt-out for a directive kept for documentation).
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Set

from ..findings import Finding
from ..project import ProjectInfo
from .base import Rule


class DeadNoqaRule(Rule):
    """CHR017: every noqa directive must suppress at least one finding."""

    code = "CHR017"
    name = "dead-noqa"
    description = (
        "A '# chariots: noqa' directive that suppresses no current finding "
        "is dead: drop it, or it will silently swallow the next real "
        "finding on that line.  Checked by the driver on full runs only "
        "(a --select subset can't tell dead from out-of-scope); a "
        "directive listing CHR017 itself is exempt."
    )

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        return iter(())  # driver-implemented; see audit_directives()

    def audit_directives(
        self, project: ProjectInfo, matched: Mapping[str, Set[int]]
    ) -> List[Finding]:
        """Findings for directives that suppressed nothing.

        ``matched`` maps module relpath to the 1-based lines whose noqa
        directive suppressed at least one finding this run.
        """
        findings: List[Finding] = []
        for module in project:
            used = matched.get(module.relpath, set())
            for line, codes in sorted(module.noqa.items()):
                if line in used:
                    continue
                if codes is not None and self.code in codes:
                    continue
                label = "all rules" if codes is None else ", ".join(sorted(codes))
                findings.append(
                    self.finding(
                        module,
                        line,
                        0,
                        f"noqa directive ({label}) suppresses nothing — "
                        "drop it before it hides the next real finding",
                    )
                )
        return findings
