"""CHR020 — verify the exactly-once protocol, and that the spec still fits.

Two failure modes, both surfaced as findings:

* **Spec drift** — a :class:`~.spec.CodeAnchor` no longer matches
  ``runtime/multiproc/``: the code changed in a way the declarative
  machine does not describe, so whatever the checker proves is about a
  protocol the repo no longer runs.  Re-derive the transition (and its
  anchors) from the new code before trusting the green check.

* **Invariant violation** — the bounded exploration of
  :class:`~.machine.MultiprocModel` found a reachable state breaking
  exactly-once emission, the retransmit-window bound, replay-gap freedom,
  quiescent completeness, the commit point (nothing accepted above the
  last received snapshot) or emission-id density.  The finding carries the shortest
  counterexample trace (event labels from the initial state) so the bug
  reproduces by hand.

The in-lint exploration is sized to stay well under a second (the full
10⁴–10⁵-state runs live in ``tests/test_protocol_check.py``); it is still
exhaustive for its bounds — ``complete=True`` or the rule says so.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..project import ProjectInfo
from ..rules.base import Rule
from .checker import explore
from .extract import check_anchors, locate_classes
from .machine import MPConfig, MultiprocModel
from .spec import multiproc_spec

#: In-lint bounds: one crash, one dup, reorder on, three injected frames —
#: a few thousand states, milliseconds to explore, still a complete proof
#: over this adversary.
LINT_CONFIG = MPConfig(max_injects=3, max_dups=1, max_crashes=1, allow_reorder=True)


class ProtocolInvariantRule(Rule):
    """CHR020: model-check the multiproc seq/ack/group-commit machine."""

    code = "CHR020"
    name = "protocol-invariant"
    description = (
        "The declarative model of the multiproc exactly-once protocol must "
        "still anchor to runtime/multiproc/ (spec drift is a finding), "
        "and its bounded exploration under deliver/dup/reorder/crash/"
        "respawn must uphold exactly-once emissions, the retransmit-window "
        "bound, replay-gap freedom and the parent-side commit point — "
        "violations carry a counterexample trace."
    )

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        spec = multiproc_spec()
        located = locate_classes(spec, project)
        if located is None:
            return  # tree without the protocol: out of scope
        drifts = check_anchors(spec, project)
        for drift in drifts:
            yield self.finding(
                drift.module,
                drift.line,
                drift.col,
                f"protocol spec drift: {drift.describe()} — update the "
                "machine in analysis/protocol_check to match the code "
                "before trusting its verification",
            )
        if drifts:
            return  # the model no longer describes the code; don't "verify"
        module, cls = located[spec.required_classes[0]]
        result = explore(MultiprocModel(LINT_CONFIG), max_states=100_000)
        if not result.complete:
            yield self.finding(
                module,
                cls.lineno,
                cls.col_offset,
                "protocol exploration truncated before exhausting the "
                "bounded state space — shrink LINT_CONFIG or raise the "
                "state cap so the in-lint check stays a proof",
            )
        for violation in result.violations:
            yield self.finding(
                module,
                cls.lineno,
                cls.col_offset,
                f"protocol invariant violated: {violation.render()} "
                f"(explored {result.states_explored} states)",
            )


__all__ = ["LINT_CONFIG", "ProtocolInvariantRule"]
