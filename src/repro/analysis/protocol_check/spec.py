"""Declarative protocol state-machine format, pinned to the code by anchors.

A :class:`ProtocolSpec` names the transitions of a protocol and, for each
transition, the :class:`CodeAnchor` patterns that must hold in the real
source for the model (:mod:`.machine`) to still be a faithful abstraction
of it.  Anchors are deliberately coarse AST patterns — "``_admit_frame``
bumps ``delivery_seq`` and appends to ``unacked``" — not line numbers:
they survive refactors that preserve the protocol and fail loudly on ones
that change it, which is the whole point.  When an anchor stops matching,
CHR020 reports *spec drift* instead of silently verifying a machine the
code no longer implements.

Anchor pattern kinds (all matched anywhere inside the named method):

========== ==========================================================
kind        matches when the method contains …
========== ==========================================================
augassign   ``<x>.<attr> += …`` (an AugAssign targeting the attribute)
assign      ``<x>.<attr> = …`` (plain or tuple-unpacked assignment)
append      ``<x>.<attr>.append/appendleft(…)``
method_call ``<x>.<attr>.<detail>(…)`` (e.g. ``unacked.popleft``)
compare     a comparison with ``<x>.<attr>`` (or a subscript of it, or
            arithmetic on it) on either side (e.g.
            ``seq != slot.emission_high + 1``)
call        any call of a function/method named ``<detail>``
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

ANCHOR_KINDS = ("augassign", "assign", "append", "method_call", "compare", "call")


@dataclass(frozen=True, slots=True)
class CodeAnchor:
    """One AST pattern that must match inside ``cls.method``."""

    cls: str  #: class name the method lives on
    method: str  #: method name to search
    kind: str  #: one of :data:`ANCHOR_KINDS`
    attr: str = ""  #: attribute name the pattern involves (where relevant)
    detail: str = ""  #: method/callee name for ``method_call``/``call``

    def describe(self) -> str:
        target = self.attr or self.detail
        extra = f".{self.detail}()" if self.kind == "method_call" else ""
        return f"{self.cls}.{self.method}: {self.kind} {target}{extra}"


@dataclass(frozen=True, slots=True)
class Transition:
    """One named protocol transition and the anchors pinning it to code."""

    name: str
    description: str
    anchors: Tuple[CodeAnchor, ...]


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """A protocol: where its code lives and which transitions define it."""

    name: str
    #: relpath suffixes of the modules implementing the protocol.
    module_suffixes: Tuple[str, ...]
    #: class names that must all exist for the spec to apply to a scan
    #: (fixture trees without them are simply out of scope).
    required_classes: Tuple[str, ...]
    transitions: Tuple[Transition, ...]

    def all_anchors(self) -> Tuple[Tuple[str, CodeAnchor], ...]:
        return tuple(
            (t.name, anchor) for t in self.transitions for anchor in t.anchors
        )


def multiproc_spec() -> ProtocolSpec:
    """The seq/ack/group-commit/respawn machine of ``runtime/multiproc/``:
    the parent half in ``supervision.py``, the worker half in ``worker.py``.

    Transition names match the event labels of
    :class:`~repro.analysis.protocol_check.machine.MultiprocModel`, so a
    counterexample trace reads directly against this table.
    """
    return ProtocolSpec(
        name="multiproc-exactly-once",
        module_suffixes=("runtime/multiproc/supervision.py", "runtime/multiproc/worker.py"),
        required_classes=("Supervision", "_WorkerNode"),
        transitions=(
            Transition(
                name="inject",
                description=(
                    "parent admits a frame: bump delivery_seq, stamp it, "
                    "append to the retransmission buffer"
                ),
                anchors=(
                    CodeAnchor("Supervision", "_admit_frame", "augassign", "delivery_seq"),
                    CodeAnchor("Supervision", "_admit_frame", "append", "unacked"),
                ),
            ),
            Transition(
                name="deliver",
                description=(
                    "worker dedups by delivered_seq, then dispatches; a "
                    "supervised send gets the next emission id and is queued "
                    "to the parent at once"
                ),
                anchors=(
                    CodeAnchor("_WorkerNode", "_on_frame", "compare", "_delivered_seq"),
                    CodeAnchor("_WorkerNode", "_on_frame", "assign", "_delivered_seq"),
                    CodeAnchor("_WorkerNode", "send", "augassign", "_emission"),
                    CodeAnchor("_WorkerNode", "send", "method_call", "conn", "queue"),
                ),
            ),
            Transition(
                name="snapshot",
                description=(
                    "once per turn that changed (ack, emission) the worker "
                    "queues a commit marker + state behind its emissions"
                ),
                anchors=(
                    CodeAnchor("_WorkerNode", "_commit", "compare", "_last_snap"),
                    CodeAnchor("_WorkerNode", "_commit", "call", detail="_snapshot"),
                    CodeAnchor("_WorkerNode", "_snapshot", "assign", "_last_snap"),
                    CodeAnchor("_WorkerNode", "_snapshot", "call", detail="_reply"),
                ),
            ),
            Transition(
                name="recv",
                description=(
                    "parent parks a sequenced output after the dense-id "
                    "check; a snapshot trims the retransmission buffer up to "
                    "its ack and forwards the parked outputs it covers"
                ),
                anchors=(
                    CodeAnchor("Supervision", "_park", "compare", "emission_high"),
                    CodeAnchor("Supervision", "_park", "assign", "emission_high"),
                    CodeAnchor("Supervision", "_park", "append", "uncommitted"),
                    CodeAnchor("Supervision", "_on_snapshot", "method_call", "unacked", "popleft"),
                    CodeAnchor("Supervision", "_on_snapshot", "assign", "acked"),
                    CodeAnchor("Supervision", "_on_snapshot", "method_call", "uncommitted", "popleft"),
                    CodeAnchor("Supervision", "_on_snapshot", "call", detail="_forward"),
                ),
            ),
            Transition(
                name="crash",
                description=(
                    "a detected death closes the conn, buffers the slot and "
                    "drops the parked outputs"
                ),
                anchors=(
                    CodeAnchor("Supervision", "_mark_worker_down", "assign", "buffering"),
                    CodeAnchor("Supervision", "_mark_worker_down", "assign", "failed"),
                    CodeAnchor("Supervision", "_mark_worker_down", "method_call", "uncommitted", "clear"),
                ),
            ),
            Transition(
                name="respawn",
                description=(
                    "restore from the last snapshot, resume emission ids at "
                    "its emission, account any replay gap, retransmit the "
                    "unacked window"
                ),
                anchors=(
                    CodeAnchor("Supervision", "_respawn_once", "assign", "emission_high"),
                    CodeAnchor("Supervision", "_respawn_once", "method_call", "conn", "queue"),
                    CodeAnchor("Supervision", "_respawn_once", "assign", "buffering"),
                ),
            ),
        ),
    )


__all__ = ["ANCHOR_KINDS", "CodeAnchor", "ProtocolSpec", "Transition", "multiproc_spec"]
