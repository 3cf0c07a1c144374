"""CHR001/CHR002 — protocol exhaustiveness.

The pipeline ≡ abstract equivalence argument (PAPER.md §6.1) silently breaks
if a message type can be constructed but not shipped (missing codec
registration) or shipped but not understood (no handler dispatches it).
These rules keep three artefacts in lockstep, reading the shared
:class:`~repro.analysis.model.ProjectModel` (built once per scan):

* the **message modules** (``*/messages.py``): every public dataclass with
  at least one field is a protocol message;
* the **codec registry** (the ``_MESSAGE_TYPES`` tuple of
  ``net/binary_codec.py``, from which the codec derives its type index);
* the **handlers**: ``isinstance`` dispatch inside ``on_message`` methods.

CHR001 fires for a message dataclass missing from the registry.  CHR002
fires both ways: a registry entry whose class no longer exists (stale
registration), and a registered message that no handler dispatches and no
other message embeds as a field (dead protocol surface).
"""

from __future__ import annotations

from typing import Iterator, Set

from ..findings import Finding
from ..model import build_model
from ..project import ProjectInfo
from .base import Rule


class ProtocolRegistrationRule(Rule):
    """CHR001: every message dataclass is codec-registered."""

    code = "CHR001"
    name = "protocol-unregistered"
    description = (
        "Every public dataclass with fields defined in a */messages.py module "
        "must appear in the codec's _MESSAGE_TYPES tuple, or no socket can "
        "carry it.  Zero-field classes are treated as abstract bases."
    )

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        model = build_model(project)
        if not model.registry:
            # No codec registry in the scanned tree (e.g. a partial scan):
            # the cross-check is meaningless, stay silent.
            return
        registered = model.registered_names
        for cls in model.message_classes.values():
            if cls.fields == 0:
                continue
            if cls.name not in registered:
                yield self.finding(
                    cls.module,
                    cls.line,
                    cls.col,
                    f"message dataclass {cls.name} is not in the codec's "
                    "_MESSAGE_TYPES tuple",
                )


class ProtocolDispatchRule(Rule):
    """CHR002: registry ↔ handler agreement, both directions."""

    code = "CHR002"
    name = "protocol-unhandled"
    description = (
        "Every codec-registered message must correspond to a real class "
        "(stale registrations rot the binary codec's type index) and must be "
        "either dispatched by an on_message isinstance check somewhere or "
        "embedded as a field of another registered message (pure value "
        "types).  A registered-but-unroutable message is dead protocol "
        "surface that silently drifts."
    )

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        model = build_model(project)
        if not model.registry or not model.message_classes:
            return
        embedded = model.embedded_annotation_names
        seen: Set[str] = set()
        for entry in model.registry:
            if entry.name not in model.all_class_names:
                yield self.finding(
                    entry.module,
                    entry.line,
                    entry.col,
                    f"registered message type {entry.name} has no class "
                    "definition in the scanned tree (stale registration)",
                )
                continue
            if entry.name in seen:
                yield self.finding(
                    entry.module,
                    entry.line,
                    entry.col,
                    f"message type {entry.name} is registered more than once",
                )
            seen.add(entry.name)
        for cls in model.message_classes.values():
            if cls.fields == 0 or cls.name not in seen:
                continue
            if cls.name in model.dispatched or cls.name in embedded:
                continue
            yield self.finding(
                cls.module,
                cls.line,
                cls.col,
                f"registered message {cls.name} is never dispatched by any "
                "on_message handler nor embedded in another message",
            )
