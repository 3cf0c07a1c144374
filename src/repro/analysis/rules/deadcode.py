"""CHR012 — dead/orphan message kinds, via the construction graph.

CHR001/CHR002 check *registered* messages against handlers.  The remaining
drift the model's construction sites expose:

* a message dataclass that is **constructed but unregistered and
  undispatched** — it works in-process (objects pass by reference, duck
  typing finds a handler) and is invisible to the codec and every
  ``isinstance`` dispatch, so it dies at the first TCP hop;
* a **registered type nothing constructs** — dead codec surface that still
  occupies a binary type index (and silently shadows any future type that
  reuses the name).

Messages constructed only by external drivers (tests, benchmark harnesses)
are a legitimate pattern — suppress at the registration site with
``# chariots: noqa=CHR012`` and a justification.  CHR017 will flag the
directive the day it stops suppressing anything, so stale escapes don't
outlive the pattern they excuse.
"""

from __future__ import annotations

from typing import Iterator, Set

from ..findings import Finding
from ..model import build_model
from ..project import ProjectInfo
from .base import Rule


class OrphanMessageRule(Rule):
    """CHR012: constructed-but-unroutable and registered-but-unconstructed."""

    code = "CHR012"
    name = "orphan-message"
    description = (
        "A message dataclass that is constructed but neither codec-registered "
        "nor isinstance-dispatched nor embedded in another message is "
        "unroutable drift; a codec registration whose type is never "
        "constructed anywhere in src/ is dead protocol surface."
    )

    def check(self, project: ProjectInfo) -> Iterator[Finding]:
        model = build_model(project)
        if not model.registry or not model.message_classes:
            return
        registered = model.registered_names
        embedded = model.embedded_annotation_names
        for cls in model.message_classes.values():
            if cls.fields == 0 or cls.name in registered:
                continue  # bases are abstract; registered ones are CHR002's job
            if cls.name not in model.constructions:
                continue  # never constructed either: plain dead code, not drift
            if cls.name in model.dispatched or cls.name in embedded:
                continue
            yield self.finding(
                cls.module,
                cls.line,
                cls.col,
                f"message dataclass {cls.name} is constructed but never "
                "codec-registered, dispatched, or embedded — it cannot cross "
                "a TCP boundary",
            )
        seen: Set[str] = set()
        for entry in model.registry:
            if entry.name in seen:
                continue  # duplicate registrations are CHR002's finding
            seen.add(entry.name)
            if entry.name not in model.all_class_names:
                continue  # stale registration: CHR002 already fires
            constructions = model.constructions.get(entry.name, [])
            # The registry itself references the class; only *call* sites
            # outside the codec module count as real constructions.
            real = [
                s
                for s in constructions
                if s.module.relpath != entry.module.relpath
            ]
            if not real:
                yield self.finding(
                    entry.module,
                    entry.line,
                    entry.col,
                    f"registered message type {entry.name} is never "
                    "constructed anywhere in the scanned tree (dead codec "
                    "surface)",
                )
