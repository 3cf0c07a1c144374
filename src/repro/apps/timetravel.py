"""Time travel, auditing, and checkpointing over the shared log (§1).

"The log provides a trace of all application events providing a natural
framework for tasks like debugging, auditing, checkpointing, and time
travel."  This module delivers those tasks for any state machine driven by
tagged records — demonstrated on Hyksos's put records:

* :class:`LogAuditor` — reconstruct the key-value state *as of any log
  position*;
* :class:`Checkpointer` — periodic materialised snapshots so long logs can
  be replayed from the nearest checkpoint instead of position zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.record import LogEntry, ReadRules
from .hyksos import KEY_TAG_PREFIX


def _puts_in(entry: LogEntry) -> List[Tuple[str, Any]]:
    """The ``(key, value)`` puts a record carries (possibly several)."""
    return [
        (tag_key[len(KEY_TAG_PREFIX):], value)
        for tag_key, value in entry.record.tags
        if tag_key.startswith(KEY_TAG_PREFIX)
    ]


class LogAuditor:
    """Replay-based inspection of a key-value log.

    Works over any blocking shared-log client (FLStore or Chariots); reads
    are bounded by explicit log positions, so results are reproducible —
    the essence of an audit.
    """

    def __init__(self, log: Any) -> None:
        self.log = log

    def _entries_upto(self, lid: Optional[int]) -> List[LogEntry]:
        rules = ReadRules(max_lid=lid, most_recent=False)
        return self.log.read(rules)

    def state_at(self, lid: Optional[int] = None) -> Dict[str, Any]:
        """The key-value state as of log position ``lid`` (default: now)."""
        state: Dict[str, Any] = {}
        for entry in self._entries_upto(lid):
            for key, value in _puts_in(entry):
                state[key] = value
        return state


@dataclass
class Checkpoint:
    """A materialised state snapshot pinned to a log position."""

    upto_lid: int
    state: Dict[str, Any]


class Checkpointer:
    """Periodic snapshots + replay-from-checkpoint recovery."""

    def __init__(self, log: Any) -> None:
        self.log = log
        self._checkpoints: List[Checkpoint] = []

    def take(self) -> Checkpoint:
        """Snapshot the state at the current head of the log."""
        head = self.log.head()
        auditor = LogAuditor(self.log)
        checkpoint = Checkpoint(upto_lid=head, state=auditor.state_at(head))
        self._checkpoints.append(checkpoint)
        return checkpoint

    def latest_before(self, lid: int) -> Optional[Checkpoint]:
        candidates = [c for c in self._checkpoints if c.upto_lid <= lid]
        return candidates[-1] if candidates else None

    def state_at(self, lid: int) -> Dict[str, Any]:
        """State at ``lid``, replaying only from the nearest checkpoint."""
        base = self.latest_before(lid)
        state = dict(base.state) if base else {}
        start = base.upto_lid + 1 if base else 0
        entries = self.log.read(
            ReadRules(min_lid=start, max_lid=lid, most_recent=False)
        )
        for entry in entries:
            for key, value in _puts_in(entry):
                state[key] = value
        return state
