"""Cold storage for garbage-collected records (§6.1).

"If the user choses not to garbage collect the records then they may employ
a cold storage solution to archive older records."  This module is that
solution: an :class:`ArchiveStore` receives every record the maintainers
evict (each truncation's as one run) and keeps it readable — so the
*combined* view of archive plus live log still covers the entire history,
which is what auditing and time-travel reads (§1) need: read the live log,
then the archive.

On disk an archive is a journal file (:mod:`repro.flstore.journal`) of one
block, so ``inspect-journal`` and ``FileJournal.replay_runs`` read a dump.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional

from ..core.errors import LidOutOfRangeError
from ..core.record import LogEntry, ReadRules, Record
from .journal import _pack_block
from .maintainer import Placements


class ArchiveStore:
    """Append-only cold storage, indexed by LId and tag key."""

    def __init__(self) -> None:
        self._records: Dict[int, Record] = {}
        self._lids: List[int] = []
        self._tag_index: Dict[str, List[int]] = {}

    # -- the maintainer-facing sink ---------------------------------------- #

    def append_run(self, placements: Placements) -> None:
        """Accept a run of evicted records; LIds already held (a retried
        eviction) are skipped."""
        for lid, record in placements:
            if lid in self._records:
                continue
            self._records[lid] = record
            insort(self._lids, lid)
            for key, _value in record.tags:
                insort(self._tag_index.setdefault(key, []), lid)

    # -- reads --------------------------------------------------------------- #

    def get(self, lid: int) -> LogEntry:
        record = self._records.get(lid)
        if record is None:
            raise LidOutOfRangeError(lid, max(self._lids, default=-1))
        return LogEntry(lid, record)

    def try_get(self, lid: int) -> Optional[LogEntry]:
        record = self._records.get(lid)
        return None if record is None else LogEntry(lid, record)

    def read(self, rules: ReadRules) -> List[LogEntry]:
        if rules.tag_key is not None:
            lids = self._tag_index.get(rules.tag_key, [])
        else:
            lids = self._lids
        order = reversed(lids) if rules.most_recent else iter(lids)
        matches: List[LogEntry] = []
        for lid in order:
            entry = LogEntry(lid, self._records[lid])
            if rules.matches(entry):
                matches.append(entry)
                if rules.limit is not None and len(matches) >= rules.limit:
                    break
        return matches

    def __len__(self) -> int:
        return len(self._records)

    # -- persistence ---------------------------------------------------------- #

    def dump(self, path: str) -> int:
        """Write the archive as one journal block, in LId order; returns the
        record count.  A body the record codec cannot encode raises
        :class:`~repro.core.errors.LogError`."""
        block = _pack_block([(lid, self._records[lid]) for lid in self._lids])
        with open(path, "wb") as handle:
            handle.write(block)
        return len(self._lids)

