"""Cold storage for garbage-collected records (§6.1).

"If the user choses not to garbage collect the records then they may employ
a cold storage solution to archive older records."  This module is that
solution: an :class:`ArchiveStore` receives every record the maintainers
evict (each truncation's as one run) and keeps it, so the *combined* view
of archive plus live log still covers the entire history, which is what
auditing and time-travel reads (§1) need: read the live log, then the
archive.

On disk an archive is a journal file (:mod:`repro.flstore.journal`) of one
block, so ``inspect-journal`` and ``FileJournal.replay_runs`` read a dump.
"""

from __future__ import annotations

from typing import Dict

from ..core.record import Record
from .journal import _pack_block
from .maintainer import Placements


class ArchiveStore:
    """Append-only cold storage of evicted records, by LId."""

    def __init__(self) -> None:
        self._records: Dict[int, Record] = {}

    def append_run(self, placements: Placements) -> None:
        """Accept a run of evicted records; LIds already held (a retried
        eviction) are skipped."""
        for lid, record in placements:
            self._records.setdefault(lid, record)

    def __len__(self) -> int:
        return len(self._records)

    def dump(self, path: str) -> int:
        """Write the archive as one journal block, in LId order; returns the
        record count.  A body the record codec cannot encode raises
        :class:`~repro.core.errors.LogError`."""
        block = _pack_block(sorted(self._records.items()))
        with open(path, "wb") as handle:
            handle.write(block)
        return len(self._records)
