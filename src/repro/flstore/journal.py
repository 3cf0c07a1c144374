"""Durability: append-only journals and maintainer crash recovery.

The paper treats persistence as a given ("Log maintainers are responsible
for persisting the log's records") and lists component failures among the
challenges Chariots handles.  This module provides the mechanism: every
placement/append can be recorded in a journal, and a restarted maintainer
replays it to recover exactly the slice it owned — the post-assignment
cursor, the placed-record frontier, and the tag postings all rebuild from
the journal alone.

Two journal flavours, both taking a whole run of placements at a time
(``append_run``) or one (``journal(lid, record)``):

* :class:`MemoryJournal` — in-process, used by tests and failure drills;
* :class:`FileJournal` — a block journal on disk: one CRC-framed binary
  block per run, written and flushed once.

Each maintainer's journal is independent and every entry carries its LId,
so journals — and the blocks of one journal — replay in any interleaving.
The durability contract is stated in ``docs/FAULTS.md``.
"""

from __future__ import annotations

import os
import struct
import zlib
from itertools import chain
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, Optional, Tuple

from ..core.config import FLStoreConfig
from ..core.errors import LogError, NetworkProtocolError
from ..core.record import Record
from ..core.value_codec import _encode_value, decode_value_binary
from .maintainer import MaintainerCore, Placements
from .range_map import OwnershipPlan

# --------------------------------------------------------------------- #
# Disk format
# --------------------------------------------------------------------- #

#: A block is ``u32 length | u32 crc32 | payload``: the payload's length and
#: CRC-32 (big-endian), then the payload — the list of placements as the
#: value layer encodes any list (one rule for wire and disk: a columnar run
#: from ``_RUN_MIN`` pairs up, per element below), so it is byte for byte
#: the ``placements`` of the ``PlaceRecords`` message that carried them.
_HEADER = struct.Struct(">II")


def _pack_block(placements: Placements) -> bytearray:
    block = bytearray(_HEADER.size)
    try:
        _encode_value(placements, block)
    except NetworkProtocolError as exc:
        raise LogError(f"cannot journal these placements: {exc}") from exc
    payload = memoryview(block)[_HEADER.size :]
    _HEADER.pack_into(block, 0, len(payload), zlib.crc32(payload))
    return block


def _sound(payload: bytes, crc: int) -> bool:
    """A block holds at least one byte and matches its checksum."""
    return bool(payload) and zlib.crc32(payload) == crc


def _damaged(path: str, offset: int) -> LogError:
    return LogError(
        f"{path}: the journal block at offset {offset} fails its checksum and is "
        "not the last one — the file is damaged, not torn by a crash"
    )


def _sound_blocks(path: str) -> Iterator[Tuple[int, bytes]]:
    """``(offset, payload)`` of every block of ``path`` in file order, each
    checked against its checksum.  A final block that is incomplete or fails
    the check is the torn tail of a crash mid-write and ends the walk; a
    bad block with anything behind it raises."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        size = os.fstat(handle.fileno()).st_size
        offset = 0
        while size - offset >= _HEADER.size:
            length, crc = _HEADER.unpack(handle.read(_HEADER.size))
            end = offset + _HEADER.size + length
            if end > size:
                return
            payload = handle.read(length)
            if not _sound(payload, crc):
                if end < size:
                    raise _damaged(path, offset)
                return
            yield offset, payload
            offset = end


def _open_for_append(path: str) -> BinaryIO:
    """Open ``path`` for appending, first cutting off a torn final block.

    A crash mid-write leaves a last block that is incomplete or fails its
    checksum.  The turn that wrote it was never committed, so dropping it
    is safe — but appending behind it would hide every later block from
    replay.  Only the block headers are walked and only the last block is
    verified; when that finds a tail to cut, every block before the cut is
    verified first, so damage is never mistaken for a torn tail.
    """
    if os.path.exists(path):
        with open(path, "rb+", buffering=0) as handle:
            size = handle.seek(0, os.SEEK_END)
            start = end = 0  # of the last complete block
            while size - end >= _HEADER.size:
                handle.seek(end)
                length, crc = _HEADER.unpack(handle.read(_HEADER.size))
                if end + _HEADER.size + length > size:
                    break
                start, end = end, end + _HEADER.size + length
            cut = end  # what follows is an incomplete block
            if start < end == size:
                # Nothing follows: the handle is at the last block's payload.
                if not _sound(handle.read(length), crc):
                    cut = start
            if cut < size:
                for _ in _sound_blocks(path):
                    pass
                handle.truncate(cut)
    return open(path, "ab")


def _read_runs(path: str) -> Iterator[Placements]:
    """The runs of every sound block of ``path`` (see :func:`_sound_blocks`)."""
    for offset, payload in _sound_blocks(path):
        try:
            run = decode_value_binary(payload)
        except NetworkProtocolError as exc:
            raise LogError(
                f"{path}: the journal block at offset {offset} passes its "
                f"checksum but does not decode: {exc}"
            ) from exc
        yield run


# --------------------------------------------------------------------- #
# Journals
# --------------------------------------------------------------------- #


class MemoryJournal:
    """An in-memory append-only journal of (LId, record) placements."""

    def __init__(self) -> None:
        self._entries: Placements = []

    def __call__(self, lid: int, record: Record) -> None:
        self._entries.append((lid, record))

    def append_run(self, placements: Placements) -> None:
        self._entries.extend(placements)

    def __len__(self) -> int:
        return len(self._entries)

    def replay(self) -> Iterator[Tuple[int, Record]]:
        return iter(list(self._entries))

    def replay_runs(self) -> Iterator[Placements]:
        return iter([list(self._entries)] if self._entries else [])

    def truncate_below(self, lid: int) -> int:
        """Compact the journal after garbage collection."""
        before = len(self._entries)
        self._entries = [(l, r) for l, r in self._entries if l >= lid]
        return before - len(self._entries)


class FileJournal:
    """A block journal on disk.

    :meth:`append_run` writes one block — ``u32 length | u32 crc32 |
    payload`` — with one ``write`` and one ``flush``, so the block is on
    the file before the call returns; ``journal(lid, record)`` is a
    one-pair block.  A torn final block (the turn that wrote it was never
    committed, so dropping it is safe) is skipped by replay and cut off
    whenever the file is opened, before anything is appended behind it; a
    bad block anywhere else is damage and raises :class:`LogError`.

    Instances are picklable (the open handle is dropped and reopened in
    append mode on unpickle), so a maintainer journaling to disk can be
    shipped into a multiproc worker — the worker's writes land in the same
    file the parent later replays for crash recovery.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = _open_for_append(path)

    def __getstate__(self) -> Dict[str, str]:
        return {"path": self.path}

    def __setstate__(self, state: Dict[str, str]) -> None:
        self.path = state["path"]
        self._file = _open_for_append(self.path)

    def __call__(self, lid: int, record: Record) -> None:
        self.append_run([(lid, record)])

    def append_run(self, placements: Placements) -> None:
        self._file.write(_pack_block(placements))
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def replay_runs(self) -> Iterator[Placements]:
        """The journaled runs, a block at a time (read lazily)."""
        self._file.flush()
        return _read_runs(self.path)

    def replay(self) -> Iterator[Tuple[int, Record]]:
        return chain.from_iterable(self.replay_runs())


def recover_maintainer_core(
    name: str,
    plan: OwnershipPlan,
    journal_runs: Iterable[Placements],
    config: Optional[FLStoreConfig] = None,
    new_journal: Optional[Callable[[int, Record], None]] = None,
) -> MaintainerCore:
    """Rebuild a maintainer's state from its journal after a crash.

    Replays every journaled run (``journal.replay_runs()``) through
    :meth:`MaintainerCore.place_run` — the same outcome as placing each
    pair in turn — which restores the storage map, the assignment cursor
    (including skips over early-placed records), and the pending tag
    postings.  The recovered core resumes post-assignment exactly where the
    crashed one stopped — no LId is ever handed out twice.

    ``new_journal`` receives every replayed run too (recovery chains into a
    fresh journal).  It must therefore be a *different* journal from the
    one ``journal_runs`` reads: replaying a journal into itself re-appends
    every entry.  To reuse the original journal object, recover with
    ``new_journal=None`` and attach it afterwards via ``core.set_journal``.
    """
    core = MaintainerCore(name, plan, config=config, journal=new_journal)
    for run in journal_runs:
        core.place_run(run)
    return core
