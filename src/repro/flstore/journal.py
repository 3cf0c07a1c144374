"""Durability: append-only journals and maintainer crash recovery.

The paper treats persistence as a given ("Log maintainers are responsible
for persisting the log's records") and lists component failures among the
challenges Chariots handles.  This module provides the mechanism: every
placement/append can be recorded in a journal, and a restarted maintainer
replays it to recover exactly the slice it owned — the post-assignment
cursor, the placed-record frontier, and the tag postings all rebuild from
the journal alone.

Two journal flavours:

* :class:`MemoryJournal` — in-process, used by tests and failure drills;
* :class:`FileJournal` — JSON-lines on disk, crash-safe via append-only
  writes (an interrupted final line is skipped on replay and cut off
  before the file is appended to again).

The JSON form of a record (:func:`record_to_dict`) is the *disk* format of
:class:`FileJournal` and of :class:`~repro.flstore.archive.ArchiveStore`
dumps; nothing on a socket uses it.
"""

from __future__ import annotations

import base64
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

from ..core.config import FLStoreConfig
from ..core.errors import LogError
from ..core.record import Record, RecordId
from .maintainer import MaintainerCore
from .range_map import OwnershipPlan

# --------------------------------------------------------------------- #
# Disk format
# --------------------------------------------------------------------- #


def _value_to_json(value: Any) -> Any:
    """A record body or tag value in JSON-serialisable form.

    Scalars stay verbatim; everything else is tagged — ``bytes`` (base64),
    tuples, lists, and dicts (as pair lists, so keys are not restricted to
    strings) — and comes back with its exact Python type.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"$": "bytes", "v": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"$": "t", "v": [_value_to_json(v) for v in value]}
    if isinstance(value, list):
        return {"$": "l", "v": [_value_to_json(v) for v in value]}
    if isinstance(value, dict):
        return {
            "$": "d",
            "v": [[_value_to_json(k), _value_to_json(v)] for k, v in value.items()],
        }
    raise LogError(f"cannot persist a value of type {type(value).__name__}: {value!r}")


def _value_from_json(value: Any) -> Any:
    """Inverse of :func:`_value_to_json`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if not isinstance(value, dict) or "$" not in value:
        raise LogError(f"malformed persisted value: {value!r}")
    tag = value["$"]
    payload = value.get("v")
    if tag == "bytes":
        return base64.b64decode(payload)
    if tag == "t":
        return tuple(_value_from_json(v) for v in payload)
    if tag == "l":
        return [_value_from_json(v) for v in payload]
    if tag == "d":
        return {_value_from_json(k): _value_from_json(v) for k, v in payload}
    raise LogError(f"unknown persisted value tag {tag!r}")


def record_to_dict(record: Record) -> Dict[str, Any]:
    return {
        "host": record.host,
        "toid": record.toid,
        "body": _value_to_json(record.body),
        "tags": [[k, _value_to_json(v)] for k, v in record.tags],
        "deps": [[dc, t] for dc, t in record.deps],
        "internal": record.internal,
    }


def record_from_dict(data: Dict[str, Any]) -> Record:
    return Record(
        rid=RecordId(data["host"], data["toid"]),
        body=_value_from_json(data["body"]),
        tags=tuple((k, _value_from_json(v)) for k, v in data.get("tags", [])),
        deps=tuple((dc, t) for dc, t in data.get("deps", [])),
        internal=bool(data.get("internal", False)),
    )


def _open_for_append(path: str) -> TextIO:
    """Open ``path`` for appending, first cutting off a torn final line.

    A crash mid-write leaves a last line without its newline.  That entry
    was never acknowledged, so dropping it is safe — but appending behind
    it would glue the next entry onto the fragment, and replay would lose
    that entry and every later one with it.
    """
    if os.path.exists(path):
        with open(path, "rb+") as handle:
            end = keep = handle.seek(0, os.SEEK_END)
            while keep > 0:
                start = max(0, keep - 4096)
                handle.seek(start)
                newline = handle.read(keep - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                keep = start
            if keep < end:
                handle.truncate(keep)
    return open(path, "a", encoding="utf-8")


# --------------------------------------------------------------------- #
# Journals
# --------------------------------------------------------------------- #


class MemoryJournal:
    """An in-memory append-only journal of (LId, record) placements."""

    def __init__(self) -> None:
        self._entries: List[Tuple[int, Record]] = []

    def __call__(self, lid: int, record: Record) -> None:
        self._entries.append((lid, record))

    def __len__(self) -> int:
        return len(self._entries)

    def replay(self) -> Iterator[Tuple[int, Record]]:
        return iter(list(self._entries))

    def truncate_below(self, lid: int) -> int:
        """Compact the journal after garbage collection."""
        before = len(self._entries)
        self._entries = [(l, r) for l, r in self._entries if l >= lid]
        return before - len(self._entries)


class FileJournal:
    """A JSON-lines journal on disk.

    Each line is ``{"lid": ..., "record": {...}}``.  Writes are appended
    and flushed per entry; a torn final line (the record it described was
    never acknowledged, so dropping it is safe) is skipped by replay and
    cut off whenever the file is opened, before anything is appended
    behind it.

    Instances are picklable (the open handle is dropped and reopened in
    append mode on unpickle), so a maintainer journaling to disk can be
    shipped into a multiproc worker — the worker's writes land in the same
    file the parent later replays for crash recovery.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = _open_for_append(path)

    def __getstate__(self) -> Dict[str, Any]:
        return {"path": self.path}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self._file = _open_for_append(self.path)

    def __call__(self, lid: int, record: Record) -> None:
        line = json.dumps({"lid": lid, "record": record_to_dict(record)})
        self._file.write(line + "\n")
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def replay(self) -> Iterator[Tuple[int, Record]]:
        self._file.flush()
        if not os.path.exists(self.path):
            return iter(())

        def entries() -> Iterator[Tuple[int, Record]]:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError:
                        return  # torn tail from a crash mid-write
                    yield data["lid"], record_from_dict(data["record"])

        return entries()


def recover_maintainer_core(
    name: str,
    plan: OwnershipPlan,
    journal_entries: Iterator[Tuple[int, Record]],
    config: Optional[FLStoreConfig] = None,
    new_journal: Optional[Callable[[int, Record], None]] = None,
) -> MaintainerCore:
    """Rebuild a maintainer's state from its journal after a crash.

    Replays every journaled placement through the placed-mode path, which
    restores the storage map, the assignment cursor (including skips over
    early-placed records), and the pending tag postings.  The recovered
    core resumes post-assignment exactly where the crashed one stopped —
    no LId is ever handed out twice.

    ``new_journal`` receives every replayed placement too (recovery chains
    into a fresh journal).  It must therefore be a *different* journal from
    the one ``journal_entries`` reads: replaying a journal into itself
    re-appends every entry — on a :class:`FileJournal` that is a feedback
    loop (replay lazily reads the file the replay is appending to).  To
    reuse the original journal object, recover with ``new_journal=None``
    and attach it afterwards via ``core.set_journal``.
    """
    core = MaintainerCore(name, plan, config=config, journal=new_journal)
    for lid, record in journal_entries:
        core.place(lid, record)
    return core
