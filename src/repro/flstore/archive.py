"""Cold storage for garbage-collected records (§6.1).

"If the user choses not to garbage collect the records then they may employ
a cold storage solution to archive older records."  This module is that
solution: an :class:`ArchiveStore` receives every record the maintainers
evict (via the maintainer's ``archive`` hook) and keeps it readable — so
the *combined* view of archive plus live log still covers the entire
history, which is what auditing and time-travel reads (§1) need.

:meth:`ArchiveStore.dump` writes a readable export — JSON lines, the JSON
form of a record being :func:`record_to_dict` — which nothing else in the
repository reads or writes (journals are binary, see
:mod:`repro.flstore.journal`).
"""

from __future__ import annotations

import base64
import dataclasses
import json
from bisect import insort
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import LidOutOfRangeError, LogError
from ..core.record import LogEntry, ReadRules, Record, RecordId

# --------------------------------------------------------------------- #
# The export format: one JSON object per line
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



class ArchiveStore:
    """Append-only cold storage, indexed by LId and tag key."""

    def __init__(self) -> None:
        self._records: Dict[int, Record] = {}
        self._lids: List[int] = []
        self._tag_index: Dict[str, List[int]] = {}

    # -- the maintainer-facing hook ---------------------------------------- #

    def __call__(self, lid: int, record: Record) -> None:
        """Accept an evicted record (idempotent for retried evictions)."""
        if lid in self._records:
            return
        self._records[lid] = record
        insort(self._lids, lid)
        for key, _value in record.tags:
            bucket = self._tag_index.setdefault(key, [])
            insort(bucket, lid)

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

    def lid_range(self) -> Optional[Tuple[int, int]]:
        if not self._lids:
            return None
        return (self._lids[0], self._lids[-1])

    # -- persistence ---------------------------------------------------------- #

    def dump(self, path: str) -> int:
        """Write the archive as JSON lines; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for lid in self._lids:
                handle.write(
                    json.dumps({"lid": lid, "record": record_to_dict(self._records[lid])})
                    + "\n"
                )
        return len(self._lids)

    @classmethod
    def load(cls, path: str) -> "ArchiveStore":
        store = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                store(data["lid"], record_from_dict(data["record"]))
        return store


class TieredReader:
    """Reads that fall back from the live log to the archive.

    Gives applications the paper's "keep the log forever" semantics even
    when the maintainers garbage-collect aggressively: recent positions are
    served by a live client, collected ones by the archive.
    """

    def __init__(self, live_client: Any, archive: ArchiveStore) -> None:
        self.live = live_client
        self.archive = archive

    def read_lid(self, lid: int) -> Optional[LogEntry]:
        reply = self.live.read_lid(lid)
        entries = getattr(reply, "entries", None)
        if entries:
            return entries[0]
        return self.archive.try_get(lid)

    def read(self, rules: ReadRules) -> List[LogEntry]:
        entries = list(self.live.read(rules))
        remaining = None if rules.limit is None else rules.limit - len(entries)
        if remaining is None or remaining > 0:
            archived = self.archive.read(dataclasses.replace(rules, limit=remaining))
            seen = {entry.lid for entry in entries}
            entries.extend(e for e in archived if e.lid not in seen)
        entries.sort(key=lambda e: e.lid, reverse=rules.most_recent)
        if rules.limit is not None:
            entries = entries[: rules.limit]
        return entries
