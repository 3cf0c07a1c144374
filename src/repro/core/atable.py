"""The Awareness Table (ATable) of §6.1, inspired by Replicated Dictionary.

For ``n`` datacenters the ATable at datacenter ``A`` is an ``n × n`` matrix
``T_A`` of TOIds.  ``T_A[B, C] = t`` means *A is certain that B knows about
all records generated at host datacenter C up to TOId t*.

The table drives two mechanisms:

* **Propagation filtering** — when A sends its log to B it only ships
  records ``r`` with ``TOId(r) > T_A[B, host(r)]`` (§6.1, "Propagate").
  Only the abstract solution filters this way; the pipeline's senders
  replicate from a cursor over the log.
* **Garbage collection** — a record ``r`` may be collected at A once every
  datacenter knows it: ``∀j: T_A[j, host(r)] ≥ TOId(r)`` (§6.1,
  "Garbage collection").
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .errors import ConfigurationError
from .record import DatacenterId, KnowledgeVector, RecordId


class AwarenessTable:
    """Mutable n×n awareness matrix for one datacenter."""

    def __init__(self, self_id: DatacenterId, datacenters: Iterable[DatacenterId]) -> None:
        self.self_id = self_id
        self.datacenters: List[DatacenterId] = sorted(set(datacenters))
        if self_id not in self.datacenters:
            raise ConfigurationError(
                f"datacenter {self_id!r} missing from member list {self.datacenters}"
            )
        self._table: Dict[DatacenterId, Dict[DatacenterId, int]] = {
            row: {col: 0 for col in self.datacenters} for row in self.datacenters
        }

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def get(self, knower: DatacenterId, host: DatacenterId) -> int:
        """``T[knower, host]``: what ``knower`` knows of ``host``'s records."""
        return self._table[knower][host]

    def self_row(self) -> KnowledgeVector:
        """This datacenter's own knowledge vector ``T[self, *]``."""
        return dict(self._table[self.self_id])

    def as_matrix(self) -> Dict[DatacenterId, Dict[DatacenterId, int]]:
        """Deep copy of the whole table (for snapshots sent over the wire)."""
        return {row: dict(cols) for row, cols in self._table.items()}

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def record_appended(self, toid: int) -> None:
        """A local append happened: set ``T[self, self] = toid`` (§6.1 Append)."""
        current = self._table[self.self_id][self.self_id]
        if toid != current + 1:
            raise ConfigurationError(
                f"local TOIds must be dense: expected {current + 1}, got {toid}"
            )
        self._table[self.self_id][self.self_id] = toid

    def record_incorporated(self, rid: RecordId) -> None:
        """An external record was added to the local log (§6.1 Reception)."""
        row = self._table[self.self_id]
        if rid.toid > row[rid.host]:
            row[rid.host] = rid.toid

    def merge(self, remote_matrix: Dict[DatacenterId, Dict[DatacenterId, int]]) -> None:
        """Incorporate an ATable snapshot received from a peer.

        Every cell is advanced to the element-wise maximum — awareness is
        monotone.  Rows and columns of datacenters outside this table's
        membership are ignored.
        """
        for row_dc, cols in remote_matrix.items():
            if row_dc not in self._table:
                continue
            mine = self._table[row_dc]
            for col_dc, toid in cols.items():
                if col_dc in mine and toid > mine[col_dc]:
                    mine[col_dc] = toid

    def note_peer_knowledge(self, peer: DatacenterId, vector: KnowledgeVector) -> None:
        """Advance ``T[peer, *]`` from an explicit knowledge vector."""
        row = self._table[peer]
        for host, toid in vector.items():
            if host in row and toid > row[host]:
                row[host] = toid

    # ------------------------------------------------------------------ #
    # Derived queries
    # ------------------------------------------------------------------ #

    def peer_knows(self, peer: DatacenterId, rid: RecordId) -> bool:
        """Whether ``peer`` is known to have record ``rid`` (§6.1 Propagate)."""
        return self._table[peer][rid.host] >= rid.toid

    def gc_frontier(self, host: DatacenterId) -> int:
        """Highest TOId of ``host`` known by *every* datacenter.

        Records from ``host`` with TOId at or below this value are safe to
        garbage collect locally.
        """
        return min(self._table[knower][host] for knower in self.datacenters)

    def gc_vector(self) -> KnowledgeVector:
        """GC frontier for every host datacenter at once."""
        return {host: self.gc_frontier(host) for host in self.datacenters}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AwarenessTable):
            return NotImplemented
        return self._table == other._table and self.self_id == other.self_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AwarenessTable(self={self.self_id!r}, table={self._table!r})"
