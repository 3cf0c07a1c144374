"""Table 1: comparison of shared log services (§2.3).

The paper positions Chariots as the only shared log offering causal
consistency together with both per-replica partitioning and replication.
This module encodes the table as data so the claim is testable and
``python -m repro.cli table1`` can reprint it, with ``yes`` / ``no`` where
the paper prints check and cross marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class SystemEntry:
    """One row of Table 1."""

    name: str
    consistency: str  # "strong" or "causal"
    partitioned: bool  # log spans >1 machine per replica
    replicated: bool  # >1 independent copy of the log
    reference: str


TABLE1: Tuple[SystemEntry, ...] = (
    SystemEntry("CORFU/Tango", "strong", True, False, "[7, 8]"),
    SystemEntry("LogBase", "strong", True, False, "[33]"),
    SystemEntry("RAMCloud", "strong", True, False, "[29]"),
    SystemEntry("Blizzard", "strong", True, False, "[25]"),
    SystemEntry("Ivy", "strong", True, False, "[26]"),
    SystemEntry("Zebra", "strong", True, False, "[18]"),
    SystemEntry("Hyder", "strong", True, False, "[11]"),
    SystemEntry("Megastore", "strong", False, True, "[6]"),
    SystemEntry("Paxos-CP", "strong", False, True, "[30]"),
    SystemEntry("Message Futures", "causal", False, True, "[27]"),
    SystemEntry("PRACTI", "causal", False, True, "[10]"),
    SystemEntry("Bayou", "causal", False, True, "[32]"),
    SystemEntry("Lazy Replication", "causal", False, True, "[19]"),
    SystemEntry("Replicated Dictionary", "causal", False, True, "[36]"),
    SystemEntry("Chariots", "causal", True, True, "this work"),
)


def groups() -> List[Tuple[str, bool, bool, List[str]]]:
    """Table 1's four (consistency, partitioned, replicated) groups."""
    seen: List[Tuple[str, bool, bool]] = []
    out: List[Tuple[str, bool, bool, List[str]]] = []
    for entry in TABLE1:
        key = (entry.consistency, entry.partitioned, entry.replicated)
        if key not in seen:
            seen.append(key)
            out.append((*key, []))
        for row in out:
            if (row[0], row[1], row[2]) == key:
                row[3].append(entry.name)
    return out


def render() -> str:
    """Pretty-print Table 1 in the paper's grouping."""
    mark = {True: "yes", False: "no"}
    lines = [
        "Consistency  Partitioned  Replicated  Systems",
        "-" * 72,
    ]
    for consistency, partitioned, replicated, names in groups():
        lines.append(
            f"{consistency.capitalize():<12} {mark[partitioned]:^11} "
            f"{mark[replicated]:^10}  {', '.join(names)}"
        )
    return "\n".join(lines)
