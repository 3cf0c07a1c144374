"""The four named workloads: their sizes and their seeded input generators.

Pure data and arithmetic (no ``repro`` import): the generators are
random-access functions of ``(seed, op index)``, so a worker-side probe can
recompute the body any record must carry, and the same seed always yields
the same inputs whatever the system's speed.

Sizes are given for ``REF_SECONDS`` of measuring (the ``run_seconds`` of
``BENCHMARK.json``) and scale linearly with ``--seconds``; open-loop phases
scale in duration, closed-loop phases in record count.  They were chosen on
a 2-core shared host so that a whole run (set-ups, gates, tear-downs
included) ends well inside the contract's per-run share.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

REF_SECONDS = 20.0

#: §7 record size.
BODY_BYTES = 512
#: Warm-up records per trial: sent, acked and gated like any other record,
#: but excluded from every timed window (their time is part of ``setup_s``).
WARMUP_RECORDS = 500
#: Distinct tag values (tag key ``k``).
TAG_VALUES = 50

_TABLE = 10007  # prime, so the decision pattern never aligns with A/B alternation
_INDEX = struct.Struct(">Q")


class GeoOps:
    """Seeded append stream of the three ``geo-*`` workloads.

    Op ``i`` goes to datacenter ``i % n_dcs``; 20 % of ops carry one tag
    (``k`` → a value in ``[0, TAG_VALUES)``, the indexer path) and 5 % ask
    for an explicit cross-datacenter dependency (the queue's dependency
    merge path).  The body is the op index followed by a seeded slice, so
    every record is distinct and checkable from its index alone.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._pool = rng.randbytes(4096 + BODY_BYTES)
        #: (tag value or None, wants an explicit dependency)
        self._table: List[Tuple[Optional[int], bool]] = [
            (
                rng.randrange(TAG_VALUES) if rng.random() < 0.20 else None,
                rng.random() < 0.05,
            )
            for _ in range(_TABLE)
        ]

    def op(self, i: int) -> Tuple[Optional[int], bool]:
        return self._table[i % _TABLE]

    def body(self, i: int) -> bytes:
        off = (i * 37) & 4095
        return _INDEX.pack(i) + self._pool[off : off + BODY_BYTES - _INDEX.size]


# -- flstore-tcp-mixed ---------------------------------------------------- #

APPEND, READ_LID, READ_TAG = "append", "read_lid", "read_tag"
#: Records per ``append_records`` call.
APPEND_BATCH = 20


class FlstoreScript:
    """Seeded op script of one ``flstore-tcp-mixed`` client.

    50 % ``append_records`` (``APPEND_BATCH`` tagged records), 35 %
    ``head()`` then ``read_lid`` of a position drawn uniformly below the
    head, 15 % indexed tag read.
    """

    def __init__(self, seed: int, client: int) -> None:
        rng = random.Random(f"{seed}/{client}")
        self._pool = rng.randbytes(4096 + BODY_BYTES)
        self._kinds = [
            APPEND if u < 0.50 else READ_LID if u < 0.85 else READ_TAG
            for u in (rng.random() for _ in range(_TABLE))
        ]
        self._draws = [rng.random() for _ in range(_TABLE)]

    def kind(self, i: int) -> str:
        return self._kinds[i % _TABLE]

    def fraction(self, i: int) -> float:
        """Where below the head op ``i`` reads (``read_lid``)."""
        return self._draws[i % _TABLE]

    def tag_value(self, i: int) -> int:
        """Tag value of record number ``i`` / of tag-read op ``i``."""
        return int(self._draws[(i * 7 + 3) % _TABLE] * TAG_VALUES)

    def body(self, toid: int) -> bytes:
        off = (toid * 37) & 4095
        return _INDEX.pack(toid) + self._pool[off : off + BODY_BYTES - _INDEX.size]


# -- sizes ------------------------------------------------------------------ #


@dataclass(frozen=True)
class GeoSpec:
    """One ``geo-*`` workload at ``REF_SECONDS``."""

    name: str
    multiproc: bool
    supervised: bool
    trials: int
    #: Closed-loop phase: records per trial (``sat`` on multiproc).
    closed_records: int
    #: Open-loop phases (multiproc only): fixed rate, and seconds of each.
    rate: float = 0.0
    rate_seconds: float = 0.0
    lag_seconds: float = 0.0
    #: Report times at reference host speed (``hostinfo.HostClock``).  Off
    #: for the workload whose times are set by timers, not by the CPU.
    host_normalised: bool = True

    def scaled(self, scale: float, trials: Optional[int] = None) -> "GeoSpec":
        return replace(
            self,
            trials=self.trials if trials is None else trials,
            closed_records=max(400, int(self.closed_records * scale)),
            rate_seconds=self.rate_seconds * scale,
            lag_seconds=self.lag_seconds * scale,
        )


@dataclass(frozen=True)
class FlstoreSpec:
    """``flstore-tcp-mixed`` at ``REF_SECONDS``."""

    name: str
    trials: int
    clients: int
    ops_per_client: int

    def scaled(self, scale: float, trials: Optional[int] = None) -> "FlstoreSpec":
        return replace(
            self,
            trials=self.trials if trials is None else trials,
            ops_per_client=max(60, int(self.ops_per_client * scale)),
        )


#: Closed-loop window of un-acked appends in the multiproc ``sat`` phase.
SAT_WINDOW = 256
#: Un-acked appends in flight during the multiproc warm-up.  A 256-frame
#: burst into a freshly opened worker connection, before the kernel has grown
#: its receive buffer, left that connection in a TCP zero-window stall on
#: about one fresh deployment in twelve while sizing (README "Hazards");
#: with 32 in flight it was one in three hundred.
WARMUP_WINDOW = 32
#: Least seconds between two host-speed calibration units (0.2-0.4 ms each).
CALIBRATION_INTERVAL = 0.005
#: Appends between pumps of the single-process closed loop.
LOCAL_CHUNK = 200
#: Hard cap on records per multiproc trial (larger bursts have wedged the
#: store worker while sizing; see README "Hazards").
MAX_MP_TRIAL_RECORDS = 60_000

WORKLOADS = {
    "geo-local": GeoSpec(
        "geo-local", multiproc=False, supervised=False, trials=9, closed_records=64_000
    ),
    "geo-mp": GeoSpec(
        "geo-mp",
        multiproc=True,
        supervised=False,
        trials=5,
        closed_records=20_000,
        rate=5000.0,
        rate_seconds=1.2,
        lag_seconds=0.9,
    ),
    "geo-mp-supervised": GeoSpec(
        "geo-mp-supervised",
        multiproc=True,
        supervised=True,
        trials=4,
        closed_records=6_000,
        rate=1500.0,
        rate_seconds=1.5,
        lag_seconds=1.0,
        host_normalised=False,
    ),
    "flstore-tcp-mixed": FlstoreSpec(
        "flstore-tcp-mixed", trials=20, clients=2, ops_per_client=750
    ),
}

WHY = {
    "geo-local": "single-process LocalRuntime: stage handlers do all the work, "
    "so stage-logic changes show here and codec/router/supervision changes must not",
    "geo-mp": "two worker processes: codec, 0xC6 envelope, parent routing and sockets "
    "dominate the real-process six-stage two-DC append-to-replicated path",
    "geo-mp-supervised": "geo-mp plus ProcessSupervisor and FileJournal maintainers: "
    "isolates the supervision tax (sequenced envelopes, snapshots, held outputs, journal)",
    "flstore-tcp-mixed": "TCP FLStore with reads beside writes: request/response framing, "
    "point and indexed reads, no Chariots stages; the only workload a read regression shows on",
}
