"""Calibrations: public codec, envelope, journal and framing functions
timed on the workload's own messages.

Actors of the multiproc workloads live in other processes, so their codec
and journal time cannot be observed from the parent; instead the same
public functions are timed here on messages built from the workload's
records, and multiplied by how often a record crosses them.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable, Dict, List

from repro.chariots.messages import DraftBatch, DraftRecord
from repro.core.record import LogEntry, Record, RecordId, freeze_tags
from repro.flstore.journal import FileJournal
from repro.flstore.messages import PlaceRecords, ReadNewReply
from repro.net.binary_codec import decode_value_binary, encode_value_binary
from repro.net.protocol import decode_body, encode_frame_binary
from repro.runtime.messages import RecordBatch

from ledger.workloads import GeoOps

#: Records per calibration message: the batcher's flush threshold, i.e. the
#: batch the pipeline forms on its own under load.
BATCH = 64


def _time_us(fn: Callable[[], Any], min_seconds: float = 0.04) -> float:
    """Mean microseconds per call of ``fn``, over at least ``min_seconds``."""
    fn()  # warm
    calls = 0
    start = perf_counter()
    while True:
        for _ in range(10):
            fn()
        calls += 10
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls * 1e6


def geo_records(ops: GeoOps) -> List[Record]:
    """``BATCH`` final records as the queue stage builds them from the stream."""
    records = []
    for i in range(BATCH):
        tag, _dep = ops.op(i)
        records.append(
            Record(
                rid=RecordId("A", i + 1),
                body=ops.body(i),
                tags=freeze_tags({"k": tag}) if tag is not None else (),
                deps=(("B", i),) if i else (),
            )
        )
    return records


def geo_codec_path(records: List[Record]) -> Dict[str, float]:
    """Binary-codec µs per record summed along the ``geo-mp`` path.

    With the ledger's placement a record is encoded and decoded once as a
    single-draft ``DraftBatch`` (client → batcher), twice inside a
    ``PlaceRecords`` (queue → store, at its host and at the remote
    datacenter) and once inside a ``ReadNewReply`` (store → sender); the
    shipment itself stays inside the stage worker.
    """
    n = len(records)
    draft = DraftBatch([DraftRecord("A/client/1", 1, records[0].body, records[0].tags, ())])
    place = PlaceRecords(list(enumerate(records)))
    read_new = ReadNewReply(1, [LogEntry(i, r) for i, r in enumerate(records)], n - 1)
    encode = decode = 0.0
    for message, per_message, crossings in ((draft, 1, 1), (place, n, 2), (read_new, n, 1)):
        blob = encode_value_binary(message)
        encode += crossings * _time_us(lambda m=message: encode_value_binary(m)) / per_message
        decode += crossings * _time_us(lambda b=blob: decode_value_binary(b)) / per_message
    return {
        "net.binary_codec.encode_us_per_record": encode,
        "net.binary_codec.decode_us_per_record": decode,
    }


def batch_codec(records: List[Record]) -> Dict[str, float]:
    """The bulk ``RecordBatch`` frame: encode, and lazy decode (spans only)."""
    n = len(records)
    batch = RecordBatch(records)
    blob = encode_value_binary(batch)
    return {
        "net.binary_codec.batch_encode_us_per_record": _time_us(lambda: encode_value_binary(batch)) / n,
        "net.binary_codec.batch_lazy_decode_us_per_record": _time_us(lambda: decode_value_binary(blob)) / n,
    }


def envelope_us(runtime: Any, records: List[Record]) -> float:
    """``MultiprocRuntime.prepare_encoded`` (the 0xC6 envelope) per frame."""
    payload = encode_value_binary(PlaceRecords(list(enumerate(records))))
    return _time_us(lambda: runtime.prepare_encoded("A/queue/0", "A/store/0", payload))


def journal(records: List[Record], directory: str) -> Dict[str, float]:
    """``FileJournal.__call__`` per record (serialise, write, flush)."""
    path = os.path.join(directory, "calibration.jsonl")
    sink = FileJournal(path)
    try:
        start = perf_counter()
        for _ in range(4):
            for lid, record in enumerate(records):
                sink(lid, record)
        elapsed = perf_counter() - start
    finally:
        sink.close()
    written = 4 * len(records)
    size = os.path.getsize(path)
    os.remove(path)
    return {
        "flstore.journal.append_us_per_record": elapsed / written * 1e6,
        "flstore.journal.bytes_per_record": size / written,
    }


def frames(records: List[Record]) -> Dict[str, float]:
    """TCP request framing: one binary ``append`` request carrying
    ``records`` through ``encode_frame_binary`` / ``decode_body``."""
    # The binary wire packs records natively, as AsyncFLStoreClient does.
    request = {"type": "append", "records": records, "min_lid": None}
    body = encode_frame_binary(request)[4:]
    return {
        "net.protocol.frame_encode_us": _time_us(lambda: encode_frame_binary(request)),
        "net.protocol.frame_decode_us": _time_us(lambda: decode_body(body)),
    }
