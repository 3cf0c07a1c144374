"""Tracing from outside: per-instance wrappers around public entry points.

The ledger never edits ``src/``.  A traced run instead replaces, on each
*instance*, the public methods a layer is entered through — an actor's
``on_message``, the callbacks it hands to ``set_timer``, its ``send``; a
TCP server's ``handle`` — with timing wrappers.  Spans stay in memory and
are written as JSONL when the trial ends.

A span is ``(id, layer, actor, start, end, parent, trace)``: ``parent`` is
the span during which the message that caused this one was ``send``-ed,
``trace`` the driver chunk that rooted the chain.  ``LocalRuntime``
delivers every message through its event loop, so handlers never nest and
a span's duration is its layer's self time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, str, float, float, Optional[int], int]

#: Actor class name → layer (module under ``src/repro``).
LAYER_OF = {
    "ChariotsClient": "chariots.client",
    "Batcher": "chariots.batcher",
    "FilterStage": "chariots.filters",
    "QueueStage": "chariots.queues",
    "LogMaintainer": "flstore.maintainer",
    "Sender": "chariots.sender",
    "Receiver": "chariots.receiver",
    "Indexer": "flstore.indexer",
    "GcCoordinator": "chariots.gc",
    "Controller": "flstore.controller",
}


class SpanLog:
    """In-memory span store shared by the tracers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.busy: Dict[str, float] = defaultdict(float)
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def add(
        self,
        sid: int,
        layer: str,
        actor: str,
        start: float,
        end: float,
        parent: Optional[int],
        trace: int,
    ) -> None:
        self.spans.append((sid, layer, actor, start, end, parent, trace))
        self.busy[layer] += end - start

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "layer", "actor", "start", "end", "parent", "trace")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class LocalTracer:
    """Wraps the actors of a single-process runtime.

    Install on every actor *before* ``runtime.start()`` so the periodic
    timers armed in ``on_start`` are wrapped too.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        #: Messages sent, by message class name (flushes, gossip, …).
        self.sent: Counter[str] = Counter()
        #: Seconds inside ``client.append`` (driver-called, so not a handler).
        self.append_seconds = 0.0
        self._current: Optional[int] = None
        self._trace = 0
        #: (id(message), dst) → (sending span, trace) until delivery; the
        #: loop's pending closure keeps the message alive, so ids are unique.
        self._in_flight: Dict[Tuple[int, str], Tuple[Optional[int], int]] = {}

    # -- driver side ------------------------------------------------------ #

    def begin_chunk(self) -> int:
        """Open the driver span that roots everything sent until
        :meth:`end_chunk`; returns its id."""
        self._trace += 1
        self._current = self.log.new_id()
        return self._current

    def end_chunk(self, sid: int, start: float, end: float) -> None:
        self.log.add(sid, "driver", "driver", start, end, None, self._trace)
        self._current = None

    # -- wrapping ----------------------------------------------------------- #

    def wrap(self, actor: Any) -> None:
        layer = LAYER_OF.get(type(actor).__name__, "other")
        name = actor.name
        log = self.log
        in_flight = self._in_flight

        def run_span(parent: Optional[int], trace: int, fn: Callable[..., None], *args: Any) -> None:
            sid = log.new_id()
            outer, self._current = self._current, sid
            start = perf_counter()
            try:
                fn(*args)
            finally:
                end = perf_counter()
                self._current = outer
                log.add(sid, layer, name, start, end, parent, trace)

        on_message = actor.on_message

        def traced_on_message(sender: str, message: Any) -> None:
            parent, trace = in_flight.pop((id(message), name), (None, self._trace))
            run_span(parent, trace, on_message, sender, message)

        send = actor.send

        def traced_send(dst: str, message: Any) -> None:
            in_flight[(id(message), dst)] = (self._current, self._trace)
            self.sent[type(message).__name__] += 1
            send(dst, message)

        set_timer = actor.set_timer

        def traced_set_timer(
            delay: float, callback: Callable[[], None], periodic: bool = False
        ) -> Any:
            return set_timer(
                delay, lambda: run_span(None, self._trace, callback), periodic
            )

        actor.on_message = traced_on_message
        actor.send = traced_send
        actor.set_timer = traced_set_timer

    def wrap_client_append(self, client: Any) -> None:
        """Time ``client.append`` (called by the driver, outside any handler)
        as client-layer busy time, without a span per record."""
        append = client.append
        busy = self.log.busy

        def traced_append(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return append(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                busy["chariots.client"] += elapsed
                self.append_seconds += elapsed

        client.append = traced_append


class ServerTracer:
    """Wraps the public ``handle`` coroutine of TCP component servers.

    ``handle`` never awaits, so its wall time is handler self time.  The
    two clients' requests interleave, so a server span cannot name the
    client op that caused it: ``parent`` stays ``None``.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()

    def wrap(self, server: Any, layer: str) -> None:
        handle = server.handle
        name = server.core.name
        log = self.log

        async def traced_handle(request: Dict[str, Any], *args: Any) -> Any:
            start = perf_counter()
            try:
                return await handle(request, *args)
            finally:
                end = perf_counter()
                kind = request["type"]
                self.seconds[kind] += end - start
                self.calls[kind] += 1
                log.add(log.new_id(), layer, f"{name}:{kind}", start, end, None, 0)

        server.handle = traced_handle

    def mean_us(self, *kinds: str) -> float:
        calls = sum(self.calls[k] for k in kinds)
        return sum(self.seconds[k] for k in kinds) / calls * 1e6 if calls else 0.0
