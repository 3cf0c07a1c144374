"""asyncio TCP servers hosting FLStore components.

The same pure-logic cores that power the in-process runtimes
(:class:`~repro.flstore.maintainer.MaintainerCore`,
:class:`~repro.flstore.indexer.IndexerCore`,
:class:`~repro.flstore.controller.ControllerCore`) are served here over
length-prefixed binary frames (:mod:`repro.net.protocol`), demonstrating a
real-network deployment of the sequencer-free log.  Each maintainer server
keeps one long-lived connection per peer for head-of-log gossip and one per
indexer for the tag postings it pushes to their champions.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, TYPE_CHECKING

from ..core.config import FLStoreConfig
from ..core.errors import ChariotsError, LogError
from ..core.hashing import stable_hash
from ..core.record import LogEntry
from ..flstore.controller import ControllerCore
from ..flstore.indexer import IndexerCore
from ..flstore.maintainer import MaintainerCore
from ..flstore.messages import GossipHL
from ..flstore.range_map import OwnershipPlan
from .protocol import Connection, FrameProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.netchaos import NetChaos


class _ServerConnection(FrameProtocol):
    """One accepted connection: every complete request frame is served
    inside the read callback, replies leave in request order."""

    def __init__(self, server: "_BaseServer") -> None:
        super().__init__()
        self._server = server

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._server.connections_accepted += 1
        self._server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self._server._connections.discard(self)

    def pause_writing(self) -> None:
        # The peer stopped draining replies: stop taking its requests.
        self.pause()

    def resume_writing(self) -> None:
        self.resume()

    def frame_received(self, request: Dict[str, Any]) -> None:
        chaos = self._server.chaos
        if chaos is not None:
            action, stall = chaos.decide(request["type"])
            if action == "drop":
                return  # swallow: the client times out and retries
            if action == "disconnect":
                self.abort()
                return
            if action == "delay":
                # Replies stay in request order: nothing else is read off
                # this connection until the stalled request was served.
                self.pause()
                asyncio.get_running_loop().call_later(stall, self._serve_stalled, request)
                return
        self._serve(request)

    def _serve_stalled(self, request: Dict[str, Any]) -> None:
        self._serve(request)
        self.resume()

    def _serve(self, request: Dict[str, Any]) -> None:
        try:
            # ``handle`` is a coroutine that never suspends, so it is run to
            # completion right here instead of through a task.
            handling = self._server.handle(request)
            try:
                handling.send(None)
            except StopIteration as finished:
                response = finished.value
            else:
                handling.close()
                raise RuntimeError(f"{type(self._server).__name__}.handle() suspended")
        except ChariotsError as exc:
            response = {"type": "error", "error": str(exc)}
        if response is None:
            return
        try:
            self.write(response)
        except (TypeError, ValueError, ChariotsError) as exc:
            # A reply the codec cannot represent must not kill the
            # connection: answer with an error frame instead.
            self.write({"type": "error", "error": f"unencodable reply: {exc}"})


class _BaseServer:
    """Shared listener plumbing for the component servers.

    ``chaos`` optionally installs a :class:`~repro.chaos.netchaos.NetChaos`:
    per request it may swallow the reply (the client's retry policy times
    out), stall it, or drop the connection.  ``None`` (the default) costs one
    ``is not None`` check per request.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.chaos: Optional["NetChaos"] = None
        #: Connections accepted since construction (never reset).
        self.connections_accepted = 0
        self._connections: Set[_ServerConnection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._start_lock = asyncio.Lock()

    def set_chaos(self, chaos: Optional["NetChaos"]) -> None:
        """Install (or clear) request-level fault injection."""
        self.chaos = chaos

    async def start(self) -> Tuple[str, int]:
        # Two concurrent start() calls would both bind (port 0 picks two
        # different sockets) and one listener would leak; the lock also
        # keeps the read/rebind of self.port atomic across the await.
        async with self._start_lock:
            if self._server is None:
                server = await asyncio.get_running_loop().create_server(
                    lambda: _ServerConnection(self), self.host, self.port
                )
                self._server = server
                self.port = server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        # Capture-and-null before the await: a concurrent stop() (or a
        # start() racing a shutdown) must never double-close the listener.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            for connection in list(self._connections):
                await connection.aclose()
            await server.wait_closed()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def handle(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        raise NotImplementedError


class MaintainerServer(_BaseServer):
    """Serves one log maintainer over TCP (post-assignment appends, reads,
    head-of-log queries) and gossips with its peer maintainer servers."""

    def __init__(
        self,
        name: str,
        plan: OwnershipPlan,
        config: Optional[FLStoreConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.core = MaintainerCore(name, plan, config=config)
        self.config = config or FLStoreConfig()
        self._peer_links: List[Connection] = []
        #: Indexer links in indexer-name order, the order champions are
        #: picked in (:func:`~repro.core.hashing.stable_hash`).
        self._indexer_links: List[Connection] = []
        self._gossip_task: Optional["asyncio.Task[None]"] = None

    def set_peers(self, addresses: List[Tuple[str, int]]) -> None:
        self._peer_links = [Connection(f"{host}:{port}") for host, port in addresses]

    def set_indexers(self, addresses: Mapping[str, str]) -> None:
        """``addresses`` maps indexer name to ``"host:port"``."""
        self._indexer_links = [Connection(addresses[name]) for name in sorted(addresses)]

    async def start(self) -> Tuple[str, int]:
        result = await super().start()
        self._gossip_task = asyncio.create_task(self._gossip_loop())
        return result

    async def stop(self) -> None:
        task, self._gossip_task = self._gossip_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        for link in self._peer_links + self._indexer_links:
            await link.close()
        await super().stop()

    async def _gossip_loop(self) -> None:
        """Every ``gossip_interval``: tell each peer this maintainer's
        frontier and push the postings drained since the last tick to their
        champion indexers, as one-way frames on long-lived links."""
        while True:
            await asyncio.sleep(self.config.gossip_interval)
            payload = self.core.gossip_payload()
            message = {
                "type": "gossip",
                "maintainer": payload.maintainer,
                "next_lid": payload.next_unassigned_lid,
            }
            for link in self._peer_links:
                await self._post(link, message)
            postings = self.core.drain_postings()
            if not postings or not self._indexer_links:
                continue
            links = self._indexer_links
            buckets: Dict[int, List[Tuple[str, object, int]]] = {}
            for posting in postings:
                buckets.setdefault(stable_hash(posting[0]) % len(links), []).append(posting)
            for index, bucket in buckets.items():
                await self._post(links[index], {"type": "index_update", "postings": bucket})

    @staticmethod
    async def _post(link: Connection, message: Dict[str, Any]) -> None:
        try:
            await link.post(message)
        except OSError:
            # Best-effort: a peer that is down (ConnectionError) or a host
            # out of ports or descriptors (EADDRNOTAVAIL / EMFILE) costs
            # this round's frame on this link, never the loop; the link
            # reconnects on the next round.
            pass

    async def handle(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = request["type"]
        if kind == "append":
            results = self.core.append(request["records"], min_lid=request.get("min_lid"))
            if results is None:
                return {"type": "append_deferred"}
            return {"type": "append_reply", "results": results}
        if kind == "read_lid":
            # The readable subset, plus why the first unreadable LId was not:
            # a point read raises it, an indexed read skips what is gone.
            entries: List[LogEntry] = []
            error: Optional[str] = None
            for lid in request["lids"]:
                try:
                    entries.append(self.core.get(lid))
                except LogError as exc:
                    error = error or str(exc)
            return {"type": "read_reply", "entries": entries, "error": error}
        if kind == "read_rules":
            return {"type": "read_reply", "entries": self.core.read(request["rules"])}
        if kind == "head":
            return {"type": "head_reply", "head_lid": self.core.head_of_log()}
        if kind == "gossip":
            self.core.on_gossip(GossipHL(request["maintainer"], request["next_lid"]))
            return None
        return {"type": "error", "error": f"unknown request type {kind!r}"}


class IndexerServer(_BaseServer):
    """Serves one tag indexer over TCP."""

    def __init__(self, name: str, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host, port)
        self.core = IndexerCore(name)

    async def handle(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = request["type"]
        if kind == "index_update":
            self.core.add_many(request["postings"])
            return None
        if kind == "lookup":
            lids = self.core.lookup(
                request["tag_key"],
                tag_value=request.get("tag_value"),
                tag_min_value=request.get("tag_min_value"),
                limit=request.get("limit"),
                most_recent=request.get("most_recent", True),
                max_lid=request.get("max_lid"),
            )
            return {"type": "lookup_reply", "lids": lids}
        return {"type": "error", "error": f"unknown request type {kind!r}"}


class ControllerServer(_BaseServer):
    """Serves the stateless control plane over TCP."""

    def __init__(
        self,
        plan: OwnershipPlan,
        maintainer_addresses: Dict[str, str],
        indexer_addresses: Optional[Dict[str, str]] = None,
        config: Optional[FLStoreConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.core = ControllerCore(plan, indexers=list(indexer_addresses or {}), config=config)
        self.maintainer_addresses = dict(maintainer_addresses)
        self.indexer_addresses = dict(indexer_addresses or {})

    async def handle(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if request["type"] == "session":
            info = self.core.session_info(request.get("request_id", 0))
            return {
                "type": "session_info",
                "maintainers": self.maintainer_addresses,
                "indexers": self.indexer_addresses,
                "epochs": [[s, b, list(ms)] for s, b, ms in info.epochs],
            }
        return {"type": "error", "error": f"unknown request type {request['type']!r}"}
