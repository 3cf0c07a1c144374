"""asyncio TCP servers hosting FLStore components.

The same pure-logic cores that power the in-process runtimes
(:class:`~repro.flstore.maintainer.MaintainerCore`,
:class:`~repro.flstore.indexer.IndexerCore`,
:class:`~repro.flstore.controller.ControllerCore`) are served here over
length-prefixed binary frames (:mod:`repro.net.protocol`), demonstrating a
real-network deployment of the sequencer-free log.  Head-of-log gossip between maintainer servers runs
over the same connections.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..core.config import FLStoreConfig
from ..core.errors import ChariotsError, NetworkProtocolError
from ..flstore.controller import ControllerCore
from ..flstore.indexer import IndexerCore
from ..flstore.maintainer import MaintainerCore
from ..flstore.messages import GossipHL
from ..flstore.range_map import OwnershipPlan
from .protocol import read_frame, write_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.netchaos import NetChaos


class _BaseServer:
    """Shared accept-loop plumbing for the component servers.

    ``chaos`` optionally installs a :class:`~repro.chaos.netchaos.NetChaos`:
    per request it may swallow the reply (the client's retry policy times
    out), stall it, or drop the connection.  ``None`` (the default) costs one
    ``is not None`` check per request.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.chaos: Optional["NetChaos"] = None
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
                server = await asyncio.start_server(self._serve, self.host, self.port)
                self._server = server
                self.port = server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        # Capture-and-null before the await: a concurrent stop() (or a
        # start() racing a shutdown) must never double-close the listener.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await read_frame(reader)
                if request is None:
                    break
                if self.chaos is not None:
                    action, stall = self.chaos.decide(request["type"])
                    if action == "drop":
                        continue  # swallow: the client times out and retries
                    if action == "disconnect":
                        break
                    if action == "delay":
                        await asyncio.sleep(stall)
                try:
                    response = await self.handle(request)
                except ChariotsError as exc:
                    response = {"type": "error", "error": str(exc)}
                if response is not None:
                    try:
                        await write_frame(writer, response)
                    except (TypeError, ValueError, ChariotsError) as exc:
                        # A reply the codec cannot represent must not kill
                        # the connection: answer with an error frame instead.
                        await write_frame(
                            writer,
                            {"type": "error", "error": f"unencodable reply: {exc}"},
                        )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except NetworkProtocolError:
            # Malformed frame: framing can no longer be trusted on this
            # connection, so drop it quietly rather than logging a crash.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

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
        self._peer_addresses: List[Tuple[str, int]] = []
        self._gossip_task: Optional[asyncio.Task] = None

    def set_peers(self, addresses: List[Tuple[str, int]]) -> None:
        self._peer_addresses = list(addresses)

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
        await super().stop()

    async def _gossip_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.gossip_interval)
            payload = self.core.gossip_payload()
            message = {
                "type": "gossip",
                "maintainer": payload.maintainer,
                "next_lid": payload.next_unassigned_lid,
            }
            for host, port in self._peer_addresses:
                try:
                    _reader, writer = await asyncio.open_connection(host, port)
                    try:
                        await write_frame(writer, message)
                    finally:
                        writer.close()
                        await writer.wait_closed()
                except OSError:
                    # Best-effort: a peer that is down (ConnectionError) or a
                    # host out of ports or descriptors (EADDRNOTAVAIL /
                    # EMFILE) costs this round, never the loop.
                    continue

    async def handle(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = request["type"]
        if kind == "append":
            results = self.core.append(request["records"], min_lid=request.get("min_lid"))
            if results is None:
                return {"type": "append_deferred"}
            return {"type": "append_reply", "results": results}
        if kind == "read_lid":
            return {"type": "read_reply", "entries": [self.core.get(request["lid"])]}
        if kind == "read_rules":
            return {"type": "read_reply", "entries": self.core.read(request["rules"])}
        if kind == "head":
            return {"type": "head_reply", "head_lid": self.core.head_of_log()}
        if kind == "gossip":
            self.core.on_gossip(GossipHL(request["maintainer"], request["next_lid"]))
            return None
        if kind == "drain_postings":
            return {"type": "postings", "postings": self.core.drain_postings()}
        return {"type": "error", "error": f"unknown request type {kind!r}"}


class IndexerServer(_BaseServer):
    """Serves one tag indexer over TCP."""

    def __init__(self, name: str, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host, port)
        self.core = IndexerCore(name)

    async def handle(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = request["type"]
        if kind == "index_update":
            self.core.add_many([(k, v, lid) for k, v, lid in request["postings"]])
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
