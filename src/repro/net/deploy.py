"""One-call asyncio deployment of a whole FLStore on localhost.

Starts maintainer, indexer, and controller servers, wires the gossip mesh,
and runs the index pump (the background task that moves tag postings from
maintainers to their champion indexers — the role the maintainer actor's
flush timer plays in the in-process runtimes).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from ..core.config import FLStoreConfig
from ..core.errors import ConfigurationError
from ..flstore.range_map import OwnershipPlan
from .client import AsyncFLStoreClient, _Connection
from .protocol import CODEC_BINARY, write_frame
from .server import ControllerServer, IndexerServer, MaintainerServer


class FLStoreNetDeployment:
    """A running localhost FLStore: servers, gossip, and the index pump."""

    def __init__(
        self,
        n_maintainers: int = 3,
        n_indexers: int = 1,
        batch_size: int = 100,
        config: Optional[FLStoreConfig] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.config = config or FLStoreConfig()
        maintainer_names = [f"net/maintainer/{i}" for i in range(n_maintainers)]
        self.plan = OwnershipPlan(maintainer_names, batch_size=batch_size)
        self.maintainers: List[MaintainerServer] = [
            MaintainerServer(name, self.plan, config=self.config, host=host)
            for name in maintainer_names
        ]
        self.indexers: List[IndexerServer] = [
            IndexerServer(f"net/indexer/{i}", host=host) for i in range(n_indexers)
        ]
        self.controller: Optional[ControllerServer] = None
        self._host = host
        self._pump_task: Optional[asyncio.Task] = None
        self._indexer_conns: List[_Connection] = []
        self._maintainer_conns: List[_Connection] = []

    async def start(self) -> str:
        """Start everything; returns the controller's address."""
        maintainer_addresses: Dict[str, str] = {}
        for server in self.maintainers:
            host, port = await server.start()
            maintainer_addresses[server.core.name] = f"{host}:{port}"
        indexer_addresses: Dict[str, str] = {}
        for server in self.indexers:
            host, port = await server.start()
            indexer_addresses[server.core.name] = f"{host}:{port}"

        peer_addrs = [
            (self._host, server.port) for server in self.maintainers
        ]
        for i, server in enumerate(self.maintainers):
            server.set_peers([a for j, a in enumerate(peer_addrs) if j != i])

        self.controller = ControllerServer(
            self.plan,
            maintainer_addresses,
            indexer_addresses,
            config=self.config,
            host=self._host,
        )
        await self.controller.start()

        self._maintainer_conns = [
            _Connection(addr) for addr in maintainer_addresses.values()
        ]
        self._indexer_conns = [_Connection(addr) for addr in indexer_addresses.values()]
        self._pump_task = asyncio.create_task(self._index_pump())
        return self.controller.address

    async def _index_pump(self) -> None:
        """Move tag postings maintainer → champion indexer, continuously."""
        names = sorted(ix.core.name for ix in self.indexers)
        while True:
            await asyncio.sleep(self.config.gossip_interval)
            for conn in self._maintainer_conns:
                try:
                    response = await conn.request({"type": "drain_postings"})
                except ConnectionError:
                    continue
                postings = response.get("postings", [])
                if not postings:
                    continue
                buckets: Dict[str, List[List[Any]]] = {}
                for key, value, lid in postings:
                    target = names[hash(key) % len(names)]
                    buckets.setdefault(target, []).append([key, value, lid])
                for target, bucket in buckets.items():
                    index = names.index(target)
                    try:
                        # index_update has no response frame; fire directly.
                        await self._send_oneway(
                            self._indexer_conns[index],
                            {"type": "index_update", "postings": bucket},
                        )
                    except ConnectionError:
                        continue

    @staticmethod
    async def _send_oneway(conn: _Connection, message: Dict[str, Any]) -> None:
        async with conn._lock:
            await conn._ensure_locked()
            await write_frame(conn._writer, message)

    async def client(
        self, client_id: str = "net-client", codec: str = CODEC_BINARY
    ) -> AsyncFLStoreClient:
        """Create a connected client.

        ``codec`` is a vestige of the negotiated-codec era that the perf
        ledger still passes: the only accepted value is ``"binary"``.
        """
        if codec != CODEC_BINARY:
            raise ConfigurationError(
                f"the only wire codec is {CODEC_BINARY!r}, got {codec!r}"
            )
        assert self.controller is not None, "deployment not started"
        client = AsyncFLStoreClient(self.controller.address, client_id=client_id)
        await client.connect()
        return client

    async def stop(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        for conn in self._maintainer_conns + self._indexer_conns:
            await conn.close()
        for server in self.maintainers + self.indexers:
            await server.stop()
        if self.controller is not None:
            await self.controller.stop()
