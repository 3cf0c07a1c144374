"""One-call asyncio deployment of a whole FLStore on localhost.

Starts maintainer, indexer, and controller servers and tells every
maintainer where its peers (head-of-log gossip) and the indexers (the tag
postings it pushes to their champions on its gossip tick, as the maintainer
actor's flush timer does in the in-process runtimes) listen.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import FLStoreConfig
from ..core.errors import ConfigurationError
from ..flstore.range_map import OwnershipPlan
from .client import AsyncFLStoreClient
from .protocol import CODEC_BINARY
from .server import ControllerServer, IndexerServer, MaintainerServer


class FLStoreNetDeployment:
    """A running localhost FLStore: servers, gossip and postings links."""

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
            server.set_indexers(indexer_addresses)

        self.controller = ControllerServer(
            self.plan,
            maintainer_addresses,
            indexer_addresses,
            config=self.config,
            host=self._host,
        )
        await self.controller.start()
        return self.controller.address

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
        for server in self.maintainers + self.indexers:
            await server.stop()
        if self.controller is not None:
            await self.controller.stop()
