"""FLStore over real sockets: the asyncio TCP deployment.

Boots maintainer, indexer, and controller servers on localhost, wires the
head-of-log gossip mesh between the maintainer servers, and drives the log
through the networked client — the same protocol cores as the in-process
runtimes, behind length-prefixed binary frames.

Run:  python examples/tcp_deployment.py
"""

import asyncio

from repro.core import ReadRules
from repro.net.deploy import FLStoreNetDeployment


async def main() -> None:
    deployment = FLStoreNetDeployment(n_maintainers=3, n_indexers=1, batch_size=10)
    controller_address = await deployment.start()
    print(f"controller listening on {controller_address}")
    print(f"maintainers: {[m.address for m in deployment.maintainers]}")
    print(f"indexers:    {[ix.address for ix in deployment.indexers]}")
    print()

    client = await deployment.client("demo")
    try:
        # Appends round-robin across maintainer servers; each post-assigns
        # LIds from its own deterministic ranges.
        results = []
        for i in range(15):
            result = await client.append(
                f"sensor-reading-{i}", tags={"sensor": f"s{i % 3}"}
            )
            results.append(result)
        print(f"appended 15 records over TCP; LIds: {[r.lid for r in results]}")

        # Gossip between the servers advances the head of the log.
        await asyncio.sleep(0.05)
        head = await client.head()
        print(f"head of the log after gossip: {head}")

        entry = await client.read_lid(results[0].lid)
        print(f"read back LId {entry.lid}: {entry.record.body!r}")

        # The maintainers pushed their tag postings to the indexer servers.
        await asyncio.sleep(0.05)
        tagged = await client.read(ReadRules(tag_key="sensor", tag_value="s1", limit=3))
        print(f"three most recent s1 readings: {[e.record.body for e in tagged]}")
    finally:
        await client.close()
        await deployment.stop()
        print("deployment stopped cleanly")


if __name__ == "__main__":
    asyncio.run(main())
