"""The tag → indexer champion is one function every process agrees on, and a
tag read means the same thing over TCP as in process."""

import asyncio
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.core import ReadRules, Record, RecordId
from repro.core.hashing import stable_hash
from repro.flstore import FLStore
from repro.flstore.messages import ReadReply
from repro.net.deploy import FLStoreNetDeployment
from repro.runtime import LocalRuntime
from repro.runtime.multiproc import MultiprocRuntime

SRC = str(Path(__file__).resolve().parents[1] / "src")
KEYS = [f"key-{i}" for i in range(16)]


def _python(code, *args, hash_seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestStableChampion:
    def test_champion_is_the_same_under_different_hash_seeds(self):
        code = (
            "import sys; from repro.core.hashing import stable_hash;"
            "print([stable_hash(k) % 2 for k in sys.argv[1:]], hash(sys.argv[1]))"
        )
        one = _python(code, *KEYS, hash_seed=1)
        two = _python(code, *KEYS, hash_seed=2)
        champions_one, salted_one = one.rsplit(" ", 1)
        champions_two, salted_two = two.rsplit(" ", 1)
        assert salted_one != salted_two  # the processes really are salted apart
        assert champions_one == champions_two == str([stable_hash(k) % 2 for k in KEYS])
        assert len(set(eval(champions_one))) == 2  # both indexers get keys

    def test_tcp_client_in_another_process_reads_every_tag(self):
        """Maintainers push postings by their champion function, a client in
        another interpreter looks up by its own: they must agree."""
        reader = (
            "import asyncio, sys\n"
            "from repro.core import ReadRules\n"
            "from repro.net.client import AsyncFLStoreClient\n"
            "async def main():\n"
            "    client = AsyncFLStoreClient(sys.argv[1])\n"
            "    await client.connect()\n"
            "    counts = [len(await client.read(ReadRules(tag_key=k))) for k in sys.argv[2:]]\n"
            "    await client.close()\n"
            "    print(counts)\n"
            "asyncio.run(main())\n"
        )

        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, n_indexers=2, batch_size=4)
            address = await deployment.start()
            try:
                writer = await deployment.client("writer")
                for key in KEYS:
                    await writer.append(f"body-{key}", tags={key: 1})
                for _ in range(200):
                    if sum(ix.core.postings_stored for ix in deployment.indexers) == len(KEYS):
                        break
                    await asyncio.sleep(0.01)
                assert all(ix.core.postings_stored for ix in deployment.indexers)
                own = [len(await writer.read(ReadRules(tag_key=k))) for k in KEYS]
                other = await asyncio.to_thread(_python, reader, address, *KEYS, hash_seed=7)
                await writer.close()
                return own, other
            finally:
                await deployment.stop()

        own, other = asyncio.run(scenario())
        assert own == [1] * len(KEYS)
        assert other == str([1] * len(KEYS))


def _postings_stored(actor):
    return actor.core.postings_stored


class TestMultiprocTagRead:
    def test_two_indexer_tag_read_across_spawned_workers(self):
        """Maintainers and indexers live in ``spawn``ed workers (each with its
        own hash salt), the client in the parent."""
        os.environ.pop("PYTHONHASHSEED", None)  # let every process salt itself
        runtime = MultiprocRuntime(workers=2)
        try:
            store = FLStore(runtime, n_maintainers=2, n_indexers=2, batch_size=4)
            runtime.start()
            client = store.client()
            acks = []
            for key in KEYS:
                client.append(f"body-{key}", tags={key: 1}, on_done=acks.append)
            runtime.run_until(lambda: len(acks) == len(KEYS), timeout=60)
            runtime.run_until(
                lambda: sum(
                    runtime.peek(indexer.name, _postings_stored) for indexer in store.indexers
                ) == len(KEYS),
                timeout=60,
            )
            found = {}
            for key in KEYS:
                client.read_rules(
                    ReadRules(tag_key=key), lambda entries, key=key: found.update({key: entries})
                )
            runtime.run_until(lambda: len(found) == len(KEYS), timeout=60)
            assert {k: [e.record.body for e in v] for k, v in found.items()} == {
                k: [f"body-{k}"] for k in KEYS
            }
        finally:
            runtime.stop()


class TestUnreadableLidParity:
    """One indexed LId that is gone by the time it is fetched is skipped —
    by the TCP client exactly as by the in-process one."""

    N = 60
    VALUES = 5

    @classmethod
    def records(cls):
        rng = random.Random(22)
        return [
            Record(
                rid=RecordId("A", toid),
                body=f"b{toid}",
                tags=(("k", rng.randrange(cls.VALUES)), ("parity", toid % 2)),
            )
            for toid in range(1, cls.N + 1)
        ]

    @classmethod
    def rules(cls):
        for value in range(cls.VALUES):
            yield ReadRules(tag_key="k", tag_value=value)
            yield ReadRules(tag_key="k", tag_value=value, limit=1, most_recent=False)
            yield ReadRules(tag_key="k", tag_value=value, limit=4, most_recent=False)
            yield ReadRules(tag_key="k", tag_value=value, limit=10)
        yield ReadRules(tag_key="parity", tag_value=0, limit=25, most_recent=False)
        yield ReadRules(tag_key="parity", tag_min_value=1)

    @classmethod
    def fill(cls, cores):
        """The same log on any set of three maintainer cores: the seeded
        records, each appended at a seeded maintainer."""
        rng = random.Random(23)
        for record in cls.records():
            cores[rng.randrange(len(cores))].append([record])

    @classmethod
    def truncate(cls, cores):
        """Collect the first third of the log; the index still lists it."""
        dropped = sum(core.truncate({"A": cls.N // 3}) for core in cores)
        assert dropped > 0
        return dropped

    def test_tag_reads_agree_entry_for_entry_after_truncation(self):
        # In process, on LocalRuntime.
        runtime = LocalRuntime()
        store = FLStore(runtime, n_maintainers=3, n_indexers=1, batch_size=4)
        local_cores = [m.core for m in store.maintainers]
        self.fill(local_cores)
        runtime.run_until(lambda: store.indexers[0].core.postings_stored == 2 * self.N)
        dropped = self.truncate(local_cores)
        client = store.blocking_client()
        local = [client.read(rules) for rules in self.rules()]
        gone = client.read_lid(0)
        assert isinstance(gone, ReadReply) and not gone.entries and gone.error

        # Over TCP.
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, n_indexers=1, batch_size=4)
            await deployment.start()
            try:
                cores = [server.core for server in deployment.maintainers]
                self.fill(cores)
                for _ in range(200):
                    if deployment.indexers[0].core.postings_stored == 2 * self.N:
                        break
                    await asyncio.sleep(0.01)
                assert self.truncate(cores) == dropped
                client = await deployment.client()
                reads = [await client.read(rules) for rules in self.rules()]
                try:
                    await client.read_lid(0)
                except Exception as exc:  # a point read still says why
                    point_error = exc
                await client.close()
                return reads, point_error
            finally:
                await deployment.stop()

        tcp, point_error = asyncio.run(scenario())
        assert "garbage" in str(point_error).lower() or "collected" in str(point_error).lower()
        assert [[(e.lid, e.record) for e in entries] for entries in tcp] == [
            [(e.lid, e.record) for e in entries] for entries in local
        ]
        # The truncation did cut into what the index still lists.
        assert any(len(entries) < (rules.limit or self.N) for entries, rules in zip(tcp, self.rules()))
        assert any(entries for entries in tcp)
