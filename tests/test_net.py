"""Tests for the asyncio TCP deployment of FLStore (repro.net)."""

import asyncio
import struct

import pytest

from repro.core import ChariotsError, ReadRules
from repro.core.errors import ConfigurationError, NetworkProtocolError
from repro.core.record import AppendResult, LogEntry
from repro.net.deploy import FLStoreNetDeployment
from repro.net.protocol import (
    decode_body,
    encode_frame_binary,
    read_frame,
)

from conftest import rec


def run(coro):
    return asyncio.run(coro)


def frame_trip(message):
    return decode_body(encode_frame_binary(message)[4:])


class TestProtocol:
    """Hot payloads travel inside a frame as native objects."""

    def test_record_round_trip(self):
        record = rec("A", 3, body="hello", deps={"B": 2}, tags={"k": 1})
        request = {"type": "append", "records": [record], "min_lid": None}
        assert frame_trip(request) == request

    def test_entry_round_trip(self):
        entry = LogEntry(9, rec("A", 1))
        result = AppendResult(entry.record.rid, 9)
        assert frame_trip({"type": "read_reply", "entries": [entry]})["entries"] == [entry]
        assert frame_trip({"type": "append_reply", "results": [result]})["results"] == [result]

    def test_rules_round_trip(self):
        rules = ReadRules(tag_key="k", tag_value=5, limit=3, max_lid=10, most_recent=False)
        restored = frame_trip({"type": "read_rules", "rules": rules})["rules"]
        assert restored == rules
        assert restored.most_recent is False

    def test_frame_round_trip(self):
        """Through a stream: length prefix, body, then clean EOF."""

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame_binary({"type": "x", "n": 1}))
            reader.feed_eof()
            assert await read_frame(reader) == {"type": "x", "n": 1}
            assert await read_frame(reader) is None

        run(scenario())

    def test_truncated_and_oversized_frames_rejected(self):
        async def read(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader)

        frame = encode_frame_binary({"type": "x", "n": 1})
        for data in (frame[:2], frame[:-1], struct.pack(">I", 2**31)):
            with pytest.raises(NetworkProtocolError):
                run(read(data))

    def test_binary_frame_round_trip(self):
        assert frame_trip({"type": "x", "n": 1}) == {"type": "x", "n": 1}

    def test_body_format_detected_per_frame(self):
        """One format: a body is checked by its first byte, and tagged JSON
        (``{``-led) — the wire this repository used to carry — is refused."""
        message = {"type": "read", "request_id": 7, "lid": 3}
        assert frame_trip(message) == message
        with pytest.raises(NetworkProtocolError):
            decode_body(b'{"type":"read","request_id":7,"lid":3}')
        with pytest.raises(NetworkProtocolError):
            decode_body(b"")

    def test_malformed_frame_rejected(self):
        with pytest.raises(NetworkProtocolError):
            decode_body(b"\xff\xfe not json")

    def test_untyped_message_rejected(self):
        with pytest.raises(NetworkProtocolError):
            frame_trip({"no": "type"})
        with pytest.raises(NetworkProtocolError):
            frame_trip(["type"])


class TestNetDeployment:
    def test_append_and_read_over_tcp(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, batch_size=5)
            await deployment.start()
            try:
                client = await deployment.client()
                results = [await client.append(f"v{i}") for i in range(12)]
                assert len({r.lid for r in results}) == 12
                entry = await client.read_lid(results[0].lid)
                assert entry.record.body == "v0"
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_head_advances_over_tcp_gossip(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, batch_size=4)
            await deployment.start()
            try:
                client = await deployment.client()
                for i in range(10):
                    await client.append(f"v{i}")
                await asyncio.sleep(0.05)  # a few gossip rounds
                head = await client.head()
                assert head >= 0
                for lid in range(head + 1):
                    await client.read_lid(lid)  # must not raise
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_tag_lookup_via_index_pump(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, n_indexers=1, batch_size=4)
            await deployment.start()
            try:
                client = await deployment.client()
                for i in range(8):
                    await client.append(f"v{i}", tags={"p": i % 2})
                await asyncio.sleep(0.08)  # index pump round
                entries = await client.read(ReadRules(tag_key="p", tag_value=1, limit=2))
                assert len(entries) == 2
                assert all(e.record.tag_dict()["p"] == 1 for e in entries)
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_remote_error_surfaces_as_exception(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, batch_size=4)
            await deployment.start()
            try:
                client = await deployment.client()
                with pytest.raises(ChariotsError):
                    await client.read_lid(999)  # beyond the log
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_multiple_clients_share_the_log(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, batch_size=4)
            await deployment.start()
            try:
                c1 = await deployment.client("one")
                c2 = await deployment.client("two")
                r1 = await c1.append("from-one")
                entry = await c2.read_lid(r1.lid)
                assert entry.record.body == "from-one"
                await c1.close()
                await c2.close()
            finally:
                await deployment.stop()

        run(scenario())


class TestSingleFormat:
    """The input contract of a server that speaks exactly one format."""

    @staticmethod
    async def _exchange(server, payload, replies=1):
        """Send raw bytes on a fresh connection; return the reply frames
        (``None`` where the server closed the connection instead)."""
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(payload)
            await writer.drain()
            return [await asyncio.wait_for(read_frame(reader), 5.0) for _ in range(replies)]
        finally:
            writer.close()
            await writer.wait_closed()

    def test_json_frame_drops_that_connection_only(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, batch_size=4)
            await deployment.start()
            try:
                server = deployment.maintainers[0]
                body = b'{"type":"head"}'
                replies = await self._exchange(server, struct.pack(">I", len(body)) + body)
                assert replies == [None]  # dropped without an answer
                # The server is unharmed: a fresh connection, and a client, are served.
                replies = await self._exchange(server, encode_frame_binary({"type": "head"}))
                assert replies == [{"type": "head_reply", "head_lid": -1}]
                client = await deployment.client()
                result = await client.append("v")
                assert (await client.read_lid(result.lid)).record.body == "v"
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_hello_is_an_unknown_request_not_a_crash(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, batch_size=4)
            await deployment.start()
            try:
                hello = encode_frame_binary({"type": "hello", "codecs": ["binary", "json"]})
                head = encode_frame_binary({"type": "head"})
                for server in (
                    deployment.maintainers[0],
                    deployment.indexers[0],
                    deployment.controller,
                ):
                    [reply] = await self._exchange(server, hello)
                    assert reply["type"] == "error" and "hello" in reply["error"]
                # ... and the same connection keeps serving afterwards.
                replies = await self._exchange(deployment.maintainers[0], hello + head, replies=2)
                assert [reply["type"] for reply in replies] == ["error", "head_reply"]
            finally:
                await deployment.stop()

        run(scenario())

    def test_client_codec_argument_accepts_only_binary(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, batch_size=4)
            await deployment.start()
            try:
                client = await deployment.client("c", codec="binary")
                await client.close()
                with pytest.raises(ConfigurationError):
                    await deployment.client("legacy", codec="json")
            finally:
                await deployment.stop()

        run(scenario())


class TestGossipSurvival:
    def test_gossip_outlives_a_failed_connect(self, monkeypatch):
        """Port or descriptor exhaustion (``EADDRNOTAVAIL`` / ``EMFILE``) is an
        ``OSError`` that is not a ``ConnectionError``; it must cost a gossip
        round, not the gossip task."""
        import errno

        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, batch_size=4)
            await deployment.start()
            real_open = asyncio.open_connection
            failures = []

            async def flaky_open(host, port, **kwargs):
                # Fail the first gossip connect only; clients connect to the
                # same ports, so key on the caller being a gossip task.
                if not failures and asyncio.current_task() in gossip_tasks:
                    failures.append((host, port))
                    raise OSError(errno.EADDRNOTAVAIL, "Cannot assign requested address")
                return await real_open(host, port, **kwargs)

            gossip_tasks = {server._gossip_task for server in deployment.maintainers}
            monkeypatch.setattr(asyncio, "open_connection", flaky_open)

            def heads():
                return [server.core.head_of_log() for server in deployment.maintainers]

            try:
                client = await deployment.client()
                for i in range(8):
                    await client.append(f"v{i}")
                for _ in range(200):
                    if failures and heads() == [7, 7]:
                        break
                    await asyncio.sleep(0.01)
                assert failures, "the injected failure never fired"
                assert not any(task.done() for task in gossip_tasks)
                assert heads() == [7, 7]  # each maintainer kept hearing from the other
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())


class TestConcurrency:
    def test_parallel_appends_from_many_tasks(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, batch_size=10)
            await deployment.start()
            try:
                clients = [await deployment.client(f"c{i}") for i in range(4)]

                async def writer(client, n):
                    return [await client.append(f"{client.client_id}-{i}") for i in range(n)]

                results = await asyncio.gather(*(writer(c, 10) for c in clients))
                lids = [r.lid for batch in results for r in batch]
                assert len(lids) == len(set(lids)) == 40  # no collisions
                for client in clients:
                    await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_interleaved_reads_and_writes(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, batch_size=5)
            await deployment.start()
            try:
                writer = await deployment.client("writer")
                reader = await deployment.client("reader")

                async def write_loop():
                    return [await writer.append(f"w{i}") for i in range(20)]

                async def read_loop(results_future):
                    await asyncio.sleep(0.01)
                    seen = 0
                    for _ in range(50):
                        head = await reader.head()
                        seen = max(seen, head + 1)
                        await asyncio.sleep(0.005)
                    return seen

                writes, seen = await asyncio.gather(write_loop(), read_loop(None))
                assert len(writes) == 20
                assert seen > 0  # the reader observed progress concurrently
                await writer.close()
                await reader.close()
            finally:
                await deployment.stop()

        run(scenario())
