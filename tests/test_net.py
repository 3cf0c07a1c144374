"""Tests for the asyncio TCP deployment of FLStore (repro.net)."""

import asyncio
import gc
import logging
import struct
import warnings
from collections import Counter

import pytest

from repro.core import ChariotsError, ReadRules
from repro.core.errors import ConfigurationError, NetworkProtocolError
from repro.core.record import AppendResult, LogEntry
from repro.net.deploy import FLStoreNetDeployment
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameProtocol,
    decode_body,
    encode_frame_binary,
)

from conftest import rec


def run(coro):
    return asyncio.run(coro)


def frame_trip(message):
    return decode_body(encode_frame_binary(message)[4:])


class Collector(FrameProtocol):
    """A :class:`FrameProtocol` that keeps what it parsed."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def frame_received(self, message):
        self.frames.append(message)


class FakeTransport(asyncio.Transport):
    """Just enough transport for the parser: records pause / abort calls."""

    def __init__(self):
        super().__init__()
        self.aborted = False
        self.reading = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def abort(self):
        self.aborted = True


def parse(segments, protocol=None):
    """Feed ``segments`` to a parser on a fake transport; returns it."""

    async def scenario():
        collector = protocol or Collector()
        collector.connection_made(FakeTransport())
        for segment in segments:
            while segment:  # as the transport does: recv_into, then tell
                room = collector.get_buffer(-1)
                n = min(len(room), len(segment))
                room[:n] = segment[:n]
                collector.buffer_updated(n)
                del room
                segment = segment[n:]
        return collector

    return run(scenario())


async def exchange(server, payload, replies=1, close_after=False):
    """Send raw bytes on a fresh connection; return the reply frames
    (``None`` where the server closed the connection instead)."""
    loop = asyncio.get_running_loop()
    transport, peer = await loop.create_connection(Collector, server.host, server.port)
    try:
        transport.write(payload)
        if close_after:
            transport.write_eof()
        for _ in range(500):
            if len(peer.frames) >= replies or peer.closed.done():
                break
            await asyncio.sleep(0.01)
        return peer.frames + [None] * (replies - len(peer.frames))
    finally:
        await peer.aclose()


class TestProtocol:
    """Hot payloads travel inside a frame as native objects; the stream is
    cut into frames by the one :class:`FrameProtocol` parser."""

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

    MESSAGES = [
        {"type": "x", "n": 1},
        {"type": "append", "records": [rec("A", 3, body="hello", tags={"k": 1})], "min_lid": None},
        {"type": "read_lid", "lids": list(range(40))},
        {"type": "head"},
    ]

    def test_frame_round_trip(self):
        """Through the parser: one byte stream split at every offset."""
        stream = b"".join(encode_frame_binary(m) for m in self.MESSAGES)
        for cut in range(len(stream) + 1):
            collector = parse([stream[:cut], stream[cut:]])
            assert collector.frames == self.MESSAGES, cut
            assert not collector.transport.aborted

    def test_byte_by_byte_and_coalesced_segments_decode_identically(self):
        stream = b"".join(encode_frame_binary(m) for m in self.MESSAGES)
        assert parse([stream]).frames == self.MESSAGES  # many frames, one segment
        assert parse([stream * 3]).frames == self.MESSAGES * 3
        assert parse([stream[i : i + 1] for i in range(len(stream))]).frames == self.MESSAGES

    def test_truncated_and_oversized_frames_rejected(self):
        """A truncated frame never yields a message; a frame that cannot be
        trusted drops the connection with nothing after it served."""
        good = encode_frame_binary({"type": "x", "n": 1})
        for cut in (2, len(good) - 1):
            collector = parse([good + good[:cut]])
            assert collector.frames == [{"type": "x", "n": 1}]
            assert collector.failure is None
        json_body = b'{"type":"x"}'
        untyped = encode_frame_binary({"type": "x"}).replace(b"type", b"tipe")
        for bad in (
            struct.pack(">I", MAX_FRAME_BYTES + 1),
            struct.pack(">I", len(json_body)) + json_body,
            untyped,
        ):
            collector = parse([good + bad + good])
            assert collector.frames == [{"type": "x", "n": 1}]  # nothing after the bad frame
            assert collector.transport is None and collector.failure is not None
            assert isinstance(collector.failure, NetworkProtocolError)

    def test_frame_larger_than_the_receive_buffer(self):
        """The receive buffer grows for one large frame, hands it over whole,
        and is back at its normal size for the frames behind it."""
        big = {"type": "x", "body": bytes(range(256)) * 1200}  # ~300 KB
        stream = b"".join(encode_frame_binary(m) for m in [self.MESSAGES[0], big, *self.MESSAGES])
        collector = parse([stream[i : i + 50_000] for i in range(0, len(stream), 50_000)])
        assert collector.frames == [self.MESSAGES[0], big, *self.MESSAGES]
        assert len(collector._buffer) > len(encode_frame_binary(big))
        collector.get_buffer(-1)
        assert len(collector._buffer) == 64 * 1024

    def test_pause_holds_buffered_frames_until_resume(self):
        class PauseOnFirst(Collector):
            def frame_received(self, message):
                super().frame_received(message)
                if len(self.frames) == 1:
                    self.pause()

        stream = b"".join(encode_frame_binary(m) for m in self.MESSAGES)
        collector = parse([stream], PauseOnFirst())
        assert collector.frames == self.MESSAGES[:1]
        assert not collector.transport.reading
        collector.resume()
        assert collector.frames == self.MESSAGES
        assert collector.transport.reading

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

    def test_tag_lookup_via_pushed_postings(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, n_indexers=1, batch_size=4)
            await deployment.start()
            try:
                client = await deployment.client()
                for i in range(8):
                    await client.append(f"v{i}", tags={"p": i % 2})
                await asyncio.sleep(0.08)  # a few gossip ticks push the postings
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
        return await exchange(server, payload, replies)

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

    def test_bad_frames_drop_that_connection_only(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=1, batch_size=4)
            await deployment.start()
            try:
                server = deployment.maintainers[0]
                head = encode_frame_binary({"type": "head"})
                json_body = b'{"type":"head"}'
                untyped = encode_frame_binary({"type": "head"}).replace(b"type", b"tipe")
                for bad in (
                    struct.pack(">I", MAX_FRAME_BYTES + 1),
                    struct.pack(">I", len(json_body)) + json_body,
                    untyped,
                ):
                    # The good request ahead of the bad frame is answered.
                    replies = await exchange(server, head + bad + head, replies=2)
                    assert replies == [{"type": "head_reply", "head_lid": -1}, None]
                # EOF in the middle of a frame: no answer, no crash.
                assert await exchange(server, head[:-1], close_after=True) == [None]
                for _ in range(100):
                    if not server._connections:
                        break
                    await asyncio.sleep(0.01)
                assert not server._connections  # every dropped connection is gone
                assert await exchange(server, head) == [{"type": "head_reply", "head_lid": -1}]
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
    @staticmethod
    def heads(deployment):
        return [server.core.head_of_log() for server in deployment.maintainers]

    def test_gossip_outlives_a_failed_connect(self):
        """Port or descriptor exhaustion (``EADDRNOTAVAIL`` / ``EMFILE``) is an
        ``OSError`` that is not a ``ConnectionError``; a link whose first
        connect fails with it costs a gossip round, not the gossip task."""
        import errno

        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, batch_size=4)
            loop = asyncio.get_running_loop()
            real_connect = loop.create_connection
            failures = []

            def flaky_connect(factory, host=None, port=None, **kwargs):
                # Fail the first gossip connect only; clients connect to the
                # same ports, so key on the caller being a gossip task.
                gossip_tasks = {server._gossip_task for server in deployment.maintainers}
                if not failures and asyncio.current_task() in gossip_tasks:
                    failures.append((host, port))
                    raise OSError(errno.EADDRNOTAVAIL, "Cannot assign requested address")
                return real_connect(factory, host, port, **kwargs)

            loop.create_connection = flaky_connect
            await deployment.start()
            gossip_tasks = {server._gossip_task for server in deployment.maintainers}
            try:
                client = await deployment.client()
                for i in range(8):
                    await client.append(f"v{i}")
                for _ in range(200):
                    if failures and self.heads(deployment) == [7, 7]:
                        break
                    await asyncio.sleep(0.01)
                assert failures, "the injected failure never fired"
                assert not any(task.done() for task in gossip_tasks)
                # Each maintainer kept hearing from the other.
                assert self.heads(deployment) == [7, 7]
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_gossip_resumes_after_a_peer_restarts(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=2, batch_size=4)
            await deployment.start()
            try:
                client = await deployment.client()
                for i in range(8):
                    await client.append(f"v{i}")
                for _ in range(200):
                    if self.heads(deployment) == [7, 7]:
                        break
                    await asyncio.sleep(0.01)
                assert self.heads(deployment) == [7, 7]

                survivor, restarted = deployment.maintainers
                address = restarted.address
                await restarted.stop()
                await asyncio.sleep(0.05)  # rounds that find the peer down
                assert not survivor._gossip_task.done()
                await restarted.start()
                assert restarted.address == address

                for i in range(8, 16):
                    await client.append(f"v{i}")
                for _ in range(200):
                    if self.heads(deployment) == [15, 15]:
                        break
                    await asyncio.sleep(0.01)
                # Both directions work again: each head needs the other's frontier.
                assert self.heads(deployment) == [15, 15]
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())


def count_requests(servers):
    """Count, by request type, what ``servers`` handle from now on (wraps
    the public ``handle`` coroutine, as the perf ledger's tracer does)."""
    calls = Counter()
    for server in servers:

        async def counted(request, handle=server.handle):
            calls[request["type"]] += 1
            return await handle(request)

        server.handle = counted
    return calls


class TestCostGuards:
    """Counts, not timings: what an indexed read and an idle second cost."""

    def test_indexed_read_is_one_lookup_and_one_fetch_per_owner(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, n_indexers=1, batch_size=2)
            await deployment.start()
            try:
                client = await deployment.client()
                for i in range(30):
                    await client.append(f"v{i}", tags={"k": "x"})
                indexer = deployment.indexers[0].core
                for _ in range(200):
                    if indexer.postings_stored == 30:
                        break
                    await asyncio.sleep(0.01)
                calls = count_requests(deployment.maintainers + deployment.indexers)
                entries = await client.read(ReadRules(tag_key="k", tag_value="x", limit=10))
                assert [e.lid for e in entries] == list(range(29, 19, -1))
                assert len({deployment.plan.owner(e.lid) for e in entries}) == 3
                assert calls["lookup"] == 1
                assert calls["read_lid"] <= 3  # one per owning maintainer, not one per LId
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())

    def test_idle_gossip_opens_no_connection_per_message(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, n_indexers=1, batch_size=4)
            interval = deployment.config.gossip_interval
            assert interval == 0.005  # the default
            await deployment.start()
            try:
                calls = count_requests(deployment.maintainers)
                for server in deployment.maintainers:
                    server.core.append([rec("A", server.port, tags={"k": 1})])
                await asyncio.sleep(1.0)
                for server in deployment.maintainers:
                    # One kept link from each peer, whatever the message count.
                    assert server.connections_accepted <= 2 + 1
                assert deployment.indexers[0].connections_accepted <= 3
                assert deployment.indexers[0].core.postings_stored == 3
                # Every maintainer still tells both peers every interval
                # (timer slack on a loaded host only ever lowers the count).
                expected = 2 * 3 / interval
                assert 0.4 * expected <= calls["gossip"] <= 1.05 * expected
            finally:
                await deployment.stop()

        run(scenario())


class TestCleanShutdown:
    """``stop()`` leaves nothing behind for the loop to complain about."""

    @staticmethod
    def run_quietly(scenario):
        complaints = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: complaints.append(context)
            )
            await scenario()
            return [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]

        leftover = asyncio.run(main())
        assert leftover == []
        assert complaints == []

    def test_deployment_stop_is_silent(self):
        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, n_indexers=1, batch_size=4)
            await deployment.start()
            clients = [await deployment.client(f"c{i}") for i in range(2)]
            for i in range(12):
                await clients[i % 2].append(f"v{i}", tags={"k": i % 2})
            await asyncio.sleep(0.03)
            assert await clients[0].read(ReadRules(tag_key="k", tag_value=1, limit=3))
            # One client is closed first, one only after the servers went away.
            await clients[0].close()
            await deployment.stop()
            await clients[1].close()

        self.run_quietly(scenario)

    def test_aio_runtime_stop_is_silent(self, caplog):
        from repro.chariots import ChariotsDeployment
        from repro.flstore.messages import GossipHL
        from repro.net.aio_runtime import AioRuntime
        from repro.runtime import Actor

        got = []

        class Listener(Actor):
            def on_message(self, sender, message):
                got.append(message)

        runtime = AioRuntime()
        client = ChariotsDeployment(runtime, ["A"], batch_size=4).client("A")
        runtime.register(Listener("ear"))
        runtime.start()
        for i in range(5):
            runtime.send("mouth", "ear", GossipHL("m0", i))
        assert runtime.settle(lambda: len(got) == 5, max_seconds=5.0)
        runtime.send("mouth", "ear", GossipHL("m0", 9))  # in flight at stop
        client.append("x")  # still buffered at stop
        with warnings.catch_warnings(record=True) as caught, caplog.at_level(logging.WARNING):
            warnings.simplefilter("always")
            runtime.stop()
            del runtime, client
            gc.collect()
        assert caplog.records == []  # no "Exception in callback" from a timer
        assert [str(w.message) for w in caught] == []  # nothing left unclosed


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

    def test_shared_client_under_chaos_never_gets_anothers_reply(self):
        """Many tasks, one client object, one misbehaving maintainer: every
        reply a caller gets answers the request that caller sent."""
        from repro.chaos import NetChaos
        from repro.core.retry import RetryPolicy
        from repro.net.client import AsyncFLStoreClient

        reply_type = {"read_lid": "read_reply", "head": "head_reply", "lookup": "lookup_reply"}

        async def scenario():
            deployment = FLStoreNetDeployment(n_maintainers=3, n_indexers=1, batch_size=4)
            await deployment.start()
            try:
                client = AsyncFLStoreClient(
                    deployment.controller.address,
                    retry_policy=RetryPolicy(
                        base_delay=0.001, max_delay=0.005, max_attempts=30, op_timeout=0.05
                    ),
                    breaker_failure_threshold=10_000,
                )
                await client.connect()
                stored = {}  # LId -> (body, tag), as acknowledged
                for i in range(36):
                    result = await client.append(f"v{i}", tags={"k": i % 3})
                    stored[result.lid] = (f"v{i}", i % 3)
                assert sorted(stored) == list(range(36))
                indexer = deployment.indexers[0].core
                for _ in range(200):
                    if indexer.postings_stored == 36:
                        break
                    await asyncio.sleep(0.01)

                checked = Counter()
                real_request = client._request

                async def checked_request(conn, message, idempotent=True):
                    response = await real_request(conn, message, idempotent)
                    kind = message["type"]
                    assert response["type"] == reply_type[kind], (message, response)
                    if kind == "read_lid":
                        assert [e.lid for e in response["entries"]] == message["lids"]
                    checked[kind] += 1
                    return response

                client._request = checked_request
                # Stalls outlast the op timeout, so late replies do arrive on
                # connections whose request was given up on.
                chaos = NetChaos(
                    seed=11, drop_probability=0.05, delay_probability=0.2, max_delay=0.1,
                    disconnect_probability=0.1, request_types=["read_lid", "head"],
                )
                deployment.maintainers[0].set_chaos(chaos)

                async def worker(w):
                    for i in range(30):
                        lid = (7 * w + 5 * i) % 36
                        if i % 3 == 0:
                            assert await client.head() >= -1
                        elif i % 3 == 1:
                            entry = await client.read_lid(lid)
                            assert (entry.lid, entry.record.body) == (lid, stored[lid][0])
                        else:
                            entries = await client.read(
                                ReadRules(tag_key="k", tag_value=w % 3, limit=6)
                            )
                            assert len(entries) == 6
                            assert all(
                                (e.record.body, e.record.tag_dict()["k"]) == stored[e.lid]
                                and stored[e.lid][1] == w % 3
                                for e in entries
                            )

                await asyncio.gather(*(worker(w) for w in range(8)))
                assert min(chaos.stats[k] for k in ("drop", "delay", "disconnect")) > 0
                assert min(checked[k] for k in reply_type) > 0
                await client.close()
            finally:
                await deployment.stop()

        run(scenario())
