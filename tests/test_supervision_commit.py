"""The supervised group-commit protocol of ``runtime/multiproc/``.

Process-free: the worker half is a real :class:`_WorkerNode` running its
real loop on a *thread*, joined to the other side by a loopback TCP pair
(``_FrameConn`` sets ``TCP_NODELAY``, so an ``AF_UNIX`` ``socketpair`` will
not do).  The other side is either this file speaking raw frames, or a real
:class:`MultiprocRuntime` whose spawn hook hands it such thread-backed
workers instead of OS processes — everything else (``start``, routing,
supervision sweep, respawn, stop) is the production code.  A killed
"process" is a node whose loop exits without a final snapshot and whose
socket closes; a node that *withholds* its commit markers is a worker frozen
in the window between emission and marker.

Two tests at the end use real worker processes: the tier-1 idle-latency
guard, and the ``-m slow`` SIGKILL-inside-a-burst equivalence run that
``make chaos-multiproc`` adds to the acceptance tests.
"""

from __future__ import annotations

import pickle
import random
import socket
import tempfile
import threading
import time

import pytest

from repro.chaos import FaultPlan
from repro.chariots import ChariotsDeployment, check_logs
from repro.core.errors import SessionError
from repro.net.binary_codec import decode_value_binary, encode_value_binary
from repro.runtime.actor import Actor
from repro.runtime.multiproc import MultiprocRuntime, supervision, wire
from repro.runtime.multiproc.supervision import Supervision
from repro.runtime.multiproc.wire import (
    _K_CTRL,
    _K_MSG,
    _K_REPLY,
    _envelope,
    _FrameConn,
    _parse_envelope,
)
from repro.runtime.multiproc.worker import _WorkerNode
from repro.runtime.supervisor import Supervisor
from repro.scenarios.executors import pipeline_placement

from conftest import run_abstract
from test_runtime_contract import DCS

# --------------------------------------------------------------------- #
# Actors (module level: they are pickled into the workers)
# --------------------------------------------------------------------- #


class Fan(Actor):
    """Answers every input with ``fanout`` messages to each of ``outs``."""

    def __init__(self, name, outs, fanout=1, pad=0):
        super().__init__(name)
        self.outs = list(outs)
        self.fanout = fanout
        self.pad = pad
        self.seen = []

    def on_message(self, sender, message):
        self.seen.append(message)
        for k in range(self.fanout):
            for out in self.outs:
                self.send(out, (self.name, message, k, b"\0" * self.pad))


class Quiet(Actor):
    """Consumes its input and says nothing."""

    def __init__(self, name):
        super().__init__(name)
        self.seen = 0

    def on_message(self, sender, message):
        self.seen += 1


class Sink(Actor):
    """Parent-local collector of ``(origin, input, k)``."""

    def __init__(self, name="sink"):
        super().__init__(name)
        self.got = []

    def on_message(self, sender, message):
        self.got.append(tuple(message[:3]))


#: (start, end) of every :class:`SlowState` pickling, appended by the worker
#: thread and read by the test (same process).
PICKLE_SPANS = []
SLOW_PICKLE_SECONDS = 0.02


class SlowState(Quiet):
    """A quiet actor whose state takes 20 ms to capture."""

    def __getstate__(self):
        start = time.monotonic()
        time.sleep(SLOW_PICKLE_SECONDS)
        PICKLE_SPANS.append((start, time.monotonic()))
        return self.__dict__


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def _tcp_pair(small_buffers=False):
    """A connected loopback TCP pair (near end, far end)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if small_buffers:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        far = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if small_buffers:
            far.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        far.connect(listener.getsockname())
        near, _addr = listener.accept()
    finally:
        listener.close()
    return near, far


class RigNode(_WorkerNode):
    """A worker whose commit markers the test can withhold: it goes on
    emitting frames but sends no snapshot — the state of a worker that is
    about to die between its emissions and the marker covering them."""

    withhold = False

    def _commit(self):
        return self._IDLE_WAIT if self.withhold else super()._commit()


class ThreadProc:
    """Stands in for a ``multiprocessing.Process``: a node's real ``run()``
    loop on a thread.  ``kill()`` is the SIGKILL — the loop exits at its
    next turn, no final snapshot, and the socket closes."""

    def __init__(self, node):
        self.node = node
        self.thread = threading.Thread(target=node.run, daemon=True)
        self.thread.start()

    @property
    def exitcode(self):
        return None if self.thread.is_alive() else -9

    def is_alive(self):
        return self.thread.is_alive()

    def kill(self):
        self.node._stopping = True

    def join(self, timeout=None):
        self.thread.join(timeout)


class Rig:
    """A supervised :class:`MultiprocRuntime` over thread-backed workers."""

    def __init__(self, actors, homes, workers=1):
        self.rt = MultiprocRuntime(
            workers=workers, placement=lambda name, _w: homes.get(name)
        )
        #: wid -> every node that has served as that worker, oldest first.
        self.nodes = {wid: [] for wid in range(workers)}
        self.supervisor = Supervisor(check_interval=0.01)
        self.sink = Sink()
        self.rt.register_all([*actors, self.sink, self.supervisor])
        self.rt._spawn = self._spawn

    def _spawn(self, wids, _timeout):
        procs, conns = {}, {}
        for wid in wids:
            near, far = _tcp_pair()
            node = RigNode(wid, far)
            self.nodes[wid].append(node)
            procs[wid], conns[wid] = ThreadProc(node), _FrameConn(near, wid=wid)
        return procs, conns

    def __enter__(self):
        self.rt.start()
        return self

    def __exit__(self, *exc):
        self.rt.stop()

    def node(self, wid):
        return self.nodes[wid][-1]

    def slot(self, wid):
        return self.rt._supervision.slots[wid]

    def pump_until(self, predicate, timeout=10.0):
        self.rt.run_until(predicate, timeout=timeout)


class RawParent:
    """This file as the parent: raw frames to and from one threaded node."""

    def __init__(self, actors, journaled=(), node_cls=_WorkerNode, small_buffers=False):
        near, far = _tcp_pair(small_buffers)
        self.conn = _FrameConn(near, wid=0)
        self.node = node_cls(0, far)
        self.proc = None
        self.frames = []  # parsed, in arrival order
        self._ctrl = 0
        self._seq = 0
        self._actors = actors
        self._journaled = journaled

    def run_node(self):
        self.proc = ThreadProc(self.node)
        self.control({"op": "restore", "state": _state(self._actors)})
        self.control(_configure(self._journaled))
        self.control({"op": "start"})
        return self

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.join(2.0)
        else:
            self.node.conn.close()  # a node driven by hand never runs its loop
        self.conn.close()

    def control(self, payload):
        self._ctrl += 1
        payload = dict(payload, seq=self._ctrl)
        self.conn.queue(_envelope(_K_CTRL, "", "", pickle.dumps(payload)))
        seq = self._ctrl
        self.read_until(lambda f: f[0] == "R" and f[1]["seq"] == seq)

    def poll(self):
        """Read what has arrived into :attr:`frames`; returns the new ones."""
        self.conn.flush()
        new = [_parse(frame) for frame in self.conn.read_frames()]
        self.frames.extend(f for f in new if f[0] != "H")
        return new

    def deliver(self, dst, message):
        self._seq += 1
        self.conn.queue(
            _envelope(_K_MSG, "test", dst, encode_value_binary(message), seq=self._seq)
        )
        self.conn.flush()
        return self._seq

    def read_until(self, predicate, since=None, timeout=5.0):
        """The first frame satisfying ``predicate`` among those recorded
        from index ``since`` on (default: from now on); reads until then."""
        checked = len(self.frames) if since is None else since
        deadline = time.monotonic() + timeout
        while True:
            for parsed in self.frames[checked:]:
                if predicate(parsed):
                    return parsed
            checked = len(self.frames)
            assert time.monotonic() < deadline, (
                f"no matching frame; saw {[f[:2] for f in self.frames]}"
            )
            if not self.poll():
                time.sleep(0.0005)


def _state(actors):
    return pickle.dumps({actor.name: actor for actor in actors})


def _configure(journaled=()):
    return {"op": "configure", "journaled": list(journaled), "delivered": 0, "emission": 0}


def _parse(frame):
    """("S", snapshot, frame size) | ("O", emission id, dst, value) |
    ("R", control reply) | ("H", heartbeat)."""
    kind, seq, _src, dst, payload = _parse_envelope(memoryview(frame)[4:])
    if kind == _K_MSG:
        return ("O", seq, dst, decode_value_binary(payload))
    reply = pickle.loads(payload)
    if "snapshot" in reply:
        return ("S", reply["snapshot"], len(frame))
    return ("H" if "heartbeat" in reply else "R", reply)


def _is_snapshot_frame(frame):
    kind, _seq, _src, _dst, payload = _parse_envelope(memoryview(frame)[4:])
    return kind == _K_REPLY and "snapshot" in pickle.loads(payload)


# --------------------------------------------------------------------- #
# (a) (f) (g) the worker half, on the wire
# --------------------------------------------------------------------- #


class TestWorkerWire:
    def test_frames_precede_their_marker_and_it_covers_exactly_them(self):
        parent = RawParent([Fan("fan", ["x", "y"], fanout=2)]).run_node()
        try:
            baseline = parent.frames[-2]  # start: forced snapshot, then its reply
            assert baseline[0] == "S"
            assert (baseline[1]["ack"], baseline[1]["emission"]) == (0, 0)
            before = len(parent.frames)
            seq = parent.deliver("fan", 7)
            marker = parent.read_until(lambda f: f[0] == "S" and f[1]["ack"] == seq)
            turn = parent.frames[before:]
            assert [f[0] for f in turn] == ["O", "O", "O", "O", "S"]
            assert [f[1] for f in turn[:-1]] == [1, 2, 3, 4]  # dense ids
            assert [f[2] for f in turn[:-1]] == ["x", "y", "x", "y"]
            assert marker[1]["emission"] == 4
            assert set(marker[1]) == {"ack", "emission", "state"}
            state = pickle.loads(marker[1]["state"])
            assert state["fan"].seen == [7]
        finally:
            parent.close()

    def test_input_without_output_is_acked_with_no_timer(self):
        """``unacked`` cannot creep toward ``RETRANSMIT_LIMIT_BYTES`` on
        one-way traffic: the ack rides the turn's commit, not a clock."""
        parent = RawParent([Quiet("quiet")]).run_node()
        try:
            # The only timer a supervised node arms is its heartbeat.
            assert len(parent.node.loop._heap) == 1
            for _ in range(3):
                seq = parent.deliver("quiet", b"x")
                marker = parent.read_until(
                    lambda f: f[0] == "S" and f[1]["ack"] == seq
                )
                assert marker[1]["emission"] == 0
            assert not [f for f in parent.frames if f[0] == "O"]
            assert len(parent.node.loop._heap) == 1
        finally:
            parent.close()

    def test_journaled_actors_stay_out_of_the_state(self):
        parent = RawParent(
            [Quiet("quiet"), Quiet("store")], journaled=["store"]
        ).run_node()
        try:
            seq = parent.deliver("store", b"x")
            marker = parent.read_until(lambda f: f[0] == "S" and f[1]["ack"] == seq)
            assert set(pickle.loads(marker[1]["state"])) == {"quiet"}
        finally:
            parent.close()

    def test_drain_and_stop_end_on_a_forced_marker(self):
        parent = RawParent([Quiet("quiet")]).run_node()
        try:
            before = len(parent.frames)
            parent.control({"op": "stop"})  # nothing changed since the last one
            kinds = [f[0] for f in parent.frames[before:]]
            assert kinds == ["S", "R"]
            parent.proc.join(5.0)
            assert not parent.proc.is_alive()
        finally:
            parent.close()


# --------------------------------------------------------------------- #
# (e) commit pacing: one snapshot in flight, capture duty cycle <= 1/2
# --------------------------------------------------------------------- #


class TestCommitPacing:
    def test_never_two_snapshot_frames_in_the_outbound_queue(self):
        """A parent that stops reading backs the node's queue up; turns keep
        delivering and emitting, but no second snapshot is captured while
        the first still sits in the queue."""
        parent = RawParent(
            [Fan("fan", ["x"], pad=64 << 10)], small_buffers=True
        )
        node = parent.node
        # Driven by hand (no thread): one call sequence per loop turn.
        node._handle_control(
            {"op": "restore", "state": _state([Fan("fan", ["x"], pad=64 << 10)]), "seq": 1}
        )
        node._handle_control(dict(_configure(), seq=2))
        node._handle_control({"op": "start", "seq": 3})
        try:
            worst = 0
            for seq in range(1, 41):
                frame = _envelope(_K_MSG, "test", "fan", encode_value_binary(seq), seq=seq)
                node._on_frame(frame)
                node._commit()
                node.conn.flush()
                queued = sum(_is_snapshot_frame(f) for f in node.conn.outbound)
                worst = max(worst, queued)
            assert len(node.conn.outbound) > 10, "the queue never backed up"
            assert worst == 1
            # Once the parent reads again the put-off commit goes through
            # and covers everything delivered meanwhile.
            deadline = time.monotonic() + 10.0
            while not any(f[0] == "S" and f[1]["ack"] == 40 for f in parent.frames):
                assert time.monotonic() < deadline
                node._commit()
                node.conn.flush()
                parent.poll()
            assert [f[1] for f in parent.frames if f[0] == "O"] == list(range(1, 41))
            assert parent.frames[-1][1]["emission"] == 40
        finally:
            parent.close()

    def test_slow_capture_takes_at_most_half_the_wall_time(self):
        del PICKLE_SPANS[:]
        parent = RawParent([SlowState("slow")]).run_node()
        try:
            del PICKLE_SPANS[:]  # the forced baseline is not paced
            since = len(parent.frames)
            last = 0
            end = time.monotonic() + 0.6
            while time.monotonic() < end:  # an input every ~2 ms: every
                last = parent.deliver("slow", b"x")  # turn has work to commit
                parent.poll()
                time.sleep(0.002)
            parent.read_until(lambda f: f[0] == "S" and f[1]["ack"] == last, since)
            spans = list(PICKLE_SPANS)
            assert len(spans) >= 5, "input was continuous: captures must recur"
            # From the first capture's start to the last one's start, every
            # capture is followed by at least its own cost of not capturing
            # (an unpaced node would capture every turn: almost always).
            busy = sum(stop - start for start, stop in spans[:-1])
            wall = spans[-1][0] - spans[0][0]
            assert busy / wall <= 0.5
        finally:
            parent.close()


# --------------------------------------------------------------------- #
# (b) (c) (d) (g) the parent half, against thread-backed workers
# --------------------------------------------------------------------- #


def _two_stage_rig():
    """fan (worker 0) -> sink (parent) and tail (worker 1) -> sink."""
    return Rig(
        [Fan("fan", ["sink", "tail"], fanout=2), Fan("tail", ["sink"])],
        homes={"fan": 0, "tail": 1},
        workers=2,
    )


class TestParentCommit:
    def test_nothing_is_routed_before_the_marker_everything_at_it(self):
        with _two_stage_rig() as rig:
            rt, sink = rig.rt, rig.sink
            snapshots = rt.snapshots_received
            assert snapshots == 2 and rt.snapshot_bytes > 0  # the baselines
            rig.node(0).withhold = True
            for n in (1, 2):
                rt.send("test", "fan", n)
            rig.pump_until(lambda: len(rig.slot(0).uncommitted) == 8)
            rt.run_for(0.05)
            # Parked, not routed: not to the parent-local sink, not to worker 1.
            assert sink.got == []
            assert rig.slot(1).delivery_seq == 0
            assert rt.messages_routed == 2  # the two inputs
            assert rt.snapshots_received == snapshots
            parked = sum(len(entry[4]) for entry in rig.slot(0).uncommitted)
            assert rt.uncommitted_peak_bytes == parked > 0
            assert [entry[0] for entry in rig.slot(0).uncommitted] == list(range(1, 9))

            rig.node(0).withhold = False
            rig.pump_until(lambda: len(sink.got) == 8)
            assert not rig.slot(0).uncommitted and rig.slot(0).uncommitted_bytes == 0
            # Emission order, to parent-local and worker destinations alike.
            direct = [(n, k) for n in (1, 2) for k in (0, 1)]
            assert [g[1:] for g in sink.got if g[0] == "fan"] == direct
            assert rig.slot(1).delivery_seq == 4
            rt.refresh_actors(["tail"])
            tail = rt.actor("tail")
            assert [tuple(m[1:3]) for m in tail.seen] == direct
            assert rt.snapshots_received > snapshots
            assert rt.loss_accounting == {}

    def test_death_between_frames_and_marker_replays_exactly_once(self):
        with _two_stage_rig() as rig:
            rt, sink, sup = rig.rt, rig.sink, rig.supervisor
            doomed = rig.node(0)
            doomed.withhold = True
            for n in (1, 2, 3):
                rt.send("test", "fan", n)
            rig.pump_until(lambda: len(rig.slot(0).uncommitted) == 12)
            assert sink.got == [] and rig.slot(1).delivery_seq == 0
            assert [seq for seq, _f in rig.slot(0).unacked] == [1, 2, 3]
            assert rig.slot(0).emission_high == 12

            rt._procs[0].kill()
            rig.pump_until(lambda: bool(sup.recoveries))
            recovery = sup.recoveries[0]
            assert recovery["worker"] == 0
            assert recovery["replayed"] == 3  # from ack + 1 = 1
            assert rig.node(0) is not doomed

            rig.pump_until(lambda: len(sink.got) == 12)
            rt.run_for(0.1)  # anything routed twice would have landed by now
            direct = [(n, k) for n in (1, 2, 3) for k in (0, 1)]
            assert [g[1:] for g in sink.got if g[0] == "fan"] == direct
            assert [tuple(g[1][1:3]) for g in sink.got if g[0] == "tail"] == direct
            assert len(sink.got) == 12
            assert rig.slot(0).emission_high == 12 and not rig.slot(0).uncommitted
            assert rt.loss_accounting == {}

    def test_repeated_or_skipped_emission_id_is_an_error(self):
        rt = MultiprocRuntime(workers=1)
        rt.register(Sink())
        rt._supervision = Supervision(rt, Supervisor())
        rt._location = {"sink": None}

        def emission(seq):
            return _envelope(_K_MSG, "fan", "sink", encode_value_binary((1, 2, 3)), seq=seq)

        rt._route_frame(0, emission(1))
        rt._route_frame(0, emission(2))
        with pytest.raises(SessionError, match="dense"):
            rt._route_frame(0, emission(2))
        with pytest.raises(SessionError, match="dense"):
            rt._route_frame(0, emission(4))
        assert [entry[0] for entry in rt._supervision.slots[0].uncommitted] == [1, 2]
        # Unsequenced (unsupervised-style) frames are routed, never parked.
        rt._route_frame(0, emission(0))
        assert len(rt._pending_local) == 1

    def test_stop_commits_what_the_last_turn_emitted(self):
        rig = _two_stage_rig()
        with rig:
            rig.node(0).withhold = True
            rig.rt.send("test", "fan", 1)
            rig.pump_until(lambda: len(rig.slot(0).uncommitted) == 4)
            received = rig.rt.snapshots_received
        # stop() forced a marker out of the withholding node: its parked
        # frames were committed on the way down, not dropped.
        assert rig.rt.snapshots_received >= received + 2
        assert not rig.slot(0).uncommitted
        assert rig.slot(1).delivery_seq == 2


# --------------------------------------------------------------------- #
# Satellite: snapshot size is independent of what the turn emitted
# --------------------------------------------------------------------- #


class TestSnapshotSize:
    def test_turn_emitting_more_than_the_frame_cap_commits(self, monkeypatch):
        """ROADMAP correctness defect 2: with emissions copied into the
        snapshot, a turn that emitted more than ``MAX_FRAME_BYTES`` made a
        snapshot no frame can carry — ``SessionError`` inside ``_snapshot``,
        again after every respawn.  A snapshot is now marker + state, so
        3 x 0.5 MB under a 1 MB cap commits and routes all three.  (A state
        blob that *alone* exceeds the cap is still fatal: that is chunking,
        ROADMAP "transport hazards" (c), not this test.)"""
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 1 << 20)
        rig = Rig([Fan("fan", ["sink"], fanout=3, pad=512 << 10)], homes={"fan": 0})
        with rig:
            rt = rig.rt
            baseline_bytes = rt.snapshot_bytes  # one snapshot, nothing emitted
            assert rt.snapshots_received == 1
            rt.send("test", "fan", 1)
            rig.pump_until(lambda: len(rig.sink.got) == 3)
            assert rt.uncommitted_peak_bytes > 3 * (512 << 10)
            sizes = (rt.snapshot_bytes - baseline_bytes) / (rt.snapshots_received - 1)
            assert sizes < baseline_bytes + 256  # + the input the state now lists
            assert not rig.supervisor.recoveries
            assert rt.loss_accounting == {}


# --------------------------------------------------------------------- #
# Bounded loss: the retransmit buffer's cap
# --------------------------------------------------------------------- #


class TestRetransmitOverflow:
    def test_overflow_and_the_replay_gap_it_leaves_are_counted(self, monkeypatch):
        """With the cap at two frames and no marker acknowledging anything,
        the third input pushes the first out of the retransmit buffer; the
        loss is counted at once, and again as a gap when the worker dies and
        the replay can only start at the second input."""
        frame_bytes = len(_envelope(_K_MSG, "test", "fan", encode_value_binary(1)))
        monkeypatch.setattr(supervision, "RETRANSMIT_LIMIT_BYTES", 2 * frame_bytes)
        with _two_stage_rig() as rig:
            rt = rig.rt
            rig.node(0).withhold = True
            for n in (1, 2, 3):
                rt.send("test", "fan", n)
            assert [seq for seq, _f in rig.slot(0).unacked] == [2, 3]
            assert rt.loss_accounting == {
                "retransmit_overflow_frames": 1,
                "retransmit_overflow_bytes": frame_bytes,
            }
            rt._procs[0].kill()
            rig.pump_until(lambda: bool(rig.supervisor.recoveries))
            assert rig.supervisor.recoveries[0]["replayed"] == 2
            assert rt.loss_accounting["replay_gap_frames"] == 1


# --------------------------------------------------------------------- #
# Real processes
# --------------------------------------------------------------------- #


def _supervised_deployment(journal_dir, chaos=None, batch_size=8):
    runtime = MultiprocRuntime(
        workers=2, placement=pipeline_placement(DCS, 2), chaos=chaos
    )
    deployment = ChariotsDeployment(runtime, DCS, batch_size=batch_size)
    supervisor = deployment.supervise(journal_dir=journal_dir)
    return runtime, deployment, supervisor


class TestIdleLatency:
    def test_single_appends_are_not_clocked(self):
        """50 sequential single appends on an idle supervised deployment.
        With outputs held for a 50 ms snapshot timer each worker hop cost a
        uniform 0-50 ms, so the median could not be under 25 ms; committed
        per turn it is a few milliseconds."""
        with tempfile.TemporaryDirectory() as journal_dir:
            runtime, deployment, _sup = _supervised_deployment(journal_dir)
            try:
                runtime.start()
                client = deployment.client("A")
                acks = []
                client.append("warm-up", on_done=acks.append)
                runtime.run_until(lambda: len(acks) == 1, timeout=30)
                latencies = []
                for i in range(50):
                    start = time.perf_counter()
                    client.append(f"p{i}", on_done=acks.append)
                    runtime.run_until(lambda: len(acks) == i + 2, timeout=30)
                    latencies.append(time.perf_counter() - start)
                assert sorted(latencies)[25] < 0.025
                assert runtime.loss_accounting == {}
            finally:
                runtime.stop()
                for dc in DCS:
                    for journal in deployment[dc].journals.values():
                        journal.close()


#: Sized so the burst outlasts the latest kill instant (0.10 s) with margin:
#: on the 2-core sizing host the 256-in-flight burst acks 16 384 records in
#: about 0.36 s (4 096 took 0.08 s once record runs crossed as columns, and
#: the later instants missed it).
BURST_RECORDS = 16384
BURST_WINDOW = 256


@pytest.fixture(scope="module")
def burst_reference():
    return run_abstract(DCS, [(DCS[i % 2], f"p{i}") for i in range(BURST_RECORDS)])


@pytest.mark.slow
class TestKillInsideBurst:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sigkill_between_emission_and_marker_matches_the_abstract_solution(
        self, seed, burst_reference
    ):
        """SIGKILL the stage worker at a seeded instant while 256 appends
        are kept in flight.  The instant may fall where the held-in-the-
        worker design never let it: frames the worker emitted are parked at
        the parent and their marker is not sent yet (``TestParentCommit``
        pins that window down deterministically; here it is hit or missed
        by the scheduler).  Wherever it falls, the recovered logs must match
        the abstract solution's, with no frame given up on and no duplicate
        for the filters to drop — parked frames never happened."""
        kill_at = random.Random(seed).uniform(0.02, 0.10)
        plan = FaultPlan(seed=seed).kill(0, kill_at)
        with tempfile.TemporaryDirectory() as journal_dir:
            runtime, deployment, supervisor = _supervised_deployment(
                journal_dir, chaos=plan
            )
            try:
                runtime.start()
                clients = [deployment.client(dc) for dc in DCS]
                acks = []
                sent = 0
                in_flight_at_kill = []

                def send_next(ack=None):  # every ack admits the next append
                    nonlocal sent
                    if ack is not None:
                        acks.append(ack)
                    if sent < BURST_RECORDS:
                        clients[sent % 2].append(f"p{sent}", on_done=send_next)
                        sent += 1

                def all_acked():
                    if plan.stats["workers_killed"] and not in_flight_at_kill:
                        in_flight_at_kill.append(sent - len(acks))
                    return len(acks) == BURST_RECORDS

                for _ in range(BURST_WINDOW):
                    send_next()
                runtime.run_until(all_acked, timeout=120)
                runtime.run_until(lambda: bool(supervisor.recoveries), timeout=120)
                assert in_flight_at_kill and in_flight_at_kill[0] > 0, (
                    "the kill must land inside the burst"
                )
                assert deployment.settle(max_seconds=120)
                assert check_logs(deployment.logs(), reference=burst_reference, acks=acks).ok
                assert dict(runtime.loss_accounting) == {}
                assert runtime.uncommitted_peak_bytes > 0
                duplicates = sum(
                    f.core.duplicates_dropped for dc in DCS for f in deployment[dc].filters
                )
                assert duplicates == 0
            finally:
                runtime.stop()
