"""The multiproc seq/ack/group-commit protocol as an explicit-state machine.

This is a faithful, bounded abstraction of the exactly-once path in
``runtime/multiproc/`` — one parent, one supervised worker, and the two
directions of their TCP connection as FIFO channels:

* **inject** — the parent admits a frame (``_admit_frame``): bump
  ``delivery_seq``, stamp it into the frame, append to the retransmission
  buffer, and queue it to the worker unless the slot is buffering.
* **deliver** — the worker pops the head input frame (``_on_frame``):
  duplicates (``seq <= delivered_seq``) are dropped; fresh frames advance
  ``delivered_seq`` and produce one output with the next emission id,
  queued to the parent at once (``_WorkerNode.send`` under supervision).
* **snapshot** — the worker queues a commit marker ``(ack, emission)``
  behind everything it has emitted (``_commit``/``_snapshot``).  Skipped
  when nothing changed, exactly like the ``_last_snap`` marker in the code.
  (The one-in-flight and duty-cycle rules only *delay* this event; the
  machine lets it fire whenever something changed, a superset.)
* **recv** — the parent pops the head of the worker channel
  (``_park``/``_on_snapshot``): an output is *parked* in
  ``uncommitted``; a snapshot trims the unacked buffer up to its ack and
  commits — accepts, in order — every parked output up to its emission.
* **crash** — SIGKILL: worker state, both channels and the parked outputs
  vanish; the slot starts buffering (``_mark_worker_down``).
* **respawn** — ``_respawn_once``: restore from the last received snapshot
  (delivered/emission counters reset to it, and the parent's
  ``emission_high`` with them — regenerated emissions reuse the ids of the
  dropped ones), take the forced baseline snapshot, retransmit every
  unacked input, stop buffering.  A retransmit window that no longer
  starts at ``ack + 1`` is a replay gap.
* **dup / reorder** — adversarial transport events: duplicate the head
  input frame at the tail, or swap the first two input frames.  The
  worker→parent direction stays FIFO by default because the commit
  argument *depends* on it (the marker must arrive behind the frames it
  covers: one that overtakes a frame leaves it parked with no marker to
  release it, and a crash then loses it — the restored worker is already
  past it); ``reorder_wp=True`` lets a test demonstrate that assumption is
  load-bearing.

Invariants checked in every reachable state:

* ``exactly_once`` — the parent-accepted emission-id sequence is strictly
  increasing (no output is ever delivered twice);
* ``bounded_retransmit`` — ``len(unacked) == delivery_seq - acked`` (the
  buffer holds exactly the unacknowledged window, nothing leaks);
* ``no_replay_gap`` — a respawn always retransmits from ``ack + 1``;
* ``quiescent_complete`` — whenever the system is quiet (worker alive,
  channels empty, nothing left to snapshot) every emission the worker ever
  produced has been accepted exactly once, in order;
* ``no_uncommitted_escape`` — nothing is accepted above the ``emission``
  of the last snapshot the parent *received* (the commit point);
* ``dense_emissions`` — accepted then parked ids always read ``1..n``,
  and while a worker is up ``emission_high == n``: the parent's
  ``seq == emission_high + 1`` check never fires, across a respawn too.

All counters are bounded by the config, so the reachable space is finite
and :func:`~repro.analysis.protocol_check.checker.explore` terminates with
``complete=True`` — a proof over the bounded machine, not a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Tuple

Snapshot = Tuple[int, int]  #: (ack, emission)
WpItem = Tuple[object, ...]  #: ("S", ack, emission) | ("O", emission id)


class MPState(NamedTuple):
    """One global state: parent slot + channels + worker, all hashable."""

    delivery_seq: int
    acked: int
    unacked: Tuple[int, ...]
    snap: Snapshot  #: last snapshot the parent *received*
    emission_high: int
    uncommitted: Tuple[int, ...]  #: emission ids parked at the parent
    buffering: bool
    accepted: Tuple[int, ...]  #: emission ids delivered to destinations
    ch_pw: Tuple[int, ...]  #: parent -> worker input seqs in flight
    ch_wp: Tuple[WpItem, ...]  #: worker -> parent snapshots/outputs in flight
    w_alive: bool
    w_delivered: int
    w_emission: int
    w_last_snap: Tuple[int, int]
    injected: int
    dups: int
    crashes: int
    replay_gap: int


@dataclass(frozen=True, slots=True)
class MPConfig:
    """Bounds on the adversary; they define the finite reachable space."""

    max_injects: int = 3
    max_dups: int = 1
    max_crashes: int = 1
    allow_reorder: bool = True
    #: reorder the worker->parent channel too — breaks the TCP-FIFO
    #: assumption output commit rests on; off everywhere except the test
    #: that proves that assumption is load-bearing.
    reorder_wp: bool = False


def _quiescent(s: MPState) -> bool:
    return (
        s.w_alive
        and not s.ch_pw
        and not s.ch_wp
        and s.w_last_snap == (s.w_delivered, s.w_emission)
    )


class MultiprocModel:
    """Checkable model of the supervised single-worker multiproc protocol."""

    def __init__(self, config: MPConfig = MPConfig()) -> None:
        self.config = config

    def initial(self) -> MPState:
        return MPState(
            delivery_seq=0,
            acked=0,
            unacked=(),
            snap=(0, 0),
            emission_high=0,
            uncommitted=(),
            buffering=False,
            accepted=(),
            ch_pw=(),
            ch_wp=(),
            w_alive=True,
            w_delivered=0,
            w_emission=0,
            w_last_snap=(0, 0),
            injected=0,
            dups=0,
            crashes=0,
            replay_gap=0,
        )

    # -- events ------------------------------------------------------------ #

    def events(self, s: MPState) -> Iterable[Tuple[str, MPState]]:
        cfg = self.config
        out: List[Tuple[str, MPState]] = []
        if s.injected < cfg.max_injects:
            seq = s.delivery_seq + 1
            out.append(
                (
                    f"inject({seq})",
                    s._replace(
                        delivery_seq=seq,
                        unacked=s.unacked + (seq,),
                        ch_pw=s.ch_pw if s.buffering else s.ch_pw + (seq,),
                        injected=s.injected + 1,
                    ),
                )
            )
        if s.w_alive and s.ch_pw:
            seq, rest = s.ch_pw[0], s.ch_pw[1:]
            if seq <= s.w_delivered:
                out.append((f"deliver({seq})=dup-dropped", s._replace(ch_pw=rest)))
            else:
                emission = s.w_emission + 1
                out.append(
                    (
                        f"deliver({seq})",
                        s._replace(
                            ch_pw=rest,
                            w_delivered=seq,
                            w_emission=emission,
                            ch_wp=s.ch_wp + (("O", emission),),
                        ),
                    )
                )
        if s.w_alive and s.w_last_snap != (s.w_delivered, s.w_emission):
            marker: Snapshot = (s.w_delivered, s.w_emission)
            out.append(
                (
                    f"snapshot(ack={s.w_delivered})",
                    s._replace(
                        ch_wp=s.ch_wp + (("S",) + marker,),
                        w_last_snap=marker,
                    ),
                )
            )
        if s.ch_wp:
            item, rest_wp = s.ch_wp[0], s.ch_wp[1:]
            if item[0] == "S":
                ack, emission = item[1], item[2]
                assert isinstance(ack, int) and isinstance(emission, int)
                unacked = s.unacked
                while unacked and unacked[0] <= ack:
                    unacked = unacked[1:]
                parked = s.uncommitted
                accepted = s.accepted
                while parked and parked[0] <= emission:
                    accepted, parked = accepted + (parked[0],), parked[1:]
                out.append(
                    (
                        f"recv-snap(ack={ack})",
                        s._replace(
                            ch_wp=rest_wp,
                            snap=(ack, emission),
                            unacked=unacked,
                            acked=ack,
                            uncommitted=parked,
                            accepted=accepted,
                        ),
                    )
                )
            else:
                eid = item[1]
                assert isinstance(eid, int)
                out.append(
                    (
                        f"recv-out({eid})",
                        s._replace(
                            ch_wp=rest_wp,
                            emission_high=eid,
                            uncommitted=s.uncommitted + (eid,),
                        ),
                    )
                )
        if s.w_alive and s.ch_pw and s.dups < cfg.max_dups:
            out.append(
                (
                    f"dup({s.ch_pw[0]})",
                    s._replace(ch_pw=s.ch_pw + (s.ch_pw[0],), dups=s.dups + 1),
                )
            )
        if (
            cfg.allow_reorder
            and len(s.ch_pw) >= 2
            and s.ch_pw[0] != s.ch_pw[1]
        ):
            swapped = (s.ch_pw[1], s.ch_pw[0]) + s.ch_pw[2:]
            out.append(("reorder-pw", s._replace(ch_pw=swapped)))
        if cfg.reorder_wp and len(s.ch_wp) >= 2 and s.ch_wp[0] != s.ch_wp[1]:
            swapped_wp = (s.ch_wp[1], s.ch_wp[0]) + s.ch_wp[2:]
            out.append(("reorder-wp", s._replace(ch_wp=swapped_wp)))
        if s.w_alive and s.crashes < cfg.max_crashes:
            out.append(
                (
                    "crash",
                    s._replace(
                        w_alive=False,
                        ch_pw=(),
                        ch_wp=(),
                        uncommitted=(),
                        buffering=True,
                        crashes=s.crashes + 1,
                    ),
                )
            )
        if not s.w_alive:
            ack, emission = s.snap
            gap = 0
            if s.unacked and s.unacked[0] > ack + 1:
                gap = s.unacked[0] - ack - 1
            baseline: WpItem = ("S", ack, emission)
            out.append(
                (
                    "respawn",
                    s._replace(
                        w_alive=True,
                        w_delivered=ack,
                        w_emission=emission,
                        w_last_snap=(ack, emission),
                        ch_pw=s.unacked,
                        ch_wp=(baseline,),
                        emission_high=emission,
                        buffering=False,
                        replay_gap=s.replay_gap + gap,
                    ),
                )
            )
        return out

    # -- invariants ---------------------------------------------------------- #

    def invariants(self) -> Iterable[Tuple[str, Callable[[MPState], bool]]]:
        return [
            (
                "exactly_once",
                lambda s: all(
                    a < b for a, b in zip(s.accepted, s.accepted[1:])
                ),
            ),
            (
                "bounded_retransmit",
                lambda s: len(s.unacked) == s.delivery_seq - s.acked,
            ),
            ("no_replay_gap", lambda s: s.replay_gap == 0),
            (
                "quiescent_complete",
                lambda s: not _quiescent(s)
                or s.accepted == tuple(range(1, s.w_emission + 1)),
            ),
            (
                "no_uncommitted_escape",
                lambda s: not s.accepted or max(s.accepted) <= s.snap[1],
            ),
            (
                "dense_emissions",
                lambda s: s.accepted + s.uncommitted
                == tuple(range(1, len(s.accepted) + len(s.uncommitted) + 1))
                and (
                    not s.w_alive
                    or s.emission_high == len(s.accepted) + len(s.uncommitted)
                ),
            ),
        ]


__all__ = ["MPConfig", "MPState", "MultiprocModel"]
