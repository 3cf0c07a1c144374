"""MultiprocRuntime: placement and routing mechanics.

The multiproc runtime trades determinism for parallelism, so its anchor is
*outcome* equivalence with the abstract solution, checked on real worker
processes and inline by ``tests/test_runtime_contract.py``.  These unit
tests cover the default placement policy, routing to worker-hosted
maintainers, shadow refresh, ``peek`` and worker errors; registration,
unknown destinations and the fault plan are the contract suite's.
"""

import pytest

from repro.core.errors import ConfigurationError, SessionError
from repro.core.record import Record, RecordId
from repro.flstore.maintainer import LogMaintainer
from repro.flstore.messages import PlaceRecords
from repro.flstore.range_map import OwnershipPlan
from repro.runtime.multiproc import (
    MultiprocRuntime,
    default_placement,
)


class TestPlacement:
    def test_data_plane_spreads_and_control_plane_stays_home(self):
        assert default_placement("A/store/0", 4) is not None
        assert default_placement("A/batcher/1", 4) is not None
        assert default_placement("B/queue/0", 4) is not None
        assert default_placement("A/client/1", 4) is None
        assert default_placement("A/controller", 4) is None
        assert default_placement("A/gc", 4) is None
        assert default_placement("supervisor", 4) is None

    def test_placement_is_stable_and_in_range(self):
        for name in ("A/store/0", "A/store/1", "B/filter/0"):
            first = default_placement(name, 3)
            assert first == default_placement(name, 3)
            assert first in (0, 1, 2)

    def test_zero_workers_places_everything_in_parent(self):
        assert default_placement("A/store/0", 0) is None


def _maintainer_runtime(workers):
    names = ["store/0", "store/1"]
    plan = OwnershipPlan(names, batch_size=100)
    runtime = MultiprocRuntime(
        workers=workers,
        placement=lambda name, w: (
            int(name[-1]) % w if w and name.startswith("store") else None
        ),
    )
    for name in names:
        runtime.register(LogMaintainer(name, plan, peers=names))
    return runtime


def _placements(n=20):
    """``n`` records at LIds 0..n-1: the first round, which ``store/0`` owns."""
    return PlaceRecords(
        [(lid, Record(rid=RecordId("A", lid + 1), body=b"x" * 32)) for lid in range(n)]
    ), n


class TestRouting:
    def test_refresh_updates_existing_references(self):
        runtime = _maintainer_runtime(workers=2)
        try:
            shadow = runtime.actor("store/0")
            runtime.start()
            message, n = _placements()
            runtime.send("driver", "store/0", message)
            runtime.run_until(
                lambda: runtime.peek("store/0", _stored_count) == n,
                timeout=30,
            )
            assert shadow.core.stored_count() == 0  # stale until refreshed
            runtime.refresh_actors(["store/0"])
            assert shadow.core.stored_count() == n  # same object, new state
            assert runtime.actor("store/0") is shadow
        finally:
            runtime.stop()

    def test_prepare_encoded_unknown_actor_raises(self):
        runtime = _maintainer_runtime(workers=0)
        runtime.start()
        with pytest.raises(ConfigurationError, match="unknown actor"):
            runtime.prepare_encoded("driver", "nobody", b"")

    def test_peek_runs_module_level_fn_in_worker(self):
        runtime = _maintainer_runtime(workers=2)
        try:
            runtime.start()
            assert runtime.peek("store/0", _stored_count) == 0
            message, n = _placements()
            runtime.send("driver", "store/0", message)
            runtime.run_until(
                lambda: runtime.peek("store/0", _stored_count) == n, timeout=30
            )
        finally:
            runtime.stop()

    def test_worker_side_errors_surface_in_parent(self):
        runtime = _maintainer_runtime(workers=2)
        try:
            runtime.start()
            with pytest.raises(SessionError, match="worker"):
                runtime.peek("store/0", _raise_in_worker)
        finally:
            runtime.stop()


def _stored_count(actor):
    return actor.core.stored_count()


def _raise_in_worker(actor):
    raise ValueError("boom")

