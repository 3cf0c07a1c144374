"""Tests for the event loop, actor model, and deterministic local runtime."""

import pytest

from repro.chaos import FaultPlan
from repro.core import ConfigurationError
from repro.core.errors import RuntimeExhaustedError, SessionError
from repro.runtime import Actor, EventLoop, LocalRuntime


class Echo(Actor):
    """Replies to every message and records what it saw."""

    def __init__(self, name):
        super().__init__(name)
        self.seen = []

    def on_message(self, sender, message):
        self.seen.append((sender, message))
        if isinstance(message, str) and message.startswith("ping"):
            self.send(sender, message.replace("ping", "pong"))


class TestEventLoop:
    def test_time_starts_at_zero(self):
        assert EventLoop().now == 0.0

    def test_schedule_and_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [1.0]

    def test_equal_times_fire_in_schedule_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_cancel(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        loop.run()
        assert fired == []

    def test_run_until_time_advances_clock(self):
        loop = EventLoop()
        assert loop.run(until_time=5.0) == 5.0
        assert loop.now == 5.0

    def test_until_time_leaves_later_events_pending(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda: fired.append(1))
        loop.run(until_time=5.0)
        assert fired == []
        loop.run()
        assert fired == [1]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.schedule(-1, lambda: None)

    def test_max_events(self):
        loop = EventLoop()
        count = []

        def reschedule():
            count.append(1)
            loop.schedule(1.0, reschedule)

        loop.schedule(1.0, reschedule)
        loop.run(max_events=10)
        assert len(count) == 10

    def test_run_until_predicate(self):
        loop = EventLoop()
        box = []
        loop.schedule(1.0, lambda: box.append(1))
        loop.schedule(2.0, lambda: box.append(2))
        loop.run_until(lambda: bool(box))
        assert box == [1]

    def test_run_until_exhaustion_raises(self):
        loop = EventLoop()
        with pytest.raises(RuntimeExhaustedError):
            loop.run_until(lambda: False)


class TestLocalRuntime:
    def test_message_delivery(self):
        rt = LocalRuntime()
        a, b = Echo("a"), Echo("b")
        rt.register_all([a, b])
        rt.start()
        a.send("b", "ping-1")
        rt.run()
        assert ("a", "ping-1") in b.seen
        assert ("b", "pong-1") in a.seen

    def test_unregistered_actor_cannot_send(self):
        orphan = Echo("orphan")
        with pytest.raises(SessionError):
            orphan.send("anyone", "hi")

    def test_on_start_called_once(self):
        calls = []

        class Starter(Actor):
            def on_start(self):
                calls.append(self.name)

            def on_message(self, sender, message):
                pass

        rt = LocalRuntime()
        rt.register(Starter("s"))
        rt.start()
        rt.start()
        assert calls == ["s"]

    def test_late_registration_starts_immediately(self):
        calls = []

        class Starter(Actor):
            def on_start(self):
                calls.append(self.name)

            def on_message(self, sender, message):
                pass

        rt = LocalRuntime()
        rt.start()
        rt.register(Starter("late"))
        assert calls == ["late"]

    def test_periodic_timer(self):
        class Ticker(Actor):
            def __init__(self):
                super().__init__("ticker")
                self.ticks = 0

            def on_start(self):
                self.handle = self.set_timer(1.0, self._tick, periodic=True)

            def _tick(self):
                self.ticks += 1
                if self.ticks == 3:
                    self.handle.cancel()

            def on_message(self, sender, message):
                pass

        rt = LocalRuntime()
        ticker = Ticker()
        rt.register(ticker)
        rt.run(until_time=10.0)
        assert ticker.ticks == 3

    def test_one_shot_timer(self):
        fired = []

        class Once(Actor):
            def on_start(self):
                self.set_timer(2.0, lambda: fired.append(self.now))

            def on_message(self, sender, message):
                pass

        rt = LocalRuntime()
        rt.register(Once("once"))
        rt.run()
        assert fired == [2.0]

    def test_latency_hook_delays_delivery(self):
        """The plan's delay rule holds a copy back by [delay / 2, delay]."""
        rt = LocalRuntime(chaos=FaultPlan().delay(delay=10.0))
        a, b = Echo("a"), Echo("b")
        rt.register_all([a, b])
        rt.start()
        a.send("b", "x")
        rt.run(until_time=4.0)
        assert b.seen == []
        rt.run()
        assert b.seen == [("a", "x")]

    def test_drop_hook_drops(self):
        rt = LocalRuntime(chaos=FaultPlan().drop(dst="b"))
        a, b = Echo("a"), Echo("b")
        rt.register_all([a, b])
        rt.start()
        a.send("b", "x")
        rt.run()
        assert b.seen == []
        assert rt.messages_dropped == 1

    def test_run_for_advances_relative_time(self):
        rt = LocalRuntime()
        rt.run_for(3.0)
        rt.run_for(2.0)
        assert rt.now == 5.0


class TestReplace:
    def test_replace_swaps_the_actor(self):
        rt = LocalRuntime()
        old = Echo("node")
        rt.register(old)
        rt.start()
        new = Echo("node")
        rt.replace(new)
        rt.register(Echo("peer"))
        rt.actor("peer").send("node", "hello")
        rt.run()
        assert new.seen == [("peer", "hello")]
        assert old.seen == []

    def test_replace_unknown_actor_rejected(self):
        rt = LocalRuntime()
        with pytest.raises(ConfigurationError):
            rt.replace(Echo("ghost"))

    def test_in_flight_messages_reach_the_replacement(self):
        rt = LocalRuntime(chaos=FaultPlan().delay(delay=1.0))
        old = Echo("node")
        sender = Echo("sender")
        rt.register_all([old, sender])
        rt.start()
        sender.send("node", "delayed")   # in flight for 0.5-1 simulated second
        new = Echo("node")
        rt.replace(new)                   # crash + recovery before delivery
        rt.run()
        assert new.seen == [("sender", "delayed")]

    def test_replacement_on_start_hook_runs(self):
        calls = []

        class Starter(Actor):
            def on_start(self):
                calls.append(self.name)

            def on_message(self, sender, message):
                pass

        rt = LocalRuntime()
        rt.register(Starter("s"))
        rt.start()
        rt.replace(Starter("s"))
        assert calls == ["s", "s"]
