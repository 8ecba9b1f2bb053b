"""Discrete-event engine tests (Section III-C/III-D mechanics)."""

import pytest

from repro.sim.engine import (
    Actor,
    CallbackActor,
    ClockDomain,
    ComponentActor,
    Scheduler,
    TimedQueue,
)


class Recorder(Actor):
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def notify(self, scheduler, time, arg):
        self.log.append((time, self.tag, arg))


class TestScheduler:
    def test_time_ordering(self):
        sched = Scheduler()
        log = []
        sched.schedule(30, Recorder(log, "c"))
        sched.schedule(10, Recorder(log, "a"))
        sched.schedule(20, Recorder(log, "b"))
        sched.run()
        assert [t for t, _, _ in log] == [10, 20, 30]
        assert [tag for _, tag, _ in log] == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        sched = Scheduler()
        log = []
        sched.schedule(5, Recorder(log, "low"), priority=9)
        sched.schedule(5, Recorder(log, "high"), priority=1)
        sched.run()
        assert [tag for _, tag, _ in log] == ["high", "low"]

    def test_fifo_within_same_priority(self):
        sched = Scheduler()
        log = []
        sched.schedule(5, Recorder(log, "first"), priority=3)
        sched.schedule(5, Recorder(log, "second"), priority=3)
        sched.run()
        assert [tag for _, tag, _ in log] == ["first", "second"]

    def test_cancel(self):
        sched = Scheduler()
        log = []
        event = sched.schedule(5, Recorder(log, "x"))
        sched.cancel(event)
        sched.run()
        assert log == []

    def test_stop_event_terminates(self):
        sched = Scheduler()
        log = []

        class Chain(Actor):
            def notify(self, scheduler, time, arg):
                log.append(time)
                scheduler.schedule(10, self)

        sched.schedule(0, Chain())
        sched.stop(35)
        sched.run()
        assert log == [0, 10, 20, 30]
        assert sched.stopped

    def test_run_until(self):
        sched = Scheduler()
        log = []

        class Chain(Actor):
            def notify(self, scheduler, time, arg):
                log.append(time)
                scheduler.schedule(10, self)

        sched.schedule(0, Chain())
        sched.run(until=25)
        assert log == [0, 10, 20]
        assert sched.now == 25

    def test_cannot_schedule_into_past(self):
        sched = Scheduler()
        with pytest.raises(ValueError):
            sched.schedule(-1, Recorder([], "x"))

    def test_events_arg_passed(self):
        sched = Scheduler()
        log = []
        sched.schedule(1, Recorder(log, "x"), arg={"k": 1})
        sched.run()
        assert log == [(1, "x", {"k": 1})]

    def test_callback_actor(self):
        sched = Scheduler()
        seen = []
        sched.schedule(3, CallbackActor(lambda s, t, a: seen.append(t)))
        sched.run()
        assert seen == [3]

    def test_events_processed_counter(self):
        sched = Scheduler()
        for i in range(5):
            sched.schedule(i, Recorder([], "x"))
        sched.run()
        assert sched.events_processed == 5

    def test_pending_counts_live_events(self):
        sched = Scheduler()
        events = [sched.schedule(i + 1, Recorder([], "x"))
                  for i in range(10)]
        assert sched.pending == 10
        for event in events[:3]:
            sched.cancel(event)
        assert sched.pending == 7
        sched.cancel(events[0])  # double-cancel is a no-op
        assert sched.pending == 7
        sched.run()
        assert sched.pending == 0
        assert sched.events_processed == 7

    def test_mass_cancellation_compacts_heap(self):
        sched = Scheduler()
        log = []
        for i in range(10):
            sched.schedule(i + 1, Recorder(log, "keep"))
        doomed = [sched.schedule(1000 + i, Recorder(log, "bulk"))
                  for i in range(500)]
        for event in doomed:
            sched.cancel(event)
        # cancelled events outnumbered live ones: the heap was compacted
        # in place instead of carrying 500 corpses to the pop loop
        assert len(sched._heap) < 100
        assert sched.pending == 10
        sched.run()
        assert len(log) == 10
        assert all(tag == "keep" for _, tag, _ in log)


class TestCheckHook:
    def test_hook_called_every_interval(self):
        sched = Scheduler()
        calls = []
        sched.check_hook = lambda s, processed: calls.append(processed)
        sched.check_interval = 100

        class Chain(Actor):
            def __init__(self):
                self.n = 0

            def notify(self, scheduler, time, arg):
                self.n += 1
                if self.n < 350:
                    scheduler.schedule(1, self)

        sched.schedule(0, Chain())
        sched.run()
        assert calls == [100, 200, 300]

    def test_hook_exception_unwinds_with_accurate_count(self):
        sched = Scheduler()

        def hook(scheduler, processed):
            raise RuntimeError("budget")

        sched.check_hook = hook
        sched.check_interval = 10

        class Chain(Actor):
            def notify(self, scheduler, time, arg):
                scheduler.schedule(1, self)

        sched.schedule(0, Chain())
        with pytest.raises(RuntimeError, match="budget"):
            sched.run()
        assert sched.events_processed == 10


class Ticker:
    def __init__(self):
        self.cycles = []

    def tick(self, cycle):
        self.cycles.append(cycle)


class TestClockDomain:
    def test_ticks_components_in_order(self):
        sched = Scheduler()
        order = []

        class T:
            def __init__(self, tag):
                self.tag = tag

            def tick(self, cycle):
                order.append((cycle, self.tag))

        domain = ClockDomain("d", period=100)
        domain.add(T("a"))
        domain.add(T("b"))
        domain.start(sched)
        sched.run(until=250)
        assert order == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b")]

    def test_frequency_scaling(self):
        sched = Scheduler()
        ticker = Ticker()
        domain = ClockDomain("d", period=100)
        domain.add(ticker)
        domain.start(sched)
        sched.run(until=199)  # cycles at 0, 100
        domain.set_frequency_scale(100, 0.5)  # period becomes 200
        sched.run(until=799)
        # further ticks at 300, 500, 700
        assert len(ticker.cycles) == 5

    def test_disable_enable(self):
        sched = Scheduler()
        ticker = Ticker()
        domain = ClockDomain("d", period=10)
        domain.add(ticker)
        domain.start(sched)
        sched.run(until=25)
        domain.disable()
        sched.run(until=65)
        assert len(ticker.cycles) == 3  # 0,10,20 then gated
        domain.enable()
        sched.run(until=85)
        assert len(ticker.cycles) > 3

    def test_halt_stops_rescheduling(self):
        sched = Scheduler()
        ticker = Ticker()
        domain = ClockDomain("d", period=10)
        domain.add(ticker)
        domain.start(sched)
        sched.run(until=15)
        domain.halt(sched)
        sched.run()
        assert len(ticker.cycles) == 2

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            ClockDomain("d", period=0)


class TestComponentActor:
    def test_one_event_per_cycle(self):
        sched = Scheduler()
        ticker = Ticker()
        actor = ComponentActor(ticker, period=10)
        actor.start(sched)
        sched.run(until=35)
        assert ticker.cycles == [0, 1, 2, 3]
        # four notifications = four events processed
        assert sched.events_processed == 4


class TestTimedQueue:
    def test_not_visible_same_time(self):
        q = TimedQueue()
        q.push(100, "a")
        assert q.pop_ready(100) is None
        assert q.pop_ready(101) == "a"

    def test_fifo(self):
        q = TimedQueue()
        q.push(1, "a")
        q.push(2, "b")
        assert q.drain_ready(10) == ["a", "b"]

    def test_capacity_backpressure(self):
        q = TimedQueue(capacity=2)
        assert q.push(0, 1)
        assert q.push(0, 2)
        assert not q.push(0, 3)
        assert q.full()
        q.pop_ready(5)
        assert q.push(5, 3)

    def test_drain_limit(self):
        q = TimedQueue()
        for i in range(5):
            q.push(0, i)
        assert q.drain_ready(1, limit=2) == [0, 1]
        assert len(q) == 3

    def test_peek(self):
        q = TimedQueue()
        q.push(0, "x")
        assert q.peek_ready(1) == "x"
        assert len(q) == 1
