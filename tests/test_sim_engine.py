"""The discrete-event engine and process model."""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.errors import SimulationError, UnresolvedFaultError
from repro.sim.engine import Engine
from repro.sim.process import Acquire, Delay, Get, Wait
from repro.sim.resources import FIFOQueue, Resource, SimEvent


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, lambda: order.append("c"))
        engine.schedule(10, lambda: order.append("a"))
        engine.schedule(20, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 30

    def test_same_time_events_fifo(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.schedule(5, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_run_until_leaves_future_events(self):
        engine = Engine()
        fired = []
        engine.schedule(10, lambda: fired.append(1))
        engine.schedule(50, lambda: fired.append(2))
        engine.run(until=20)
        assert fired == [1]
        assert engine.now == 20
        assert engine.pending_events == 1
        engine.run()
        assert fired == [1, 2]

    def test_run_until_advances_clock_past_last_event(self):
        engine = Engine()
        engine.run(until=99)
        assert engine.now == 99

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule_at(15, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [15]

    def test_schedule_at_past_names_time_and_delay(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        assert engine.now == 10
        with pytest.raises(SimulationError) as excinfo:
            engine.schedule_at(3, lambda: None)
        message = str(excinfo.value)
        # the error names both the requested absolute time and the
        # (negative) delay it implies from the current clock
        assert "t=3" in message
        assert "now=10" in message
        assert "-7" in message

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.schedule(5, lambda: seen.append(engine.now))

        engine.schedule(10, first)
        engine.run()
        assert seen == [10, 15]


class TestProcess:
    def test_delay_sequence(self):
        engine = Engine()
        marks = []

        def proc():
            yield Delay(10)
            marks.append(engine.now)
            yield Delay(5)
            marks.append(engine.now)
            return "done"

        p = engine.spawn(proc())
        engine.run()
        assert marks == [10, 15]
        assert p.finished
        assert p.result == "done"
        assert p.finished_at == 15

    def test_done_event_fires_with_result(self):
        engine = Engine()
        got = []

        def worker():
            yield Delay(7)
            return 42

        def waiter(w):
            value = yield Wait(w.done)
            got.append((engine.now, value))

        w = engine.spawn(worker())
        engine.spawn(waiter(w))
        engine.run()
        assert got == [(7, 42)]

    def test_wait_on_already_fired_event(self):
        engine = Engine()
        event = SimEvent(engine)
        event.fire("payload")
        got = []

        def proc():
            value = yield Wait(event)
            got.append(value)

        engine.spawn(proc())
        engine.run()
        assert got == ["payload"]

    def test_invalid_yield_raises(self):
        engine = Engine()

        def proc():
            yield "nonsense"

        with pytest.raises(SimulationError):
            engine.spawn(proc())

    def test_blocked_processes_reported(self):
        engine = Engine()
        event = SimEvent(engine)

        def proc():
            yield Wait(event)

        p = engine.spawn(proc())
        engine.run()
        assert p.blocked
        assert engine.blocked_processes() == [p]
        event.fire()
        engine.run()
        assert not p.blocked


class TestProcessLifetime:
    """The engine keeps only unfinished and suspended processes."""

    def test_finished_processes_are_freed_without_the_collector(self):
        engine = Engine()
        cpu = Resource(engine, 1)
        queue = FIFOQueue(engine)
        event = SimEvent(engine)

        def worker(i):
            yield Delay(i)
            yield Acquire(cpu)
            yield Delay(2)
            cpu.release()
            yield Get(queue)
            yield Wait(event)
            return i

        def producer():
            yield Delay(10)
            for i in range(3):
                queue.put(i)
            event.fire()

        collecting = gc.isenabled()
        gc.disable()
        try:
            refs = [weakref.ref(engine.spawn(worker(i))) for i in range(3)]
            refs.append(weakref.ref(engine.spawn(producer())))
            engine.run()
            assert [ref() for ref in refs] == [None] * 4
        finally:
            if collecting:
                gc.enable()

    def test_blocked_and_suspended_listed_in_spawn_order(self):
        engine = Engine()
        event = SimEvent(engine)

        def waiter():
            yield Wait(event)

        def finisher():
            yield Delay(1)

        def faulty(delay):
            yield Delay(delay)
            raise UnresolvedFaultError("no manager could resolve the fault")

        late_fault = engine.spawn(faulty(3))
        first_waiter = engine.spawn(waiter())
        engine.spawn(finisher())
        early_fault = engine.spawn(faulty(2))
        second_waiter = engine.spawn(waiter())
        engine.run()
        assert engine.blocked_processes() == [first_waiter, second_waiter]
        assert engine.suspended_processes() == [late_fault, early_fault]

    def test_joining_a_finished_process_resumes_with_its_result(self):
        engine = Engine()
        got = []

        def worker():
            yield Delay(3)
            return 42

        def joiner(process):
            got.append((yield Wait(process.done)))

        finished = engine.spawn(worker())
        engine.run()
        assert finished._done is None  # nobody asked for it yet
        engine.spawn(joiner(finished))
        engine.run()
        assert got == [42]
        assert engine.now == 3
        assert finished.done is finished.done

    def test_joining_a_suspended_process_resumes_with_its_fault(self):
        engine = Engine()
        got = []

        def faulty():
            yield Delay(1)
            raise UnresolvedFaultError("no manager could resolve the fault")

        def joiner(process):
            got.append((yield Wait(process.done)))

        bad = engine.spawn(faulty())
        early = engine.spawn(joiner(bad))
        engine.run()
        engine.spawn(joiner(bad))
        engine.run()
        assert early.finished
        assert got == [bad.failure, bad.failure]
        assert isinstance(bad.failure, UnresolvedFaultError)

    def test_a_process_never_has_two_wakeups_pending(self):
        engine = Engine()
        cpu = Resource(engine, 2)
        queue = FIFOQueue(engine)
        event = SimEvent(engine)
        worst = []

        def worker(i):
            yield Delay(i % 3)
            yield Acquire(cpu)
            yield Delay(5)
            cpu.release()
            yield Get(queue)
            yield Wait(event)

        def producer():
            for i in range(8):
                yield Delay(2)
                queue.put(i)
            event.fire()

        def pending_per_process():
            owners = Counter(
                getattr(callback, "__self__", None)
                for _, _, callback in engine._heap
            )
            owners.pop(None, None)
            worst.append(max(owners.values(), default=0))

        engine.add_tick_hook(pending_per_process)
        for i in range(8):
            engine.spawn(worker(i))
        engine.spawn(producer())
        engine.run()
        assert engine.blocked_processes() == []
        assert max(worst) == 1


class TestResource:
    def test_capacity_respected(self):
        engine = Engine()
        cpu = Resource(engine, 2)
        active = []
        peak = []

        def proc(i):
            yield Acquire(cpu)
            active.append(i)
            peak.append(len(active))
            yield Delay(10)
            active.remove(i)
            cpu.release()

        for i in range(5):
            engine.spawn(proc(i))
        engine.run()
        assert max(peak) == 2
        assert engine.now == 30  # 5 jobs of 10 on 2 servers

    def test_fifo_granting(self):
        engine = Engine()
        res = Resource(engine, 1)
        order = []

        def proc(i):
            yield Delay(i)  # arrive in order
            yield Acquire(res)
            order.append(i)
            yield Delay(100)
            res.release()

        for i in range(3):
            engine.spawn(proc(i))
        engine.run()
        assert order == [0, 1, 2]

    def test_large_request_blocks_later_small_ones(self):
        engine = Engine()
        res = Resource(engine, 2)
        order = []

        def holder():
            yield Acquire(res, 1)
            yield Delay(10)
            res.release(1)

        def big():
            yield Delay(1)
            yield Acquire(res, 2)
            order.append("big")
            res.release(2)

        def small():
            yield Delay(2)
            yield Acquire(res, 1)
            order.append("small")
            res.release(1)

        engine.spawn(holder())
        engine.spawn(big())
        engine.spawn(small())
        engine.run()
        assert order == ["big", "small"]  # no overtaking

    def test_over_capacity_request_rejected(self):
        engine = Engine()
        res = Resource(engine, 2)

        def proc():
            yield Acquire(res, 3)

        with pytest.raises(SimulationError):
            engine.spawn(proc())

    def test_bad_release_rejected(self):
        engine = Engine()
        res = Resource(engine, 2)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self):
        engine = Engine()
        res = Resource(engine, 1)

        def holder():
            yield Acquire(res)
            yield Delay(100)
            res.release()

        def waiter():
            yield Delay(1)
            yield Acquire(res)
            res.release()

        engine.spawn(holder())
        engine.spawn(waiter())
        engine.run(until=50)
        assert res.queue_length == 1
        assert res.available == 0


class TestSimEvent:
    def test_fire_twice_rejected(self):
        engine = Engine()
        event = SimEvent(engine)
        event.fire()
        with pytest.raises(SimulationError):
            event.fire()

    def test_broadcast_to_all_waiters(self):
        engine = Engine()
        event = SimEvent(engine)
        got = []

        def proc(i):
            value = yield Wait(event)
            got.append((i, value))

        for i in range(3):
            engine.spawn(proc(i))
        engine.schedule(5, lambda: event.fire("x"))
        engine.run()
        assert sorted(got) == [(0, "x"), (1, "x"), (2, "x")]


class TestFIFOQueue:
    def test_put_then_get(self):
        engine = Engine()
        q = FIFOQueue(engine)
        q.put("a")
        q.put("b")
        got = []

        def proc():
            got.append((yield Get(q)))
            got.append((yield Get(q)))

        engine.spawn(proc())
        engine.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        engine = Engine()
        q = FIFOQueue(engine)
        got = []

        def consumer():
            item = yield Get(q)
            got.append((engine.now, item))

        engine.spawn(consumer())
        engine.schedule(25, lambda: q.put("late"))
        engine.run()
        assert got == [(25, "late")]

    def test_getters_served_in_arrival_order(self):
        engine = Engine()
        q = FIFOQueue(engine)
        got = []

        def consumer(i):
            yield Delay(i)
            item = yield Get(q)
            got.append((i, item))

        for i in range(3):
            engine.spawn(consumer(i))

        def producer():
            yield Delay(10)
            q.put("x")
            q.put("y")
            q.put("z")

        engine.spawn(producer())
        engine.run()
        assert got == [(0, "x"), (1, "y"), (2, "z")]

    def test_len(self):
        engine = Engine()
        q = FIFOQueue(engine)
        q.put(1)
        q.put(2)
        assert len(q) == 2
