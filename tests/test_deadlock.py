"""Deadlock detection in the lock manager."""

from __future__ import annotations

import pytest

from repro.dbms.locking import LockManager, LockMode, Transaction
from repro.errors import DeadlockError
from repro.sim.engine import Engine
from repro.sim.process import Delay


@pytest.fixture
def world():
    engine = Engine()
    return engine, LockManager(engine)


class TestDeadlockDetection:
    def test_ab_ba_cycle_detected(self, world):
        engine, locks = world
        outcomes = []

        def t1():
            txn = Transaction(1)
            yield from locks.acquire(txn, "a", LockMode.X)
            yield Delay(10)
            try:
                yield from locks.acquire(txn, "b", LockMode.X)
                outcomes.append("t1-ok")
            except DeadlockError:
                outcomes.append("t1-deadlock")
            locks.release_all(txn)

        def t2():
            txn = Transaction(2)
            yield Delay(1)
            yield from locks.acquire(txn, "b", LockMode.X)
            yield Delay(10)
            try:
                yield from locks.acquire(txn, "a", LockMode.X)
                outcomes.append("t2-ok")
            except DeadlockError:
                outcomes.append("t2-deadlock")
            locks.release_all(txn)

        engine.spawn(t1())
        engine.spawn(t2())
        engine.run()
        assert sorted(outcomes) == ["t1-ok", "t2-deadlock"]
        assert locks.deadlocks_detected == 1
        # after the victim released, nothing is leaked
        assert locks.holders("a") == {}
        assert locks.holders("b") == {}

    def test_three_party_cycle_detected(self, world):
        engine, locks = world
        deadlocks = []

        def txn_proc(i, first, second):
            txn = Transaction(i)
            yield from locks.acquire(txn, first, LockMode.X)
            yield Delay(10)
            try:
                yield from locks.acquire(txn, second, LockMode.X)
            except DeadlockError:
                deadlocks.append(i)
            locks.release_all(txn)

        engine.spawn(txn_proc(1, "a", "b"))
        engine.spawn(txn_proc(2, "b", "c"))
        engine.spawn(txn_proc(3, "c", "a"))
        engine.run()
        assert len(deadlocks) == 1  # exactly one victim breaks the cycle

    def test_upgrade_deadlock_detected(self, world):
        """Two S holders both upgrading to X deadlock on each other."""
        engine, locks = world
        deadlocks = []

        def upgrader(i, wait):
            txn = Transaction(i)
            yield from locks.acquire(txn, "r", LockMode.S)
            yield Delay(wait)
            try:
                yield from locks.acquire(txn, "r", LockMode.X)
            except DeadlockError:
                deadlocks.append(i)
            locks.release_all(txn)

        engine.spawn(upgrader(1, 5))
        engine.spawn(upgrader(2, 6))
        engine.run()
        assert deadlocks == [2]

    def test_cycle_through_fifo_queue_detected(self, world):
        """A fresh request queued behind a waiter also waits for it.

        T2's IS on ``a`` fits T1's IS but queues behind T3's X, which
        waits for T1; T1 then asks for ``b``, held by T2.  No holder edge
        closes the cycle, only the queue order does.
        """
        engine, locks = world
        deadlocks = []
        done = []

        def txn_proc(i, steps):
            txn = Transaction(i)
            try:
                for delay, resource, mode in steps:
                    yield Delay(delay)
                    yield from locks.acquire(txn, resource, mode)
                yield Delay(5)
                done.append(i)
            except DeadlockError:
                deadlocks.append(i)
            locks.release_all(txn)

        engine.spawn(txn_proc(1, [(0, "a", LockMode.IS), (3, "b", LockMode.X)]))
        engine.spawn(txn_proc(2, [(0, "b", LockMode.IS), (2, "a", LockMode.IS)]))
        engine.spawn(txn_proc(3, [(1, "a", LockMode.X)]))
        engine.run()
        assert deadlocks == [1]  # exactly one victim breaks the cycle
        assert locks.deadlocks_detected == 1
        assert sorted(done) == [2, 3]
        assert engine.blocked_processes() == []

    def test_plain_contention_is_not_flagged(self, world):
        engine, locks = world

        def holder():
            txn = Transaction(1)
            yield from locks.acquire(txn, "r", LockMode.X)
            yield Delay(100)
            locks.release_all(txn)

        def waiter():
            txn = Transaction(2)
            yield Delay(1)
            yield from locks.acquire(txn, "r", LockMode.X)
            locks.release_all(txn)

        engine.spawn(holder())
        w = engine.spawn(waiter())
        engine.run()
        assert w.finished
        assert locks.deadlocks_detected == 0

    def test_chain_without_cycle_is_not_flagged(self, world):
        engine, locks = world

        def t(i, first, second, delay):
            txn = Transaction(i)
            yield from locks.acquire(txn, first, LockMode.X)
            yield Delay(delay)
            yield from locks.acquire(txn, second, LockMode.X)
            yield Delay(5)
            locks.release_all(txn)

        # ordered acquisition: a chain, never a cycle
        engine.spawn(t(1, "a", "b", 10))

        def t2():
            txn = Transaction(2)
            yield Delay(1)
            yield from locks.acquire(txn, "b", LockMode.X)
            yield Delay(2)
            yield from locks.acquire(txn, "c", LockMode.X)
            yield Delay(5)
            locks.release_all(txn)

        engine.spawn(t2())
        engine.run()
        assert locks.deadlocks_detected == 0
