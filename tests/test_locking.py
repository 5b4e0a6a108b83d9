"""The hierarchical lock manager."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dbms.locking import (
    LockManager,
    LockMode,
    Transaction,
    combine,
    compatible,
)
from repro.errors import DeadlockError, LockProtocolError
from repro.sim.engine import Engine
from repro.sim.process import Delay


@pytest.fixture
def world():
    engine = Engine()
    return engine, LockManager(engine)


def run_txn(engine, generator):
    return engine.spawn(generator)


class TestCompatibilityMatrix:
    def test_gray_matrix(self):
        IS, IX, S, SIX, X = (
            LockMode.IS,
            LockMode.IX,
            LockMode.S,
            LockMode.SIX,
            LockMode.X,
        )
        assert compatible(IS, IS) and compatible(IS, IX)
        assert compatible(IS, S) and compatible(IS, SIX)
        assert not compatible(IS, X)
        assert compatible(IX, IX) and not compatible(IX, S)
        assert compatible(S, S) and not compatible(S, IX)
        assert compatible(SIX, IS) and not compatible(SIX, S)
        for mode in (IS, IX, S, SIX):
            assert not compatible(X, mode)
            assert not compatible(mode, X)

    def test_combine_is_least_upper_bound(self):
        assert combine(LockMode.IS, LockMode.IX) is LockMode.IX
        assert combine(LockMode.IX, LockMode.S) is LockMode.SIX
        assert combine(LockMode.S, LockMode.S) is LockMode.S
        assert combine(LockMode.SIX, LockMode.X) is LockMode.X
        assert combine(LockMode.IS, LockMode.IS) is LockMode.IS


class TestAcquireRelease:
    def test_compatible_grants_coexist(self, world):
        engine, locks = world
        order = []

        def reader(i):
            txn = Transaction(i)
            yield from locks.acquire(txn, "r", LockMode.S)
            order.append(("granted", i, engine.now))
            yield Delay(10)
            locks.release_all(txn)

        run_txn(engine, reader(1))
        run_txn(engine, reader(2))
        engine.run()
        assert [(g, i) for g, i, _ in order] == [
            ("granted", 1),
            ("granted", 2),
        ]
        assert all(t == 0 for *_, t in order)  # no waiting

    def test_exclusive_waits_for_release(self, world):
        engine, locks = world
        events = []

        def holder():
            txn = Transaction(1)
            yield from locks.acquire(txn, "r", LockMode.S)
            yield Delay(50)
            locks.release_all(txn)

        def writer():
            txn = Transaction(2)
            yield Delay(1)
            yield from locks.acquire(txn, "r", LockMode.X)
            events.append(engine.now)
            locks.release_all(txn)

        run_txn(engine, holder())
        run_txn(engine, writer())
        engine.run()
        assert events == [50]
        assert locks.waits == 1

    def test_fifo_no_overtaking(self, world):
        """A later S request must not overtake a queued X (no starvation)."""
        engine, locks = world
        order = []

        def proc(i, mode, delay):
            txn = Transaction(i)
            yield Delay(delay)
            yield from locks.acquire(txn, "r", mode)
            order.append(i)
            yield Delay(100)
            locks.release_all(txn)

        run_txn(engine, proc(1, LockMode.S, 0))
        run_txn(engine, proc(2, LockMode.X, 1))
        run_txn(engine, proc(3, LockMode.S, 2))
        engine.run()
        assert order == [1, 2, 3]

    def test_reacquire_same_mode_is_noop(self, world):
        engine, locks = world

        def proc():
            txn = Transaction(1)
            yield from locks.acquire(txn, "r", LockMode.S)
            yield from locks.acquire(txn, "r", LockMode.S)
            locks.release_all(txn)

        p = run_txn(engine, proc())
        engine.run()
        assert p.finished
        assert locks.grants == 1

    def test_upgrade_s_to_x(self, world):
        engine, locks = world
        done = []

        def proc():
            txn = Transaction(1)
            yield from locks.acquire(txn, "r", LockMode.S)
            yield from locks.acquire(txn, "r", LockMode.X)
            done.append(txn.held["r"])
            locks.release_all(txn)

        run_txn(engine, proc())
        engine.run()
        assert done == [LockMode.X]

    def test_upgrade_waits_for_other_readers(self, world):
        engine, locks = world
        events = []

        def other_reader():
            txn = Transaction(1)
            yield from locks.acquire(txn, "r", LockMode.S)
            yield Delay(30)
            locks.release_all(txn)

        def upgrader():
            txn = Transaction(2)
            yield from locks.acquire(txn, "r", LockMode.S)
            yield Delay(1)
            yield from locks.acquire(txn, "r", LockMode.X)
            events.append(engine.now)
            locks.release_all(txn)

        run_txn(engine, other_reader())
        run_txn(engine, upgrader())
        engine.run()
        assert events == [30]

    def test_six_upgrade_wakes_compatible_waiters_behind_it(self, world):
        """An S->SIX upgrade granted at a release must not hold back an IS
        waiter queued behind it: IS fits alongside SIX."""
        engine, locks = world
        granted = {}

        def proc(i, steps, hold):
            txn = Transaction(i)
            for delay, mode in steps:
                yield Delay(delay)
                yield from locks.acquire(txn, "r", mode)
                granted[i, mode] = engine.now
            yield Delay(hold)
            locks.release_all(txn)

        run_txn(engine, proc(1, [(0, LockMode.S), (1, LockMode.IX)], 100))
        run_txn(engine, proc(4, [(0, LockMode.S)], 10))
        run_txn(engine, proc(5, [(2, LockMode.IS)], 0))
        engine.run()
        assert granted[1, LockMode.IX] == 10.0
        assert granted[5, LockMode.IS] == 10.0
        assert locks.holders("r") == {}

    def test_idle_lock_state_is_dropped(self, world):
        engine, locks = world

        def proc(i):
            txn = Transaction(i)
            yield from locks.acquire(txn, "r", LockMode.X)
            yield Delay(5)
            locks.release_all(txn)

        run_txn(engine, proc(1))
        run_txn(engine, proc(2))
        engine.run()
        assert locks.grants == 2 and locks.waits == 1
        assert locks._locks == {}

    def test_release_unheld_rejected(self, world):
        _, locks = world
        txn = Transaction(1)
        txn.held["r"] = LockMode.S  # forged
        with pytest.raises(LockProtocolError):
            locks.release_all(txn)

    def test_wait_time_accounted(self, world):
        engine, locks = world

        def holder():
            txn = Transaction(1)
            yield from locks.acquire(txn, "r", LockMode.X)
            yield Delay(40)
            locks.release_all(txn)

        blocked = Transaction(2)

        def waiter():
            yield Delay(5)
            yield from locks.acquire(blocked, "r", LockMode.X)
            locks.release_all(blocked)

        run_txn(engine, holder())
        run_txn(engine, waiter())
        engine.run()
        assert blocked.lock_waits == 1
        assert blocked.lock_wait_us == 35.0


class TestAcquireContract:
    """``acquire`` grants inside the call and returns ``()``, or queues
    the request and returns the generator that waits."""

    def test_grantable_request_is_granted_by_the_call(self, world):
        _, locks = world
        txn = Transaction(1)
        assert locks.acquire(txn, "r", LockMode.S) == ()
        assert locks.holders("r") == {1: LockMode.S}
        assert locks.acquire(txn, "r", LockMode.IS) == ()  # covered
        assert locks.grants == 1 and locks.waits == 0

    def test_blocked_request_queues_and_returns_the_wait(self, world):
        engine, locks = world
        holder, blocked = Transaction(1), Transaction(2)
        locks.acquire(holder, "r", LockMode.X)
        wait = locks.acquire(blocked, "r", LockMode.S)
        assert inspect.isgenerator(wait)
        assert locks.queue_length("r") == 1
        assert locks.waits == 1 and blocked.lock_waits == 1

        def waiter():
            yield from wait

        def release():
            yield Delay(9)
            locks.release_all(holder)

        engine.spawn(waiter())
        engine.spawn(release())
        engine.run()
        assert locks.holders("r") == {2: LockMode.S}
        assert blocked.lock_wait_us == 9.0

    def test_errors_raise_at_the_yield_from(self, world):
        engine, locks = world
        locks.declare_child("db", ("rel", "t"))
        caught = []

        def holder():
            txn = Transaction(1)
            yield from locks.acquire(txn, "a", LockMode.X)
            yield Delay(2)
            yield from locks.acquire(txn, "b", LockMode.X)
            locks.release_all(txn)

        def victim():
            txn = Transaction(2)
            try:
                yield from locks.acquire(txn, ("rel", "t"), LockMode.X)
            except LockProtocolError as exc:
                caught.append(type(exc))
            yield from locks.acquire(txn, "b", LockMode.X)
            yield Delay(3)
            try:
                yield from locks.acquire(txn, "a", LockMode.X)
            except DeadlockError as exc:
                caught.append(type(exc))
            assert set(txn.held) == {"b"}
            locks.release_all(txn)

        engine.spawn(holder())
        engine.spawn(victim())
        engine.run()
        assert caught == [LockProtocolError, DeadlockError]
        assert locks.holders(("rel", "t")) == {}
        assert locks._locks == {} and locks._waiting_on == {}
        assert engine.blocked_processes() == []

    def test_contended_schedule_grants_and_waits(self, world):
        """FIFO order, an upgrade passing the queue, and the per-txn wait
        accounting on one contended schedule (values of the generator-
        based lock manager this one replaced)."""
        engine, locks = world
        S, X, IS, IX = LockMode.S, LockMode.X, LockMode.IS, LockMode.IX
        grants = []
        txns = {}

        def proc(i, steps, hold):
            txn = txns[i] = Transaction(i)
            for delay, resource, mode in steps:
                yield Delay(delay)
                yield from locks.acquire(txn, resource, mode)
                grants.append((i, resource, mode, engine.now))
            yield Delay(hold)
            locks.release_all(txn)

        run_txn(engine, proc(1, [(0, "r", S), (5, "r", X)], 10))
        run_txn(engine, proc(2, [(1, "r", S)], 11))
        run_txn(engine, proc(3, [(2, "r", X)], 4))
        run_txn(engine, proc(4, [(3, "r", S), (0, "s", X)], 6))
        run_txn(engine, proc(5, [(4, "s", IX), (0, "r", IS)], 3))
        run_txn(engine, proc(6, [(5, "s", IS)], 2))
        engine.run()
        assert grants == [
            (1, "r", S, 0.0),
            (2, "r", S, 1.0),
            (5, "s", IX, 4.0),
            (6, "s", IS, 5.0),
            (1, "r", X, 12.0),  # the upgrade passes T3's queued X
            (3, "r", X, 22.0),
            (4, "r", S, 26.0),  # no overtaking of the queued X
            (5, "r", IS, 26.0),
            (4, "s", X, 29.0),
        ]
        assert {i: (t.lock_waits, t.lock_wait_us) for i, t in txns.items()} == {
            1: (1, 7.0),
            2: (0, 0.0),
            3: (1, 20.0),
            4: (2, 26.0),
            5: (1, 22.0),
            6: (0, 0.0),
        }
        assert (locks.waits, locks.grants, engine.now) == (5, 9, 35.0)


class TestHierarchyProtocol:
    def test_child_lock_requires_parent_intention(self, world):
        engine, locks = world
        locks.declare_child("db", ("rel", "t"))

        def bad():
            txn = Transaction(1)
            yield from locks.acquire(txn, ("rel", "t"), LockMode.X)

        with pytest.raises(LockProtocolError):
            run_txn(engine, bad())
            engine.run()

    def test_correct_protocol_accepted(self, world):
        engine, locks = world
        locks.declare_child("db", ("rel", "t"))
        locks.declare_child(("rel", "t"), ("page", "t", 0))

        def good():
            txn = Transaction(1)
            yield from locks.acquire(txn, "db", LockMode.IX)
            yield from locks.acquire(txn, ("rel", "t"), LockMode.IX)
            yield from locks.acquire(txn, ("page", "t", 0), LockMode.X)
            locks.release_all(txn)

        p = run_txn(engine, good())
        engine.run()
        assert p.finished

    def test_read_locks_need_only_is(self, world):
        engine, locks = world
        locks.declare_child("db", ("rel", "t"))

        def reader():
            txn = Transaction(1)
            yield from locks.acquire(txn, "db", LockMode.IS)
            yield from locks.acquire(txn, ("rel", "t"), LockMode.S)
            locks.release_all(txn)

        p = run_txn(engine, reader())
        engine.run()
        assert p.finished

    def test_is_parent_insufficient_for_child_write(self, world):
        engine, locks = world
        locks.declare_child("db", ("rel", "t"))

        def sneaky():
            txn = Transaction(1)
            yield from locks.acquire(txn, "db", LockMode.IS)
            yield from locks.acquire(txn, ("rel", "t"), LockMode.X)

        with pytest.raises(LockProtocolError):
            run_txn(engine, sneaky())
            engine.run()

    def test_self_parent_rejected(self, world):
        _, locks = world
        with pytest.raises(LockProtocolError):
            locks.declare_child("a", "a")

    def test_bulk_declaration_checks_every_child(self, world):
        engine, locks = world
        with pytest.raises(LockProtocolError):
            locks.declare_child("a", "b", "a")
        pages = [("page", "t", n) for n in range(3)]
        locks.declare_child(("rel", "t"), *pages)
        outcomes = []

        def writer(page):
            txn = Transaction(page[2])
            yield from locks.acquire(txn, ("rel", "t"), LockMode.IX)
            yield from locks.acquire(txn, page, LockMode.X)
            locks.release_all(txn)
            try:
                yield from locks.acquire(txn, page, LockMode.X)
            except LockProtocolError:
                outcomes.append(page)

        for page in pages:
            run_txn(engine, writer(page))
        engine.run()
        assert outcomes == pages


#: prefixes a probed key may extend: the declared family's, two foreign
#: ones, a shorter and an empty one
_PREFIXES = [("page", "t"), ("page", "u"), ("rel", "t"), ("page",), ()]

_indexed = st.tuples(st.sampled_from(_PREFIXES), st.integers(-4, 14))

#: ``(*prefix, i)``, one item longer, or no tuple at all
_probe_keys = st.one_of(
    _indexed.map(lambda pair: (*pair[0], pair[1])),
    _indexed.map(lambda pair: (*pair[0], pair[1], 0)),
    st.sampled_from(["db", ()]),
)


class TestRangeDeclaration:
    """``declare_range`` gives the same parents as enumerating the
    children with ``declare_child``."""

    @given(
        st.sampled_from([("page", "t"), ("page",), ()]),
        st.integers(-3, 6),
        st.integers(-3, 12),
        st.sampled_from([1, 2, 3, -1]),
        _probe_keys,
        st.sampled_from([None, *LockMode]),
        st.sampled_from(list(LockMode)),
    )
    @example(("page", "t"), 0, 3, 1, ("page", "t", 2), None, LockMode.X)
    @example(("page", "t"), 0, 3, 1, ("page", "t", 0), LockMode.IX, LockMode.X)
    @example(("page", "t"), 0, 3, 1, ("page", "t", 3), None, LockMode.X)
    @example(("page", "t"), 0, 3, 1, ("page", "t", 1, 0), None, LockMode.X)
    @example(("page", "t"), 0, 3, 1, ("page", 1), None, LockMode.X)
    @example(("page",), 0, 3, 1, ("page", 1), None, LockMode.X)
    def test_same_outcome_as_enumerated_children(
        self, prefix, start, stop, step, key, parent_mode, mode
    ):
        indices = range(start, stop, step)

        def by_range(locks):
            locks.declare_range(("rel", "t"), prefix, indices)

        def by_enumeration(locks):
            locks.declare_child(("rel", "t"), *((*prefix, i) for i in indices))

        outcomes = []
        for declare in (by_range, by_enumeration):
            locks = LockManager(Engine())
            declare(locks)
            txn = Transaction(1)
            if parent_mode is not None:
                locks.acquire(txn, ("rel", "t"), parent_mode)
            try:
                locks.acquire(txn, key, mode)
            except LockProtocolError:
                outcomes.append("refused")
            else:
                outcomes.append(dict(txn.held))
        assert outcomes[0] == outcomes[1]

    def test_exact_declaration_takes_precedence(self, world):
        _, locks = world
        locks.declare_range(("rel", "t"), ("page", "t"), range(3))
        locks.declare_child(("rel", "u"), ("page", "t", 1))
        txn = Transaction(1)
        locks.acquire(txn, ("rel", "t"), LockMode.IX)
        with pytest.raises(LockProtocolError):
            locks.acquire(txn, ("page", "t", 1), LockMode.X)
        assert locks.acquire(txn, ("page", "t", 2), LockMode.X) == ()

    def test_redeclaring_a_prefix_replaces_its_range(self, world):
        _, locks = world
        locks.declare_range(("rel", "t"), ("page", "t"), range(3))
        locks.declare_range(("rel", "t"), ("page", "t"), range(5, 8))
        txn = Transaction(1)
        assert locks.acquire(txn, ("page", "t", 0), LockMode.X) == ()
        with pytest.raises(LockProtocolError):
            locks.acquire(txn, ("page", "t", 5), LockMode.X)

    def test_self_parent_rejected(self, world):
        _, locks = world
        with pytest.raises(LockProtocolError):
            locks.declare_range(("page", "t", 2), ("page", "t"), range(3))
        locks.declare_range(("page", "t", 3), ("page", "t"), range(3))


class TestTheCouplingTable4DependsOn:
    def test_relation_s_blocks_every_ix_writer(self, world):
        """A join's escalated S lock on accounts blocks all DebitCredits:
        the effect that turns long joins into long DC responses."""
        engine, locks = world
        dc_grant_times = []

        def join():
            txn = Transaction(100)
            yield from locks.acquire(txn, ("rel", "accounts"), LockMode.S)
            yield Delay(1000)  # the faulting/scanning join
            locks.release_all(txn)

        def dc(i):
            txn = Transaction(i)
            yield Delay(i)  # arrive during the join
            yield from locks.acquire(txn, ("rel", "accounts"), LockMode.IX)
            dc_grant_times.append(engine.now)
            locks.release_all(txn)

        run_txn(engine, join())
        for i in range(1, 4):
            run_txn(engine, dc(i))
        engine.run()
        assert dc_grant_times == [1000.0, 1000.0, 1000.0]
