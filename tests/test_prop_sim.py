"""Property tests for the simulation engine and lock manager."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.locking import LockManager, LockMode, Transaction, combine, compatible
from repro.errors import DeadlockError
from repro.sim.engine import Engine
from repro.sim.process import Acquire, Delay


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=100))
def test_event_callbacks_fire_in_nondecreasing_time(delays):
    engine = Engine()
    fired: list[float] = []
    for d in delays:
        engine.schedule(d, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30),
)
@settings(max_examples=50)
def test_resource_work_conserving(capacity, jobs):
    """With one unit per job, total makespan equals the optimal greedy
    schedule's bound: busy whenever work remains."""
    engine = Engine()
    resource = __import__(
        "repro.sim.resources", fromlist=["Resource"]
    ).Resource(engine, capacity)
    completions: list[float] = []

    def job(duration):
        yield Acquire(resource)
        yield Delay(duration)
        resource.release()
        completions.append(engine.now)

    for duration in jobs:
        engine.spawn(job(duration))
    engine.run()
    assert len(completions) == len(jobs)
    total = sum(jobs)
    longest = max(jobs)
    lower = max(total / capacity, longest)
    assert max(completions) >= lower - 1e-9
    assert max(completions) <= total + 1e-9


modes = st.sampled_from(list(LockMode))


@given(modes, modes)
def test_compatibility_is_symmetric(a, b):
    assert compatible(a, b) == compatible(b, a)


@given(modes, modes)
def test_combine_is_commutative_upper_bound(a, b):
    c = combine(a, b)
    assert combine(b, a) is c
    assert combine(c, a) is c
    assert combine(c, b) is c


@given(modes, modes, modes)
def test_combined_mode_is_at_most_as_compatible(a, b, probe):
    """Strengthening a lock can only reduce what coexists with it."""
    c = combine(a, b)
    if compatible(probe, c):
        assert compatible(probe, a)
        assert compatible(probe, b)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), modes),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60)
def test_granted_sets_are_pairwise_compatible(requests):
    """However a random request stream interleaves, the set of granted
    (distinct-holder) locks on one resource stays pairwise compatible."""
    engine = Engine()
    locks = LockManager(engine)
    txns = {i: Transaction(i) for i in range(4)}

    def proc(txn, mode):
        yield from locks.acquire(txn, "r", mode)
        holders = locks.holders("r")
        for a_id, a_mode in holders.items():
            for b_id, b_mode in holders.items():
                if a_id != b_id:
                    assert compatible(a_mode, b_mode)
        yield Delay(1)
        locks.release_all(txn)

    active: set[int] = set()
    for txn_id, mode in requests:
        if txn_id in active:
            continue  # one outstanding request per txn in this test
        active.add(txn_id)
        engine.spawn(proc(txns[txn_id], mode))
    engine.run()
    # everything drained: no leaked grants
    assert locks.holders("r") == {}


#: one transaction: (delay before the request, resource, mode) steps; a
#: resource named twice makes an upgrade
lock_plans = st.lists(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from("abc"), modes),
        min_size=1,
        max_size=4,
    ),
    min_size=2,
    max_size=5,
)


def _check_lock_table(locks: LockManager) -> None:
    for resource, state in locks._locks.items():
        assert state.granted or state.queue, f"idle state kept for {resource!r}"
        holders = locks.holders(resource)
        for a_id, a_mode in holders.items():
            for b_id, b_mode in holders.items():
                if a_id != b_id:
                    assert compatible(a_mode, b_mode)
        if state.queue:
            head = state.queue[0]
            assert any(
                not compatible(head.mode, mode)
                for tid, mode in holders.items()
                if tid != head.txn.txn_id
            ), f"lost wakeup: the head of {resource!r} fits its holders"


@given(lock_plans)
@settings(max_examples=200)
def test_lock_table_under_random_schedules(plans):
    """Random schedules of 2-5 transactions over three resources, with
    upgrades and deadlock victims that abort: after every event no idle
    state is kept, grants are pairwise compatible and no queue head fits
    its holders; at the end nothing is blocked and no state is left."""
    engine = Engine()
    locks = LockManager(engine)

    def proc(txn, plan):
        try:
            for delay, resource, mode in plan:
                yield Delay(delay)
                yield from locks.acquire(txn, resource, mode)
            yield Delay(1)
        except DeadlockError:
            pass  # the victim aborts
        locks.release_all(txn)

    engine.add_tick_hook(lambda: _check_lock_table(locks))
    for txn_id, plan in enumerate(plans):
        engine.spawn(proc(Transaction(txn_id), plan))
    engine.run()
    assert engine.blocked_processes() == []
    assert locks._locks == {}
