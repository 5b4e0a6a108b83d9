"""A hierarchical (intention-mode) lock manager on the simulation engine.

"A hierarchical locking scheme is used for concurrency control" (S3.3).
The classic Gray intention modes are implemented --- IS, IX, S, SIX, X ---
with the standard compatibility matrix, strict FIFO granting (no
starvation), mode upgrades, and two-phase release at commit.

Resources are arbitrary hashable names arranged by the caller into a
hierarchy (database -> relation -> page); :meth:`LockManager.acquire`
checks that a parent intention lock is held before granting a child lock,
enforcing the protocol the invariants test.  A family of numbered
children, such as a relation's pages, is declared as one range
(:meth:`LockManager.declare_range`) rather than one entry per child.

Every grant decision is a few integer operations.  Each mode carries a
bit, the mask of the modes it conflicts with and the mask of the modes it
covers, all derived once from Gray's matrix; each lock state counts its
holders per mode and keeps the mask of the modes granted.  A state exists
only while its resource is held or waited for, so a request on a resource
with no state is granted on a new one.

:meth:`LockManager.acquire` is used as ``yield from locks.acquire(...)``
but is a plain method: a request it can grant at once is granted inside
the call, which returns ``()``, and only a request that must wait returns
a generator, the one that waits for the grant.  So the call itself takes
the lock or joins the queue; iterating the result only waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Hashable

from repro.errors import DeadlockError, LockProtocolError
from repro.sim.engine import Engine
from repro.sim.process import Wait
from repro.sim.resources import SimEvent

Resource = Hashable


class LockMode(Enum):
    """Gray's hierarchical lock modes, weakest first.

    Each member also carries its per-mode data, set once below from
    :data:`_COMPAT`: ``_index``, ``_bit``, ``_conflicts`` (the bits of the
    modes it cannot be granted alongside), ``_covers`` (the bits of the
    modes it is at least as strong as) and ``_intention`` (the mode a
    parent must be held in before a child is locked in this one).
    """

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    _index: int
    _bit: int
    _conflicts: int
    _covers: int
    _intention: LockMode


#: Gray's compatibility matrix.
_COMPAT: dict[LockMode, set[LockMode]] = {
    LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
    LockMode.IX: {LockMode.IS, LockMode.IX},
    LockMode.S: {LockMode.IS, LockMode.S},
    LockMode.SIX: {LockMode.IS},
    LockMode.X: set(),
}

for _index, _mode in enumerate(LockMode):
    _mode._index = _index
    _mode._bit = 1 << _index
for _mode in LockMode:
    _mode._conflicts = sum(m._bit for m in LockMode if m not in _COMPAT[_mode])
for _mode in LockMode:
    # a mode is at least as strong as every mode whose conflicts it shares
    _mode._covers = sum(
        m._bit for m in LockMode if not m._conflicts & ~_mode._conflicts
    )
for _mode in LockMode:
    # reading modes (those S covers) need IS on the parent; the rest IX
    _mode._intention = (
        LockMode.IS if LockMode.S._covers & _mode._bit else LockMode.IX
    )

_N_MODES = len(LockMode)

#: covers mask -> the weakest mode covering all of it (members are listed
#: weakest first, so the first that covers the mask is the least one)
_LEAST_COVERING: list[LockMode] = [
    next(m for m in LockMode if not mask & ~m._covers)
    for mask in range(1 << _N_MODES)
]


def compatible(requested: LockMode, held: LockMode) -> bool:
    """True when ``requested`` can be granted alongside ``held``."""
    return not requested._conflicts & held._bit


def combine(a: LockMode, b: LockMode) -> LockMode:
    """The weakest mode at least as strong as both ``a`` and ``b``."""
    return _LEAST_COVERING[a._covers | b._covers]


@dataclass(slots=True)
class Transaction:
    """A lock-holding actor."""

    txn_id: int
    name: str = ""
    held: dict[Resource, LockMode] = field(default_factory=dict)
    lock_waits: int = 0
    lock_wait_us: float = 0.0

    def holds_at_least(self, resource: Resource, mode: LockMode) -> bool:
        """True when the held mode is at least as strong as ``mode``."""
        held = self.held.get(resource)
        return held is not None and bool(held._covers & mode._bit)


@dataclass(slots=True)
class _Waiter:
    txn: Transaction
    #: the mode ``txn`` already holds (an upgrade), or None
    held: LockMode | None
    mode: LockMode
    event: SimEvent


class _LockState:
    __slots__ = ("granted", "counts", "mask", "queue")

    def __init__(self) -> None:
        self.granted: dict[int, tuple[Transaction, LockMode]] = {}
        #: holders per mode index
        self.counts = [0] * _N_MODES
        #: bits of the modes granted to anyone
        self.mask = 0
        #: waiters in grant order; upgrades are inserted at the head
        self.queue: list[_Waiter] = []

    def others(self, held: LockMode | None) -> int:
        """Bits of the modes granted to everyone but a holder of ``held``."""
        if held is None or self.counts[held._index] > 1:
            return self.mask
        return self.mask & ~held._bit

    def drop(self, mode: LockMode) -> None:
        """Count one holder of ``mode`` fewer."""
        self.counts[mode._index] -= 1
        if not self.counts[mode._index]:
            self.mask &= ~mode._bit


class LockManager:
    """Intention-mode locks with FIFO queues."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._locks: dict[Resource, _LockState] = {}
        #: resource -> parent resource (for protocol checking)
        self._parent: dict[Resource, Resource] = {}
        #: prefix -> (indices, parent): the children ``(*prefix, i)`` for
        #: ``i`` in ``indices`` have ``parent`` (consulted only when
        #: ``_parent`` has no entry)
        self._ranges: dict[tuple, tuple[range, Resource]] = {}
        #: txn_id -> (state, waiter) it is queued as (waits-for graph)
        self._waiting_on: dict[int, tuple[_LockState, _Waiter]] = {}
        self.grants = 0
        self.waits = 0
        self.deadlocks_detected = 0

    # -- hierarchy ------------------------------------------------------------

    def declare_child(self, parent: Resource, *children: Resource) -> None:
        """Register each of ``children`` under ``parent`` in the lock
        hierarchy."""
        if parent in children:
            raise LockProtocolError("a resource cannot be its own parent")
        self._parent.update(dict.fromkeys(children, parent))

    def declare_range(
        self, parent: Resource, prefix: tuple, indices: range
    ) -> None:
        """Register the children ``(*prefix, i)``, for each ``i`` in
        ``indices``, under ``parent``: a relation's pages as one entry.

        A resource is one of them when it is a tuple that extends
        ``prefix`` by one item found ``in indices``, which is exactly
        when it equals one of the tuples :meth:`declare_child` would
        register for them.  A child named by :meth:`declare_child` keeps
        that parent; declaring ``prefix`` again replaces its range.
        """
        if (
            isinstance(parent, tuple)
            and parent
            and parent[:-1] == prefix
            and parent[-1] in indices
        ):
            raise LockProtocolError("a resource cannot be its own parent")
        self._ranges[prefix] = (indices, parent)

    # -- acquire / release -----------------------------------------------------

    def acquire(self, txn: Transaction, resource: Resource, mode: LockMode):
        """Acquire the lock, blocking in FIFO order.

        Use as ``yield from lock_manager.acquire(txn, res, mode)`` inside a
        simulation process.  The call checks the hierarchy protocol and
        either grants the lock at once, returning ``()``, or queues the
        request and returns the generator that waits for its grant.
        ``LockProtocolError`` and ``DeadlockError`` raise from the call.
        """
        held_modes = txn.held
        parent = self._parent.get(resource)
        if parent is None and isinstance(resource, tuple) and resource:
            # a member of a declared range: (*prefix, i) with i in range
            family = self._ranges.get(resource[:-1])
            if family is not None and resource[-1] in family[0]:
                parent = family[1]
        if parent is not None:
            needed = mode._intention
            held = held_modes.get(parent)
            if held is None or not held._covers & needed._bit:
                raise LockProtocolError(
                    f"txn {txn.txn_id} requests {mode.value} on {resource!r} "
                    f"without {needed.value} (or stronger) on parent "
                    f"{parent!r}"
                )
        current = held_modes.get(resource)
        if current is None:
            wanted = mode
        else:
            wanted = _LEAST_COVERING[current._covers | mode._covers]
            if wanted is current:
                return ()  # already strong enough
        locks = self._locks
        state = locks.get(resource)
        if state is None:
            # nobody holds or waits for the resource: grant on a new state
            state = locks[resource] = _LockState()
            state.counts[wanted._index] = 1
            state.mask = wanted._bit
            state.granted[txn.txn_id] = (txn, wanted)
            held_modes[resource] = wanted
            self.grants += 1
            return ()
        if current is None:
            # strict FIFO for fresh requests; upgrades pass the queue
            blocked = state.queue or state.mask & wanted._conflicts
        else:
            blocked = state.others(current) & wanted._conflicts
        if not blocked:
            self._grant(state, txn, resource, current, wanted)
            return ()
        if self._would_deadlock(txn, state, wanted, current is not None):
            self.deadlocks_detected += 1
            raise DeadlockError(
                f"txn {txn.txn_id} waiting for {resource!r} ({wanted.value}) "
                "closes a waits-for cycle"
            )
        waiter = _Waiter(txn, current, wanted, SimEvent(self.engine))
        if current is None:
            state.queue.append(waiter)
        else:
            # upgrades go to the queue head: the holder cannot wait behind
            # requests that are themselves blocked on it
            state.queue.insert(0, waiter)
        self.waits += 1
        txn.lock_waits += 1
        self._waiting_on[txn.txn_id] = (state, waiter)
        return self._wait(txn, waiter.event)

    def _wait(self, txn: Transaction, event: SimEvent):
        """Generator: wait for a queued request's grant, accounting the
        wait on ``txn``."""
        started = self.engine.now
        yield Wait(event)
        txn.lock_wait_us += self.engine.now - started
        # _wake_queue granted the lock before firing the event

    def _would_deadlock(
        self,
        txn: Transaction,
        state: _LockState,
        mode: LockMode,
        upgrade: bool,
    ) -> bool:
        """Would queueing ``txn`` for ``mode`` on ``state`` close a
        waits-for cycle back to itself?

        A waiter waits for every waiter queued ahead of it, and for every
        holder that conflicts with its own mode or with a mode queued
        ahead (those waiters are granted first).  So the waiter at queue
        position k reaches exactly the holders that conflict with a mode
        at positions 0..k, and the search expands each queue prefix once.
        ``txn`` would join at the head of the queue when upgrading, so
        every waiter already there would wait for it, and at the tail
        otherwise.
        """
        me = txn.txn_id
        conflicts = mode._conflicts
        if not upgrade:
            for waiter in state.queue:
                if not state.mask & ~conflicts:
                    break  # every holder is reached already
                conflicts |= waiter.mode._conflicts
        frontier = [
            holder
            for holder_id, (holder, held) in state.granted.items()
            if held._bit & conflicts and holder_id != me
        ]
        seen: set[int] = set()
        #: state -> length of its queue prefix expanded so far
        expanded: dict[_LockState, int] = {}
        while frontier:
            blocker = frontier.pop()
            blocker_id = blocker.txn_id
            if blocker_id == me:
                return True
            if blocker_id in seen:
                continue
            seen.add(blocker_id)
            waiting = self._waiting_on.get(blocker_id)
            if waiting is None:
                continue
            blocked_state, target = waiting
            if blocked_state is state:
                if upgrade:
                    return True  # it queues behind txn
                continue  # the whole queue was expanded above
            # the waiters in an expanded prefix are all seen, so ``target``
            # lies past it
            position = expanded.get(blocked_state, 0)
            conflicts = 0
            for waiter in islice(blocked_state.queue, position, None):
                conflicts |= waiter.mode._conflicts
                seen.add(waiter.txn.txn_id)
                position += 1
                if waiter is target:
                    break
            expanded[blocked_state] = position
            frontier.extend(
                holder
                for holder, held in blocked_state.granted.values()
                if held._bit & conflicts
            )
        return False

    def _grant(
        self,
        state: _LockState,
        txn: Transaction,
        resource: Resource,
        held: LockMode | None,
        mode: LockMode,
    ) -> None:
        """Grant ``mode`` to ``txn``, replacing the ``held`` mode if any."""
        if held is not None:
            state.drop(held)
        state.counts[mode._index] += 1
        state.mask |= mode._bit
        state.granted[txn.txn_id] = (txn, mode)
        txn.held[resource] = mode
        self.grants += 1

    def release_all(self, txn: Transaction) -> None:
        """Two-phase release: drop every lock the transaction holds."""
        locks = self._locks
        txn_id = txn.txn_id
        for resource in txn.held:
            state = locks.get(resource)
            granted = None if state is None else state.granted.pop(txn_id, None)
            if granted is None:
                raise LockProtocolError(
                    f"txn {txn_id} releases {resource!r} it does not hold"
                )
            queue = state.queue
            if not queue and not state.granted:
                del locks[resource]  # idle: its counts are dropped with it
                continue
            mode = granted[1]
            counts = state.counts
            index = mode._index
            counts[index] -= 1
            if not counts[index]:
                state.mask &= ~mode._bit
            if queue:
                self._wake_queue(state, resource)
        txn.held.clear()

    def _wake_queue(self, state: _LockState, resource: Resource) -> None:
        """Grant waiters in FIFO order while the head fits the other
        holders."""
        queue = state.queue
        while queue:
            waiter = queue[0]
            if state.others(waiter.held) & waiter.mode._conflicts:
                return
            del queue[0]
            del self._waiting_on[waiter.txn.txn_id]
            self._grant(state, waiter.txn, resource, waiter.held, waiter.mode)
            waiter.event.fire(waiter.mode)

    # -- introspection ---------------------------------------------------------

    def holders(self, resource: Resource) -> dict[int, LockMode]:
        """Current grants on ``resource`` by transaction id."""
        state = self._locks.get(resource)
        if state is None:
            return {}
        return {tid: mode for tid, (_, mode) in state.granted.items()}

    def queue_length(self, resource: Resource) -> int:
        """Number of blocked waiters on ``resource``."""
        state = self._locks.get(resource)
        return len(state.queue) if state is not None else 0
