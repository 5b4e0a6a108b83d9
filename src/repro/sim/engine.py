"""The discrete-event loop.

Events are ``(time, sequence, callback)`` triples on a heap; the sequence
number makes same-time events FIFO and the ordering deterministic.  Time is
a float in *microseconds* throughout the library, matching the machine cost
models.

The engine holds only the processes that have not finished, plus those a
fault suspended, in spawn order; a finished process is referenced by
nothing the engine keeps, so it is freed when its last event has run.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError
from repro.sim.process import Process


class Engine:
    """Event heap plus virtual clock."""

    __slots__ = ("now", "_heap", "_seq", "_processes", "_tick_hooks")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        #: unfinished and suspended processes, in spawn order (a dict used
        #: as an ordered set: a process deletes itself when it finishes)
        self._processes: dict[Process, None] = {}
        # observers invoked whenever the clock advances (telemetry
        # sampling); empty list keeps the hot loop branch-predictable
        self._tick_hooks: list[Callable[[], None]] = []

    def add_tick_hook(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` every time the virtual clock advances.

        The telemetry collector registers its ``poll`` here so
        engine-driven workloads (the DBMS study) are sampled on the
        simulated-time interval without per-call instrumentation.
        """
        self._tick_hooks.append(hook)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when``."""
        delay = when - self.now
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past: requested t={when}, "
                f"now={self.now} (delay {delay})"
            )
        self.schedule(delay, callback)

    def spawn(self, generator, name: str = "") -> Process:
        """Create and start a :class:`Process` from a generator."""
        proc = Process(self, generator, name)
        self._processes[proc] = None
        proc.start()
        return proc

    def run(self, until: float | None = None) -> float:
        """Drain the event heap, optionally stopping at time ``until``.

        Returns the final clock value.  The clock never runs backwards; if
        ``until`` is given, events past it are left on the heap and the
        clock is advanced exactly to ``until``.
        """
        heap = self._heap
        heappop = heapq.heappop
        tick_hooks = self._tick_hooks
        while heap:
            when, _, callback = heap[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heappop(heap)
            if when < self.now:
                raise SimulationError("event heap time went backwards")
            self.now = when
            callback()
            if tick_hooks:
                for hook in tick_hooks:
                    hook()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def blocked_processes(self) -> list[Process]:
        """Processes that are neither finished nor scheduled to run, in
        spawn order."""
        return [p for p in self._processes if p.blocked]

    def suspended_processes(self) -> list[Process]:
        """Processes suspended by an unresolved fault (chaos runs), in
        spawn order."""
        return [p for p in self._processes if p.suspended]
