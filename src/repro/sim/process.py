"""Processes as generator coroutines.

A simulation process is a Python generator that yields *commands*:

``Delay(duration)``
    Sleep for ``duration`` microseconds of virtual time.
``Acquire(resource, amount)``
    Block until ``amount`` units of the resource are granted; the process
    must later call ``resource.release(amount)``.
``Wait(event)``
    Block until the one-shot event fires; resumes with its payload.
``Get(queue)``
    Block until a message is available in the FIFO queue; resumes with it.

The commands are ``NamedTuple`` classes and a process dispatches on the
command's exact type.  A process has at most one wake-up pending: the
value it resumes with is kept on the process and the engine's event is
the bound method :meth:`Process._step`, which reads it.

The generator's ``return`` value is stored on ``process.result``.  The
process's ``done`` event is made on first access and fires with that
value (or with the fault that suspended the process), so processes can
join each other with ``yield Wait(other.done)``, before or after it
finished.  The engine drops a process once it finishes, unless a fault
suspended it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

from repro.errors import SimulationError, UnresolvedFaultError
from repro.sim.resources import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.resources import FIFOQueue, Resource


class Delay(NamedTuple):
    duration: float


class Acquire(NamedTuple):
    resource: "Resource"
    amount: int = 1


class Wait(NamedTuple):
    event: SimEvent


class Get(NamedTuple):
    queue: "FIFOQueue"


class Process:
    """One coroutine process driven by the engine."""

    __slots__ = (
        "engine",
        "name",
        "_gen",
        "finished",
        "result",
        "suspended",
        "failure",
        "started_at",
        "finished_at",
        "_done",
        "_waiting",
        "_value",
        "__weakref__",
    )

    def __init__(self, engine: "Engine", generator, name: str = "") -> None:
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.finished = False
        self.result: Any = None
        #: set when the process was suspended by an unresolved fault
        self.suspended = False
        #: the UnresolvedFaultError that suspended the process, if any
        self.failure: UnresolvedFaultError | None = None
        self.started_at: float = engine.now
        self.finished_at: float | None = None
        self._done: SimEvent | None = None
        self._waiting = False
        #: the value the pending wake-up resumes the generator with
        self._value: Any = None

    @property
    def done(self) -> SimEvent:
        """Fires with ``result`` when the generator returns, or with the
        fault that suspended the process; already fired if it has."""
        done = self._done
        if done is None:
            done = self._done = SimEvent(self.engine)
            if self.finished:
                done.fire(self.failure if self.suspended else self.result)
        return done

    @property
    def blocked(self) -> bool:
        """True while the process is waiting on a resource/event/queue."""
        return self._waiting and not self.finished

    def start(self) -> None:
        """Run the generator to its first command."""
        self._step()

    def _step(self) -> None:
        """Advance the generator with the pending value and interpret its
        command."""
        value = self._value
        self._value = None
        self._waiting = False
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.finished_at = self.engine.now
            self.result = stop.value
            del self.engine._processes[self]
            if self._done is not None:
                self._done.fire(stop.value)
            return
        except UnresolvedFaultError as fault:
            # The kernel gave up on this process's fault: only the
            # faulting process is suspended; the rest of the simulation
            # keeps running (``done`` fires so joiners do not deadlock).
            # The engine keeps it for ``suspended_processes``.
            self.finished = True
            self.suspended = True
            self.failure = fault
            self.finished_at = self.engine.now
            if self._done is not None:
                self._done.fire(fault)
            return
        kind = type(command)
        if kind is Delay:
            self.engine.schedule(command.duration, self._step)
        elif kind is Acquire:
            self._waiting = True
            command.resource._enqueue(self, command.amount)
        elif kind is Wait:
            self._waiting = True
            command.event._add_waiter(self)
        elif kind is Get:
            self._waiting = True
            command.queue._add_getter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {command!r}, which is not a "
                "simulation command"
            )

    def _resume(self, value: Any) -> None:
        """Called by resources/events when the process unblocks."""
        # Resume via the event heap so wakeups at the same instant stay FIFO.
        self._value = value
        self.engine.schedule(0.0, self._step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else (
            "blocked" if self._waiting else "running"
        )
        return f"Process({self.name!r}, {state})"
