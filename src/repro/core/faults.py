"""Page fault descriptions and the fault-path trace.

When a reference cannot be satisfied from the kernel's translation
structures, the kernel packages a :class:`PageFault` and forwards it to the
segment's manager (paper, Figure 2).  :class:`FaultTrace` is the view
of that figure: the fault path emits each numbered step once, through
:meth:`~repro.obs.trace.Tracer.step`, and :meth:`FaultTrace.from_events`
renders a slice of the tracer's ``steps`` so the reproduction can
regenerate the figure.

The step record is the *shared* telemetry event type,
:class:`repro.obs.records.TraceStep`, so the figure and the tracer's
event stream never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterable, NamedTuple

from repro.obs.records import TraceStep

__all__ = [
    "COPY_ON_WRITE",
    "MISSING_PAGE",
    "PROTECTION",
    "FaultKind",
    "PageFault",
    "TraceStep",
    "FaultTrace",
]


class FaultKind(Enum):
    """Why the reference could not be satisfied."""

    MISSING_PAGE = auto()     # no frame at the resolved segment page
    PROTECTION = auto()       # frame present, access exceeds protections
    COPY_ON_WRITE = auto()    # write to a page still bound to a COW source


# The members as module globals, for the fault paths: on CPython 3.11
# the Enum metaclass defines ``__getattr__``, so every attribute read off
# an Enum class takes the slow hooked lookup (about 80 ns, against about
# 9 ns for a global).
MISSING_PAGE = FaultKind.MISSING_PAGE
PROTECTION = FaultKind.PROTECTION
COPY_ON_WRITE = FaultKind.COPY_ON_WRITE


class PageFault(NamedTuple):
    """One fault event delivered to a segment manager (a tuple: the
    kernel builds one per fault it forwards)."""

    segment_id: int            # segment whose page is missing/protected
    page: int                  # page index within that segment
    kind: FaultKind
    write: bool                # was the faulting access a write?
    space_id: int | None = None   # faulting address space, if via mapping
    vaddr: int | None = None      # faulting virtual address, if via mapping

    def describe(self) -> str:
        """A one-line human-readable rendering of the fault."""
        access = "write" if self.write else "read"
        return (
            f"{self.kind.name} fault: {access} of page {self.page} in "
            f"segment {self.segment_id}"
        )


@dataclass
class FaultTrace:
    """Collects the steps of one fault handling (Figure 2)."""

    steps: list[TraceStep] = field(default_factory=list)

    def add(self, actor: str, action: str, cost_us: float = 0.0) -> None:
        """Append the next numbered step."""
        self.steps.append(
            TraceStep(len(self.steps) + 1, actor, action, cost_us)
        )

    @classmethod
    def from_events(cls, events: Iterable[TraceStep]) -> "FaultTrace":
        """Rebuild a Figure-2 trace from tracer events (renumbered)."""
        trace = cls()
        for event in events:
            trace.add(event.actor, event.action, event.cost_us)
        return trace

    @property
    def total_cost_us(self) -> float:
        return sum(s.cost_us for s in self.steps)

    def render(self) -> str:
        """The trace as numbered lines, Figure-2 style."""
        lines = [
            f"  {s.step}. [{s.actor}] {s.action}"
            + (f"  ({s.cost_us:.0f} us)" if s.cost_us else "")
            for s in self.steps
        ]
        return "\n".join(lines)
