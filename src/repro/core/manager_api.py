"""The segment-manager interface the kernel dispatches to.

A *segment manager* is a process-level module responsible for the pages of
the segments it manages (paper, S2.1-S2.2): it handles their faults,
reclaims their frames, and negotiates with the System Page Cache Manager
for its frame supply.  The kernel knows nothing about policy --- it only
forwards fault events here and executes the manager's ``MigratePages`` /
``ModifyPageFlags`` requests.

Managers declare how the kernel reaches them:

``IN_PROCESS``
    The faulting process executes the handler itself (an upcall, like a
    signal).  No context switch; on R3000-class hardware the application
    resumes directly from the manager.
``SEPARATE_PROCESS``
    The kernel suspends the faulting process and sends the fault to the
    manager process over IPC --- two messages and two context switches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum, auto
from typing import TYPE_CHECKING

from repro.core.api import FrameDemand, FrameGrant, SetSegmentManagerRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import PageFault
    from repro.core.kernel import Kernel
    from repro.core.segment import Segment


class InvocationMode(Enum):
    """How the kernel transfers control to a manager on a fault."""

    IN_PROCESS = auto()
    SEPARATE_PROCESS = auto()


class SegmentManager(ABC):
    """Base class for all segment managers."""

    #: how the kernel transfers control to this manager on a fault
    invocation: InvocationMode = InvocationMode.IN_PROCESS

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        #: seg_ids this manager currently manages
        self.managed: set[int] = set()
        #: set by the kernel once it has failed this manager over; a failed
        #: manager keeps no segments and is never dispatched to again
        self.failed = False

    def manage(self, segment: "Segment") -> None:
        """Assume management of ``segment`` (a SetSegmentManager call)."""
        self.kernel.set_segment_manager(SetSegmentManagerRequest(segment, self))

    # -- events the kernel delivers -----------------------------------------

    @abstractmethod
    def handle_fault(self, fault: "PageFault") -> None:
        """Resolve a fault so the faulting reference can be retried.

        The handler must leave the faulted page resolvable --- typically by
        migrating a frame into it --- or raise; the kernel re-resolves after
        the handler returns and converts persistent failure into
        :class:`~repro.errors.UnresolvedFaultError`.

        Fault delivery to a ``SEPARATE_PROCESS`` manager is at-least-once:
        a duplicated IPC message invokes the handler twice for the same
        fault, so handlers must be idempotent (treat an already-resident
        page as resolved).
        """

    def adopt_segment(self, segment: "Segment") -> FrameGrant:
        """A failed manager's segment was reassigned here by the kernel.

        Called after ``SetSegmentManager`` during failover so the adopter
        can index the segment's resident pages for its own reclaim
        policy.  Returns a :class:`~repro.core.api.FrameGrant` naming the
        resident pages taken on (empty by default: no bookkeeping).
        """
        return FrameGrant.empty()

    def on_frames_seized(self, grant: FrameGrant) -> None:
        """The SPCM forcibly reclaimed these free-segment pages.

        The seizure arrives as a :class:`~repro.core.api.FrameGrant`
        (frames travelling SPCM-ward).  Unlike :meth:`release_frames` (a
        negotiation the manager controls), seizure happens *to* the
        manager after the kernel declares it failed; this hook lets it
        drop the seized pages from its free lists.  Default: no
        bookkeeping.
        """

    def segment_deleted(self, segment: "Segment") -> None:
        """The segment is being closed/deleted; reclaim its frames now.

        The default implementation leaves the frames in place; the kernel
        sweeps whatever remains back to the boot segment.
        """

    def release_frames(self, demand: FrameDemand) -> FrameGrant:
        """The SPCM demands frames back; answer with what was surrendered.

        The exchange is typed both ways: a
        :class:`~repro.core.api.FrameDemand` (how many, optionally from
        which node) answered by a :class:`~repro.core.api.FrameGrant`
        naming the surrendered free-segment pages.

        The manager has "complete control over which page frames to
        surrender" (paper, S4); the default surrenders none.
        """
        return FrameGrant.empty()
