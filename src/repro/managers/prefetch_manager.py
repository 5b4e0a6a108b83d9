"""Application-directed read-ahead and writeback.

"Scientific computations using large data sets can often predict their
data access patterns well in advance, which allows the disk access latency
to be overlapped with current computation" (paper, S1, the MP3D example).

The manager models one disk with an :class:`IOTimeline`: requests are
serialized on the device, each taking its service time; a prefetched page
arriving before the application touches it costs nothing, one still in
flight stalls the application only for the remainder.  Demand faults queue
behind outstanding prefetches, so bandwidth contention is modeled too.
Dirty pages of discardable intermediates can be dropped instead of written
back, "thereby conserving I/O bandwidth".

Prefetches and demand fetches supply frames through the generic fault
path, so a reclaimed page comes back by migrate-back (its own frame and
bytes; the timeline still serves the request), while a discarded dirty
page is parked without its migrate-back entry and is read from the file
again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.faults import FaultKind, PageFault
from repro.core.flags import PageFlags
from repro.core.segment import Segment
from repro.core.uio import FileServer
from repro.managers.base import GenericSegmentManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.hw.phys_mem import PageFrame
    from repro.spcm.spcm import SystemPageCacheManager


class IOTimeline:
    """A single device serving requests in issue order."""

    def __init__(self, service_us: float) -> None:
        if service_us < 0:
            raise ValueError("service time cannot be negative")
        self.service_us = service_us
        self.busy_until = 0.0
        self.requests = 0
        self.busy_us = 0.0

    def issue(self, now_us: float) -> float:
        """Issue one request at ``now_us``; returns its completion time."""
        start = max(now_us, self.busy_until)
        completion = start + self.service_us
        self.busy_until = completion
        self.requests += 1
        self.busy_us += self.service_us
        return completion

    def utilization(self, now_us: float) -> float:
        """Fraction of [0, now] the device spent busy."""
        if now_us <= 0:
            return 0.0
        return min(1.0, self.busy_us / now_us)


class PrefetchingSegmentManager(GenericSegmentManager):
    """Read-ahead/writeback under explicit application direction."""

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        file_server: FileServer,
        name: str = "prefetch-manager",
        initial_frames: int = 128,
        io_service_us: float | None = None,
    ) -> None:
        super().__init__(kernel, spcm, name, initial_frames)
        self.file_server = file_server
        service = (
            io_service_us
            if io_service_us is not None
            else kernel.costs.disk_transfer_us(self.page_size)
        )
        self.io = IOTimeline(service)
        #: (seg_id, page) -> completion time of the in-flight fetch
        self._inflight: dict[tuple[int, int], float] = {}
        self.prefetches = 0
        self.prefetch_hits = 0       # touched after completion: zero stall
        self.prefetch_partial = 0    # touched while still in flight
        self.demand_fetches = 0
        self.discards = 0
        self.writebacks_issued = 0
        #: segments whose dirty pages may be dropped (intermediates)
        self.discardable_segments: set[int] = set()

    # ------------------------------------------------------------------
    # the application-facing prefetch API
    # ------------------------------------------------------------------

    def prefetch(self, segment: Segment, page: int, now_us: float) -> float:
        """Start fetching a page; returns its completion time.

        The data lands in a frame immediately (the model is about *time*);
        the page becomes resident now but a touch before the completion
        time stalls for the remainder.
        """
        key = (segment.seg_id, page)
        if page in segment.pages or key in self._inflight:
            return now_us
        completion = self.io.issue(now_us)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager",
                f"prefetch page {page} of {segment.name} issued at "
                f"t={now_us:.0f}us, completes t={completion:.0f}us",
            )
        self._supply_page(
            segment,
            PageFault(segment.seg_id, page, FaultKind.MISSING_PAGE, False),
        )
        self._inflight[key] = completion
        self.prefetches += 1
        return completion

    def prefetch_range(
        self, segment: Segment, start_page: int, n_pages: int, now_us: float
    ) -> float:
        """Prefetch a run of pages; returns the last completion time."""
        completion = now_us
        for page in range(start_page, start_page + n_pages):
            completion = self.prefetch(segment, page, now_us)
        return completion

    def access(
        self, segment: Segment, page: int, now_us: float, write: bool = False
    ) -> float:
        """The application touches a page at ``now_us``; returns the stall
        in microseconds (0 for resident/complete pages)."""
        key = (segment.seg_id, page)
        completion = self._inflight.pop(key, None)
        if completion is not None:
            frame = segment.pages[page]
            self._touch(frame, write)
            if completion <= now_us:
                self.prefetch_hits += 1
                return 0.0
            self.prefetch_partial += 1
            return completion - now_us
        if page in segment.pages:
            self._touch(segment.pages[page], write)
            return 0.0
        # demand fetch: queue behind everything outstanding
        completion = self.io.issue(now_us)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager",
                f"demand fetch of page {page} of {segment.name}: stall "
                f"{completion - now_us:.0f}us behind outstanding I/O",
            )
        self._supply_page(
            segment,
            PageFault(segment.seg_id, page, FaultKind.MISSING_PAGE, write),
        )
        self._touch(segment.pages[page], write)
        self.demand_fetches += 1
        return completion - now_us

    # ------------------------------------------------------------------
    # writeback vs. discard
    # ------------------------------------------------------------------

    def mark_discardable(self, segment: Segment) -> None:
        """Dirty pages of this segment are regenerable: drop, don't write."""
        self.discardable_segments.add(segment.seg_id)

    def writeback_or_discard(
        self, segment: Segment, page: int, now_us: float
    ) -> float:
        """Reclaim a page; returns the writeback completion time (or
        ``now_us`` if the page was clean or discardable)."""
        frame = segment.pages.get(page)
        if frame is None:
            return now_us
        dirty = bool(PageFlags.DIRTY & PageFlags(frame.flags))
        discard = dirty and segment.seg_id in self.discardable_segments
        if dirty and not discard:
            if segment.file_size is not None:
                self.file_server.store_page(segment, page, frame.read())
            completion = self.io.issue(now_us)
            self.writebacks_issued += 1
            if self.kernel.tracer.enabled:
                self.kernel.tracer.event(
                    "manager",
                    f"writeback page {page} of {segment.name}, "
                    f"completes t={completion:.0f}us",
                )
        else:
            if discard:
                self.discards += 1
                if self.kernel.tracer.enabled:
                    self.kernel.tracer.event(
                        "manager",
                        f"discard dirty page {page} of {segment.name} "
                        "(regenerable intermediate, I/O saved)",
                    )
            completion = now_us
        # a discarded page's data must not come back by migrate-back: its
        # re-fetch reads the file
        self.reclaim_one(segment, page, keep=not discard)
        return completion

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def fill_page(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        if page >= segment.file_pages:
            return
        data = self.file_server.fetch_page(segment, page)
        frame.write(data)

    @staticmethod
    def _touch(frame: "PageFrame", write: bool) -> None:
        frame.flags |= int(PageFlags.REFERENCED)
        if write:
            frame.flags |= int(PageFlags.DIRTY)
