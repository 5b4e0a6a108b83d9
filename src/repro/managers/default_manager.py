"""The default segment manager: the extended UCDS.

"A default segment manager implements cache management for conventional
programs, making them oblivious to external-page management.  This manager
executes as a server outside the kernel" (paper, S2.3).  In V++ it is the
UIO Cache Directory Server extended to manage a free-page segment, handle
page faults, reclaim and write back.

Behaviors the paper calls out, all implemented here:

* separate-process invocation (each fault costs the IPC round trip ---
  the 379 microseconds of Table 1);
* page-in from the file server for cached-file segments;
* 16 KB allocation units for file appends (:data:`APPEND_UNIT_PAGES`),
  against 4 KB units otherwise (S3.2);
* working-set estimation with a protection-sampling clock that re-enables
  protection on batches of contiguous pages (S2.3);
* file open/close requests forwarded by the kernel (counted in Table 3's
  manager calls).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import MigratePagesRequest, ModifyPageFlagsRequest
from repro.core.faults import MISSING_PAGE, PROTECTION, PageFault
from repro.core.flags import (
    DIRTY,
    DIRTY_I,
    NONE,
    REFERENCED,
    REFERENCED_I,
    RW,
)
from repro.core.manager_api import InvocationMode
from repro.core.segment import Segment
from repro.core.uio import FileServer
from repro.managers.base import GenericSegmentManager
from repro.managers.clock import ClockReplacer, ProtectionClockSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.hw.phys_mem import PageFrame
    from repro.spcm.spcm import SystemPageCacheManager

#: pages of one file-append allocation: the 16 KB unit of S3.2
APPEND_UNIT_PAGES = 4


class DefaultSegmentManager(GenericSegmentManager):
    """The UCDS acting as manager for conventional programs."""

    invocation = InvocationMode.SEPARATE_PROCESS

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        file_server: FileServer,
        initial_frames: int = 256,
        name: str = "default-manager",
        home_node: int | None = None,
    ) -> None:
        # the base constructor's first grant may already be checkpointed,
        # so everything serialize_policy_state reads exists before it
        self.file_server = file_server
        self.sampler = ProtectionClockSampler(self)
        self.clock = ClockReplacer(self)
        self.append_allocations = 0
        self.files_opened = 0
        self.files_closed = 0
        super().__init__(
            kernel, spcm, name, initial_frames, home_node=home_node
        )

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def handle_fault(self, fault: PageFault) -> None:
        if fault.kind is PROTECTION:
            super().handle_fault(fault)
            return
        segment = self.kernel.segment(fault.segment_id)
        self.faults_handled += 1
        if fault.page in segment.pages:
            self._note_duplicate_delivery(segment, fault)
            return
        if fault.kind is MISSING_PAGE and fault.write:
            if (
                segment.file_size is not None
                and (fault.segment_id, fault.page) not in self._stale_slot
                and fault.page >= segment.file_pages
            ):
                self._handle_append(segment, fault)
                return
        self._supply_page(segment, fault)

    def _handle_append(self, segment: Segment, fault: PageFault) -> None:
        """Write-append: allocate a 16 KB unit in one MigratePages."""
        if not self.kernel.tracer.enabled:
            return self._do_append(segment, fault)
        with self.kernel.tracer.span(
            "manager",
            "append_alloc",
            segment=segment.name,
            page=fault.page,
            unit_pages=APPEND_UNIT_PAGES,
        ):
            return self._do_append(segment, fault)

    def _do_append(self, segment: Segment, fault: PageFault) -> None:
        self.append_allocations += 1
        unit = APPEND_UNIT_PAGES
        start = (fault.page // unit) * unit
        if segment.auto_grow:
            # Allocate the whole 16 KB unit even past the current end of
            # file; subsequent appends land on already-backed pages.
            segment.ensure_size(start + unit)
        # the run of unbacked pages of the unit around the faulting page
        # (unbacked itself: a backed one was a duplicate delivery)
        backed = segment.pages
        first = fault.page
        while first > start and first - 1 not in backed:
            first -= 1
        end = fault.page + 1
        stop = min(start + unit, segment.n_pages)
        while end < stop and end not in backed:
            end += 1
        run = range(first, end)
        slots = self.allocate_run(len(run))
        # one MigratePages for a contiguous run of slots, else one a page
        if slots == list(range(slots[0], slots[0] + len(slots))):
            moves = [(slots[0], run[0], len(run))]
        else:
            moves = [(slot, page, 1) for slot, page in zip(slots, run)]
        for slot, page, n_pages in moves:
            # (src, dst, src_page, dst_page, n_pages, set, clear, home_node)
            self.kernel.migrate_pages(
                MigratePagesRequest(
                    self.free_segment.seg_id, segment.seg_id,
                    slot, page, n_pages, RW, REFERENCED, self.home_node,
                )
            )
        self._pages_backed(slots, segment.seg_id, run)
        if self.journal.enabled:
            self.journal.append(
                "mgr.place",
                seg=segment.seg_id,
                pages=list(run),
                slots=list(slots),
            )

    def on_protection_fault(self, segment: Segment, fault: PageFault) -> None:
        """Sampling fault from the protection clock: re-enable a batch."""
        restored = self.sampler.note_protection_fault(segment, fault.page)
        if self.journal.enabled:
            self.journal.append(
                "mgr.sample",
                seg=segment.seg_id,
                restored=restored,
            )

    # ------------------------------------------------------------------
    # page-in / page-out policy
    # ------------------------------------------------------------------

    def fill_page(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        """Page-in from the file server for pages within the file."""
        if page >= segment.file_pages:
            return
        data = self.file_server.fetch_page(segment, page)
        frame.write(data)
        self.kernel.meter.charge("manager_copy", self.kernel.costs.copy_page)
        self.charge_io(segment.page_size)

    def writeback(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        """Write dirty file pages back to the server; anonymous dirty
        pages stay recoverable in the free segment (migrate-back)."""
        if segment.file_size is None:
            return
        self.file_server.store_page(segment, page, frame.read())
        self.charge_io(segment.page_size)
        self.writebacks += 1

    def select_victims(self, n_pages: int) -> list[tuple[Segment, int]]:
        victims = self.clock.select_victims(n_pages)
        if self.journal.enabled:
            # the sweep mutated the clock ring and hand; journal the
            # post-sweep position so replay restores the same rotation
            self.journal.append(
                "mgr.clock",
                ring=[[seg, page] for seg, page in self.clock._ring],
                hand=self.clock._hand,
            )
        return victims

    # ------------------------------------------------------------------
    # file open/close requests forwarded by the kernel
    # ------------------------------------------------------------------

    def file_opened(self, segment: Segment) -> None:
        """A file open forwarded to the manager (adds it to the cache)."""
        self.kernel.notify_manager_call(self)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager", f"file open forwarded: {segment.name}"
            )
        self.files_opened += 1
        if segment.manager is not self:
            self.manage(segment)

    def file_closed(self, segment: Segment, writeback: bool = True) -> None:
        """A file close: write back dirty pages; frames stay cached."""
        self.kernel.notify_manager_call(self)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager", f"file close forwarded: {segment.name}"
            )
        self.files_closed += 1
        if not writeback or segment.file_size is None:
            return
        for page in sorted(segment.pages):
            frame = segment.pages[page]
            if frame.flags & DIRTY_I:
                self.file_server.store_page(segment, page, frame.read())
                # (segment, page, n_pages, set, clear)
                self.kernel.modify_page_flags(
                    ModifyPageFlagsRequest(segment.seg_id, page, 1, NONE, DIRTY)
                )
                self.writebacks += 1

    # ------------------------------------------------------------------
    # working-set driven balancing (S2.3)
    # ------------------------------------------------------------------

    def rebalance(self, segments: list[Segment], frames_to_free: int) -> int:
        """Reclaim from the segments with the smallest working sets.

        Allocation "based on the number of page frames it has referenced
        in some interval": segments whose sampled working set is far below
        their residency give up the difference first.
        """
        if not self.kernel.tracer.enabled:
            return self._rebalance(segments, frames_to_free)
        with self.kernel.tracer.span(
            "manager",
            "rebalance",
            n_segments=len(segments),
            frames_to_free=frames_to_free,
        ) as span:
            freed = self._rebalance(segments, frames_to_free)
            span.set_attr("n_freed", freed)
            return freed

    # ------------------------------------------------------------------
    # crash recovery: clock/sampler state rides along
    # ------------------------------------------------------------------

    def serialize_policy_state(self) -> dict:
        state = super().serialize_policy_state()
        state["sampler"] = {
            "referenced": sorted(
                [seg, n] for seg, n in self.sampler.referenced.items()
            ),
            "protection_faults": self.sampler.protection_faults,
        }
        state["clock"] = {
            "ring": [[seg, page] for seg, page in self.clock._ring],
            "hand": self.clock._hand,
        }
        counters = state["counters"]
        counters["append_allocations"] = self.append_allocations
        counters["files_opened"] = self.files_opened
        counters["files_closed"] = self.files_closed
        return state

    def restore_policy_state(self, state: dict | None) -> None:
        super().restore_policy_state(state)
        self.sampler.referenced = {}
        self.sampler.protection_faults = 0
        self.clock._ring = []
        self.clock._hand = 0
        self.append_allocations = 0
        self.files_opened = 0
        self.files_closed = 0
        if state is None:
            return
        sampler = state.get("sampler", {})
        self.sampler.referenced = {
            seg: n for seg, n in sampler.get("referenced", [])
        }
        self.sampler.protection_faults = sampler.get("protection_faults", 0)
        clock = state.get("clock", {})
        self.clock._ring = [
            (seg, page) for seg, page in clock.get("ring", [])
        ]
        self.clock._hand = clock.get("hand", 0)
        counters = state.get("counters", {})
        self.append_allocations = counters.get("append_allocations", 0)
        self.files_opened = counters.get("files_opened", 0)
        self.files_closed = counters.get("files_closed", 0)

    def replay_record(self, record: dict) -> None:
        kind = record["kind"]
        if kind == "mgr.sample":
            seg = record["seg"]
            self.sampler.referenced[seg] = (
                self.sampler.referenced.get(seg, 0) + record["restored"]
            )
            self.sampler.protection_faults += 1
        elif kind == "mgr.clock":
            self.clock._ring = [
                (seg, page) for seg, page in record["ring"]
            ]
            self.clock._hand = record["hand"]
        else:
            super().replay_record(record)

    def _rebalance(self, segments: list[Segment], frames_to_free: int) -> int:
        freed = 0
        by_slack = sorted(
            segments,
            key=lambda s: len(s.pages) - self.sampler.working_set(s),
            reverse=True,
        )
        for segment in by_slack:
            if freed >= frames_to_free:
                break
            slack = len(segment.pages) - self.sampler.working_set(segment)
            for page in sorted(segment.pages)[: max(0, slack)]:
                if freed >= frames_to_free:
                    break
                frame = segment.pages.get(page)
                if frame is None or frame.flags & REFERENCED_I:
                    continue
                self.reclaim_one(segment, page)
                freed += 1
        return freed
