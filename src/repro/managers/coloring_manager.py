"""Application-specific page coloring.

"An application can allocate physical pages to virtual pages to minimize
mapping collisions in physically addressed caches and TLBs, implementing
page coloring on an application-specific basis" (paper, S1).  The manager
keeps per-color free lists, stocked by color-constrained SPCM requests, and
on each fault picks a frame whose color matches the faulting virtual page
--- so virtually-contiguous data is spread evenly across the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import FrameGrant, MigratePagesRequest
from repro.core.faults import FaultKind, PageFault
from repro.core.flags import PageFlags
from repro.core.segment import Segment
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import FrameRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.spcm.spcm import SystemPageCacheManager


class ColoringSegmentManager(GenericSegmentManager):
    """Keeps per-color frame stocks and colors faults by virtual page."""

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        n_colors: int,
        name: str = "coloring-manager",
        frames_per_color: int = 16,
    ) -> None:
        if n_colors <= 0:
            raise ValueError("need at least one color")
        self.n_colors = n_colors
        self._by_color: dict[int, list[int]] = {c: [] for c in range(n_colors)}
        super().__init__(
            kernel, spcm, name, initial_frames=0  # stocked per color below
        )
        self.color_hits = 0
        self.color_misses = 0
        for color in range(n_colors):
            self.stock_color(color, frames_per_color)

    # ------------------------------------------------------------------
    # per-color stock
    # ------------------------------------------------------------------

    def stock_color(self, color: int, n_frames: int) -> int:
        """Request frames of one color from the SPCM; returns count."""
        pages = self.spcm.request_frames(
            self,
            FrameRequest(
                self.account,
                n_frames,
                page_size=self.page_size,
                colors=frozenset({color}),
                n_colors=self.n_colors,
            ),
            self.free_segment,
        )
        self._by_color[color].extend(pages)
        self._free_slots.extend(pages)
        return len(pages)

    def free_of_color(self, color: int) -> int:
        """Free frames currently stocked for ``color``."""
        return len(self._by_color.get(color, []))

    def _take_colored_slot(self, color: int) -> int | None:
        slots = self._by_color.get(color)
        if slots:
            slot = slots.pop()
            self._free_slots.remove(slot)
            self._drop_stale(slot)
            self.kernel.meter.charge(
                "manager_alloc", self.kernel.costs.vpp_manager_alloc
            )
            return slot
        return None

    # ------------------------------------------------------------------
    # colored fault handling
    # ------------------------------------------------------------------

    def handle_fault(self, fault: PageFault) -> None:
        if fault.kind is not FaultKind.MISSING_PAGE:
            super().handle_fault(fault)
            return
        self.faults_handled += 1
        segment = self.kernel.segment(fault.segment_id)
        # the color the virtual page wants (use the mapped virtual page
        # number when the fault came through an address space)
        vpn = (
            fault.vaddr // segment.page_size
            if fault.vaddr is not None
            else fault.page
        )
        wanted = vpn % self.n_colors
        slot = self._take_colored_slot(wanted)
        if slot is not None:
            self.color_hits += 1
        else:
            self.color_misses += 1
            slot = self.allocate_slot()
            self._uncolor_slot(slot)
        self.kernel.migrate_pages(
            MigratePagesRequest(
                self.free_segment,
                segment,
                slot,
                fault.page,
                set_flags=PageFlags.READ | PageFlags.WRITE,
                clear_flags=PageFlags.REFERENCED,
                home_node=self.home_node,
            )
        )
        self._empty_slots.append(slot)
        self._note_resident(segment, fault.page)

    def _uncolor_slot(self, slot: int) -> None:
        for slots in self._by_color.values():
            if slot in slots:
                slots.remove(slot)
                return

    def _surrender_slots(self, n_frames: int, node: int | None = None):
        grant = super()._surrender_slots(n_frames, node)
        for slot in grant.pages:
            self._uncolor_slot(slot)
        return grant

    def on_frames_seized(self, grant: FrameGrant) -> None:
        super().on_frames_seized(grant)
        for slot in grant.pages:
            self._uncolor_slot(slot)

    def reclaim_one(self, segment: Segment, page: int) -> None:
        frame = segment.pages.get(page)
        color = frame.color(self.n_colors) if frame is not None else None
        before = set(self._free_slots)
        super().reclaim_one(segment, page)
        if color is None:
            return
        new_slots = [s for s in self._free_slots if s not in before]
        for slot in new_slots:
            self._by_color[color].append(slot)

    def placement_report(self, segment: Segment) -> dict[int, int]:
        """Resident pages per frame color (diagnostics for the bench)."""
        report: dict[int, int] = {}
        for frame in segment.pages.values():
            color = frame.color(self.n_colors)
            report[color] = report.get(color, 0) + 1
        return report
