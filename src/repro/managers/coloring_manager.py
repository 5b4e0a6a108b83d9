"""Application-specific page coloring.

"An application can allocate physical pages to virtual pages to minimize
mapping collisions in physically addressed caches and TLBs, implementing
page coloring on an application-specific basis" (paper, S1).  The manager
stocks its free segment with color-constrained SPCM requests and, through
the generic supply path's frame-choice hook, backs each fault with a free
frame whose color matches the faulting virtual page --- so
virtually-contiguous data is spread evenly across the cache.  A free
frame's color is read from its physical address, so the stock needs no
per-color lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.faults import PageFault
from repro.core.segment import Segment
from repro.managers.base import GenericSegmentManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.spcm.spcm import SystemPageCacheManager


class ColoringSegmentManager(GenericSegmentManager):
    """Stocks frames per color and colors faults by virtual page."""

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
        return self.request_frames(
            n_frames, colors=frozenset({color}), n_colors=self.n_colors
        )

    def free_of_color(self, color: int) -> int:
        """Free frames currently stocked for ``color``."""
        pages = self.free_segment.pages
        return sum(
            1
            for slot in self._free_slots
            if pages[slot].color(self.n_colors) == color
        )

    # ------------------------------------------------------------------
    # colored fault handling
    # ------------------------------------------------------------------

    def choose_slot(self, segment: Segment, fault: PageFault) -> int:
        """A free frame of the color the faulting virtual page wants
        (counted as a hit), else any free frame (a miss)."""
        # use the mapped virtual page number when the fault came through
        # an address space
        vpn = (
            fault.vaddr // segment.page_size
            if fault.vaddr is not None
            else fault.page
        )
        n_colors = self.n_colors
        wanted = vpn % n_colors
        slot = self.take_slot(lambda frame: frame.color(n_colors) == wanted)
        if slot is not None:
            self.color_hits += 1
            return slot
        self.color_misses += 1
        return self.allocate_slot()

    def placement_report(self, segment: Segment) -> dict[int, int]:
        """Resident pages per frame color (diagnostics for the bench)."""
        report: dict[int, int] = {}
        for frame in segment.pages.values():
            color = frame.color(self.n_colors)
            report[color] = report.get(color, 0) + 1
        return report
