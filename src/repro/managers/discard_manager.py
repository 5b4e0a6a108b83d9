"""Discardable pages without kernel support.

Subramanian's Mach external pager (paper, S4) showed large wins for ML
programs by not writing back garbage pages, but needed two kernel changes:
knowledge of physical memory availability, and suppressing the zero-fill
when a page returns to the same application.  "Both of these problems are
addressed by external page-cache management without adding special
mechanism to the kernel" --- this manager demonstrates exactly that:

* availability comes from its own free stock plus an SPCM query;
* same-user reallocation skips zeroing because the kernel only zeroes
  frames the SPCM flagged ``ZERO_FILL`` on a cross-account transfer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.segment import Segment
from repro.core.uio import FileServer
from repro.managers.base import GenericSegmentManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.hw.phys_mem import PageFrame
    from repro.spcm.spcm import SystemPageCacheManager


class DiscardableSegmentManager(GenericSegmentManager):
    """Tracks discardable (garbage) pages and skips their writeback."""

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        file_server: FileServer | None = None,
        name: str = "discard-manager",
        initial_frames: int = 128,
    ) -> None:
        super().__init__(kernel, spcm, name, initial_frames)
        self.file_server = file_server
        self._discardable: set[tuple[int, int]] = set()
        self.writebacks_avoided = 0
        self.writebacks_done = 0

    # ------------------------------------------------------------------
    # the application's garbage notifications
    # ------------------------------------------------------------------

    def mark_discardable(
        self, segment: Segment, start_page: int, n_pages: int = 1
    ) -> None:
        """The application (e.g. its collector) declares pages garbage."""
        segment.check_page_range(start_page, n_pages)
        for page in range(start_page, start_page + n_pages):
            self._discardable.add((segment.seg_id, page))

    def mark_live(
        self, segment: Segment, start_page: int, n_pages: int = 1
    ) -> None:
        """Pages became live again (reallocated by the application)."""
        for page in range(start_page, start_page + n_pages):
            self._discardable.discard((segment.seg_id, page))

    def is_discardable(self, segment: Segment, page: int) -> bool:
        """True when the page is currently declared garbage."""
        return (segment.seg_id, page) in self._discardable

    # ------------------------------------------------------------------
    # policy overrides
    # ------------------------------------------------------------------

    def writeback(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        if (segment.seg_id, page) in self._discardable:
            self.writebacks_avoided += 1
            return
        if self.file_server is not None and segment.file_size is not None:
            self.file_server.store_page(segment, page, frame.read())
        self.writebacks_done += 1

    def select_victims(self, n_pages: int) -> list[tuple[Segment, int]]:
        """Prefer discardable pages --- they are free to evict."""
        victims: list[tuple[Segment, int]] = []
        for seg_id, page in self._discardable:
            if len(victims) >= n_pages:
                return victims
            segment = self.kernel.segment(seg_id)
            if page in segment.pages:
                victims.append((segment, page))
        victims.extend(
            v
            for v in super().select_victims(n_pages - len(victims))
            if v not in victims
        )
        return victims[:n_pages]

    def reclaim_one(
        self, segment: Segment, page: int, keep: bool = True
    ) -> None:
        # garbage data must not be resurrected by the migrate-back path
        keep = keep and (segment.seg_id, page) not in self._discardable
        super().reclaim_one(segment, page, keep)

    # ------------------------------------------------------------------
    # the availability knowledge Subramanian's pager lacked
    # ------------------------------------------------------------------

    def memory_available(self) -> int:
        """Frames obtainable without paging (stock + SPCM pool)."""
        return self.free_frames + self.spcm.available_frames(self.page_size)
