"""A database management system's segment manager.

The paper's running DBMS example (S2.2, S3.3): separate free-page pools
per data type (indices, views, relations) for per-type accounting, pinning
of critical pages, wholesale discard of regenerable segments, and exact
knowledge of what is resident --- the inputs the query optimizer and the
index-regeneration policy of Table 4 need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import ModifyPageFlagsRequest
from repro.core.faults import MISSING_PAGE, PageFault
from repro.core.flags import PageFlags
from repro.core.segment import Segment
from repro.errors import ManagerError
from repro.managers.base import GenericSegmentManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.spcm.spcm import SystemPageCacheManager


class DBMSSegmentManager(GenericSegmentManager):
    """Application-specific manager for a database system."""

    #: the per-type pools the paper suggests (S2.2)
    POOL_NAMES = ("relations", "indices", "views")

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        name: str = "dbms-manager",
        initial_frames: int = 256,
        file_server=None,
    ) -> None:
        super().__init__(kernel, spcm, name, initial_frames)
        #: backing store for file-backed relations (optional)
        self.file_server = file_server
        self.segment_pool: dict[int, str] = {}
        self.discarded_pages = 0
        self.discarded_segments = 0

    # ------------------------------------------------------------------
    # typed segments
    # ------------------------------------------------------------------

    def create_typed_segment(
        self, n_pages: int, pool: str, name: str = ""
    ) -> Segment:
        """Create a segment accounted against one of the data-type pools."""
        if pool not in self.POOL_NAMES:
            raise ManagerError(f"unknown pool {pool!r}")
        segment = self.kernel.create_segment(
            n_pages, name=name or f"{self.name}.{pool}", manager=self
        )
        self.segment_pool[segment.seg_id] = pool
        return segment

    def pool_of(self, segment: Segment) -> str | None:
        """The data-type pool a segment is accounted against."""
        return self.segment_pool.get(segment.seg_id)

    @property
    def pool_frames(self) -> dict[str, int]:
        """Frames held per data type, for per-type accounting: the
        resident pages of each pool's live typed segments."""
        counts = dict.fromkeys(self.POOL_NAMES, 0)
        for seg_id, pool in self.segment_pool.items():
            if seg_id in self.managed:
                counts[pool] += len(self.kernel.segment(seg_id).pages)
        return counts

    # ------------------------------------------------------------------
    # file-backed relations
    # ------------------------------------------------------------------

    def fill_page(self, segment: Segment, page: int, frame) -> None:
        """Page relations in from backing store when a server is wired."""
        if self.file_server is None or page >= segment.file_pages:
            return
        frame.write(self.file_server.fetch_page(segment, page))
        self.kernel.meter.charge("manager_copy", self.kernel.costs.copy_page)
        self.charge_io(segment.page_size)

    def writeback(self, segment: Segment, page: int, frame) -> None:
        if self.file_server is None or segment.file_size is None:
            return
        self.file_server.store_page(segment, page, frame.read())

    # ------------------------------------------------------------------
    # the memory knowledge the paper argues a DBMS needs (S1)
    # ------------------------------------------------------------------

    def memory_available(self) -> int:
        """Frames the DBMS can still obtain without paging: its own free
        stock plus what the SPCM has on hand."""
        return self.free_frames + self.spcm.available_frames(self.page_size)

    def is_resident(self, segment: Segment, page: int) -> bool:
        """Exact residency --- what the query optimizer consults to price
        a plan (a fault multiplies the cost of a query, S1)."""
        return page in segment.pages

    def resident_fraction(self, segment: Segment) -> float:
        """Fraction of the segment's pages currently in memory."""
        if segment.n_pages == 0:
            return 1.0
        return len(segment.pages) / segment.n_pages

    # ------------------------------------------------------------------
    # wholesale discard (regenerable data, S2.2 / Table 4)
    # ------------------------------------------------------------------

    def discard_segment(self, segment: Segment) -> int:
        """Drop every page of a regenerable segment without writeback.

        "Deleting whole segments of temporary data that it knows are no
        longer needed or that are better to discard and regenerate in
        their entirety."  The segment stays pinned if it was.  Returns the
        number of pages discarded.
        """
        dropped = self._drop_pages(segment, "mgr.discard")
        self.discarded_pages += dropped
        self.discarded_segments += 1
        return dropped

    # ------------------------------------------------------------------
    # placement-constrained allocation (DASH-style, S2.2)
    # ------------------------------------------------------------------

    def request_frames_in_range(
        self, n_frames: int, phys_lo: int, phys_hi: int
    ) -> int:
        """Ask the SPCM for frames within a physical address range."""
        return self.request_frames(n_frames, phys_lo=phys_lo, phys_hi=phys_hi)

    # ------------------------------------------------------------------
    # explicit residency control
    # ------------------------------------------------------------------

    def ensure_resident(self, segment: Segment, pages: list[int]) -> int:
        """Fault in the given pages now (prefetch by demand); returns the
        number that had to be brought in."""
        brought_in = 0
        for page in pages:
            if page in segment.pages:
                continue
            self.handle_fault(
                PageFault(segment.seg_id, page, MISSING_PAGE, False)
            )
            brought_in += 1
        return brought_in

    def pin_pages(self, segment: Segment, pages: list[int]) -> None:
        """Pin critical pages (central indices and directories, S1)."""
        for page in pages:
            if page not in segment.pages:
                self.ensure_resident(segment, [page])
        for page in pages:
            self.kernel.modify_page_flags(
                ModifyPageFlagsRequest(segment, page, set_flags=PageFlags.PINNED)
            )
