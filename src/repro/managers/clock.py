"""Clock algorithms at process level.

The manager "can implement standard page frame reclamation strategies,
such as the various 'clock' algorithms" (paper, S2.2) entirely outside the
kernel, because ``ModifyPageFlags`` lets it read and clear REFERENCED bits
and revoke access.

Two variants are provided:

* :class:`ClockReplacer` — classic second-chance over a manager's resident
  pages, driven by the REFERENCED flag.
* :class:`ProtectionClockSampler` — the default manager's working-set
  estimator (S2.3): revoke all access, count the protection faults that
  follow as references, and re-enable protection on a *batch* of
  contiguous pages per fault to amortize the fault cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import ModifyPageFlagsRequest
from repro.core.flags import (
    NONE,
    PINNED_I,
    REFERENCED,
    REFERENCED_I,
    RW,
    RW_REFERENCED,
)
from repro.core.segment import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.managers.base import GenericSegmentManager


class ClockReplacer:
    """Second-chance clock over a manager's resident pages."""

    def __init__(self, manager: "GenericSegmentManager") -> None:
        self.manager = manager
        self._ring: list[tuple[int, int]] = []
        self._hand = 0

    def _sync_ring(self) -> None:
        """Refresh the ring to the manager's current resident set.

        The hand stays on the page it pointed at if that page is still
        resident, and goes back to the start otherwise.
        """
        resident = self.manager._resident
        current = list(resident)
        if current != self._ring:
            ring = self._ring
            anchor = ring[self._hand % len(ring)] if ring else None
            self._ring = current
            if anchor in resident:
                self._hand = current.index(anchor)
            else:
                self._hand = 0

    def select_victims(self, n_pages: int) -> list[tuple[Segment, int]]:
        """Sweep the clock: clear REFERENCED on first pass, take pages
        found unreferenced.  Referenced pages always survive a single
        sweep position --- the second-chance guarantee."""
        self._sync_ring()
        victims: list[tuple[Segment, int]] = []
        ring = self._ring
        n_ring = len(ring)
        if not n_ring:
            return victims
        manager = self.manager
        kernel = manager.kernel
        modify_page_flags = kernel.modify_page_flags
        pinned = manager.pinned_segments
        # ring entries taken this sweep: a second lap meets them again
        taken: set[tuple[int, int]] = set()
        # consecutive ring entries mostly share a segment, so each run of
        # one segment's pages looks the segment up once
        seg_id_of_run = None
        segment = None
        pages = None
        hand = self._hand
        sweeps = 0
        max_sweeps = 2 * n_ring
        try:
            while len(victims) < n_pages and sweeps < max_sweeps:
                sweeps += 1
                key = ring[hand % n_ring]
                hand += 1
                seg_id, page = key
                if seg_id in pinned:
                    continue
                if seg_id != seg_id_of_run:
                    segment = kernel.segment(seg_id)
                    pages = segment.pages
                    seg_id_of_run = seg_id
                frame = pages.get(page)
                if frame is None:
                    continue
                flags = frame.flags
                if flags & PINNED_I:
                    continue
                if flags & REFERENCED_I:
                    # Second chance: clear the bit (shooting down cached
                    # translations so a future touch re-sets it) and move
                    # on.
                    modify_page_flags(
                        ModifyPageFlagsRequest(seg_id, page, 1, NONE, REFERENCED)
                    )
                    continue
                if key not in taken:
                    taken.add(key)
                    victims.append((segment, page))
        finally:
            self._hand = hand
        return victims


class ProtectionClockSampler:
    """Working-set estimation by protection sampling (S2.3).

    ``begin_interval`` revokes access to a segment's resident pages; each
    subsequent first touch raises a protection fault which the manager
    routes to :meth:`note_protection_fault`.  The handler restores access
    on ``batch_pages`` contiguous pages at once --- "the default manager
    changes the protection on a number of contiguous pages, rather than a
    single page, when a fault occurs" --- trading sampling precision for
    fault overhead.  Referenced-page counts are therefore an
    over-approximation, never an under-approximation.
    """

    def __init__(
        self, manager: "GenericSegmentManager", batch_pages: int = 8
    ) -> None:
        if batch_pages <= 0:
            raise ValueError("batch must be at least one page")
        self.manager = manager
        self.batch_pages = batch_pages
        #: per segment id: pages counted as referenced this interval
        self.referenced: dict[int, int] = {}
        self.protection_faults = 0

    def begin_interval(self, segments: list[Segment]) -> None:
        """Revoke access on resident pages and reset reference counts."""
        self.referenced = {}
        for segment in segments:
            pages = sorted(segment.pages)
            if not pages:
                continue
            # batch the revocations over contiguous runs
            run_start = pages[0]
            prev = pages[0]
            for page in pages[1:] + [None]:  # type: ignore[list-item]
                if page is not None and page == prev + 1:
                    prev = page
                    continue
                self.manager.kernel.modify_page_flags(
                    ModifyPageFlagsRequest(
                        segment.seg_id,
                        run_start,
                        prev - run_start + 1,
                        clear_flags=RW_REFERENCED,
                    )
                )
                if page is not None:
                    run_start = page
                    prev = page

    def note_protection_fault(self, segment: Segment, page: int) -> int:
        """Handle one sampling fault: restore access on a batch of
        contiguous pages; returns the number of pages re-enabled."""
        self.protection_faults += 1
        start = (page // self.batch_pages) * self.batch_pages
        n = min(self.batch_pages, segment.n_pages - start)
        restored = self.manager.kernel.modify_page_flags(
            ModifyPageFlagsRequest(
                segment.seg_id, start, n, set_flags=RW
            )
        ).modified
        self.referenced[segment.seg_id] = (
            self.referenced.get(segment.seg_id, 0) + restored
        )
        return restored

    def working_set(self, segment: Segment) -> int:
        """Referenced-page estimate for the current interval."""
        return self.referenced.get(segment.seg_id, 0)
