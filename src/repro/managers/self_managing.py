"""A manager that manages its own code and data segments (S2.2).

"The alternative approach is for the application manager to manage the
segments containing its code and data, and to ensure that these segments
are not paged out while the program is active, effectively locking this
portion in memory ... when an application starts execution, these segments
are under the control of the default segment manager.  The application
manager accesses these pages at this point to force them into memory, then
assumes management of these segments, and then reaccesses these segments,
ensuring they are still in memory.  A page fault after assuming ownership
causes this initialization sequence to be retried until it succeeds."

This module implements that whole protocol, including:

* the touch / assume / re-touch / retry initialization sequence;
* the pinned signal stack, so fault handling never faults (S2.1);
* the swap-out protocol: the manager swaps its application segments,
  returns its own segments to the default manager, and quiesces; on
  resumption it re-runs the initialization sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import ModifyPageFlagsRequest, SetSegmentManagerRequest
from repro.core.faults import PageFault
from repro.core.flags import PageFlags
from repro.core.segment import Segment
from repro.core.uio import FileServer
from repro.errors import ManagerError
from repro.managers.base import GenericSegmentManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.core.manager_api import SegmentManager
    from repro.hw.phys_mem import PageFrame
    from repro.spcm.spcm import SystemPageCacheManager

#: retries of the initialization sequence before giving up (the paper
#: argues the manager footprint is small relative to system memory, so
#: this "invariably" succeeds quickly)
MAX_INIT_RETRIES = 8

#: pages of the manager's own code, data and signal-stack segments, the
#: footprint it locks in memory before it takes over its application
CODE_PAGES = 8
DATA_PAGES = 8
SIGNAL_STACK_PAGES = 2


class SelfManagingManager(GenericSegmentManager):
    """An application manager that locks its own pages in memory."""

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        default_manager: "SegmentManager",
        file_server: FileServer | None = None,
        name: str = "self-managing",
        initial_frames: int = 64,
    ) -> None:
        super().__init__(kernel, spcm, name, initial_frames)
        self.default_manager = default_manager
        self.file_server = file_server
        # The manager's own segments start under the default manager,
        # exactly as a freshly-executed program's would.
        self.code_segment = kernel.create_segment(
            CODE_PAGES, name=f"{name}.code", manager=default_manager
        )
        self.data_segment = kernel.create_segment(
            DATA_PAGES, name=f"{name}.data", manager=default_manager
        )
        self.signal_stack = kernel.create_segment(
            SIGNAL_STACK_PAGES, name=f"{name}.sigstack", manager=default_manager
        )
        self.active = False
        self.init_retries = 0
        self.swap_area: dict[tuple[int, int], bytes] = {}
        self.swapped_out_pages = 0

    # ------------------------------------------------------------------
    # the initialization sequence
    # ------------------------------------------------------------------

    def _own_segments(self) -> list[Segment]:
        return [self.code_segment, self.data_segment, self.signal_stack]

    def activate(self) -> int:
        """Run the touch/assume/re-touch sequence until it succeeds.

        Returns the number of retries taken.  After activation the
        manager's own pages are pinned and excluded from replacement.
        """
        retries = 0
        while True:
            # 1. force the pages into memory (under the current manager)
            for segment in self._own_segments():
                for page in range(segment.n_pages):
                    self.kernel.reference(segment, page * segment.page_size)
            # 2. assume management
            for segment in self._own_segments():
                if segment.manager is not self:
                    self.manage(segment)
            # 3. re-access, verifying everything is still resident
            if all(
                seg.resident_pages == seg.n_pages
                for seg in self._own_segments()
            ):
                break
            retries += 1
            if retries > MAX_INIT_RETRIES:
                raise ManagerError(
                    f"{self.name}: initialization sequence did not converge"
                )
            # a page was reclaimed between steps: hand the segments back
            # and retry from the top (the paper's retry loop)
            for segment in self._own_segments():
                self.kernel.set_segment_manager(
                    SetSegmentManagerRequest(segment, self.default_manager)
                )
        # 4. exclude our own frames from replacement, signal stack included
        for segment in self._own_segments():
            self.pin_segment(segment)
            self.kernel.modify_page_flags(
                ModifyPageFlagsRequest(
                    segment, 0, segment.n_pages, set_flags=PageFlags.PINNED
                )
            )
        self.active = True
        self.init_retries += retries
        return retries

    # ------------------------------------------------------------------
    # fault handling that cannot recurse
    # ------------------------------------------------------------------

    def handle_fault(self, fault: PageFault) -> None:
        """Handle a fault; the handler itself runs on the pinned signal
        stack, so it never faults recursively (S2.1)."""
        if self.active:
            stack = self.signal_stack
            if stack.resident_pages != stack.n_pages:
                raise ManagerError(
                    f"{self.name}: signal stack was paged out --- fault "
                    "handling would recurse"
                )
        super().handle_fault(fault)

    # ------------------------------------------------------------------
    # the swap-out protocol (S2.2)
    # ------------------------------------------------------------------

    def swap_out(self, application_segments: list[Segment]) -> int:
        """Swap the application, then quiesce the manager itself.

        "The application segment manager swaps the application segments
        except for its code and data segments.  It then returns ownership
        of these latter segments to the default segment manager, and
        indicates it is ready to be swapped."

        Returns the number of pages swapped.
        """
        if not self.active:
            raise ManagerError(f"{self.name} is not active")
        swapped = 0
        for segment in application_segments:
            if segment in self._own_segments():
                raise ManagerError(
                    "own segments are not swapped by the application manager"
                )
            for page in sorted(segment.pages):
                frame = segment.pages[page]
                if PageFlags.DIRTY & PageFlags(frame.flags):
                    self.swap_area[(segment.seg_id, page)] = frame.read()
                    self.kernel.meter.charge(
                        "swap_out",
                        self.kernel.costs.disk_transfer_us(segment.page_size),
                    )
                self.reclaim_one(segment, page)
                swapped += 1
        # forget the migrate-back cache: these frames are about to be
        # given away
        self.invalidate_reclaim_cache()
        self.return_frames(self.free_frames)
        # hand our own segments back and quiesce
        for segment in self._own_segments():
            self.unpin_segment(segment)
            self.kernel.modify_page_flags(
                ModifyPageFlagsRequest(
                    segment, 0, segment.n_pages, clear_flags=PageFlags.PINNED
                )
            )
            self.kernel.set_segment_manager(
                SetSegmentManagerRequest(segment, self.default_manager)
            )
        self.active = False
        self.swapped_out_pages += swapped
        return swapped

    def resume(self) -> int:
        """Resume after a swap: re-run the initialization sequence.

        The swapped application pages come back on demand through
        :meth:`fill_page`.  Returns the activation retries.
        """
        if self.free_frames == 0:
            self.request_frames(self.refill_batch)
        return self.activate()

    def fill_page(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        """Page-in: swap area first, then any backing file."""
        swapped = self.swap_area.pop((segment.seg_id, page), None)
        if swapped is not None:
            frame.write(swapped)
            self.kernel.meter.charge(
                "swap_in",
                self.kernel.costs.disk_transfer_us(segment.page_size),
            )
            return
        if self.file_server is not None and page < segment.file_pages:
            frame.write(self.file_server.fetch_page(segment, page))
