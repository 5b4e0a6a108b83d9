"""Edge paths not covered by the mainline suites."""

from __future__ import annotations

import pytest

from repro.core.api import (
    FrameDemand,
    MigratePagesRequest,
    ModifyPageFlagsRequest,
)
from repro.core.faults import FaultKind, PageFault
from repro.core.flags import PageFlags
from repro.core.kernel import MAX_FAULT_RETRIES, Kernel
from repro.core.manager_api import SegmentManager
from repro.core.supervisor import FAILOVER_AFTER_ATTEMPTS
from repro.errors import UIOError
from repro.managers.base import GenericSegmentManager
from repro.managers.coloring_manager import ColoringSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(0))
    return kernel, spcm


class TestAllocateRunFallback:
    def test_fragmented_stock_falls_back_to_singles(self, world):
        kernel, spcm = world
        manager = GenericSegmentManager(kernel, spcm, "frag", initial_frames=8)
        # fragment the stock: free slots 0..7; consume the even ones
        seg = kernel.create_segment(8, manager=manager)
        for even_slot in (0, 2, 4, 6):
            manager._free_slots.remove(even_slot)
            kernel.migrate_pages(
                MigratePagesRequest(
                    manager.free_segment, seg, even_slot, even_slot, 1
                )
            )
            manager._empty_slots.append(even_slot)
        # drain the SPCM so a contiguous refill is impossible
        available = spcm.available_frames()
        if available:
            sink = GenericSegmentManager(
                kernel, spcm, "sink", initial_frames=available
            )
            assert spcm.available_frames() == 0
        slots = manager.allocate_run(3)
        assert len(slots) == 3
        assert sorted(slots) != list(range(min(slots), min(slots) + 3))

    def test_run_of_one_is_trivial(self, world):
        kernel, spcm = world
        manager = GenericSegmentManager(kernel, spcm, "one", initial_frames=4)
        assert len(manager.allocate_run(1)) == 1


class _SilentManager(SegmentManager):
    """Counts the faults delivered to it and resolves none."""

    def __init__(self, kernel) -> None:
        super().__init__(kernel, "silent")
        self.deliveries = 0

    def handle_fault(self, fault):
        self.deliveries += 1


class TestUIOFailurePaths:
    def test_manager_that_never_provides_is_failed_over(self, system):
        kernel = system.kernel
        silent = _SilentManager(kernel)
        seg = kernel.create_segment(
            0, name="f", manager=silent, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"x" * 4096)
        assert system.uio.read(seg, 0, 4096) == b"x" * 4096
        assert silent.deliveries == FAILOVER_AFTER_ATTEMPTS
        assert kernel.stats.manager_failovers == 1
        assert kernel.stats.fallback_resolutions == 1
        assert seg.manager is system.default_manager

    def test_manager_that_never_provides_raises_uio_error(self, system):
        kernel = system.kernel
        kernel.supervisor.fallback = None
        silent = _SilentManager(kernel)
        seg = kernel.create_segment(
            0, name="f", manager=silent, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"x" * 4096)
        with pytest.raises(UIOError):
            system.uio.read(seg, 0, 4096)
        assert silent.deliveries == MAX_FAULT_RETRIES
        assert kernel.stats.manager_failovers == 0


class TestColoringNonMissingFaults:
    def test_protection_fault_uses_generic_path(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=4, frames_per_color=4
        )
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0)
        kernel.modify_page_flags(
            ModifyPageFlagsRequest(
                seg, 0, 1, clear_flags=PageFlags.READ | PageFlags.WRITE
            )
        )
        kernel.reference(seg, 0)  # restored by the base protection policy
        flags = PageFlags(seg.pages[0].flags)
        assert PageFlags.READ in flags

    def test_cow_fault_through_coloring_manager(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=4, frames_per_color=8
        )
        source = kernel.create_segment(4, manager=manager)
        kernel.reference(source, 0, write=True)
        source.pages[0].write(b"base")
        shadow = kernel.create_segment(4, manager=manager, cow_source=source)
        frame = kernel.reference(shadow, 0, write=True)
        assert frame.read(0, 4) == b"base"


class TestManagerFaultKindsDirect:
    def test_direct_fault_injection_matches_reference_path(self, world):
        """Managers can be driven directly with PageFault objects (the
        UIO path does this); the outcome matches the reference path."""
        kernel, spcm = world
        manager = GenericSegmentManager(kernel, spcm, "direct", initial_frames=8)
        seg = kernel.create_segment(4, manager=manager)
        manager.handle_fault(
            PageFault(seg.seg_id, 2, FaultKind.MISSING_PAGE, write=False)
        )
        assert 2 in seg.pages
        frame = kernel.reference(seg, 2 * 4096)
        assert frame is seg.pages[2]


class TestReturnFramesEdge:
    def test_return_more_than_held_clamps(self, world):
        kernel, spcm = world
        manager = GenericSegmentManager(kernel, spcm, "clamp", initial_frames=4)
        assert manager.return_frames(100) == 4
        assert manager.return_frames(1) == 0

    def test_release_frames_with_nothing_resident(self, world):
        kernel, spcm = world
        manager = GenericSegmentManager(kernel, spcm, "bare", initial_frames=4)
        assert manager.release_frames(FrameDemand(10)).n_frames == 4
