"""The generic segment manager: stock, reclaim, fast migrate-back."""

from __future__ import annotations

import pytest

from repro import build_system
from repro.core.api import FrameDemand, ModifyPageFlagsRequest
from repro.core.faults import FaultKind, PageFault
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.errors import ManagerError, OutOfFramesError
from repro.hw.phys_mem import PhysicalMemory
from repro.managers.base import GenericSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(reserve_frames=8))
    manager = GenericSegmentManager(kernel, spcm, "app", initial_frames=16)
    return kernel, spcm, manager


class TestFrameStock:
    def test_initial_request_fills_free_segment(self, world):
        _, _, manager = world
        assert manager.free_frames == 16
        assert manager.free_segment.resident_pages == 16

    def test_allocate_consumes_stock(self, world):
        _, _, manager = world
        manager.allocate_slot()
        assert manager.free_frames == 15

    def test_allocate_refills_from_spcm_when_empty(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(64, manager=manager)
        for page in range(20):  # more than the initial 16
            kernel.reference(seg, page * 4096)
        assert seg.resident_pages == 20

    def test_out_of_frames_raises(self):
        memory = PhysicalMemory(32 * 4096)
        kernel = Kernel(memory)
        spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(0))
        manager = GenericSegmentManager(kernel, spcm, "m", initial_frames=8)
        # pin everything so reclaim cannot help, then drain
        seg = kernel.create_segment(40, manager=manager)
        manager.pin_segment(seg)
        with pytest.raises(OutOfFramesError):
            for page in range(40):
                kernel.reference(seg, page * 4096)

    def test_return_frames_to_spcm(self, world):
        _, spcm, manager = world
        available = spcm.available_frames()
        returned = manager.return_frames(4)
        assert returned == 4
        assert manager.free_frames == 12
        assert spcm.available_frames() == available + 4

    def test_allocate_run_contiguous(self, world):
        _, _, manager = world
        run = manager.allocate_run(4)
        assert len(run) == 4
        assert run == list(range(run[0], run[0] + 4))

    def test_reused_request_follows_home_node(self):
        """An unconstrained request is one object per (size, home node):
        moving the manager's home node moves its next grant."""
        system = build_system(memory_mb=4, n_nodes=2, manager_frames=64)
        kernel, spcm = system.kernel, system.spcm
        manager = GenericSegmentManager(
            kernel, spcm, "hinted", initial_frames=0, home_node=0
        )
        seen = []
        grant = spcm.request_frames

        def spy(mgr, request, dst_segment):
            seen.append(request)
            return grant(mgr, request, dst_segment)

        spcm.request_frames = spy
        assert manager.request_frames(2) == 2
        assert manager.request_frames(2) == 2
        manager.home_node = 1
        assert manager.request_frames(2) == 2
        assert manager.request_frames(2, phys_lo=0) == 2
        assert seen[0] is seen[1]
        assert seen[2] is not seen[0] and seen[3] is not seen[2]
        assert [r.home_node for r in seen] == [0, 0, 1, 1]
        assert [r.n_frames for r in seen] == [2, 2, 2, 2]
        assert seen[3].phys_lo == 0
        nodes = [
            kernel.topology.node_of(manager.free_segment.pages[slot].phys_addr)
            for slot in manager._free_slots
        ]
        assert nodes == [0, 0, 0, 0, 1, 1, 1, 1]


class TestReclamation:
    def test_reclaim_returns_pages_to_stock(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        for page in range(4):
            kernel.reference(seg, page * 4096)
        free_before = manager.free_frames
        reclaimed = manager.reclaim_pages(2)
        assert reclaimed == 2
        assert manager.free_frames == free_before + 2
        assert seg.resident_pages == 2
        kernel.check_frame_conservation()

    def test_fast_migrate_back_restores_data(self, world):
        """'If a given page frame is referenced through the original
        segment before the page frame is reused, the manager simply
        migrates it back' (S2.2) --- data intact, no refill."""
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        frame.write(b"precious")
        manager.reclaim_one(seg, 0)
        assert 0 not in seg.pages
        back = kernel.reference(seg, 0, write=False)
        assert back is frame
        assert back.read(0, 8) == b"precious"
        assert manager.fast_reclaims == 1

    def test_reused_frame_is_not_migrated_back(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        frame.write(b"old")
        manager.reclaim_one(seg, 0)
        # drain the stock so the reclaimed frame is reused elsewhere
        other = kernel.create_segment(32, manager=manager)
        for page in range(manager.free_frames):
            kernel.reference(other, page * 4096)
        fresh = kernel.reference(seg, 0, write=False)
        assert manager.fast_reclaims == 0 or fresh is not frame

    def test_invalidate_reclaim_cache(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=True)
        manager.reclaim_one(seg, 0)
        manager.invalidate_reclaim_cache()
        kernel.reference(seg, 0)
        assert manager.fast_reclaims == 0

    def test_dirty_page_writeback_hook_called(self, world):
        kernel, _, manager = world
        written = []
        manager.writeback = lambda seg, page, frame: written.append(page)  # type: ignore[method-assign]
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=True)   # dirty
        kernel.reference(seg, 4096, write=False)  # clean
        manager.reclaim_one(seg, 0)
        manager.reclaim_one(seg, 1)
        assert written == [0]

    def test_reclaim_unresident_page_rejected(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        with pytest.raises(ManagerError):
            manager.reclaim_one(seg, 0)

    def test_fifo_victim_selection_skips_pinned(self, world):
        kernel, _, manager = world
        a = kernel.create_segment(4, manager=manager)
        b = kernel.create_segment(4, manager=manager)
        kernel.reference(a, 0)
        kernel.reference(b, 0)
        manager.pin_segment(a)
        victims = manager.select_victims(2)
        assert (a.seg_id, 0) not in [(s.seg_id, p) for s, p in victims]

    def test_pinned_flag_protects_frame(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0)
        kernel.modify_page_flags(
            ModifyPageFlagsRequest(seg, 0, set_flags=PageFlags.PINNED)
        )
        assert manager.select_victims(4) == []


class TestKernelEvents:
    def test_segment_deleted_reclaims_everything(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        for page in range(4):
            kernel.reference(seg, page * 4096)
        free_before = manager.free_frames
        kernel.delete_segment(seg)
        assert manager.free_frames == free_before + 4
        kernel.check_frame_conservation()

    def test_release_frames_under_pressure(self, world):
        kernel, spcm, manager = world
        seg = kernel.create_segment(16, manager=manager)
        for page in range(12):
            kernel.reference(seg, page * 4096)
        available = spcm.available_frames()
        freed = manager.release_frames(FrameDemand(8)).n_frames
        assert freed == 8
        assert spcm.available_frames() == available + 8

    def test_cow_fault_does_not_call_fill(self, world):
        kernel, _, manager = world
        filled = []
        original_fill = manager.fill_page
        manager.fill_page = lambda seg, page, frame: filled.append(page)  # type: ignore[method-assign]
        source = kernel.create_segment(4, manager=manager)
        kernel.reference(source, 0, write=True)
        filled.clear()
        shadow = kernel.create_segment(4, manager=manager, cow_source=source)
        kernel.reference(shadow, 0, write=True)
        assert filled == []  # the kernel performed the copy, not the fill
        manager.fill_page = original_fill  # type: ignore[method-assign]
