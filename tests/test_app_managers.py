"""Application-specific managers: DBMS, coloring, discard, pinning."""

from __future__ import annotations

import pytest

from repro.core.api import GetPageAttributesRequest
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.core.uio import FileServer
from repro.errors import ManagerError
from repro.invariants import InvariantChecker
from repro.hw.costs import DECSTATION_5000_200
from repro.hw.disk import Disk
from repro.managers.coloring_manager import ColoringSegmentManager
from repro.managers.dbms_manager import DBMSSegmentManager
from repro.managers.discard_manager import DiscardableSegmentManager
from repro.managers.pinning import PinnedPageManager
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel)
    return kernel, spcm


class TestDBMSManager:
    def test_typed_segments_account_per_pool(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=64)
        idx = manager.create_typed_segment(8, "indices")
        rel = manager.create_typed_segment(8, "relations")
        kernel.reference(idx, 0)
        kernel.reference(rel, 0)
        kernel.reference(rel, 4096)
        assert manager.pool_frames["indices"] == 1
        assert manager.pool_frames["relations"] == 2
        assert manager.pool_of(idx) == "indices"

    def test_unknown_pool_rejected(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=8)
        with pytest.raises(ManagerError):
            manager.create_typed_segment(4, "blobs")

    def test_discard_segment_drops_without_writeback(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=64)
        idx = manager.create_typed_segment(8, "indices")
        for page in range(8):
            kernel.reference(idx, page * 4096, write=True)  # dirty
        free_before = manager.free_frames
        dropped = manager.discard_segment(idx)
        assert dropped == 8
        assert idx.resident_pages == 0
        assert manager.free_frames == free_before + 8
        assert manager.pool_frames["indices"] == 0
        assert manager.discarded_segments == 1
        kernel.check_frame_conservation()

    def test_pool_count_drops_with_a_deleted_segment(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=64)
        idx = manager.create_typed_segment(8, "indices")
        for page in range(4):
            kernel.reference(idx, page * 4096)
        assert manager.pool_frames["indices"] == 4
        kernel.delete_segment(idx)
        assert manager.pool_frames["indices"] == 0

    def test_residency_queries(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=16)
        rel = manager.create_typed_segment(10, "relations")
        kernel.reference(rel, 0)
        assert manager.is_resident(rel, 0)
        assert not manager.is_resident(rel, 5)
        assert manager.resident_fraction(rel) == 0.1

    def test_ensure_resident_and_pin(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=32)
        rel = manager.create_typed_segment(8, "relations")
        brought = manager.ensure_resident(rel, [0, 1, 2])
        assert brought == 3
        assert manager.ensure_resident(rel, [0, 1]) == 0
        manager.pin_pages(rel, [0])
        assert PageFlags.PINNED & PageFlags(rel.pages[0].flags)
        victims = manager.select_victims(8)
        assert (rel.seg_id, 0) not in [(s.seg_id, p) for s, p in victims]

    def test_memory_available(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=16)
        assert (
            manager.memory_available()
            == manager.free_frames + spcm.available_frames()
        )

    def test_placement_constrained_request(self, world):
        kernel, spcm = world
        manager = DBMSSegmentManager(kernel, spcm, initial_frames=0)
        got = manager.request_frames_in_range(
            4, phys_lo=0, phys_hi=64 * 4096
        )
        assert got == 4
        attrs = kernel.get_page_attributes(
            GetPageAttributesRequest(
                manager.free_segment, 0, manager.free_segment.n_pages
            )
        ).attributes
        for attr in attrs:
            if attr.present:
                assert attr.phys_addr is not None
                assert attr.phys_addr < 64 * 4096


class TestColoringManager:
    def test_stocks_are_per_color(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=4, frames_per_color=4
        )
        for color in range(4):
            assert manager.free_of_color(color) == 4

    def test_faults_get_matching_color(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=4, frames_per_color=8
        )
        seg = kernel.create_segment(8, manager=manager)
        for page in range(8):
            kernel.reference(seg, page * 4096)
        for page, frame in seg.pages.items():
            assert frame.color(4) == page % 4
        assert manager.color_hits == 8
        assert manager.color_misses == 0

    def test_fallback_when_color_exhausted(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=4, frames_per_color=1
        )
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0)        # color 0 available
        kernel.reference(seg, 4 * 4096)  # color 0 again: exhausted
        assert manager.color_misses >= 1
        assert seg.resident_pages == 2

    def test_cow_fault_takes_a_colored_frame(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=4, frames_per_color=4
        )
        source = kernel.create_segment(4, name="source", manager=manager)
        for page in range(4):
            kernel.reference(source, page * 4096, write=True)
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        private = kernel.reference(shadow, 4096, write=True)
        assert kernel.stats.faults_by_kind.get("COPY_ON_WRITE") == 1
        # colored faults after the COW one find a consistent stock
        seg = kernel.create_segment(4, name="after", manager=manager)
        for page in range(4):
            kernel.reference(seg, page * 4096)
        assert private.color(4) == 1
        for page, frame in seg.pages.items():
            assert frame.color(4) == page
        assert manager.color_misses == 0
        InvariantChecker(kernel).check_all()

    def test_placement_report(self, world):
        kernel, spcm = world
        manager = ColoringSegmentManager(
            kernel, spcm, n_colors=2, frames_per_color=4
        )
        seg = kernel.create_segment(4, manager=manager)
        for page in range(4):
            kernel.reference(seg, page * 4096)
        report = manager.placement_report(seg)
        assert report == {0: 2, 1: 2}

    def test_requires_colors(self, world):
        kernel, spcm = world
        with pytest.raises(ValueError):
            ColoringSegmentManager(kernel, spcm, n_colors=0)


class TestDiscardManager:
    def test_discardable_pages_skip_writeback(self, world):
        kernel, spcm = world
        manager = DiscardableSegmentManager(kernel, spcm, initial_frames=32)
        seg = kernel.create_segment(8, manager=manager)
        for page in range(4):
            kernel.reference(seg, page * 4096, write=True)
        manager.mark_discardable(seg, 0, 2)
        manager.reclaim_one(seg, 0)
        manager.reclaim_one(seg, 2)  # live dirty page
        assert manager.writebacks_avoided == 1
        assert manager.writebacks_done == 1

    def test_discardable_preferred_as_victims(self, world):
        kernel, spcm = world
        manager = DiscardableSegmentManager(kernel, spcm, initial_frames=32)
        seg = kernel.create_segment(8, manager=manager)
        for page in range(4):
            kernel.reference(seg, page * 4096, write=True)
        manager.mark_discardable(seg, 3, 1)
        victims = manager.select_victims(1)
        assert victims == [(seg, 3)]

    def test_garbage_is_not_resurrected(self, world):
        """A discarded garbage page must not come back via migrate-back."""
        kernel, spcm = world
        manager = DiscardableSegmentManager(kernel, spcm, initial_frames=32)
        seg = kernel.create_segment(4, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        frame.write(b"garbage")
        manager.mark_discardable(seg, 0)
        manager.reclaim_one(seg, 0)
        assert manager.fast_reclaims == 0
        kernel.reference(seg, 0)
        assert manager.fast_reclaims == 0

    def test_mark_live_restores_writeback(self, world):
        kernel, spcm = world
        manager = DiscardableSegmentManager(kernel, spcm, initial_frames=32)
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0, write=True)
        manager.mark_discardable(seg, 0)
        manager.mark_live(seg, 0)
        manager.reclaim_one(seg, 0)
        assert manager.writebacks_avoided == 0
        assert manager.writebacks_done == 1

    def test_availability_knowledge(self, world):
        """The knowledge Subramanian's Mach pager lacked (S4)."""
        kernel, spcm = world
        manager = DiscardableSegmentManager(kernel, spcm, initial_frames=16)
        assert manager.memory_available() > 0

    def test_same_user_reallocation_not_zeroed(self, world):
        kernel, spcm = world
        manager = DiscardableSegmentManager(kernel, spcm, initial_frames=16)
        seg = kernel.create_segment(4, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        frame.write(b"data")
        manager.mark_discardable(seg, 0)
        manager.reclaim_one(seg, 0)
        zero_fills = kernel.stats.zero_fills
        seg2 = kernel.create_segment(4, manager=manager)
        kernel.reference(seg2, 0)  # reuses the frame, same account
        assert kernel.stats.zero_fills == zero_fills


class TestPinnedPageManager:
    def test_pin_quota_enforced(self, world):
        kernel, spcm = world
        manager = PinnedPageManager(
            kernel, spcm, initial_frames=32, pin_quota=4
        )
        seg = kernel.create_segment(8, manager=manager)
        pinned = manager.mpin(seg, 0, 8)
        assert pinned == 4
        assert manager.pin_refusals == 1
        assert manager.pinned_count() == 4

    def test_pin_implies_residency(self, world):
        kernel, spcm = world
        manager = PinnedPageManager(kernel, spcm, initial_frames=32)
        seg = kernel.create_segment(8, manager=manager)
        manager.mpin(seg, 2, 2)
        assert 2 in seg.pages and 3 in seg.pages

    def test_unpinned_pages_reclaimed_behind_apps_back(self, world):
        kernel, spcm = world
        manager = PinnedPageManager(
            kernel, spcm, initial_frames=32, pin_quota=2
        )
        seg = kernel.create_segment(8, manager=manager)
        for page in range(6):
            kernel.reference(seg, page * 4096)
        manager.mpin(seg, 0, 2)
        taken = manager.system_pressure(6)
        assert taken == 4  # everything unpinned went; pins survived
        assert 0 in seg.pages and 1 in seg.pages

    def test_munpin_validates(self, world):
        kernel, spcm = world
        manager = PinnedPageManager(kernel, spcm, initial_frames=16)
        seg = kernel.create_segment(4, manager=manager)
        manager.mpin(seg, 0, 1)
        manager.munpin(seg, 0, 1)
        with pytest.raises(ManagerError):
            manager.munpin(seg, 0, 1)

    def test_double_pin_is_idempotent(self, world):
        kernel, spcm = world
        manager = PinnedPageManager(kernel, spcm, initial_frames=16)
        seg = kernel.create_segment(4, manager=manager)
        assert manager.mpin(seg, 0, 1) == 1
        assert manager.mpin(seg, 0, 1) == 0
        assert manager.pinned_count() == 1
