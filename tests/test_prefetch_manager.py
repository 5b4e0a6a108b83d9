"""Application-directed read-ahead/writeback and the I/O timeline."""

from __future__ import annotations

import pytest

from repro.core.kernel import Kernel
from repro.core.uio import FileServer
from repro.hw.costs import DECSTATION_5000_200
from repro.hw.disk import Disk
from repro.managers.prefetch_manager import IOTimeline, PrefetchingSegmentManager
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel)
    disk = Disk(DECSTATION_5000_200)
    server = FileServer(kernel, disk)
    manager = PrefetchingSegmentManager(
        kernel, spcm, server, initial_frames=64, io_service_us=1000.0
    )
    return kernel, server, manager


class TestIOTimeline:
    def test_requests_serialize(self):
        io = IOTimeline(service_us=100.0)
        assert io.issue(0.0) == 100.0
        assert io.issue(0.0) == 200.0  # queued behind the first
        assert io.issue(500.0) == 600.0  # idle gap, no queueing

    def test_utilization(self):
        io = IOTimeline(100.0)
        io.issue(0.0)
        io.issue(0.0)
        assert io.utilization(400.0) == 0.5
        assert io.utilization(0.0) == 0.0

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            IOTimeline(-1.0)


class TestPrefetch:
    def make_file(self, kernel, server, manager, pages=8):
        seg = kernel.create_segment(pages, name="data", manager=manager)
        server.create_file(seg, data=b"d" * (pages * 4096))
        return seg

    def test_completed_prefetch_costs_nothing(self, world):
        kernel, server, manager = world
        seg = self.make_file(kernel, server, manager)
        manager.prefetch(seg, 0, now_us=0.0)
        stall = manager.access(seg, 0, now_us=5000.0)
        assert stall == 0.0
        assert manager.prefetch_hits == 1

    def test_in_flight_prefetch_stalls_for_remainder(self, world):
        kernel, server, manager = world
        seg = self.make_file(kernel, server, manager)
        completion = manager.prefetch(seg, 0, now_us=0.0)
        assert completion == 1000.0
        stall = manager.access(seg, 0, now_us=400.0)
        assert stall == 600.0
        assert manager.prefetch_partial == 1

    def test_demand_fetch_queues_behind_prefetches(self, world):
        kernel, server, manager = world
        seg = self.make_file(kernel, server, manager)
        manager.prefetch(seg, 0, now_us=0.0)
        manager.prefetch(seg, 1, now_us=0.0)
        stall = manager.access(seg, 5, now_us=0.0)  # demand, 3rd in queue
        assert stall == 3000.0
        assert manager.demand_fetches == 1

    def test_prefetch_range(self, world):
        kernel, server, manager = world
        seg = self.make_file(kernel, server, manager)
        completion = manager.prefetch_range(seg, 0, 4, now_us=0.0)
        assert completion == 4000.0
        assert seg.resident_pages == 4

    def test_prefetch_resident_page_is_noop(self, world):
        kernel, server, manager = world
        seg = self.make_file(kernel, server, manager)
        manager.prefetch(seg, 0, now_us=0.0)
        manager.access(seg, 0, now_us=2000.0)
        assert manager.prefetch(seg, 0, now_us=2000.0) == 2000.0
        assert manager.io.requests == 1

    def test_prefetched_data_is_real(self, world):
        kernel, server, manager = world
        seg = kernel.create_segment(2, name="data", manager=manager)
        server.create_file(seg, data=b"AB" * 4096)
        manager.prefetch(seg, 0, now_us=0.0)
        manager.access(seg, 0, now_us=9999.0)
        assert seg.pages[0].read(0, 2) == b"AB"

    def test_reprefetched_reclaimed_page_migrates_back(self, world):
        """A reclaimed clean page comes back by migrate-back, as for every
        generic manager: its own frame and bytes, with no allocation and
        no file read charged, while the disk timeline still serves the
        request."""
        kernel, server, manager = world
        seg = kernel.create_segment(4, name="data", manager=manager)
        server.create_file(seg, data=bytes(range(256)) * 16)
        manager.prefetch(seg, 0, now_us=0.0)
        frame = seg.pages[0]
        manager.access(seg, 0, now_us=5000.0)
        manager.writeback_or_discard(seg, 0, now_us=6000.0)
        charged = dict(kernel.meter.by_category)
        requests = manager.io.requests
        assert manager.prefetch(seg, 0, now_us=7000.0) == 8000.0
        assert manager.io.requests == requests + 1
        assert seg.pages[0] is frame
        assert frame.read(0, 4) == bytes(range(4))
        assert manager.fast_reclaims == 1
        assert {
            category: us - charged.get(category, 0.0)
            for category, us in kernel.meter.by_category.items()
            if us != charged.get(category, 0.0)
        } == {"migrate_pages": kernel.costs.vpp_migrate_call}

    def test_overlap_beats_demand_paging(self, world):
        """The MP3D motivation: prefetch overlaps I/O with compute."""
        kernel, server, manager = world
        seg = self.make_file(kernel, server, manager, pages=8)
        compute_per_page = 2000.0  # > service time: fully overlappable

        # demand paging: stall on every page
        demand_clock = 0.0
        for page in range(8):
            demand_clock += manager.access(seg, page, demand_clock)
            demand_clock += compute_per_page
        for page in range(8):
            manager.reclaim_one(seg, page)
        manager.invalidate_reclaim_cache()
        manager.io.busy_until = 0.0

        # prefetch: issue all early, then compute
        prefetch_clock = 0.0
        manager.prefetch_range(seg, 0, 8, 0.0)
        for page in range(8):
            prefetch_clock += manager.access(seg, page, prefetch_clock)
            prefetch_clock += compute_per_page
        assert prefetch_clock < demand_clock


class TestWritebackOrDiscard:
    def test_clean_page_reclaim_is_free(self, world):
        kernel, server, manager = world
        seg = kernel.create_segment(4, name="data", manager=manager)
        server.create_file(seg, data=b"d" * 4096)
        manager.access(seg, 0, now_us=0.0)
        done = manager.writeback_or_discard(seg, 0, now_us=5000.0)
        assert done == 5000.0
        assert manager.writebacks_issued == 0

    def test_dirty_page_writeback_takes_io_time(self, world):
        kernel, server, manager = world
        seg = kernel.create_segment(4, name="data", manager=manager)
        server.create_file(seg, data=b"d" * 4096)
        manager.access(seg, 0, now_us=0.0, write=True)
        done = manager.writeback_or_discard(seg, 0, now_us=5000.0)
        assert done == 6000.0
        assert manager.writebacks_issued == 1

    def test_discardable_dirty_page_skips_io(self, world):
        """Conserving I/O bandwidth by discarding intermediates (S2.2)."""
        kernel, server, manager = world
        seg = kernel.create_segment(4, name="tmp", manager=manager)
        server.create_file(seg, data=b"d" * 4096)
        manager.access(seg, 0, now_us=0.0, write=True)
        manager.mark_discardable(seg)
        done = manager.writeback_or_discard(seg, 0, now_us=5000.0)
        assert done == 5000.0
        assert manager.discards == 1
        assert manager.writebacks_issued == 0

    def test_discarded_dirty_page_refetches_the_file(self, world):
        """A discarded intermediate's dirty data is dropped, not parked
        for migrate-back: its re-fetch reads the file again."""
        kernel, server, manager = world
        seg = kernel.create_segment(4, name="tmp", manager=manager)
        server.create_file(seg, data=b"d" * 4096)
        manager.mark_discardable(seg)
        manager.access(seg, 0, now_us=0.0, write=True)
        seg.pages[0].write(b"scratch")
        manager.writeback_or_discard(seg, 0, now_us=5000.0)
        manager.prefetch(seg, 0, now_us=6000.0)
        assert seg.pages[0].read(0, 7) == b"ddddddd"
        assert manager.fast_reclaims == 0
