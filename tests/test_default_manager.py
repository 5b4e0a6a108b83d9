"""The default segment manager (the extended UCDS)."""

from __future__ import annotations

import pytest

from repro.core.flags import PageFlags
from repro.core.manager_api import InvocationMode


class TestInvocation:
    def test_runs_as_separate_process(self, system):
        assert (
            system.default_manager.invocation
            is InvocationMode.SEPARATE_PROCESS
        )

    def test_fault_cost_is_379us(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(4, manager=system.default_manager)
        snap = kernel.meter.snapshot()
        kernel.reference(seg, 0, write=True)
        assert sum(kernel.meter.delta_since(snap).values()) == 379.0


class TestFilePaging:
    def make_file(self, system, data):
        seg = system.kernel.create_segment(
            0, name="file", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=data)
        return seg

    def test_fill_fetches_file_data(self, system):
        data = b"filedata" * 512  # one page
        seg = self.make_file(system, data)
        assert system.uio.read(seg, 0, len(data)) == data

    def test_writeback_on_reclaim(self, system):
        seg = self.make_file(system, b"v0" * 2048)
        system.uio.write(seg, 0, b"v1" * 2048)
        system.default_manager.reclaim_one(seg, 0)
        system.default_manager.invalidate_reclaim_cache()
        assert system.default_manager.writebacks == 1
        # page back in from the server: sees the written data
        assert system.uio.read(seg, 0, 4, ) == b"v1v1"

    def test_anonymous_pages_have_no_writeback(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(4, manager=system.default_manager)
        kernel.reference(seg, 0, write=True)
        system.default_manager.reclaim_one(seg, 0)
        assert system.default_manager.writebacks == 0

    def test_file_close_writes_back_dirty_pages(self, system):
        seg = self.make_file(system, b"a" * 4096)
        system.uio.write(seg, 0, b"b" * 4096)
        system.default_manager.file_closed(seg)
        assert system.default_manager.writebacks == 1
        assert system.file_server.fetch_page(seg, 0) == b"b" * 4096
        # DIRTY cleared after writeback
        assert not PageFlags.DIRTY & PageFlags(seg.pages[0].flags)

    def test_store_after_close_is_written_back_at_next_close(self, system):
        """Writeback clears DIRTY; a later store through a translation
        must dirty the page again, or the next close would skip it."""
        kernel, manager = system.kernel, system.default_manager
        seg = self.make_file(system, b"a" * 4096)
        kernel.reference(seg, 0, write=True)
        manager.file_closed(seg)
        assert manager.writebacks == 1
        frame = kernel.reference(seg, 0, write=True)
        frame.write(b"c" * 4096)
        assert PageFlags.DIRTY & PageFlags(frame.flags)
        manager.file_closed(seg)
        assert manager.writebacks == 2
        assert system.file_server.fetch_page(seg, 0) == b"c" * 4096

    def test_open_close_count_as_manager_calls(self, system):
        kernel = system.kernel
        seg = self.make_file(system, b"")
        calls = kernel.stats.manager_calls.get("default-manager", 0)
        system.default_manager.file_opened(seg)
        system.default_manager.file_closed(seg)
        assert kernel.stats.manager_calls["default-manager"] == calls + 2


class TestAppendAllocation:
    def test_append_alignment(self, system):
        """Appends allocate 16 KB (4-page) aligned units."""
        seg = system.kernel.create_segment(
            0, name="out", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg)
        system.uio.write(seg, 0, b"x" * 4096)
        assert sorted(seg.pages) == [0, 1, 2, 3]
        assert system.default_manager.append_allocations == 1

    def test_single_migrate_per_append_unit(self, system):
        seg = system.kernel.create_segment(
            0, name="out", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg)
        migrates = system.kernel.stats.migrate_calls_by_manager.get(
            "default-manager", 0
        )
        system.uio.write(seg, 0, b"x" * 4096)
        assert (
            system.kernel.stats.migrate_calls_by_manager["default-manager"]
            == migrates + 1
        )

    def test_overwrite_below_eof_is_not_an_append(self, system):
        seg = system.kernel.create_segment(
            0, name="out", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"z" * (8 * 4096))
        appends = system.default_manager.append_allocations
        system.uio.write(seg, 0, b"y" * 4096)
        assert system.default_manager.append_allocations == appends


class TestWorkingSetRebalance:
    def test_rebalance_reclaims_from_slack_segments(self, system):
        kernel = system.kernel
        manager = system.default_manager
        hot = kernel.create_segment(8, name="hot", manager=manager)
        cold = kernel.create_segment(8, name="cold", manager=manager)
        for page in range(8):
            kernel.reference(hot, page * 4096)
            kernel.reference(cold, page * 4096)
        manager.sampler.begin_interval([hot, cold])
        for page in range(8):  # only hot is touched this interval
            kernel.reference(hot, page * 4096)
        freed = manager.rebalance([hot, cold], frames_to_free=4)
        assert freed == 4
        assert cold.resident_pages < 8
        assert hot.resident_pages == 8
