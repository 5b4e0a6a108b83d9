"""The ULTRIX baseline: in-kernel policy, zero-fill, limited control."""

from __future__ import annotations

import pytest

from repro.baseline.ultrix_vm import ULTRIX_IO_UNIT, UltrixVM
from repro.core.flags import PageFlags
from repro.errors import ProtectionError, SegmentError
from repro.hw.phys_mem import PhysicalMemory


@pytest.fixture
def vm(memory):
    return UltrixVM(memory)


class TestKernelFaults:
    def test_fault_costs_175us(self, vm):
        space = vm.create_space(8)
        before = vm.meter.total_us
        vm.reference(space, 0, write=True)
        assert vm.meter.total_us - before == 175.0

    def test_every_allocation_is_zero_filled(self, vm):
        """The security zeroing V++ avoids for same-user frames."""
        space = vm.create_space(8)
        vm.reference(space, 0)
        vm.reference(space, 4096)
        assert vm.stats.zero_fills == 2
        assert space.pages[0].read(0, 16) == bytes(16)

    def test_repeat_access_does_not_refault(self, vm):
        space = vm.create_space(8)
        vm.reference(space, 0)
        faults = vm.stats.faults
        vm.reference(space, 0)
        vm.reference(space, 100)  # same page
        assert vm.stats.faults == faults

    def test_address_bounds(self, vm):
        space = vm.create_space(2)
        with pytest.raises(SegmentError):
            vm.reference(space, 2 * 4096)

    def test_dirty_and_referenced_maintained(self, vm):
        space = vm.create_space(2)
        frame = vm.reference(space, 0, write=True)
        flags = PageFlags(frame.flags)
        assert PageFlags.DIRTY in flags and PageFlags.REFERENCED in flags

    def test_boot_makes_no_frame_objects(self):
        """The free list holds pfns: a frame is made on first use only."""
        memory = PhysicalMemory(64 * 1024 * 1024)
        vm = UltrixVM(memory)
        assert memory.made == {}
        space = vm.create_space(2)
        frame = vm.reference(space, 0, write=True)
        assert list(memory.made) == [frame.pfn]
        # the highest pfn goes first, as when the list held frame objects
        assert frame.pfn == memory.n_frames - 1

    def test_destroy_space_frees_frames(self, vm):
        space = vm.create_space(8)
        for page in range(4):
            vm.reference(space, page * 4096)
        free_before = len(vm._free)
        vm.destroy_space(space)
        assert len(vm._free) == free_before + 4


class TestReclamation:
    def test_kernel_reclaims_invisibly(self):
        vm = UltrixVM(PhysicalMemory(8 * 4096))
        space = vm.create_space(16)
        for page in range(8):
            vm.reference(space, page * 4096)
        vm.reference(space, 8 * 4096)  # forces reclaim
        assert vm.stats.reclaimed_pages > 0

    def test_dirty_reclaim_pays_pageout(self):
        vm = UltrixVM(PhysicalMemory(8 * 4096))
        space = vm.create_space(16)
        for page in range(8):
            vm.reference(space, page * 4096, write=True)
        vm.reference(space, 8 * 4096)
        assert vm.stats.pageouts > 0

    def test_pinned_pages_survive_reclaim(self):
        vm = UltrixVM(PhysicalMemory(8 * 4096))
        space = vm.create_space(16)
        vm.reference(space, 0)
        vm.mpin(space, 0, 1)
        for page in range(1, 9):
            vm.reference(space, page * 4096)
        assert 0 in space.pages


class TestUserLevelFaults:
    def test_signal_mprotect_path_costs_152us(self, vm):
        space = vm.create_space(4)
        vm.reference(space, 0)

        def handler(vm_, space_, vpn, write):
            vm_.mprotect(space_, vpn, 1, PageFlags.READ | PageFlags.WRITE)

        vm.set_user_handler(space, handler)
        vm.mprotect(space, 0, 1, PageFlags.NONE)
        before = vm.meter.total_us
        vm.reference(space, 0)
        assert vm.meter.total_us - before == 152.0
        assert vm.stats.protection_signals == 1

    def test_no_handler_raises(self, vm):
        space = vm.create_space(4)
        vm.reference(space, 0)
        vm.mprotect(space, 0, 1, PageFlags.NONE)
        with pytest.raises(ProtectionError):
            vm.reference(space, 0)

    def test_handler_must_restore_access(self, vm):
        space = vm.create_space(4)
        vm.reference(space, 0)
        vm.set_user_handler(space, lambda *a: None)
        vm.mprotect(space, 0, 1, PageFlags.NONE)
        with pytest.raises(ProtectionError):
            vm.reference(space, 0)

    def test_mprotect_bounds(self, vm):
        space = vm.create_space(4)
        with pytest.raises(SegmentError):
            vm.mprotect(space, 3, 2, PageFlags.READ)


class TestConventionalControl:
    def test_pin_quota_is_system_wide(self):
        vm = UltrixVM(PhysicalMemory(64 * 4096), pin_quota=4)
        a, b = vm.create_space(8), vm.create_space(8)
        assert vm.mpin(a, 0, 3) == 3
        assert vm.mpin(b, 0, 3) == 1  # quota exhausted across spaces
        vm.munpin(a, 0, 3)
        assert vm.mpin(b, 3, 3) == 3

    def test_madvise_changes_nothing(self, vm):
        """The paper's complaint: advice is accepted and ignored."""
        space = vm.create_space(8)
        vm.reference(space, 0)
        vm.madvise(space, 0, 8, "WILLNEED")
        assert vm.stats.madvise_calls == 1
        assert space.pages.keys() == {0}  # nothing prefetched


class TestFileIO:
    def test_cached_read_costs_211us(self, vm):
        vm.create_file("f", data=b"x" * 4096)
        vm.cache_file("f")
        before = vm.meter.total_us
        assert vm.read("f", 0, 4096) == b"x" * 4096
        assert vm.meter.total_us - before == 211.0

    def test_cached_write_costs_311us(self, vm):
        vm.create_file("f", data=b"x" * 4096)
        vm.cache_file("f")
        before = vm.meter.total_us
        vm.write("f", 0, b"y" * 4096)
        assert vm.meter.total_us - before == 311.0

    def test_uncached_read_pays_disk(self, vm):
        vm.create_file("f", data=b"x" * 4096)
        before = vm.meter.total_us
        vm.read("f", 0, 4096)
        assert vm.meter.total_us - before > 1000.0
        assert vm.stats.pageins == 1
        # second read is cached
        before = vm.meter.total_us
        vm.read("f", 0, 4096)
        assert vm.meter.total_us - before == 211.0

    def test_write_extends_file(self, vm):
        vm.create_file("f")
        vm.write("f", 0, b"abc")
        vm.write("f", 3, b"def")
        assert vm.read("f", 0, 6) == b"abcdef"

    def test_read_clamps_at_eof(self, vm):
        vm.create_file("f", data=b"short")
        assert vm.read("f", 0, 100) == b"short"
        assert vm.read("f", 10, 5) == b""

    def test_io_unit_is_8kb(self):
        assert ULTRIX_IO_UNIT == 8192

    def test_duplicate_file_rejected(self, vm):
        vm.create_file("f")
        with pytest.raises(SegmentError):
            vm.create_file("f")
