"""The reference path: TLB, page table, fault dispatch, dirty tracking."""

from __future__ import annotations

import pytest

from repro.core.api import MigratePagesRequest, ModifyPageFlagsRequest
from repro.core.faults import FaultKind
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.core.manager_api import InvocationMode, SegmentManager
from repro.errors import (
    NoManagerError,
    SegmentError,
    UnresolvedFaultError,
)
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel)
    manager = GenericSegmentManager(kernel, spcm, "app", initial_frames=64)
    return kernel, spcm, manager


class TestFaultDispatch:
    def test_missing_page_fault_fills_page(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        assert seg.pages[0] is frame
        assert kernel.stats.faults == 1
        assert kernel.stats.faults_by_kind["MISSING_PAGE"] == 1

    def test_no_manager_raises(self, world):
        kernel, _, _ = world
        seg = kernel.create_segment(8)
        with pytest.raises(NoManagerError):
            kernel.reference(seg, 0)

    def test_unresolved_fault_raises_after_retries(self, world):
        kernel, _, _ = world

        class LazyManager(SegmentManager):
            def handle_fault(self, fault):
                pass  # never resolves anything

        seg = kernel.create_segment(8, manager=LazyManager(kernel, "lazy"))
        with pytest.raises(UnresolvedFaultError):
            kernel.reference(seg, 0)

    def test_address_bounds_checked(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(2, manager=manager)
        with pytest.raises(SegmentError):
            kernel.reference(seg, 2 * 4096)
        with pytest.raises(SegmentError):
            kernel.reference(seg, -1)

    def test_manager_call_counted(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0)
        assert kernel.stats.manager_calls["app"] == 1


class TestFaultCosts:
    def test_in_process_fault_costs_107us(self, world):
        kernel, _, manager = world
        assert manager.invocation is InvocationMode.IN_PROCESS
        seg = kernel.create_segment(8, manager=manager)
        snap = kernel.meter.snapshot()
        kernel.reference(seg, 0, write=True)
        assert sum(kernel.meter.delta_since(snap).values()) == 107.0

    def test_separate_process_fault_costs_379us(self, world):
        kernel, spcm, _ = world

        class ServerManager(GenericSegmentManager):
            invocation = InvocationMode.SEPARATE_PROCESS

        server = ServerManager(kernel, spcm, "server", initial_frames=16)
        seg = kernel.create_segment(8, manager=server)
        snap = kernel.meter.snapshot()
        kernel.reference(seg, 0, write=True)
        assert sum(kernel.meter.delta_since(snap).values()) == 379.0


class TestTranslationCaching:
    def test_repeat_access_hits_tlb_free_of_charge(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=True)
        before = kernel.meter.total_us
        hits_before = kernel.tlb.stats.hits
        kernel.reference(seg, 0, write=True)
        assert kernel.meter.total_us == before
        assert kernel.tlb.stats.hits == hits_before + 1

    def test_tlb_eviction_falls_back_to_page_table(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(128, manager=manager)
        for page in range(80):  # overflow the 64-entry TLB
            kernel.reference(seg, page * 4096, write=True)
        refills_before = kernel.meter.counts.get("tlb_refill", 0)
        faults_before = kernel.stats.faults
        kernel.reference(seg, 0, write=True)  # evicted from TLB, in PT
        assert kernel.meter.counts.get("tlb_refill", 0) == refills_before + 1
        assert kernel.stats.faults == faults_before


class TestDirtyTracking:
    def test_read_first_then_write_sets_dirty_exactly(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=False)
        assert not PageFlags.DIRTY & PageFlags(frame.flags)
        kernel.reference(seg, 0, write=True)
        assert PageFlags.DIRTY & PageFlags(frame.flags)

    def test_write_install_is_not_a_manager_fault(self, world):
        """First store to a clean writable page re-enters the kernel but
        is resolved without the manager."""
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=False)
        faults = kernel.stats.faults
        kernel.reference(seg, 0, write=True)
        assert kernel.stats.faults == faults

    def test_referenced_set_on_access(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=False)
        assert PageFlags.REFERENCED & PageFlags(frame.flags)

    def test_store_after_clearing_dirty_sets_it_again(self, world):
        """A manager that clears DIRTY (writeback) must see the next
        store: clearing it shoots down the writable translation."""
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        kernel.modify_page_flags(
            ModifyPageFlagsRequest(seg, 0, clear_flags=PageFlags.DIRTY)
        )
        assert kernel.tlb.lookup(seg.seg_id, 0) is None
        assert kernel.page_table.lookup(seg.seg_id, 0) is None
        faults = kernel.stats.faults
        kernel.reference(seg, 0, write=True)
        assert frame.flags == int(
            PageFlags.READ
            | PageFlags.WRITE
            | PageFlags.REFERENCED
            | PageFlags.DIRTY
        )
        # the store re-entered the kernel without a manager fault
        assert kernel.stats.faults == faults


class TestProtectionFaults:
    def test_revoked_access_faults_to_manager(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=True)
        kernel.modify_page_flags(
            ModifyPageFlagsRequest(
                seg, 0, clear_flags=PageFlags.READ | PageFlags.WRITE
            )
        )
        faults = kernel.stats.faults
        kernel.reference(seg, 0, write=False)  # default manager restores
        assert kernel.stats.faults == faults + 1
        assert kernel.stats.faults_by_kind["PROTECTION"] == 1

    def test_translation_shootdown_on_revoke(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=True)
        kernel.modify_page_flags(
            ModifyPageFlagsRequest(seg, 0, clear_flags=PageFlags.WRITE)
        )
        assert kernel.tlb.lookup(seg.seg_id, 0) is None

    def test_binding_mask_protection_fault(self, world):
        kernel, _, manager = world
        data = kernel.create_segment(8, manager=manager)
        vas = kernel.create_segment(8)
        vas.bind(0, 8, data, 0, prot_mask=PageFlags.READ)
        kernel.reference(vas, 0, write=False)  # fills via manager
        with pytest.raises(UnresolvedFaultError):
            # the manager restores page flags but the binding mask still
            # forbids writes, so the fault persists
            kernel.reference(vas, 0, write=True)


class TestMigrationShootdown:
    def test_migrating_a_mapped_frame_invalidates_translations(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(8, manager=manager)
        frame = kernel.reference(seg, 0, write=True)
        spare = kernel.create_segment(8)
        kernel.migrate_pages(MigratePagesRequest(seg, spare, 0, 0, 1))
        assert kernel.tlb.lookup(seg.seg_id, 0) is None
        assert kernel.page_table.lookup(seg.seg_id, 0) is None
        # next access faults and the manager provides a fresh frame
        faults = kernel.stats.faults
        new_frame = kernel.reference(seg, 0, write=True)
        assert kernel.stats.faults == faults + 1
        assert new_frame is not frame
