"""The kernel: segment lifecycle, the four operations, conservation."""

from __future__ import annotations

import pytest

from repro.core.api import (
    BatchMigratePagesRequest,
    GetPageAttributesRequest,
    MigratePagesRequest,
    ModifyPageFlagsRequest,
    SetSegmentManagerRequest,
)
from repro.core.flags import ZERO_FILL_I, PageFlags
from repro.core.kernel import Kernel
from repro.core.manager_api import SegmentManager
from repro.errors import (
    MigrationError,
    ProtectionError,
    SegmentError,
)
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory


@pytest.fixture
def bare_kernel(memory) -> Kernel:
    return Kernel(memory)


class NullManager(SegmentManager):
    """A manager that records faults but resolves nothing."""

    def __init__(self, kernel):
        super().__init__(kernel, "null")
        self.faults = []

    def handle_fault(self, fault):
        self.faults.append(fault)


class TestBoot:
    def test_all_frames_in_boot_segment(self, bare_kernel, memory):
        boot = bare_kernel.initial_segment
        assert boot is not None
        assert boot.resident_pages == memory.n_frames
        # in order of physical address (S2.1)
        for page, frame in sorted(boot.pages.items()):
            assert frame.phys_addr == page * 4096

    def test_boot_segments_per_page_size(self):
        memory = PhysicalMemory(8 * 4096, large_pools={16384: 2})
        kernel = Kernel(memory)
        assert set(kernel.boot_segments) == {4096, 16384}
        assert kernel.boot_segments[16384].resident_pages == 2

    def test_conservation_at_boot(self, bare_kernel):
        bare_kernel.check_frame_conservation()


class TestSegmentLifecycle:
    def test_create_and_lookup(self, bare_kernel):
        seg = bare_kernel.create_segment(8, name="s")
        assert bare_kernel.segment(seg.seg_id) is seg
        assert seg in bare_kernel.segments()

    def test_unknown_segment(self, bare_kernel):
        with pytest.raises(SegmentError):
            bare_kernel.segment(999)

    def test_cow_source_page_size_must_match(self, bare_kernel):
        src = bare_kernel.create_segment(4)
        with pytest.raises(SegmentError):
            bare_kernel.create_segment(4, page_size=16384, cow_source=src)

    def test_delete_sweeps_frames_back(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4, name="dying")
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 0, 0, 2))
        before = boot.resident_pages
        bare_kernel.delete_segment(seg)
        assert boot.resident_pages == before + 2
        bare_kernel.check_frame_conservation()
        with pytest.raises(SegmentError):
            bare_kernel.segment(seg.seg_id)

    def test_delete_notifies_manager(self, bare_kernel):
        manager = NullManager(bare_kernel)
        seg = bare_kernel.create_segment(4, manager=manager)
        calls_before = bare_kernel.stats.manager_calls.get("null", 0)
        deleted = []
        manager.segment_deleted = lambda s: deleted.append(s)  # type: ignore[method-assign]
        bare_kernel.delete_segment(seg)
        assert deleted == [seg]
        assert bare_kernel.stats.manager_calls["null"] == calls_before + 1

    def test_double_delete_rejected(self, bare_kernel):
        seg = bare_kernel.create_segment(4)
        bare_kernel.delete_segment(seg)
        with pytest.raises(SegmentError):
            bare_kernel.delete_segment(seg)

    def test_delete_of_bound_target_refused(self, bare_kernel):
        """A segment still bound into an address space cannot vanish."""
        data = bare_kernel.create_segment(4, name="data")
        vas = bare_kernel.create_segment(8, name="vas")
        binding = vas.bind(0, 4, data, 0)
        with pytest.raises(SegmentError):
            bare_kernel.delete_segment(data)
        vas.unbind(binding)
        bare_kernel.delete_segment(data)  # fine once unbound

    def test_delete_of_cow_source_refused(self, bare_kernel):
        source = bare_kernel.create_segment(4, name="src")
        shadow = bare_kernel.create_segment(
            4, name="shadow", cow_source=source
        )
        with pytest.raises(SegmentError):
            bare_kernel.delete_segment(source)
        bare_kernel.delete_segment(shadow)
        bare_kernel.delete_segment(source)  # fine once the shadow is gone


class TestSetSegmentManager:
    def test_manager_assignment_and_tracking(self, bare_kernel):
        m1, m2 = NullManager(bare_kernel), NullManager(bare_kernel)
        m2.name = "null2"
        seg = bare_kernel.create_segment(4)
        bare_kernel.set_segment_manager(SetSegmentManagerRequest(seg, m1))
        assert seg.manager is m1
        assert seg.seg_id in m1.managed
        bare_kernel.set_segment_manager(SetSegmentManagerRequest(seg, m2))
        assert seg.seg_id not in m1.managed
        assert seg.seg_id in m2.managed

    def test_charges_meter(self, bare_kernel):
        seg = bare_kernel.create_segment(4)
        before = bare_kernel.meter.total_us
        bare_kernel.set_segment_manager(
            SetSegmentManagerRequest(seg, NullManager(bare_kernel))
        )
        assert bare_kernel.meter.total_us > before


class TestMigratePages:
    def test_moves_frames_and_updates_ownership(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(8)
        pfns = [boot.pages[10 + i].pfn for i in range(3)]
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 10, 2, 3))
        assert len(seg.pages) == 3
        for i, pfn in enumerate(pfns):
            frame = seg.pages[2 + i]
            assert frame.pfn == pfn
            assert frame.owner_segment_id == seg.seg_id
            assert frame.page_index == 2 + i
            assert 10 + i not in boot.pages
        bare_kernel.check_frame_conservation()

    def test_batch_enters_the_kernel_once(self, bare_kernel):
        """A two-run batch pays one full call and one marginal run, and
        counts one batch of two migrate calls."""
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4)
        meter = bare_kernel.meter
        before = meter.snapshot()
        bare_kernel.migrate_pages_batch(
            BatchMigratePagesRequest(
                (
                    MigratePagesRequest(boot, seg, 0, 0, 2),
                    MigratePagesRequest(boot, seg, 5, 2, 1),
                )
            )
        )
        costs = bare_kernel.costs
        assert meter.delta_since(before) == {
            "migrate_pages": costs.vpp_migrate_call
            + costs.vpp_migrate_batch_extra
        }
        stats = bare_kernel.stats
        assert (stats.migrate_batches, stats.migrate_calls) == (1, 2)
        assert stats.pages_migrated == 3
        assert sorted(seg.pages) == [0, 1, 2]

    def test_each_migrate_counts_fills_copies_and_placement(self, memory):
        """Zero-fills, COW copies and the local/remote split move by what
        each migrate did: a ZERO_FILL frame, a frame arriving at a
        still-shared COW page, and a frame landing off its home node."""
        kernel = Kernel(memory, topology=NumaTopology.for_memory(memory, 2))
        boot = kernel.initial_segment
        stats = kernel.stats
        source = kernel.create_segment(1, name="source")
        kernel.migrate_pages(MigratePagesRequest(boot, source, 0, 0, 1))
        shadow = kernel.create_segment(1, name="shadow", cow_source=source)
        plain = kernel.create_segment(2, name="plain")
        on_node_1 = memory.n_frames // 2

        counters = (
            "zero_fills", "cow_copies", "numa_local_pages", "numa_remote_pages"
        )

        def counts_moved_by(request):
            before = [getattr(stats, name) for name in counters]
            kernel.migrate_pages(request)
            return tuple(
                getattr(stats, name) - was
                for name, was in zip(counters, before)
            )

        boot.pages[1].flags |= ZERO_FILL_I
        assert counts_moved_by(
            MigratePagesRequest(boot, plain, 1, 0, 1, home_node=0)
        ) == (1, 0, 1, 0)
        assert counts_moved_by(
            MigratePagesRequest(boot, shadow, 2, 0, 1, home_node=0)
        ) == (0, 1, 1, 0)
        assert counts_moved_by(
            MigratePagesRequest(boot, plain, on_node_1, 1, 1, home_node=0)
        ) == (0, 0, 0, 1)
        assert kernel.meter.count("numa_remote_placement") == 1

    def test_flags_set_and_cleared(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4)
        boot.pages[0].flags = int(PageFlags.rw() | PageFlags.DIRTY)
        bare_kernel.migrate_pages(
            MigratePagesRequest(
                boot,
                seg,
                0,
                0,
                1,
                set_flags=PageFlags.REFERENCED,
                clear_flags=PageFlags.DIRTY,
            )
        )
        flags = PageFlags(seg.pages[0].flags)
        assert PageFlags.REFERENCED in flags
        assert PageFlags.DIRTY not in flags

    def test_source_page_must_be_backed(self, bare_kernel):
        a = bare_kernel.create_segment(4)
        b = bare_kernel.create_segment(4)
        with pytest.raises(MigrationError):
            bare_kernel.migrate_pages(MigratePagesRequest(a, b, 0, 0, 1))

    def test_destination_must_be_empty(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4)
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 0, 0, 1))
        with pytest.raises(MigrationError):
            bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 1, 0, 1))

    def test_validation_happens_before_mutation(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4)
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 0, 2, 1))  # occupy page 2
        with pytest.raises(MigrationError):
            bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 1, 1, 2))  # 2 collides
        assert 1 not in seg.pages  # nothing moved
        bare_kernel.check_frame_conservation()

    def test_page_size_mismatch(self):
        memory = PhysicalMemory(8 * 4096, large_pools={16384: 2})
        kernel = Kernel(memory)
        small = kernel.create_segment(4)
        big = kernel.create_segment(4, page_size=16384)
        with pytest.raises(MigrationError):
            kernel.migrate_pages(
                MigratePagesRequest(kernel.boot_segments[4096], big, 0, 0, 1)
            )
        with pytest.raises(MigrationError):
            kernel.migrate_pages(
                MigratePagesRequest(kernel.boot_segments[16384], small, 0, 0, 1)
            )

    def test_migration_into_read_only_segment_is_a_write(self, bare_kernel):
        """Migrating a frame to a segment is a write for protection (S2.1)."""
        ro = bare_kernel.create_segment(4, prot=PageFlags.READ)
        with pytest.raises(ProtectionError):
            bare_kernel.migrate_pages(
                MigratePagesRequest(bare_kernel.initial_segment, ro, 0, 0, 1)
            )

    def test_auto_grow_destination(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(0, auto_grow=True)
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 0, 5, 2))
        assert seg.n_pages == 7

    def test_zero_fill_flag_zeroes_in_transit(self, bare_kernel):
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4)
        frame = boot.pages[0]
        frame.write(b"secret")
        frame.flags |= int(PageFlags.ZERO_FILL)
        zero_charges = bare_kernel.meter.by_category.get("zero_fill", 0.0)
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 0, 0, 1))
        assert frame.read(0, 6) == bytes(6)
        assert not PageFlags.ZERO_FILL & PageFlags(frame.flags)
        assert bare_kernel.meter.by_category["zero_fill"] > zero_charges
        assert bare_kernel.stats.zero_fills == 1

    def test_no_zeroing_without_flag(self, bare_kernel):
        """V++ does not zero on same-user reallocation --- the 75us the
        paper saves over ULTRIX."""
        boot = bare_kernel.initial_segment
        seg = bare_kernel.create_segment(4)
        boot.pages[0].write(b"keep")
        bare_kernel.migrate_pages(MigratePagesRequest(boot, seg, 0, 0, 1))
        assert seg.pages[0].read(0, 4) == b"keep"
        assert bare_kernel.stats.zero_fills == 0

    def test_unsupported_flags_rejected(self, bare_kernel):
        seg = bare_kernel.create_segment(4)
        with pytest.raises(MigrationError):
            bare_kernel.migrate_pages(
                MigratePagesRequest(
                    bare_kernel.initial_segment,
                    seg,
                    0,
                    0,
                    1,
                    set_flags=PageFlags(1 << 12),
                )
            )

    def test_stats_and_attribution(self, system):
        """Each MigratePages counts; Table 3's per-module count goes to
        the invoking module: the manager for its fault handler's migrate,
        the SPCM for a grant, nobody for an unattributed call."""
        kernel, manager = system.kernel, system.default_manager
        stats = kernel.stats
        calls, pages = stats.migrate_calls, stats.pages_migrated
        by_module = dict(stats.migrate_calls_by_manager)
        seg = kernel.create_segment(8, manager=manager)
        kernel.reference(seg, 0, write=True)
        assert manager.request_frames(4) == 4
        boot = kernel.initial_segment
        home = boot.n_pages - 1
        assert home in boot.pages
        plain = kernel.create_segment(1)
        kernel.migrate_pages(MigratePagesRequest(boot, plain, home, 0, 1))

        def added(module):
            return stats.migrate_calls_by_manager.get(module, 0) - (
                by_module.get(module, 0)
            )

        assert added(manager.name) == 1
        assert added("SPCM") >= 1
        assert stats.migrate_calls - calls == added("SPCM") + 2
        assert stats.pages_migrated - pages == 1 + 4 + 1


class TestOnePageMigrate:
    """One page between two plain-dict segments with no COW source (every
    park and supply of the pressure path) moves without a range walk;
    errors, ZERO_FILL frames and COW destinations take the general path.
    Either way the outcome is the general path's."""

    @pytest.fixture
    def two(self, bare_kernel):
        a = bare_kernel.create_segment(4, name="a")
        b = bare_kernel.create_segment(4, name="b")
        bare_kernel.migrate_pages(
            MigratePagesRequest(bare_kernel.initial_segment, a, 0, 0, 4)
        )
        return bare_kernel, a, b

    def test_moves_the_frame_with_its_data_and_flags(self, two):
        kernel, a, b = two
        frame = a.pages[1]
        frame.write(b"data")
        frame.flags = int(PageFlags.rw() | PageFlags.REFERENCED | PageFlags.DIRTY)
        kernel.migrate_pages(
            MigratePagesRequest(
                a, b, 1, 3, 1, PageFlags.NONE,
                PageFlags.REFERENCED | PageFlags.DIRTY,
            )
        )
        assert 1 not in a.pages
        assert b.pages[3] is frame
        assert (frame.owner_segment_id, frame.page_index) == (b.seg_id, 3)
        assert PageFlags(frame.flags) == PageFlags.rw()
        assert frame.read(0, 4) == b"data"
        assert kernel.stats.pages_migrated == 5
        kernel.check_frame_conservation()

    def test_shoots_down_the_frames_translations(self, two):
        kernel, a, b = two
        kernel.reference(a, 2 * a.page_size)
        assert kernel.tlb.lookup(a.seg_id, 2) is not None
        kernel.migrate_pages(MigratePagesRequest(a, b, 2, 0, 1))
        assert kernel.tlb.lookup(a.seg_id, 2) is None
        assert kernel.page_table.lookup(a.seg_id, 2) is None

    @pytest.mark.parametrize("src_page, dst_page, n_pages", [(0, 1, 1), (0, 0, 2)])
    def test_backed_destination_refused_before_anything_moves(
        self, two, src_page, dst_page, n_pages
    ):
        kernel, a, b = two
        kernel.migrate_pages(MigratePagesRequest(a, b, 3, 1, 1))
        held = dict(a.pages)
        with pytest.raises(
            MigrationError, match="destination page 1 of b is already backed"
        ):
            kernel.migrate_pages(
                MigratePagesRequest(a, b, src_page, dst_page, n_pages)
            )
        assert a.pages == held
        assert sorted(b.pages) == [1]
        kernel.check_frame_conservation()

    @pytest.mark.parametrize("src_page, n_pages", [(3, 1), (2, 2)])
    def test_missing_source_refused_before_anything_moves(
        self, two, src_page, n_pages
    ):
        kernel, a, b = two
        kernel.migrate_pages(MigratePagesRequest(a, b, 3, 3, 1))
        with pytest.raises(MigrationError, match="source page 3 of a has no frame"):
            kernel.migrate_pages(MigratePagesRequest(a, b, src_page, 0, n_pages))
        assert sorted(a.pages) == [0, 1, 2]
        assert sorted(b.pages) == [3]

    def test_missing_source_is_reported_before_a_backed_destination(self, two):
        kernel, a, b = two
        kernel.migrate_pages(MigratePagesRequest(a, b, 3, 0, 1))
        with pytest.raises(MigrationError, match="source page 3 of a"):
            kernel.migrate_pages(MigratePagesRequest(a, b, 3, 0, 1))

    def test_zero_fill_frame_is_zeroed_in_transit(self, two):
        kernel, a, b = two
        frame = a.pages[0]
        frame.write(b"secret")
        frame.flags |= ZERO_FILL_I
        kernel.migrate_pages(MigratePagesRequest(a, b, 0, 0, 1))
        assert b.pages[0] is frame
        assert frame.read(0, 6) == bytes(6)
        assert not frame.flags & ZERO_FILL_I
        assert kernel.stats.zero_fills == 1

    def test_cow_destination_takes_a_copy(self, two):
        kernel, a, b = two
        a.pages[0].write(b"shared")
        shadow = kernel.create_segment(4, name="shadow", cow_source=a)
        kernel.migrate_pages(MigratePagesRequest(a, shadow, 1, 0, 1))
        assert shadow.pages[0].read(0, 6) == b"shared"
        assert PageFlags.DIRTY & PageFlags(shadow.pages[0].flags)
        assert kernel.stats.cow_copies == 1


class TestModifyPageFlags:
    def test_modifies_present_pages_only(self, bare_kernel):
        seg = bare_kernel.create_segment(8)
        bare_kernel.migrate_pages(
            MigratePagesRequest(bare_kernel.initial_segment, seg, 0, 0, 2)
        )
        result = bare_kernel.modify_page_flags(
            ModifyPageFlagsRequest(seg, 0, 8, set_flags=PageFlags.PINNED)
        )
        assert result.modified == 2
        assert PageFlags.PINNED & PageFlags(seg.pages[0].flags)

    def test_rejects_unsupported_flags(self, bare_kernel):
        seg = bare_kernel.create_segment(4)
        with pytest.raises(SegmentError):
            bare_kernel.modify_page_flags(
                ModifyPageFlagsRequest(seg, 0, 1, set_flags=PageFlags(1 << 12))
            )

    def test_range_checked(self, bare_kernel):
        seg = bare_kernel.create_segment(4)
        with pytest.raises(SegmentError):
            bare_kernel.modify_page_flags(ModifyPageFlagsRequest(seg, 2, 4))


class TestGetPageAttributes:
    def test_reports_presence_flags_and_physical_address(self, bare_kernel):
        """Physical addresses are exported deliberately --- they enable
        page coloring and placement control (S1)."""
        seg = bare_kernel.create_segment(4)
        bare_kernel.migrate_pages(
            MigratePagesRequest(bare_kernel.initial_segment, seg, 3, 1, 1)
        )
        attrs = bare_kernel.get_page_attributes(
            GetPageAttributesRequest(seg, 0, 3)
        ).attributes
        assert [a.page for a in attrs] == [0, 1, 2]
        assert not attrs[0].present and attrs[0].pfn is None
        assert attrs[1].present
        assert attrs[1].pfn == seg.pages[1].pfn
        assert attrs[1].phys_addr == seg.pages[1].phys_addr
        assert bare_kernel.stats.get_attributes_calls == 1
