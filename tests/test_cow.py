"""Copy-on-write, end to end through the kernel and a manager."""

from __future__ import annotations

import pytest

from repro.core.api import MigratePagesRequest
from repro.core.faults import FaultKind
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import SystemPageCacheManager


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel)
    manager = GenericSegmentManager(kernel, spcm, "app", initial_frames=64)
    return kernel, manager


def fill_source(kernel, manager, text=b"original") -> object:
    source = kernel.create_segment(4, name="source", manager=manager)
    kernel.reference(source, 0, write=True)
    source.pages[0].write(text)
    return source


class TestCopyOnWrite:
    def test_read_shares_source_frame(self, world):
        kernel, manager = world
        source = fill_source(kernel, manager)
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        frame = kernel.reference(shadow, 0, write=False)
        assert frame is source.pages[0]
        assert shadow.resident_pages == 0  # nothing privatized

    def test_write_privatizes_with_kernel_copy(self, world):
        """'With a copy-on-write fault the kernel performs the copy after
        the manager has allocated a page' (S2.1)."""
        kernel, manager = world
        source = fill_source(kernel, manager, b"original")
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        frame = kernel.reference(shadow, 0, write=True)
        assert frame is not source.pages[0]
        assert frame.read(0, 8) == b"original"  # kernel copied
        assert kernel.stats.cow_copies == 1
        assert kernel.stats.faults_by_kind.get("COPY_ON_WRITE") == 1

    def test_writes_never_alter_the_source(self, world):
        kernel, manager = world
        source = fill_source(kernel, manager, b"original")
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        frame = kernel.reference(shadow, 0, write=True)
        frame.write(b"modified")
        assert source.pages[0].read(0, 8) == b"original"

    def test_reads_after_privatization_see_private_copy(self, world):
        kernel, manager = world
        source = fill_source(kernel, manager, b"original")
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        kernel.reference(shadow, 0, write=True)
        shadow.pages[0].write(b"modified")
        frame = kernel.reference(shadow, 0, write=False)
        assert frame.read(0, 8) == b"modified"

    def test_source_changes_visible_until_privatized(self, world):
        kernel, manager = world
        source = fill_source(kernel, manager, b"v1......")
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        assert kernel.reference(shadow, 0, write=False).read(0, 2) == b"v1"
        source.pages[0].write(b"v2")
        # still shared: the shadow sees the update
        assert kernel.reference(shadow, 0, write=False).read(0, 2) == b"v2"

    def test_shared_mapping_is_never_writable(self, world):
        kernel, manager = world
        source = fill_source(kernel, manager)
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        kernel.reference(shadow, 0, write=False)
        # the cached translation must not allow a silent write
        payload = kernel.tlb.lookup(shadow.seg_id, 0)
        assert payload is not None
        _, writable = payload
        assert not writable

    def test_cow_through_bound_address_space(self, world):
        """The Figure-1 shape: a VAS region bound to a COW image."""
        kernel, manager = world
        source = fill_source(kernel, manager, b"template")
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        vas = kernel.create_segment(8, name="vas")
        vas.bind(4, 4, shadow, 0)
        frame = kernel.reference(vas, 4 * 4096, write=True)
        assert frame.read(0, 8) == b"template"
        frame.write(b"mine....")
        assert source.pages[0].read(0, 8) == b"template"

    def test_private_page_is_dirty(self, world):
        kernel, manager = world
        source = fill_source(kernel, manager)
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        frame = kernel.reference(shadow, 0, write=True)
        assert PageFlags.DIRTY & PageFlags(frame.flags)

    def test_migrate_into_cow_segment_is_the_copy(self, world):
        """Migrating a frame to a COW-shared page privatizes it --- the
        migrate *is* the write (S2.1)."""
        kernel, manager = world
        source = fill_source(kernel, manager, b"original")
        shadow = kernel.create_segment(
            4, name="shadow", manager=manager, cow_source=source
        )
        boot = kernel.initial_segment
        page = next(p for p in sorted(boot.pages) if True)
        pfn = boot.pages[page].pfn
        kernel.migrate_pages(MigratePagesRequest(boot, shadow, page, 0, 1))
        frame = shadow.pages[0]
        assert frame.pfn == pfn
        assert frame.read(0, 8) == b"original"
        assert kernel.stats.cow_copies == 1
