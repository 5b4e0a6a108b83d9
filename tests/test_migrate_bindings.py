"""MigratePages through bound regions (S2.1)."""

from __future__ import annotations

import pytest

from repro.core.api import MigratePagesRequest
from repro.core.kernel import Kernel
from repro.errors import MigrationError


@pytest.fixture
def world(memory):
    kernel = Kernel(memory)
    data = kernel.create_segment(8, name="data")
    vas = kernel.create_segment(32, name="vas")
    vas.bind(16, 8, data, 0)
    return kernel, vas, data


class TestMigrateThroughBindings:
    def test_migrating_to_a_vas_range_lands_in_the_bound_segment(self, world):
        """'Migrating a page frame to the address range corresponding to
        the data region ... effectively migrates the page frame to the
        segment labeled Data Segment.'"""
        kernel, vas, data = world
        boot = kernel.initial_segment
        pfn = boot.pages[0].pfn
        kernel.migrate_pages(MigratePagesRequest(boot, vas, 0, 18, 1))
        assert 18 not in vas.pages           # the VAS holds nothing itself
        # page 18 - 16 = 2 of data
        assert data.pages[2].pfn == pfn
        kernel.check_frame_conservation()

    def test_reclaiming_from_a_vas_range(self, world):
        kernel, vas, data = world
        boot = kernel.initial_segment
        kernel.migrate_pages(MigratePagesRequest(boot, data, 0, 2, 1))
        spare = kernel.create_segment(4, name="spare")
        kernel.migrate_pages(MigratePagesRequest(vas, spare, 18, 0, 1))
        assert 2 not in data.pages
        assert 0 in spare.pages

    def test_multi_page_unit_through_binding(self, world):
        kernel, vas, data = world
        boot = kernel.initial_segment
        kernel.migrate_pages(MigratePagesRequest(boot, vas, 0, 16, 4))
        assert sorted(data.pages) == [0, 1, 2, 3]

    def test_range_straddling_the_region_boundary_rejected(self, world):
        kernel, vas, data = world
        boot = kernel.initial_segment
        with pytest.raises(MigrationError):
            kernel.migrate_pages(
                MigratePagesRequest(boot, vas, 0, 22, 4)  # crosses page 24
            )
        kernel.check_frame_conservation()

    def test_unbound_vas_range_is_the_vas_itself(self, world):
        kernel, vas, data = world
        boot = kernel.initial_segment
        kernel.migrate_pages(
            MigratePagesRequest(boot, vas, 0, 0, 1)  # below the binding
        )
        assert 0 in vas.pages
        assert data.resident_pages == 0

    def test_nested_bindings_resolve_transitively(self, memory):
        kernel = Kernel(memory)
        leaf = kernel.create_segment(4, name="leaf")
        mid = kernel.create_segment(8, name="mid")
        top = kernel.create_segment(8, name="top")
        mid.bind(4, 4, leaf, 0)
        top.bind(0, 4, mid, 4)
        kernel.migrate_pages(
            MigratePagesRequest(kernel.initial_segment, top, 0, 1, 1)
        )
        assert leaf.pages.keys() == {1}

    def test_cow_via_binding_still_copies(self, memory):
        """Migrate-as-write holds through a binding onto a COW shadow."""
        kernel = Kernel(memory)
        source = kernel.create_segment(4, name="src")
        boot = kernel.initial_segment
        kernel.migrate_pages(MigratePagesRequest(boot, source, 0, 0, 1))
        source.pages[0].write(b"cowdata")
        shadow = kernel.create_segment(4, name="shadow", cow_source=source)
        vas = kernel.create_segment(8, name="vas")
        vas.bind(0, 4, shadow, 0)
        kernel.migrate_pages(MigratePagesRequest(boot, vas, 1, 0, 1))
        assert shadow.pages[0].read(0, 7) == b"cowdata"
        assert kernel.stats.cow_copies == 1
