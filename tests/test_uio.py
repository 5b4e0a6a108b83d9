"""The UIO block interface and the file server."""

from __future__ import annotations

import pytest

from repro import build_system
from repro.core.uio import pages_for_bytes
from repro.errors import UIOError


@pytest.fixture
def world(system):
    kernel = system.kernel
    seg = kernel.create_segment(
        0, name="f", manager=system.default_manager, auto_grow=True
    )
    return system, seg


class TestPagesForBytes:
    def test_rounding(self):
        assert pages_for_bytes(0, 4096) == 0
        assert pages_for_bytes(1, 4096) == 1
        assert pages_for_bytes(4096, 4096) == 1
        assert pages_for_bytes(4097, 4096) == 2


class TestFileServer:
    def test_create_and_fetch_roundtrip(self, world):
        system, seg = world
        data = bytes(range(256)) * 32  # 8 KB
        system.file_server.create_file(seg, data=data)
        page0 = system.file_server.fetch_page(seg, 0)
        page1 = system.file_server.fetch_page(seg, 1)
        assert page0 + page1 == data

    def test_fetch_past_eof_is_zero(self, world):
        system, seg = world
        system.file_server.create_file(seg, data=b"x" * 100)
        assert system.file_server.fetch_page(seg, 5) == bytes(4096)

    def test_double_registration_rejected(self, world):
        system, seg = world
        system.file_server.create_file(seg)
        with pytest.raises(UIOError):
            system.file_server.create_file(seg)

    def test_non_file_rejected(self, world):
        system, _ = world
        other = system.kernel.create_segment(2)
        with pytest.raises(UIOError):
            system.file_server.file_for(other)
        assert system.file_server.lookup(other) is None

    def test_store_page_extends_size(self, world):
        system, seg = world
        file = system.file_server.create_file(seg, data=b"x" * 4096)
        system.file_server.store_page(seg, 3, b"y" * 4096)
        assert file.size_bytes == 4 * 4096
        assert system.file_server.fetch_page(seg, 3) == b"y" * 4096

    def test_store_requires_full_page(self, world):
        system, seg = world
        system.file_server.create_file(seg)
        with pytest.raises(UIOError):
            system.file_server.store_page(seg, 0, b"short")

    def test_fetch_charges_device_time(self, world):
        system, seg = world
        system.file_server.create_file(seg, data=b"x" * 4096)
        before = system.kernel.meter.by_category.get("file_server", 0.0)
        system.file_server.fetch_page(seg, 0)
        assert system.kernel.meter.by_category["file_server"] > before


class TestFileGrowth:
    def test_growth_past_the_extent_keeps_the_next_files_blocks(self):
        """A file written past its disk reservation (its initial pages
        plus 64 blocks) gets blocks of its own, not the next file's."""
        system = build_system(memory_mb=8)
        kernel, fs, uio = system.kernel, system.file_server, system.uio
        manager = system.default_manager
        log = kernel.create_segment(
            0, name="a.log", manager=manager, auto_grow=True
        )
        fs.create_file(log)
        dat = kernel.create_segment(
            0, name="b.dat", manager=manager, auto_grow=True
        )
        b_data = bytes(range(256)) * 64  # 16 KB
        assert fs.create_file(dat, data=b_data).start_block == 65
        for page in range(80):
            uio.write(log, page * 4096, bytes([page + 1]) * 4096)
        manager.file_closed(log, writeback=True)
        assert uio.read(dat, 0, len(b_data)) == b_data
        # the log's pages past its extent come back from their own blocks
        for page in (64, 65, 79):
            assert fs.fetch_page(log, page) == bytes([page + 1]) * 4096


class TestUIORead:
    def test_read_faults_in_uncached_pages(self, world):
        system, seg = world
        data = b"abcd" * 2048  # 8 KB
        system.file_server.create_file(seg, data=data)
        assert seg.resident_pages == 0
        got = system.uio.read(seg, 0, len(data))
        assert got == data
        assert seg.resident_pages == 2

    def test_read_clamps_at_eof(self, world):
        system, seg = world
        system.file_server.create_file(seg, data=b"hello")
        assert system.uio.read(seg, 0, 100) == b"hello"
        assert system.uio.read(seg, 3, 100) == b"lo"
        assert system.uio.read(seg, 5, 10) == b""

    def test_cached_4kb_read_costs_222us(self, world):
        system, seg = world
        system.file_server.create_file(seg, data=b"x" * 4096)
        system.uio.read(seg, 0, 4096)  # warm
        snap = system.kernel.meter.snapshot()
        system.uio.read(seg, 0, 4096)
        assert sum(system.kernel.meter.delta_since(snap).values()) == 222.0

    def test_unaligned_read_spans_pages(self, world):
        system, seg = world
        data = bytes(range(256)) * 64  # 16 KB
        system.file_server.create_file(seg, data=data)
        got = system.uio.read(seg, 4000, 1000)
        assert got == data[4000:5000]

    def test_negative_range_rejected(self, world):
        system, seg = world
        system.file_server.create_file(seg)
        with pytest.raises(UIOError):
            system.uio.read(seg, -1, 10)
        with pytest.raises(UIOError):
            system.uio.read(seg, 0, -10)


class TestUIOFaultListeners:
    """A read or write that finds no frame is one fault service, seen by
    the kernel's ``on_fault_serviced`` listeners like a reference's."""

    def test_each_faulted_page_notifies_once(self, world):
        system, seg = world
        kernel = system.kernel
        system.file_server.create_file(seg, data=b"r" * 8 * 4096)
        seen = []
        kernel.on_fault_serviced(lambda *fault: seen.append(fault))
        faults = kernel.stats.faults
        system.uio.read(seg, 0, 8 * 4096)
        assert kernel.stats.faults - faults == 8
        assert [(s, vpn, w) for s, vpn, w, _, _ in seen] == [
            (seg, page, False) for page in range(8)
        ]
        assert [pfn for *_, pfn in seen] == [
            seg.pages[page].pfn for page in range(8)
        ]
        assert all(latency > 0 for _, _, _, latency, _ in seen)
        system.uio.read(seg, 0, 8 * 4096)  # cached: no fault, no call
        assert len(seen) == 8

    def test_latency_is_the_fault_service_cost(self, world):
        """The latency covers the fault service only: the read's own
        UIO call, lookup and copy charges are outside it."""
        system, seg = world
        kernel = system.kernel
        system.file_server.create_file(seg, data=b"c" * 4096)
        seen = []
        kernel.on_fault_serviced(lambda *fault: seen.append(fault[3]))
        before = kernel.meter.total_us
        system.uio.read(seg, 0, 4096)
        read_cost = kernel.meter.total_us - before
        assert seen == [read_cost - 222.0]

    def test_append_fault_notifies_as_a_write(self, world):
        system, seg = world
        kernel = system.kernel
        system.file_server.create_file(seg)
        seen = []
        kernel.on_fault_serviced(lambda *fault: seen.append(fault))
        for off in range(0, 8 * 4096, 4096):
            system.uio.write(seg, off, b"w" * 4096)
        # two 16 KB append units: one fault each
        assert [(s, vpn, w) for s, vpn, w, _, _ in seen] == [
            (seg, 0, True),
            (seg, 4, True),
        ]


class TestUIOWrite:
    def test_write_then_read_roundtrip(self, world):
        system, seg = world
        system.file_server.create_file(seg)
        payload = b"The quick brown fox" * 300  # ~5.7 KB
        system.uio.write(seg, 0, payload)
        assert system.uio.read(seg, 0, len(payload)) == payload

    def test_cached_4kb_write_costs_203us(self, world):
        system, seg = world
        system.file_server.create_file(seg, data=b"x" * 4096)
        system.uio.read(seg, 0, 4096)  # warm
        snap = system.kernel.meter.snapshot()
        system.uio.write(seg, 0, b"y" * 4096)
        assert sum(system.kernel.meter.delta_since(snap).values()) == 203.0

    def test_append_grows_file_and_segment(self, world):
        system, seg = world
        file = system.file_server.create_file(seg)
        system.uio.write(seg, 0, b"a" * 4096)
        system.uio.write(seg, 4096, b"b" * 4096)
        assert file.size_bytes == 8192
        assert seg.n_pages >= 2

    def test_append_uses_16kb_units(self, world):
        """The default manager allocates appends in 16 KB units (S3.2)."""
        system, seg = world
        system.file_server.create_file(seg)
        calls_before = system.default_manager.append_allocations
        for off in range(0, 16 * 4096, 4096):
            system.uio.write(seg, off, b"z" * 4096)
        # 16 pages appended in 4 allocations of 4 pages
        assert system.default_manager.append_allocations - calls_before == 4

    def test_write_marks_dirty(self, world):
        system, seg = world
        system.file_server.create_file(seg)
        system.uio.write(seg, 0, b"dirty")
        from repro.core.flags import PageFlags

        assert PageFlags.DIRTY & PageFlags(seg.pages[0].flags)

    def test_overwrite_of_uncached_page_fetches_it_first(self, world):
        system, seg = world
        data = b"12345678" * 512  # one page
        system.file_server.create_file(seg, data=data)
        system.uio.write(seg, 100, b"XX")
        expected = data[:100] + b"XX" + data[102:]
        assert system.uio.read(seg, 0, 4096) == expected

    def test_empty_write_is_noop(self, world):
        system, seg = world
        file = system.file_server.create_file(seg)
        assert system.uio.write(seg, 0, b"") == 0
        assert file.size_bytes == 0

    def test_negative_offset_rejected(self, world):
        system, seg = world
        system.file_server.create_file(seg)
        with pytest.raises(UIOError):
            system.uio.write(seg, -5, b"x")


class TestPartialPageWriteback:
    """Writing back a dirty page the file only partly covers leaves the
    file's length alone; only a page wholly past the end extends it."""

    def test_reclaimed_partial_last_page_keeps_the_length(self, world):
        system, seg = world
        data = bytes(range(100))
        file = system.file_server.create_file(seg, data=data)
        system.uio.write(seg, 0, b"y")
        system.default_manager.reclaim_one(seg, 0)
        assert system.default_manager.writebacks == 1
        assert 0 not in seg.pages
        assert file.size_bytes == 100
        assert file.initialized_pages == 1
        assert system.uio.read(seg, 0, 4096) == b"y" + data[1:]

    def test_close_with_writeback_keeps_the_length(self, world):
        system, seg = world
        file = system.file_server.create_file(seg, data=b"0123456789")
        system.uio.write(seg, 0, b"A")
        system.default_manager.file_closed(seg, writeback=True)
        assert system.default_manager.writebacks == 1
        assert file.size_bytes == 10
        assert system.uio.read(seg, 0, 4096) == b"A123456789"
        assert system.file_server.fetch_page(seg, 0)[:10] == b"A123456789"

    def test_store_to_a_page_past_the_end_extends_the_file(self, world):
        system, seg = world
        file = system.file_server.create_file(seg, data=b"x" * 100)
        seg.ensure_size(3)
        frame = system.kernel.reference(seg, 2 * 4096 + 5, write=True)
        frame.write(b"past", 5)
        system.default_manager.reclaim_one(seg, 2)
        assert file.size_bytes == 3 * 4096
        page = system.file_server.fetch_page(seg, 2)
        assert page[5:9] == b"past"
        assert system.uio.read(seg, 2 * 4096 + 5, 4) == b"past"
