"""Physical memory and page frames."""

from __future__ import annotations

import pytest

from repro.errors import PhysicalMemoryError
from repro.hw.phys_mem import PageFrame, PhysicalMemory


class TestPageFrame:
    def frame(self) -> PageFrame:
        return PageFrame(pfn=3, page_size=4096, phys_addr=3 * 4096)

    def test_reads_zero_before_any_write(self):
        f = self.frame()
        assert f.read() == bytes(4096)
        assert not f.is_materialized

    def test_write_then_read_roundtrip(self):
        f = self.frame()
        f.write(b"hello", offset=100)
        assert f.read(100, 5) == b"hello"
        assert f.read(99, 1) == b"\x00"
        assert f.is_materialized

    def test_partial_read_defaults_to_rest_of_page(self):
        f = self.frame()
        f.write(b"x" * 4096)
        assert len(f.read(4000)) == 96

    def test_zero_drops_contents(self):
        f = self.frame()
        f.write(b"data")
        f.zero()
        assert f.read(0, 4) == b"\x00\x00\x00\x00"
        assert not f.is_materialized

    def test_copy_from_copies_bytes(self):
        a, b = self.frame(), PageFrame(4, 4096, 4 * 4096)
        a.write(b"abc")
        b.copy_from(a)
        assert b.read(0, 3) == b"abc"
        a.write(b"zzz")
        assert b.read(0, 3) == b"abc"  # deep copy

    def test_copy_from_unmaterialized_source_zeroes(self):
        a, b = self.frame(), PageFrame(4, 4096, 4 * 4096)
        b.write(b"junk")
        b.copy_from(a)
        assert b.read(0, 4) == bytes(4)

    def test_copy_size_mismatch_rejected(self):
        a = self.frame()
        big = PageFrame(9, 16384, 0)
        with pytest.raises(PhysicalMemoryError):
            big.copy_from(a)

    def test_out_of_range_access_rejected(self):
        f = self.frame()
        with pytest.raises(PhysicalMemoryError):
            f.read(4000, 200)
        with pytest.raises(PhysicalMemoryError):
            f.write(b"x" * 10, offset=4090)
        with pytest.raises(PhysicalMemoryError):
            f.read(-1, 2)

    def test_color_is_frame_number_mod_colors(self):
        f = PageFrame(pfn=0, page_size=4096, phys_addr=5 * 4096)
        assert f.color(4) == 1
        assert f.color(16) == 5
        with pytest.raises(ValueError):
            f.color(0)


class TestPhysicalMemory:
    def test_frames_created_in_physical_order(self, memory):
        assert memory.n_frames == 1024
        addrs = [f.phys_addr for f in memory.frames()]
        assert addrs == sorted(addrs)
        assert memory.frame(10).phys_addr == 10 * 4096

    def test_size_must_be_page_multiple(self):
        with pytest.raises(PhysicalMemoryError):
            PhysicalMemory(4097)
        with pytest.raises(PhysicalMemoryError):
            PhysicalMemory(0)

    def test_large_pools_follow_base_frames(self):
        mem = PhysicalMemory(8 * 4096, large_pools={16384: 2})
        assert mem.n_frames == 10
        big = [mem.frame(pfn) for pfn in mem.pools[16384]]
        assert len(big) == 2
        assert [f.page_size for f in big] == [16384, 16384]
        assert big[0].phys_addr == 8 * 4096
        assert big[1].phys_addr == 8 * 4096 + 16384
        assert mem.size_bytes == 8 * 4096 + 2 * 16384

    def test_large_pool_must_be_larger_multiple(self):
        with pytest.raises(PhysicalMemoryError):
            PhysicalMemory(4 * 4096, large_pools={4096: 1})
        with pytest.raises(PhysicalMemoryError):
            PhysicalMemory(4 * 4096, large_pools={5000: 1})

    def test_negative_large_pool_count_rejected(self):
        with pytest.raises(PhysicalMemoryError, match="negative"):
            PhysicalMemory(8 * 4096, large_pools={16384: -2})

    def test_pools_are_pfn_ranges_in_address_order(self):
        mem = PhysicalMemory(8 * 4096, large_pools={65536: 1, 16384: 2})
        assert mem.pools == {
            4096: range(0, 8),
            16384: range(8, 10),
            65536: range(10, 11),
        }
        assert mem.pool_addrs == {
            4096: 0,
            16384: 8 * 4096,
            65536: 8 * 4096 + 2 * 16384,
        }
        assert [(f.page_size, f.phys_addr) for f in mem.frames()] == [
            *((4096, pfn * 4096) for pfn in range(8)),
            (16384, 8 * 4096),
            (16384, 8 * 4096 + 16384),
            (65536, 8 * 4096 + 2 * 16384),
        ]

    def test_empty_large_pool_has_no_frames(self):
        mem = PhysicalMemory(8 * 4096, large_pools={16384: 0})
        assert list(mem.pools) == [4096]
        assert mem.n_frames == 8

    def test_frame_lookup_bounds(self, memory):
        with pytest.raises(PhysicalMemoryError):
            memory.frame(-1)
        with pytest.raises(PhysicalMemoryError):
            memory.frame(1024)

    def test_frames_in_addr_range(self, memory):
        frames = memory.frames_in_addr_range(8192, 16384)
        assert [f.pfn for f in frames] == [2, 3]

    def test_frame_at_addr(self, memory):
        assert memory.frame_at_addr(4096 * 5 + 123).pfn == 5
        with pytest.raises(PhysicalMemoryError):
            memory.frame_at_addr(memory.size_bytes)


class TestFramesMadeOnFirstUse:
    """A frame's object is made the first time it is asked for, and the
    address lookups are arithmetic: each makes only what it returns."""

    def test_construction_makes_no_frame(self):
        mem = PhysicalMemory(64 * 1024 * 1024, large_pools={16384: 64})
        assert mem.n_frames == 16384 + 64
        assert mem.made == {}

    def test_frame_is_made_once(self, memory):
        frame = memory.frame(7)
        assert memory.frame(7) is frame
        assert memory.made == {7: frame}

    def test_address_lookups_make_only_what_they_return(self):
        mem = PhysicalMemory(8 * 4096, large_pools={16384: 2, 65536: 1})
        assert mem.frame_at_addr(8 * 4096 + 16384 + 5).pfn == 9
        assert sorted(mem.made) == [9]
        frames = mem.frames_in_addr_range(6 * 4096, 8 * 4096 + 16384 + 1)
        assert [f.pfn for f in frames] == [6, 7, 8, 9]
        assert sorted(mem.made) == [6, 7, 8, 9]
        assert mem.frames_in_addr_range(3 * 4096 + 1, 4 * 4096) == []
        assert mem.frames_in_addr_range(mem.size_bytes, 2 * mem.size_bytes) == []
        assert [f.pfn for f in mem.frames_in_addr_range(-4096, 4096)] == [0]
        assert sorted(mem.made) == [0, 6, 7, 8, 9]
        with pytest.raises(PhysicalMemoryError):
            mem.frame_at_addr(-1)
        with pytest.raises(PhysicalMemoryError):
            mem.frame_at_addr(mem.size_bytes)
        assert sorted(mem.made) == [0, 6, 7, 8, 9]

    def test_address_lookups_agree_with_a_scan(self):
        mem = PhysicalMemory(8 * 4096, large_pools={16384: 2, 65536: 1})
        frames = list(mem.frames())
        for lo in range(0, mem.size_bytes + 1, 2048):
            for hi in (lo, lo + 1, lo + 4096, lo + 20000, mem.size_bytes):
                assert mem.frames_in_addr_range(lo, hi) == [
                    f for f in frames if lo <= f.phys_addr < hi
                ]
            if lo < mem.size_bytes:
                assert mem.frame_at_addr(lo) is next(
                    f for f in frames
                    if f.phys_addr <= lo < f.phys_addr + f.page_size
                )
