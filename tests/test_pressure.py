"""Behavior under real memory pressure (paging happens mid-run)."""

from __future__ import annotations

import pytest

from repro.core.kernel import Kernel
from repro.core.uio import UIO, FileServer
from repro.hw.costs import DECSTATION_5000_200
from repro.hw.disk import Disk
from repro.hw.phys_mem import PhysicalMemory
from repro.managers.default_manager import DefaultSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager


def small_world(frames: int = 64):
    """A machine too small for the workloads below."""
    memory = PhysicalMemory(frames * 4096)
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(0))
    disk = Disk(DECSTATION_5000_200)
    file_server = FileServer(kernel, disk)
    manager = DefaultSegmentManager(
        kernel, spcm, file_server, initial_frames=frames // 2
    )
    return kernel, spcm, file_server, UIO(kernel), manager


class TestPagingUnderPressure:
    def test_sequential_scan_larger_than_memory(self):
        """A 128-page file scanned on a 64-frame machine: the clock must
        recycle frames, and the data must still read correctly."""
        kernel, _, file_server, uio, manager = small_world(64)
        seg = kernel.create_segment(
            0, name="big", manager=manager, auto_grow=True
        )
        data = bytes(i % 256 for i in range(128 * 4096))
        file_server.create_file(seg, data=data)
        got = uio.read(seg, 0, len(data))
        assert got == data
        assert manager.pages_reclaimed > 0
        kernel.check_frame_conservation()

    def test_rescan_rereads_evicted_pages_from_server(self):
        kernel, _, file_server, uio, manager = small_world(64)
        seg = kernel.create_segment(
            0, name="big", manager=manager, auto_grow=True
        )
        data = bytes((i * 7) % 256 for i in range(128 * 4096))
        file_server.create_file(seg, data=data)
        uio.read(seg, 0, len(data))
        # second scan: early pages were evicted and come back intact
        assert uio.read(seg, 0, 16 * 4096) == data[: 16 * 4096]

    def test_dirty_data_survives_eviction_cycles(self):
        kernel, _, file_server, uio, manager = small_world(64)
        seg = kernel.create_segment(
            0, name="log", manager=manager, auto_grow=True
        )
        file_server.create_file(seg)
        payload = bytes(range(256)) * 16  # one page
        n_pages = 96  # 1.5x physical memory
        for page in range(n_pages):
            uio.write(seg, page * 4096, payload)
        for page in range(0, n_pages, 7):
            assert uio.read(seg, page * 4096, 4096) == payload, page
        assert manager.writebacks > 0
        kernel.check_frame_conservation()

    def test_anonymous_pressure_uses_migrate_back(self):
        """Anonymous (no backing store) pages evicted under pressure are
        recoverable through the migrate-back fast path while their frames
        remain unreused."""
        kernel, _, _, _, manager = small_world(64)
        seg = kernel.create_segment(40, name="heap", manager=manager)
        for page in range(40):
            frame = kernel.reference(seg, page * 4096, write=True)
            frame.write(bytes([page]))
        manager.reclaim_pages(8)
        evicted = [p for p in range(40) if p not in seg.pages]
        assert evicted
        for page in evicted:
            frame = kernel.reference(seg, page * 4096)
            assert frame.read(0, 1) == bytes([page])
        assert manager.fast_reclaims == len(evicted)

    def test_pressure_does_not_starve_pinned_pages(self):
        kernel, _, file_server, uio, manager = small_world(64)
        pinned_seg = kernel.create_segment(8, name="pinned", manager=manager)
        for page in range(8):
            kernel.reference(pinned_seg, page * 4096)
        manager.pin_segment(pinned_seg)
        big = kernel.create_segment(0, name="big", manager=manager, auto_grow=True)
        file_server.create_file(big, data=b"x" * (96 * 4096))
        uio.read(big, 0, 96 * 4096)
        assert pinned_seg.resident_pages == 8
        kernel.check_frame_conservation()
