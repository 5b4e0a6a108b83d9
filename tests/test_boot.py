"""Bulk boot: every machine boots into the state a per-frame boot makes.

Boot fills each page size's well-known segment from its frame pool in one
pass (paper, S2.1), the SPCM bulk-loads its node-bucketed free lists from
the boot pages, and a frame's home page is computed from the pool layout
rather than stored.  These tests rebuild the reference the slow way ---
one frame at a time, in pfn order --- and compare against it, then pin
the call budget that keeps boot bulk.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro import build_system
from repro.core.api import MigratePagesRequest
from repro.core.flags import PageFlags
from repro.core.kernel import Kernel
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker, sweep
from repro.managers.base import GenericSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager

MB = 1024 * 1024
LARGE = 16384
RW = int(PageFlags.READ | PageFlags.WRITE)

#: name -> (memory bytes, NUMA nodes or None, large pools)
MACHINES = {
    "64mb-flat": (64 * MB, None, None),
    "64mb-4-nodes": (64 * MB, 4, None),
    "8mb-2-nodes": (8 * MB, 2, None),
    "large-flat": (128 * 4096, None, {LARGE: 32}),
    "large-2-nodes": (128 * 4096, 2, {LARGE: 32}),
}


def boot(name: str) -> tuple[Kernel, SystemPageCacheManager]:
    size_bytes, n_nodes, large_pools = MACHINES[name]
    memory = PhysicalMemory(size_bytes, large_pools=large_pools)
    topology = NumaTopology.for_memory(memory, n_nodes) if n_nodes else None
    kernel = Kernel(memory, topology=topology)
    return kernel, SystemPageCacheManager(kernel, policy=ReservePolicy(0))


def reference_pools(kernel: Kernel) -> dict[int, list]:
    """``page size -> frames`` as a per-frame walk in pfn order files them:
    each frame lands on the next page of its size's boot segment."""
    pools: dict[int, list] = {}
    for frame in kernel.memory.frames():
        pools.setdefault(frame.page_size, []).append(frame)
    return pools


def node_of(kernel: Kernel, frame) -> int:
    topology = kernel.topology
    return 0 if topology is None else topology.node_of(frame.phys_addr)


@pytest.fixture(params=sorted(MACHINES))
def machine(request):
    return boot(request.param)


class TestBootMatchesPerFrameReference:
    def test_boot_segments(self, machine):
        kernel, _ = machine
        pools = reference_pools(kernel)
        assert list(kernel.boot_segments) == list(pools)
        for size, frames in pools.items():
            boot_segment = kernel.boot_segments[size]
            assert boot_segment.name == f"physmem-{size}"
            assert boot_segment.n_pages == len(frames)
            assert list(boot_segment.pages.items()) == list(enumerate(frames))
        assert kernel.initial_segment is kernel.boot_segments[4096]

    def test_frame_fields(self, machine):
        kernel, _ = machine
        for size, frames in reference_pools(kernel).items():
            seg_id = kernel.boot_segments[size].seg_id
            got = [(f.owner_segment_id, f.page_index, f.flags) for f in frames]
            assert got == [(seg_id, page, RW) for page in range(len(frames))]

    def test_free_list_order_and_buckets(self, machine):
        kernel, spcm = machine
        n_buckets = spcm.n_shards
        for size, frames in reference_pools(kernel).items():
            free = spcm._free[size]
            assert list(free) == list(range(len(frames)))
            assert len(free) == len(frames)
            by_node = Counter(node_of(kernel, f) for f in frames)
            assert free.counts_by_node() == {
                node: by_node[node] for node in range(n_buckets)
            }
            for node in range(n_buckets):
                assert free._buckets[node] == [
                    page
                    for page, frame in enumerate(frames)
                    if node_of(kernel, frame) == node
                ]

    def test_every_frame_has_its_boot_page_as_home(self, machine):
        kernel, spcm = machine
        for size, frames in reference_pools(kernel).items():
            boot_segment = kernel.boot_segments[size]
            assert [spcm.home_of(f) for f in frames] == [
                (boot_segment, page) for page in range(len(frames))
            ]

    def test_spcm_built_after_boot_pages_left(self):
        """A second SPCM over a running system loads only the boot pages
        still at home, bucketed by node."""
        system = build_system(memory_mb=8, n_nodes=2, manager_frames=100)
        kernel = system.kernel
        spcm = SystemPageCacheManager(kernel)
        boot_segment = kernel.initial_segment
        assert list(spcm._free[4096]) == sorted(boot_segment.pages)
        assert list(spcm._free[4096]) == list(system.spcm._free[4096])
        assert spcm.free_frames_by_node() == system.spcm.free_frames_by_node()

    def test_spcm_built_after_frames_were_swept_past_the_pool(self):
        """Deleting a segment sweeps its frames to fresh boot pages past
        the pool; the SPCM still buckets each by its frame's node."""
        memory = PhysicalMemory(8 * 4096)
        kernel = Kernel(memory, topology=NumaTopology.for_memory(memory, 2))
        scratch = kernel.create_segment(2, name="scratch")
        kernel.migrate_pages(
            MigratePagesRequest(kernel.initial_segment, scratch, 0, 0, 2)
        )
        kernel.delete_segment(scratch)
        assert sorted(kernel.initial_segment.pages) == [2, 3, 4, 5, 6, 7, 8, 9]
        spcm = SystemPageCacheManager(kernel)
        free = spcm._free[4096]
        assert free._buckets == [[2, 3, 8, 9], [4, 5, 6, 7]]
        assert spcm.free_frames_by_node() == {0: 4, 1: 4}


class TestFramesComeHome:
    def test_large_frames_return_to_their_boot_pages(self):
        kernel, spcm = boot("large-2-nodes")
        free = spcm._free[LARGE]
        order_before = list(free)
        buckets_before = [list(bucket) for bucket in free._buckets]
        manager = GenericSegmentManager(
            kernel, spcm, "large", initial_frames=0, page_size=LARGE
        )
        assert manager.request_frames(20, home_node=0) == 20
        frames = [manager.free_segment.pages[s] for s in manager._free_slots]
        InvariantChecker(kernel).check_all()

        assert manager.return_frames(20) == 20
        boot_segment = kernel.boot_segments[LARGE]
        for frame in frames:
            home_segment, home_page = spcm.home_of(frame)
            assert home_segment is boot_segment
            assert boot_segment.pages[home_page] is frame
            assert frame.owner_segment_id == boot_segment.seg_id
            assert frame.page_index == home_page
        assert list(free) == order_before
        assert [list(bucket) for bucket in free._buckets] == buckets_before
        InvariantChecker(kernel).check_all()

    def test_retired_frames_leave_the_books_exactly_once(self):
        kernel, spcm = boot("8mb-2-nodes")
        size = kernel.memory.page_size
        manager = GenericSegmentManager(kernel, spcm, "m", initial_frames=8)
        account = manager.account
        free = spcm._free[size]
        free_frame = kernel.initial_segment.pages[free[len(free) - 1]]
        granted = manager.free_segment.pages[manager._free_slots[0]]
        free_node = node_of(kernel, free_frame)
        granted_node = node_of(kernel, granted)
        n_free = len(free)
        held = spcm.held_by(account)
        shard_held = spcm.shards[granted_node].frames_held[account]

        kernel.retire_frame(free_frame)
        kernel.retire_frame(granted)
        assert len(free) == n_free - 1
        assert spcm.home_of(free_frame)[1] not in free
        assert spcm.held_by(account) == held - 1
        assert spcm.shards[granted_node].frames_held[account] == shard_held - 1
        assert spcm.shards[free_node].retired_frames == 1
        assert spcm.shards[granted_node].retired_frames == 1
        assert sweep(kernel, ("spcm_pool", "shards", "quotas")) == []

        # a repeated notice finds neither frame in the pool or on a book
        spcm.note_frame_retired(free_frame)
        spcm.note_frame_retired(granted)
        assert len(free) == n_free - 1
        assert spcm.held_by(account) == held - 1
        assert spcm.shards[granted_node].frames_held[account] == shard_held - 1


class TestBootStaysBulk:
    """A deterministic guard on boot's per-frame work.

    The wall-clock bound on set-up time is too loose to catch boot sliding
    back to per-frame Python calls; a count of Python-level calls is exact
    and host-independent.  Generator resumptions count as calls, so the
    bulk loads use comprehensions and C-level builtins.  The one call left
    per frame is ``PageFrame.__init__``; the default manager's initial
    grant accounts for most of the rest.
    """

    MAX_CALLS_PER_FRAME = 1.25

    @pytest.mark.parametrize("n_nodes", [None, 4])
    def test_64mb_boot_makes_at_most_one_and_a_quarter_calls_per_frame(
        self, n_nodes
    ):
        build_system(memory_mb=64, n_nodes=n_nodes)  # warm import caches
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            system = build_system(memory_mb=64, n_nodes=n_nodes)
        finally:
            sys.setprofile(previous)
        n_frames = system.memory.n_frames
        assert n_frames == 16384
        assert calls <= self.MAX_CALLS_PER_FRAME * n_frames, (
            f"booting {n_frames} frames made {calls} Python calls "
            f"({calls / n_frames:.2f} per frame)"
        )
