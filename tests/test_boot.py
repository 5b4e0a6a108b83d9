"""Bulk boot: every machine boots into the state a per-frame boot makes.

Boot fills each page size's well-known segment from its frame pool in one
pass (paper, S2.1), the SPCM cuts each pool into one run of boot pages per
node, and a frame's home page is computed from the pool layout rather than
stored.  These tests rebuild the reference the slow way --- one frame at a
time, in pfn order --- and compare against it, check that every frame that
leaves the pool comes back to its home page, then pin the call budget that
keeps boot bulk.
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
from repro.spcm.spcm import FrameRequest, SystemPageCacheManager

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
        """Each node's run holds exactly its frames' boot pages, and a
        plain grant takes the whole pool in ascending page order."""
        kernel, spcm = machine
        n_runs = spcm.n_shards
        for size, frames in reference_pools(kernel).items():
            free = spcm._free[size]
            assert spcm.available_frames(size) == len(frames)
            by_node = Counter(node_of(kernel, f) for f in frames)
            assert free.counts_by_node() == {
                node: by_node[node] for node in range(n_runs)
            }
            assert [list(run) for run in free._runs] == [
                [
                    page
                    for page, frame in enumerate(frames)
                    if node_of(kernel, frame) == node
                ]
                for node in range(n_runs)
            ]
            assert free.take(len(frames)) == list(range(len(frames)))

    def test_every_frame_has_its_boot_page_as_home(self, machine):
        kernel, _ = machine
        for size, frames in reference_pools(kernel).items():
            boot_segment = kernel.boot_segments[size]
            assert [kernel.home_of(f) for f in frames] == [
                (boot_segment, page) for page in range(len(frames))
            ]

    def test_spcm_built_after_boot_pages_left(self):
        """A second SPCM over a running system sees the frames still at
        home, by node, and grants the lowest of them first."""
        system = build_system(memory_mb=8, n_nodes=2, manager_frames=100)
        kernel = system.kernel
        spcm = SystemPageCacheManager(kernel)
        boot_segment = kernel.initial_segment
        assert spcm.available_frames() == len(boot_segment.pages)
        assert spcm.free_frames_by_node() == system.spcm.free_frames_by_node()
        assert spcm._free[4096].take(8) == sorted(boot_segment.pages)[:8]

    def test_spcm_built_after_frames_were_swept_home(self):
        """Deleting a segment sweeps its frames back to their home pages,
        so an SPCM built afterwards sees the pool exactly as booted."""
        memory = PhysicalMemory(8 * 4096)
        kernel = Kernel(memory, topology=NumaTopology.for_memory(memory, 2))
        boot_segment = kernel.initial_segment
        scratch = kernel.create_segment(2, name="scratch")
        kernel.migrate_pages(
            MigratePagesRequest(boot_segment, scratch, 0, 0, 2)
        )
        kernel.delete_segment(scratch)
        assert boot_segment.n_pages == 8
        assert {page: f.pfn for page, f in boot_segment.pages.items()} == {
            page: page for page in range(8)
        }
        spcm = SystemPageCacheManager(kernel)
        assert spcm.free_frames_by_node() == {0: 4, 1: 4}
        assert sweep(kernel) == []


class TestFramesComeHome:
    def test_large_frames_return_to_their_boot_pages(self):
        """Returned frames land on their home pages, and the next grant
        finds them again (every 16 KB frame sits on node 1, so node 0's
        run is empty and the hinted request spills over)."""
        kernel, spcm = boot("large-2-nodes")
        boot_segment = kernel.boot_segments[LARGE]
        pool_before = dict(boot_segment.pages)
        counts_before = spcm.free_frames_by_node(LARGE)
        manager = GenericSegmentManager(
            kernel, spcm, "large", initial_frames=0, page_size=LARGE
        )
        assert manager.request_frames(20, home_node=0) == 20
        frames = [manager.free_segment.pages[s] for s in manager._free_slots]
        InvariantChecker(kernel).check_all()

        assert manager.return_frames(20) == 20
        for frame in frames:
            home_segment, home_page = kernel.home_of(frame)
            assert home_segment is boot_segment
            assert boot_segment.pages[home_page] is frame
            assert frame.owner_segment_id == boot_segment.seg_id
            assert frame.page_index == home_page
        assert boot_segment.pages == pool_before
        assert spcm.free_frames_by_node(LARGE) == counts_before
        InvariantChecker(kernel).check_all()

        assert manager.request_frames(20, home_node=0) == 20
        regranted = manager.free_segment.pages.values()
        assert {f.pfn for f in regranted} == {f.pfn for f in frames}

    def test_retired_frames_leave_the_books_exactly_once(self):
        kernel, spcm = boot("8mb-2-nodes")
        manager = GenericSegmentManager(kernel, spcm, "m", initial_frames=8)
        account = manager.account
        boot_segment = kernel.initial_segment
        free_frame = boot_segment.pages[max(boot_segment.pages)]
        slot = manager._free_slots[0]
        granted = manager.free_segment.pages[slot]
        free_node = node_of(kernel, free_frame)
        granted_node = node_of(kernel, granted)
        n_free = spcm.available_frames()
        held = spcm.held_by(account)
        shard_held = spcm.shards[granted_node].frames_held[account]

        kernel.retire_frame(free_frame)
        kernel.retire_frame(granted)
        assert spcm.available_frames() == n_free - 1
        assert kernel.home_of(free_frame)[1] not in boot_segment.pages
        assert spcm.held_by(account) == held - 1
        assert spcm.shards[granted_node].frames_held[account] == shard_held - 1
        assert spcm.shards[free_node].retired_frames == 1
        assert spcm.shards[granted_node].retired_frames == 1
        assert slot in manager._empty_slots
        assert sweep(kernel) == []

        # a repeated notice (the frame left no segment) touches no book
        spcm.note_frame_retired(free_frame, None, None)
        spcm.note_frame_retired(granted, None, None)
        assert spcm.available_frames() == n_free - 1
        assert spcm.held_by(account) == held - 1
        assert spcm.shards[granted_node].frames_held[account] == shard_held - 1

    def test_sweep_under_a_live_spcm_returns_frames_to_the_pool(self):
        """A deleted segment's leftover frames go home and off their
        holder's books, so the next grant hands them out again."""
        system = build_system(memory_mb=8, manager_frames=16)
        kernel, spcm = system.kernel, system.spcm
        manager = system.default_manager
        account = manager.account
        bare = kernel.create_segment(4, name="bare")
        spcm.request_frames(manager, FrameRequest(account, 4), bare)
        assert spcm.available_frames() == 2028
        assert spcm.held_by(account) == 20

        kernel.delete_segment(bare)
        assert spcm.available_frames() == 2032
        assert spcm.held_by(account) == 16
        assert sweep(kernel) == []
        again = kernel.create_segment(4, name="again")
        spcm.request_frames(manager, FrameRequest(account, 4), again)
        assert sorted(f.pfn for f in again.pages.values()) == [16, 17, 18, 19]


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
