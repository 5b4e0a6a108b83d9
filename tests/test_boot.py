"""Boot makes no frames: every machine boots into the state a per-frame
boot makes.

Boot files each page size's frame pool in its well-known segment with one
record (paper, S2.1), a frame becomes an object on first use, the SPCM
cuts each pool into one run of boot pages per node, and a frame's home
page is computed from the pool layout rather than stored.  These tests
rebuild the reference the slow way --- one frame at a time, in pfn order
--- and compare against it, check that every frame that leaves the pool
comes back to its home page, then pin that boot makes no frame object
and that its Python calls do not grow with memory.
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
from repro.verify.digest import state_digest

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

    def test_frames_made_late_match_an_eager_boot(self, machine):
        """A frame made on first use, after grants and returns around it,
        has the fields an eager boot gave every frame, and each pfn is
        one object on every call."""
        kernel, spcm = machine
        memory = kernel.memory
        manager = GenericSegmentManager(kernel, spcm, "early", initial_frames=4)
        manager.return_frames(2)
        made_early = set(memory.made)
        assert len(made_early) == 4
        # the eager layout: frames end to end in pfn order, base pool first
        sizes = sorted(
            (pfn, size) for size, pfns in memory.pools.items() for pfn in pfns
        )
        phys_addr = 0
        for pfn, size in sizes:
            frame = memory.frame(pfn)
            assert memory.frame(pfn) is frame
            if pfn not in made_early:
                boot_segment = kernel.boot_segments[size]
                page = pfn - memory.pools[size].start
                assert (
                    frame.pfn, frame.page_size, frame.phys_addr,
                    frame.owner_segment_id, frame.page_index, frame.flags,
                    frame.is_materialized,
                ) == (pfn, size, phys_addr, boot_segment.seg_id, page, RW, False)
            phys_addr += size
        assert phys_addr == memory.size_bytes
        assert sweep(kernel) == []

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

    The wall-clock bound on set-up time is too loose to catch boot
    sliding back to per-frame work; counts of frame objects and of
    Python-level calls are exact and host-independent.  Boot files each
    pool with one record, so it makes no frame: a frame's object is made
    when the SPCM grants it out, and a sweep or a digest of the whole
    machine reads unmade frames by pfn.
    """

    @staticmethod
    def boot_calls(memory_mb: int, n_nodes: int | None) -> int:
        """Python calls made by a bare boot of ``memory_mb`` megabytes."""
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            memory = PhysicalMemory(memory_mb * MB)
            topology = (
                NumaTopology.for_memory(memory, n_nodes) if n_nodes else None
            )
            Kernel(memory, topology=topology)
        finally:
            sys.setprofile(previous)
        return calls

    @pytest.mark.parametrize("n_nodes", [None, 4])
    def test_64mb_boot_makes_frames_only_as_they_are_granted(self, n_nodes):
        memory = PhysicalMemory(64 * MB)
        topology = NumaTopology.for_memory(memory, n_nodes) if n_nodes else None
        kernel = Kernel(memory, topology=topology)
        assert memory.n_frames == 16384 and memory.made == {}
        SystemPageCacheManager(kernel)
        assert memory.made == {}

        system = build_system(memory_mb=64, n_nodes=n_nodes)
        manager = system.default_manager
        assert len(system.memory.made) == manager.free_frames == 1024
        assert set(system.memory.made) == {
            frame.pfn for frame in manager.free_segment.pages.values()
        }
        InvariantChecker(system.kernel).check_all()
        state_digest(system)
        assert len(system.memory.made) == 1024

    @pytest.mark.parametrize("n_nodes", [None, 4])
    def test_boot_calls_do_not_grow_with_memory(self, n_nodes):
        self.boot_calls(8, n_nodes)  # warm import caches
        assert self.boot_calls(64, n_nodes) == self.boot_calls(8, n_nodes)
