"""NUMA topology and the placement manager (the DASH case, S1/S2.2)."""

from __future__ import annotations

import pytest

from repro.core.kernel import Kernel
from repro.errors import HardwareError, ManagerError
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker
from repro.managers.placement_manager import PlacementSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager

N_NODES = 4
MEM_BYTES = 4 * 1024 * 1024  # 1 MB per node


@pytest.fixture
def world():
    memory = PhysicalMemory(MEM_BYTES)
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(0))
    topology = NumaTopology.for_memory(memory, N_NODES)
    manager = PlacementSegmentManager(
        kernel, spcm, topology, frames_per_node=32
    )
    return kernel, topology, manager


class TestTopology:
    def test_node_of_address(self):
        topo = NumaTopology(4, 1024 * 1024)
        assert topo.node_of(0) == 0
        assert topo.node_of(1024 * 1024) == 1
        assert topo.node_of(4 * 1024 * 1024 - 1) == 3
        with pytest.raises(HardwareError):
            topo.node_of(4 * 1024 * 1024)

    def test_node_range(self):
        topo = NumaTopology(4, 1024 * 1024)
        lo, hi = topo.node_range(2)
        assert lo == 2 * 1024 * 1024 and hi == 3 * 1024 * 1024
        with pytest.raises(HardwareError):
            topo.node_range(4)

    def test_access_costs(self):
        topo = NumaTopology(2, 1024, local_access_us=0.1, remote_access_us=0.4)
        assert topo.access_us(0, 100) == 0.1
        assert topo.access_us(1, 100) == 0.4
        assert topo.is_local(0, 100)
        assert not topo.is_local(1, 100)

    def test_for_memory_must_divide(self):
        memory = PhysicalMemory(4 * 4096)
        with pytest.raises(HardwareError):
            NumaTopology.for_memory(memory, 3)

    def test_node_boundary_inside_a_base_frame_rejected(self):
        # six 4 KB frames over four nodes: 1.5 frames per node
        memory = PhysicalMemory(6 * 4096)
        with pytest.raises(HardwareError, match="inside a 4096-byte frame"):
            NumaTopology.for_memory(memory, 4)

    def test_large_frame_spanning_nodes_rejected(self):
        # the 16 KB frame at 12 KB would span nodes 3 to 6 and be booked
        # on node 3 only
        memory = PhysicalMemory(3 * 4096, large_pools={16384: 1})
        with pytest.raises(HardwareError, match="16384-byte frame"):
            NumaTopology.for_memory(memory, 7)
        with pytest.raises(HardwareError):
            Kernel(memory, topology=NumaTopology(7, 4096))

    def test_frame_aligned_nodes_over_mixed_pools_accepted(self):
        memory = PhysicalMemory(4 * 4096, large_pools={16384: 1})
        topology = NumaTopology.for_memory(memory, 2)
        big = memory.frame(memory.pools[16384].start)
        assert topology.node_of(big.phys_addr) == 1

    def test_remote_cheaper_than_local_rejected(self):
        with pytest.raises(HardwareError):
            NumaTopology(2, 1024, local_access_us=1.0, remote_access_us=0.5)


class TestPlacementManager:
    def test_node_pools_are_physically_local(self, world):
        _, topology, manager = world
        for node in range(N_NODES):
            assert manager.free_on_node(node) == 32
        # node n's stock was granted n-th, into free-segment slots
        # 32n .. 32n + 31, each holding a frame on node n
        assert sorted(manager._free_slots) == list(range(32 * N_NODES))
        for slot in manager._free_slots:
            frame = manager.free_segment.pages[slot]
            assert topology.node_of(frame.phys_addr) == slot // 32

    def test_home_segment_pages_land_on_home_node(self, world):
        kernel, topology, manager = world
        seg = manager.create_home_segment(16, node=2)
        for page in range(16):
            kernel.reference(seg, page * 4096)
        report = manager.locality_report(seg)
        assert report["local_fraction"] == 1.0
        assert report["mean_access_us"] == pytest.approx(
            topology.local_access_us
        )
        assert manager.local_placements == 16
        assert manager.spilled_placements == 0

    def test_spill_when_home_node_exhausted(self, world):
        kernel, topology, manager = world
        # node 1's memory is 256 frames total; demand more than exists
        seg = manager.create_home_segment(250, node=1)
        big = manager.create_home_segment(40, node=1, name="big")
        for page in range(250):
            kernel.reference(seg, page * 4096)
        for page in range(40):
            kernel.reference(big, page * 4096)
        assert manager.spilled_placements > 0
        report = manager.locality_report(big)
        assert report["local_fraction"] < 1.0
        # spilled pages cost the remote rate
        assert report["mean_access_us"] > topology.local_access_us

    def test_reclaim_returns_frames_to_their_node_pool(self, world):
        kernel, topology, manager = world
        seg = manager.create_home_segment(8, node=3)
        for page in range(8):
            kernel.reference(seg, page * 4096)
        before = manager.free_on_node(3)
        manager.reclaim_one(seg, 0)
        assert manager.free_on_node(3) == before + 1

    def test_unknown_node_rejected(self, world):
        _, _, manager = world
        with pytest.raises(ManagerError):
            manager.create_home_segment(4, node=N_NODES)

    def test_segment_without_home_uses_generic_path(self, world):
        kernel, _, manager = world
        seg = kernel.create_segment(4, name="plain", manager=manager)
        kernel.reference(seg, 0)
        assert seg.resident_pages == 1
        with pytest.raises(ManagerError):
            manager.locality_report(seg)

    def test_unhomed_fault_then_homed_faults(self, world):
        kernel, _, manager = world
        plain = kernel.create_segment(4, name="plain", manager=manager)
        kernel.reference(plain, 0)
        seg = manager.create_home_segment(40, node=3)
        for page in range(40):
            kernel.reference(seg, page * 4096)
        assert seg.resident_pages == 40
        assert manager.locality_report(seg)["local_fraction"] == 1.0
        assert manager.spilled_placements == 0
        InvariantChecker(kernel).check_all()

    def test_placement_beats_random_on_access_cost(self, world):
        """The DASH argument, quantified: home placement yields the local
        access rate; spilled/remote placement pays the 4x penalty."""
        kernel, topology, manager = world
        local_seg = manager.create_home_segment(16, node=0, name="local")
        for page in range(16):
            kernel.reference(local_seg, page * 4096)
        local_cost = manager.locality_report(local_seg)["mean_access_us"]
        # a segment whose pages were deliberately placed off-node
        remote_seg = manager.create_home_segment(8, node=0, name="remote")
        manager.segment_home[remote_seg.seg_id] = 0
        # steal node-3 slots for it by reassigning its home temporarily
        manager.segment_home[remote_seg.seg_id] = 3
        for page in range(8):
            kernel.reference(remote_seg, page * 4096)
        manager.segment_home[remote_seg.seg_id] = 0  # accessed from node 0
        remote_cost = manager.locality_report(remote_seg)["mean_access_us"]
        assert remote_cost == pytest.approx(topology.remote_access_us)
        assert local_cost == pytest.approx(topology.local_access_us)
        assert remote_cost == pytest.approx(4 * local_cost)
