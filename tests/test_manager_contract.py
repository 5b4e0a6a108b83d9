"""The segment-manager contract, enforced uniformly over every manager.

Whatever its policy, a segment manager must: resolve missing-page faults,
keep the frame-conservation invariant, reclaim a dying segment's frames,
surrender frames under SPCM pressure, and leave its own bookkeeping
auditable.  Each concrete manager in the library runs the same scenario.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import Kernel
from repro.core.uio import FileServer
from repro.hw.costs import DECSTATION_5000_200
from repro.hw.disk import Disk
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.managers.coloring_manager import ColoringSegmentManager
from repro.managers.dbms_manager import DBMSSegmentManager
from repro.managers.default_manager import DefaultSegmentManager
from repro.managers.discard_manager import DiscardableSegmentManager
from repro.managers.pinning import PinnedPageManager
from repro.managers.placement_manager import PlacementSegmentManager
from repro.managers.prefetch_manager import PrefetchingSegmentManager
from repro.managers.self_managing import SelfManagingManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager

FRAMES = 512


def build(factory_name: str):
    memory = PhysicalMemory(FRAMES * 4096)
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(0))
    disk = Disk(DECSTATION_5000_200)
    server = FileServer(kernel, disk)
    factories = {
        "generic": lambda: GenericSegmentManager(
            kernel, spcm, "generic", initial_frames=64
        ),
        "default": lambda: DefaultSegmentManager(
            kernel, spcm, server, initial_frames=64
        ),
        "dbms": lambda: DBMSSegmentManager(
            kernel, spcm, initial_frames=64, file_server=server
        ),
        "discard": lambda: DiscardableSegmentManager(
            kernel, spcm, server, initial_frames=64
        ),
        "prefetch": lambda: PrefetchingSegmentManager(
            kernel, spcm, server, initial_frames=64
        ),
        "coloring": lambda: ColoringSegmentManager(
            kernel, spcm, n_colors=8, frames_per_color=8
        ),
        "pinning": lambda: PinnedPageManager(
            kernel, spcm, initial_frames=64
        ),
        "placement": lambda: PlacementSegmentManager(
            kernel,
            spcm,
            NumaTopology.for_memory(memory, 4),
            frames_per_node=16,
        ),
        "self-managing": lambda: SelfManagingManager(
            kernel,
            spcm,
            DefaultSegmentManager(kernel, spcm, server, initial_frames=32),
            file_server=server,
            initial_frames=64,
        ),
    }
    return kernel, spcm, factories[factory_name]()


MANAGER_KINDS = (
    "generic",
    "default",
    "dbms",
    "discard",
    "prefetch",
    "coloring",
    "pinning",
    "placement",
    "self-managing",
)


@pytest.mark.parametrize("kind", MANAGER_KINDS)
class TestManagerContract:
    def test_resolves_faults_and_conserves_frames(self, kind):
        kernel, _, manager = build(kind)
        seg = kernel.create_segment(16, name="app", manager=manager)
        for page in range(16):
            frame = kernel.reference(seg, page * 4096, write=True)
            assert seg.pages[page] is frame
        kernel.check_frame_conservation()

    def test_reclaim_and_refault_roundtrip(self, kind):
        kernel, _, manager = build(kind)
        seg = kernel.create_segment(8, name="app", manager=manager)
        for page in range(8):
            kernel.reference(seg, page * 4096, write=True)
        manager.reclaim_pages(4)
        assert seg.resident_pages <= 8
        for page in range(8):
            kernel.reference(seg, page * 4096)
        assert seg.resident_pages == 8
        kernel.check_frame_conservation()

    def test_segment_deletion_reclaims_everything(self, kind):
        kernel, _, manager = build(kind)
        seg = kernel.create_segment(8, name="dying", manager=manager)
        for page in range(8):
            kernel.reference(seg, page * 4096)
        total_before = manager.total_frames
        kernel.delete_segment(seg)
        assert manager.total_frames == total_before
        assert manager.free_frames >= 8
        kernel.check_frame_conservation()

    def test_spcm_pressure_yields_frames(self, kind):
        kernel, spcm, manager = build(kind)
        seg = kernel.create_segment(8, name="app", manager=manager)
        for page in range(8):
            kernel.reference(seg, page * 4096)
        available = spcm.available_frames()
        freed = spcm.force_reclaim(manager, 4)
        assert freed > 0
        assert spcm.available_frames() == available + freed
        kernel.check_frame_conservation()

    def test_bookkeeping_is_auditable(self, kind):
        kernel, _, manager = build(kind)
        seg = kernel.create_segment(12, name="app", manager=manager)
        for page in range(12):
            kernel.reference(seg, page * 4096, write=(page % 3 == 0))
        manager.reclaim_pages(5)
        assert InvariantChecker(kernel).violations() == []
