"""The segment-manager contract, enforced uniformly over every manager.

Whatever its policy, a segment manager must: resolve missing-page faults,
keep the frame-conservation invariant, reclaim a dying segment's frames,
surrender frames under SPCM pressure, bring a reclaimed page back with its
own data, leave its own bookkeeping auditable, and journal every change to
that bookkeeping so restore plus replay rebuilds it.  Each concrete manager
in the library runs the same scenario.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.api import FrameDemand
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
from repro.recovery import install_recovery
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import SystemPageCacheManager

FRAMES = 512


def build(factory_name: str, recovery: bool = False):
    memory = PhysicalMemory(FRAMES * 4096)
    kernel = Kernel(memory)
    spcm = SystemPageCacheManager(kernel, policy=ReservePolicy(0))
    if recovery:
        # armed before the manager is born, with no checkpoint due, so
        # replay covers the manager's whole life
        install_recovery(
            SimpleNamespace(kernel=kernel, spcm=spcm), checkpoint_every=10_000
        )
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

    def test_reclaimed_pages_come_back_with_their_own_bytes(self, kind):
        kernel, _, manager = build(kind)
        if kind == "placement":
            seg = manager.create_home_segment(16, node=0, name="app")
        else:
            seg = kernel.create_segment(16, name="app", manager=manager)
        # pages 0 and 8 want the same color of 8 and the same home node
        pages = (0, 8)
        for page in pages:
            frame = kernel.reference(seg, page * 4096, write=True)
            frame.write(bytes([page + 1]) * 16, 0)
        for page in pages:
            manager.reclaim_one(seg, page)
        for page in pages:
            frame = kernel.reference(seg, page * 4096)
            assert frame.read(0, 16) == bytes([page + 1]) * 16
        assert manager.fast_reclaims == len(pages)
        assert InvariantChecker(kernel).violations() == []

    def test_bookkeeping_is_auditable(self, kind):
        kernel, _, manager = build(kind)
        seg = kernel.create_segment(12, name="app", manager=manager)
        for page in range(12):
            kernel.reference(seg, page * 4096, write=(page % 3 == 0))
        manager.reclaim_pages(5)
        assert InvariantChecker(kernel).violations() == []

    def test_replay_rebuilds_the_live_structures(self, kind):
        """Replaying the manager's whole log over a fresh boot rebuilds
        the structures its live handlers built --- after faults, refaults
        of reclaimed pages, SPCM pressure, a segment delete, seizure and
        each manager's own extra path --- and every count the manager
        derives from them."""
        kernel, spcm, manager = build(kind, recovery=True)
        if kind == "placement":
            seg = manager.create_home_segment(16, node=0, name="app")
        elif kind == "dbms":
            seg = manager.create_typed_segment(16, "indices", name="app")
        else:
            seg = kernel.create_segment(16, name="app", manager=manager)
        for page in range(16):
            kernel.reference(seg, page * 4096, write=True)
        manager.reclaim_pages(6)
        for page in range(8):
            kernel.reference(seg, page * 4096)
        manager.release_frames(FrameDemand(4))
        dying = kernel.create_segment(4, name="dying", manager=manager)
        for page in range(4):
            kernel.reference(dying, page * 4096, write=True)
        kernel.delete_segment(dying)
        if kind == "default":
            # a write past the end of a file: one append run
            out = kernel.create_segment(8, name="out", manager=manager)
            manager.file_server.create_file(out)
            kernel.reference(out, 0, write=True)
            assert manager.append_allocations == 1
        spcm.seize_frames(manager)
        manager.reclaim_pages(3)
        if kind == "prefetch":
            manager.prefetch_range(seg, 0, 16, 0.0)
        else:
            for page in range(16):
                kernel.reference(seg, page * 4096)
        if kind == "discard":
            # garbage is reclaimed without a migrate-back entry
            manager.mark_discardable(seg, 0, 16)
        manager.reclaim_pages(3)

        def snapshot():
            state = manager.serialize_policy_state()
            del state["counters"]
            state["stale"] = sorted(map(tuple, state["stale"]))
            if kind == "coloring":
                state["by_color"] = list(map(manager.free_of_color, range(8)))
            elif kind == "placement":
                state["by_node"] = list(map(manager.free_on_node, range(4)))
            elif kind == "dbms":
                state["pools"] = manager.pool_frames
            return state

        live = snapshot()
        assert live["resident"] and live["empty_slots"]
        records, torn = manager.journal.decode()
        assert torn == 0 and len(records) == manager.journal.position
        manager.restore_policy_state(None)
        for record in records:
            manager.replay_record(record)
        assert snapshot() == live
        assert InvariantChecker(kernel).violations() == []
