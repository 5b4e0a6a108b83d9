"""Physical placement control for distributed memory (DASH, S1/S2.2).

"It may maintain different free page segments to handle distributed
physical memory on machines such as DASH ... These techniques rely on
being able to request page frames from the system page cache manager with
specific physical addresses, or in particular physical address ranges."

The manager keeps one free pool per NUMA node, stocked with SPCM
physical-range requests, and declares a *home node* per segment; each
fault is satisfied from the segment's home-node pool, falling back to any
frame when the node's memory is exhausted (counted, so experiments can see
the placement quality).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import FrameGrant, MigratePagesRequest
from repro.core.faults import FaultKind, PageFault
from repro.core.flags import PageFlags
from repro.core.segment import Segment
from repro.errors import ManagerError
from repro.hw.numa import NumaTopology
from repro.managers.base import GenericSegmentManager
from repro.spcm.spcm import FrameRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.spcm.spcm import SystemPageCacheManager


class PlacementSegmentManager(GenericSegmentManager):
    """Per-node free pools plus home-node placement."""

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        topology: NumaTopology,
        name: str = "placement-manager",
        frames_per_node: int = 16,
    ) -> None:
        self.topology = topology
        self._by_node: dict[int, list[int]] = {
            n: [] for n in range(topology.n_nodes)
        }
        super().__init__(kernel, spcm, name, initial_frames=0)
        self.segment_home: dict[int, int] = {}
        self.local_placements = 0
        self.spilled_placements = 0
        for node in range(topology.n_nodes):
            self.stock_node(node, frames_per_node)

    # ------------------------------------------------------------------
    # per-node stock
    # ------------------------------------------------------------------

    def stock_node(self, node: int, n_frames: int) -> int:
        """Request frames physically located on ``node``."""
        lo, hi = self.topology.node_range(node)
        pages = self.spcm.request_frames(
            self,
            FrameRequest(
                self.account,
                n_frames,
                page_size=self.page_size,
                phys_lo=lo,
                phys_hi=hi,
                home_node=node,
            ),
            self.free_segment,
        )
        self._by_node[node].extend(pages)
        self._free_slots.extend(pages)
        return len(pages)

    def free_on_node(self, node: int) -> int:
        """Free frames currently stocked for ``node``."""
        return len(self._by_node.get(node, []))

    def _take_node_slot(self, node: int) -> int | None:
        slots = self._by_node.get(node)
        if not slots:
            return None
        slot = slots.pop()
        self._free_slots.remove(slot)
        self._drop_stale(slot)
        self.kernel.meter.charge(
            "manager_alloc", self.kernel.costs.vpp_manager_alloc
        )
        return slot

    def _unnode_slot(self, slot: int) -> None:
        for slots in self._by_node.values():
            if slot in slots:
                slots.remove(slot)
                return

    def _surrender_slots(
        self, n_frames: int, node: int | None = None
    ) -> FrameGrant:
        grant = super()._surrender_slots(n_frames, node)
        for slot in grant.pages:
            self._unnode_slot(slot)
        return grant

    def on_frames_seized(self, grant: FrameGrant) -> None:
        super().on_frames_seized(grant)
        for slot in grant.pages:
            self._unnode_slot(slot)

    # ------------------------------------------------------------------
    # home-node segments
    # ------------------------------------------------------------------

    def create_home_segment(
        self, n_pages: int, node: int, name: str = ""
    ) -> Segment:
        """A segment whose pages should live on ``node``'s memory."""
        if not 0 <= node < self.topology.n_nodes:
            raise ManagerError(f"no such node: {node}")
        segment = self.kernel.create_segment(
            n_pages, name=name or f"{self.name}.node{node}", manager=self
        )
        self.segment_home[segment.seg_id] = node
        return segment

    def handle_fault(self, fault: PageFault) -> None:
        if fault.kind is not FaultKind.MISSING_PAGE:
            super().handle_fault(fault)
            return
        home = self.segment_home.get(fault.segment_id)
        if home is None:
            super().handle_fault(fault)
            return
        self.faults_handled += 1
        segment = self.kernel.segment(fault.segment_id)
        slot = self._take_node_slot(home)
        if slot is None and self.stock_node(home, self.refill_batch):
            slot = self._take_node_slot(home)
        if slot is not None:
            self.local_placements += 1
        else:
            # the node's memory is exhausted: place anywhere (counted)
            self.spilled_placements += 1
            slot = self.allocate_slot()
            self._unnode_slot(slot)
        self.kernel.migrate_pages(
            MigratePagesRequest(
                self.free_segment,
                segment,
                slot,
                fault.page,
                set_flags=PageFlags.READ | PageFlags.WRITE,
                clear_flags=PageFlags.REFERENCED,
                home_node=home,
            )
        )
        self._empty_slots.append(slot)
        self._note_resident(segment, fault.page)

    def reclaim_one(self, segment: Segment, page: int) -> None:
        frame = segment.pages.get(page)
        node = (
            self.topology.node_of(frame.phys_addr)
            if frame is not None
            else None
        )
        before = set(self._free_slots)
        super().reclaim_one(segment, page)
        if node is None:
            return
        for slot in self._free_slots:
            if slot not in before:
                self._by_node[node].append(slot)

    # ------------------------------------------------------------------
    # placement quality
    # ------------------------------------------------------------------

    def locality_report(self, segment: Segment) -> dict[str, float]:
        """Fraction of the segment's resident pages on its home node, and
        the mean per-reference access cost from that node."""
        home = self.segment_home.get(segment.seg_id)
        if home is None:
            raise ManagerError(f"{segment.name} has no home node")
        if not segment.pages:
            return {"local_fraction": 1.0, "mean_access_us": 0.0}
        local = sum(
            self.topology.is_local(home, f.phys_addr)
            for f in segment.pages.values()
        )
        mean_cost = sum(
            self.topology.access_us(home, f.phys_addr)
            for f in segment.pages.values()
        ) / len(segment.pages)
        return {
            "local_fraction": local / len(segment.pages),
            "mean_access_us": mean_cost,
        }
