"""Physical placement control for distributed memory (DASH, S1/S2.2).

"It may maintain different free page segments to handle distributed
physical memory on machines such as DASH ... These techniques rely on
being able to request page frames from the system page cache manager with
specific physical addresses, or in particular physical address ranges."

The manager stocks its free segment with SPCM physical-range requests,
one per NUMA node, and declares a *home node* per segment.  Through the
generic supply path's frame-choice hook, each fault on a homed segment is
backed by a free frame on the home node, falling back to any frame when
the node's memory is exhausted (counted, so experiments can see the
placement quality).  A free frame's node is read from its physical
address, so the stock needs no per-node lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.faults import PageFault
from repro.core.segment import Segment
from repro.errors import ManagerError
from repro.hw.numa import NumaTopology
from repro.managers.base import GenericSegmentManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.spcm.spcm import SystemPageCacheManager


class PlacementSegmentManager(GenericSegmentManager):
    """Per-node frame stocks plus home-node placement."""

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        topology: NumaTopology,
        name: str = "placement-manager",
        frames_per_node: int = 16,
    ) -> None:
        self.topology = topology
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
        return self.request_frames(
            n_frames, phys_lo=lo, phys_hi=hi, home_node=node
        )

    def free_on_node(self, node: int) -> int:
        """Free frames currently stocked for ``node``."""
        pages = self.free_segment.pages
        node_of = self.topology.node_of
        return sum(
            1
            for slot in self._free_slots
            if node_of(pages[slot].phys_addr) == node
        )

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

    def home_node_for(self, segment: Segment) -> int | None:
        """The segment's home node (``None``: it has none)."""
        return self.segment_home.get(segment.seg_id)

    def choose_slot(self, segment: Segment, fault: PageFault) -> int:
        """A free frame on the segment's home node, restocking the node
        once when it has none (counted local), else any free frame
        (counted spilled).  A segment with no home takes any frame."""
        home = self.segment_home.get(segment.seg_id)
        if home is None:
            return self.allocate_slot()
        node_of = self.topology.node_of

        def on_home(frame) -> bool:
            return node_of(frame.phys_addr) == home

        slot = self.take_slot(on_home)
        if slot is None and self.stock_node(home, self.refill_batch):
            slot = self.take_slot(on_home)
        if slot is not None:
            self.local_placements += 1
            return slot
        # the node's memory is exhausted: place anywhere (counted)
        self.spilled_placements += 1
        return self.allocate_slot()

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
