"""Property-based SPCM tests: random grant/return/pressure histories.

The machine runs on a flat kernel and on a 2-node kernel.  Every grant it
makes directly is checked against a reference computed from the boot
segment before the call: the SPCM must hand out exactly the lowest free
boot pages, the preferred node's first.  That pins the free list's
low-water marks: every return and every sweep of a deleted segment must
bring a mark back down below the page it frees.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.kernel import Kernel
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import FrameRequest, SystemPageCacheManager

TOTAL_FRAMES = 128
N_MANAGERS = 3
RESERVE = 4

#: a request's placement hint: none, or one of the 2-node kernel's nodes
HOME_NODES = st.none() | st.integers(0, 1)


class SPCMMachine(RuleBasedStateMachine):
    """Random allocation traffic from several managers on a flat kernel."""

    n_nodes: int | None = None

    @initialize()
    def boot(self):
        memory = PhysicalMemory(TOTAL_FRAMES * 4096)
        topology = (
            NumaTopology.for_memory(memory, self.n_nodes)
            if self.n_nodes
            else None
        )
        self.kernel = Kernel(memory, topology=topology)
        self.spcm = SystemPageCacheManager(
            self.kernel, policy=ReservePolicy(reserve_frames=RESERVE)
        )
        self.managers = [
            GenericSegmentManager(
                self.kernel, self.spcm, f"m{i}", initial_frames=0
            )
            for i in range(N_MANAGERS)
        ]
        self.segments = [
            self.kernel.create_segment(16, name=f"s{i}", manager=m)
            for i, m in enumerate(self.managers)
        ]

    def _node_of(self, page: int) -> int:
        topology = self.kernel.topology
        if topology is None:
            return 0
        frame = self.kernel.initial_segment.pages[page]
        return topology.node_of(frame.phys_addr)

    def _grant(self, who, n, home, dst) -> list[int]:
        """Grant ``n`` frames into ``dst``, checked against the reference
        grant order; returns the destination pages."""
        manager = self.managers[who]
        free = sorted(self.kernel.initial_segment.pages)
        prefer = home if self.kernel.topology is not None else None
        expected = sorted(free, key=lambda p: self._node_of(p) != prefer)
        n_expected = min(n, max(0, len(free) - RESERVE))
        pages = self.spcm.request_frames(
            manager,
            FrameRequest(manager.account, n, home_node=home),
            dst,
        )
        granted = [self.kernel.home_of(dst.pages[p])[1] for p in pages]
        assert sorted(granted) == sorted(expected[:n_expected])
        return pages

    @rule(
        who=st.integers(0, N_MANAGERS - 1),
        n=st.integers(1, 32),
        home=HOME_NODES,
    )
    def request(self, who, n, home):
        manager = self.managers[who]
        manager._free_slots.extend(
            self._grant(who, n, home, manager.free_segment)
        )

    @rule(who=st.integers(0, N_MANAGERS - 1), n=st.integers(1, 32))
    def give_back(self, who, n):
        self.managers[who].return_frames(n)

    @rule(
        who=st.integers(0, N_MANAGERS - 1),
        page=st.integers(0, 15),
        write=st.booleans(),
    )
    def touch(self, who, page, write):
        from repro.errors import OutOfFramesError

        try:
            self.kernel.reference(
                self.segments[who], page * 4096, write=write
            )
        except OutOfFramesError:
            pass  # a legal outcome under total exhaustion

    @rule(who=st.integers(0, N_MANAGERS - 1), n=st.integers(1, 16))
    def pressure(self, who, n):
        self.spcm.force_reclaim(self.managers[who], n)

    @rule(
        who=st.integers(0, N_MANAGERS - 1),
        lo=st.integers(0, TOTAL_FRAMES - 1),
        span=st.integers(1, 64),
    )
    def constrained_request(self, who, lo, span):
        manager = self.managers[who]
        pages = self.spcm.request_frames(
            manager,
            FrameRequest(
                manager.account,
                4,
                phys_lo=lo * 4096,
                phys_hi=(lo + span) * 4096,
            ),
            manager.free_segment,
        )
        manager._free_slots.extend(pages)
        for page in pages:
            frame = manager.free_segment.pages[page]
            assert lo * 4096 <= frame.phys_addr < (lo + span) * 4096

    @rule(pick=st.integers(0, TOTAL_FRAMES - 1))
    def retire_free_frame(self, pick):
        pages = sorted(self.kernel.initial_segment.pages)
        if pages:
            page = pages[pick % len(pages)]
            self.kernel.retire_frame(self.kernel.initial_segment.pages[page])

    @rule(who=st.integers(0, N_MANAGERS - 1), pick=st.integers(0, 63))
    def retire_free_slot_frame(self, who, pick):
        manager = self.managers[who]
        if manager._free_slots:
            slot = manager._free_slots[pick % len(manager._free_slots)]
            self.kernel.retire_frame(manager.free_segment.pages[slot])
            assert slot not in manager._free_slots
            assert slot in manager._empty_slots

    @rule(
        who=st.integers(0, N_MANAGERS - 1),
        n=st.integers(1, 16),
        home=HOME_NODES,
    )
    def grant_into_bare_segment_then_delete_it(self, who, n, home):
        bare = self.kernel.create_segment(0, name="bare")
        self._grant(who, n, home, bare)
        self.kernel.delete_segment(bare)

    @invariant()
    def frames_add_up(self):
        held = sum(self.spcm.frames_held.values())
        free = self.spcm.available_frames()
        retired = len(self.kernel.retired_frames)
        assert held + free + retired == TOTAL_FRAMES

    @invariant()
    def full_sweep_passes(self):
        assert InvariantChecker(self.kernel).violations() == []


class TwoNodeSPCMMachine(SPCMMachine):
    """The same traffic on a 2-node kernel: one SPCM shard per node."""

    n_nodes = 2


MACHINE_SETTINGS = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
TestSPCMMachine = SPCMMachine.TestCase
TestSPCMMachine.settings = MACHINE_SETTINGS
TestTwoNodeSPCMMachine = TwoNodeSPCMMachine.TestCase
TestTwoNodeSPCMMachine.settings = MACHINE_SETTINGS
