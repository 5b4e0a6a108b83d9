"""Property-based SPCM tests: random grant/return/pressure histories."""

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
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.spcm.policy import ReservePolicy
from repro.spcm.spcm import FrameRequest, SystemPageCacheManager

TOTAL_FRAMES = 128
N_MANAGERS = 3


class SPCMMachine(RuleBasedStateMachine):
    """Random allocation traffic from several managers."""

    @initialize()
    def boot(self):
        self.kernel = Kernel(PhysicalMemory(TOTAL_FRAMES * 4096))
        self.spcm = SystemPageCacheManager(
            self.kernel, policy=ReservePolicy(reserve_frames=4)
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

    @rule(who=st.integers(0, N_MANAGERS - 1), n=st.integers(1, 32))
    def request(self, who, n):
        self.managers[who].request_frames(n)

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

    @invariant()
    def frames_add_up(self):
        held = sum(self.spcm.frames_held.values())
        free = self.spcm.available_frames()
        assert held + free == TOTAL_FRAMES

    @invariant()
    def full_sweep_passes(self):
        assert InvariantChecker(self.kernel).violations() == []


TestSPCMMachine = SPCMMachine.TestCase
TestSPCMMachine.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
