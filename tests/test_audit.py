"""Whole-system sweeps: clean systems pass, injected corruption is caught.

Each corruption is made on the stock ``system`` fixture and must surface
as a ``[check] message`` line from the invariant engine.
"""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolationError
from repro.invariants import CHECKS, InvariantChecker
from repro.managers.base import GenericSegmentManager


def findings(system, check):
    """The messages one named check reports on ``system``."""
    return CHECKS[check](system.kernel)


class TestCleanSystems:
    def test_fresh_system_is_consistent(self, system):
        checker = InvariantChecker(system.kernel)
        assert checker.violations() == []
        assert checker.checks_run == 1 and len(CHECKS) >= 5

    def test_exercised_system_is_consistent(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "work", initial_frames=64
        )
        seg = kernel.create_segment(32, manager=manager)
        for page in range(32):
            kernel.reference(seg, page * 4096, write=(page % 2 == 0))
        manager.reclaim_pages(8)
        manager.return_frames(4)
        file_seg = kernel.create_segment(
            0, name="f", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(file_seg)
        system.uio.write(file_seg, 0, b"x" * (8 * 4096))
        assert InvariantChecker(kernel).violations() == []


class TestInjectedCorruption:
    def test_detects_lost_frame(self, system):
        boot = system.kernel.initial_segment
        del boot.pages[next(iter(boot.pages))]  # corruption: it vanishes
        assert any("owned by no segment" in f
                   for f in findings(system, "frames"))

    def test_detects_double_ownership(self, system):
        kernel = system.kernel
        boot = kernel.initial_segment
        seg = kernel.create_segment(4, name="dup")
        seg.pages[0] = boot.pages[next(iter(boot.pages))]  # filed twice
        assert any("owned twice" in f for f in findings(system, "frames"))

    def test_detects_bad_backref(self, system):
        frame = next(iter(system.kernel.initial_segment.pages.values()))
        frame.owner_segment_id = 9999  # corruption
        assert any("back-pointer names segment 9999" in f
                   for f in findings(system, "frames"))

    def test_detects_stale_translation(self, system):
        kernel = system.kernel
        manager = GenericSegmentManager(
            kernel, system.spcm, "stale", initial_frames=16
        )
        seg = kernel.create_segment(4, manager=manager)
        kernel.reference(seg, 0, write=True)
        # corruption: move the frame without the kernel's shootdown
        frame = seg.pages.pop(0)
        spare = kernel.create_segment(4, name="spare")
        spare.pages[0] = frame
        frame.owner_segment_id = spare.seg_id
        assert any("entry space" in f
                   for f in findings(system, "translations"))

    def test_detects_manager_slot_confusion(self, system):
        manager = GenericSegmentManager(
            system.kernel, system.spcm, "confused", initial_frames=8
        )
        slot = manager._free_slots[0]
        manager._empty_slots.append(slot)  # corruption: both lists
        assert any(f"confused: slots listed twice: [{slot}]" == f
                   for f in findings(system, "managers"))

    def test_detects_spcm_pool_drift(self, system):
        system.spcm._free[4096].append(999_999)  # corruption
        assert any("pool(4096) != boot residency" in f
                   for f in findings(system, "spcm_pool"))

    def test_raise_if_failed(self, system):
        boot = system.kernel.initial_segment
        del boot.pages[next(iter(boot.pages))]
        with pytest.raises(InvariantViolationError, match=r"\[frames\] "):
            InvariantChecker(system.kernel).check_all()

    def test_clean_report_does_not_raise(self, system):
        InvariantChecker(system.kernel).check_all()
