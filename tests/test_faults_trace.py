"""Fault descriptions and trace rendering."""

from __future__ import annotations

import pytest

from repro.core.faults import FaultKind, FaultTrace, PageFault, TraceStep


class TestPageFault:
    def test_describe(self):
        fault = PageFault(3, 7, FaultKind.MISSING_PAGE, write=True)
        text = fault.describe()
        assert "write" in text and "page 7" in text and "segment 3" in text
        fault = PageFault(3, 7, FaultKind.PROTECTION, write=False)
        assert "read" in fault.describe()

    def test_frozen(self):
        fault = PageFault(1, 2, FaultKind.COPY_ON_WRITE, write=True)
        try:
            fault.page = 3  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_fields_and_defaults(self):
        """The tuple record keeps the dataclass's fields, order and
        defaults."""
        assert PageFault._fields == (
            "segment_id", "page", "kind", "write", "space_id", "vaddr"
        )
        fault = PageFault(3, 7, FaultKind.MISSING_PAGE, False)
        assert (fault.space_id, fault.vaddr) == (None, None)
        assert fault == PageFault(
            segment_id=3, page=7, kind=FaultKind.MISSING_PAGE, write=False,
            space_id=None, vaddr=None,
        )

    def test_immutable_without_attributes(self):
        fault = PageFault(1, 2, FaultKind.PROTECTION, write=False)
        for name in PageFault._fields:
            with pytest.raises(AttributeError):
                setattr(fault, name, None)
        with pytest.raises(AttributeError):
            fault.extra = 1  # type: ignore[attr-defined]

    def test_hashable(self):
        fault = PageFault(1, 2, FaultKind.MISSING_PAGE, True, 5, 8192)
        twin = PageFault(*fault)
        assert hash(twin) == hash(fault)
        assert len({fault, twin}) == 1


class TestFaultTrace:
    def test_steps_numbered_in_order(self):
        trace = FaultTrace()
        trace.add("application", "traps", 20.0)
        trace.add("kernel", "forwards", 15.0)
        trace.add("manager", "resolves")
        assert [s.step for s in trace.steps] == [1, 2, 3]
        assert trace.total_cost_us == 35.0

    def test_render_shows_actors_and_costs(self):
        trace = FaultTrace()
        trace.add("kernel", "forwards fault", 15.0)
        trace.add("manager", "migrates frame")
        text = trace.render()
        assert "[kernel]" in text
        assert "(15 us)" in text
        assert "[manager] migrates frame" in text

    def test_trace_step_fields(self):
        step = TraceStep(1, "kernel", "x", 5.0)
        assert (step.step, step.actor, step.action, step.cost_us) == (
            1,
            "kernel",
            "x",
            5.0,
        )
