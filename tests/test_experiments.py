"""The experiment drivers: every table and figure regenerates."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    figure1_address_space,
    figure2_fault_trace,
    table1_primitives,
)
from repro.analysis.tables import format_table, ratio
from repro.obs.trace import NULL_TRACER, Tracer, set_global_tracer


class TestTable1Driver:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.name: r for r in table1_primitives()}

    def test_every_primitive_matches_paper_exactly(self, rows):
        for name, row in rows.items():
            assert row.measured == row.paper, name

    def test_paper_values_present(self, rows):
        values = {r.paper for r in rows.values()}
        assert {107.0, 379.0, 175.0, 222.0, 203.0, 211.0, 311.0, 152.0} == values

    def test_relative_error_zero(self, rows):
        assert all(r.relative_error == 0.0 for r in rows.values())


class TestFigureDrivers:
    def test_figure1_names_all_regions_and_translations(self):
        text = figure1_address_space()
        for token in ("code", "data", "stack", "pfn", "vaddr"):
            assert token in text

    def test_figure2_trace_has_the_five_roles(self):
        trace = figure2_fault_trace()
        actors = {s.actor for s in trace.steps}
        assert {"application", "kernel", "manager", "file server"} <= actors
        rendered = trace.render()
        assert "MigratePages" in rendered
        assert trace.total_cost_us > 0

    def test_figure2_step_order(self):
        trace = figure2_fault_trace()
        actor_sequence = [s.actor for s in trace.steps]
        # fault first, file server before the migrate, resume last
        assert actor_sequence[0] == "application"
        assert actor_sequence[-1] == "manager"
        assert actor_sequence.index("file server") < [
            i
            for i, s in enumerate(trace.steps)
            if "MigratePages" in s.action
        ].pop()


FIGURE2_TEXT = """\
  1. [application] read of page 0 traps to kernel  (20 us)
  2. [kernel] forward MISSING_PAGE fault (segment fig2-file, page 0) to \
manager default-manager  (15 us)
  3. [manager] request data for page 0 of fig2-file from the file server
  4. [file server] reply with page data  (17560 us)
  5. [kernel] MigratePages: 1 frame(s) default-manager.free -> fig2-file \
page 0  (35 us)
  6. [manager] migrate frame pfn=1023 into fig2-file page 0
  7. [manager] reply to faulting process; application resumes  (20 us)"""


class TestFigure2Text:
    """The figure is exactly the same with or without a global tracer."""

    def _check(self, trace) -> None:
        assert trace.render() == FIGURE2_TEXT
        assert len(trace.steps) == 7
        assert [s.step for s in trace.steps] == list(range(1, 8))
        assert trace.total_cost_us == 17650

    def test_without_a_tracer(self):
        self._check(figure2_fault_trace())

    def test_under_the_global_tracer(self):
        tracer = Tracer()
        tracer.event("test", "recorded before the figure")
        set_global_tracer(tracer)
        try:
            trace = figure2_fault_trace()
        finally:
            set_global_tracer(NULL_TRACER)
        self._check(trace)
        # earlier records survive, and the fault's events were recorded
        assert tracer.events[0].action == "recorded before the figure"
        actions = [e.action for e in tracer.events]
        for step in trace.steps:
            assert step.action in actions
        assert any(s.operation == "page_fault" for s in tracer.spans)


class TestTableFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            "T", ("name", "v"), [("a", 1), ("long-name", 22)], caption="c"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in text and "c" in text
        # numeric column right-aligned (rows precede the rule and caption)
        assert lines[-3].endswith("22")

    def test_ratio(self):
        assert ratio(50.0, 100.0) == "0.50x"
        assert ratio(1.0, 0.0) == "-"
