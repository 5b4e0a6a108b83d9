"""The observability layer: tracer, exporters, trace CLI, integration.

The integration tests pin the property the layer exists for: a traced
default-manager page fault yields exactly the Figure-2 span sequence,
and the per-span self-costs partition the kernel cost meter's total.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import build_system
from repro.core.faults import FaultTrace, TraceStep
from repro.obs import NULL_TRACER, NullTracer, SpanTree, Tracer
from repro.obs.critical_path import events_by_span
from repro.obs.export import (
    fault_breakdown,
    read_jsonl,
    render_breakdown,
    render_flame,
    to_jsonl,
    validate_record,
    write_jsonl,
)
from repro.obs.records import TraceStep as ObsTraceStep
from repro.obs.trace import get_global_tracer, set_global_tracer
from repro.sim.stats import Tally


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestNullTracer:
    def test_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        # the null span is a reusable singleton context manager
        s1 = NULL_TRACER.span("kernel", "x")
        s2 = NULL_TRACER.span("manager", "y", attr=1)
        assert s1 is s2
        with s1 as inner:
            inner.set_attr("k", "v")  # discarded, no error
        NULL_TRACER.event("kernel", "noop", 5.0)
        NULL_TRACER.reset()

    def test_global_tracer_default(self):
        assert get_global_tracer() is NULL_TRACER
        t = Tracer()
        set_global_tracer(t)
        try:
            assert get_global_tracer() is t
        finally:
            set_global_tracer(NULL_TRACER)


class TestSpans:
    def test_nesting_assigns_parents(self):
        t = Tracer()
        with t.span("application", "page_fault"):
            with t.span("kernel", "dispatch_fault"):
                with t.span("manager", "handle_fault"):
                    pass
            with t.span("kernel", "MigratePages"):
                pass
        a, b, c, d = t.spans
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id
        assert d.parent_id == a.span_id  # sibling of dispatch_fault
        assert all(s.closed for s in t.spans)
        tree = SpanTree(t.spans)
        assert tree.roots() == [a]
        assert tree.children(a) == [b, d]
        assert [s.span_id for s in tree.walk(a)] == [1, 2, 3, 4]

    def test_clock_drives_durations_and_self_cost(self):
        now = [0.0]
        t = Tracer(clock=lambda: now[0])
        with t.span("application", "page_fault"):
            now[0] += 20.0
            with t.span("kernel", "dispatch_fault"):
                now[0] += 100.0
            now[0] += 7.0
        root, child = t.spans
        assert root.duration_us == 127.0
        assert child.duration_us == 100.0
        tree = SpanTree(t.spans)
        assert tree.self_us(root) == 27.0
        assert tree.self_us(child) == 100.0

    def test_events_attach_to_innermost_span(self):
        t = Tracer()
        t.event("application", "before any span")
        with t.span("kernel", "dispatch_fault") as span:
            t.event("kernel", "forward fault", 15.0)
        outside, inside = t.events
        assert outside.span_id is None
        assert inside.span_id == span.record.span_id
        assert inside.cost_us == 15.0
        assert events_by_span(t.events)[t.spans[0].span_id] == [inside]
        # step numbers count emission order
        assert [e.step for e in t.events] == [1, 2]

    def test_exception_closes_span_and_marks_error(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("manager", "handle_fault"):
                raise RuntimeError("boom")
        (span,) = t.spans
        assert span.closed
        assert span.attrs["error"] == "RuntimeError"
        assert t.current_span is None

    def test_out_of_order_exit_closes_inner_spans(self):
        now = [0.0]
        t = Tracer(clock=lambda: now[0])
        outer = t.span("kernel", "outer")
        middle = t.span("manager", "middle")
        inner = t.span("manager", "inner-left-open")
        now[0] = 10.0
        middle.__exit__(None, None, None)
        assert [s.t_end_us for s in t.spans] == [None, 10.0, 10.0]
        # the late exit of a span already closed leaves the outer one open
        now[0] = 20.0
        inner.__exit__(None, None, None)
        now[0] = 30.0
        outer.__exit__(None, None, None)
        assert [s.t_end_us for s in t.spans] == [30.0, 10.0, 10.0]
        assert t.current_span is None

    def test_reset(self):
        t = Tracer()
        with t.span("kernel", "x"):
            t.event("kernel", "e")
        t.reset()
        assert t.spans == [] and t.events == []
        with t.span("kernel", "y"):
            pass
        assert t.spans[0].span_id == 1  # ids restart


class TestTallySummary:
    def test_summary_keys_and_values(self):
        t = Tally("x")
        for v in range(1, 101):
            t.record(float(v))
        assert t.count == 100
        assert t.minimum == 1.0 and t.maximum == 100.0
        assert t.percentile(50) == 50.0
        assert t.percentile(90) == 90.0
        assert t.percentile(99) == 99.0

    def test_percentile_zero_is_minimum(self):
        t = Tally("x")
        for v in (5.0, 1.0, 9.0):
            t.record(v)
        assert t.percentile(0) == 1.0
        assert t.percentile(100) == 9.0

    def test_nearest_rank_clamps_tiny_samples_to_minimum(self):
        t = Tally("x")
        t.record(10.0)
        t.record(20.0)
        # any 0 < p <= 50 lands on rank 1 with two observations
        assert t.percentile(25) == 10.0
        assert t.percentile(50) == 10.0
        assert t.percentile(51) == 20.0


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _sample_tracer() -> Tracer:
    now = [0.0]
    t = Tracer(clock=lambda: now[0])
    with t.span("application", "page_fault", vpn=3):
        now[0] += 20.0
        t.event("application", "trap", 20.0)
        with t.span("kernel", "dispatch_fault", kind="MISSING_PAGE"):
            now[0] += 87.0
    return t


class TestJsonl:
    def test_round_trip(self, tmp_path):
        t = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(t.spans + t.events, path)
        records = read_jsonl(str(path))
        assert records.spans == t.spans
        assert records.events == t.events

    def test_round_trip_from_stream(self):
        t = _sample_tracer()
        records = read_jsonl(io.StringIO(to_jsonl(t.spans + t.events)))
        assert records.spans == t.spans and records.events == t.events

    def test_every_line_validates(self):
        t = _sample_tracer()
        for line in to_jsonl(t.spans + t.events).splitlines():
            validate_record(json.loads(line))

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown record type"):
            validate_record({"type": "metric"})

    def test_validate_rejects_missing_required(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_record({"type": "event", "actor": "kernel"})

    def test_validate_rejects_unknown_fields(self):
        record = _sample_tracer().spans[0].to_dict()
        record["color"] = "red"
        with pytest.raises(ValueError, match="unknown fields"):
            validate_record(record)

    def test_validate_rejects_wrong_field_type(self):
        record = _sample_tracer().spans[0].to_dict()
        record["span_id"] = "one"
        with pytest.raises(ValueError, match="span_id"):
            validate_record(record)

    def test_read_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "metric"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_jsonl(str(path))


class TestRenders:
    def test_flame_shows_tree_costs_and_events(self):
        t = _sample_tracer()
        text = render_flame(t)
        assert "application/page_fault  total=107.0us  self=20.0us" in text
        assert "  kernel/dispatch_fault  total=87.0us" in text
        assert "* [application] trap  (20 us)" in text

    def test_breakdown_partitions_total(self):
        t = _sample_tracer()
        phases = fault_breakdown(t)
        assert phases["application/page_fault"]["self_us"] == 20.0
        assert phases["kernel/dispatch_fault"]["self_us"] == 87.0
        assert sum(b["self_us"] for b in phases.values()) == 107.0
        text = render_breakdown(t)
        assert "total" in text and "107.0" in text


# ---------------------------------------------------------------------------
# shared record type (FaultTrace <-> tracer)
# ---------------------------------------------------------------------------


class TestSharedRecords:
    def test_faults_reexports_obs_tracestep(self):
        assert TraceStep is ObsTraceStep

    def test_fault_trace_from_events_renumbers(self):
        t = Tracer()
        with t.span("kernel", "dispatch_fault"):
            t.event("kernel", "forward", 15.0)
            t.event("manager", "resume", 20.0)
        trace = FaultTrace.from_events(t.events)
        assert [s.step for s in trace.steps] == [1, 2]
        assert trace.total_cost_us == 35.0
        assert trace.steps[0].actor == "kernel"


# ---------------------------------------------------------------------------
# integration: the Figure-2 fault under the tracer
# ---------------------------------------------------------------------------

#: The Figure-2 steps as span (component, operation) pairs, in DFS order.
FIGURE2_SPANS = [
    ("application", "page_fault"),
    ("kernel", "dispatch_fault"),
    ("manager", "handle_fault"),
    ("manager", "fill_page"),
    ("file_server", "fetch_page"),
    ("kernel", "MigratePages"),
]


@pytest.fixture
def traced_fault():
    """One default-manager fault on a cached file, traced."""
    tracer = Tracer()
    system = build_system(memory_mb=8, tracer=tracer)
    kernel = system.kernel
    file_seg = kernel.create_segment(
        0, name="fig2-file", manager=system.default_manager, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"fig2" * 2048)
    space = kernel.create_segment(8, name="fig2-space")
    space.bind(0, 2, file_seg, 0)
    tracer.reset()  # drop boot-time spans
    before = kernel.meter.total_us
    kernel.reference(space, 0, write=False)
    return tracer, kernel.meter.total_us - before


class TestFigure2Integration:
    def test_exact_span_sequence(self, traced_fault):
        tracer, _ = traced_fault
        tree = SpanTree(tracer.spans)
        (root,) = tree.roots()
        got = [(s.component, s.operation) for s in tree.walk(root)]
        assert got == FIGURE2_SPANS

    def test_self_costs_partition_meter_total(self, traced_fault):
        tracer, metered = traced_fault
        tree = SpanTree(tracer.spans)
        (root,) = tree.roots()
        spans = tree.walk(root)
        assert root.duration_us == pytest.approx(metered)
        assert sum(tree.self_us(s) for s in spans) == pytest.approx(metered)
        # the paper's observation: the page fill dominates
        fetch = next(s for s in spans if s.operation == "fetch_page")
        assert fetch.duration_us > 0.9 * metered

    def test_span_attrs_identify_the_fault(self, traced_fault):
        tracer, _ = traced_fault
        tree = SpanTree(tracer.spans)
        (root,) = tree.roots()
        assert root.attrs == {
            "space": "fig2-space",
            "vpn": 0,
            "write": False,
        }
        dispatch = tree.children(root)[0]
        assert dispatch.attrs["kind"] == "MISSING_PAGE"
        assert dispatch.attrs["manager"] == "default-manager"

    def test_fault_trace_rebuilds_from_tracer_events(self, traced_fault):
        tracer, _ = traced_fault
        trace = FaultTrace.from_events(tracer.events)
        actors = [s.actor for s in trace.steps]
        # the tracer sees one layer deeper than Figure 2: the TLB miss
        # that raised the fault comes first
        assert actors[0] == "tlb"
        assert actors[1] == "application"
        assert "file server" in actors
        assert actors[-1] == "manager"
        assert actors.index("application") < actors.index("file server")

    def test_disabled_tracer_records_nothing(self):
        system = build_system(memory_mb=8)  # NULL_TRACER by default
        assert system.tracer is NULL_TRACER
        seg = system.kernel.create_segment(
            8, name="quiet", manager=system.default_manager
        )
        system.kernel.reference(seg, 0, write=True)
        # the metered cost is still the paper's default-manager fault
        assert system.meter.total_us > 0


# ---------------------------------------------------------------------------
# the trace CLI: ``python -m repro trace figure2``
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_figure2_report_and_jsonl(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "figure2.jsonl"
        assert main(["figure2", "--out", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (
            "application/page_fault  total=18119.0us  self=20.0us  (100.0%)"
            in lines
        )
        # the phase breakdown, then the attribution, each sum to the fault
        totals = [ln.split() for ln in lines if ln.split()[:1] == ["total"]]
        assert totals == [["total", "18119.0"], ["total", "18119.0", "us"]]
        start = lines.index("critical path:") + 1
        hops = [ln.split()[1] for ln in lines[start : lines.index("", start)]]
        assert hops == [
            "application/page_fault",
            "kernel/dispatch_fault",
            "manager/handle_fault",
            "manager/fill_page",
            "file_server/fetch_page",
        ]
        assert "metered cost of the fault: 18119.0 us" in lines
        spans, events, *_ = read_jsonl(str(path))
        assert (len(spans), len(events)) == (6, 12)


# ---------------------------------------------------------------------------
# integration: manager failover under injection (golden degradation trace)
# ---------------------------------------------------------------------------

#: The degradation path as span (component, operation) pairs, in DFS order:
#: the victim manager times out, the kernel fails its segments over to the
#: default manager (SPCM seizing the victim's frame stock on the way), and
#: the re-dispatched fault resolves via the ordinary Figure-2 tail.
FAILOVER_SPANS = [
    ("application", "page_fault"),
    ("kernel", "dispatch_fault"),
    ("kernel", "manager_failover"),
    ("spcm", "seize_frames"),
    ("kernel", "dispatch_fault"),
    ("manager", "handle_fault"),
    ("manager", "fill_page"),
    ("file_server", "fetch_page"),
    ("kernel", "MigratePages"),
]


@pytest.fixture
def traced_failover():
    """One fault whose manager hangs exactly once, traced end to end."""
    from repro.chaos import ChaosPlan, Injector
    from repro.managers.default_manager import DefaultSegmentManager

    tracer = Tracer()
    system = build_system(memory_mb=8, tracer=tracer)
    kernel = system.kernel
    victim = DefaultSegmentManager(
        kernel,
        system.spcm,
        system.file_server,
        initial_frames=0,
        name="victim-ucds",
    )
    file_seg = kernel.create_segment(
        0, name="fo-file", manager=victim, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"fig2" * 2048)
    space = kernel.create_segment(8, name="fo-space")
    space.bind(0, 2, file_seg, 0)
    injector = Injector(
        ChaosPlan(
            seed=0,
            manager_hang_rate=1.0,
            max_injections=1,
            target_managers=("victim-ucds",),
        ),
    )
    injector.install(system)
    tracer.reset()  # drop boot/setup spans
    kernel.reference(space, 0, write=False)
    return tracer, kernel


class TestFailoverGoldenTrace:
    def test_exact_span_sequence(self, traced_failover):
        tracer, _ = traced_failover
        tree = SpanTree(tracer.spans)
        (root,) = tree.roots()
        got = [(s.component, s.operation) for s in tree.walk(root)]
        assert got == FAILOVER_SPANS

    def test_failover_span_names_the_handoff(self, traced_failover):
        tracer, _ = traced_failover
        tree = SpanTree(tracer.spans)
        (root,) = tree.roots()
        spans = tree.walk(root)
        failover = next(s for s in spans if s.operation == "manager_failover")
        assert failover.attrs["failed"] == "victim-ucds"
        assert failover.attrs["to"] == "default-manager"
        assert failover.attrs["reason"] == "timed out"
        # the re-dispatch resolves via the fallback manager
        redispatch = [s for s in spans if s.operation == "dispatch_fault"][1]
        assert redispatch.attrs["manager"] == "default-manager"

    def test_degradation_counters(self, traced_failover):
        _, kernel = traced_failover
        stats = kernel.stats.as_dict()
        assert stats["manager_timeouts"] == 1.0
        assert stats["manager_failovers"] == 1.0
        assert stats["fallback_resolutions"] == 1.0
        assert stats["manager_calls.victim-ucds"] == 1.0
        assert stats["manager_calls.default-manager"] == 1.0
