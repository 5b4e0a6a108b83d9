"""The zero-overhead contract of the disabled observability hooks.

With :data:`NULL_TRACER`, :data:`NULL_INJECTOR` and no kernel listeners
installed (the benchmarked configuration), the fault path must not
allocate a single block on behalf of tracing or injection --- the null
objects hand out shared singletons and every hook site is guarded by an
``enabled`` flag.  These tests pin that contract with tracemalloc so an
accidental allocation on the hot path (a span record built before the
``enabled`` check, an f-string in a guard) fails CI rather than quietly
taxing every benchmark.
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro.chaos.injector as injector_mod
import repro.obs.records as records_mod
import repro.obs.trace as trace_mod
from repro import build_system
from repro.chaos.injector import NULL_INJECTOR
from repro.hw.disk import Disk
from repro.obs.trace import NULL_TRACER
from repro.verify.oracle import build_vpp_system, drive_vpp
from repro.verify.schedule import figure2_schedule

#: the files whose allocations the null configuration must not touch
_OBSERVABILITY_FILES = (
    trace_mod.__file__,
    records_mod.__file__,
    injector_mod.__file__,
)


def _blocks_allocated_in(snapshot, path: str) -> int:
    """Live tracemalloc blocks attributed to ``path``."""
    stats = snapshot.filter_traces(
        (tracemalloc.Filter(True, path),)
    ).statistics("filename")
    return sum(stat.count for stat in stats)


class TestNullSingletons:
    def test_null_tracer_span_is_shared(self):
        """Every null span is the same object: opening one costs nothing."""
        a = NULL_TRACER.span("kernel", "dispatch_fault", kind="x")
        b = NULL_TRACER.span("manager", "handle_fault")
        assert a is b
        with a as span:
            span.set_attr("k", "v")

    def test_null_objects_read_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_INJECTOR.enabled is False


class TestFaultPathAllocations:
    def test_serviced_faults_allocate_nothing_for_tracing(self):
        """A full Figure-2 drive with the nulls installed retains zero
        blocks from the trace, record, or injector modules."""
        schedule = figure2_schedule()
        # warm-up drive: fills import-time and memoization caches so the
        # measured drive sees only steady-state fault-path allocations
        system, _manager, segments = build_vpp_system(schedule)
        drive_vpp(system, schedule, segments)

        system, _manager, segments = build_vpp_system(schedule)
        kernel = system.kernel
        assert kernel.tracer is NULL_TRACER
        assert kernel.supervisor.injector is NULL_INJECTOR
        assert not kernel._fault_listeners
        assert not kernel.supervisor._listeners

        tracemalloc.start()
        try:
            drive_vpp(system, schedule, segments)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        assert kernel.stats.faults > 0  # the drive really faulted
        for path in _OBSERVABILITY_FILES:
            assert _blocks_allocated_in(snapshot, path) == 0, (
                f"null-dispatch fault path allocated blocks in {path}"
            )


class TestDiskOffPath:
    def test_file_io_never_consults_injector_or_tracer(self, monkeypatch):
        """With the nulls installed, filling pages from a file and writing
        them back reads and writes the disk without one call into its
        injection or trace hooks."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("disk hook called with its switch off")

        monkeypatch.setattr(Disk, "_injected_factor", forbidden)
        monkeypatch.setattr(Disk, "_note_io", forbidden)
        system = build_system(
            memory_mb=8, manager_frames=128, tracer=NULL_TRACER
        )
        disk = system.disk
        assert disk.tracer is NULL_TRACER
        assert disk.injector is NULL_INJECTOR
        seg = system.kernel.create_segment(
            0, name="f", manager=system.default_manager, auto_grow=True
        )
        data = bytes(range(256)) * 64  # four pages
        system.file_server.create_file(seg, data=data)
        reads = disk.stats.reads
        assert system.uio.read(seg, 0, len(data)) == data
        assert disk.stats.reads - reads == 4  # every page came from disk
        system.uio.write(seg, 0, b"x" * 4096)
        writes = disk.stats.writes
        system.default_manager.file_closed(seg, writeback=True)
        assert disk.stats.writes == writes + 1
        with pytest.raises(AssertionError):
            disk._injected_factor("read", 0)  # the patch is live
