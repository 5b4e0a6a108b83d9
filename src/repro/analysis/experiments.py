"""Drivers that regenerate every table and figure of the evaluation.

Each driver *executes the modeled code paths* and reads measured costs off
the cost meters --- nothing here returns a constant from the paper; the
paper's numbers appear only as the ``paper`` field of each row for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import System, build_system
from repro.baseline.ultrix_vm import UltrixVM
from repro.core.address_space import build_figure1_layout
from repro.core.faults import FaultTrace
from repro.core.flags import PageFlags
from repro.dbms.simulator import (
    PAPER_TABLE4,
    TPResult,
    run_tp_experiment,
    table4_configurations,
)
from repro.hw.costs import DECSTATION_5000_200
from repro.hw.phys_mem import PhysicalMemory
from repro.managers.base import GenericSegmentManager
from repro.obs.trace import Tracer, get_global_tracer
from repro.workloads.apps import standard_applications
from repro.workloads.runner import RunResult, run_on_ultrix, run_on_vpp


@dataclass(frozen=True)
class MeasuredRow:
    """One measurement with its paper target."""

    name: str
    measured: float
    paper: float
    unit: str = "us"

    @property
    def relative_error(self) -> float:
        if self.paper == 0:
            return 0.0
        return abs(self.measured - self.paper) / self.paper


# ---------------------------------------------------------------------------
# Table 1: system primitive times
# ---------------------------------------------------------------------------


def _measure_vpp_fault(system: System, manager) -> float:
    kernel = system.kernel
    segment = kernel.create_segment(8, name="t1-heap", manager=manager)
    snap = kernel.meter.snapshot()
    kernel.reference(segment, 0, write=True)
    return sum(kernel.meter.delta_since(snap).values())


def _measure_vpp_uio(system: System, write: bool) -> float:
    kernel = system.kernel
    segment = kernel.create_segment(
        0, name=f"t1-file-{write}", manager=system.default_manager, auto_grow=True
    )
    system.file_server.create_file(segment, data=b"d" * 8192)
    system.uio.read(segment, 0, 8192)  # warm the cache
    snap = kernel.meter.snapshot()
    if write:
        system.uio.write(segment, 0, b"w" * 4096)
    else:
        system.uio.read(segment, 0, 4096)
    return sum(kernel.meter.delta_since(snap).values())


def _measure_ultrix_fault() -> float:
    vm = UltrixVM(PhysicalMemory(4 * 1024 * 1024))
    space = vm.create_space(8)
    before = vm.meter.total_us
    vm.reference(space, 0, write=True)
    return vm.meter.total_us - before


def _measure_ultrix_user_fault() -> float:
    """Appel-Li style user-level handler: protect, fault, mprotect back."""
    vm = UltrixVM(PhysicalMemory(4 * 1024 * 1024))
    space = vm.create_space(8)
    vm.reference(space, 0, write=True)  # make the page resident

    def handler(vm_, space_, vpn, write):
        vm_.mprotect(space_, vpn, 1, PageFlags.READ | PageFlags.WRITE)

    vm.set_user_handler(space, handler)
    vm.mprotect(space, 0, 1, PageFlags.NONE)
    before = vm.meter.total_us
    vm.reference(space, 0, write=False)
    return vm.meter.total_us - before


def _measure_ultrix_io(write: bool) -> float:
    vm = UltrixVM(PhysicalMemory(4 * 1024 * 1024))
    vm.create_file("f", data=b"d" * 8192)
    vm.cache_file("f")
    before = vm.meter.total_us
    if write:
        vm.write("f", 0, b"w" * 4096)
    else:
        vm.read("f", 0, 4096)
    return vm.meter.total_us - before


def table1_primitives() -> list[MeasuredRow]:
    """Table 1 plus the in-text ULTRIX user-level fault measurement."""
    system = build_system(memory_mb=16)
    in_process = GenericSegmentManager(
        system.kernel, system.spcm, "t1-app-manager", initial_frames=32
    )
    return [
        MeasuredRow(
            "V++ minimal fault, faulting process",
            _measure_vpp_fault(system, in_process),
            107.0,
        ),
        MeasuredRow(
            "V++ minimal fault, default segment manager",
            _measure_vpp_fault(system, system.default_manager),
            379.0,
        ),
        MeasuredRow("ULTRIX minimal fault", _measure_ultrix_fault(), 175.0),
        MeasuredRow("V++ read 4KB cached", _measure_vpp_uio(system, False), 222.0),
        MeasuredRow("V++ write 4KB cached", _measure_vpp_uio(system, True), 203.0),
        MeasuredRow("ULTRIX read 4KB cached", _measure_ultrix_io(False), 211.0),
        MeasuredRow("ULTRIX write 4KB cached", _measure_ultrix_io(True), 311.0),
        MeasuredRow(
            "ULTRIX user-level protection fault (signal+mprotect)",
            _measure_ultrix_user_fault(),
            152.0,
        ),
    ]


# ---------------------------------------------------------------------------
# Tables 2 and 3: applications under the default segment manager
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppComparison:
    """One application's measured runs with the paper targets."""

    app: str
    vpp: RunResult
    ultrix: RunResult
    paper_vpp_s: float
    paper_ultrix_s: float
    paper_manager_calls: int
    paper_migrate_calls: int
    paper_overhead_ms: float


def table2_and_3_applications() -> list[AppComparison]:
    """Run the three applications on both systems (Tables 2 and 3)."""
    results = []
    for app in standard_applications():
        results.append(
            AppComparison(
                app=app.name,
                vpp=run_on_vpp(app),
                ultrix=run_on_ultrix(app),
                paper_vpp_s=app.paper_elapsed_vpp_s,
                paper_ultrix_s=app.paper_elapsed_ultrix_s,
                paper_manager_calls=app.paper_manager_calls,
                paper_migrate_calls=app.paper_migrate_calls,
                paper_overhead_ms=app.paper_overhead_ms,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Table 4: the database transaction-processing study
# ---------------------------------------------------------------------------


def table4_transactions(duration_s: float = 120.0) -> list[TPResult]:
    """Run the four Table-4 configurations."""
    return [
        run_tp_experiment(cfg)
        for cfg in table4_configurations(duration_s=duration_s)
    ]


def table4_paper_targets() -> dict:
    """The paper's Table-4 (avg, worst) targets by policy."""
    return dict(PAPER_TABLE4)


# ---------------------------------------------------------------------------
# Figure 1: the composed virtual address space
# ---------------------------------------------------------------------------


def figure1_address_space() -> str:
    """Build the Figure-1 space and demonstrate translation through it."""
    system = build_system(memory_mb=16)
    manager = GenericSegmentManager(
        system.kernel, system.spcm, "fig1-manager", initial_frames=64
    )
    vas = build_figure1_layout(system.kernel, manager)
    # touch one page per region so translation is demonstrable
    vas.read(vas.addr("code", 0))
    vas.write(vas.addr("data", 0))
    vas.write(vas.addr("stack", 0))
    lines = [vas.describe(), "", "translation check:"]
    for region in ("code", "data", "stack"):
        vaddr = vas.addr(region, 0)
        res = vas.space.resolve(vaddr // vas.page_size)
        assert res.frame is not None
        lines.append(
            f"  vaddr {vaddr:#010x} -> segment {res.owner.name} page "
            f"{res.page} -> pfn {res.frame.pfn} "
            f"(phys {res.frame.phys_addr:#010x})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 2: the fault-handling sequence
# ---------------------------------------------------------------------------


def figure2_fault_trace() -> FaultTrace:
    """Reproduce the Figure-2 sequence: fault, manager fetch from the file
    server, migrate, resume --- with the cost of each step.

    The steps are read off a tracer: the process-global one when it is
    enabled (so a ``--trace`` dump keeps the fault's records), else a
    private one.
    """
    tracer = get_global_tracer()
    if not tracer.enabled:
        tracer = Tracer()
    system = build_system(memory_mb=16, tracer=tracer)
    kernel = system.kernel
    file_seg = kernel.create_segment(
        0, name="fig2-file", manager=system.default_manager, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"fig2" * 2048)
    space = kernel.create_segment(8, name="fig2-space")
    space.bind(0, 2, file_seg, 0)
    # set-up grants emit MigratePages steps too: slice after them
    first = len(tracer.steps)
    kernel.reference(space, 0, write=False)
    return FaultTrace.from_events(tracer.steps[first:])


def main() -> None:  # pragma: no cover - exercised via report module
    """Convenience entry point: run the full report."""
    from repro.analysis.report import main as report_main

    report_main()


if __name__ == "__main__":  # pragma: no cover
    main()
