"""The differential oracle: V++ vs ULTRIX vs the Unix retrofit.

One :class:`~repro.verify.schedule.WorkloadSchedule` is driven through
three independent implementations of the same observable contract:

* the external-managed V++ kernel (``build_system``), with the anonymous
  regions under the schedule's chosen manager kind (the paper's default
  UCDS, an in-process clock manager, or the DBMS manager) and the file
  regions always under the default manager;
* the ULTRIX baseline, where the kernel zero-fills and owns all policy;
* the Unix retrofit, where anonymous regions live in mapped page-cache
  files whose heap manager ioctl-allocates frames.

The equivalence contract (what "the same thing" means across systems
with different fault architectures):

1. **Written bytes** --- every byte range the application stored reads
   back identically.  Only *written* ranges are compared: ULTRIX
   zero-fills every allocation where V++ hands out frames as-is within
   one account, so unwritten bytes may legitimately differ.
2. **Final file bytes** --- files are written back (V++: ``file_closed``)
   and their authoritative contents must match exactly.
3. **Anonymous page-ins** --- the number of distinct anonymous pages
   materialized must match exactly; first-touch behavior is identical by
   design across all three.
4. **Total fault counts** --- within the schedule's documented
   :meth:`~repro.verify.schedule.WorkloadSchedule.fault_tolerance`:
   file traffic faults through managers on V++ but through ``read``/
   ``write`` system calls on ULTRIX.

Oracle runs are sized to stay out of reclamation (every executor
asserts ``pages_reclaimed == 0``); under reclamation the three systems'
victim choices differ legitimately and byte comparison would be noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import build_system
from repro.baseline.ultrix_vm import UltrixVM
from repro.baseline.unix_retrofit import UnixRetrofitVM
from repro.errors import VerificationError
from repro.hw.costs import DECSTATION_5000_200
from repro.hw.phys_mem import PhysicalMemory
from repro.invariants import InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.managers.clock import ClockReplacer
from repro.managers.dbms_manager import DBMSSegmentManager
from repro.verify.schedule import (
    FILE,
    FILL_LEN,
    NAMED_SCHEDULES,
    WorkloadSchedule,
    fill_bytes,
)

#: memory each oracle run boots with --- large relative to any schedule,
#: so no executor ever reclaims (asserted per run)
ORACLE_MEMORY_MB = 8

#: hard cap keeping schedules inside the no-reclamation regime
MAX_SCHEDULE_PAGES = 256


class ClockSegmentManager(GenericSegmentManager):
    """An in-process manager with clock replacement over anon regions.

    The oracle's third manager kind: same generic fault handling as the
    base class, but victims come from a second-chance clock instead of
    FIFO --- exercising the replacer wiring without the default
    manager's separate-process IPC costs.
    """

    def __init__(self, kernel, spcm, name="clock-manager", initial_frames=256):
        super().__init__(kernel, spcm, name, initial_frames)
        self.clock = ClockReplacer(self)

    def select_victims(self, n_pages):
        return self.clock.select_victims(n_pages)


@dataclass
class ExecutionResult:
    """What one executor observed: the contract's comparison points."""

    label: str
    #: (region, page) -> the FILL_LEN bytes read back at page start
    written_bytes: dict = field(default_factory=dict)
    #: region index -> final authoritative file contents
    file_bytes: dict = field(default_factory=dict)
    #: distinct anonymous pages materialized
    anon_pages_in: int = 0
    #: total page faults the system serviced
    faults: int = 0
    #: pages reclaimed (must be 0: the oracle's operating regime)
    reclaimed: int = 0


def _region_file_name(index: int, region) -> str:
    return f"r{index}-{region.name}"


def _initial_file_data(index: int, region, page_size: int) -> bytes:
    if region.initial_k < 0:
        return b""
    return b"".join(
        fill_bytes(index, page, region.initial_k).ljust(page_size, b"\0")
        for page in range(region.pages)
    )


def _check_regime(schedule: WorkloadSchedule) -> None:
    total = sum(r.pages for r in schedule.regions)
    if total > MAX_SCHEDULE_PAGES:
        raise VerificationError(
            f"schedule {schedule.name!r} spans {total} pages; the oracle "
            f"compares byte-exact state only below reclamation "
            f"(max {MAX_SCHEDULE_PAGES})"
        )


# ---------------------------------------------------------------------------
# V++ executor
# ---------------------------------------------------------------------------


def build_vpp_system(schedule: WorkloadSchedule, tracer=None):
    """Boot the V++ machine for a schedule: (system, anon_manager, segments)."""
    _check_regime(schedule)
    system = build_system(
        memory_mb=ORACLE_MEMORY_MB,
        manager_frames=256,
        tracer=tracer,
        n_nodes=schedule.nodes,
    )
    if schedule.manager == "clock":
        anon_manager = ClockSegmentManager(system.kernel, system.spcm)
    elif schedule.manager == "dbms":
        anon_manager = DBMSSegmentManager(
            system.kernel, system.spcm, file_server=system.file_server
        )
    else:
        anon_manager = system.default_manager
    segments = []
    for index, region in enumerate(schedule.regions):
        if region.kind == FILE:
            # file regions always ride the default manager, so file
            # behavior is held constant across the manager mixes
            segment = system.kernel.create_segment(
                region.pages,
                name=_region_file_name(index, region),
                manager=system.default_manager,
                auto_grow=True,
            )
            system.file_server.create_file(
                segment,
                data=_initial_file_data(
                    index, region, system.memory.page_size
                ),
            )
        else:
            segment = system.kernel.create_segment(
                region.pages,
                name=_region_file_name(index, region),
                manager=anon_manager,
            )
        segments.append(segment)
    return system, anon_manager, segments


def apply_vpp_op(system, schedule: WorkloadSchedule, segments, op) -> None:
    """Execute one schedule op against a booted V++ system."""
    page_size = system.memory.page_size
    kind, region, page = op[0], int(op[1]), int(op[2])
    segment = segments[region]
    if kind == "touch":
        write, k = bool(op[3]), int(op[4])
        frame = system.kernel.reference(
            segment, page * page_size, write=write
        )
        if write:
            frame.write(fill_bytes(region, page, k), 0)
    elif kind == "file_read":
        system.uio.read(segment, page * page_size, page_size)
    elif kind == "file_write":
        system.uio.write(
            segment, page * page_size, fill_bytes(region, page, int(op[3]))
        )


def drive_vpp(system, schedule: WorkloadSchedule, segments) -> None:
    """Execute the schedule's ops against a booted V++ system."""
    for op in schedule.ops:
        apply_vpp_op(system, schedule, segments, op)


def collect_vpp(system, schedule: WorkloadSchedule, anon_manager, segments):
    """Extract the V++ side of the contract after a drive."""
    result = ExecutionResult(label="vpp")
    page_size = system.memory.page_size
    for (region, page), _k in schedule.written_ranges().items():
        frame = segments[region].pages.get(page)
        if frame is None:
            raise VerificationError(
                f"vpp: written page {page} of region {region} not resident "
                f"at collection (reclamation in an oracle run?)"
            )
        result.written_bytes[(region, page)] = frame.read(0, FILL_LEN)
    for index, region in enumerate(schedule.regions):
        if region.kind != FILE:
            continue
        segment = segments[index]
        file = system.file_server.file_for(segment)
        # the application-visible size at close time; the fetched pages
        # below run to a page boundary, past the file's last byte
        size = file.size_bytes
        system.default_manager.file_closed(segment, writeback=True)
        data = b"".join(
            system.file_server.fetch_page(segment, page)
            for page in range(file.initialized_pages)
        )
        result.file_bytes[index] = data[:size]
    result.anon_pages_in = sum(
        len(segments[i].pages)
        for i, region in enumerate(schedule.regions)
        if region.kind != FILE
    )
    result.faults = system.kernel.stats.faults
    result.reclaimed = anon_manager.pages_reclaimed
    if anon_manager is not system.default_manager:
        result.reclaimed += system.default_manager.pages_reclaimed
    return result


def run_vpp(schedule: WorkloadSchedule) -> ExecutionResult:
    """Drive the schedule through the external-managed V++ kernel.

    A full invariant sweep closes the drive, before collection.
    """
    system, anon_manager, segments = build_vpp_system(schedule)
    drive_vpp(system, schedule, segments)
    InvariantChecker(system.kernel).check_all()
    return collect_vpp(system, schedule, anon_manager, segments)


# ---------------------------------------------------------------------------
# conventional executors: ULTRIX and the Unix retrofit
# ---------------------------------------------------------------------------


def _boot_conventional(vm_class, schedule: WorkloadSchedule):
    """Boot a conventional VM with the schedule's file regions cached."""
    _check_regime(schedule)
    vm = vm_class(
        PhysicalMemory(
            ORACLE_MEMORY_MB * 1024 * 1024,
            page_size=DECSTATION_5000_200.page_size,
        )
    )
    for index, region in enumerate(schedule.regions):
        if region.kind == FILE:
            name = _region_file_name(index, region)
            vm.create_file(
                name,
                data=_initial_file_data(index, region, vm.memory.page_size),
            )
            vm.cache_file(name)
    return vm


def _drive_conventional(
    vm, schedule: WorkloadSchedule, spaces: dict, label: str
) -> ExecutionResult:
    """Execute the schedule's ops on a booted conventional VM whose
    anonymous regions are ``spaces``; collect written bytes, file bytes
    and reclaims (the executor adds its page-in and fault counts)."""
    page_size = vm.memory.page_size
    for op in schedule.ops:
        kind, region, page = op[0], int(op[1]), int(op[2])
        if kind == "touch":
            write, k = bool(op[3]), int(op[4])
            frame = vm.reference(
                spaces[region], page * page_size, write=write
            )
            if write:
                frame.write(fill_bytes(region, page, k), 0)
        elif kind == "file_read":
            vm.read(
                _region_file_name(region, schedule.regions[region]),
                page * page_size,
                page_size,
            )
        elif kind == "file_write":
            vm.write(
                _region_file_name(region, schedule.regions[region]),
                page * page_size,
                fill_bytes(region, page, int(op[3])),
            )
    result = ExecutionResult(label=label)
    for (region, page), _k in schedule.written_ranges().items():
        result.written_bytes[(region, page)] = vm.page_bytes(
            spaces[region], page, 0, FILL_LEN
        )
    for index, region in enumerate(schedule.regions):
        if region.kind == FILE:
            result.file_bytes[index] = vm.file_bytes(
                _region_file_name(index, region)
            )
    result.reclaimed = vm.stats.reclaimed_pages
    return result


def run_ultrix(schedule: WorkloadSchedule) -> ExecutionResult:
    """Drive the schedule through the conventional in-kernel VM."""
    vm = _boot_conventional(UltrixVM, schedule)
    spaces = {
        index: vm.create_space(region.pages)
        for index, region in enumerate(schedule.regions)
        if region.kind != FILE
    }
    result = _drive_conventional(vm, schedule, spaces, "ultrix")
    result.anon_pages_in = sum(len(s.pages) for s in spaces.values())
    result.faults = vm.stats.faults
    return result


def run_retrofit(schedule: WorkloadSchedule) -> ExecutionResult:
    """Drive the schedule through the retrofit: anonymous regions are
    mapped page-cache files whose heap manager ioctl-allocates frames."""
    vm = _boot_conventional(UnixRetrofitVM, schedule)
    heap_manager = vm.make_heap_manager()
    spaces: dict[int, object] = {}
    for index, region in enumerate(schedule.regions):
        if region.kind == FILE:
            continue
        heap = f"heap-{index}"
        vm.create_file(heap)
        vm.designate_pagecache_file(heap)
        vm.set_file_manager(heap, heap_manager)
        spaces[index] = vm.create_space(region.pages)
        vm.map_pagecache_file(spaces[index], heap, 0, region.pages)
    result = _drive_conventional(vm, schedule, spaces, "retrofit")
    result.anon_pages_in = vm.ioctl_allocations
    # retrofit faults are serviced by the user-level manager, kernel
    # faults by the ULTRIX machinery underneath; both are fault services
    result.faults = vm.stats.faults + vm.retrofit_faults
    return result


EXECUTORS = {
    "vpp": run_vpp,
    "ultrix": run_ultrix,
    "retrofit": run_retrofit,
}


# ---------------------------------------------------------------------------
# the contract check
# ---------------------------------------------------------------------------


@dataclass
class Mismatch:
    """One contract clause two executors disagreed on."""

    clause: str
    detail: str

    def describe(self) -> str:
        """``[clause] detail`` for the rendered report."""
        return f"[{self.clause}] {self.detail}"


@dataclass
class OracleReport:
    """The oracle's verdict for one schedule across all executors."""

    schedule: str
    manager: str
    mismatches: list[Mismatch] = field(default_factory=list)
    results: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        """Per-executor stats, then PASS or every mismatched clause."""
        lines = [
            f"oracle: schedule {self.schedule!r} manager {self.manager!r}"
        ]
        for label, result in sorted(self.results.items()):
            lines.append(
                f"  {label:9s} faults={result.faults} "
                f"anon_pages_in={result.anon_pages_in} "
                f"reclaimed={result.reclaimed}"
            )
        if self.ok:
            lines.append("  PASS: all executors agree on the contract")
        else:
            lines.append(f"  FAIL: {len(self.mismatches)} mismatch(es)")
            for mismatch in self.mismatches:
                lines.append(f"    {mismatch.describe()}")
        return "\n".join(lines)


def _compare(
    report: OracleReport,
    schedule: WorkloadSchedule,
    reference: ExecutionResult,
    other: ExecutionResult,
) -> None:
    pair = f"{reference.label} vs {other.label}"
    for key in sorted(schedule.written_ranges()):
        a = reference.written_bytes.get(key)
        b = other.written_bytes.get(key)
        if a != b:
            report.mismatches.append(
                Mismatch(
                    "written-bytes",
                    f"{pair}: region {key[0]} page {key[1]}: "
                    f"{_hex(a)} != {_hex(b)}",
                )
            )
            return  # first divergence only; later ones are consequences
    for index in sorted(reference.file_bytes):
        a = reference.file_bytes[index]
        b = other.file_bytes.get(index)
        if a != b:
            where = _first_byte_diff(a, b)
            report.mismatches.append(
                Mismatch(
                    "file-bytes",
                    f"{pair}: file region {index} differs at byte {where} "
                    f"(lengths {len(a)} vs {len(b or b'')})",
                )
            )
            return
    if reference.anon_pages_in != other.anon_pages_in:
        report.mismatches.append(
            Mismatch(
                "anon-page-ins",
                f"{pair}: {reference.anon_pages_in} != {other.anon_pages_in}",
            )
        )
    tolerance = schedule.fault_tolerance()
    if abs(reference.faults - other.faults) > tolerance:
        report.mismatches.append(
            Mismatch(
                "fault-count",
                f"{pair}: {reference.faults} vs {other.faults} "
                f"(tolerance {tolerance})",
            )
        )


def _hex(data: bytes | None) -> str:
    return "<missing>" if data is None else data[:8].hex() + "..."


def _first_byte_diff(a: bytes, b: bytes | None) -> int:
    if b is None:
        return 0
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def check_equivalence(
    schedule: WorkloadSchedule, executors: dict | None = None
) -> OracleReport:
    """Run the schedule through every executor and check the contract.

    Pass ``executors`` to substitute one (tests inject deliberately
    broken executors to prove the oracle catches divergence).
    """
    schedule.validate()
    table = dict(executors if executors is not None else EXECUTORS)
    report = OracleReport(schedule=schedule.name, manager=schedule.manager)
    results = {label: run(schedule) for label, run in table.items()}
    report.results = dict(results)
    reference = results.pop("vpp")
    for result in results.values():
        if reference.reclaimed or result.reclaimed:
            report.mismatches.append(
                Mismatch(
                    "regime",
                    f"reclamation occurred ({reference.label}="
                    f"{reference.reclaimed}, {result.label}="
                    f"{result.reclaimed}); schedule is outside the "
                    f"oracle's byte-exact regime",
                )
            )
            continue
        _compare(report, schedule, reference, result)
    return report


def named_schedule(name: str, manager: str = "default") -> WorkloadSchedule:
    """One of the reference schedules, for a given manager kind."""
    try:
        builder = NAMED_SCHEDULES[name]
    except KeyError:
        raise VerificationError(
            f"no schedule named {name!r}; have {sorted(NAMED_SCHEDULES)}"
        ) from None
    return builder(manager=manager)
