"""The four workloads of the wall-clock benchmark.

Each workload is a list of *units*.  A unit boots what it needs
(:meth:`setup`, timed as set-up), runs its timed drive (:meth:`drive`),
then has its simulated outputs fingerprinted and checked outside the
timers (:meth:`check`).  One *repeat* of a workload runs all its units.

The drive counts its operations on an :class:`OpClock`:

* ``apps`` and ``reclaim`` -- one library call (``Kernel.reference``,
  ``UIO.read``/``UIO.write`` of 4 KB, ``file_opened``/``file_closed``),
  ticked as it completes, so the harness also gets the host time
  between successive completions;
* ``tp`` -- one completed transaction, counted from the result of
  ``run_tp_experiment``;
* ``serve`` -- one serviced request, counted from the batch scheduler.

Inputs come from the benchmark seed alone.  Seed 0 reproduces the
repository's committed configurations (tp seed 1992, serve seed 42).
"""

from __future__ import annotations

import random
from time import perf_counter_ns

from repro import build_system
from repro.core.kernel import KernelStats
from repro.dbms.relations import bank_database
from repro.dbms.simulator import TPConfig, run_tp_experiment
from repro.dbms.transactions import IndexPolicy
from repro.errors import ReproError
from repro.serve import bench as serve_bench
from repro.serve.loadgen import admit_fleet, run_load
from repro.serve.tenants import ServingSystem
from repro.verify.digest import digest_payload, state_digest
from repro.workloads.apps import standard_applications
from repro.workloads.runner import VPP_IO_UNIT, run_on_vpp
from repro.workloads.traces import (
    CloseFile,
    Compute,
    OpenFile,
    ReadFileSeq,
    TouchRegion,
    WriteFileSeq,
)

MB = 1024 * 1024


class OpClock:
    """Operations completed by one drive, and for drives that tick each
    one, the host-time gaps between successive completions."""

    __slots__ = ("ops", "gaps", "failed", "_last")

    def __init__(self) -> None:
        self.ops = 0
        self.gaps: list[int] = []
        self.failed = 0
        self._last = 0

    def start(self) -> None:
        self._last = perf_counter_ns()

    def tick(self) -> None:
        now = perf_counter_ns()
        self.gaps.append(now - self._last)
        self._last = now
        self.ops += 1


def _run_ops(ops: list, clock: OpClock) -> None:
    """Apply ``(fn, args)`` pairs one at a time; a raising op is failed."""
    clock.start()
    for fn, args in ops:
        try:
            fn(*args)
        except ReproError:
            clock.failed += 1
        clock.tick()


def _kernel_fingerprint(system, digest: bool = True) -> dict:
    """Kernel, TLB, manager and SPCM counts, the meter total and the
    state digest of one machine (anything with ``kernel`` and ``spcm``)."""
    kernel, spcm = system.kernel, system.spcm
    stats = kernel.stats
    managers = [spcm.managers[name] for name in sorted(spcm.managers)]
    fp = {
        "faults": stats.faults,
        "references": stats.references,
        "manager_calls": sum(stats.manager_calls.values()),
        "migrate_calls": stats.migrate_calls,
        "pages_migrated": stats.pages_migrated,
        "tlb_lookups": kernel.tlb.stats.lookups,
        "tlb_hits": kernel.tlb.stats.hits,
        "faults_handled": sum(m.faults_handled for m in managers),
        "pages_reclaimed": sum(m.pages_reclaimed for m in managers),
        "fast_reclaims": sum(m.fast_reclaims for m in managers),
        "writebacks": sum(m.writebacks for m in managers),
        "quota_deferrals": spcm.quota_deferrals,
        "meter_total_us": round(kernel.meter.total_us, 6),
    }
    if digest:
        fp["state_digest"] = state_digest(system)
    return fp


def _conservation_problems(kernel) -> list[str]:
    try:
        kernel.check_frame_conservation()
    except ReproError as exc:
        return [f"frame conservation: {exc}"]
    return []


# ---------------------------------------------------------------------------
# apps: the three Table-2 applications
# ---------------------------------------------------------------------------


class AppUnit:
    """One Table-2 application on a fresh 64 MB machine, inputs cached."""

    MEMORY_MB = 64
    #: ``run_on_vpp``'s default-manager frame stock
    MANAGER_FRAMES = 512

    def __init__(
        self, app, salt: int, reference: dict, digest: bool
    ) -> None:
        self.app = app
        self.label = app.name
        self.salt = salt
        #: counts ``run_on_vpp`` produced for this app (cross-check)
        self.reference = reference
        #: hash the whole machine state (about 60 ms per 64 MB machine)
        self.digest = digest

    def _file_bytes(self, name: str, size: int) -> bytes:
        stem = f"{name}:{self.salt}-".encode()
        return (stem * (size // len(stem) + 1))[:size]

    def setup(self):
        app = self.app
        system = build_system(
            memory_mb=self.MEMORY_MB, manager_frames=self.MANAGER_FRAMES
        )
        kernel, manager = system.kernel, system.default_manager
        uio, file_server = system.uio, system.file_server
        regions = {
            name: kernel.create_segment(
                pages, name=f"{app.name}.{name}", manager=manager
            )
            for name, pages in app.regions.items()
        }
        files = {}
        for name, size in app.input_files.items():
            seg = kernel.create_segment(
                0, name=name, manager=manager, auto_grow=True
            )
            file_server.create_file(seg, data=self._file_bytes(name, size))
            files[name] = seg
            uio.read(seg, 0, size)
        # the measured run starts from clean counters, as run_on_vpp does
        kernel.meter.reset()
        kernel.stats = KernelStats()
        manager.faults_handled = 0

        def file_or_create(name):
            seg = files.get(name)
            if seg is None:
                seg = kernel.create_segment(
                    0, name=name, manager=manager, auto_grow=True
                )
                file_server.create_file(seg)
                files[name] = seg
            return seg

        def read(name, off, n):
            uio.read(files[name], off, n)

        def write(name, off, data):
            uio.write(file_or_create(name), off, data)

        def open_file(name):
            manager.file_opened(file_or_create(name))

        def close_file(name):
            manager.file_closed(files[name], writeback=False)

        payload = b"w" * VPP_IO_UNIT
        ops: list = []
        for event in app.trace:
            if isinstance(event, Compute):
                continue
            if isinstance(event, TouchRegion):
                seg = regions[event.region]
                for page in range(
                    event.start_page, event.start_page + event.n_pages
                ):
                    ops.append(
                        (kernel.reference, (seg, page * seg.page_size, event.write))
                    )
            elif isinstance(event, (ReadFileSeq, WriteFileSeq)):
                end = event.offset + event.n_bytes
                for off in range(event.offset, end, VPP_IO_UNIT):
                    take = min(VPP_IO_UNIT, end - off)
                    if isinstance(event, ReadFileSeq):
                        ops.append((read, (event.name, off, take)))
                    else:
                        ops.append((write, (event.name, off, payload[:take])))
            elif isinstance(event, OpenFile):
                ops.append((open_file, (event.name,)))
            elif isinstance(event, CloseFile):
                ops.append((close_file, (event.name,)))
            else:
                raise TypeError(f"unknown trace event {event!r}")
        return system, ops

    def drive(self, state, clock: OpClock) -> None:
        _run_ops(state[1], clock)

    def check(self, state) -> tuple[dict, list[str]]:
        system = state[0]
        kernel = system.kernel
        name = system.default_manager.name
        fp = _kernel_fingerprint(system, self.digest)
        fp["app_manager_calls"] = kernel.stats.manager_calls.get(name, 0)
        fp["app_migrate_calls"] = kernel.stats.migrate_calls_by_manager.get(
            name, 0
        )
        problems = _conservation_problems(kernel)
        ours = {
            "faults": fp["faults"],
            "manager_calls": fp["app_manager_calls"],
            "migrate_calls": fp["app_migrate_calls"],
            "vm_us": fp["meter_total_us"],
        }
        if ours != self.reference:
            problems.append(
                f"{self.label}: benchmark counts {ours} != run_on_vpp "
                f"{self.reference}"
            )
        return fp, problems


class Apps:
    """diff, uncompress and latex, ten rounds per repeat.

    Reads mix with 16 KB append writes and nothing is reclaimed; booting
    the three 64 MB machines is most of the wall time, so boot and
    first-touch work show here.  The seed orders the apps within each
    round and salts the input file contents.
    """

    name = "apps"
    ROUNDS = 10

    def __init__(self) -> None:
        self._reference: dict[str, dict] | None = None

    def reference_counts(self) -> dict[str, dict]:
        """``run_on_vpp`` counts per app (computed once per process)."""
        if self._reference is None:
            self._reference = {}
            for app in standard_applications():
                run = run_on_vpp(app, memory_mb=AppUnit.MEMORY_MB)
                self._reference[app.name] = {
                    "faults": run.faults,
                    "manager_calls": run.manager_calls,
                    "migrate_calls": run.migrate_calls,
                    "vm_us": round(run.vm_us, 6),
                }
        return self._reference

    def units(self, seed: int) -> list:
        reference = self.reference_counts()
        rng = random.Random(seed)
        apps = standard_applications()
        units = []
        for round_no in range(self.ROUNDS):
            order = list(apps)
            if seed:
                rng.shuffle(order)
            # every round checks counts; the first also digests the state
            units.extend(
                AppUnit(app, seed, reference[app.name], digest=round_no == 0)
                for app in order
            )
        return units


# ---------------------------------------------------------------------------
# reclaim: the pressure path
# ---------------------------------------------------------------------------


class ReclaimUnit:
    """An 8 MB machine driven through a working set of 24 MB."""

    label = "reclaim"
    MEMORY_MB = 8
    MANAGER_FRAMES = 256
    SCAN_BYTES = 12 * MB
    SCANS = 2
    LOG_BYTES = 8 * MB
    LOG_REREADS = 512
    HEAP_PAGES = 1024

    def __init__(self, seed: int) -> None:
        # the inputs are made here, outside the timed set-up
        rng = random.Random(seed)
        unit = VPP_IO_UNIT
        self.scan_data = rng.randbytes(self.SCAN_BYTES)
        self.scan_pages = [
            self.scan_data[off : off + unit]
            for off in range(0, self.SCAN_BYTES, unit)
        ]
        self.log_pages = [
            rng.randbytes(unit) for _ in range(self.LOG_BYTES // unit)
        ]
        self.log_rereads = [
            rng.randrange(len(self.log_pages)) for _ in range(self.LOG_REREADS)
        ]
        self.heap_rereads = list(range(self.HEAP_PAGES))
        rng.shuffle(self.heap_rereads)

    def setup(self):
        system = build_system(
            memory_mb=self.MEMORY_MB, manager_frames=self.MANAGER_FRAMES
        )
        kernel, manager = system.kernel, system.default_manager
        uio, file_server = system.uio, system.file_server
        unit = VPP_IO_UNIT
        scan = kernel.create_segment(
            0, name="scan.dat", manager=manager, auto_grow=True
        )
        file_server.create_file(scan, data=self.scan_data)
        log = kernel.create_segment(
            0, name="append.log", manager=manager, auto_grow=True
        )
        file_server.create_file(log)
        heap = kernel.create_segment(
            self.HEAP_PAGES, name="heap", manager=manager
        )
        checks = {"mismatches": 0, "bytes_read": 0}

        def read_expect(seg, page, expected):
            data = uio.read(seg, page * unit, unit)
            checks["bytes_read"] += len(data)
            if data != expected:
                checks["mismatches"] += 1

        ops: list = []
        for _ in range(self.SCANS):
            for page, expected in enumerate(self.scan_pages):
                ops.append((read_expect, (scan, page, expected)))
        for page, data in enumerate(self.log_pages):
            ops.append((uio.write, (log, page * unit, data)))
        for page in self.log_rereads:
            ops.append((read_expect, (log, page, self.log_pages[page])))
        page_size = heap.page_size
        for page in range(self.HEAP_PAGES):
            ops.append((kernel.reference, (heap, page * page_size, True)))
        for page in self.heap_rereads:
            ops.append((kernel.reference, (heap, page * page_size, False)))
        return system, ops, checks

    def drive(self, state, clock: OpClock) -> None:
        _run_ops(state[1], clock)

    def check(self, state) -> tuple[dict, list[str]]:
        system, _, checks = state
        fp = _kernel_fingerprint(system)
        fp["bytes_read"] = checks["bytes_read"]
        problems = _conservation_problems(system.kernel)
        if checks["mismatches"]:
            problems.append(
                f"reclaim: {checks['mismatches']} reads returned wrong bytes"
            )
        return fp, problems


class Reclaim:
    """The paper's pressure path: clock victim selection, writeback,
    refetch and migrate-back, with dirty pages, on 8 MB of memory.

    Two sequential scans of a 12 MB file, 8 MB of log appends, 512
    seeded re-reads of the log, and a 4 MB heap written and then re-read
    in seeded order.  The seed makes the file and log contents and both
    re-read orders.
    """

    name = "reclaim"

    def units(self, seed: int) -> list:
        return [ReclaimUnit(seed)]


# ---------------------------------------------------------------------------
# tp: the Table-4 transaction-processing study
# ---------------------------------------------------------------------------


class TPUnit:
    """One Table-4 policy, run by ``run_tp_experiment``.

    Set-up builds the 120 MB bank database the run works on (handed to
    ``run_tp_experiment`` as its ``database``); the library builds the
    rest of its state, the lock hierarchy and the index segment's
    machine, inside the timed drive.
    """

    def __init__(self, policy: IndexPolicy, seed: int) -> None:
        self.label = f"tp.{policy.name.lower()}"
        self.config = TPConfig(policy=policy, seed=TP.BASE_SEED + seed)

    def setup(self):
        return {"db": bank_database(self.config.db_mb)}

    def drive(self, state, clock: OpClock) -> None:
        result = run_tp_experiment(self.config, database=state["db"])
        state["result"] = result
        clock.ops = result.n_completed

    def check(self, state) -> tuple[dict, list[str]]:
        result = state["result"]
        fp = {
            "n_completed": result.n_completed,
            "n_measured": result.n_measured,
            "index_faults": result.index_faults,
            "regenerations": result.regenerations,
            "lock_waits": result.lock_waits,
        }
        for key in (
            "avg_response_ms",
            "worst_response_ms",
            "avg_dc_ms",
            "worst_dc_ms",
            "avg_join_ms",
            "worst_join_ms",
        ):
            fp[key] = round(getattr(result, key), 9)
        fp["p99_ms"] = round(result.extra["p99_ms"], 9)
        return fp, []


class TP:
    """The four Table-4 policies, 120 simulated seconds each at 40 TPS.

    dbms locking and the sim engine do most of the work and the kernel
    very little: the no-change control for fault-path work.
    """

    name = "tp"
    BASE_SEED = 1992

    def units(self, seed: int) -> list:
        return [TPUnit(policy, seed) for policy in IndexPolicy]


# ---------------------------------------------------------------------------
# serve: multi-tenant serving
# ---------------------------------------------------------------------------


class ServeUnit:
    """64 closed-loop tenants on a 2-node 8 MB machine, 240 simulated ms,
    with the ``bench serve`` admission and quota constants."""

    label = "serve"
    N_TENANTS = 64
    DURATION_US = 240_000.0
    BASE_SEED = serve_bench.SEED

    def __init__(self, seed: int) -> None:
        self.seed = self.BASE_SEED + seed

    def setup(self):
        system = build_system(
            memory_mb=serve_bench.MEMORY_MB,
            n_nodes=serve_bench.N_NODES,
            manager_frames=64,
        )
        serving = ServingSystem(
            system,
            seed=self.seed,
            rate_per_s=serve_bench.RATE_PER_S,
            burst=serve_bench.BURST,
            max_backlog=serve_bench.MAX_BACKLOG,
        )
        admit_fleet(
            serving,
            self.N_TENANTS,
            working_set_pages=serve_bench.WORKING_SET_PAGES,
            quota_frames=serve_bench.QUOTA_FRAMES,
        )
        return system, serving

    def drive(self, state, clock: OpClock) -> None:
        serving = state[1]
        run_load(serving, self.DURATION_US)
        clock.ops = serving.scheduler.items_serviced
        clock.failed += serving.scheduler.errors

    def check(self, state) -> tuple[dict, list[str]]:
        system, serving = state
        sessions = [serving.sessions[t] for t in sorted(serving.sessions)]
        fp = _kernel_fingerprint(system)
        fp.update(
            serviced=serving.scheduler.items_serviced,
            batches=serving.scheduler.batches_flushed,
            submitted=sum(s.submitted for s in sessions),
            shed=serving.admission.shed,
            fairness=round(
                serve_bench.jain_fairness([float(s.serviced) for s in sessions]),
                9,
            ),
            rows_digest=digest_payload(serving.digest_rows()),
        )
        return fp, _conservation_problems(system.kernel)


class Serve:
    """The only workload where admission, batch scheduling, per-node SPCM
    shards under quota, batched migrate and per-tenant attribution do
    real work.  Its ~43% shed rate is by design."""

    name = "serve"

    def units(self, seed: int) -> list:
        return [ServeUnit(seed)]


WORKLOADS = {w.name: w for w in (Apps(), Reclaim(), TP(), Serve())}
