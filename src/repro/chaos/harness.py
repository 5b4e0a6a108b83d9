"""Chaos scenarios: seeded fault schedules against real workloads.

A *scenario* pairs a :class:`~repro.chaos.plan.ChaosPlan` template with a
workload (the Figure-2 fault path, a Table-2 style application, the
Table-4 DBMS configuration).  :func:`run_schedule` boots a fresh system,
installs an :class:`~repro.chaos.injector.Injector` with the scenario's
plan reseeded, hooks the :class:`~repro.invariants.InvariantChecker` to
sweep the whole invariant table after every injected event, executes the
workload, and reports a :class:`ChaosResult`.

The contract the property tests assert: a run either *completes* or fails
with a typed :class:`~repro.errors.ReproError` --- never a bare exception
--- and the invariant checker never fires either way.

This module imports :func:`repro.build_system` lazily (inside functions)
because ``repro/__init__`` imports the kernel, which imports
``repro.chaos.injector``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos.injector import Injector
from repro.chaos.plan import ChaosPlan
from repro.errors import ChaosError, InvariantViolationError, ReproError
from repro.invariants import InvariantChecker
from repro.serve.loadgen import serve_schedule

#: the application manager every manager-directed scenario injects into
#: (the kernel's fallback --- the real default manager --- stays exempt)
VICTIM_MANAGER = "victim-ucds"


@dataclass(frozen=True)
class Scenario:
    """A named fault schedule template plus the workload it runs against."""

    name: str
    description: str
    plan: ChaosPlan
    workload: str  # key into WORKLOADS
    #: install the warm-restart coordinator (recovery journals +
    #: checkpoints) before running; crashes, hangs and unreachable
    #: managers then retry a restart before the kernel falls over to
    #: the fallback manager
    recovery: bool = False


@dataclass
class ChaosResult:
    """What one seeded chaos schedule produced."""

    scenario: str
    seed: int
    #: the workload ran to the end (False: a typed ReproError stopped it)
    completed: bool
    #: name of the ReproError subclass that stopped the run, if any
    error_type: str | None = None
    error: str | None = None
    #: injected events by kind (e.g. {"manager_crash": 2})
    injected: dict[str, int] = field(default_factory=dict)
    #: invariant sweeps executed (one per injected event, plus one final)
    checks_run: int = 0
    #: kernel degradation counters (timeouts, failovers, ...)
    kernel_stats: dict[str, float] = field(default_factory=dict)
    #: references the workload completed before stopping
    references: int = 0
    #: SLO alerts fired during the run (``run_schedule(..., slo=True)``)
    alerts: list = field(default_factory=list)
    #: the telemetry collector, when sampling was requested
    telemetry: object | None = None
    #: recovery-coordinator counters, when warm restart was installed
    recovery_stats: dict[str, float] = field(default_factory=dict)

    @property
    def n_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def n_alerts(self) -> int:
        return len(self.alerts)

    @property
    def fallback_resolutions(self) -> int:
        return int(self.kernel_stats.get("fallback_resolutions", 0))

    @property
    def failovers(self) -> int:
        return int(self.kernel_stats.get("manager_failovers", 0))

    @property
    def warm_restarts(self) -> int:
        return int(self.kernel_stats.get("warm_restarts", 0))

    @property
    def cold_fallbacks(self) -> int:
        return int(self.recovery_stats.get("cold_fallbacks", 0))

    @property
    def listener_errors(self) -> int:
        return int(self.kernel_stats.get("listener_errors", 0))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build_workload_system(n_nodes=None):
    """The small system every chaos/verify workload runs against.

    Public because the determinism gate (:mod:`repro.verify.determinism`)
    re-runs these exact workloads under its digest recorder and must boot
    the identical machine.
    """
    from repro import build_system

    return build_system(memory_mb=4, manager_frames=64, n_nodes=n_nodes)


def _make_victim(system):
    """A second UCDS instance for the injector to break.

    Starts with no frame stock so a failover seizes nothing resident ---
    the interesting state (the faulted-in pages) moves by adoption.
    """
    from repro.managers.default_manager import DefaultSegmentManager

    return DefaultSegmentManager(
        system.kernel,
        system.spcm,
        system.file_server,
        initial_frames=0,
        name=VICTIM_MANAGER,
    )


def _workload_figure2(system, checker) -> int:
    """The Figure-2 fault path, repeated: fault cached-file pages in
    through a victim manager that injection may crash, hang, or corrupt."""
    kernel = system.kernel
    victim = _make_victim(system)
    n_pages = 21
    file_seg = kernel.create_segment(
        0, name="chaos-file", manager=victim, auto_grow=True
    )
    system.file_server.create_file(
        file_seg, data=b"fig2" * (n_pages * file_seg.page_size // 4)
    )
    space = kernel.create_segment(n_pages, name="chaos-space")
    space.bind(0, n_pages, file_seg, 0)
    refs = 0
    for page in range(n_pages):
        kernel.reference(space, page * space.page_size, write=False)
        refs += 1
    checker.check_all()
    return refs


def _workload_ecc(system, checker) -> int:
    """Anonymous memory under ECC failures: frames retire, pages refault."""
    kernel = system.kernel
    seg = kernel.create_segment(
        16, name="chaos-anon", manager=system.default_manager
    )
    refs = 0
    for sweep in range(4):
        for page in range(seg.n_pages):
            kernel.reference(seg, page * seg.page_size, write=(sweep % 2 == 0))
            refs += 1
    checker.check_all()
    return refs


def _workload_disk(system, checker) -> int:
    """UIO traffic under transient disk errors and latency spikes."""
    kernel = system.kernel
    victim = _make_victim(system)
    seg = kernel.create_segment(
        0, name="chaos-io", manager=victim, auto_grow=True
    )
    page = seg.page_size
    system.file_server.create_file(seg, data=b"io" * (8 * page // 2))
    refs = 0
    for rep in range(3):
        system.uio.read(seg, 0, 8 * page)
        system.uio.write(seg, (8 + rep) * page, b"w" * page)
        refs += 9
        # push the cached pages out so the next sweep re-fetches from
        # disk; after a failover that is the fallback's job, not the
        # dead victim's
        seg.manager.reclaim_pages(8)
    checker.check_all()
    return refs


def _workload_apps(system, checker) -> int:
    """A Table-2 style application (diff): regions via a victim manager,
    file I/O via the default manager, under the scenario's injection."""
    from repro.workloads.apps import diff_model
    from repro.workloads.traces import (
        ReadFileSeq,
        TouchRegion,
        WriteFileSeq,
    )

    kernel = system.kernel
    victim = _make_victim(system)
    app = diff_model()
    scale = 8  # trim file sizes; the fault *path* is what chaos exercises
    regions = {
        name: kernel.create_segment(
            pages, name=f"chaos.{name}", manager=victim
        )
        for name, pages in app.regions.items()
    }
    files = {}
    for name, size in app.input_files.items():
        seg = kernel.create_segment(
            0, name=name, manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"a" * (size // scale))
        files[name] = seg
    refs = 0
    for event in app.trace:
        if isinstance(event, TouchRegion):
            seg = regions[event.region]
            for page in range(event.start_page, event.start_page + event.n_pages):
                kernel.reference(seg, page * seg.page_size, write=event.write)
                refs += 1
        elif isinstance(event, ReadFileSeq):
            seg = files[event.name]
            system.uio.read(seg, event.offset, event.n_bytes // scale)
        elif isinstance(event, WriteFileSeq):
            if event.name not in files:
                seg = kernel.create_segment(
                    0,
                    name=event.name,
                    manager=system.default_manager,
                    auto_grow=True,
                )
                system.file_server.create_file(seg)
                files[event.name] = seg
            seg = files[event.name]
            n = event.n_bytes // scale
            system.uio.write(seg, event.offset, b"w" * n)
        # OpenFile/CloseFile/Compute carry no chaos-relevant work here
    checker.check_all()
    return refs


#: the tenant fleet the serving workloads admit (manager names match the
#: tenant names, so scenarios can target them for injection)
SERVE_TENANTS = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")


def _run_dbms(plan: ChaosPlan) -> ChaosResult:
    """Table-4 DBMS run (index-with-paging) under mild disk-error
    injection; no kernel in the loop, so no invariant checker."""
    from repro.dbms.simulator import TPConfig, run_tp_experiment
    from repro.dbms.transactions import IndexPolicy

    config = TPConfig(
        policy=IndexPolicy.PAGING,
        duration_s=20.0,
        warmup_s=2.0,
        seed=plan.seed,
        # one eviction inside the shortened run, so joins actually page
        eviction_period_txns=300,
        disk_error_rate=plan.disk_error_rate,
    )
    result = run_tp_experiment(config)
    return ChaosResult(
        scenario="dbms",
        seed=plan.seed,
        completed=True,
        injected={
            "disk_error": int(result.extra.get("injected_disk_errors", 0))
        },
        references=result.n_completed,
    )


#: workload name -> ``fn(system, checker) -> references`` (public: the
#: verify determinism gate replays these under its digest recorder)
WORKLOADS = {
    "figure2": _workload_figure2,
    "ecc": _workload_ecc,
    "disk": _workload_disk,
    "apps": _workload_apps,
    # the tenant fleet served closed-loop while injection crashes and
    # hangs its managers: batched service must degrade per item (typed
    # errors booked on the session), never corrupt frame or quota
    # accounting.  ``serve-thrash`` sets quotas tighter than the working
    # set, so every tenant recycles its own residents while faults land
    # and the quota-conservation sweep runs hot.
    "serve": serve_schedule(
        n_tenants=len(SERVE_TENANTS),
        duration_us=10_000.0,
        quota_frames=8,
        seed=7,
        rate_per_s=10_000.0,
    ),
    "serve-thrash": serve_schedule(
        n_tenants=len(SERVE_TENANTS),
        duration_us=10_000.0,
        quota_frames=4,
        seed=7,
        rate_per_s=10_000.0,
    ),
}

SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "figure2-crash",
            "victim manager crashes on fault delivery; fallback resolves",
            ChaosPlan(
                manager_crash_rate=0.5, target_managers=(VICTIM_MANAGER,)
            ),
            "figure2",
        ),
        Scenario(
            "figure2-hang",
            "victim manager hangs; per-fault timeout fails it over",
            ChaosPlan(
                manager_hang_rate=0.5, target_managers=(VICTIM_MANAGER,)
            ),
            "figure2",
        ),
        Scenario(
            "figure2-byzantine",
            "victim manager replies without resolving; kernel stops "
            "trusting it after repeated fruitless deliveries",
            ChaosPlan(
                manager_byzantine_rate=0.6,
                target_managers=(VICTIM_MANAGER,),
            ),
            "figure2",
        ),
        Scenario(
            "figure2-alloc-crash",
            "victim manager dies inside its frame allocator mid-handler",
            ChaosPlan(
                manager_alloc_crash_rate=0.4,
                target_managers=(VICTIM_MANAGER,),
            ),
            "figure2",
        ),
        Scenario(
            "ipc",
            "fault messages to the victim manager dropped and duplicated",
            ChaosPlan(
                ipc_drop_rate=0.25,
                ipc_duplicate_rate=0.25,
                target_managers=(VICTIM_MANAGER,),
            ),
            "figure2",
        ),
        Scenario(
            "disk-flaky",
            "transient disk errors and latency spikes under UIO traffic",
            ChaosPlan(
                disk_error_rate=0.15, disk_slow_rate=0.15, disk_slow_factor=8.0
            ),
            "disk",
        ),
        Scenario(
            "ecc",
            "frame ECC failures retire frames under anonymous references",
            ChaosPlan(frame_ecc_rate=0.05),
            "ecc",
        ),
        Scenario(
            "apps",
            "a Table-2 application under mixed manager and disk faults",
            ChaosPlan(
                manager_crash_rate=0.05,
                manager_hang_rate=0.05,
                disk_error_rate=0.05,
                target_managers=(VICTIM_MANAGER,),
            ),
            "apps",
        ),
        Scenario(
            "serve-tenant-crash",
            "tenant managers crash and hang mid-service; the batch "
            "scheduler books typed per-request errors and quota "
            "accounting stays conserved",
            ChaosPlan(
                manager_crash_rate=0.2,
                manager_hang_rate=0.1,
                target_managers=SERVE_TENANTS,
            ),
            "serve",
        ),
        Scenario(
            "serve-quota-thrash",
            "quotas tighter than working sets force continuous "
            "self-recycling while frames fail ECC and fault IPC "
            "duplicates",
            ChaosPlan(
                frame_ecc_rate=0.02,
                ipc_duplicate_rate=0.1,
                target_managers=SERVE_TENANTS,
            ),
            "serve-thrash",
        ),
        Scenario(
            "dbms",
            "Table-4 index-with-paging under mild disk-error injection",
            ChaosPlan(disk_error_rate=0.1),
            "dbms",
        ),
        Scenario(
            "figure2-warm-restart",
            "victim manager crashes on fault delivery; the recovery "
            "coordinator replays checkpoint+journal and warm-restarts "
            "it in place instead of failing over",
            ChaosPlan(
                manager_crash_rate=0.5, target_managers=(VICTIM_MANAGER,)
            ),
            "figure2",
            recovery=True,
        ),
        Scenario(
            "recovery-torn-journal",
            "crashes land while injection shears the journal tail; warm "
            "restart must detect the torn frame and fall back cold with "
            "invariants intact",
            ChaosPlan(
                manager_crash_rate=0.4,
                journal_tear_rate=0.8,
                target_managers=(VICTIM_MANAGER,),
            ),
            "figure2",
            recovery=True,
        ),
        Scenario(
            "recovery-double-crash",
            "a second crash lands during the in-flight restart window; "
            "the consecutive-restart budget trips and the kernel fails "
            "over cold",
            ChaosPlan(
                manager_crash_rate=0.85,
                target_managers=(VICTIM_MANAGER,),
            ),
            "figure2",
            recovery=True,
        ),
        Scenario(
            "recovery-checkpoint-corrupt",
            "checkpoints are corrupted on media; the read-back check "
            "discards each damaged one, so restore takes the last good "
            "checkpoint (or the journal origin) and a longer log, and "
            "still converges",
            ChaosPlan(
                manager_crash_rate=0.4,
                checkpoint_corrupt_rate=0.5,
                target_managers=(VICTIM_MANAGER,),
            ),
            "figure2",
            recovery=True,
        ),
        Scenario(
            "recovery-quota-pressure",
            "tenant managers crash under quotas tighter than their "
            "working sets; warm restarts must re-attach SPCM accounting "
            "without minting or leaking quota frames",
            ChaosPlan(
                manager_crash_rate=0.2,
                target_managers=SERVE_TENANTS,
            ),
            "serve-thrash",
            recovery=True,
        ),
    )
}


def run_schedule(
    scenario: str,
    seed: int = 0,
    plan: ChaosPlan | None = None,
    n_nodes: int | None = None,
    slo: bool = False,
    slo_policy=None,
    telemetry_interval_us: float | None = None,
    recovery: bool = False,
) -> ChaosResult:
    """Run one seeded fault schedule of ``scenario``.

    Invariants are checked after every injected event and once more after
    the workload; an :class:`InvariantViolationError` propagates (it is a
    test failure, not a survivable fault).  Any other
    :class:`~repro.errors.ReproError` is recorded on the result.
    ``n_nodes`` shards the SPCM over that many NUMA nodes, which arms the
    per-shard frame-conservation invariant as well.

    ``slo=True`` (or an explicit ``slo_policy``) arms the
    :class:`~repro.obs.slo.SLOWatchdog`: its drift objectives are swept
    after every injected event (alongside the invariant checker) and its
    latency/degradation objectives fire from the kernel's listeners; the
    alerts land on :attr:`ChaosResult.alerts`.  ``telemetry_interval_us``
    additionally installs a continuous-telemetry collector sampling at
    that simulated interval; the collector rides on
    :attr:`ChaosResult.telemetry`.  Neither applies to the ``dbms``
    scenario (no kernel in that loop).

    ``recovery=True`` (or a scenario declared with ``recovery=True``)
    installs the warm-restart coordinator before the workload: crashed,
    hung and unreachable managers then replay checkpoint+journal in
    place, and only torn journals, crash loops or a failed audit reach
    the kernel's cold failover path.  The coordinator's counters land on
    :attr:`ChaosResult.recovery_stats`.
    """
    spec = SCENARIOS.get(scenario)
    if spec is None:
        raise ChaosError(
            f"unknown scenario {scenario!r} "
            f"(have: {', '.join(sorted(SCENARIOS))})"
        )
    effective = replace(plan if plan is not None else spec.plan, seed=seed)
    if spec.workload == "dbms":
        return _run_dbms(effective)

    system = build_workload_system(n_nodes=n_nodes)
    injector = Injector(effective)
    injector.install(system)
    coordinator = None
    if recovery or spec.recovery:
        from repro.recovery import install_recovery

        coordinator = install_recovery(system)
    checker = InvariantChecker(system.kernel)
    injector.observers.append(checker)
    watchdog = None
    if slo or slo_policy is not None:
        from repro.obs.slo import SLOWatchdog

        watchdog = SLOWatchdog(system, slo_policy).install()
        injector.observers.append(watchdog)
    collector = None
    if telemetry_interval_us is not None:
        from repro.obs.telemetry import install_telemetry

        collector = install_telemetry(
            system, interval_us=telemetry_interval_us
        )
    result = ChaosResult(scenario=scenario, seed=seed, completed=False)
    try:
        result.references = WORKLOADS[spec.workload](system, checker)
        result.completed = True
    except InvariantViolationError:
        raise
    except ReproError as exc:
        result.error_type = type(exc).__name__
        result.error = str(exc)
        checker.check_all()  # state must stay consistent even on failure
    result.injected = injector.counts()
    result.checks_run = checker.checks_run
    result.kernel_stats = system.kernel.stats.as_dict()
    if watchdog is not None:
        watchdog.check()  # final sweep after the workload settles
        result.alerts = list(watchdog.alerts)
    if collector is not None:
        collector.sample_now()  # close the series at the final sim time
        result.telemetry = collector
    if coordinator is not None:
        result.recovery_stats = coordinator.stats_dict()
    return result


def run_seed_matrix(
    scenario: str,
    seeds,
    plan: ChaosPlan | None = None,
    n_nodes: int | None = None,
    recovery: bool = False,
) -> list[ChaosResult]:
    """Run ``scenario`` across ``seeds``; returns one result per seed."""
    return [
        run_schedule(
            scenario, seed, plan=plan, n_nodes=n_nodes, recovery=recovery
        )
        for seed in seeds
    ]
