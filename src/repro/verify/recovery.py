"""The recovery determinism gate: warm restart must be invisible.

The claim crash-consistent recovery makes is strong: a manager crash
followed by a warm restart (checkpoint restore + journal replay +
auditor sweep) leaves the machine in the *same authoritative state* a
crash-free run reaches.  This gate makes the claim checkable, in the
style of :mod:`repro.verify.determinism`'s run-twice property:

* run **A**: the workload with recovery installed and no injection;
* run **B**: the identical workload and seeds, with a crash-only chaos
  plan injecting :class:`~repro.errors.ManagerCrashError` at the fault
  choke points and an effectively unlimited restart budget, so every
  crash takes the warm path.

The runs are then compared on the **recovery snapshot** --- the
authoritative subset of :func:`~repro.verify.digest.snapshot_state`:
segment registry and frame contents, the page table, retired frames,
and the SPCM's free pool and per-account holdings.  Kernel counters and
the cost meter are deliberately excluded (run B legitimately pays for
redeliveries and replay); what must *not* differ is where any page
lives, what it contains, and who is charged for it.

The gate additionally requires that run B never took the cold path:
zero failovers, zero cold fallbacks, and at least one warm restart
whenever a crash was injected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.chaos.harness import (
    SERVE_TENANTS,
    VICTIM_MANAGER,
    WORKLOADS,
    build_workload_system,
)
from repro.chaos.injector import Injector
from repro.chaos.plan import ChaosPlan
from repro.errors import ReproError, VerificationError
from repro.invariants import InvariantChecker
from repro.verify.digest import digest_payload, snapshot_state

#: the crash-only plan the gate injects in run B; every eligible manager
#: (the chaos victim and the serving tenants) crashes on ~15% of
#: deliveries, and recovery must absorb all of it warmly
RECOVERY_CHAOS_PLAN = ChaosPlan(
    manager_crash_rate=0.15,
    target_managers=(VICTIM_MANAGER,) + SERVE_TENANTS,
)

#: SPCM accounting rows the recovery snapshot keeps: the free pool and
#: per-account frame holdings (grant/defer *counters* legitimately move
#: under redelivery and are excluded, like the kernel counters)
_SPCM_ROW_KINDS = ("free", "held")


def recovery_snapshot(system) -> dict:
    """The authoritative-state subset two equivalent runs must share."""
    snap = snapshot_state(system)
    return {
        "digest_version": snap["digest_version"],
        "segments": snap["segments"],
        "page_table": snap["page_table"],
        "retired_frames": snap["retired_frames"],
        "spcm": [
            row for row in snap["spcm"] if row and row[0] in _SPCM_ROW_KINDS
        ],
    }


@dataclass
class RecoveryGateReport:
    """One workload's verdict: crash-free vs crashed-and-recovered."""

    workload: str
    nodes: int | None
    chaos_seed: int
    baseline_digest: str = ""
    recovered_digest: str = ""
    crashes: int = 0
    warm_restarts: int = 0
    cold_fallbacks: int = 0
    failovers: int = 0
    fault_delta: int = 0
    divergent_key: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.baseline_digest == self.recovered_digest
            and self.failovers == 0
            and self.cold_fallbacks == 0
            and (self.crashes == 0 or self.warm_restarts > 0)
        )

    def render(self) -> str:
        """A human-readable verdict line pair."""
        head = (
            f"recovery: workload {self.workload!r} nodes={self.nodes} "
            f"chaos_seed={self.chaos_seed}"
        )
        body = (
            f"  {self.crashes} crash(es), {self.warm_restarts} warm "
            f"restart(s), {self.cold_fallbacks} cold fallback(s), "
            f"{self.failovers} failover(s), fault delta {self.fault_delta}"
        )
        if self.ok:
            verdict = (
                f"  PASS: recovered state digest matches baseline "
                f"({self.baseline_digest[:16]}...)"
            )
        elif self.error is not None:
            verdict = f"  FAIL: {self.error}"
        elif self.divergent_key is not None:
            verdict = (
                f"  FAIL: snapshots diverge at {self.divergent_key!r} "
                f"({self.baseline_digest[:16]}... vs "
                f"{self.recovered_digest[:16]}...)"
            )
        else:
            verdict = "  FAIL: run B took the cold path"
        return "\n".join([head, body, verdict])


def _resolve(workload):
    if callable(workload):
        return getattr(workload, "__name__", "custom"), workload
    if workload in WORKLOADS:
        return workload, WORKLOADS[workload]
    from repro.serve.loadgen import SERVING_SCHEDULES

    if workload in SERVING_SCHEDULES:
        return workload, SERVING_SCHEDULES[workload]
    raise VerificationError(
        f"unknown workload {workload!r}; have chaos workloads "
        f"{sorted(WORKLOADS)} and serving schedules "
        f"{sorted(SERVING_SCHEDULES)}"
    )


def _run(fn, nodes, plan) -> tuple[dict, object, object]:
    """One execution; returns (snapshot, system, coordinator)."""
    from repro.recovery import install_recovery

    system = build_workload_system(n_nodes=nodes)
    if plan is not None:
        Injector(plan).install(system)
    # an effectively unlimited restart budget: the gate asks whether the
    # warm path *converges*, not whether the crash-loop breaker trips
    coordinator = install_recovery(system, max_restarts=1_000_000)
    checker = InvariantChecker(system.kernel)
    fn(system, checker)
    checker.check_all()
    return recovery_snapshot(system), system, coordinator


def run_recovery_gate(
    workload, nodes: int | None = None, chaos_seed: int = 0
) -> RecoveryGateReport:
    """Compare a crash-free run against a crashed-and-recovered run."""
    name, fn = _resolve(workload)
    report = RecoveryGateReport(
        workload=name, nodes=nodes, chaos_seed=chaos_seed
    )
    snap_a, system_a, _ = _run(fn, nodes, None)
    report.baseline_digest = digest_payload(snap_a)
    try:
        snap_b, system_b, coordinator = _run(
            fn, nodes, replace(RECOVERY_CHAOS_PLAN, seed=chaos_seed)
        )
    except ReproError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        return report
    report.recovered_digest = digest_payload(snap_b)
    stats_b = system_b.kernel.stats
    report.crashes = stats_b.manager_crashes
    report.warm_restarts = stats_b.warm_restarts
    report.cold_fallbacks = coordinator.cold_fallbacks
    report.failovers = stats_b.manager_failovers
    report.fault_delta = stats_b.faults - system_a.kernel.stats.faults
    if report.baseline_digest != report.recovered_digest:
        for key in snap_a:
            if digest_payload(snap_a[key]) != digest_payload(snap_b[key]):
                report.divergent_key = key
                break
    return report


def gate_workloads() -> list[str]:
    """Every workload the gate covers (chaos + serving registries)."""
    from repro.serve.loadgen import SERVING_SCHEDULES

    return sorted(WORKLOADS) + sorted(SERVING_SCHEDULES)


def run_recovery_gate_all(
    nodes: int | None = None, chaos_seed: int = 0
) -> list[RecoveryGateReport]:
    """Run the gate over every registered workload."""
    return [
        run_recovery_gate(name, nodes=nodes, chaos_seed=chaos_seed)
        for name in gate_workloads()
    ]
