"""The run-twice determinism gate.

Every simulation in this repository is meant to be a pure function of
its seeds.  This module makes that a checkable property: execute one
workload twice from identical inputs, record a
:class:`~repro.verify.digest.DigestChain` link per outermost kernel
fault plus a final full-state snapshot, and diff the two chains.  Equal
head digests prove the runs computed identical state at every recorded
step; a mismatch is pinpointed to the **first divergent step** (the
chain construction guarantees the first differing link is the first
differing payload, not a downstream consequence).

Workloads the gate can drive:

* the chaos harness workloads (``figure2``, ``ecc``, ``disk``,
  ``apps``) on the exact machine the chaos suite boots, optionally
  under a seeded chaos plan against the victim manager;
* the oracle's reference schedules (``table1``, or any
  :class:`~repro.verify.schedule.WorkloadSchedule`, e.g. a corpus
  entry) through the V++ executor;
* any callable ``fn(system, checker) -> refs`` (tests inject a
  deliberately nondeterministic manager this way to prove the gate
  catches it).

A typed :class:`~repro.errors.ReproError` stopping the workload is
itself recorded as a chain step --- a run that fails the same way at the
same point is deterministic; one that fails differently is the bug.
Every run closes with a full :class:`~repro.invariants.InvariantChecker`
sweep before its final-state link, and an invariant violation --- during
the run or in that sweep --- fails the gate even when both runs break
the same invariant at the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos.harness import (
    VICTIM_MANAGER,
    WORKLOADS,
    build_workload_system,
)
from repro.chaos.injector import Injector
from repro.chaos.plan import ChaosPlan
from repro.errors import InvariantViolationError, ReproError, VerificationError
from repro.invariants import InvariantChecker
from repro.verify.digest import DigestChain, Divergence, snapshot_state
from repro.verify.oracle import build_vpp_system, drive_vpp
from repro.verify.schedule import NAMED_SCHEDULES, WorkloadSchedule

#: the mixed-fault plan ``--chaos-seed`` reseeds: manager crash/hang and
#: IPC trouble at the victim manager, plus background disk errors
VERIFY_CHAOS_PLAN = ChaosPlan(
    manager_crash_rate=0.2,
    manager_hang_rate=0.1,
    ipc_duplicate_rate=0.1,
    disk_error_rate=0.05,
    target_managers=(VICTIM_MANAGER,),
)


class ChainRecorder:
    """Appends one digest-chain link per outermost kernel fault.

    The per-step payload carries the fault's identity and its visible
    effects (resolved pfn, simulated latency, the meter and fault
    counters after service) --- enough that any difference in fault
    *order*, *placement*, or *cost* between two runs lands in the chain
    at the exact step it first happens.
    """

    def __init__(self, system, chain: DigestChain) -> None:
        self.system = system
        self.chain = chain
        system.kernel.on_fault_serviced(self._on_fault)

    def _on_fault(self, space, vpn, write, latency_us, pfn) -> None:
        kernel = self.system.kernel
        digest = self.chain.append(
            f"fault:{space.name}:{vpn}",
            [
                space.seg_id,
                space.name,
                vpn,
                bool(write),
                pfn,
                latency_us,
                kernel.meter.total_us,
                kernel.stats.faults,
            ],
        )
        if self.system.tracer.enabled:
            self.system.tracer.digest_event(
                len(self.chain.steps) - 1, digest, label=f"{space.name}:{vpn}"
            )

    def finalize(self) -> str:
        """Append the full-state snapshot as the terminal link."""
        digest = self.chain.append(
            "final-state", snapshot_state(self.system)
        )
        if self.system.tracer.enabled:
            self.system.tracer.digest_event(
                len(self.chain.steps) - 1, digest, label="final-state"
            )
        return digest


@dataclass
class RunRecord:
    """One recorded execution: its chain and how it ended."""

    label: str
    chain: DigestChain
    references: int = 0
    error_type: str | None = None
    #: the invariant violation the run or its closing sweep raised
    violation: str | None = None


@dataclass
class DeterminismReport:
    """Two recorded runs and where (if anywhere) they part ways."""

    workload: str
    nodes: int | None
    chaos_seed: int | None
    runs: list[RunRecord] = field(default_factory=list)
    divergence: Divergence | None = None

    @property
    def failure(self) -> str | None:
        """Why the gate fails: the divergence, else a broken invariant."""
        if self.divergence is not None:
            return self.divergence.describe()
        for run in self.runs:
            if run.violation is not None:
                return f"run {run.label} broke invariants: {run.violation}"
        return None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def render(self) -> str:
        """A human-readable verdict (both runs, then PASS or the step)."""
        a, b = self.runs[0], self.runs[1]
        lines = [
            f"determinism: workload {self.workload!r} nodes={self.nodes} "
            f"chaos_seed={self.chaos_seed}",
            f"  run {a.label}: {len(a.chain.steps)} steps, "
            f"head {a.chain.head[:16]}..."
            + (f" (stopped: {a.error_type})" if a.error_type else ""),
            f"  run {b.label}: {len(b.chain.steps)} steps, "
            f"head {b.chain.head[:16]}..."
            + (f" (stopped: {b.error_type})" if b.error_type else ""),
        ]
        if self.ok:
            lines.append("  PASS: digest chains identical")
        else:
            lines.append(f"  FAIL: {self.failure}")
        return "\n".join(lines)


def _resolve_workload(workload, nodes):
    """Normalize the many accepted workload forms to a driver closure.

    Returns ``(name, drive)`` where ``drive(chaos_seed, label)`` boots a
    fresh system, records a chain, and returns a :class:`RunRecord`.
    """
    if isinstance(workload, WorkloadSchedule):
        return workload.name, _schedule_driver(workload, nodes)
    if callable(workload):
        name = getattr(workload, "__name__", "custom")
        return name, _chaos_driver(workload, nodes)
    if workload in WORKLOADS:
        # figure2 exists in both registries; the chaos workload wins
        # (it is the one the chaos suite actually runs)
        return workload, _chaos_driver(WORKLOADS[workload], nodes)
    from repro.serve.loadgen import SERVING_SCHEDULES

    if workload in SERVING_SCHEDULES:
        return workload, _chaos_driver(SERVING_SCHEDULES[workload], nodes)
    if workload in NAMED_SCHEDULES:
        schedule = NAMED_SCHEDULES[workload](nodes=nodes)
        return workload, _schedule_driver(schedule, nodes)
    raise VerificationError(
        f"unknown workload {workload!r}; have chaos workloads "
        f"{sorted(WORKLOADS)}, serving schedules "
        f"{sorted(SERVING_SCHEDULES)}, and schedules "
        f"{sorted(NAMED_SCHEDULES)}"
    )


def _install_chaos(system, chaos_seed) -> None:
    if chaos_seed is None:
        return
    injector = Injector(
        replace(VERIFY_CHAOS_PLAN, seed=chaos_seed), tracer=system.tracer
    )
    injector.install(system)


def _record(system, chain: DigestChain, label: str, body) -> RunRecord:
    """Run ``body(checker)`` on ``system`` under a chain recorder.

    A typed stop is chained; the run then closes with a full invariant
    sweep and the final-state link.
    """
    recorder = ChainRecorder(system, chain)
    record = RunRecord(label=label, chain=chain)
    checker = InvariantChecker(system.kernel)
    try:
        record.references = body(checker)
    except ReproError as exc:
        # a typed failure is a legitimate, repeatable outcome; chain it
        # so both runs must fail identically at the same point
        record.error_type = type(exc).__name__
        chain.append("error", [type(exc).__name__, str(exc)])
        if isinstance(exc, InvariantViolationError):
            record.violation = str(exc)
    if record.violation is None:
        try:
            checker.check_all()
        except InvariantViolationError as exc:
            record.violation = str(exc)
    recorder.finalize()
    return record


def _chaos_driver(fn, nodes):
    def drive(chaos_seed, label) -> RunRecord:
        system = build_workload_system(n_nodes=nodes)
        _install_chaos(system, chaos_seed)
        chain = DigestChain(
            meta={"workload": getattr(fn, "__name__", "custom"),
                  "nodes": nodes, "chaos_seed": chaos_seed}
        )
        return _record(
            system, chain, label, lambda checker: fn(system, checker)
        )

    return drive


def _schedule_driver(schedule: WorkloadSchedule, nodes):
    if nodes is not None and schedule.nodes != nodes:
        schedule = replace(schedule, nodes=nodes)

    def drive(chaos_seed, label) -> RunRecord:
        system, _manager, segments = build_vpp_system(schedule)
        _install_chaos(system, chaos_seed)
        chain = DigestChain(
            meta={"workload": schedule.name, "nodes": schedule.nodes,
                  "chaos_seed": chaos_seed}
        )

        def body(_checker) -> int:
            drive_vpp(system, schedule, segments)
            return len(schedule.ops)

        return _record(system, chain, label, body)

    return drive


def run_twice(
    workload,
    nodes: int | None = None,
    chaos_seed: int | None = None,
) -> DeterminismReport:
    """Execute ``workload`` twice from identical inputs and diff chains."""
    name, drive = _resolve_workload(workload, nodes)
    report = DeterminismReport(
        workload=name, nodes=nodes, chaos_seed=chaos_seed
    )
    report.runs.append(drive(chaos_seed, "A"))
    report.runs.append(drive(chaos_seed, "B"))
    report.divergence = report.runs[0].chain.first_divergence(
        report.runs[1].chain
    )
    return report
