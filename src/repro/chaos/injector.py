"""The fault injector: seed-driven failures at the stack's choke points.

Components (the kernel's manager supervisor, disk, physical memory) hold
an ``injector`` attribute, :data:`NULL_INJECTOR` by default --- the same
zero-overhead null-object pattern as :data:`repro.obs.trace.NULL_TRACER`.
Every injection site is guarded by ``injector.enabled``, so with
injection disabled the benchmarked paths make no extra calls and charge
no extra cost.

A live :class:`Injector` executes a :class:`~repro.chaos.plan.ChaosPlan`:
each choke point draws from its own named substream of one seeded
:class:`~repro.sim.rng.RandomSource`, so the schedule is reproducible
bit-for-bit and independent of how other components consume randomness.
Injected events are recorded in order, reported to the tracer (actor
``"chaos"``), and fanned out to observer callbacks --- the harness hooks
the :class:`~repro.invariants.InvariantChecker` there so the whole
invariant table is swept after *every* injected event.

Import discipline: this module is imported by ``hw/disk.py``,
``hw/phys_mem.py`` and ``core/supervisor.py``, so it must not import
anything above the ``sim``/``obs``/``errors`` layers.
"""

from __future__ import annotations

from typing import Callable

from repro.chaos.plan import (
    ChaosPlan,
    InjectedFault,
    IPCFailureMode,
    ManagerFailureMode,
)
from repro.errors import ManagerCrashError, TransientDiskError
from repro.obs.trace import NULL_TRACER
from repro.sim.rng import RandomSource


class NullInjector:
    """Zero-overhead stand-in used when fault injection is disabled."""

    __slots__ = ()

    enabled = False

    def disk_io(self, op: str, block_no: int) -> float:
        """No injection: service time is unscaled."""
        return 1.0

    def frame_ecc(self, pfn: int) -> bool:
        """No injection: the frame is healthy."""
        return False

    def manager_invocation(self, name: str) -> None:
        """No injection: the manager behaves."""
        return None

    def manager_alloc(self, name: str) -> None:
        """No injection: the allocator survives."""

    def ipc_delivery(self, name: str) -> None:
        """No injection: the message is delivered exactly once."""
        return None

    def journal_tear(self, journal) -> None:
        """No injection: the recovery journal tail is intact."""

    def checkpoint_corrupt(self, name: str) -> bool:
        """No injection: the checkpoint is readable."""
        return False


#: The shared disabled injector; identity-comparable (``is NULL_INJECTOR``).
NULL_INJECTOR = NullInjector()


class Injector:
    """Executes a :class:`ChaosPlan` against a live system.

    Call :meth:`install` to point every component of a built
    :class:`repro.System` at this injector (and :meth:`uninstall` to put
    the null injector back).
    """

    enabled = True

    def __init__(
        self,
        plan: ChaosPlan,
        rng: RandomSource | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        plan.validate()
        self.plan = plan
        source = rng if rng is not None else RandomSource(plan.seed)
        self._disk_rng = source.substream("chaos.disk")
        self._ecc_rng = source.substream("chaos.ecc")
        self._mgr_rng = source.substream("chaos.manager")
        self._ipc_rng = source.substream("chaos.ipc")
        self._journal_rng = source.substream("chaos.journal")
        self.tracer = tracer
        #: every injected event, in schedule order
        self.injected: list[InjectedFault] = []
        #: called with each InjectedFault right after it is recorded
        self.observers: list[Callable[[InjectedFault], None]] = []
        self._disk_burst_left = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once the plan's injection budget is spent."""
        return (
            self.plan.max_injections is not None
            and len(self.injected) >= self.plan.max_injections
        )

    def counts(self) -> dict[str, int]:
        """Injected events by kind."""
        out: dict[str, int] = {}
        for fault in self.injected:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    def _record(self, kind: str, target: str, detail: str = "") -> InjectedFault:
        fault = InjectedFault(len(self.injected) + 1, kind, target, detail)
        self.injected.append(fault)
        if self.tracer.enabled:
            suffix = f" ({detail})" if detail else ""
            self.tracer.event("chaos", f"inject {kind}: {target}{suffix}")
        for observer in self.observers:
            observer(fault)
        return fault

    def _eligible_manager(self, name: str) -> bool:
        targets = self.plan.target_managers
        return targets is None or name in targets

    # -- choke points ------------------------------------------------------

    def disk_io(self, op: str, block_no: int) -> float:
        """One disk transfer: raise a transient error or return the
        service-time multiplier (1.0 when nothing is injected)."""
        if self._disk_burst_left > 0:
            self._disk_burst_left -= 1
            self._record("disk_error", f"{op}@{block_no}", "burst")
            raise TransientDiskError(
                f"injected transient {op} error at block {block_no} (burst)"
            )
        if self.exhausted:
            return 1.0
        plan = self.plan
        if plan.disk_error_rate > 0.0 and self._disk_rng.bernoulli(
            plan.disk_error_rate
        ):
            self._disk_burst_left = plan.disk_error_burst - 1
            self._record("disk_error", f"{op}@{block_no}")
            raise TransientDiskError(
                f"injected transient {op} error at block {block_no}"
            )
        if plan.disk_slow_rate > 0.0 and self._disk_rng.bernoulli(
            plan.disk_slow_rate
        ):
            self._record(
                "disk_slow", f"{op}@{block_no}", f"x{plan.disk_slow_factor}"
            )
            return plan.disk_slow_factor
        return 1.0

    def frame_ecc(self, pfn: int) -> bool:
        """Does referencing frame ``pfn`` raise an ECC machine check?"""
        if self.exhausted or self.plan.frame_ecc_rate <= 0.0:
            return False
        if self._ecc_rng.bernoulli(self.plan.frame_ecc_rate):
            self._record("frame_ecc", f"pfn={pfn}")
            return True
        return False

    def manager_invocation(self, name: str) -> ManagerFailureMode | None:
        """How the named manager misbehaves for this invocation, if at all."""
        plan = self.plan
        if (
            self.exhausted
            or plan.manager_rate <= 0.0
            or not self._eligible_manager(name)
        ):
            return None
        draw = self._mgr_rng.random()
        if draw < plan.manager_crash_rate:
            self._record("manager_crash", name)
            return ManagerFailureMode.CRASH
        if draw < plan.manager_crash_rate + plan.manager_hang_rate:
            self._record("manager_hang", name)
            return ManagerFailureMode.HANG
        if draw < plan.manager_rate:
            self._record("manager_byzantine", name)
            return ManagerFailureMode.BYZANTINE
        return None

    def manager_alloc(self, name: str) -> None:
        """Mid-handler crash point: the manager dies in its allocator."""
        if (
            self.exhausted
            or self.plan.manager_alloc_crash_rate <= 0.0
            or not self._eligible_manager(name)
        ):
            return
        if self._mgr_rng.bernoulli(self.plan.manager_alloc_crash_rate):
            self._record("manager_alloc_crash", name)
            raise ManagerCrashError(
                f"injected crash of manager {name} in its frame allocator"
            )

    def ipc_delivery(self, name: str) -> IPCFailureMode | None:
        """Fate of one fault message to a separate-process manager."""
        plan = self.plan
        if (
            self.exhausted
            or plan.ipc_rate <= 0.0
            or not self._eligible_manager(name)
        ):
            return None
        draw = self._ipc_rng.random()
        if draw < plan.ipc_drop_rate:
            self._record("ipc_drop", name)
            return IPCFailureMode.DROP
        if draw < plan.ipc_rate:
            self._record("ipc_duplicate", name)
            return IPCFailureMode.DUPLICATE
        return None

    def journal_tear(self, journal) -> None:
        """Maybe shear bytes off the recovery journal's tail.

        Models the crash interrupting the journal append itself: the
        warm-restart path calls this before decoding, and the torn tail
        forces :class:`~repro.recovery.restart.RecoveryCoordinator` down
        its cold-failover branch.
        """
        plan = self.plan
        if (
            self.exhausted
            or plan.journal_tear_rate <= 0.0
            or not journal.enabled
            or journal.size_bytes == 0
        ):
            return
        if self._journal_rng.bernoulli(plan.journal_tear_rate):
            n_bytes = self._journal_rng.randint(1, plan.journal_tear_max_bytes)
            torn = journal.tear_tail(n_bytes)
            if torn:
                self._record("journal_tear", f"{torn} bytes")

    def checkpoint_corrupt(self, name: str) -> bool:
        """Is the checkpoint being taken for ``name`` damaged on media?"""
        if self.exhausted or self.plan.checkpoint_corrupt_rate <= 0.0:
            return False
        if self._journal_rng.bernoulli(self.plan.checkpoint_corrupt_rate):
            self._record("checkpoint_corrupt", name)
            return True
        return False

    # -- wiring ------------------------------------------------------------

    def install(self, system) -> None:
        """Point every component of a built ``System`` at this injector."""
        system.kernel.supervisor.injector = self
        system.disk.injector = self
        system.memory.injector = self
        if self.tracer is NULL_TRACER and system.tracer.enabled:
            self.tracer = system.tracer
        try:
            system.injector = self
        except AttributeError:  # pragma: no cover - read-only containers
            pass

    @staticmethod
    def uninstall(system) -> None:
        """Restore the null injector on every component."""
        system.kernel.supervisor.injector = NULL_INJECTOR
        system.disk.injector = NULL_INJECTOR
        system.memory.injector = NULL_INJECTOR
        try:
            system.injector = NULL_INJECTOR
        except AttributeError:  # pragma: no cover - read-only containers
            pass
