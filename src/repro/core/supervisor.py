"""Manager supervision: fault delivery, chaos choke points, failover.

The kernel forwards a fault (:meth:`~repro.core.kernel.Kernel.dispatch_fault`)
and the :class:`ManagerSupervisor` carries it to the manager and back: the
control transfer for the manager's invocation mode, the fault injector's
manager and IPC choke points, and --- when the manager crashes, hangs,
proves unreachable, or keeps replying without resolving the fault --- the
one duty the kernel owes a misbehaving manager (paper S2.3): reassign its
segments to the fallback (default) manager.  A crashed, hung or
unreachable manager is first offered to the recovery coordinator for a
warm restart; a byzantine one fails over at once.

Every degradation is reported to the :meth:`ManagerSupervisor.on_degradation`
listeners, which is where the SLO watchdog judges failover and restart
times.  The supervisor exists from boot, so a listener may subscribe before
or after recovery is installed.

Chaos, recovery and the fallback plug in through three fields, all inert by
default: :attr:`~ManagerSupervisor.injector` (``NULL_INJECTOR``),
:attr:`~ManagerSupervisor.recovery` and :attr:`~ManagerSupervisor.fallback`
(``None``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chaos.injector import NULL_INJECTOR
from repro.chaos.plan import IPCFailureMode, ManagerFailureMode
from repro.core.manager_api import InvocationMode, SegmentManager
from repro.errors import ManagerCrashError, UnresolvedFaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import PageFault
    from repro.core.kernel import Kernel

__all__ = [
    "FAILOVER_AFTER_ATTEMPTS",
    "IPC_MAX_REDELIVERIES",
    "ManagerSupervisor",
]

#: After this many fruitless manager deliveries on one reference, the
#: supervisor stops trusting the manager and fails the segment over to the
#: fallback (must be < ``MAX_FAULT_RETRIES`` so the fallback still gets
#: retries).
FAILOVER_AFTER_ATTEMPTS = 4

#: Dropped fault messages are redelivered this many times before the
#: supervisor declares the manager unreachable.
IPC_MAX_REDELIVERIES = 3

# members read on every delivery, as module globals: on CPython 3.11
# every attribute read off an Enum class takes the slow lookup the
# metaclass's ``__getattr__`` hook forces (about 80 ns)
_SEPARATE_PROCESS = InvocationMode.SEPARATE_PROCESS
_CRASH = ManagerFailureMode.CRASH
_HANG = ManagerFailureMode.HANG
_BYZANTINE = ManagerFailureMode.BYZANTINE


class ManagerSupervisor:
    """Delivers forwarded faults and fails misbehaving managers over."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: fault injector (NULL_INJECTOR when chaos is disabled)
        self.injector = NULL_INJECTOR
        #: recovery coordinator, when installed (warm-restarts crashed,
        #: hung and unreachable managers before the cold failover path)
        self.recovery = None
        #: manager segments fail over to when their own manager crashes,
        #: hangs, or keeps failing (``build_system`` points this at the
        #: default manager; None disables failover)
        self.fallback: SegmentManager | None = None
        # one fault-delivery IPC leg (message + context switch), summed
        # once: charged twice per separate-process fault delivery
        self._ipc_round_cost = (
            kernel.costs.ipc_message + kernel.costs.context_switch
        )
        # sim time at which an in-flight manager degradation was detected
        # (failover duration is measured from here, not from reassignment)
        self._degradation_start: float | None = None
        # set while a failed-over fault is being retried, so the kernel can
        # attribute the resolving reference to the fallback manager
        self._failover_pending = False
        self._listeners: list = []

    def on_degradation(self, listener) -> None:
        """Call ``listener(event, manager_name, duration_us)`` per degradation.

        ``event`` is ``"failover"`` (the manager's segments moved to the
        fallback; the duration runs from first detection),
        ``"warm_restart"`` or ``"cold_fallback"`` (a recovery attempt's
        outcome and metered duration, reported before the failover a cold
        fallback leads to).

        Listeners are observability, never control flow: an exception a
        listener raises is counted in ``KernelStats.listener_errors``, the
        remaining listeners still run, the listener stays subscribed, and
        the fault outcome is unaffected.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def deliver(self, manager: SegmentManager, fault: "PageFault") -> bool:
        """Carry one forwarded fault to ``manager`` and its reply back.

        Returns True when the manager failed instead of replying --- its
        segments failed over to the fallback, or recovery restarted it in
        place --- and the kernel must dispatch the fault again.
        """
        outcome = None
        deliveries = 1
        # the injector may strike any manager but the fallback: the
        # paper's survival story assumes the default manager is sound
        if self.injector.enabled and manager is not self.fallback:
            outcome = self.injector.manager_invocation(manager.name)
            if outcome is _HANG:
                self._unresponsive(manager, fault, "timed out")
                return True
            if outcome is None and manager.invocation is _SEPARATE_PROCESS:
                deliveries = self._ipc_deliveries(manager, fault)
                if deliveries == 0:
                    return True  # unreachable: restarted or failed over
        try:
            for _ in range(deliveries):
                self._invoke(manager, fault, outcome)
        except ManagerCrashError as crash:
            self._crashed(manager, fault, crash)
            return True
        if self.recovery is not None:
            # the delivery succeeded: the manager is making progress, so
            # its consecutive-restart budget resets
            self.recovery.note_progress(manager)
        return False

    def _invoke(
        self,
        manager: SegmentManager,
        fault: "PageFault",
        outcome: ManagerFailureMode | None,
    ) -> None:
        """One delivery: control transfer, handler, resumption charges.

        ``outcome`` is the injector's verdict for this delivery: a
        crashing manager dies once control reaches it, a byzantine one
        replies without resolving the fault.
        """
        kernel = self.kernel
        meter = kernel.meter
        costs = kernel.costs
        tracer = kernel.tracer
        separate = manager.invocation is _SEPARATE_PROCESS
        crashes = outcome is _CRASH
        if separate:
            ipc_cost = self._ipc_round_cost
            meter.charge("fault_ipc", ipc_cost)
            if tracer.enabled:
                tracer.event(
                    "ipc",
                    f"fault message to {manager.name}"
                    + (" (crashes)" if crashes else ""),
                    ipc_cost,
                )
        else:
            meter.charge("fault_upcall", costs.vpp_upcall)
        if crashes:
            raise ManagerCrashError(
                f"manager {manager.name} died on fault delivery"
            )
        if outcome is _BYZANTINE:
            kernel.stats.byzantine_replies += 1
            if tracer.enabled:
                tracer.step(
                    "manager",
                    f"{manager.name} replies without resolving the fault",
                )
        else:
            # attribution is pushed inline: this runs once per fault
            # delivery, and a context manager here would cost a
            # generator allocation on the hottest path
            attribution = kernel._attribution
            attribution.append(manager.name)
            try:
                if tracer.enabled:
                    with tracer.span(
                        "manager", "handle_fault", manager=manager.name
                    ):
                        manager.handle_fault(fault)
                else:
                    manager.handle_fault(fault)
            finally:
                attribution.pop()
        if separate:
            ipc_cost = self._ipc_round_cost
            meter.charge("fault_ipc", ipc_cost)
            if tracer.enabled:
                tracer.event(
                    "ipc", f"reply message from {manager.name}", ipc_cost
                )
            resume_us = costs.vpp_kernel_resume
        else:
            resume_us = costs.vpp_resume_direct
        meter.charge("fault_resume", resume_us)
        if tracer.enabled:
            tracer.step(
                "manager",
                "reply to faulting process; application resumes",
                resume_us,
            )

    def _ipc_deliveries(
        self, manager: SegmentManager, fault: "PageFault"
    ) -> int:
        """How many times to invoke the handler for one fault message.

        Models at-least-once IPC: a dropped message costs the send plus a
        reply timeout and is redelivered (bounded); a duplicated message
        invokes the handler twice, which managers must tolerate.  Returns
        0 when the manager proved unreachable (already restarted or
        failed over).
        """
        kernel = self.kernel
        costs = kernel.costs
        delivery = self.injector.ipc_delivery(manager.name)
        redeliveries = 0
        while delivery is IPCFailureMode.DROP:
            kernel.stats.ipc_drops += 1
            # the lost send still costs a message; then the kernel waits
            # out its reply timeout before redelivering
            kernel.meter.charge("fault_ipc", costs.ipc_message)
            if kernel.tracer.enabled:
                kernel.tracer.event(
                    "ipc",
                    f"lost fault message to {manager.name}",
                    costs.ipc_message,
                )
            kernel.meter.charge("manager_timeout", costs.manager_timeout_us)
            if kernel.tracer.enabled:
                kernel.tracer.step(
                    "kernel",
                    f"fault message to {manager.name} lost; redeliver "
                    "after reply timeout",
                    costs.manager_timeout_us,
                )
            redeliveries += 1
            if redeliveries > IPC_MAX_REDELIVERIES:
                self._unresponsive(manager, fault, "unreachable")
                return 0
            delivery = self.injector.ipc_delivery(manager.name)
        if delivery is IPCFailureMode.DUPLICATE:
            kernel.stats.ipc_duplicates += 1
            if kernel.tracer.enabled:
                kernel.tracer.step(
                    "kernel",
                    f"fault message to {manager.name} duplicated "
                    "(at-least-once delivery)",
                )
            return 2
        return 1

    # ------------------------------------------------------------------
    # graceful degradation (paper S2.2: the kernel protects itself from
    # faulty or uncooperative segment managers)
    # ------------------------------------------------------------------

    def distrust(self, fault: "PageFault", attempt: int) -> bool:
        """The fault persisted through ``attempt`` deliveries.

        The manager keeps replying without resolving the fault (the
        byzantine mode): stop trusting it and fail its segments over.
        Returns True when that happened, so the next delivery goes to the
        fallback; False when there is nothing to fail over to.
        """
        kernel = self.kernel
        target = kernel.segment(fault.segment_id)
        manager = target.manager
        fallback = self.fallback
        if manager is None or fallback is None or manager is fallback:
            return False
        if kernel.tracer.enabled:
            kernel.tracer.step(
                "kernel",
                f"fault persists after {attempt} deliveries to "
                f"{manager.name}; treating the manager as faulty",
            )
        self._fail_over(manager, fault, "failed to resolve the fault")
        return True

    def _crashed(
        self,
        manager: SegmentManager,
        fault: "PageFault",
        crash: ManagerCrashError,
    ) -> None:
        """The manager died: warm restart if recovery can, else fail over."""
        kernel = self.kernel
        kernel.stats.manager_crashes += 1
        if kernel.tracer.enabled:
            kernel.tracer.step("kernel", f"manager crash detected: {crash}")
        self._restart_or_fail_over(manager, fault, "crashed")

    def _unresponsive(
        self, manager: SegmentManager, fault: "PageFault", reason: str
    ) -> None:
        """Per-fault timeout expired with no manager reply: restart the
        manager if recovery can, else fail over."""
        kernel = self.kernel
        kernel.stats.manager_timeouts += 1
        # the degradation clock starts at detection: the timeout spent
        # waiting is part of the restart or failover latency the SLO
        # budgets
        if self._degradation_start is None:
            self._degradation_start = kernel.meter.total_us
        timeout_us = kernel.costs.manager_timeout_us
        kernel.meter.charge("manager_timeout", timeout_us)
        if kernel.tracer.enabled:
            kernel.tracer.step(
                "kernel",
                f"manager {manager.name} unresponsive; per-fault timeout "
                f"({timeout_us:.0f} us) expires",
                timeout_us,
            )
        self._restart_or_fail_over(manager, fault, reason)

    def _restart_or_fail_over(
        self, manager: SegmentManager, fault: "PageFault", reason: str
    ) -> None:
        """Offer a crashed, hung or unreachable manager to recovery for a
        warm restart; fail it over when the restart declines."""
        kernel = self.kernel
        # a second failure during an in-flight recovery/failover keeps the
        # original detection time (the SLO measures degradation from first
        # detection, not from the latest failure)
        if self._degradation_start is None:
            self._degradation_start = kernel.meter.total_us
        report = (
            self.recovery.try_restart(manager)
            if self.recovery is not None
            else None
        )
        if report is not None and report.warm:
            kernel.stats.warm_restarts += 1
            self._degradation_start = None
            self._notify("warm_restart", manager.name, report.duration_us)
            return
        if report is not None:
            self._notify("cold_fallback", manager.name, report.duration_us)
        self._fail_over(manager, fault, reason)

    def _fail_over(
        self, manager: SegmentManager, fault: "PageFault", reason: str
    ) -> None:
        """Reassign every segment of a failed manager to the fallback.

        The fallback (default) manager adopts the failed manager's
        resident pages and the SPCM forcibly seizes its free frames --- a
        dead manager cannot cooperate, so the SPCM takes the frames back
        through the kernel directly.  With no fallback available the
        fault becomes an :class:`UnresolvedFaultError`, which suspends
        only the faulting process.
        """
        fallback = self.fallback
        if fallback is None or manager is fallback:
            # the excursion ends here; a stale start would stretch the
            # next, unrelated failover back to this detection
            self._degradation_start = None
            raise UnresolvedFaultError(
                f"{fault.describe()}: manager {manager.name} {reason} and "
                "no fallback manager is available; suspending the "
                "faulting process"
            )
        kernel = self.kernel
        kernel.stats.manager_failovers += 1
        manager.failed = True
        # measure from detection when the caller marked it (timeout or
        # crash); a byzantine distrust decision starts the clock here
        failover_start = self._degradation_start
        if failover_start is None:
            failover_start = kernel.meter.total_us
        self._degradation_start = None
        with kernel.tracer.span(
            "kernel",
            "manager_failover",
            failed=manager.name,
            to=fallback.name,
            reason=reason,
        ):
            if kernel.tracer.enabled:
                kernel.tracer.step(
                    "kernel",
                    f"fail segments of {manager.name} over to "
                    f"{fallback.name} ({reason})",
                )
            for seg_id in sorted(manager.managed):
                seg = kernel._segments.get(seg_id)
                if seg is None:
                    continue
                kernel._set_segment_manager(seg, fallback)
                fallback.adopt_segment(seg)
            if kernel.spcm is not None:
                kernel.spcm.seize_frames(manager)
        self._failover_pending = True
        duration = kernel.meter.total_us - failover_start
        self._notify("failover", manager.name, duration)

    def fault_ended(self, resolved: bool) -> None:
        """One fault's service ended, ``resolved`` or given up.

        A failed-over fault that resolved was resolved by the fallback:
        count it once in ``KernelStats.fallback_resolutions``.  Either
        way no failover is pending any more.  The reference slow path
        and the UIO block interface both end their faults here, so the
        count follows the fault that failed over, not the next one.
        """
        if self._failover_pending:
            if resolved:
                self.kernel.stats.fallback_resolutions += 1
            self._failover_pending = False

    def _notify(
        self, event: str, manager_name: str, duration_us: float
    ) -> None:
        for listener in self._listeners:
            try:
                listener(event, manager_name, duration_us)
            except Exception:
                self.kernel.stats.listener_errors += 1
