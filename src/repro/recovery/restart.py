"""Warm restart: rebuild a crashed manager instead of failing over cold.

When a manager crashes (:class:`~repro.errors.ManagerCrashError`), hangs
past the per-fault timeout or proves unreachable, the kernel's
:class:`~repro.core.supervisor.ManagerSupervisor` asks the
:class:`RecoveryCoordinator` to *warm restart* the manager before taking
the cold path (fail segments over to the fallback, seize frames).
A warm restart models exec()ing a fresh manager process that re-attaches
to its existing segments: the in-memory object is reincarnated in place
--- policy state wiped, its newest good checkpoint loaded, and its own
journal replayed from there --- so every kernel-side pointer to the manager
(segment bindings, SPCM registration, tenant sessions) stays valid and
tenants ride through without shedding.

The cold fallback remains the proven last resort, taken when:

* the consecutive-restart budget for the manager is exhausted (a crash
  loop --- the "double crash" scenario);
* replay would exceed the deadline
  (:class:`~repro.errors.ReplayDeadlineError`);
* the manager's journal lost records to a torn tail
  (:class:`~repro.errors.JournalCorruptionError`);
* the auditor's repair budget is exceeded, or the repaired state still
  fails the global invariant sweep.

Either outcome is a typed :class:`RestartReport`, returned to the
supervisor, which reports it to its degradation listeners as a
``"warm_restart"`` or ``"cold_fallback"`` event (the SLO watchdog's
edge-triggered restart objectives ride there).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    InvariantViolationError,
    JournalCorruptionError,
    RecoveryError,
    ReplayDeadlineError,
)
from repro.recovery.auditor import RecoveryAuditor
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.journal import RecoveryJournal

#: simulated cost of applying one journal record during replay
REPLAY_US_PER_RECORD = 2.0

#: a warm restart whose replay would cost more than this goes cold
REPLAY_DEADLINE_US = 20_000.0


@dataclass(frozen=True)
class RestartReport:
    """One recovery attempt: warm success or the reason it went cold."""

    manager: str
    warm: bool
    reason: str
    records_replayed: int
    duration_us: float
    discrepancies: int


class RecoveryCoordinator:
    """Journals tracked managers, checkpoints them, decides warm or cold."""

    def __init__(
        self,
        system,
        checkpoint_every: int = 16,
        max_restarts: int = 3,
    ) -> None:
        self.system = system
        self.kernel = system.kernel
        self.spcm = system.spcm
        self.max_restarts = max_restarts
        self.store = CheckpointStore(
            every=checkpoint_every,
            corrupt_hook=lambda name: (
                self.kernel.supervisor.injector.checkpoint_corrupt(name)
            ),
        )
        self.auditor = RecoveryAuditor(self.kernel, self.spcm)
        self._tracked: dict[str, object] = {}
        #: consecutive warm restarts per manager since its last progress
        self._streak: dict[str, int] = {}
        self.warm_restarts = 0
        self.cold_fallbacks = 0
        self.records_replayed = 0
        self.reports: list[RestartReport] = []

    # -- wiring --------------------------------------------------------

    def track(self, manager, baseline: bool = False) -> None:
        """Journal and checkpoint ``manager`` from now on.

        Called automatically (``baseline=False``) for every manager the
        SPCM registers while a coordinator is installed --- registration
        happens at manager birth, so everything after it is journaled.
        Managers that *predate* installation are tracked with
        ``baseline=True``: their built-up state (boot frame stock,
        pre-install admissions) has no journal records, so a baseline
        checkpoint is taken immediately --- without it a warm restart
        would wipe that state and dump the whole reconciliation on the
        auditor's repair budget.
        """
        name = manager.name
        if name in self._tracked:
            return
        manager.journal = RecoveryJournal()
        self._tracked[name] = manager
        self._streak.setdefault(name, 0)
        self.store.track(manager)
        if baseline and hasattr(manager, "serialize_policy_state"):
            self.store.take(manager)

    def note_progress(self, manager) -> None:
        """A fault serviced by ``manager`` --- reset its crash-loop streak."""
        if manager.name in self._streak:
            self._streak[manager.name] = 0

    # -- the warm path -------------------------------------------------

    def try_restart(self, manager) -> RestartReport | None:
        """Attempt a warm restart of a crashed, hung or unreachable manager.

        Returns the attempt's :class:`RestartReport` (``warm=False`` means
        take the cold fallback), or ``None`` for a manager this
        coordinator does not track (a later namesake of a tracked manager
        has no journal of its own).
        """
        name = manager.name
        if self._tracked.get(name) is not manager or not hasattr(
            manager, "restore_policy_state"
        ):
            return None
        kernel = self.kernel
        start = kernel.meter.total_us
        self._streak[name] = self._streak.get(name, 0) + 1
        if self._streak[name] > self.max_restarts:
            return self._give_up(
                manager,
                f"crash loop: {self._streak[name] - 1} consecutive warm "
                f"restarts without progress (budget {self.max_restarts})",
                start,
            )
        journal = manager.journal
        # chaos choke point: the tail of the journal may be torn exactly
        # when we need it
        kernel.supervisor.injector.journal_tear(journal)
        with kernel.tracer.span(
            "recovery", "warm_restart", manager=name
        ) as span:
            try:
                records, torn = journal.decode()
                lost = journal.position - journal.first - len(records)
                if lost:
                    # fsck the log so future appends stay decodable,
                    # then take the conservative path: records may be
                    # missing between the readable prefix and reality
                    journal.repair()
                    raise JournalCorruptionError(
                        f"journal tail torn: {lost} record(s) in {torn} "
                        "trailing byte(s) unreadable; state past the last "
                        "intact frame is unrecoverable"
                    )
                position, state = self.store.latest(name)
                suffix = records[position - journal.first :]
                cost = REPLAY_US_PER_RECORD * (len(suffix) + 1)
                if cost > REPLAY_DEADLINE_US:
                    raise ReplayDeadlineError(
                        f"replaying {len(suffix)} records would cost "
                        f"{cost:.0f}us, past the "
                        f"{REPLAY_DEADLINE_US:.0f}us deadline"
                    )
                manager.restore_policy_state(state)
                for record in suffix:
                    manager.replay_record(record)
                kernel.meter.charge("recovery_replay", cost)
                manager.failed = False
                if self.spcm is not None:
                    self.spcm.reattach_manager(manager)
                discrepancies = self.auditor.audit(manager)
            except (RecoveryError, InvariantViolationError) as exc:
                span.set_attr("outcome", "cold")
                return self._give_up(manager, str(exc), start)
            span.set_attr("outcome", "warm")
            span.set_attr("records_replayed", len(suffix))
            span.set_attr("torn_bytes", torn)
        manager.restarts += 1
        self.warm_restarts += 1
        self.records_replayed += len(suffix)
        report = RestartReport(
            manager=name,
            warm=True,
            reason="",
            records_replayed=len(suffix),
            duration_us=kernel.meter.total_us - start,
            discrepancies=len(discrepancies),
        )
        self.reports.append(report)
        return report

    def _give_up(self, manager, reason: str, start: float) -> RestartReport:
        self.cold_fallbacks += 1
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "recovery",
                f"cold fallback for {manager.name}: {reason}",
            )
        report = RestartReport(
            manager=manager.name,
            warm=False,
            reason=reason,
            records_replayed=0,
            duration_us=self.kernel.meter.total_us - start,
            discrepancies=0,
        )
        self.reports.append(report)
        return report

    # -- observability -------------------------------------------------

    def stats_dict(self) -> dict[str, float]:
        """Flat values for a telemetry provider."""
        out = {
            "warm_restarts": float(self.warm_restarts),
            "cold_fallbacks": float(self.cold_fallbacks),
            "records_replayed": float(self.records_replayed),
        }
        journals = [manager.journal for manager in self._tracked.values()]
        out["journal_appends"] = float(sum(j.position for j in journals))
        out["journal_size_bytes"] = float(sum(j.size_bytes for j in journals))
        out["journal_truncated_bytes"] = float(
            sum(j.truncated_bytes for j in journals)
        )
        for prefix, provider in (
            ("checkpoints", self.store),
            ("auditor", self.auditor),
        ):
            for leaf, value in provider.stats_dict().items():
                out[f"{prefix}_{leaf}"] = value
        return out


def install_recovery(
    system,
    checkpoint_every: int = 16,
    max_restarts: int = 3,
) -> RecoveryCoordinator:
    """Arm crash-consistent recovery on a booted system.

    Gives every already-registered manager its own journal and a baseline
    checkpoint, and plugs the coordinator into the kernel's supervisor,
    where manager registration finds it: later managers (chaos victims,
    admitted tenants) are journaled from birth.  Returns the coordinator
    (also stored on ``system.recovery``).
    """
    coordinator = RecoveryCoordinator(
        system,
        checkpoint_every=checkpoint_every,
        max_restarts=max_restarts,
    )
    system.kernel.supervisor.recovery = coordinator
    spcm = system.spcm
    if spcm is not None:
        for manager in list(spcm.managers.values()):
            coordinator.track(manager, baseline=True)
    system.recovery = coordinator
    return coordinator
