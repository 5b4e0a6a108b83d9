"""The recovery auditor: fsck for a warm-restarted manager.

Journal replay rebuilds a crashed manager's policy state, but the replay
can be *incomplete* --- a torn journal tail, or a manager that was only
tracked mid-life.  The auditor
repairs the restored private state to match
:func:`~repro.invariants.manager_truth`, what the kernel knows to be true
(kernel state survives a *manager* crash by construction), the same
ground truth the invariant engine's ``managers`` check reads:

* residents the manager believes in but the kernel doesn't back are
  dropped; pages the kernel backs that the manager forgot are adopted;
* the free-slot list becomes exactly the free segment's backed slots
  (phantoms dropped, forgotten slots recovered, duplicates removed) ---
  stricter than the sweep, because after a crash no fill is in flight;
* the empty-slot recycling list is rebuilt from the unbacked slot
  indices, so a later reclaim can never migrate into an occupied slot;
* migrate-back (stale) cache entries that disagree with the free list
  are dropped --- losing a fast-reclaim hint is safe, keeping a wrong
  one is not;
* the SPCM's held-frame account is cross-checked and only reported: a
  cold failover leaves adopted pages booked to the dead manager's
  account, so a mismatch is not evidence of damage.

Every repair is a typed :class:`Discrepancy` record.  A repair count
past ``MAX_REPAIRS`` raises :class:`~repro.errors.RecoveryError` (the
coordinator then falls back cold), and a closing
:class:`~repro.invariants.InvariantChecker` sweep proves the repaired
system globally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RecoveryError
from repro.invariants import InvariantChecker, manager_truth

#: repairs one audit may make before the coordinator falls back cold
MAX_REPAIRS = 64


@dataclass(frozen=True)
class Discrepancy:
    """One reconciled difference between recovered and ground-truth state."""

    kind: str
    manager: str
    seg_id: int | None
    page: int | None
    detail: str
    #: what the auditor did about it (dropped | adopted | recovered |
    #: rebuilt | reported)
    action: str

    def describe(self) -> str:
        """One human-readable line: kind, location, detail, repair action."""
        where = "" if self.seg_id is None else f" seg={self.seg_id}"
        where += "" if self.page is None else f" page={self.page}"
        return f"[{self.kind}]{where} {self.detail} -> {self.action}"


class RecoveryAuditor:
    """Cross-checks and repairs a recovered manager's policy state."""

    def __init__(self, kernel, spcm) -> None:
        self.kernel = kernel
        self.spcm = spcm
        self.audits = 0
        self.repairs = 0
        #: every discrepancy ever found (typed, in discovery order)
        self.discrepancies: list[Discrepancy] = []

    def audit(self, manager) -> list[Discrepancy]:
        """Reconcile ``manager`` against kernel/SPCM ground truth.

        Returns the discrepancies found (already repaired).  Raises
        :class:`RecoveryError` when the repair budget is exceeded and
        :class:`~repro.errors.InvariantViolationError` when the repaired
        system still fails the global invariant sweep.
        """
        if not self.kernel.tracer.enabled:
            found = self._audit(manager)
        else:
            with self.kernel.tracer.span(
                "recovery", "audit", manager=manager.name
            ) as span:
                found = self._audit(manager)
                span.set_attr("n_discrepancies", len(found))
        self.audits += 1
        repaired = [d for d in found if d.action != "reported"]
        self.repairs += len(repaired)
        self.discrepancies.extend(found)
        if len(repaired) > MAX_REPAIRS:
            raise RecoveryError(
                f"auditor found {len(repaired)} repairs for {manager.name}, "
                f"past the budget of {MAX_REPAIRS}"
            )
        # the repaired state must be globally consistent
        InvariantChecker(self.kernel).check_all()
        return found

    def _audit(self, manager) -> list[Discrepancy]:
        found: list[Discrepancy] = []
        name = manager.name

        def note(kind, seg_id, page, detail, action):
            found.append(Discrepancy(kind, name, seg_id, page, detail, action))

        truth = manager_truth(self.kernel, manager)

        # 1. residency: drop phantoms, adopt forgotten pages
        for key in list(manager._resident):
            if key not in truth.resident:
                del manager._resident[key]
                note(
                    "phantom-resident", key[0], key[1],
                    "recovered state lists a page the kernel does not back",
                    "dropped",
                )
        for seg_id, page in sorted(truth.resident):
            if (seg_id, page) not in manager._resident:
                manager._resident[(seg_id, page)] = None
                note(
                    "missing-resident", seg_id, page,
                    "kernel backs a page the recovered state forgot",
                    "adopted",
                )

        # 2. free slots: exactly the free segment's backed slots
        backed = truth.backed
        free = manager._free_slots
        seen: set[int] = set()
        cleaned: list[int] = []
        for slot in free:
            if slot in seen:
                note(
                    "duplicate-free-slot", None, slot,
                    "slot listed twice in the free list", "dropped",
                )
                continue
            seen.add(slot)
            if slot not in backed:
                note(
                    "phantom-free-slot", None, slot,
                    "free list names a slot with no frame", "dropped",
                )
                continue
            cleaned.append(slot)
        for slot in sorted(backed - set(cleaned)):
            cleaned.append(slot)
            note(
                "missing-free-slot", None, slot,
                "free segment holds a frame the free list forgot",
                "recovered",
            )
        if cleaned != free:
            manager._free_slots = cleaned
        free = manager._free_slots

        # 3. empty slots: exactly the unbacked indices below the segment end
        unbacked = truth.unbacked
        current = manager._empty_slots
        if sorted(set(current)) != unbacked:
            wanted = set(unbacked)
            keep = [
                s for i, s in enumerate(current)
                if s in wanted and s not in current[:i]
            ]
            missing = [s for s in unbacked if s not in keep]
            manager._empty_slots = keep + missing
            note(
                "empty-slot-drift", None, None,
                f"recycling list had {len(current)} entries, "
                f"{len(unbacked)} unbacked slots exist",
                "rebuilt",
            )

        # 4. stale (migrate-back) cache: both maps agree, slots are free
        free_set = set(free)
        for slot, key in list(manager._stale_origin.items()):
            if slot not in free_set or manager._stale_slot.get(key) != slot:
                manager._stale_origin.pop(slot, None)
                manager._stale_slot.pop(key, None)
                note(
                    "stale-cache-drift", key[0], key[1],
                    "migrate-back entry disagrees with the free list",
                    "dropped",
                )
        for key, slot in list(manager._stale_slot.items()):
            if manager._stale_origin.get(slot) != key:
                manager._stale_slot.pop(key, None)
                note(
                    "stale-cache-drift", key[0], key[1],
                    "reverse migrate-back entry has no forward entry",
                    "dropped",
                )

        # 5. SPCM accounting: cross-check, report-only (a cold failover
        # legitimately leaves adopted pages on the dead manager's books)
        if self.spcm is not None:
            held = self.spcm.frames_held.get(manager.account)
            actual = len(backed) + len(truth.resident)
            if held is not None and held != actual:
                note(
                    "held-frames-mismatch", None, None,
                    f"SPCM books {held} frames, segments hold {actual}",
                    "reported",
                )
        return found

    def stats_dict(self) -> dict[str, float]:
        """Flat values for a telemetry provider."""
        return {
            "audits": float(self.audits),
            "repairs": float(self.repairs),
            "discrepancies": float(len(self.discrepancies)),
        }
