"""Crash-consistent manager recovery: journal, checkpoints, warm restart.

Unit tests cover the journal framing (CRC, torn tails, fsck repair),
checkpoint generations (cadence, corrupt-generation fallback), and the
serialize/replay exactness contract on live managers.  End-to-end tests
run the recovery chaos scenarios (warm restarts under crash injection,
cold fallback on torn journals and crash loops) and the recovery
determinism gate: a crashed-and-warm-restarted run must reach the same
authoritative state as a crash-free run.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosPlan, Injector
from repro.chaos.harness import run_schedule
from repro.errors import (
    JournalCorruptionError,
    ManagerCrashError,
    RecoveryError,
    TransientDiskError,
    UIOError,
)
from repro.hw.numa import NumaTopology
from repro.invariants import InvariantChecker
from repro.managers.coloring_manager import ColoringSegmentManager
from repro.managers.dbms_manager import DBMSSegmentManager
from repro.managers.default_manager import DefaultSegmentManager
from repro.managers.discard_manager import DiscardableSegmentManager
from repro.managers.placement_manager import PlacementSegmentManager
from repro.managers.prefetch_manager import PrefetchingSegmentManager
from repro.recovery import (
    CheckpointStore,
    NULL_JOURNAL,
    RecoveryJournal,
    install_recovery,
)
from repro.verify.digest import digest_payload
from repro.verify.recovery import recovery_snapshot, run_recovery_gate

VICTIM = "victim-ucds"


def make_victim(system, initial_frames=8) -> DefaultSegmentManager:
    return DefaultSegmentManager(
        system.kernel,
        system.spcm,
        system.file_server,
        initial_frames=initial_frames,
        name=VICTIM,
    )


def fault_pages(system, manager, n_pages=6, name="rec-anon"):
    """Fault ``n_pages`` anonymous pages in through ``manager``."""
    seg = system.kernel.create_segment(n_pages, name=name, manager=manager)
    for page in range(n_pages):
        system.kernel.reference(seg, page * seg.page_size, write=True)
    return seg


# ---------------------------------------------------------------------------
# journal framing
# ---------------------------------------------------------------------------


class TestJournal:
    def test_append_decode_round_trip(self):
        journal = RecoveryJournal()
        journal.append("mgr.place", seg=1, page=2, slot=3)
        journal.append("mgr.slots_granted", slots=[4, 5])
        records, torn = journal.decode()
        assert torn == 0
        assert [r["kind"] for r in records] == [
            "mgr.place", "mgr.slots_granted",
        ]
        assert records[0] == {"kind": "mgr.place", "seg": 1, "page": 2, "slot": 3}
        assert records[1] == {"kind": "mgr.slots_granted", "slots": [4, 5]}
        # a manager's own log names no writer
        assert all("manager" not in r for r in records)
        assert journal.position == 2

    def test_torn_tail_is_detected_not_replayed(self):
        journal = RecoveryJournal()
        for i in range(5):
            journal.append("mgr.alloc", slot=i)
        journal.tear_tail(3)
        records, torn = journal.decode()
        assert torn > 0
        assert len(records) == 4  # the last frame is unreadable

    def test_crc_mismatch_stops_decode(self):
        journal = RecoveryJournal()
        journal.append("mgr.alloc", slot=1)
        journal.append("mgr.alloc", slot=2)
        # flip a byte inside the second record's payload
        journal._buf[-1] ^= 0xFF
        records, torn = journal.decode()
        assert len(records) == 1
        assert torn > 0

    def test_repair_restores_appendability(self):
        journal = RecoveryJournal()
        for i in range(3):
            journal.append("mgr.alloc", slot=i)
        journal.tear_tail(5)
        dropped = journal.repair()
        assert dropped > 0
        # appends after the fsck land on a clean frame boundary again
        journal.append("mgr.alloc", slot=99)
        records, torn = journal.decode()
        assert torn == 0
        assert records[-1]["slot"] == 99

    def test_null_journal_is_inert(self):
        assert not NULL_JOURNAL.enabled
        assert NULL_JOURNAL.append("mgr.alloc", slot=1) == 0
        assert NULL_JOURNAL.position == 0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class _StubManager:
    def __init__(self, name):
        self.name = name
        self.journal = RecoveryJournal()
        self.state = {"free_slots": [1, 2], "counter": 0}

    def serialize_policy_state(self):
        return dict(self.state)


class TestCheckpoints:
    def test_cadence_takes_generations(self):
        store = CheckpointStore(every=4)
        manager = _StubManager("m")
        journal = manager.journal
        store.track(manager)
        for i in range(9):
            manager.state["counter"] = i
            journal.append("mgr.alloc", slot=i)
        assert store.checkpoints_taken == 2
        position, state = store.latest("m")
        assert position == 8
        assert state["counter"] == 7  # taken inside the 8th append's hook
        # the log keeps only what the newest checkpoint does not cover
        assert journal.first == 8
        records, _ = journal.decode()
        assert [r["slot"] for r in records] == [8]

    def test_other_managers_records_do_not_count(self):
        store = CheckpointStore(every=2)
        store.track(_StubManager("m"))
        other = _StubManager("other")
        for i in range(6):
            other.journal.append("mgr.alloc", slot=i)
        assert store.checkpoints_taken == 0
        assert store.latest("m") == (0, None)

    def test_corrupt_generation_falls_back_to_older(self):
        corrupt_next = []
        store = CheckpointStore(
            every=3,
            corrupt_hook=lambda name: bool(corrupt_next and corrupt_next.pop()),
        )
        manager = _StubManager("m")
        journal = manager.journal
        store.track(manager)
        for i in range(3):
            manager.state["counter"] = i
            journal.append("mgr.alloc", slot=i)
        corrupt_next.append(True)  # damage the second generation
        for i in range(3, 6):
            manager.state["counter"] = i
            journal.append("mgr.alloc", slot=i)
        position, state = store.latest("m")
        assert position == 3  # the older, intact generation
        assert state["counter"] == 2
        assert store.corrupt_checkpoints == 1
        # the damaged checkpoint trimmed nothing: the log still reaches
        # back to the intact one
        assert journal.first == 3
        records, _ = journal.decode()
        assert [r["slot"] for r in records] == [3, 4, 5]

    def test_all_generations_corrupt_replays_from_origin(self):
        store = CheckpointStore(every=2, corrupt_hook=lambda name: True)
        manager = _StubManager("m")
        journal = manager.journal
        store.track(manager)
        for i in range(8):
            journal.append("mgr.alloc", slot=i)
        assert store.checkpoints_taken == 4
        assert store.latest("m") == (0, None)
        assert journal.first == 0  # replay from the origin still works
        records, _ = journal.decode()
        assert len(records) == 8

    def test_checkpoint_crc_raises_typed_error(self):
        store = CheckpointStore(every=1)
        checkpoint = store.take(_StubManager("m"))
        checkpoint.payload = b"garbage" + checkpoint.payload[7:]
        with pytest.raises(JournalCorruptionError):
            checkpoint.restore()


# ---------------------------------------------------------------------------
# serialize / restore / replay exactness
# ---------------------------------------------------------------------------


class TestReplayExactness:
    def _structures(self, state):
        return {
            "free_slots": state["free_slots"],
            "empty_slots": state["empty_slots"],
            "stale": sorted(map(tuple, state["stale"])),
            "resident": state["resident"],
            "pinned": state["pinned"],
        }

    def _replayed(self, coordinator, manager):
        """The structures rebuilt by restoring ``manager``'s newest
        checkpoint and replaying its log past it."""
        records, torn = manager.journal.decode()
        assert torn == 0
        _, state = coordinator.store.latest(manager.name)
        manager.restore_policy_state(state)
        for record in records:
            manager.replay_record(record)
        return self._structures(manager.serialize_policy_state())

    def test_full_replay_reconstructs_policy_state(self, system):
        coordinator = install_recovery(system)
        victim = make_victim(system, initial_frames=4)
        fault_pages(system, victim, n_pages=10)  # forces reclaim too
        before = self._structures(victim.serialize_policy_state())
        assert self._replayed(coordinator, victim) == before

    @pytest.mark.parametrize("kind", ["coloring", "placement"])
    def test_replay_reconstructs_classed_stocks(self, system, kind):
        coordinator = install_recovery(system)
        kernel = system.kernel
        if kind == "coloring":
            manager = ColoringSegmentManager(
                kernel, system.spcm, n_colors=4, frames_per_color=4
            )
            seg = kernel.create_segment(12, name="classed", manager=manager)

            def classes():
                return [manager.free_of_color(c) for c in range(4)]
        else:
            manager = PlacementSegmentManager(
                kernel,
                system.spcm,
                NumaTopology.for_memory(system.memory, 2),
                frames_per_node=8,
            )
            seg = manager.create_home_segment(12, node=1, name="classed")

            def classes():
                return [manager.free_on_node(n) for n in range(2)]

        for page in range(12):
            kernel.reference(seg, page * seg.page_size, write=True)
        manager.reclaim_pages(5)
        for page in range(6):
            kernel.reference(seg, page * seg.page_size)
        before = self._structures(manager.serialize_policy_state())
        classes_before = classes()
        assert self._replayed(coordinator, manager) == before
        assert classes() == classes_before

    def test_replay_reconstructs_a_dbms_discard(self, system):
        """A wholesale discard journals its moves: replay frees every
        discarded page's slot and keeps the segment's pin."""
        coordinator = install_recovery(system)
        manager = DBMSSegmentManager(
            system.kernel, system.spcm, initial_frames=8
        )
        seg = manager.create_typed_segment(8, "indices", name="regenerable")
        for page in range(6):
            system.kernel.reference(seg, page * seg.page_size, write=True)
        manager.pin_segment(seg)
        assert manager.discard_segment(seg) == 6
        before = self._structures(manager.serialize_policy_state())
        assert sorted(before["free_slots"]) == list(range(8))
        assert before["empty_slots"] == []
        assert before["resident"] == []
        assert before["pinned"] == [seg.seg_id]
        assert self._replayed(coordinator, manager) == before

    def test_replay_reconstructs_prefetched_placements(self, system):
        coordinator = install_recovery(system)
        manager = PrefetchingSegmentManager(
            system.kernel, system.spcm, system.file_server, initial_frames=8
        )
        seg = system.kernel.create_segment(8, name="streamed", manager=manager)
        manager.prefetch_range(seg, 0, 6, 0.0)
        before = self._structures(manager.serialize_policy_state())
        assert len(before["resident"]) == 6
        assert len(before["empty_slots"]) == 6
        assert self._replayed(coordinator, manager) == before

    def test_replay_drops_a_discarded_pages_migrate_back_entry(self):
        """A garbage page is reclaimed without its migrate-back entry, and
        the eviction record says so: replay does not bring the entry back,
        so the next fault fills a fresh frame instead of resurrecting it."""
        from repro.chaos.harness import build_workload_system

        system = build_workload_system()
        coordinator = install_recovery(system)
        manager = DiscardableSegmentManager(
            system.kernel, system.spcm, system.file_server, initial_frames=8
        )
        seg = fault_pages(system, manager, n_pages=4, name="garbage")
        manager.mark_discardable(seg, 0)
        manager.reclaim_one(seg, 0)
        live = self._structures(manager.serialize_policy_state())
        assert (seg.seg_id, 0) not in manager._stale_slot
        assert self._replayed(coordinator, manager) == live
        system.kernel.reference(seg, 0)
        assert manager.fast_reclaims == 0

    def test_unknown_record_kind_is_refused(self, system):
        install_recovery(system)
        victim = make_victim(system)
        with pytest.raises(RecoveryError, match="mgr.unheard_of"):
            victim.replay_record({"kind": "mgr.unheard_of", "slot": 1})

    def test_restore_round_trips_serialized_state(self, system):
        install_recovery(system)
        victim = make_victim(system, initial_frames=4)
        fault_pages(system, victim, n_pages=8)
        state = victim.serialize_policy_state()
        victim.restore_policy_state(state)
        assert victim.serialize_policy_state() == state

    def test_restore_none_wipes_to_fresh_boot(self, system):
        install_recovery(system)
        victim = make_victim(system, initial_frames=4)
        fault_pages(system, victim, n_pages=4)
        victim.restore_policy_state(None)
        state = victim.serialize_policy_state()
        assert state["free_slots"] == []
        assert state["resident"] == []
        assert state["counters"]["faults_handled"] == 0


# ---------------------------------------------------------------------------
# the auditor
# ---------------------------------------------------------------------------


class TestAuditor:
    def test_clean_manager_audits_clean(self, system):
        coordinator = install_recovery(system)
        victim = make_victim(system)
        fault_pages(system, victim, n_pages=4)
        assert coordinator.auditor.audit(victim) == []

    def test_phantom_free_slot_is_dropped(self, system):
        coordinator = install_recovery(system)
        victim = make_victim(system)
        fault_pages(system, victim, n_pages=4)
        victim._free_slots.append(victim.free_segment.n_pages + 7)
        found = coordinator.auditor.audit(victim)
        assert any(d.kind == "phantom-free-slot" for d in found)
        assert coordinator.auditor.audit(victim) == []  # repaired

    def test_missing_resident_page_is_adopted(self, system):
        coordinator = install_recovery(system)
        victim = make_victim(system)
        seg = fault_pages(system, victim, n_pages=4)
        victim._resident.pop((seg.seg_id, 0))
        found = coordinator.auditor.audit(victim)
        assert any(d.seg_id == seg.seg_id for d in found)
        assert coordinator.auditor.audit(victim) == []


# ---------------------------------------------------------------------------
# warm restart end to end
# ---------------------------------------------------------------------------


class _CrashOnce(DefaultSegmentManager):
    """Crashes on the Nth fault delivery, then behaves."""

    def __init__(self, *args, crash_on=1, **kwargs):
        super().__init__(*args, **kwargs)
        self._crash_on = crash_on
        self._deliveries = 0

    def handle_fault(self, fault):
        self._deliveries += 1
        if self._deliveries == self._crash_on:
            raise ManagerCrashError(f"{self.name} dies on purpose")
        return super().handle_fault(fault)


class TestWarmRestart:
    def test_crash_warm_restarts_in_place(self, system):
        coordinator = install_recovery(system)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=3,
        )
        seg = fault_pages(system, victim, n_pages=6)
        assert coordinator.warm_restarts == 1
        assert system.kernel.stats.warm_restarts == 1
        assert system.kernel.stats.manager_failovers == 0
        assert victim.restarts == 1
        assert not victim.failed
        assert seg.manager is victim  # no failover: binding survived
        InvariantChecker(system.kernel).check_all()

    def test_degradation_clock_survives_second_crash(self, system):
        # satellite: a crash landing while an earlier degradation is
        # in flight must keep the first detection time, so the failover
        # duration covers the whole excursion
        install_recovery(system, max_restarts=0)  # every crash goes cold
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=1,
        )
        kernel = system.kernel
        durations = []

        def on_degradation(event, _manager, duration_us):
            if event == "failover":
                durations.append(duration_us)

        kernel.supervisor.on_degradation(on_degradation)
        # an excursion began at t=0
        kernel.supervisor._degradation_start = 0.0
        t_detect = kernel.meter.total_us
        fault_pages(system, victim, n_pages=2)
        assert len(durations) == 1
        # measured from the preserved t=0 detection, not from the crash
        assert durations[0] >= t_detect

    def test_listener_exceptions_are_counted_not_raised(self, system):
        # satellite: hook listeners are observability, never control
        # flow --- a raising listener is counted, later listeners still
        # run, and the fault resolves
        kernel = system.kernel
        seen = []

        def bad_listener(space, vpn, write, latency_us, pfn):
            raise RuntimeError("observer bug")

        kernel.on_fault_serviced(bad_listener)
        kernel.on_fault_serviced(lambda *fault: seen.append(fault))
        seg = kernel.create_segment(
            2, name="listeners", manager=system.default_manager
        )
        kernel.reference(seg, 0, write=True)
        assert kernel.stats.listener_errors == 1
        assert len(seen) == 1  # the later listener still ran
        kernel.reference(seg, seg.page_size, write=True)
        assert kernel.stats.listener_errors == 2  # stays subscribed

    def test_failover_listener_exceptions_are_counted(self, system):
        kernel = system.kernel
        seen = []
        supervisor = kernel.supervisor
        supervisor.on_degradation(
            lambda *_: (_ for _ in ()).throw(RuntimeError())
        )
        supervisor.on_degradation(lambda *event: seen.append(event))
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=1,
        )
        fault_pages(system, victim, n_pages=2)  # no recovery: cold path
        assert kernel.stats.manager_failovers == 1
        assert kernel.stats.listener_errors >= 1
        assert len(seen) == 1

    def test_unreplayable_record_goes_cold(self, system):
        """A record replay has no branch for would lose state silently,
        so the restart refuses it and takes the cold path."""
        coordinator = install_recovery(system)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=2,
        )
        seg = system.kernel.create_segment(4, name="odd", manager=victim)
        system.kernel.reference(seg, 0, write=True)
        victim.journal.append("mgr.unheard_of", slot=1)
        records, _ = victim.journal.decode()
        assert records[-1]["kind"] == "mgr.unheard_of"
        for page in range(1, 4):
            system.kernel.reference(seg, page * seg.page_size, write=True)
        assert coordinator.warm_restarts == 0
        assert coordinator.cold_fallbacks == 1
        assert "mgr.unheard_of" in coordinator.reports[0].reason
        assert system.kernel.stats.manager_failovers == 1
        InvariantChecker(system.kernel).check_all()

    def test_newborn_default_manager_restarts_clean(self, system):
        """With a checkpoint after every record, the first one is taken
        inside the base constructor's first grant: the clock, sampler and
        counters it serializes already exist, and a warm restart finds
        nothing to repair."""
        coordinator = install_recovery(system, checkpoint_every=1)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=4,
        )
        fault_pages(system, victim, n_pages=6)
        assert coordinator.warm_restarts == 1
        assert coordinator.reports[0].discrepancies == 0
        assert coordinator.reports[0].records_replayed == 0
        assert victim.serialize_policy_state()["counters"][
            "append_allocations"
        ] == 0
        InvariantChecker(system.kernel).check_all()

    def test_untracked_manager_goes_cold(self, system):
        coordinator = install_recovery(system)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=1,
        )
        del coordinator._tracked[VICTIM]  # as if admitted pre-install
        fault_pages(system, victim, n_pages=2)
        assert system.kernel.stats.manager_failovers == 1
        assert coordinator.warm_restarts == 0

    def test_untracked_namesake_goes_cold(self, system):
        """Tracking is by name, so a second manager under a tracked name
        has no journal: its crash takes the cold path."""
        coordinator = install_recovery(system)
        make_victim(system)
        namesake = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=1,
        )
        assert not namesake.journal.enabled
        fault_pages(system, namesake, n_pages=2)
        assert system.kernel.stats.manager_failovers == 1
        assert coordinator.warm_restarts == 0
        InvariantChecker(system.kernel).check_all()

    def test_torn_journal_goes_cold_with_invariants_clean(self, system):
        coordinator = install_recovery(system)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=2,
        )
        seg = system.kernel.create_segment(4, name="torn", manager=victim)
        system.kernel.reference(seg, 0, write=True)
        victim.journal.tear_tail(3)  # the crash tears the tail
        for page in range(1, 4):
            system.kernel.reference(seg, page * seg.page_size, write=True)
        assert coordinator.cold_fallbacks == 1
        assert coordinator.warm_restarts == 0
        assert system.kernel.stats.manager_failovers == 1
        assert "torn" in coordinator.reports[0].reason
        InvariantChecker(system.kernel).check_all()

    def test_whole_frame_tear_goes_cold(self, system):
        """A tear that removes whole frames leaves no damaged bytes, but
        the log holds fewer records than its positions say."""
        coordinator = install_recovery(system)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=2,
        )
        seg = system.kernel.create_segment(4, name="torn", manager=victim)
        system.kernel.reference(seg, 0, write=True)
        victim.journal.tear_tail(victim.journal.size_bytes)
        assert victim.journal.decode() == ([], 0)
        for page in range(1, 4):
            system.kernel.reference(seg, page * seg.page_size, write=True)
        assert coordinator.cold_fallbacks == 1
        assert coordinator.warm_restarts == 0
        assert "torn" in coordinator.reports[0].reason
        InvariantChecker(system.kernel).check_all()

    def test_crash_loop_budget_trips_to_cold(self, system):
        coordinator = install_recovery(system, max_restarts=2)

        class _AlwaysCrash(DefaultSegmentManager):
            def handle_fault(self, fault):
                raise ManagerCrashError(f"{self.name} is wedged")

        victim = _AlwaysCrash(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM,
        )
        fault_pages(system, victim, n_pages=2)
        assert coordinator.warm_restarts == 2
        assert coordinator.cold_fallbacks == 1
        assert system.kernel.stats.manager_failovers == 1
        assert "crash loop" in coordinator.reports[-1].reason
        InvariantChecker(system.kernel).check_all()

    def test_progress_resets_the_crash_loop_streak(self, system):
        coordinator = install_recovery(system, max_restarts=1)
        victim = _CrashOnce(
            system.kernel, system.spcm, system.file_server,
            initial_frames=8, name=VICTIM, crash_on=2,
        )
        victim._crash_on = -1  # never crash via the counter
        seg = system.kernel.create_segment(4, name="streak", manager=victim)
        # alternate crash / progress twice: with the streak resetting on
        # every serviced fault, a budget of 1 never trips
        for page in range(4):
            victim._deliveries = 0
            victim._crash_on = 1 if page % 2 == 0 else -1
            system.kernel.reference(seg, page * seg.page_size, write=True)
        assert coordinator.warm_restarts == 2
        assert coordinator.cold_fallbacks == 0


# ---------------------------------------------------------------------------
# what the logs hold
# ---------------------------------------------------------------------------


class TestLogContents:
    def test_logs_hold_only_replayed_records_and_stay_bounded(
        self, monkeypatch
    ):
        """A crash-free serving run: every record is one replay applies,
        no grant of zero slots is written, and no log ever holds a full
        cadence of records past its newest good checkpoint."""
        from repro.chaos.harness import build_workload_system
        from repro.serve.loadgen import SERVING_SCHEDULES

        appended = []
        held_after_append = []
        append = RecoveryJournal.append

        def recording_append(journal, kind, **fields):
            position = append(journal, kind, **fields)
            appended.append({"kind": kind, **fields})
            held_after_append.append(journal.position - journal.first)
            return position

        monkeypatch.setattr(RecoveryJournal, "append", recording_append)
        system = build_workload_system()
        coordinator = install_recovery(system)
        checker = InvariantChecker(system.kernel)
        SERVING_SCHEDULES["serve-smoke"](system, checker)
        every = coordinator.store.every
        assert appended
        assert all(r["kind"].startswith("mgr.") for r in appended)
        assert not [
            r for r in appended
            if r["kind"] == "mgr.slots_granted" and not r["slots"]
        ]
        assert max(held_after_append) < every
        for name, manager in system.spcm.managers.items():
            journal = manager.journal
            records, torn = journal.decode()
            assert torn == 0
            assert all(r["kind"].startswith("mgr.") for r in records)
            assert "manager" not in {k for r in records for k in r}
            position, _ = coordinator.store.latest(name)
            assert journal.first == position
            assert len(records) == journal.position - position
            assert len(records) < every

    def test_kernel_and_spcm_import_nothing_from_recovery(self):
        """The kernel, hardware and SPCM layers hold no journal: only the
        tracked managers write records."""
        import ast
        import importlib.util
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for layer in ("core", "hw", "spcm"):
            for path in sorted((root / layer).glob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        module = importlib.util.resolve_name(
                            "." * node.level + (node.module or ""),
                            f"repro.{layer}",
                        )
                        names = [module] + [
                            f"{module}.{alias.name}" for alias in node.names
                        ]
                    else:
                        continue
                    offenders += [
                        f"{layer}/{path.name} imports {name}"
                        for name in names
                        if name == "repro.recovery"
                        or name.startswith("repro.recovery.")
                    ]
        assert offenders == []


# ---------------------------------------------------------------------------
# chaos scenarios
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestRecoveryScenarios:
    def test_warm_restart_scenario_mostly_warm(self):
        result = run_schedule("figure2-warm-restart", 1)
        assert result.completed
        assert result.warm_restarts > 0
        assert result.failovers == 0

    def test_torn_journal_scenario_goes_cold(self):
        result = run_schedule("recovery-torn-journal", 0)
        assert result.completed
        assert result.cold_fallbacks > 0
        assert result.injected.get("journal_tear", 0) > 0

    def test_double_crash_scenario_trips_budget(self):
        result = run_schedule("recovery-double-crash", 0)
        assert result.completed
        assert result.cold_fallbacks > 0
        assert result.failovers > 0

    def test_checkpoint_corrupt_scenario_still_converges(self):
        result = run_schedule("recovery-checkpoint-corrupt", 0)
        assert result.completed
        assert result.warm_restarts > 0
        assert result.recovery_stats.get("checkpoints_corrupt", 0) > 0

    def test_quota_pressure_tenants_ride_through(self):
        result = run_schedule("recovery-quota-pressure", 0)
        assert result.completed
        assert result.warm_restarts > 0
        assert result.failovers == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_recovery_seed_matrix_invariant_clean(self, seed):
        for name in ("figure2-warm-restart", "recovery-torn-journal"):
            result = run_schedule(name, seed)
            assert result.completed or result.error_type is not None

    def test_recovery_scenarios_are_deterministic(self):
        a = run_schedule("figure2-warm-restart", 5)
        b = run_schedule("figure2-warm-restart", 5)
        assert a.recovery_stats == b.recovery_stats
        assert a.kernel_stats == b.kernel_stats

    def test_slo_cold_fallback_alert_fires(self):
        result = run_schedule("recovery-double-crash", 0, slo=True)
        assert any(a.name == "cold_fallback" for a in result.alerts)

    def test_slo_warm_restart_time_objective(self):
        from repro.obs.slo import SLOPolicy

        result = run_schedule(
            "figure2-warm-restart", 1,
            slo_policy=SLOPolicy(warm_restart_us=0.0),
        )
        assert any(a.name == "warm_restart_time" for a in result.alerts)

    def test_telemetry_exports_recovery_gauges(self):
        result = run_schedule(
            "figure2-warm-restart", 1, telemetry_interval_us=200.0
        )
        samples = result.telemetry.samples()
        assert samples
        assert "recovery.warm_restarts" in samples[-1].values


# ---------------------------------------------------------------------------
# tenant ride-through
# ---------------------------------------------------------------------------


class TestTenantRideThrough:
    def test_sessions_survive_their_managers_crashes(self, system):
        from repro.serve.loadgen import admit_fleet, run_load
        from repro.serve.tenants import ServingSystem

        install_recovery(system, max_restarts=100)
        plan = ChaosPlan(
            manager_crash_rate=0.3,
            seed=3,
            target_managers=("tenant-0", "tenant-1"),
        )
        Injector(plan).install(system)
        serving = ServingSystem(system, seed=3, rate_per_s=10_000.0)
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        serviced = run_load(serving, duration_us=10_000.0)
        assert serviced > 0
        assert system.kernel.stats.warm_restarts > 0
        assert system.kernel.stats.manager_failovers == 0
        restarted = [
            s for s in serving.sessions.values()
            if s.stats_dict()["restarts"] > 0
        ]
        assert restarted  # the session observed its manager's restarts
        for session in restarted:
            assert session.serviced > 0  # and kept being served


# ---------------------------------------------------------------------------
# the recovery determinism gate
# ---------------------------------------------------------------------------


@pytest.mark.verify
class TestRecoveryGate:
    def test_figure2_recovered_state_matches_baseline(self):
        report = run_recovery_gate("figure2")
        assert report.crashes > 0
        assert report.ok, report.render()

    def test_serving_recovered_state_matches_baseline(self):
        report = run_recovery_gate("serve-thrash")
        assert report.crashes > 0
        assert report.ok, report.render()

    def test_gate_rejects_unknown_workload(self):
        from repro.errors import VerificationError

        with pytest.raises(VerificationError):
            run_recovery_gate("no-such-workload")

    def test_cli_recovery_subcommand(self, capsys):
        from repro.verify.cli import main as verify_main

        code = verify_main(["recovery", "--workload", "figure2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


# ---------------------------------------------------------------------------
# warm-restart corpus entries
# ---------------------------------------------------------------------------


@pytest.mark.verify
class TestWarmRestartCorpus:
    CORPUS = (
        "tests/corpus/warm-restart-mid-batch.json",
        "tests/corpus/warm-restart-after-checkpoint.json",
    )

    def _drive(self, schedule, crash: bool):
        from repro.verify.oracle import build_vpp_system, drive_vpp

        system, manager, segments = build_vpp_system(schedule)
        if crash:
            plan = ChaosPlan(
                manager_crash_rate=0.3,
                seed=schedule.seed,
                target_managers=(manager.name,),
            )
            Injector(plan).install(system)
        coordinator = install_recovery(system, max_restarts=1_000_000)
        drive_vpp(system, schedule, segments)
        return digest_payload(recovery_snapshot(system)), coordinator

    @pytest.mark.parametrize("path", CORPUS)
    def test_corpus_schedule_warm_restarts_and_converges(self, path):
        from repro.verify.schedule import WorkloadSchedule

        schedule = WorkloadSchedule.load(path)
        baseline, _ = self._drive(schedule, crash=False)
        recovered, coordinator = self._drive(schedule, crash=True)
        assert coordinator.warm_restarts > 0
        assert coordinator.cold_fallbacks == 0
        assert recovered == baseline

    def test_after_checkpoint_schedule_restores_from_checkpoint(self):
        from repro.verify.schedule import WorkloadSchedule

        schedule = WorkloadSchedule.load(self.CORPUS[1])
        _, coordinator = self._drive(schedule, crash=True)
        assert coordinator.store.checkpoints_taken > 0


# ---------------------------------------------------------------------------
# UIO retry backoff (jitter + caps)
# ---------------------------------------------------------------------------


class TestIOBackoff:
    def _failing(self, fs, attempts_that_fail):
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            if calls["n"] <= attempts_that_fail:
                raise TransientDiskError("flaky")
            return "ok"

        return attempt

    def test_jitter_is_deterministic_and_bounded(self):
        from repro.core.uio import _backoff_jitter

        seen = {
            _backoff_jitter("read", block, attempt)
            for block in range(16)
            for attempt in range(1, 5)
        }
        assert all(0.5 <= j < 1.0 for j in seen)
        assert len(seen) > 1  # actually de-correlated
        assert _backoff_jitter("read", 3, 2) == _backoff_jitter("read", 3, 2)

    def test_backoff_accrues_and_is_charged(self, system):
        fs = system.file_server
        before = system.kernel.meter.total_us
        result = fs._with_retries("read", 0, self._failing(fs, 2))
        assert result == "ok"
        assert fs.io_retries == 2
        assert fs.io_backoff_us > 0
        assert system.kernel.meter.total_us - before >= fs.io_backoff_us

    def test_attempt_budget_exhaustion_is_counted(self, system):
        from repro.core.uio import MAX_IO_RETRIES

        fs = system.file_server
        with pytest.raises(UIOError):
            fs._with_retries("write", 7, self._failing(fs, 99))
        assert fs.io_exhausted == 1
        assert fs.io_retries == MAX_IO_RETRIES == 4
        assert fs.io_errors == 5  # 4 retries + the final failure
