"""The chaos subsystem: plans, injector, degradation paths, invariants.

The degradation unit tests drive each injected failure mode through the
real kernel and assert the paper-shaped survival behavior: the fault
still resolves (via retry, redelivery, or failover to the default
manager), the degradation counters record what happened, and frame
conservation holds afterwards.  The seeded schedule tests (marked
``chaos``) run whole scenarios and are the acceptance gate:
every schedule either completes or stops with a typed ReproError, and
the invariant checker never fires.
"""

from __future__ import annotations

import os

import pytest

from repro import build_system
from repro.chaos import (
    ChaosPlan,
    Injector,
    IPCFailureMode,
    ManagerFailureMode,
    NULL_INJECTOR,
    SCENARIOS,
    run_schedule,
    run_seed_matrix,
)
from repro.chaos.cli import main as chaos_main
from repro.core.kernel import Kernel
from repro.core.supervisor import (
    FAILOVER_AFTER_ATTEMPTS,
    IPC_MAX_REDELIVERIES,
)
from repro.errors import (
    ChaosError,
    InvariantViolationError,
    TransientDiskError,
    UIOError,
    UnresolvedFaultError,
)
from repro.invariants import InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.managers.default_manager import DefaultSegmentManager
from repro.sim.engine import Engine
from repro.sim.process import Delay
from repro.spcm.spcm import SystemPageCacheManager

VICTIM = "victim-ucds"


def install_plan(system, **rates) -> Injector:
    """Install an injector targeting only the victim manager."""
    plan = ChaosPlan(target_managers=(VICTIM,), **rates)
    injector = Injector(plan)
    injector.install(system)
    return injector


def make_victim(system) -> DefaultSegmentManager:
    return DefaultSegmentManager(
        system.kernel,
        system.spcm,
        system.file_server,
        initial_frames=8,
        name=VICTIM,
    )


@pytest.fixture
def victim_file(system):
    """A cached file managed by a crash-target manager, plus the space
    that binds it; the injector is NOT yet installed."""
    kernel = system.kernel
    victim = make_victim(system)
    file_seg = kernel.create_segment(
        0, name="vf", manager=victim, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"data" * 2048)
    space = kernel.create_segment(8, name="vs")
    space.bind(0, 2, file_seg, 0)
    return system, victim, file_seg, space


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_default_plan_is_valid(self):
        ChaosPlan().validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("disk_error_rate", -0.1),
            ("disk_error_rate", 1.5),
            ("frame_ecc_rate", 2.0),
            ("manager_crash_rate", -1.0),
            ("ipc_drop_rate", 1.01),
        ],
    )
    def test_rates_must_be_probabilities(self, field, value):
        with pytest.raises(ChaosError):
            ChaosPlan(**{field: value}).validate()

    def test_manager_modes_share_one_draw(self):
        with pytest.raises(ChaosError):
            ChaosPlan(
                manager_crash_rate=0.5,
                manager_hang_rate=0.4,
                manager_byzantine_rate=0.2,
            ).validate()

    def test_ipc_modes_share_one_draw(self):
        with pytest.raises(ChaosError):
            ChaosPlan(ipc_drop_rate=0.6, ipc_duplicate_rate=0.6).validate()

    def test_burst_and_slow_factor_bounds(self):
        with pytest.raises(ChaosError):
            ChaosPlan(disk_error_burst=0).validate()
        with pytest.raises(ChaosError):
            ChaosPlan(disk_slow_factor=0.5).validate()
        with pytest.raises(ChaosError):
            ChaosPlan(max_injections=-1).validate()

    def test_with_seed_reseeds_only(self):
        plan = ChaosPlan(disk_error_rate=0.2, seed=1)
        reseeded = plan.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.disk_error_rate == 0.2

    def test_injector_rejects_invalid_plan(self):
        with pytest.raises(ChaosError):
            Injector(ChaosPlan(frame_ecc_rate=7.0))


# ---------------------------------------------------------------------------
# injector determinism and scoping
# ---------------------------------------------------------------------------


def drive(injector: Injector):
    """One fixed call sequence through every choke point."""
    out = []
    for i in range(50):
        try:
            out.append(("disk", injector.disk_io("read", i)))
        except TransientDiskError:
            out.append(("disk", "error"))
        out.append(("ecc", injector.frame_ecc(i)))
        out.append(("mgr", injector.manager_invocation("m")))
        out.append(("ipc", injector.ipc_delivery("m")))
    return out


class TestInjectorDeterminism:
    PLAN = ChaosPlan(
        seed=9,
        disk_error_rate=0.2,
        disk_slow_rate=0.2,
        frame_ecc_rate=0.2,
        manager_crash_rate=0.15,
        manager_hang_rate=0.15,
        manager_byzantine_rate=0.15,
        ipc_drop_rate=0.25,
        ipc_duplicate_rate=0.25,
    )

    def test_same_seed_same_schedule(self):
        a, b = Injector(self.PLAN), Injector(self.PLAN)
        assert drive(a) == drive(b)
        assert a.injected == b.injected  # InjectedFault is frozen/comparable
        assert a.counts() == b.counts()
        assert a.injected  # the schedule actually injected something

    def test_different_seed_different_schedule(self):
        a = Injector(self.PLAN)
        b = Injector(self.PLAN.with_seed(10))
        drive(a), drive(b)
        assert a.injected != b.injected

    def test_substreams_are_independent(self):
        """Extra draws on one choke point do not shift another's schedule."""
        a, b = Injector(self.PLAN), Injector(self.PLAN)
        for i in range(50):
            a.frame_ecc(i)
        ecc_only = [f for f in a.injected if f.kind == "frame_ecc"]
        for i in range(50):
            b.manager_invocation("m")  # interleaved foreign draws
            b.frame_ecc(i)
        assert [f.target for f in b.injected if f.kind == "frame_ecc"] == [
            f.target for f in ecc_only
        ]

    def test_target_managers_scope_injection(self):
        plan = ChaosPlan(
            manager_crash_rate=1.0, target_managers=("victim",)
        )
        injector = Injector(plan)
        assert injector.manager_invocation("bystander") is None
        assert injector.injected == []
        assert (
            injector.manager_invocation("victim")
            is ManagerFailureMode.CRASH
        )

    def test_max_injections_budget(self):
        plan = ChaosPlan(frame_ecc_rate=1.0, max_injections=2)
        injector = Injector(plan)
        hits = [injector.frame_ecc(i) for i in range(10)]
        assert hits.count(True) == 2
        assert injector.exhausted

    def test_observers_see_every_event(self):
        seen = []
        injector = Injector(ChaosPlan(frame_ecc_rate=1.0, max_injections=3))
        injector.observers.append(seen.append)
        for i in range(5):
            injector.frame_ecc(i)
        assert [f.seq for f in seen] == [1, 2, 3]


# ---------------------------------------------------------------------------
# zero overhead when disabled (Table-1 acceptance)
# ---------------------------------------------------------------------------


class TestZeroOverhead:
    def test_components_default_to_null_injector(self, system):
        assert system.injector is NULL_INJECTOR
        assert system.kernel.supervisor.injector is NULL_INJECTOR
        assert system.disk.injector is NULL_INJECTOR
        assert system.memory.injector is NULL_INJECTOR
        assert NULL_INJECTOR.enabled is False

    def test_null_injector_injects_nothing(self):
        assert NULL_INJECTOR.disk_io("read", 0) == 1.0
        assert NULL_INJECTOR.frame_ecc(0) is False
        assert NULL_INJECTOR.manager_invocation("m") is None
        assert NULL_INJECTOR.ipc_delivery("m") is None

    def test_disabled_injection_keeps_exact_fault_costs(self, memory):
        kernel = Kernel(memory)
        spcm = SystemPageCacheManager(kernel)
        manager = GenericSegmentManager(kernel, spcm, "app", initial_frames=64)
        seg = kernel.create_segment(8, manager=manager)
        snap = kernel.meter.snapshot()
        kernel.reference(seg, 0, write=True)
        assert sum(kernel.meter.delta_since(snap).values()) == 107.0

    def test_zero_rate_injector_keeps_exact_fault_costs(self, system):
        """An *installed* injector whose rates are all zero draws nothing
        and charges nothing: the Figure-2 fault still costs exactly the
        separate-process 379 us through the default manager."""
        injector = Injector(ChaosPlan(seed=5))
        injector.install(system)
        kernel = system.kernel
        seg = kernel.create_segment(
            8, name="z", manager=system.default_manager
        )
        snap = kernel.meter.snapshot()
        kernel.reference(seg, 0, write=True)
        assert sum(kernel.meter.delta_since(snap).values()) == 379.0
        assert injector.injected == []
        Injector.uninstall(system)
        assert system.kernel.supervisor.injector is NULL_INJECTOR


# ---------------------------------------------------------------------------
# kernel degradation paths, one failure mode at a time
# ---------------------------------------------------------------------------


class TestManagerFailover:
    def test_crash_fails_over_to_default_manager(self, victim_file):
        system, victim, file_seg, space = victim_file
        install_plan(system, manager_crash_rate=1.0, max_injections=1)
        kernel = system.kernel
        frame = kernel.reference(space, 0, write=False)
        assert frame is not None
        assert kernel.stats.manager_crashes == 1
        assert kernel.stats.manager_failovers == 1
        assert kernel.stats.fallback_resolutions == 1
        assert victim.failed
        assert file_seg.manager is system.default_manager
        kernel.check_frame_conservation()

    def test_hang_charges_the_timeout(self, victim_file):
        system, _, _, space = victim_file
        install_plan(system, manager_hang_rate=1.0, max_injections=1)
        kernel = system.kernel
        snap = kernel.meter.snapshot()
        kernel.reference(space, 0, write=False)
        delta = kernel.meter.delta_since(snap)
        assert delta["manager_timeout"] == kernel.costs.manager_timeout_us
        assert kernel.stats.manager_timeouts == 1
        assert kernel.stats.manager_failovers == 1

    def test_byzantine_manager_loses_trust_after_retries(self, victim_file):
        system, victim, _, space = victim_file
        install_plan(system, manager_byzantine_rate=1.0)
        kernel = system.kernel
        frame = kernel.reference(space, 0, write=False)
        assert frame is not None
        # the kernel keeps re-delivering until the failover threshold
        assert kernel.stats.byzantine_replies == FAILOVER_AFTER_ATTEMPTS
        assert kernel.stats.manager_failovers == 1
        assert kernel.stats.fallback_resolutions == 1
        assert victim.failed

    def test_alloc_crash_mid_handler_fails_over(self, victim_file):
        system, victim, _, space = victim_file
        install_plan(system, manager_alloc_crash_rate=1.0, max_injections=1)
        kernel = system.kernel
        frame = kernel.reference(space, 0, write=False)
        assert frame is not None
        assert kernel.stats.manager_crashes == 1
        assert kernel.stats.fallback_resolutions == 1
        kernel.check_frame_conservation()

    def test_failover_reassigns_every_segment(self, victim_file):
        system, victim, file_seg, space = victim_file
        other = system.kernel.create_segment(4, name="other", manager=victim)
        install_plan(system, manager_crash_rate=1.0, max_injections=1)
        system.kernel.reference(space, 0, write=False)
        assert file_seg.manager is system.default_manager
        assert other.manager is system.default_manager
        assert victim.managed == set()

    def test_no_fallback_suspends_the_faulting_process(self, memory):
        """Outside build_system there is no fallback manager: an injected
        crash becomes an UnresolvedFaultError naming the suspension."""
        kernel = Kernel(memory)
        spcm = SystemPageCacheManager(kernel)
        victim = GenericSegmentManager(
            kernel, spcm, VICTIM, initial_frames=8
        )
        kernel.supervisor.injector = Injector(
            ChaosPlan(manager_crash_rate=1.0, target_managers=(VICTIM,))
        )
        seg = kernel.create_segment(8, manager=victim)
        with pytest.raises(UnresolvedFaultError, match="suspending"):
            kernel.reference(seg, 0)


class TestIPCFailures:
    def test_drop_is_redelivered(self, victim_file):
        system, _, _, space = victim_file
        install_plan(system, ipc_drop_rate=1.0, max_injections=1)
        kernel = system.kernel
        frame = kernel.reference(space, 0, write=False)
        assert frame is not None
        assert kernel.stats.ipc_drops == 1
        assert kernel.stats.manager_failovers == 0

    def test_unreachable_manager_fails_over(self, victim_file):
        system, victim, _, space = victim_file
        install_plan(system, ipc_drop_rate=1.0)  # every delivery lost
        kernel = system.kernel
        frame = kernel.reference(space, 0, write=False)
        assert frame is not None
        assert kernel.stats.ipc_drops == IPC_MAX_REDELIVERIES + 1
        assert kernel.stats.manager_failovers == 1
        assert kernel.stats.fallback_resolutions == 1
        assert victim.failed

    def test_duplicate_delivery_is_idempotent(self, victim_file):
        system, victim, _, space = victim_file
        install_plan(system, ipc_duplicate_rate=1.0, max_injections=1)
        kernel = system.kernel
        frame = kernel.reference(space, 0, write=False)
        assert frame is not None
        assert kernel.stats.ipc_duplicates == 1
        assert victim.duplicate_deliveries == 1
        kernel.check_frame_conservation()


class TestDiskDegradation:
    def _file(self, system, manager):
        seg = system.kernel.create_segment(
            0, name="dd", manager=manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"dd" * 16384)
        return seg

    def test_transient_error_retried_with_backoff(self, system):
        seg = self._file(system, system.default_manager)
        install_plan(system, disk_error_rate=1.0, max_injections=1)
        snap = system.kernel.meter.snapshot()
        data = system.uio.read(seg, 0, 4096)
        assert len(data) == 4096
        assert system.file_server.io_retries == 1
        assert system.file_server.io_errors == 1
        assert system.disk.stats.errors == 1
        delta = system.kernel.meter.delta_since(snap)
        base = system.kernel.costs.io_retry_backoff_us
        # first retry: no doubling yet, deterministic jitter in [0.5, 1.0)
        assert 0.5 * base <= delta["io_retry"] < base
        assert delta["io_retry"] == system.file_server.io_backoff_us

    def test_persistent_errors_exhaust_retries(self, system):
        from repro.core.uio import MAX_IO_RETRIES

        seg = self._file(system, system.default_manager)
        install_plan(system, disk_error_rate=1.0)
        with pytest.raises(UIOError, match="failed after"):
            system.uio.read(seg, 0, 4096)
        assert system.file_server.io_retries == MAX_IO_RETRIES
        assert system.file_server.io_errors == MAX_IO_RETRIES + 1

    def test_latency_spike_scales_service_time(self, system):
        seg = self._file(system, system.default_manager)
        baseline = system.disk.stats.busy_us
        system.uio.read(seg, 0, 4096)
        clean_cost = system.disk.stats.busy_us - baseline
        install_plan(
            system, disk_slow_rate=1.0, disk_slow_factor=8.0,
            max_injections=1,
        )
        before = system.disk.stats.busy_us
        system.uio.read(seg, 8192, 4096)
        assert system.disk.stats.busy_us - before == pytest.approx(
            8.0 * clean_cost
        )


class TestECCRetirement:
    def test_ecc_failure_retires_frame_and_refaults(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(
            8, name="ecc", manager=system.default_manager
        )
        install_plan(system, frame_ecc_rate=1.0, max_injections=1)
        frame = kernel.reference(seg, 0, write=True)
        assert kernel.stats.ecc_retirements == 1
        assert len(kernel.retired_frames) == 1
        assert frame.pfn not in kernel.retired_frames
        # conservation holds with the retired frame out of service
        kernel.check_frame_conservation()
        checker = InvariantChecker(kernel)
        checker.check_all()


# ---------------------------------------------------------------------------
# sharded (NUMA) chaos: crashes stay on their node
# ---------------------------------------------------------------------------


def _free_frames_on_node(kernel, spcm, node: int) -> int:
    """Free-list entries whose frames are physically homed on ``node``."""
    count = 0
    for size, pages in spcm._free.items():
        boot = kernel.boot_segments[size]
        for page in pages:
            frame = boot.pages.get(page)
            if frame is not None and spcm.shard_of(frame.phys_addr).node == node:
                count += 1
    return count


class TestShardedChaos:
    def test_node0_crash_does_not_leak_frames_into_node1(self):
        """A manager crash on node 0 returns its frames to node 0's
        shard; node 1's free pool and holdings are untouched and both
        shards still conserve frames."""
        system = build_system(memory_mb=8, n_nodes=2, manager_frames=64)
        kernel, spcm = system.kernel, system.spcm
        victim = DefaultSegmentManager(
            kernel,
            spcm,
            system.file_server,
            initial_frames=8,
            name=VICTIM,
            home_node=0,
        )
        file_seg = kernel.create_segment(
            0, name="vf", manager=victim, auto_grow=True
        )
        system.file_server.create_file(file_seg, data=b"data" * 2048)
        space = kernel.create_segment(8, name="vs")
        space.bind(0, 2, file_seg, 0)
        shard0, shard1 = spcm.shards
        # the victim's stock is node-local thanks to the home_node hint
        assert shard0.frames_held.get(VICTIM, 0) == 8
        assert shard1.frames_held.get(VICTIM, 0) == 0
        node1_free = _free_frames_on_node(kernel, spcm, 1)
        node1_held = sum(shard1.frames_held.values())
        checker = InvariantChecker(kernel)
        checker.check_all()

        install_plan(system, manager_crash_rate=1.0, max_injections=1)
        kernel.reference(space, 0)
        assert kernel.stats.manager_crashes == 1

        # node 0 settles its own books; node 1's are bit-identical
        assert shard0.frames_held.get(VICTIM, 0) == 0
        assert shard1.frames_held.get(VICTIM, 0) == 0
        assert _free_frames_on_node(kernel, spcm, 1) == node1_free
        assert sum(shard1.frames_held.values()) == node1_held
        checker.check_all()

    @pytest.mark.chaos
    def test_seeded_crash_schedules_on_sharded_system(self):
        """Seeded schedules survive a 2-node sharded SPCM; the invariant
        checker (shard conservation included) never fires."""
        for result in run_seed_matrix("apps", range(8), n_nodes=2):
            assert result.completed or result.error_type
            assert result.checks_run > 0


# ---------------------------------------------------------------------------
# process suspension
# ---------------------------------------------------------------------------


class TestProcessSuspension:
    def test_unresolved_fault_suspends_only_the_faulting_process(self):
        engine = Engine()

        def faulty():
            yield Delay(1)
            raise UnresolvedFaultError("no manager could resolve the fault")

        log = []

        def healthy():
            yield Delay(5)
            log.append(engine.now)

        bad = engine.spawn(faulty(), name="bad")
        good = engine.spawn(healthy(), name="good")
        engine.run()
        assert bad.suspended and bad.finished
        assert isinstance(bad.failure, UnresolvedFaultError)
        assert not good.suspended and log == [5]
        assert engine.suspended_processes() == [bad]


# ---------------------------------------------------------------------------
# the invariant checker itself
# ---------------------------------------------------------------------------


class TestInvariantChecker:
    def test_clean_system_has_no_violations(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(
            8, name="c", manager=system.default_manager
        )
        for page in range(4):
            kernel.reference(seg, page * seg.page_size, write=True)
        checker = InvariantChecker(kernel)
        checker.check_all()
        assert checker.violations() == []
        assert checker.checks_run == 2

    def test_lost_frame_is_caught(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(
            8, name="lost", manager=system.default_manager
        )
        frame = kernel.reference(seg, 0, write=True)
        seg.pages.pop(0)  # drop the frame without retiring it
        checker = InvariantChecker(kernel)
        with pytest.raises(InvariantViolationError, match="lost"):
            checker.check_all()
        assert f"[frames] frame pfn={frame.pfn} lost" in "\n".join(
            checker.violations()
        )

    def test_corrupt_back_pointer_is_caught(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(
            8, name="bp", manager=system.default_manager
        )
        frame = kernel.reference(seg, 0, write=True)
        frame.page_index = 5
        with pytest.raises(InvariantViolationError, match="back-pointer"):
            InvariantChecker(kernel).check_all()


# ---------------------------------------------------------------------------
# seeded schedules (the acceptance gate)
# ---------------------------------------------------------------------------


def _base_seed() -> int:
    """CI shards the seed space via CHAOS_SEED (0, 1, 2, ...)."""
    return int(os.environ.get("CHAOS_SEED", "0")) * 100


@pytest.mark.chaos
class TestChaosSchedules:
    def test_unknown_scenario_is_a_typed_error(self):
        with pytest.raises(ChaosError, match="unknown scenario"):
            run_schedule("no-such-scenario")

    def test_schedules_are_deterministic(self):
        a = run_schedule("figure2-hang", seed=3)
        b = run_schedule("figure2-hang", seed=3)
        assert a.injected == b.injected
        assert a.kernel_stats == b.kernel_stats
        assert a.references == b.references
        assert a.completed == b.completed

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_survives_three_seeds(self, scenario):
        for result in run_seed_matrix(scenario, range(3)):
            assert result.completed or result.error_type is not None

    def test_manager_crash_matrix_100_seeds(self):
        """The ISSUE acceptance run: 100 seeded crash schedules against
        the Figure-2 workload, zero invariant violations, the default
        manager resolving at least one fault."""
        base = _base_seed()
        results = run_seed_matrix("figure2-crash", range(base, base + 100))
        assert len(results) == 100
        for result in results:
            # completes, or stops with a *typed* error; InvariantViolation
            # would have propagated out of run_seed_matrix
            assert result.completed or result.error_type is not None
            assert result.checks_run >= 1
        assert sum(r.injected.get("manager_crash", 0) for r in results) >= 1
        assert sum(r.fallback_resolutions for r in results) >= 1
        assert sum(r.failovers for r in results) >= 1

    def test_disk_workload_reclaims_through_the_fallback(self):
        """After the victim fails over, the disk workload's evictions go
        to the segment's new manager: a dead manager migrating frames
        out of an adopted segment would leave the fallback listing pages
        it no longer holds, which the ``managers`` sweep reports."""
        # one hang, late enough that the victim already holds pages
        plan = ChaosPlan(
            manager_hang_rate=0.05, target_managers=(VICTIM,), max_injections=1
        )
        results = run_seed_matrix("disk-flaky", range(8), plan=plan)
        assert sum(r.failovers for r in results) >= 3
        assert all(r.completed for r in results)

    def test_dbms_scenario_injects_disk_errors(self):
        result = run_schedule("dbms", seed=_base_seed())
        assert result.completed
        assert result.injected.get("disk_error", 0) >= 1
        assert result.references > 0


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestChaosCLI:
    def test_list_names_every_scenario(self, capsys):
        assert chaos_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_reports_invariant_clean(self, capsys):
        assert chaos_main(["figure2-crash", "--schedules", "2"]) == 0
        out = capsys.readouterr().out
        assert "all 2 schedule(s) invariant-clean" in out
        assert "seed    0" in out

    def test_listener_error_fails_the_schedule(self, capsys, monkeypatch):
        """A contained listener exception still fails the chaos run."""
        from repro.obs.slo import SLOWatchdog

        def broken(self, event, manager, duration_us):
            raise RuntimeError("broken SLO degradation handler")

        monkeypatch.setattr(SLOWatchdog, "_on_degradation", broken)
        argv = ["figure2-crash", "--schedules", "1", "--slo"]
        assert chaos_main(argv) == 1
        out = capsys.readouterr().out
        assert "LISTENER ERRORS" in out
        assert "1/1 schedule(s) violated invariants or raised" in out
