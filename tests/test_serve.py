"""The multi-tenant serving layer: admission, batching, quotas.

Unit coverage for the token bucket, the admission controller's three
shed reasons (every shed a typed :class:`~repro.core.api.RetryAfter`),
and the batch scheduler's one-refill-per-batch contract; integration
coverage for the typed ``AdmitTenant`` entry, quota deferral (a tenant
over quota thrashes its own residents, it is never refused), and the
closed-loop load generator; and a hypothesis property driving randomized
admit/run/shed/crash interleavings twice each, asserting frame and
dram-quota conservation (the invariant checker's quota sweep) and
bit-identical serving digests.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.harness import build_workload_system
from repro.chaos.injector import Injector
from repro.chaos.plan import ChaosPlan
from repro.core.api import AdmitTenantRequest, RetryAfter, TenantQuota
from repro.invariants import InvariantChecker
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.loadgen import (
    SERVING_SCHEDULES,
    admit_fleet,
    run_load,
)
from repro.serve.tenants import ServingSystem
from repro.spcm.policy import (
    AllocationDecision,
    AllocationPolicy,
    PolicyVerdict,
)


def build_serving(seed=0, **kwargs):
    """A small 2-node machine with a serving layer over it."""
    system = build_workload_system(n_nodes=2)
    return system, ServingSystem(system, seed=seed, **kwargs)


class RefuseAccount(AllocationPolicy):
    """Refuses one account outright and asks ``inner`` for the rest."""

    def __init__(self, inner, account):
        self.inner = inner
        self.account = account

    def decide(self, account, n_requested, n_free, page_size):
        if account == self.account:
            return PolicyVerdict(AllocationDecision.REFUSE)
        return self.inner.decide(account, n_requested, n_free, page_size)


# ---------------------------------------------------------------------------
# token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_dry(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=2.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == 0.0
        wait = bucket.try_take(0.0)
        # one token at 1000/s is 1000 us away
        assert wait == pytest.approx(1000.0)

    def test_refills_from_simulated_time(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=1.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) > 0.0
        # 1 ms later the single token has accrued again
        assert bucket.try_take(1000.0) == 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=3.0)
        bucket.try_take(0.0)
        # an hour of idle accrues at most `burst` tokens
        for _ in range(3):
            assert bucket.try_take(3.6e9) == 0.0
        assert bucket.try_take(3.6e9) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        rate_per_s=st.floats(min_value=1.0, max_value=1e6),
        burst=st.floats(min_value=1.0, max_value=16.0),
        steps=st.lists(
            st.one_of(
                st.floats(min_value=0.001, max_value=5_000.0),  # later
                st.just(0.0),  # the same instant
                st.floats(min_value=-5_000.0, max_value=-0.001),  # earlier
            ),
            max_size=80,
        ),
    )
    def test_bucket_and_controller_follow_the_documented_rule(
        self, rate_per_s, burst, steps
    ):
        """Call for call, over times that move forward, stand still and
        move back, ``try_take`` and ``try_admit`` agree with a bucket
        written here from the rule: tokens refill at ``rate_per_s``
        only when time advances, are capped at ``burst``, and a shed's
        horizon is ``(1 - tokens) / rate_per_s * 1e6``."""
        tokens, last_us = burst, 0.0
        bucket = TokenBucket(rate_per_s, burst)
        controller = AdmissionController(rate_per_s=rate_per_s, burst=burst)
        controller.admit_tenant("t")
        now_us = 0.0
        admitted = shed = 0
        for delta in steps:
            now_us += delta
            if now_us > last_us:
                tokens = min(
                    burst, tokens + (now_us - last_us) * 1e-6 * rate_per_s
                )
                last_us = now_us
            if tokens >= 1.0:
                tokens -= 1.0
                expected = 0.0
                admitted += 1
            else:
                expected = (1.0 - tokens) / rate_per_s * 1e6
                shed += 1
            assert bucket.try_take(now_us) == expected
            result = controller.try_admit("t", now_us)
            if expected == 0.0:
                assert result is None
            else:
                assert result == RetryAfter("t", expected, "admission")
        assert (controller.admitted, controller.shed) == (admitted, shed)


# ---------------------------------------------------------------------------
# admission controller: three shed reasons, all typed
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_admission_shed_is_typed_with_horizon(self):
        ac = AdmissionController(rate_per_s=1000.0, burst=1.0)
        assert ac.admit_tenant("t") is None
        assert ac.try_admit("t", 0.0) is None
        shed = ac.try_admit("t", 0.0)
        assert isinstance(shed, RetryAfter)
        assert shed.reason == "admission"
        assert shed.tenant == "t"
        assert shed.retry_after_us > 0.0
        assert ac.shed_by_reason == {"admission": 1}

    def test_backpressure_shed(self):
        ac = AdmissionController(
            rate_per_s=1000.0,
            burst=8.0,
            max_backlog=4,
            backlog_fn=lambda: 10,
        )
        ac.admit_tenant("t")
        shed = ac.try_admit("t", 0.0)
        assert isinstance(shed, RetryAfter)
        assert shed.reason == "backpressure"
        # horizon covers draining the excess at the token rate
        assert shed.retry_after_us == pytest.approx(7 / 1000.0 * 1e6)

    def test_capacity_shed(self):
        ac = AdmissionController(max_tenants=1)
        assert ac.admit_tenant("a") is None
        shed = ac.admit_tenant("b")
        assert isinstance(shed, RetryAfter)
        assert shed.reason == "capacity"
        # re-admitting a registered tenant is idempotent, not capacity
        assert ac.admit_tenant("a") is None

    def test_counters(self):
        ac = AdmissionController(rate_per_s=1000.0, burst=1.0)
        ac.admit_tenant("t")
        ac.try_admit("t", 0.0)
        ac.try_admit("t", 0.0)
        assert ac.admitted == 1
        assert ac.shed == 1
        assert ac.shed_by_reason == {"admission": 1}


# ---------------------------------------------------------------------------
# batch scheduler
# ---------------------------------------------------------------------------


class TestBatchScheduler:
    def test_one_batch_per_manager_node(self):
        _system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        a = serving.sessions["tenant-0"]
        b = serving.sessions["tenant-1"]
        page = a.segment.page_size
        for i in range(4):
            assert serving.submit(a, i * page, False) is None
            assert serving.submit(b, i * page, True) is None
        assert serving.scheduler.backlog == 8
        serviced = serving.flush()
        assert serviced == 8
        assert serving.scheduler.backlog == 0
        # two tenants on two home nodes: exactly two batches
        assert serving.scheduler.batches_flushed == 2

    def test_batched_refill_uses_typed_kernel_entry(self):
        from repro.core.api import BatchMigratePagesRequest

        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        session = serving.sessions["tenant-0"]
        kernel = system.kernel
        typed_batches = []
        original = kernel.migrate_pages_batch

        def spy(requests):
            if isinstance(requests, BatchMigratePagesRequest):
                typed_batches.append(requests.n_requests)
            return original(requests)

        kernel.migrate_pages_batch = spy
        try:
            page = session.segment.page_size
            for i in range(6):
                serving.submit(session, i * page, False)
            serving.flush()
        finally:
            kernel.migrate_pages_batch = original
        assert session.serviced == 6
        # the whole flush pre-refilled through typed batched entries
        # (one per shard touched), never per-fault refill churn
        assert typed_batches
        assert sum(typed_batches) >= 1

    def test_tenant_attribution_books_per_tenant_faults(self):
        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=16)
        a = serving.sessions["tenant-0"]
        page = a.segment.page_size
        for i in range(3):
            serving.submit(a, i * page, False)
        serving.flush()
        stats = system.kernel.stats
        assert stats.tenant_faults.get("tenant-0", 0) == 3
        assert stats.tenant_fault_us["tenant-0"] > 0.0
        assert "tenant-1" not in stats.tenant_faults

    def test_failed_services_are_still_billed(self):
        system, serving = build_serving()
        # no frames at all: every service raises out of the manager
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=0)
        session = serving.sessions["tenant-0"]
        page = session.segment.page_size
        for i in range(3):
            serving.submit(session, i * page, False)
        serving.flush()
        assert session.service_errors == 3
        assert system.kernel.stats.tenant_faults == {"tenant-0": 3}

    def test_faults_outside_working_sets_are_not_billed(self):
        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        kernel = system.kernel
        other = kernel.create_segment(
            4, name="not-a-tenant", manager=system.default_manager
        )
        kernel.reference(other, 0, write=True)
        assert kernel.stats.faults == 1
        assert kernel.stats.tenant_faults == {}
        assert kernel.stats.tenant_fault_us == {}

    def test_raising_hook_keeps_the_batch_serviced(self):
        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        session = serving.sessions["tenant-0"]
        seen = []

        def bad_hook(tenant, latency_us):
            raise RuntimeError("observer bug")

        serving.on_tenant_fault(bad_hook)
        serving.on_tenant_fault(lambda tenant, us: seen.append(tenant))
        page = session.segment.page_size
        for i in range(4):
            serving.submit(session, i * page, False)
        assert serving.flush() == 4
        assert session.serviced == 4
        assert serving.scheduler.backlog == 0
        assert serving.scheduler.errors == 0
        assert seen == ["tenant-0"] * 4
        assert system.kernel.stats.listener_errors == 4

    def test_flush_leaves_no_queue_behind(self):
        _system, serving = build_serving()
        admit_fleet(serving, 4, working_set_pages=8, quota_frames=16)
        scheduler = serving.scheduler
        assert scheduler._queues == {}
        session = serving.sessions["tenant-2"]
        serving.submit(session, 0, False)
        serving.submit(session, session.segment.page_size, False)
        # only the key with work holds a queue
        assert list(scheduler._queues) == [("tenant-2", session.home_node)]
        assert serving.flush() == 2
        assert scheduler._queues == {}
        assert scheduler.backlog == 0
        assert serving.flush() == 0

    def test_flush_services_keys_in_sorted_order(self):
        _system, serving = build_serving()
        admit_fleet(serving, 4, working_set_pages=8, quota_frames=16)
        sessions = [serving.sessions[t] for t in sorted(serving.sessions)]
        order = []
        serving.on_tenant_fault(lambda tenant, us: order.append(tenant))
        for session in reversed(sessions):
            for i in range(2):
                serving.submit(session, i * session.segment.page_size, False)
        assert serving.flush() == 8
        by_key = sorted(sessions, key=lambda s: (s.manager.name, s.home_node))
        assert order == [s.tenant for s in by_key for _ in range(2)]

    def test_refused_refill_loses_no_request(self):
        """A refill the SPCM refuses is absorbed: that tenant's references
        each fail on their own and are counted, and every other batch is
        still serviced."""
        system, serving = build_serving(seed=42)
        admit_fleet(serving, 4, working_set_pages=8, quota_frames=16)
        refused = serving.sessions["tenant-1"]
        system.spcm.policy = RefuseAccount(system.spcm.policy, refused.account)
        serviced = run_load(serving, duration_us=20_000.0)
        scheduler = serving.scheduler
        assert scheduler.backlog == 0
        assert scheduler._queues == {}
        assert serviced == serving.admission.admitted > 0
        assert refused.serviced == refused.admitted > 0
        assert refused.service_errors == refused.serviced
        assert scheduler.errors == refused.service_errors
        for session in serving.sessions.values():
            assert session.serviced == session.admitted
            if session is not refused:
                assert session.service_errors == 0
        InvariantChecker(system.kernel).check_all()

    def test_latency_includes_queue_wait(self):
        _system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8, quota_frames=16)
        session = serving.sessions["tenant-0"]
        serving.submit(session, 0, False)
        # advance the engine 500 us before the flush happens
        serving.engine.schedule(500.0, serving.flush)
        serving.engine.run()
        assert session.latency.count == 1
        assert session.latency.percentile(50) >= 500.0


# ---------------------------------------------------------------------------
# the typed AdmitTenant entry
# ---------------------------------------------------------------------------


class TestAdmit:
    def test_admit_creates_manager_segment_and_quota(self):
        system, serving = build_serving()
        result = serving.admit(
            AdmitTenantRequest(
                "alpha",
                working_set_pages=8,
                quota=TenantQuota("alpha", frames=12),
            )
        )
        assert result.admitted
        assert result.tenant == "alpha"
        assert result.home_node == 0
        session = serving.sessions["alpha"]
        assert session.manager.name == "alpha"
        assert session.segment.n_pages == 8
        assert system.spcm.arbiter.quota_of(session.account) == 12

    def test_home_nodes_round_robin(self):
        _system, serving = build_serving()
        admit_fleet(serving, 4, working_set_pages=4)
        nodes = [
            serving.sessions[f"tenant-{i}"].home_node for i in range(4)
        ]
        assert nodes == [0, 1, 0, 1]

    def test_duplicate_admission_raises(self):
        _system, serving = build_serving()
        serving.admit(AdmitTenantRequest("dup"))
        with pytest.raises(ValueError):
            serving.admit(AdmitTenantRequest("dup"))

    def test_capacity_shed_result(self):
        _system, serving = build_serving(max_tenants=1)
        assert serving.admit(AdmitTenantRequest("a")).admitted
        result = serving.admit(AdmitTenantRequest("b"))
        assert not result.admitted
        assert result.retry_after is not None
        assert result.retry_after.reason == "capacity"
        assert "b" not in serving.sessions


# ---------------------------------------------------------------------------
# quotas: defer, never refuse
# ---------------------------------------------------------------------------


class TestQuotaEnforcement:
    def test_over_quota_tenant_thrashes_but_completes(self):
        system, serving = build_serving()
        # working set twice the quota: every steady-state fault needs a
        # self-recycle, never an outright refusal
        admit_fleet(serving, 2, working_set_pages=16, quota_frames=8)
        serviced = run_load(serving, duration_us=10_000.0)
        assert serviced > 0
        assert system.spcm.quota_deferrals > 0
        for tenant in ("tenant-0", "tenant-1"):
            session = serving.sessions[tenant]
            assert session.serviced > 0, "quota starved a tenant outright"
            assert system.spcm.held_by(session.account) <= 8
        InvariantChecker(system.kernel).check_all()

    def test_every_shed_carries_retry_after(self):
        _system, serving = build_serving(rate_per_s=2_000.0, burst=1.0)
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        run_load(serving, duration_us=10_000.0)
        total_shed = 0
        for session in serving.sessions.values():
            total_shed += session.shed
            if session.shed:
                assert isinstance(session.last_retry_after, RetryAfter)
                assert session.last_retry_after.retry_after_us >= 0.0
        # the 2k/s rate against ~5k/s offered load must actually shed
        assert total_shed > 0


# ---------------------------------------------------------------------------
# determinism + conservation under randomized interleavings
# ---------------------------------------------------------------------------


def _serve_run(
    seed: int,
    n_tenants: int,
    quota_frames: int | None,
    duration_us: float,
    chaos_seed: int | None,
):
    """One full serving run; returns (digest rows, conservation report)."""
    system = build_workload_system(n_nodes=2)
    if chaos_seed is not None:
        injector = Injector(
            ChaosPlan(
                manager_crash_rate=0.15,
                manager_hang_rate=0.1,
                frame_ecc_rate=0.01,
                seed=chaos_seed,
                target_managers=tuple(
                    f"tenant-{i}" for i in range(n_tenants)
                ),
            ),
        )
        injector.install(system)
    serving = ServingSystem(system, seed=seed, rate_per_s=8_000.0)
    admit_fleet(
        serving, n_tenants, working_set_pages=8, quota_frames=quota_frames
    )
    run_load(serving, duration_us)
    checker = InvariantChecker(system.kernel)
    checker.check_all()  # frame + dram-quota conservation, or it raises
    rows = serving.digest_rows()
    rows.extend(system.spcm.digest_rows())
    rows.extend(system.spcm.arbiter.digest_rows())
    return rows


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_tenants=st.integers(min_value=1, max_value=4),
    quota_frames=st.one_of(st.none(), st.integers(min_value=2, max_value=16)),
    duration_us=st.sampled_from([2_000.0, 5_000.0]),
    chaos_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
def test_serving_interleavings_conserve_and_repeat(
    seed, n_tenants, quota_frames, duration_us, chaos_seed
):
    """Any admit/run/shed/crash interleaving: quota + frame conservation
    holds (the checker would raise), and two identical runs produce
    bit-identical serving/SPCM/arbiter digests."""
    first = _serve_run(seed, n_tenants, quota_frames, duration_us, chaos_seed)
    second = _serve_run(seed, n_tenants, quota_frames, duration_us, chaos_seed)
    assert first == second


#: seed -> (``digest_payload(serving.digest_rows())`` head, SPCM
#: ``quota_deferrals``) of a 16-tenant, 2-node, 20 ms run with the
#: ``bench serve`` constants.  The determinism chains record fault
#: services and the end state, not the serving layer's own counters;
#: these pin its admission, shed, batch and per-tenant latency rows and
#: the quota clamps of its refills at more than one seed.
PINNED_SERVING_ROWS = {
    0: ("d0da47d8a9b34e9a", 433),
    1: ("1d4c1b86725e0edc", 380),
    7: ("459ced6e61919c24", 426),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SERVING_ROWS))
def test_serving_rows_and_quota_deferrals_are_pinned(seed):
    from repro import build_system
    from repro.serve import bench as serve_bench
    from repro.verify.digest import digest_payload

    system = build_system(
        memory_mb=serve_bench.MEMORY_MB, n_nodes=2, manager_frames=64
    )
    serving = ServingSystem(
        system,
        seed=seed,
        rate_per_s=serve_bench.RATE_PER_S,
        burst=serve_bench.BURST,
        max_backlog=serve_bench.MAX_BACKLOG,
    )
    admit_fleet(
        serving,
        16,
        working_set_pages=serve_bench.WORKING_SET_PAGES,
        quota_frames=serve_bench.QUOTA_FRAMES,
    )
    run_load(serving, 20_000.0)
    head = digest_payload(serving.digest_rows())[:16]
    assert (head, system.spcm.quota_deferrals) == PINNED_SERVING_ROWS[seed]


class TestServingObservability:
    def test_telemetry_binds_serving_gauges(self):
        from repro.obs.telemetry import install_telemetry

        system, serving = build_serving()
        collector = install_telemetry(system, interval_us=500.0)
        collector.bind_serving(serving)
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        run_load(serving, duration_us=5_000.0)
        sample = collector.sample_now()
        assert sample.values["serve.tenants"] == 2.0
        assert sample.values["serve.admitted"] > 0.0
        assert sample.values["tenant.tenant-0.serviced"] > 0.0
        assert sample.values["tenant.tenant-0.held_frames"] <= 8.0

    def test_slo_watchdog_judges_per_tenant_p99(self):
        from repro.obs.slo import SLOPolicy, SLOWatchdog

        system, serving = build_serving()
        admit_fleet(serving, 2, working_set_pages=8, quota_frames=8)
        # an absurdly tight objective so the excursion definitely fires,
        # but only once per tenant (edge-triggered)
        policy = SLOPolicy(tenant_p99_us=0.001, min_tenant_samples=3)
        watchdog = SLOWatchdog(system, policy).watch_serving(serving)
        run_load(serving, duration_us=5_000.0)
        fired = {
            alert.name
            for alert in watchdog.alerts
            if alert.name.startswith("tenant_p99_latency:")
        }
        assert fired == {
            "tenant_p99_latency:tenant-0",
            "tenant_p99_latency:tenant-1",
        }
        assert len(watchdog.alerts) == 2

    def test_slo_watch_serving_disabled_by_default(self):
        from repro.obs.slo import SLOWatchdog

        system, serving = build_serving()
        admit_fleet(serving, 1, working_set_pages=8)
        watchdog = SLOWatchdog(system).watch_serving(serving)
        run_load(serving, duration_us=2_000.0)
        assert watchdog.tenant_latency == {}
        assert watchdog.alerts == []


def test_named_schedules_registered():
    """The determinism gate can resolve the serving schedules by name."""
    assert "serve-smoke" in SERVING_SCHEDULES
    assert "serve-64x2" in SERVING_SCHEDULES
    from repro.verify.determinism import run_twice

    report = run_twice("serve-smoke", nodes=2)
    assert report.ok, report.render()
