"""The closed-loop load generator over the serving layer.

Each tenant runs a closed loop on the discrete-event engine: issue a
reference, then think (exponential, from the tenant's own seeded RNG
substream) before the next --- a shed reschedules the *same* reference at
exactly the shed's ``retry_after_us`` horizon, so backpressure shapes the
offered load the way a real client obeying Retry-After would.  A periodic
pump flushes the batch scheduler.  Everything is a pure function of the
serving seed: the run-twice determinism gate drives these schedules
unchanged via :data:`SERVING_SCHEDULES`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.api import AdmitTenantRequest, TenantQuota
from repro.serve.tenants import ServingSystem, TenantSession

#: a tenant's mean think time between references (exponential)
THINK_US_MEAN = 200.0
#: how often the pump flushes the batch scheduler
FLUSH_INTERVAL_US = 50.0
#: the share of references that write
WRITE_FRACTION = 0.25


def run_load(serving: ServingSystem, duration_us: float) -> int:
    """Drive every admitted tenant closed-loop for ``duration_us``.

    Returns the number of requests serviced.  Page picks, think times
    and read/write mix come from per-tenant substreams of the serving
    system's seeded RNG; arrivals past ``duration_us`` stop, then one
    final flush drains the scheduler.
    """
    engine = serving.engine
    schedule = engine.schedule
    submit = serving.submit
    end = engine.now + duration_us
    think_rate = 1.0 / THINK_US_MEAN

    def arrival_for(session: TenantSession) -> Callable[[], None]:
        """The tenant's arrival callback, made once and rescheduled.

        Its draws are the tenant substream's ``randint(0, n_pages - 1)``,
        ``bernoulli(WRITE_FRACTION)`` and ``exponential(THINK_US_MEAN)``,
        made on the substream's generator (see
        :attr:`~repro.sim.rng.RandomSource.generator`).
        """
        generator = serving.rng.substream(f"tenant:{session.tenant}").generator
        page_below = generator._randbelow
        uniform = generator.random
        think = generator.expovariate
        segment = session.segment
        n_pages = segment.n_pages
        page_size = segment.page_size

        def arrive() -> None:
            if engine.now >= end:
                return
            vaddr = page_below(n_pages) * page_size
            shed = submit(session, vaddr, uniform() < WRITE_FRACTION)
            if shed is not None:
                # obey the typed Retry-After: same tenant, new arrival at
                # exactly the shed horizon (clamped to stay schedulable)
                schedule(max(shed.retry_after_us, 1.0), arrive)
                return
            schedule(think(think_rate), arrive)

        return arrive

    def pump() -> None:
        serving.flush()
        if engine.now < end:
            schedule(FLUSH_INTERVAL_US, pump)

    for i, tenant in enumerate(sorted(serving.sessions)):
        # stagger first arrivals so 64 tenants do not trample one event slot
        schedule(float(i), arrival_for(serving.sessions[tenant]))
    schedule(FLUSH_INTERVAL_US, pump)
    engine.run(until=end)
    serving.flush()
    return serving.scheduler.items_serviced


def admit_fleet(
    serving: ServingSystem,
    n_tenants: int,
    working_set_pages: int = 16,
    quota_frames: int | None = None,
) -> list[TenantSession]:
    """Admit ``n_tenants`` uniform tenants (round-robin home nodes)."""
    sessions = []
    for i in range(n_tenants):
        tenant = f"tenant-{i}"
        quota = (
            TenantQuota(tenant, frames=quota_frames)
            if quota_frames is not None
            else None
        )
        result = serving.admit(
            AdmitTenantRequest(
                tenant,
                working_set_pages=working_set_pages,
                quota=quota,
            )
        )
        if result.admitted:
            sessions.append(serving.sessions[tenant])
    return sessions


# ---------------------------------------------------------------------------
# named serving schedules (the determinism gate and CI drive these)
# ---------------------------------------------------------------------------


def serve_schedule(
    n_tenants: int,
    duration_us: float,
    quota_frames: int | None,
    seed: int,
    rate_per_s: float = 20_000.0,
):
    """A ``fn(system, checker) -> refs`` workload over a booted system
    (:data:`SERVING_SCHEDULES` and chaos's serving workloads are these)."""

    def workload(system, checker) -> int:
        serving = ServingSystem(system, seed=seed, rate_per_s=rate_per_s)
        admit_fleet(
            serving,
            n_tenants,
            working_set_pages=8,
            quota_frames=quota_frames,
        )
        serviced = run_load(serving, duration_us)
        if checker is not None:
            checker.check_all()
        return serviced

    workload.__name__ = f"serve_{n_tenants}t"
    return workload


#: name -> ``fn(system, checker) -> refs``, resolvable by
#: ``python -m repro verify determinism --workload <name>``
SERVING_SCHEDULES = {
    "serve-smoke": serve_schedule(
        n_tenants=4, duration_us=20_000.0, quota_frames=16, seed=42
    ),
    "serve-64x2": serve_schedule(
        n_tenants=64, duration_us=40_000.0, quota_frames=8, seed=42
    ),
}
