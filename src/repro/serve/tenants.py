"""Tenant sessions and the serving system that hosts them.

A :class:`TenantSession` is one registered workload: its own
:class:`~repro.managers.base.GenericSegmentManager` (paging policy stays
at application level, per the paper), a working-set segment, a home NUMA
node, and an optional :class:`~repro.core.api.TenantQuota` enforced
through the SPCM market/arbiter.

:class:`ServingSystem` owns the discrete-event engine, the admission
controller, and the batch scheduler, and exposes the typed v2.1
``AdmitTenant`` entry point.  It is deterministic end to end: tenants are
admitted in call order, home nodes default to a round-robin over the
shards, and all randomness lives in the load generator's seeded
substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.api import AdmitTenantRequest, AdmitTenantResult, TenantQuota
from repro.managers.base import GenericSegmentManager
from repro.serve.admission import AdmissionController
from repro.serve.scheduler import BatchScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RandomSource
from repro.sim.stats import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.segment import Segment

#: a tenant manager's SPCM refill and reclaim batch, in frames
TENANT_BATCH = 8


@dataclass
class TenantSession:
    """One tenant: workload + manager + home node (+ quota)."""

    tenant: str
    manager: GenericSegmentManager
    segment: "Segment"
    home_node: int
    quota: TenantQuota | None = None
    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    serviced: int = 0
    service_errors: int = 0
    #: the most recent typed shed this tenant received (None if never shed)
    last_retry_after: object | None = None
    latency: Tally = field(default_factory=lambda: Tally("fault_latency_us"))

    @property
    def account(self) -> str:
        return self.manager.account

    def stats_dict(self) -> dict[str, float]:
        """Flat per-tenant values for the telemetry provider."""
        return {
            "submitted": float(self.submitted),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "serviced": float(self.serviced),
            "p99_us": self.latency.percentile(99),
            # warm restarts the tenant's manager rode through (the
            # session itself survives; only failovers shed tenants)
            "restarts": float(getattr(self.manager, "restarts", 0)),
        }


class ServingSystem:
    """Multi-tenant serving over one booted system."""

    def __init__(
        self,
        system,
        seed: int = 0,
        rate_per_s: float = 20_000.0,
        burst: float = 8.0,
        max_backlog: int = 256,
        max_tenants: int | None = None,
    ) -> None:
        self.system = system
        self.kernel = system.kernel
        self.spcm = system.spcm
        self.engine = Engine()
        self.rng = RandomSource(seed)
        self.scheduler = BatchScheduler(self.kernel)
        self.admission = AdmissionController(
            rate_per_s=rate_per_s,
            burst=burst,
            max_backlog=max_backlog,
            backlog_fn=lambda: self.scheduler.backlog,
            max_tenants=max_tenants,
        )
        self.sessions: dict[str, TenantSession] = {}
        self._next_node = 0
        # hooks called with (tenant, latency_us) per serviced request ---
        # the SLO watchdog and telemetry subscribe here
        self._fault_hooks: list = []
        # working-set segment id -> tenant: the kernel's fault listener
        # bills each outermost fault service on one of them to its tenant
        self._tenant_of: dict[int, str] = {}
        self.kernel.on_fault_serviced(self._bill_tenant)

    # -- admission (the typed v2.1 entry point) -----------------------------

    def admit(self, request: AdmitTenantRequest) -> AdmitTenantResult:
        """``AdmitTenant``: register a workload + manager + home node.

        A capacity shed returns ``admitted=False`` with the typed
        :class:`~repro.core.api.RetryAfter`; a successful admission
        creates the tenant's manager (empty frame stock --- frames come
        from the SPCM under quota at fault time), its working-set
        segment, and installs the quota with the market/arbiter.
        """
        if request.tenant in self.sessions:
            raise ValueError(f"tenant {request.tenant!r} already admitted")
        shed = self.admission.admit_tenant(request.tenant)
        if shed is not None:
            return AdmitTenantResult(
                admitted=False, tenant=request.tenant, retry_after=shed
            )
        home_node = request.home_node
        if home_node is None:
            home_node = self._next_node % self.spcm.n_shards
            self._next_node += 1
        manager = GenericSegmentManager(
            self.kernel,
            self.spcm,
            request.tenant,
            initial_frames=0,
            refill_batch=TENANT_BATCH,
            reclaim_batch=TENANT_BATCH,
            home_node=home_node,
        )
        segment = self.kernel.create_segment(
            request.working_set_pages,
            manager=manager,
            name=f"{request.tenant}.ws",
        )
        quota = request.quota
        if quota is not None:
            if quota.account != manager.account:
                quota = TenantQuota(
                    manager.account, quota.frames, quota.dram_mb
                )
            self.spcm.set_tenant_quota(quota)
        session = TenantSession(
            tenant=request.tenant,
            manager=manager,
            segment=segment,
            home_node=home_node,
            quota=quota,
        )
        self.sessions[request.tenant] = session
        self._tenant_of[segment.seg_id] = request.tenant
        return AdmitTenantResult(
            admitted=True,
            tenant=request.tenant,
            account=manager.account,
            home_node=home_node,
        )

    # -- the serving data path ----------------------------------------------

    def _bill_tenant(self, space, vpn, write, latency_us: float, pfn) -> None:
        """Book one outermost fault service on a working set (raised or
        not) in ``KernelStats.tenant_faults`` / ``tenant_fault_us``."""
        tenant = self._tenant_of.get(space.seg_id)
        if tenant is not None:
            self.kernel.stats.note_tenant_fault(tenant, latency_us)

    def submit(self, session: TenantSession, vaddr: int, write: bool) -> object | None:
        """Admit-or-shed one reference at the current engine time.

        Returns ``None`` when the request was queued, else the typed
        :class:`~repro.core.api.RetryAfter` shed.
        """
        now = self.engine.now
        session.submitted += 1
        shed = self.admission.try_admit(session.tenant, now)
        if shed is not None:
            session.shed += 1
            session.last_retry_after = shed
            return shed
        session.admitted += 1
        self.scheduler.submit(session, vaddr, write, now)
        return None

    def flush(self) -> int:
        """Drain the scheduler at the current engine time."""
        return self.scheduler.flush(self.engine.now, self._serviced)

    def _serviced(
        self, session: TenantSession, latency_us: float, ok: bool
    ) -> None:
        session.serviced += 1
        if not ok:
            session.service_errors += 1
        session.latency.record(latency_us)
        for hook in self._fault_hooks:
            try:
                hook(session.tenant, latency_us)
            except Exception:
                self.kernel.stats.listener_errors += 1

    def on_tenant_fault(self, hook) -> None:
        """Call ``hook(tenant, latency_us)`` per serviced request.

        Like the kernel's fault listeners, hooks are observability, never
        control flow: an exception a hook raises is swallowed (counted in
        ``KernelStats.listener_errors``), the remaining hooks still run,
        and the rest of the batch is still serviced.
        """
        self._fault_hooks.append(hook)

    # -- observability -------------------------------------------------------

    def digest_rows(self) -> list:
        """Canonical per-tenant accounting rows (deterministic order)."""
        rows: list = [
            ("admitted", self.admission.admitted),
            ("shed", self.admission.shed),
            ("batches", self.scheduler.batches_flushed),
            ("serviced", self.scheduler.items_serviced),
        ]
        for tenant in sorted(self.sessions):
            s = self.sessions[tenant]
            rows.append(
                (
                    "tenant",
                    tenant,
                    s.home_node,
                    s.submitted,
                    s.admitted,
                    s.shed,
                    s.serviced,
                    s.service_errors,
                    round(s.latency.total, 6),
                )
            )
        return rows
