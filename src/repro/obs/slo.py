"""SLO watchdogs: structured alerts when service objectives slip.

A :class:`SLOWatchdog` observes a booted system continuously --- during
healthy runs *and* chaos schedules --- and fires a structured
:class:`Alert` the moment an objective is violated:

* **fault p99 latency** --- the p99 of outermost fault-service latencies
  (fed by :meth:`~repro.core.kernel.Kernel.on_fault_serviced`) exceeds
  the policy threshold;
* **failover time**, **warm restart time** and **cold fallback** --- one
  manager failover's or warm restart's metered duration exceeds its
  budget, or a restart falls back cold (fed by
  :meth:`~repro.core.supervisor.ManagerSupervisor.on_degradation`);
* **frame conservation** --- the invariant engine's ``frames`` check
  reports violations (a leaked, doubly owned or mis-filed frame);
* **market balance** --- its ``market`` check reports violations (a
  shard market or account stops conserving drams, or the arbiter's
  transfers stop summing to zero).

The two swept objectives read :mod:`repro.invariants`, so they can never
disagree with the chaos sweep; an alert's value is the violation count
against a threshold of 0.  Alerts are edge-triggered (one per objective
per excursion; re-armed when the objective recovers) so a long violation
doesn't flood the log.  The watchdog is callable with the same shape as
:class:`~repro.invariants.InvariantChecker`, so the harness runs it
after every injected event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.invariants import check_frames, check_market
from repro.sim.stats import Tally

#: swept objective name -> the invariant check that judges it
SWEPT_OBJECTIVES = (
    ("frame_conservation", check_frames),
    ("market_balance", check_market),
)


@dataclass(frozen=True)
class SLOPolicy:
    """Thresholds the watchdog enforces.

    The defaults are generous for healthy runs on the DECstation cost
    model: a cached-file default-manager fault is ~5 ms end to end, so
    20 ms p99 only fires when timeouts/retries pile up; failovers charge
    the 5 ms manager timeout plus seizure work, so 50 ms means several
    stacked degradations.  The swept objectives have no threshold: they
    fire on any invariant violation.
    """

    fault_p99_us: float = 20_000.0
    #: observations needed before the p99 objective is judged
    min_fault_samples: int = 20
    failover_us: float = 50_000.0
    #: per-tenant p99 latency objective for the serving layer (None
    #: disables; only judged via :meth:`SLOWatchdog.watch_serving`)
    tenant_p99_us: float | None = None
    #: per-tenant observations needed before that objective is judged
    min_tenant_samples: int = 10
    #: one warm restart's metered duration budget (restore + replay);
    #: judged only when a recovery coordinator is installed
    warm_restart_us: float = 10_000.0


#: the default policy (module-level so callers can share one instance)
DEFAULT_SLO = SLOPolicy()


@dataclass
class Alert:
    """One structured SLO violation."""

    name: str
    severity: str  # "warning" | "critical"
    t_us: float
    value: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> dict:
        """A JSON-serializable rendering (JSONL ``alert`` record)."""
        d: dict = {
            "type": "alert",
            "name": self.name,
            "severity": self.severity,
            "t_us": self.t_us,
            "value": self.value,
            "threshold": self.threshold,
        }
        if self.detail:
            d["detail"] = self.detail
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Alert":
        """Rebuild an alert from :meth:`to_dict` output."""
        return cls(
            name=str(d["name"]),
            severity=str(d["severity"]),
            t_us=float(d["t_us"]),
            value=float(d["value"]),
            threshold=float(d["threshold"]),
            detail=str(d.get("detail", "")),
        )


class SLOWatchdog:
    """Watches one booted system against an :class:`SLOPolicy`."""

    def __init__(self, system, policy: SLOPolicy | None = None) -> None:
        self.system = system
        self.policy = policy if policy is not None else DEFAULT_SLO
        self.alerts: list[Alert] = []
        self.fault_latency = Tally("fault_service_us")
        #: per-tenant latency tallies (fed by :meth:`watch_serving`)
        self.tenant_latency: dict[str, Tally] = {}
        self.checks_run = 0
        #: objectives currently in violation (edge-trigger state)
        self._firing: set[str] = set()
        self._installed = False

    # -- wiring ------------------------------------------------------------

    def install(self) -> "SLOWatchdog":
        """Subscribe to the kernel's fault and degradation listeners."""
        if self._installed:
            return self
        self._installed = True
        kernel = self.system.kernel
        kernel.on_fault_serviced(self._on_fault)
        kernel.supervisor.on_degradation(self._on_degradation)
        return self

    def __call__(self, _event=None) -> None:
        """Observer form: the chaos injector calls this after each event."""
        self.check()

    # -- continuous observations -------------------------------------------

    def _now(self) -> float:
        return self.system.kernel.meter.total_us

    def _on_fault(self, space, vpn, write, latency_us: float, pfn) -> None:
        self.fault_latency.record(latency_us)
        policy = self.policy
        if self.fault_latency.count < policy.min_fault_samples:
            return
        p99 = self.fault_latency.percentile(99)
        self._judge(
            "fault_p99_latency",
            p99,
            policy.fault_p99_us,
            severity="warning",
            detail=(
                f"p99 of {self.fault_latency.count} fault services is "
                f"{p99:.0f} us"
            ),
        )

    def watch_serving(self, serving) -> "SLOWatchdog":
        """Judge the per-tenant p99 objective over a serving layer.

        Subscribes to the serving system's per-request hook; each
        tenant's end-to-end latency (queue wait + metered service) feeds
        its own tally, judged edge-triggered per tenant once
        ``min_tenant_samples`` observations have arrived.  No-op when
        the policy leaves ``tenant_p99_us`` unset.
        """
        if self.policy.tenant_p99_us is None:
            return self
        serving.on_tenant_fault(self._on_tenant_fault)
        return self

    def _on_tenant_fault(self, tenant: str, latency_us: float) -> None:
        tally = self.tenant_latency.get(tenant)
        if tally is None:
            tally = self.tenant_latency[tenant] = Tally(
                f"tenant_latency_us:{tenant}"
            )
        tally.record(latency_us)
        policy = self.policy
        if tally.count < policy.min_tenant_samples:
            return
        p99 = tally.percentile(99)
        self._judge(
            f"tenant_p99_latency:{tenant}",
            p99,
            policy.tenant_p99_us,
            severity="warning",
            detail=(
                f"p99 of {tally.count} serviced requests for {tenant} "
                f"is {p99:.0f} us"
            ),
        )

    def _on_degradation(
        self, event: str, manager: str, duration_us: float
    ) -> None:
        if event == "failover":
            # each failover is its own excursion: re-arm before judging
            self._firing.discard("failover_time")
            self._judge(
                "failover_time",
                duration_us,
                self.policy.failover_us,
                severity="warning",
                detail=f"manager failover took {duration_us:.0f} us",
            )
            return
        if event == "warm_restart":
            # like failovers, each restart is its own excursion
            self._firing.discard("warm_restart_time")
            self._judge(
                "warm_restart_time",
                duration_us,
                self.policy.warm_restart_us,
                severity="warning",
                detail=(
                    f"warm restart of {manager} took {duration_us:.0f} us"
                ),
            )
            return
        # a cold fallback is an objective violation in itself: recovery
        # promised to absorb the crash and could not
        self._firing.discard("cold_fallback")
        self._fire(
            "cold_fallback",
            1.0,
            0.0,
            severity="critical",
            detail=f"manager {manager} fell back cold",
        )

    # -- swept objectives ---------------------------------------------------

    def check(self) -> list[Alert]:
        """Sweep the invariant objectives; returns alerts this sweep fired."""
        self.checks_run += 1
        before = len(self.alerts)
        for name, check in SWEPT_OBJECTIVES:
            found = check(self.system.kernel)
            self._judge(
                name,
                float(len(found)),
                0.0,
                severity="critical",
                detail="; ".join(found[:3]),
            )
        return self.alerts[before:]

    # -- alert plumbing ------------------------------------------------------

    def _judge(
        self,
        name: str,
        value: float,
        threshold: float,
        severity: str,
        detail: str,
    ) -> None:
        """Edge-triggered compare: fire on crossing, re-arm on recovery."""
        if not value > threshold:
            self._firing.discard(name)
            return
        self._fire(name, value, threshold, severity, detail)

    def _fire(
        self,
        name: str,
        value: float,
        threshold: float,
        severity: str,
        detail: str,
    ) -> None:
        if name in self._firing:
            return
        self._firing.add(name)
        self.alerts.append(
            Alert(
                name=name,
                severity=severity,
                t_us=self._now(),
                value=value,
                threshold=threshold,
                detail=detail,
            )
        )

    # -- reporting -----------------------------------------------------------

    @property
    def n_alerts(self) -> int:
        """Total alerts fired so far."""
        return len(self.alerts)

    def summary(self) -> dict[str, int]:
        """Alert counts by objective name."""
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.name] = out.get(alert.name, 0) + 1
        return out
