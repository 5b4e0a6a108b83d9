"""Continuous telemetry: sim-time sampled gauges over a ring buffer.

A :class:`TelemetryCollector` turns the repo's end-of-run accounting into
a *time series*: registered gauges (callables returning a number) and
providers (callables returning a flat mapping) are sampled whenever the
simulated clock crosses a configurable interval boundary, and each
:class:`TelemetrySample` lands in a bounded ring buffer.

Sampling is driven two ways, matching the two execution styles in the
reproduction:

* **fault-paced** --- :meth:`TelemetryCollector.install` joins the
  kernel's one fault-listener list
  (:meth:`~repro.core.kernel.Kernel.on_fault_serviced`), so every
  serviced fault both feeds the latency EWMA and gives the collector a
  chance to emit any sample whose interval boundary the fault crossed;
* **engine-paced** --- :meth:`attach_engine` registers a tick hook on the
  DES :class:`~repro.sim.engine.Engine`, so event-driven workloads (the
  DBMS study) are sampled as virtual time advances.

Either way the timestamps are **simulated** microseconds and samples are
stamped at the interval boundary they represent, so two identical runs
produce byte-identical series.  :func:`repro.obs.export.write_jsonl`
exports the buffer (plus any SLO alerts) alongside the trace schema;
``python -m repro top --replay`` renders the file.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: Default sampling interval: one sample per simulated millisecond.
DEFAULT_INTERVAL_US = 1000.0

#: Default ring capacity; at the default interval this is ~67 simulated
#: seconds of history, far beyond any experiment here.
DEFAULT_CAPACITY = 65536

#: Default EWMA smoothing factor for the fault-service latency gauge.
DEFAULT_EWMA_ALPHA = 0.2


@dataclass
class TelemetrySample:
    """One interval-aligned snapshot of every registered gauge."""

    t_us: float
    values: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-serializable rendering (JSONL ``sample`` record)."""
        return {"type": "sample", "t_us": self.t_us, "values": self.values}

    @classmethod
    def from_dict(cls, d: dict) -> "TelemetrySample":
        """Rebuild a sample from :meth:`to_dict` output."""
        return cls(
            t_us=float(d["t_us"]),
            values={k: float(v) for k, v in d["values"].items()},
        )


class TelemetryCollector:
    """Samples registered gauges on a simulated-time interval.

    ``clock`` is a callable returning simulated microseconds (normally
    the kernel cost meter's ``total_us``); until one is attached the
    collector is dormant.  ``interval_us`` is the sampling period in
    simulated time; ``capacity`` bounds the ring buffer (oldest samples
    drop first, counted in :attr:`dropped_samples`).
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        interval_us: float = DEFAULT_INTERVAL_US,
        capacity: int = DEFAULT_CAPACITY,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
    ) -> None:
        if interval_us <= 0:
            raise ValueError(f"interval must be positive: {interval_us}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        self.clock = clock
        self.interval_us = interval_us
        self.capacity = capacity
        self.ewma_alpha = ewma_alpha
        self._ring: deque[TelemetrySample] = deque(maxlen=capacity)
        self.dropped_samples = 0
        self._gauges: dict[str, Callable[[], float]] = {}
        self._providers: dict[str, Callable[[], Mapping[str, float]]] = {}
        self._next_due: float | None = None
        # fault-service latency accounting (fed by observe_fault)
        self.fault_latency_ewma_us = 0.0
        self.faults_observed = 0

    # -- registration ------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register one named gauge, read at every sample."""
        if name in self._gauges:
            raise ValueError(f"telemetry gauge {name!r} already registered")
        self._gauges[name] = fn

    def bind(
        self, prefix: str, provider: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register a provider sampled as ``prefix.leaf`` gauges."""
        if prefix in self._providers:
            raise ValueError(
                f"telemetry provider {prefix!r} already registered"
            )
        self._providers[prefix] = provider

    # -- fault latency -----------------------------------------------------

    def observe_fault(self, latency_us: float) -> None:
        """Feed one fault-service latency into the EWMA gauge."""
        self.faults_observed += 1
        if self.faults_observed == 1:
            self.fault_latency_ewma_us = latency_us
        else:
            a = self.ewma_alpha
            self.fault_latency_ewma_us = (
                a * latency_us + (1.0 - a) * self.fault_latency_ewma_us
            )

    # -- sampling ----------------------------------------------------------

    def now_us(self) -> float:
        """Current simulated time (0.0 until a clock is attached)."""
        return self.clock() if self.clock is not None else 0.0

    def poll(self) -> TelemetrySample | None:
        """Emit one sample if an interval boundary has been crossed.

        The sample is stamped at the **latest crossed boundary** (a
        multiple of ``interval_us``), so cadence survives bursty polling:
        a long quiet stretch yields one sample at the last boundary, not
        a backlog of identical ones.  Returns the new sample or ``None``.
        """
        now = self.now_us()
        if self._next_due is None:
            # first poll arms the sampler at the next boundary after now
            self._next_due = (now // self.interval_us + 1) * self.interval_us
            return None
        if now < self._next_due:
            return None
        boundary = (now // self.interval_us) * self.interval_us
        sample = self._take(boundary)
        self._next_due = boundary + self.interval_us
        return sample

    def sample_now(self) -> TelemetrySample:
        """Force one sample at the current simulated time."""
        return self._take(self.now_us())

    def _take(self, t_us: float) -> TelemetrySample:
        values: dict[str, float] = {}
        for name in sorted(self._gauges):
            values[name] = float(self._gauges[name]())
        for prefix in sorted(self._providers):
            for leaf, value in self._providers[prefix]().items():
                values[f"{prefix}.{leaf}"] = float(value)
        sample = TelemetrySample(t_us=t_us, values=values)
        if len(self._ring) == self.capacity:
            self.dropped_samples += 1
        self._ring.append(sample)
        return sample

    def samples(self) -> list[TelemetrySample]:
        """The buffered samples, oldest first."""
        return list(self._ring)

    def reset(self) -> None:
        """Drop the buffer and re-arm the sampler."""
        self._ring.clear()
        self.dropped_samples = 0
        self._next_due = None
        self.fault_latency_ewma_us = 0.0
        self.faults_observed = 0

    # -- wiring ------------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Sample as the DES engine's virtual clock advances."""
        engine.add_tick_hook(self.poll)

    def install(self, system) -> "TelemetryCollector":
        """Hook a booted system: standard probes plus fault pacing.

        Registers the per-node SPCM frame gauges, per-manager resident
        set and dram balance, TLB hit rate, disk counters, and the
        fault-latency EWMA; adopts the kernel meter as the clock and
        subscribes to the kernel's fault-serviced hook so sampling is
        paced by fault completions.  Returns ``self`` for chaining.
        """
        kernel = system.kernel
        spcm = system.spcm
        if self.clock is None:
            self.clock = lambda: kernel.meter.total_us
        self.gauge("kernel.faults", lambda: kernel.stats.faults)
        self.gauge("kernel.references", lambda: kernel.stats.references)
        self.gauge("kernel.cost_total_us", lambda: kernel.meter.total_us)
        self.gauge("tlb.hit_rate", lambda: kernel.tlb.stats.hit_rate)
        cache = getattr(system, "cache", None)
        if cache is not None:
            self.gauge("cache.hit_rate", lambda: cache.stats.hit_rate)
        self.gauge("disk.reads", lambda: system.disk.stats.reads)
        self.gauge("disk.writes", lambda: system.disk.stats.writes)
        self.gauge(
            "faults.latency_ewma_us", lambda: self.fault_latency_ewma_us
        )
        self.gauge("faults.observed", lambda: self.faults_observed)
        for shard in spcm.shards:
            node = shard.node
            self.gauge(
                f"spcm.node{node}.free_frames",
                (lambda n=node: spcm.free_frames_on(n)),
            )
            self.gauge(
                f"spcm.node{node}.granted_frames",
                (lambda s=shard: s.granted_frames),
            )
            self.gauge(
                f"spcm.node{node}.loaned_grants",
                (lambda s=shard: s.loaned_grants),
            )
            self.gauge(
                f"spcm.node{node}.retired_frames",
                (lambda s=shard: s.retired_frames),
            )
        self._bind_managers(spcm)
        recovery = getattr(system, "recovery", None)
        if recovery is not None:
            self.bind("recovery", recovery.stats_dict)

        def paced(space, vpn, write, latency_us: float, pfn) -> None:
            self.observe_fault(latency_us)
            self.poll()

        kernel.on_fault_serviced(paced)
        return self

    def _bind_managers(self, spcm) -> None:
        """Per-manager gauges for every manager known to the SPCM.

        Managers registered *after* install are picked up lazily: the
        manager set is re-scanned on each call, and :meth:`_take` reads
        through a provider so late registrations appear in later samples.
        """

        def manager_values() -> dict[str, float]:
            values: dict[str, float] = {}
            for name, manager in sorted(spcm.managers.items()):
                resident = getattr(manager, "_resident", None)
                if resident is not None:
                    values[f"{name}.resident_pages"] = float(len(resident))
                free = getattr(manager, "free_frames", None)
                if free is not None:
                    values[f"{name}.free_frames"] = float(free)
                values[f"{name}.dram_balance"] = spcm.dram_balance(
                    spcm.account_of(manager)
                )
            return values

        self.bind("manager", manager_values)

    def bind_serving(self, serving) -> None:
        """Per-tenant and admission gauges for a serving layer.

        Registers scalar serving gauges (admitted, shed, backlog,
        batches) plus a ``tenant`` provider sampled per session:
        admitted, shed, serviced, p99 fault latency, and held frames ---
        the continuous view of the paper's multi-client arbitration.
        Samples are additionally paced by the serving engine's clock.
        """
        admission = serving.admission
        scheduler = serving.scheduler
        self.gauge("serve.admitted", lambda: admission.admitted)
        self.gauge("serve.shed", lambda: admission.shed)
        self.gauge("serve.backlog", lambda: scheduler.backlog)
        self.gauge("serve.batches", lambda: scheduler.batches_flushed)
        self.gauge("serve.tenants", lambda: len(serving.sessions))
        spcm = serving.spcm

        def tenant_values() -> dict[str, float]:
            values: dict[str, float] = {}
            for tenant in sorted(serving.sessions):
                session = serving.sessions[tenant]
                for leaf, value in session.stats_dict().items():
                    values[f"{tenant}.{leaf}"] = value
                values[f"{tenant}.held_frames"] = float(
                    spcm.held_by(session.account)
                )
            return values

        self.bind("tenant", tenant_values)
        serving.engine.add_tick_hook(self.poll)


def install_telemetry(
    system,
    interval_us: float = DEFAULT_INTERVAL_US,
    capacity: int = DEFAULT_CAPACITY,
) -> TelemetryCollector:
    """Attach a standard collector to a booted system.

    Convenience wrapper the CLIs and harnesses use; the collector is also
    stored on ``system.telemetry``.
    """
    collector = TelemetryCollector(
        interval_us=interval_us, capacity=capacity
    )
    collector.install(system)
    system.telemetry = collector
    return collector
