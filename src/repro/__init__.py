"""repro: a reproduction of Harty & Cheriton, "Application-Controlled
Physical Memory using External Page-Cache Management" (ASPLOS 1992).

The library models the V++ external page-cache management system end to
end: the kernel page-cache operations (:mod:`repro.core`), process-level
segment managers (:mod:`repro.managers`), the System Page Cache Manager
and its memory market (:mod:`repro.spcm`), a conventional ULTRIX-style
baseline (:mod:`repro.baseline`), the simulated hardware they run on
(:mod:`repro.hw`), a discrete-event engine (:mod:`repro.sim`), the
database transaction-processing study (:mod:`repro.dbms`), the Unix
application workloads (:mod:`repro.workloads`), and the experiment
drivers that regenerate every table and figure in the paper's evaluation
(:mod:`repro.analysis`).

Quick start::

    from repro import build_system

    sys = build_system(memory_mb=32)
    seg = sys.kernel.create_segment(16, name="data", manager=sys.default_manager)
    # ... touch pages, watch the manager fill them
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.injector import NULL_INJECTOR
from repro.core.kernel import Kernel
from repro.core.uio import UIO, FileServer
from repro.hw.costs import DECSTATION_5000_200, CostMeter, MachineCosts
from repro.hw.disk import Disk
from repro.hw.phys_mem import PhysicalMemory
from repro.obs import MetricsRegistry, NULL_TRACER, NullTracer, Tracer
from repro.obs.trace import get_global_tracer

__version__ = "1.0.0"


@dataclass
class System:
    """A booted V++ system: kernel, devices, servers, default manager."""

    memory: PhysicalMemory
    kernel: Kernel
    disk: Disk
    file_server: FileServer
    uio: UIO
    spcm: "object"
    default_manager: "object"
    tracer: "Tracer | NullTracer" = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: the installed fault injector (the zero-overhead null one by default)
    injector: "object" = NULL_INJECTOR
    #: the installed continuous-telemetry collector, if any (see
    #: :func:`repro.obs.telemetry.install_telemetry`)
    telemetry: "object | None" = None
    #: the installed warm-restart coordinator, if any (see
    #: :func:`repro.recovery.install_recovery`)
    recovery: "object | None" = None

    @property
    def meter(self) -> CostMeter:
        return self.kernel.meter

    def metrics_snapshot(self) -> dict:
        """One flat dict of every bound metric (see `repro.obs`)."""
        return self.metrics.snapshot()


def build_system(
    memory_mb: int = 32,
    costs: MachineCosts = DECSTATION_5000_200,
    page_size: int | None = None,
    manager_frames: int = 1024,
    tracer: "Tracer | NullTracer | None" = None,
    metrics: MetricsRegistry | None = None,
    injector: "object | None" = None,
    n_nodes: int | None = None,
) -> System:
    """Boot a complete V++ system the way the paper describes:

    kernel with all frames in the well-known boot segment, a System Page
    Cache Manager allocating from it, and the default segment manager (the
    extended UCDS) running as a separate server process.

    ``tracer`` defaults to the process-global tracer (the ``--trace``
    benchmark harness installs one; otherwise tracing is off).  The
    returned system's :class:`~repro.obs.MetricsRegistry` is pre-bound to
    every component's existing accounting (cost meter, kernel stats, TLB,
    disk, SPCM, default manager).

    ``n_nodes`` splits physical memory over that many NUMA nodes (DASH
    style, paper S1): the kernel becomes placement-aware and the SPCM
    runs one shard per node.  ``None`` boots the flat UMA machine.
    """
    from repro.managers.default_manager import DefaultSegmentManager
    from repro.spcm.spcm import SystemPageCacheManager

    if tracer is None:
        tracer = get_global_tracer()
    psize = page_size if page_size is not None else costs.page_size
    memory = PhysicalMemory(memory_mb * 1024 * 1024, page_size=psize)
    topology = None
    if n_nodes is not None:
        from repro.hw.numa import NumaTopology

        topology = NumaTopology.for_memory(
            memory,
            n_nodes,
            local_access_us=costs.numa_local_access_us,
            remote_access_us=costs.numa_remote_access_us,
        )
    kernel = Kernel(memory, costs=costs, tracer=tracer, topology=topology)
    disk = Disk(costs, block_size=psize)
    disk.tracer = tracer
    file_server = FileServer(kernel, disk)
    uio = UIO(kernel, file_server)
    spcm = SystemPageCacheManager(kernel)
    default_manager = DefaultSegmentManager(
        kernel, spcm, file_server, initial_frames=manager_frames
    )
    # the default manager is the paper's safety net: faults of a failed
    # application manager are failed over here (chaos degradation paths)
    kernel.supervisor.fallback = default_manager
    registry = metrics if metrics is not None else MetricsRegistry()
    registry.bind("kernel.cost_us", kernel.meter.snapshot)
    registry.bind("kernel", kernel.stats.as_dict)
    registry.bind("tlb", kernel.tlb.stats.as_dict)
    registry.bind("disk", disk.stats.as_dict)
    registry.bind("spcm", spcm.stats_dict)
    registry.bind("default_manager", default_manager.stats_dict)
    registry.bind("file_server", file_server.stats_dict)
    system = System(
        memory=memory,
        kernel=kernel,
        disk=disk,
        file_server=file_server,
        uio=uio,
        spcm=spcm,
        default_manager=default_manager,
        tracer=tracer,
        metrics=registry,
    )
    if injector is not None:
        injector.install(system)
    return system
