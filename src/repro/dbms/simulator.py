"""The four Table-4 configurations and their driver.

Table 4 (paper): transaction response time in milliseconds,

    ===================  ========  ==========
    Configuration        Average   Worst-case
    ===================  ========  ==========
    No index                  866        3770
    Index in memory            43         410
    Index with paging         575        3930
    Index regeneration         55         680
    ===================  ========  ==========

The *shape* falls out of the mechanisms: joins escalate to relation S
locks that conflict with every DebitCredit's IX on accounts, so whatever
extends a join's lock hold time (a nested-loop scan, or 256 index page
faults at SGI fault-service time) backs up the whole mix, while
regeneration keeps the hold time short by rebuilding the index with
in-memory compute.  The compute constants below are fitted (EXPERIMENTS.md
records fitted vs. paper values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbms.buffer import SegmentBackedIndex
from repro.dbms.locking import LockManager
from repro.dbms.relations import Database, bank_database
from repro.dbms.transactions import IndexPolicy, TPContext
from repro.dbms.workload import arrival_process
from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.sim.rng import RandomSource


@dataclass(frozen=True)
class TPConfig:
    """Parameters of one transaction-processing run."""

    policy: IndexPolicy
    duration_s: float = 120.0
    warmup_s: float = 10.0
    arrival_tps: float = 40.0          # paper: 40 TPS
    join_fraction: float = 0.05        # paper: 95% DebitCredit, 5% joins
    n_cpus: int = 6                    # paper: 6 CPUs of an SGI 4D/380
    db_mb: int = 120                   # paper: 120 MB database
    seed: int = 1992
    # -- fitted service demands (EXPERIMENTS.md) -----------------------------
    dc_compute_us: float = 18_000.0        # one DebitCredit
    join_index_compute_us: float = 110_000.0   # join via in-memory index
    join_scan_compute_us: float = 342_000.0    # nested-loop join, no index
    index_regen_compute_us: float = 380_000.0  # rebuild the 1 MB index
    join_summary_pages: int = 3           # summary pages a join updates
    # -- the paper's stated parameters ----------------------------------------
    index_pages: int = 256                # "a one megabyte index" at 4 KB
    #: fitted fault-service delay ("a delay that is equivalent to the time
    #: required to handle a page fault on the SGI 4/380", S3.3)
    page_fault_us: float = 11_000.0
    eviction_period_txns: int = 500       # "paged in every 500 transactions"
    # -- chaos (robustness replication under mild disk faults) ---------------
    #: probability one index page-in hits a transient disk error and must
    #: be retried (each retry re-pays the fault-service delay); 0 disables
    #: the injection entirely (no RNG draws, bit-identical runs)
    disk_error_rate: float = 0.0


@dataclass
class TPResult:
    """Measured responses for one configuration."""

    config: TPConfig
    avg_response_ms: float
    worst_response_ms: float
    avg_dc_ms: float
    worst_dc_ms: float
    avg_join_ms: float
    worst_join_ms: float
    n_measured: int
    n_completed: int
    index_faults: int = 0
    regenerations: int = 0
    lock_waits: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return {
            IndexPolicy.NONE: "No index",
            IndexPolicy.IN_MEMORY: "Index in memory",
            IndexPolicy.PAGING: "Index with paging",
            IndexPolicy.REGENERATE: "Index regeneration",
        }[self.config.policy]


def run_tp_experiment(
    config: TPConfig, database: Database | None = None
) -> TPResult:
    """Run one configuration to completion and collect response times."""
    engine = Engine()
    cpu = Resource(engine, config.n_cpus, name="cpus")
    locks = LockManager(engine)
    db = database if database is not None else bank_database(config.db_mb)
    _declare_hierarchy(locks, db)
    index = (
        SegmentBackedIndex(config.index_pages)
        if config.policy is not IndexPolicy.NONE
        else None
    )
    ctx = TPContext(
        engine=engine,
        cpu=cpu,
        locks=locks,
        db=db,
        config=config,
        rng=RandomSource(config.seed),
        index=index,
    )
    engine.spawn(arrival_process(ctx), name="arrivals")
    engine.run()
    to_ms = 1e-3
    return TPResult(
        config=config,
        avg_response_ms=ctx.response_all.mean * to_ms,
        worst_response_ms=ctx.response_all.maximum * to_ms,
        avg_dc_ms=ctx.response_dc.mean * to_ms,
        worst_dc_ms=ctx.response_dc.maximum * to_ms,
        avg_join_ms=ctx.response_join.mean * to_ms,
        worst_join_ms=ctx.response_join.maximum * to_ms,
        n_measured=ctx.response_all.count,
        n_completed=ctx.completed,
        index_faults=ctx.index_faults,
        regenerations=ctx.regenerations,
        lock_waits=locks.waits,
        extra={
            "p95_ms": ctx.response_all.percentile(95) * to_ms,
            "p99_ms": ctx.response_all.percentile(99) * to_ms,
            "injected_disk_errors": float(ctx.injected_disk_errors),
            "cpu_utilization": (
                ctx.cpu_busy_us / (engine.now * config.n_cpus)
                if engine.now > 0
                else 0.0
            ),
        },
    )


def _declare_hierarchy(locks: LockManager, db: Database) -> None:
    locks.declare_child("db", *(("rel", name) for name in db.relations))
    for name, relation in db.relations.items():
        # one range per relation keeps protocol checks on every page
        locks.declare_range(
            ("rel", name), ("page", name), range(relation.n_pages)
        )


#: the paper's Table 4 targets (milliseconds)
PAPER_TABLE4 = {
    IndexPolicy.NONE: (866.0, 3770.0),
    IndexPolicy.IN_MEMORY: (43.0, 410.0),
    IndexPolicy.PAGING: (575.0, 3930.0),
    IndexPolicy.REGENERATE: (55.0, 680.0),
}


def table4_configurations(
    duration_s: float = 120.0, seed: int = 1992
) -> list[TPConfig]:
    """The four configurations of Table 4."""
    return [
        TPConfig(policy=policy, duration_s=duration_s, seed=seed)
        for policy in (
            IndexPolicy.NONE,
            IndexPolicy.IN_MEMORY,
            IndexPolicy.PAGING,
            IndexPolicy.REGENERATE,
        )
    ]
