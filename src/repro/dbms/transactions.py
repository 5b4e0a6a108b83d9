"""The two transaction types of the study (S3.3).

95% are small DebitCredit transactions; 5% are "joins of two relations to
update a third".  Both are simulation processes: lock acquisition and CPU
queueing are real, compute is a calibrated delay, a page fault is a delay
equal to the SGI 4D/380 fault-service time taken *without* holding a CPU
(the process blocks on I/O) but *while holding its locks* --- which is
exactly the lock-holding-across-faults effect the paper highlights.

Joins scan their two input relations, so they escalate to relation-level
S locks (standard lock escalation for scans); DebitCredits take intention
locks down to page-level X locks.  The S/IX conflict on ``accounts`` is
what couples join duration to DebitCredit response time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING

from repro.dbms.locking import LockManager, LockMode, Transaction
from repro.dbms.relations import Database
from repro.sim.engine import Engine
from repro.sim.process import Acquire, Delay
from repro.sim.resources import Resource
from repro.sim.rng import RandomSource
from repro.sim.stats import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.buffer import SegmentBackedIndex
    from repro.dbms.simulator import TPConfig

# the lock modes a transaction takes, as module globals: on CPython 3.11
# every attribute read off an Enum class takes the slow lookup the
# metaclass's ``__getattr__`` hook forces (about 80 ns)
_IX = LockMode.IX
_S = LockMode.S
_X = LockMode.X


class IndexPolicy(Enum):
    """The four Table-4 configurations."""

    NONE = auto()          # "No index"
    IN_MEMORY = auto()     # "Index in memory"
    PAGING = auto()        # "Index with paging"
    REGENERATE = auto()    # "Index regeneration"


@dataclass
class TPContext:
    """Everything a transaction process needs."""

    engine: Engine
    cpu: Resource
    locks: LockManager
    db: Database
    config: "TPConfig"
    rng: RandomSource
    index: "SegmentBackedIndex | None" = None
    response_all: Tally = field(default_factory=lambda: Tally("all"))
    response_dc: Tally = field(default_factory=lambda: Tally("debitcredit"))
    response_join: Tally = field(default_factory=lambda: Tally("join"))
    completed: int = 0
    index_faults: int = 0
    regenerations: int = 0
    injected_disk_errors: int = 0
    cpu_busy_us: float = 0.0
    #: the command that takes one CPU, built once per run
    cpu_acquire: Acquire = field(init=False)

    def __post_init__(self) -> None:
        self.cpu_acquire = Acquire(self.cpu)

    def record(self, kind: str, arrived_at: float, measured: bool) -> None:
        """Account one completed transaction's response time."""
        self.completed += 1
        if not measured:
            return
        response = self.engine.now - arrived_at
        self.response_all.record(response)
        if kind == "dc":
            self.response_dc.record(response)
        else:
            self.response_join.record(response)


def use_cpu(ctx: TPContext, microseconds: float):
    """Hold one CPU for ``microseconds`` of compute."""
    if microseconds <= 0:
        return
    yield ctx.cpu_acquire
    yield Delay(microseconds)
    ctx.cpu.release()
    ctx.cpu_busy_us += microseconds


def debit_credit(ctx: TPContext, txn_id: int, measured: bool):
    """One DebitCredit: update an account, a branch, a teller; append
    history."""
    arrived = ctx.engine.now
    txn = Transaction(txn_id, name=f"dc-{txn_id}")
    locks, rng, relations = ctx.locks, ctx.rng, ctx.db.relations
    accounts = relations["accounts"]
    branches = relations["branches"]
    tellers = relations["tellers"]
    history = relations["history"]
    account = rng.randint(0, accounts.n_records - 1)
    branch = rng.randint(0, branches.n_records - 1)
    teller = rng.randint(0, tellers.n_records - 1)
    hist_page = rng.randint(0, history.n_pages - 1)
    acquire = locks.acquire
    yield from acquire(txn, "db", _IX)
    yield from acquire(txn, ("rel", "accounts"), _IX)
    yield from acquire(
        txn, ("page", "accounts", accounts.page_of(account)), _X
    )
    yield from acquire(txn, ("rel", "branches"), _IX)
    yield from acquire(txn, ("page", "branches", branches.page_of(branch)), _X)
    yield from acquire(txn, ("rel", "tellers"), _IX)
    yield from acquire(txn, ("page", "tellers", tellers.page_of(teller)), _X)
    yield from acquire(txn, ("rel", "history"), _IX)
    yield from acquire(txn, ("page", "history", hist_page), _X)
    yield from use_cpu(ctx, ctx.config.dc_compute_us)
    locks.release_all(txn)
    ctx.record("dc", arrived, measured)


def join_transaction(ctx: TPContext, txn_id: int, measured: bool):
    """One join of accounts and tellers updating summary.

    Input relations are scanned (with the index: via index lookups), so
    the join escalates to relation-level S locks on both inputs and holds
    them for its whole duration --- including any index page faults.
    """
    arrived = ctx.engine.now
    txn = Transaction(txn_id, name=f"join-{txn_id}")
    locks, rng = ctx.locks, ctx.rng
    config = ctx.config
    summary = ctx.db.relations["summary"]
    yield from locks.acquire(txn, "db", _IX)
    yield from locks.acquire(txn, ("rel", "accounts"), _S)
    yield from locks.acquire(txn, ("rel", "tellers"), _S)
    yield from locks.acquire(txn, ("rel", "summary"), _IX)
    for _ in range(config.join_summary_pages):
        page = rng.randint(0, summary.n_pages - 1)
        yield from locks.acquire(txn, ("page", "summary", page), _X)

    if config.policy is IndexPolicy.NONE:
        # nested-loop scan of the inputs
        yield from use_cpu(ctx, config.join_scan_compute_us)
    else:
        index = ctx.index
        assert index is not None
        if config.policy is IndexPolicy.REGENERATE and not index.fully_resident:
            # the DBMS knows the index was discarded: rebuild in memory
            yield from use_cpu(ctx, config.index_regen_compute_us)
            index.regenerate()
            ctx.regenerations += 1
        elif config.policy is IndexPolicy.PAGING:
            # fault the index back one page at a time, holding the locks
            # but not a CPU (blocked on the disk)
            for page in index.missing_pages():
                yield Delay(config.page_fault_us)
                if config.disk_error_rate:
                    # transient disk errors: each retry re-pays the fault
                    # delay, bounded so a run always terminates
                    retries = 0
                    while (
                        retries < 4
                        and ctx.rng.bernoulli(config.disk_error_rate)
                    ):
                        ctx.injected_disk_errors += 1
                        retries += 1
                        yield Delay(config.page_fault_us)
                index.fault_in(page)
                ctx.index_faults += 1
        yield from use_cpu(ctx, config.join_index_compute_us)

    locks.release_all(txn)
    ctx.record("join", arrived, measured)
