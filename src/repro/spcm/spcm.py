"""The System Page Cache Manager (SPCM), sharded over the NUMA topology.

A process-level module that owns the machine's frame pool --- the
well-known boot segment holding every frame in physical-address order ---
and allocates frames to segment managers on request (paper, S2.4).  That
segment's residency is the only record of which frames are free: a free
frame sits at its home page there
(:meth:`~repro.core.kernel.Kernel.home_of`), and the SPCM grants straight
out of it in node order (:class:`~repro.spcm.freelist.NodeBucketedFreeList`).
It supports requests constrained by physical address range or page color
(placement control / coloring), partially satisfies constrained requests
it cannot fill ("it allocates and provides as many page frames as it can"),
and optionally prices memory through the :class:`~repro.spcm.market.MemoryMarket`.

On a NUMA machine (the DASH anticipation of S1) the SPCM runs **one shard
per node**: each :class:`SPCMShard` accounts for its node's frames and
runs its own dram market, and the thin :class:`~repro.spcm.arbiter.GlobalArbiter`
rebalances drams between shard markets and brokers cross-node frame loans
when a shard runs dry.  A request carrying a ``home_node`` hint is served
local-first; per-node frame grabs are grouped into one batched
``MigratePages`` shard transaction, amortizing the per-page market
accounting the way the paper amortizes ``MigratePages`` batches.  Without
a topology the SPCM degenerates to a single shard over the whole machine
and behaves (and charges) exactly as the flat version did.

Frames returned by one account and granted to another are flagged
``ZERO_FILL`` so the kernel zeroes them in transit --- the paper's point
that zeroing is needed only "if the page is being given to another user".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.api import (
    BatchMigratePagesRequest,
    FrameDemand,
    FrameGrant,
    MigratePagesRequest,
    TenantQuota,
)
from repro.core.flags import REFERENCED_DIRTY, RW, ZERO_FILL_I
from repro.core.kernel import Kernel
from repro.core.manager_api import SegmentManager
from repro.core.segment import Segment
from repro.errors import AllocationRefusedError, SPCMError
from repro.hw.numa import NumaTopology
from repro.hw.phys_mem import PageFrame
from repro.spcm.arbiter import GlobalArbiter
from repro.spcm.freelist import NodeBucketedFreeList
from repro.spcm.market import MemoryMarket
from repro.spcm.policy import (
    DEFER,
    REFUSE,
    AllocationPolicy,
    ReservePolicy,
)


@dataclass(frozen=True)
class FrameRequest:
    """A segment manager's request for frames."""

    account: str
    n_frames: int
    page_size: int | None = None           # default: the base page size
    phys_lo: int | None = None             # physical address range [lo, hi)
    phys_hi: int | None = None
    colors: frozenset[int] | None = None   # acceptable page colors
    n_colors: int | None = None            # color modulus (required w/ colors)
    home_node: int | None = None           # NUMA placement hint (local-first)

    def accepts(self, phys_addr: int, page_size: int) -> bool:
        """Whether a frame at ``phys_addr`` meets the physical range and
        colors (:meth:`~repro.hw.phys_mem.PageFrame.color`)."""
        return (
            (self.phys_lo is None or phys_addr >= self.phys_lo)
            and (self.phys_hi is None or phys_addr < self.phys_hi)
            and (
                self.colors is None
                or (phys_addr // page_size) % self.n_colors in self.colors
            )
        )


@dataclass
class SPCMShard:
    """Per-node accounting for one slice of the frame pool.

    The free frames stay in the boot segment (they are partitioned by
    physical address, so shard membership is a function of the frame,
    not separate state); the shard carries what *differs* per node: who
    holds how many of this node's frames, the node's own dram market,
    and grant/loan counters.  The per-shard conservation invariant is
    ``frames on this node == free here + sum(frames_held) + retired
    here``.
    """

    node: int
    phys_lo: int
    phys_hi: int
    market: MemoryMarket | None = None
    #: account -> frames of *this node* currently granted out
    frames_held: dict[str, int] = field(default_factory=dict)
    granted_frames: int = 0
    #: grants that satisfied a request homed on this node
    local_grants: int = 0
    #: grants out of this pool serving another node's demand (loans out)
    loaned_grants: int = 0
    retired_frames: int = 0

    def note_granted(self, account: str, n_frames: int, local: bool) -> None:
        """Book a grant of this node's frames to ``account``."""
        self.frames_held[account] = (
            self.frames_held.get(account, 0) + n_frames
        )
        self.granted_frames += n_frames
        if local:
            self.local_grants += n_frames
        else:
            self.loaned_grants += n_frames

    def note_returned(self, account: str, n_frames: int) -> None:
        """Book the return of this node's frames by ``account``."""
        held = self.frames_held.get(account, 0)
        self.frames_held[account] = max(0, held - n_frames)


class SystemPageCacheManager:
    """Allocates the frame pool among segment managers, shard by shard."""

    def __init__(
        self,
        kernel: Kernel,
        policy: AllocationPolicy | None = None,
        market: MemoryMarket | None = None,
        topology: NumaTopology | None = None,
    ) -> None:
        """Take over the kernel's boot segments as the free pool.

        Nothing is copied: each page size's pool is its boot segment's
        residency.  The constructor only cuts each pool into one run of
        boot pages per shard, so an SPCM built over a running system (a
        second SPCM) sees exactly the frames still at home.
        """
        self.kernel = kernel
        self.policy = policy if policy is not None else ReservePolicy()
        self.market = market
        if market is not None and not market.tracer.enabled:
            market.tracer = kernel.tracer
        #: the machine's NUMA topology (defaults to the kernel's; None
        #: means flat UMA memory and a single shard)
        self.topology = (
            topology if topology is not None else kernel.topology
        )
        if self.topology is not None:
            self.topology.validate_for(kernel.memory)
        # one shard per node; shard 0 keeps the caller's market, the rest
        # run fresh markets with the same config (their own economies,
        # rebalanced by the arbiter)
        self.shards: list[SPCMShard] = []
        if self.topology is None:
            self.shards.append(
                SPCMShard(0, 0, kernel.memory.size_bytes, market=market)
            )
        else:
            for node in self.topology.nodes():
                lo, hi = self.topology.node_range(node)
                shard_market = market
                if node > 0 and market is not None:
                    shard_market = MemoryMarket(market.config)
                    shard_market.tracer = market.tracer
                self.shards.append(
                    SPCMShard(node, lo, hi, market=shard_market)
                )
        self.markets: list[MemoryMarket] = [
            shard.market for shard in self.shards if shard.market is not None
        ]
        #: the thin global layer between shards (loans + dram rebalancing)
        self.arbiter = GlobalArbiter(self.markets)
        # grant order over each page size's boot segment: per-shard runs
        # of boot pages (the pages themselves stay in the segment)
        self._free: dict[int, NodeBucketedFreeList] = {}
        # which account last held each frame (zero-fill decision)
        self._last_account: dict[int, str] = {}
        self.frames_held: dict[str, int] = {}
        self._accounts: dict[str, str] = {}  # manager name -> account name
        #: live manager objects by name (telemetry probes iterate these
        #: for per-manager resident sets and dram balances)
        self.managers: dict[str, SegmentManager] = {}
        self.deferred_requests = 0
        self.refused_requests = 0
        #: requests clamped or deferred by a per-tenant frame quota
        self.quota_deferrals = 0
        self.granted_frames = 0
        self.seized_frames = 0
        self.retired_frames = 0
        #: machine-wide local/remote split of placement-hinted grants
        self.local_grant_pages = 0
        self.remote_grant_pages = 0
        for size, boot in kernel.boot_segments.items():
            # boot page i holds the pool's i-th frame, in physical-address
            # order, so each shard's run is its address range's pages
            runs = [
                kernel.memory.pool_range(size, shard.phys_lo, shard.phys_hi)
                for shard in self.shards
            ]
            self._free[size] = NodeBucketedFreeList(boot.pages, runs)
        # the kernel's degradation paths (failover, ECC retirement,
        # segment deletion) need to reach the SPCM without threading it
        # through every call
        kernel.spcm = self

    # -- shard plumbing -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, phys_addr: int) -> SPCMShard:
        """The shard owning a physical address."""
        if self.topology is None:
            return self.shards[0]
        return self.shards[self.topology.node_of(phys_addr)]

    def free_frames_by_node(
        self, page_size: int | None = None
    ) -> dict[int, int]:
        """Free-frame count per node (the telemetry gauges' view)."""
        size = page_size or self.kernel.memory.page_size
        free = self._free.get(size)
        if free is None:
            return {shard.node: 0 for shard in self.shards}
        return free.counts_by_node()

    def free_frames_on(self, node: int) -> int:
        """Free base-size frames on one node: its entry of
        :meth:`free_frames_by_node`, counting that node alone."""
        free = self._free.get(self.kernel.memory.page_size)
        if free is None:
            return 0
        return free.count_on(node)

    # -- registration -------------------------------------------------------

    def register_manager(
        self, manager: SegmentManager, account: str | None = None
    ) -> str:
        """Associate a manager with a (market) account name.

        The account is opened in every shard market, with the configured
        income split evenly across the shards so the machine-wide income
        matches the flat-SPCM economy; the arbiter then moves drams to
        wherever the account actually holds memory.
        """
        name = account or manager.name
        self._accounts[manager.name] = name
        self.managers[manager.name] = manager
        self.frames_held.setdefault(name, 0)
        for shard in self.shards:
            shard.frames_held.setdefault(name, 0)
            if shard.market is None or name in shard.market.accounts:
                continue
            shard.market.open_account(
                name,
                income_per_second=(
                    shard.market.config.income_per_second / self.n_shards
                ),
            )
        recovery = self.kernel.supervisor.recovery
        if recovery is not None:
            # a coordinator is installed: journal and checkpoint this
            # manager from birth (chaos victims, admitted tenants)
            recovery.track(manager)
        return name

    def account_of(self, manager: SegmentManager) -> str:
        """The account a manager's holdings are charged to."""
        return self._accounts.get(manager.name, manager.name)

    def set_tenant_quota(self, quota: TenantQuota) -> None:
        """Install (or clear) a per-tenant dram quota.

        The frame cap is enforced machine-wide through the arbiter at
        grant time; the MB equivalent is mirrored into every shard market
        the account is open in, so the quota-conservation sweep can check
        summed holdings against it.
        """
        self.arbiter.set_quota(quota.account, quota.frames)
        dram_mb = quota.dram_mb
        if dram_mb is None and quota.frames is not None:
            dram_mb = (
                quota.frames * self.kernel.memory.page_size / (1024 * 1024)
            )
        for market in self.markets:
            if quota.account in market.accounts:
                market.set_quota(quota.account, dram_mb)

    # -- queries (what segment managers plan against, S2.4) --------------------

    def available_frames(self, page_size: int | None = None) -> int:
        """Frames in the pool for one page size."""
        size = page_size or self.kernel.memory.page_size
        boot = self.kernel.boot_segments.get(size)
        return 0 if boot is None else len(boot.pages)

    def held_by(self, account: str) -> int:
        """Frames currently granted to ``account``."""
        return self.frames_held.get(account, 0)

    def dram_balance(self, account: str) -> float:
        """An account's machine-wide dram balance (all shard markets).

        0.0 when no market is configured --- the telemetry gauge reads
        uniformly either way.
        """
        total = 0.0
        for market in self.markets:
            acct = market.accounts.get(account)
            if acct is not None:
                total += acct.balance
        return total

    def local_hit_ratio(self) -> float:
        """Fraction of placement-hinted grants served from the home node."""
        hinted = self.local_grant_pages + self.remote_grant_pages
        if hinted == 0:
            return 1.0
        return self.local_grant_pages / hinted

    def digest_rows(self) -> list:
        """Canonical, deterministically ordered accounting rows.

        The verify state digest (:mod:`repro.verify.digest`) hashes these
        rather than reaching into private dicts, so the digest encoding
        survives internal refactors as long as the *accounting* is
        unchanged.  Rows cover the free pool, per-account holdings,
        per-shard books, market balances, and the arbiter's loan ledger.
        """
        rows: list = [
            ("granted", self.granted_frames),
            ("seized", self.seized_frames),
            ("retired", self.retired_frames),
            ("deferred", self.deferred_requests),
            ("refused", self.refused_requests),
            ("quota_deferrals", self.quota_deferrals),
        ]
        for size, boot in sorted(self.kernel.boot_segments.items()):
            rows.append(("free", size, tuple(sorted(boot.pages))))
        for account in sorted(self.frames_held):
            rows.append(("held", account, self.frames_held[account]))
        for shard in self.shards:
            rows.append(
                (
                    "shard",
                    shard.node,
                    shard.granted_frames,
                    shard.local_grants,
                    shard.loaned_grants,
                    shard.retired_frames,
                    tuple(sorted(shard.frames_held.items())),
                )
            )
            if shard.market is not None:
                rows.append(
                    (
                        "market",
                        shard.node,
                        tuple(
                            (name, acct.balance, acct.holding_mb)
                            for name, acct in sorted(
                                shard.market.accounts.items()
                            )
                        ),
                    )
                )
        rows.extend(self.arbiter.digest_rows())
        return rows

    # -- allocation ------------------------------------------------------------

    def request_frames(
        self,
        manager: SegmentManager,
        request: FrameRequest,
        dst_segment: Segment,
    ) -> list[int]:
        """Grant frames into ``dst_segment`` (appended); returns their
        page indices there.

        Returns ``[]`` when the request is deferred.  Raises
        :class:`AllocationRefusedError` when policy refuses outright.
        Physical-address or color constraints narrow the candidate set;
        a constrained request that cannot be fully met is partially
        granted rather than failed.
        """
        if request.n_frames <= 0:
            raise SPCMError("must request at least one frame")
        if not self.kernel.tracer.enabled:
            return self._request_frames(manager, request, dst_segment)
        with self.kernel.tracer.span(
            "spcm",
            "request_frames",
            account=self.account_of(manager),
            n_requested=request.n_frames,
        ) as span:
            granted = self._request_frames(manager, request, dst_segment)
            span.set_attr("n_granted", len(granted))
            return granted

    def _request_frames(
        self,
        manager: SegmentManager,
        request: FrameRequest,
        dst_segment: Segment,
    ) -> list[int]:
        kernel = self.kernel
        memory = kernel.memory
        tracer = kernel.tracer
        size = request.page_size or memory.page_size
        boot = kernel.boot_segments.get(size)
        if boot is None:
            raise SPCMError(f"no frames of page size {size}")
        if dst_segment.page_size != size:
            raise SPCMError(
                "destination segment page size does not match request"
            )
        # account_of and, below, arbiter.quota_of, inline: every refill
        # runs them, and the serving layer's refills are mostly clamped
        account = self._accounts.get(manager.name, manager.name)
        free = self._free[size]
        home = request.home_node
        # a placement hint serves local frames first, then spills to
        # remote pools (cross-node loans the arbiter books below)
        prefer_node = home if self.topology is not None else None
        n_free = len(boot.pages)
        if (
            request.phys_lo is None
            and request.phys_hi is None
            and request.colors is None
        ):
            # the hot path: no candidate list is built at all --- the
            # grant below scans the pool from its marks
            candidates: list[int] | None = None
            n_matching = n_free
        else:
            if request.colors is not None and not request.n_colors:
                raise SPCMError("color constraint requires n_colors")
            base = memory.pool_addrs[size]
            candidates = free.matching(
                lambda page: request.accepts(base + page * size, size),
                prefer_node,
            )
            n_matching = len(candidates)
        # policy judges against the whole pool; physical constraints then
        # clamp the grant to what actually matches ("as many page frames
        # as it can", S2.4)
        verdict = self.policy.decide(account, request.n_frames, n_free, size)
        if verdict.decision is REFUSE:
            self.refused_requests += 1
            if tracer.enabled:
                tracer.event(
                    "spcm",
                    f"refuse {request.n_frames} frame(s) for {account}",
                )
            raise AllocationRefusedError(
                f"SPCM refused {request.n_frames} frames for {account!r}"
            )
        n_grant = verdict.n_frames
        if n_matching < n_grant:
            n_grant = n_matching
        # memory is in demand when the pool, not a tenant's own cap, is
        # what holds a grant back (S2.4: free use absent competing demand)
        pool_short = (
            verdict.decision is DEFER or n_matching == 0
        )
        # a per-tenant quota clamps the grant to the tenant's machine-wide
        # headroom; a breach defers (never refuses), so the tenant recycles
        # its own residents and retries rather than failing (S2.4 forced
        # return, applied proactively at the cap)
        quota = self.arbiter.quotas.get(account)
        if quota is not None and n_grant > 0:
            headroom = quota - self.frames_held.get(account, 0)
            if n_grant > headroom:
                n_grant = max(0, headroom)
                self.quota_deferrals += 1
                if tracer.enabled:
                    tracer.event(
                        "spcm",
                        f"quota clamp for {account}: headroom {headroom} "
                        f"of {quota} frame cap",
                    )
        if pool_short or n_grant == 0:
            self.deferred_requests += 1
            if tracer.enabled:
                tracer.event(
                    "spcm",
                    f"defer {request.n_frames} frame(s) for {account} "
                    f"({n_matching} matching free)",
                )
            if pool_short:
                for market in self.markets:
                    market.demand_outstanding = True
            return []
        if candidates is None:
            chosen = free.take(n_grant, prefer_node)
        else:
            chosen = candidates[:n_grant]
        # decided by pfn: a frame's object is made only as it migrates out
        first_pfn = memory.pools[size].start
        last_account = self._last_account
        for boot_page in chosen:
            pfn = first_pfn + boot_page
            previous = last_account.get(pfn)
            if previous is not None and previous != account:
                memory.frame(pfn).flags |= ZERO_FILL_I
            last_account[pfn] = account
        # the grant's MigratePages calls are the SPCM's own (it is the
        # invoking module, Table 3); attribution is pushed inline, as
        # the supervisor does per delivery, not through a generator
        attribution = kernel._attribution
        attribution.append("SPCM")
        try:
            if self.n_shards > 1:
                granted_pages = self._grant_sharded(
                    boot, dst_segment, chosen, account, home
                )
            else:
                granted_pages = self._grant_flat(
                    boot, dst_segment, chosen, account
                )
        finally:
            attribution.pop()
        self.frames_held[account] = (
            self.frames_held.get(account, 0) + len(granted_pages)
        )
        self.granted_frames += len(granted_pages)
        self._update_market_holding(account, size)
        return granted_pages

    @staticmethod
    def _contiguous_runs(pages: list[int]) -> list[tuple[int, int]]:
        """(start, n) runs of consecutive boot page indices."""
        runs: list[tuple[int, int]] = []
        run_start = 0
        while run_start < len(pages):
            run_end = run_start + 1
            while (
                run_end < len(pages)
                and pages[run_end] == pages[run_end - 1] + 1
            ):
                run_end += 1
            runs.append((pages[run_start], run_end - run_start))
            run_start = run_end
        return runs

    def _grant_flat(
        self,
        boot: Segment,
        dst_segment: Segment,
        chosen: list[int],
        account: str,
    ) -> list[int]:
        """Single-shard grant: one MigratePages per contiguous boot run."""
        granted_pages: list[int] = []
        for start, n_run in self._contiguous_runs(chosen):
            dst_page = dst_segment.n_pages
            dst_segment.grow(n_run)
            self.kernel.migrate_pages(
                MigratePagesRequest(
                    boot.seg_id,
                    dst_segment.seg_id,
                    start,
                    dst_page,
                    n_run,
                    set_flags=RW,
                    clear_flags=REFERENCED_DIRTY,
                )
            )
            granted_pages.extend(range(dst_page, dst_page + n_run))
        self.shards[0].note_granted(account, len(chosen), local=True)
        return granted_pages

    def _grant_sharded(
        self,
        boot: Segment,
        dst_segment: Segment,
        chosen: list[int],
        account: str,
        home: int | None,
    ) -> list[int]:
        """NUMA grant: one batched shard transaction per node.

        Each node's frame grabs become one ``migrate_pages_batch`` call
        (full kernel-entry cost once, marginal cost per further run) and
        one accounting update on that node's shard, amortizing the
        per-page market bookkeeping.  Grants off the home node are booked
        as loans with the arbiter.
        """
        granted_pages: list[int] = []
        by_node: dict[int, list[int]] = {}
        size = boot.page_size
        base = self.kernel.memory.pool_addrs[size]
        for page in chosen:
            node = self.shard_of(base + page * size).node
            by_node.setdefault(node, []).append(page)
        for node, node_pages in sorted(by_node.items()):
            node_pages.sort()
            requests = []
            for start, n_run in self._contiguous_runs(node_pages):
                dst_page = dst_segment.n_pages
                dst_segment.grow(n_run)
                requests.append(
                    MigratePagesRequest(
                        boot.seg_id,
                        dst_segment.seg_id,
                        start,
                        dst_page,
                        n_run,
                        set_flags=RW,
                        clear_flags=REFERENCED_DIRTY,
                        home_node=home,
                    )
                )
                granted_pages.extend(range(dst_page, dst_page + n_run))
            self.kernel.migrate_pages_batch(
                BatchMigratePagesRequest(tuple(requests))
            )
            local = home is None or node == home
            self.shards[node].note_granted(
                account, len(node_pages), local=local
            )
            if home is not None:
                if node == home:
                    self.local_grant_pages += len(node_pages)
                else:
                    self.remote_grant_pages += len(node_pages)
                    self.arbiter.note_loan(home, node, len(node_pages))
        return granted_pages

    # -- return and reclamation --------------------------------------------------

    def return_frames(
        self,
        manager: SegmentManager,
        src_segment: Segment,
        pages: list[int],
    ) -> None:
        """Take frames back from a manager's segment into the pool."""
        if not pages:
            return
        account = self.account_of(manager)
        size = src_segment.page_size
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "spcm", f"reclaim {len(pages)} frame(s) from {account}"
            )
        returned_by_node: dict[int, int] = {}
        attribution = self.kernel._attribution
        attribution.append("SPCM")
        try:
            for page in pages:
                frame = src_segment.pages.get(page)
                if frame is None:
                    raise SPCMError(
                        f"page {page} of {src_segment.name} has no frame "
                        "to return"
                    )
                home_boot, home_page = self.kernel.home_of(frame)
                node = self.shard_of(frame.phys_addr).node
                returned_by_node[node] = returned_by_node.get(node, 0) + 1
                self.kernel.migrate_pages(
                    MigratePagesRequest(
                        src_segment.seg_id,
                        home_boot.seg_id,
                        page,
                        home_page,
                        1,
                        clear_flags=REFERENCED_DIRTY,
                    )
                )
                self._free[size].append(home_page)
        finally:
            attribution.pop()
        held = self.frames_held.get(account, 0)
        self.frames_held[account] = max(0, held - len(pages))
        for node, n_returned in returned_by_node.items():
            self.shards[node].note_returned(account, n_returned)
        self._update_market_holding(account, size)
        if self.available_frames(size) > 0:
            for market in self.markets:
                market.demand_outstanding = False

    def force_reclaim(
        self, manager: SegmentManager, n_frames: int, node: int | None = None
    ) -> int:
        """Demand frames back (the broke-account case); returns count freed.

        The demand travels as a typed :class:`~repro.core.api.FrameDemand`
        and the manager answers with a :class:`~repro.core.api.FrameGrant`
        naming the free-segment pages it surrendered.
        """
        demand = FrameDemand(n_frames, node=node, reason="broke")
        if not self.kernel.tracer.enabled:
            return manager.release_frames(demand).n_frames
        with self.kernel.tracer.span(
            "spcm",
            "force_reclaim",
            account=self.account_of(manager),
            n_frames=n_frames,
        ) as span:
            grant = manager.release_frames(demand)
            span.set_attr("n_freed", grant.n_frames)
            return grant.n_frames

    def seize_frames(self, manager: SegmentManager) -> int:
        """Forcibly reclaim a failed manager's free frames.

        :meth:`force_reclaim` negotiates --- the manager chooses what to
        surrender --- but a crashed or hung manager cannot cooperate, so
        after the kernel fails it over the SPCM takes every frame still
        sitting in its free segment back into the pool directly.
        Resident pages are untouched (the fallback manager adopted those
        segments and will reclaim them through normal replacement).
        """
        with self.kernel.tracer.span(
            "spcm",
            "seize_frames",
            account=self.account_of(manager),
        ) as span:
            free_segment = getattr(manager, "free_segment", None)
            pages = (
                sorted(free_segment.pages) if free_segment is not None else []
            )
            if pages:
                self.return_frames(manager, free_segment, pages)
            manager.on_frames_seized(FrameGrant(tuple(pages)))
            self.seized_frames += len(pages)
            span.set_attr("n_seized", len(pages))
            return len(pages)

    def reattach_manager(self, manager: SegmentManager) -> None:
        """Re-attach a warm-restarted manager to its surviving books.

        A manager crash loses only *policy* state; the SPCM's ledger for
        the account survives by construction, so a warm restart keeps the
        grant accounting exactly as it stands instead of seizing the free
        segment (the cold path's :meth:`seize_frames`).  The recovery
        auditor then cross-checks the manager's frames against these books.
        """
        account = self.account_of(manager)
        self.frames_held.setdefault(account, 0)
        self.managers[manager.name] = manager
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "spcm",
                f"re-attach {account}: {self.frames_held[account]} "
                "frame(s) kept on the books",
            )

    def note_frame_swept(self, frame: PageFrame) -> None:
        """The kernel swept ``frame`` home from a deleted segment.

        The frame is free again: its run's mark comes down so grants see
        it, and it comes off the books of the account it was granted to.
        """
        _, home_page = self.kernel.home_of(frame)
        self._free[frame.page_size].append(home_page)
        account = self._last_account.get(frame.pfn)
        if account is not None:
            self._unbook(account, frame)

    def note_frame_retired(
        self, frame: PageFrame, segment: Segment | None, page: int | None
    ) -> None:
        """The kernel retired ``frame``, which left ``page`` of ``segment``.

        The frame leaves the SPCM's books entirely: it no longer counts
        against its holder's grant and can never be handed out again.  A
        frame retired out of a manager's free segment also leaves that
        manager's free slots, as if the SPCM had seized it.
        """
        self.retired_frames += 1
        self.shard_of(frame.phys_addr).retired_frames += 1
        account = self._last_account.pop(frame.pfn, None)
        # a frame sitting in the free pool is nobody's holding: only
        # frames retired while granted out come off their account's books
        # (a repeated notice finds no account)
        if segment is self.kernel.boot_segments.get(frame.page_size):
            return
        if account is not None:
            self._unbook(account, frame)
        if segment is None:
            return
        for manager in self.managers.values():
            if getattr(manager, "free_segment", None) is segment:
                manager.on_frames_seized(FrameGrant((page,)))

    def _unbook(self, account: str, frame: PageFrame) -> None:
        """Take one ``frame`` off ``account``'s machine-wide, shard and
        market books."""
        held = self.frames_held.get(account)
        if held is not None:
            self.frames_held[account] = max(0, held - 1)
        self.shard_of(frame.phys_addr).note_returned(account, 1)
        self._update_market_holding(account, frame.page_size)

    def charge_io(self, manager: SegmentManager, n_bytes: int) -> float:
        """Bill a manager's backing-store traffic to its dram account.

        "There is a charge for I/O ... which prevents such programs from
        avoiding the memory charge with excessive I/O" (S2.4).  A no-op
        without a market; returns the drams charged.
        """
        if self.market is None or n_bytes <= 0:
            return 0.0
        account = self.account_of(manager)
        if account not in self.market.accounts:
            return 0.0
        return self.market.charge_io(account, n_bytes / (1024.0 * 1024.0))

    # -- market plumbing ------------------------------------------------------------

    def advance_market(self, now_seconds: float) -> None:
        """Advance every shard market; then the arbiter moves each
        account's drams toward the shards where it holds memory."""
        if not self.markets:
            return
        for market in self.markets:
            market.advance(now_seconds)
        self.arbiter.rebalance_drams()

    def _update_market_holding(self, account: str, page_size: int) -> None:
        """Record the account's holding with each shard's market.

        Per-shard holdings come from the shard's own books, so each node
        charges only for its own frames.
        """
        for shard in self.shards:
            if shard.market is None or account not in shard.market.accounts:
                continue
            held = shard.frames_held.get(account, 0)
            shard.market.set_holding(
                account, held * page_size / (1024.0 * 1024.0)
            )
