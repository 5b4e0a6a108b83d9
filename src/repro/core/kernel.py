"""The V++ kernel model: external page-cache management.

The kernel owns the hardware translation structures (global hash page
table and TLB), the segment registry, and the four operations the paper
adds over a conventional VM interface (S2.1):

* :meth:`Kernel.set_segment_manager` — ``SetSegmentManager(seg, manager)``
* :meth:`Kernel.migrate_pages` — ``MigratePages(src, dst, ...)``
* :meth:`Kernel.modify_page_flags` — ``ModifyPageFlags(seg, ...)``
* :meth:`Kernel.get_page_attributes` — ``GetPageAttributes(seg, ...)``

The kernel does **no** page reclamation and **no** writeback; faults it
cannot satisfy from its translation structures are forwarded to the
segment's process-level manager, following the Figure-2 sequence.  The
delivery itself, and failover when a manager misbehaves, belong to the
:class:`~repro.core.supervisor.ManagerSupervisor` (``kernel.supervisor``).
Every operation takes its request record from :mod:`repro.core.api`;
the two that report something (``ModifyPageFlags`` and
``GetPageAttributes``) return their result record.  On boot every page
frame is placed, in physical-address order, in a well-known segment from
which the System Page Cache Manager hands frames out.

All code paths charge the kernel's :class:`~repro.hw.costs.CostMeter`, so
an experiment can read both elapsed cost and its decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.api import (
    BatchMigratePagesRequest,
    GetPageAttributesRequest,
    GetPageAttributesResult,
    MigratePagesRequest,
    ModifyPageFlagsRequest,
    ModifyPageFlagsResult,
    PageAttribute,
    SetSegmentManagerRequest,
)
from repro.core.faults import (
    COPY_ON_WRITE,
    MISSING_PAGE,
    PROTECTION,
    PageFault,
)
from repro.core.flags import (
    DIRTY_I,
    MANAGER_SETTABLE,
    READ_I,
    REFERENCED_I,
    RW_I,
    WRITE_I,
    ZERO_FILL_I,
    PageFlags,
)
from repro.core.manager_api import SegmentManager
from repro.core.segment import HomePages, ResolvedPage, Segment
from repro.core.supervisor import FAILOVER_AFTER_ATTEMPTS, ManagerSupervisor
from repro.errors import (
    MigrationError,
    NoManagerError,
    ProtectionError,
    SegmentError,
    UnresolvedFaultError,
)
from repro.hw.costs import DECSTATION_5000_200, CostMeter, MachineCosts
from repro.hw.numa import NumaTopology
from repro.hw.page_table import GlobalHashPageTable, Translation
from repro.hw.phys_mem import PageFrame, PhysicalMemory
from repro.hw.tlb import TLB
from repro.invariants import enforce
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["Kernel", "KernelStats", "PageAttribute"]

#: Maximum times a single reference retries after fault handling before the
#: kernel declares the fault unresolvable.
MAX_FAULT_RETRIES = 8

# The hot paths run on the plain-int flag values (repro.core.flags) and
# convert back to PageFlags only at the API boundary.
_MANAGER_SETTABLE_I = int(MANAGER_SETTABLE)
# clearing any of these bits shoots down cached translations: access or
# REFERENCED so the next touch re-enters the kernel, DIRTY so the next
# store does (a translation is writable only while its frame is dirty)
_SHOOTDOWN_I = RW_I | REFERENCED_I | DIRTY_I
# a result record's namedtuple ``__new__`` is a Python function;
# ``tuple.__new__(ModifyPageFlagsResult, (n,))`` builds the same tuple
_new_tuple = tuple.__new__


@dataclass
class KernelStats:
    """Counters the evaluation section reads."""

    references: int = 0
    faults: int = 0
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    migrate_calls: int = 0
    migrate_batches: int = 0
    pages_migrated: int = 0
    numa_local_pages: int = 0
    numa_remote_pages: int = 0
    modify_flags_calls: int = 0
    get_attributes_calls: int = 0
    set_manager_calls: int = 0
    zero_fills: int = 0
    cow_copies: int = 0
    # graceful-degradation counters (chaos runs; all zero in healthy runs;
    # ``faults`` counts deliveries, so a failed-over fault counts twice)
    manager_timeouts: int = 0
    manager_crashes: int = 0
    manager_failovers: int = 0
    fallback_resolutions: int = 0
    byzantine_replies: int = 0
    ipc_drops: int = 0
    ipc_duplicates: int = 0
    ecc_retirements: int = 0
    #: crashed managers rebuilt from checkpoint + journal replay instead
    #: of failing over cold
    warm_restarts: int = 0
    #: exceptions swallowed from fault/degradation listeners (the hooks
    #: are observability, never control flow)
    listener_errors: int = 0
    #: manager invocations by manager name (Table 3, column 1)
    manager_calls: dict[str, int] = field(default_factory=dict)
    #: MigratePages invocations by calling manager name (Table 3, column 2)
    migrate_calls_by_manager: dict[str, int] = field(default_factory=dict)
    #: outermost fault services on a serving tenant's working set
    #: (booked by the serving layer's fault listener)
    tenant_faults: dict[str, int] = field(default_factory=dict)
    #: summed metered latency of those services, by tenant
    tenant_fault_us: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Flat scalar view for the verify state digest and chaos results:
        every int counter, in field order, then the per-name counts."""
        out = {name: float(getattr(self, name)) for name in _INT_COUNTERS}
        for kind, n in self.faults_by_kind.items():
            out[f"faults.{kind.lower()}"] = float(n)
        for name, n in self.manager_calls.items():
            out[f"manager_calls.{name}"] = float(n)
        for name, n in self.tenant_faults.items():
            out[f"tenant_faults.{name}"] = float(n)
        return out

    def note_manager_call(self, manager_name: str) -> None:
        """Count one request forwarded to ``manager_name``."""
        self.manager_calls[manager_name] = (
            self.manager_calls.get(manager_name, 0) + 1
        )

    def note_tenant_fault(self, tenant: str, latency_us: float) -> None:
        """Book one outermost fault service against ``tenant``."""
        self.tenant_faults[tenant] = self.tenant_faults.get(tenant, 0) + 1
        self.tenant_fault_us[tenant] = (
            self.tenant_fault_us.get(tenant, 0.0) + latency_us
        )


#: the int counters of :class:`KernelStats`, in field order
_INT_COUNTERS = tuple(f.name for f in fields(KernelStats) if f.type == "int")


class Kernel:
    """The V++ kernel: segments, translation, fault forwarding."""

    def __init__(
        self,
        memory: PhysicalMemory,
        costs: MachineCosts = DECSTATION_5000_200,
        tracer: Tracer | NullTracer = NULL_TRACER,
        topology: NumaTopology | None = None,
    ) -> None:
        self.memory = memory
        self.costs = costs
        #: NUMA topology of the machine (None models flat UMA memory);
        #: validated against the physical memory at construction so a
        #: mismatched node_bytes cannot survive to the first remote access
        if topology is not None:
            topology.validate_for(memory)
        self.topology = topology
        self.meter = CostMeter()
        self.tlb = TLB()
        self.page_table = GlobalHashPageTable()
        self.stats = KernelStats()
        #: structured span/event collector (NULL_TRACER when disabled);
        #: its clock follows this kernel's cost meter, and its ``steps``
        #: are the Figure-2 view of fault handling
        self.tracer = tracer
        if tracer.enabled and getattr(tracer, "clock", None) is None:
            tracer.clock = lambda: self.meter.total_us  # type: ignore[union-attr]
        self.tlb.tracer = tracer
        #: carries forwarded faults to managers and fails misbehaving
        #: managers over; chaos, recovery and the fallback plug in here
        self.supervisor = ManagerSupervisor(self)
        #: the SPCM, once booted (lets the kernel trigger forcible reclaim
        #: of a dead manager's frames and report ECC retirements)
        self.spcm = None
        #: pfns removed from service after an uncorrectable ECC error
        self.retired_frames: set[int] = set()
        # fault listeners (see on_fault_serviced); an empty list keeps the
        # fault path cost-free when nothing observes it
        self._fault_listeners: list = []
        self._fault_depth = 0
        self._segments: dict[int, Segment] = {}
        self._next_seg_id = 0
        # pfn -> {(space_id, vpn)} reverse map for translation shootdown
        self._frame_translations: dict[int, set[tuple[int, int]]] = {}
        # who is invoking kernel operations (Table 3 counts MigratePages
        # calls per invoking module); innermost attribution wins, so the
        # SPCM granting frames *during* a manager's fault handling counts
        # those calls to itself.  The supervisor and the SPCM push and pop
        # their names inline around the calls they make.
        self._attribution: list[str] = []
        # Boot: one well-known segment per frame size, all frames in
        # physical-address order (paper, S2.1).  Page i holds the pool's
        # i-th frame, so each pool is filed with one record and no frame
        # is made until it is used.
        self.boot_segments: dict[int, Segment] = {}
        for size, pfns in memory.pools.items():
            boot = self.create_segment(
                len(pfns), page_size=size, name=f"physmem-{size}"
            )
            boot.pages = HomePages(memory, size)
            memory.file_pool(size, boot.seg_id, RW_I)
            self.boot_segments[size] = boot
        self.initial_segment = self.boot_segments.get(
            memory.page_size,
            next(iter(self.boot_segments.values()), None),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # segment lifecycle
    # ------------------------------------------------------------------

    def create_segment(
        self,
        n_pages: int,
        page_size: int | None = None,
        name: str = "",
        manager: SegmentManager | None = None,
        prot: PageFlags = PageFlags.READ | PageFlags.WRITE,
        cow_source: Segment | None = None,
        auto_grow: bool = False,
    ) -> Segment:
        """Create a segment; optionally COW-sourced, optionally managed."""
        size = page_size if page_size is not None else self.memory.page_size
        if cow_source is not None and cow_source.page_size != size:
            raise SegmentError("COW source must share the page size")
        segment = Segment(
            self._next_seg_id,
            n_pages,
            size,
            name=name,
            prot=prot,
            cow_source=cow_source,
            auto_grow=auto_grow,
        )
        self._next_seg_id += 1
        self._segments[segment.seg_id] = segment
        if manager is not None:
            self._set_segment_manager(segment, manager)
        return segment

    def segment(self, seg_id: int) -> Segment:
        """The segment with ``seg_id`` (raises for unknown ids)."""
        try:
            return self._segments[seg_id]
        except KeyError:
            raise SegmentError(f"no such segment: {seg_id}") from None

    def segments(self) -> list[Segment]:
        """All live segments."""
        return list(self._segments.values())

    def home_of(self, frame: PageFrame) -> tuple[Segment, int]:
        """The boot segment and page a free ``frame`` lives at.

        Boot puts the ``i``-th frame of each pool at page ``i`` of that
        size's boot segment, and a frame can come back to that page only
        (:class:`~repro.core.segment.HomePages`), so the home follows
        from the pool layout.
        """
        size = frame.page_size
        first_pfn = self.memory.pools[size].start
        return self.boot_segments[size], frame.pfn - first_pfn

    def delete_segment(self, segment: Segment) -> None:
        """Delete a segment: notify the manager, sweep leftover frames.

        The manager "is informed when a segment it manages is closed or
        deleted, so that it can reclaim the segment page frames at that
        time" (S2.2).  Frames the manager leaves behind are swept back to
        their home pages in the boot segment by the kernel, and the SPCM
        is told each one came home.
        """
        if segment.deleted:
            raise SegmentError(f"segment {segment.name} already deleted")
        for other in self._segments.values():
            if other is segment:
                continue
            if any(b.target is segment for b in other.bindings):
                raise SegmentError(
                    f"segment {segment.name} is bound into {other.name}; "
                    "unbind before deleting"
                )
            if other.cow_source is segment:
                raise SegmentError(
                    f"segment {segment.name} is the COW source of "
                    f"{other.name}; delete that first"
                )
        if segment.manager is not None:
            self.stats.note_manager_call(segment.manager.name)
            segment.manager.segment_deleted(segment)
            segment.manager.managed.discard(segment.seg_id)
        for page in sorted(segment.pages):
            frame = segment.pages[page]
            boot, home = self.home_of(frame)
            self.migrate_pages(
                MigratePagesRequest(segment.seg_id, boot.seg_id, page, home)
            )
            if self.spcm is not None:
                self.spcm.note_frame_swept(frame)
        segment.deleted = True
        del self._segments[segment.seg_id]
        self.tlb.flush_space(segment.seg_id)
        self.page_table.remove_space(segment.seg_id)

    # ------------------------------------------------------------------
    # the four external page-cache management operations
    # ------------------------------------------------------------------

    def set_segment_manager(self, request: SetSegmentManagerRequest) -> None:
        """``SetSegmentManager(seg, manager)``.

        Takes a :class:`~repro.core.api.SetSegmentManagerRequest`.
        """
        self._set_segment_manager(
            self.segment(request.segment), request.manager
        )

    def _set_segment_manager(
        self, segment: Segment, manager: SegmentManager
    ) -> None:
        """Reassign a segment's manager."""
        if self.tracer.enabled:
            self.tracer.event(
                "kernel",
                f"SetSegmentManager: {segment.name} -> {manager.name}",
                self.costs.vpp_set_manager_call,
            )
        self.meter.charge("set_manager", self.costs.vpp_set_manager_call)
        self.stats.set_manager_calls += 1
        if segment.manager is not None:
            segment.manager.managed.discard(segment.seg_id)
        segment.manager = manager
        manager.managed.add(segment.seg_id)

    def migrate_pages(self, request: MigratePagesRequest) -> None:
        """``MigratePages``: move frames from one segment to another.

        Takes a :class:`~repro.core.api.MigratePagesRequest`.  A
        ``home_node`` hint splits the moved pages into the local/remote
        counts and charges the DASH remote penalty for off-node frames.

        Migration is the *only* way frames change segments, which is what
        makes the frame-conservation invariant checkable.  Migrating into a
        segment is a write for protection/COW purposes (S2.1): the
        destination must be writable, and a frame arriving at a page still
        shared with a COW source receives a copy of the source data.
        Frames flagged ``ZERO_FILL`` are zeroed in transit (the
        "given to another user" case).

        Bound regions are honored on both sides: "The MigratePages
        operation operates on the page frames in bound regions by
        operating on the associated segments" (S2.1) --- migrating a
        frame to a VAS address range covered by a binding effectively
        migrates it to the bound segment.  The whole page range must lie
        within one binding (or none).
        """
        self._migrate_request(request)

    def migrate_pages_batch(self, request: BatchMigratePagesRequest) -> None:
        """Several ``MigratePages`` runs in one kernel entry.

        The first run is charged the full ``vpp_migrate_call``;
        subsequent runs only the marginal ``vpp_migrate_batch_extra`` ---
        the batch crosses into the kernel once, the way the paper
        amortizes batched ``MigratePages``.  The sharded SPCM uses this
        to group per-node frame grabs into one shard transaction, and
        the serving layer's batch scheduler coalesces per-(manager,
        node) refills the same way.

        Takes a :class:`~repro.core.api.BatchMigratePagesRequest`.
        """
        runs = request.requests
        if not runs:
            return
        self.stats.migrate_batches += 1
        for i, run in enumerate(runs):
            cost = (
                self.costs.vpp_migrate_call
                if i == 0
                else self.costs.vpp_migrate_batch_extra
            )
            self._migrate_request(run, call_cost_us=cost)

    def _migrate_request(
        self,
        request: MigratePagesRequest,
        call_cost_us: float | None = None,
    ) -> None:
        """Execute one migrate request and count its NUMA placement."""
        (
            src_id, dst_id, src_page, dst_page, n_pages,
            set_flags, clear_flags, home_node,
        ) = request
        segments = self._segments
        try:
            src = segments[src_id]
            dst = segments[dst_id]
        except KeyError as missing:
            raise SegmentError(f"no such segment: {missing.args[0]}") from None
        cost = (
            self.costs.vpp_migrate_call if call_cost_us is None else call_cost_us
        )
        topology = self.topology
        # the moved frames are collected only for a NUMA split: without a
        # hint or a topology every page counts as local
        moved: list[PageFrame] | None = (
            None if home_node is None or topology is None else []
        )
        if not self.tracer.enabled:
            self._migrate_pages(
                src, dst, src_page, dst_page, n_pages,
                set_flags, clear_flags, cost, moved,
            )
        else:
            with self.tracer.span(
                "kernel",
                "MigratePages",
                src=src.name,
                dst=dst.name,
                dst_page=dst_page,
                n_pages=n_pages,
            ):
                self._migrate_pages(
                    src, dst, src_page, dst_page, n_pages,
                    set_flags, clear_flags, cost, moved,
                )
        stats = self.stats
        if moved is None:
            stats.numa_local_pages += n_pages
            return
        local = sum(
            1 for frame in moved if topology.is_local(home_node, frame.phys_addr)
        )
        remote = n_pages - local
        if remote:
            penalty = self.costs.numa_remote_penalty_us * remote
            if penalty > 0:
                self.meter.charge("numa_remote_placement", penalty)
        stats.numa_local_pages += local
        stats.numa_remote_pages += remote

    def _migrate_pages(
        self,
        src: Segment,
        dst: Segment,
        src_page: int,
        dst_page: int,
        n_pages: int,
        set_flags: PageFlags,
        clear_flags: PageFlags,
        call_cost_us: float,
        moved: list[PageFrame] | None,
    ) -> None:
        """Move the frames; appends each to ``moved`` unless it is None."""
        # unbound segments (the common fault path) skip the binding walk
        # and take its range/grow checks inline; a range that fits raises
        # nothing, so the segment's own check runs only to raise
        if src.bindings:
            src, src_page = self._through_bindings(src, src_page, n_pages)
        elif n_pages <= 0 or src_page < 0 or src_page + n_pages > src.n_pages:
            src.check_page_range(src_page, n_pages)
        if dst.bindings:
            dst, dst_page = self._through_bindings(
                dst, dst_page, n_pages, allow_grow=True
            )
        else:
            end = dst_page + n_pages
            if dst.auto_grow and end > dst.n_pages:
                dst.ensure_size(end)
            if n_pages <= 0 or dst_page < 0 or end > dst.n_pages:
                dst.check_page_range(dst_page, n_pages)
        self.meter.charge("migrate_pages", call_cost_us)
        stats = self.stats
        stats.migrate_calls += 1
        attribution = self._attribution
        if attribution:
            by_manager = stats.migrate_calls_by_manager
            name = attribution[-1]
            by_manager[name] = by_manager.get(name, 0) + 1
        if src.page_size != dst.page_size:
            raise MigrationError(
                f"page size mismatch: {src.page_size} vs {dst.page_size}"
            )
        if not (int(dst.prot) & WRITE_I):
            raise ProtectionError(
                f"migration into read-only segment {dst.name}"
            )
        set_i = int(set_flags)
        clear_i = int(clear_flags)
        unsupported = (set_i | clear_i) & ~_MANAGER_SETTABLE_I
        if unsupported:
            raise MigrationError(
                f"flags not manager-settable: {unsupported:#x}"
            )
        src_pages = src.pages
        dst_pages = dst.pages
        not_clear_i = ~clear_i
        dst_seg_id = dst.seg_id
        frame_translations = self._frame_translations
        # One page between two plain-dict segments, with no copy to make
        # (every park and supply of the pressure path), needs no range
        # walk: a frame that is there, bound for an empty page and not
        # flagged ZERO_FILL moves here.  Anything else, every refusal
        # included, takes the general path.
        frame = None
        if (
            n_pages == 1
            and type(src_pages) is dict
            and type(dst_pages) is dict
            and dst.cow_source is None
            and dst_page not in dst_pages
        ):
            frame = src_pages.get(src_page)
            if frame is not None and frame.flags & ZERO_FILL_I:
                frame = None
        if frame is not None:
            del src_pages[src_page]
            keys = frame_translations.pop(frame.pfn, None)
            if keys:
                self._shoot_down(keys)
            frame.flags = (frame.flags | set_i) & not_clear_i
            dst_pages[dst_page] = frame
            frame.owner_segment_id = dst_seg_id
            frame.page_index = dst_page
            if moved is not None:
                moved.append(frame)
        else:
            # the general path: validate the whole range before mutating
            # anything
            for i in range(n_pages):
                if src_page + i not in src_pages:
                    raise MigrationError(
                        f"source page {src_page + i} of {src.name} has no frame"
                    )
                if dst_page + i in dst_pages:
                    raise MigrationError(
                        f"destination page {dst_page + i} of {dst.name} is "
                        "already backed"
                    )
            if type(dst_pages) is HomePages:
                # a boot segment takes back each page's own frame only
                for i in range(n_pages):
                    pfn = src_pages[src_page + i].pfn
                    if pfn != dst_pages.first_pfn + dst_page + i:
                        raise MigrationError(
                            f"frame pfn={pfn} cannot go to page {dst_page + i}"
                            f" of {dst.name}: it is not that page's frame"
                        )
            dst_cow = dst.cow_source
            for i in range(n_pages):
                page = dst_page + i
                frame = src_pages.pop(src_page + i)
                # translation shootdown: every cached translation naming a
                # moved frame is dropped here
                keys = frame_translations.pop(frame.pfn, None)
                if keys:
                    self._shoot_down(keys)
                flags = frame.flags
                if flags & ZERO_FILL_I:
                    frame.zero()
                    flags &= ~ZERO_FILL_I
                    self.meter.charge("zero_fill", self.costs.zero_page)
                    stats.zero_fills += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "zeroing",
                            f"zero-fill frame pfn={frame.pfn} in transit",
                            self.costs.zero_page,
                        )
                flags = (flags | set_i) & not_clear_i
                # COW privatization: the arriving frame takes a copy of the
                # still-shared source page ("the kernel performs the copy
                # after the manager has allocated a page", S2.1).
                if dst_cow is not None and page not in dst_pages:
                    source_res = (
                        dst_cow.resolve(page) if page < dst_cow.n_pages else None
                    )
                    if source_res is not None and source_res.frame is not None:
                        frame.copy_from(source_res.frame)
                        flags |= DIRTY_I
                        self.meter.charge("cow_copy", self.costs.copy_page)
                        stats.cow_copies += 1
                frame.flags = flags
                dst_pages[page] = frame
                frame.owner_segment_id = dst_seg_id
                frame.page_index = page
                if moved is not None:
                    moved.append(frame)
        stats.pages_migrated += n_pages
        if self.tracer.enabled:
            self.tracer.step(
                "kernel",
                f"MigratePages: {n_pages} frame(s) {src.name} -> {dst.name}"
                f" page {dst_page}",
                self.costs.vpp_migrate_call,
            )

    def modify_page_flags(
        self, request: ModifyPageFlagsRequest
    ) -> ModifyPageFlagsResult:
        """``ModifyPageFlags``: flag changes without migration.

        Takes a :class:`~repro.core.api.ModifyPageFlagsRequest`; returns a
        :class:`~repro.core.api.ModifyPageFlagsResult` with the number of
        present pages modified.  Reducing protection, or clearing
        REFERENCED or DIRTY, shoots down any cached translations so the
        next access (or, for DIRTY, the next store) re-enters the kernel
        --- this is how a manager arranges to see references (the clock
        algorithm) or writes.
        """
        seg_id, page, n_pages, set_flags, clear_flags = request
        try:
            segment = self._segments[seg_id]
        except KeyError:
            raise SegmentError(f"no such segment: {seg_id}") from None
        if self.tracer.enabled:
            self.tracer.event(
                "kernel",
                f"ModifyPageFlags: {n_pages} page(s) of {segment.name} "
                f"at {page} (+{set_flags!r} -{clear_flags!r})",
                self.costs.vpp_modify_flags_call,
            )
        self.meter.charge("modify_flags", self.costs.vpp_modify_flags_call)
        self.stats.modify_flags_calls += 1
        set_i = int(set_flags)
        clear_i = int(clear_flags)
        unsupported = (set_i | clear_i) & ~_MANAGER_SETTABLE_I
        if unsupported:
            raise SegmentError(
                f"flags not manager-settable: {unsupported:#x}"
            )
        if n_pages <= 0 or page < 0 or page + n_pages > segment.n_pages:
            segment.check_page_range(page, n_pages)
        modified = 0
        shoots_down = clear_i & _SHOOTDOWN_I
        not_clear_i = ~clear_i
        segment_pages = segment.pages
        frame_translations = self._frame_translations
        # one page (every clock second chance) walks a 1-tuple
        for index in (page,) if n_pages == 1 else range(page, page + n_pages):
            frame = segment_pages.get(index)
            if frame is None:
                continue
            frame.flags = (frame.flags | set_i) & not_clear_i
            if shoots_down:
                keys = frame_translations.pop(frame.pfn, None)
                if keys:
                    self._shoot_down(keys)
            modified += 1
        return _new_tuple(ModifyPageFlagsResult, (modified,))

    def get_page_attributes(
        self, request: GetPageAttributesRequest
    ) -> GetPageAttributesResult:
        """``GetPageAttributes``: flags plus physical frame addresses.

        Takes a :class:`~repro.core.api.GetPageAttributesRequest`; returns
        a :class:`~repro.core.api.GetPageAttributesResult` with a tuple of
        :class:`~repro.core.api.PageAttribute`.

        Exposing the physical address is deliberate --- it is what lets an
        application implement page coloring and physical placement (S1).
        """
        segment = self.segment(request.segment)
        page = request.page
        n_pages = request.n_pages
        if self.tracer.enabled:
            self.tracer.event(
                "kernel",
                f"GetPageAttributes: {n_pages} page(s) of {segment.name} "
                f"at {page}",
                self.costs.vpp_get_attributes_call,
            )
        self.meter.charge("get_attributes", self.costs.vpp_get_attributes_call)
        self.stats.get_attributes_calls += 1
        segment.check_page_range(page, n_pages)
        result = []
        for i in range(n_pages):
            frame = segment.pages.get(page + i)
            if frame is None:
                result.append(
                    PageAttribute(page + i, False, PageFlags.NONE, None, None)
                )
            else:
                result.append(
                    PageAttribute(
                        page + i,
                        True,
                        PageFlags(frame.flags),
                        frame.pfn,
                        frame.phys_addr,
                    )
                )
        return GetPageAttributesResult(tuple(result))

    # ------------------------------------------------------------------
    # memory references and fault handling
    # ------------------------------------------------------------------

    def reference(
        self, space: Segment, vaddr: int, write: bool = False
    ) -> PageFrame:
        """One CPU reference to ``vaddr`` in address space ``space``.

        Follows the hardware path: TLB, then the global hash page table
        (a kernel software refill), then the full segment-structure walk,
        faulting to the responsible segment manager as needed.  Dirty
        tracking uses the classic write-protect-until-first-store scheme,
        so managers reading DIRTY via ``GetPageAttributes`` see exact
        information.

        When a fault injector is installed, the access may additionally
        raise an ECC machine check: the kernel retires the bad frame and
        re-runs the reference, which re-faults so the manager refills the
        page into a healthy frame.
        """
        frame = self._reference(space, vaddr, write)
        if not self.memory.injector.enabled:
            return frame
        for _ in range(2):
            if not self.memory.ecc_failure(frame):
                break
            self.retire_frame(frame)
            frame = self._reference(space, vaddr, write)
        return frame

    def _reference(
        self, space: Segment, vaddr: int, write: bool
    ) -> PageFrame:
        self.stats.references += 1
        vpn = vaddr // space.page_size
        if vaddr < 0 or vpn >= space.n_pages:
            raise SegmentError(
                f"address {vaddr:#x} outside space {space.name}"
            )
        payload = self.tlb.lookup(space.seg_id, vpn)
        if payload is not None:
            pfn, writable = payload  # type: ignore[misc]
            if not write or writable:
                return self.memory.frame(pfn)
        entry = self.page_table.lookup(space.seg_id, vpn)
        if entry is not None:
            writable = bool(entry.prot & WRITE_I)
            if not write or writable:
                self.meter.charge("tlb_refill", self.costs.tlb_refill)
                self.tlb.insert(space.seg_id, vpn, (entry.pfn, writable))
                return self.memory.frame(entry.pfn)
        if self.tracer.enabled or self._fault_listeners:
            return self.observed_fault(
                space, vpn, write, self._traced_slow_reference
            )
        return self._handle_slow_reference(space, vpn, write)

    def _traced_slow_reference(
        self, space: Segment, vpn: int, write: bool
    ) -> PageFrame:
        """The slow path inside its ``page_fault`` span, when tracing."""
        if not self.tracer.enabled:
            return self._handle_slow_reference(space, vpn, write)
        with self.tracer.span(
            "application",
            "page_fault",
            space=space.name,
            vpn=vpn,
            write=write,
        ):
            return self._handle_slow_reference(space, vpn, write)

    def observed_fault(self, space: Segment, vpn: int, write: bool, service):
        """Run ``service(space, vpn, write)`` as one fault service seen by
        the :meth:`on_fault_serviced` listeners; returns its frame.

        Only the outermost service is one end-to-end latency observation
        (a manager's fill may itself fault), so a service nested in
        another notifies nobody.  The reference slow path and the UIO
        block interface's faults both come through here; with no
        listeners this is just the call.
        """
        if not self._fault_listeners:
            return service(space, vpn, write)
        before = self.meter.total_us
        self._fault_depth += 1
        frame: PageFrame | None = None
        try:
            frame = service(space, vpn, write)
            return frame
        finally:
            self._fault_depth -= 1
            if self._fault_depth == 0 and self._fault_listeners:
                latency = self.meter.total_us - before
                pfn = frame.pfn if frame is not None else None
                for listener in self._fault_listeners:
                    try:
                        listener(space, vpn, write, latency, pfn)
                    except Exception:
                        self.stats.listener_errors += 1

    def on_fault_serviced(self, listener) -> None:
        """Call ``listener(space, vpn, write, latency_us, pfn)`` after each
        outermost fault service (:meth:`observed_fault`).

        A service is a reference's slow path (fault service or slow
        reinstall), where ``space`` is the address space and ``vpn`` the
        virtual page, or a UIO read or write of a file page with no frame,
        where they are the file segment and its page.  ``latency_us`` is
        the metered simulated cost of the whole service (dispatches,
        retries, and failovers included); ``pfn`` is the resolved frame
        number, or ``None`` when the service raised.  Telemetry, the SLO
        watchdog, the verify harness's digest chain and the serving
        layer's per-tenant billing subscribe here; with no listeners (and
        no tracer) the fast path is untouched.

        Listeners are observability, never control flow: an exception a
        listener raises is swallowed (counted in
        ``KernelStats.listener_errors``), the remaining listeners still
        run, the listener stays subscribed, and the fault outcome is
        unaffected.
        """
        self._fault_listeners.append(listener)

    def _handle_slow_reference(
        self, space: Segment, vpn: int, write: bool
    ) -> PageFrame:
        self.meter.charge("trap", self.costs.trap_entry_exit)
        if self.tracer.enabled:
            access = "write" if write else "read"
            self.tracer.step(
                "application",
                f"{access} of page {vpn} traps to kernel",
                self.costs.trap_entry_exit,
            )
        supervisor = self.supervisor
        needed_i = WRITE_I if write else READ_I
        for attempt in range(MAX_FAULT_RETRIES + 1):
            res = space.resolve(vpn, for_write=write)
            # a resolution with a frame that grants the access (a COW
            # resolution has no frame) needs no fault
            if res.frame is not None and int(res.prot) & needed_i:
                # tested inline: a healthy fault makes no call
                if supervisor._failover_pending:
                    supervisor.fault_ended(resolved=True)
                return self._install_and_touch(
                    space, vpn, res, write, post_fault=attempt > 0
                )
            if attempt == MAX_FAULT_RETRIES:
                break
            fault = self._fault_from_resolution(space, vpn, write, res)
            if attempt >= FAILOVER_AFTER_ATTEMPTS and supervisor.distrust(
                fault, attempt
            ):
                continue  # re-resolve; the next delivery goes to the fallback
            self.dispatch_fault(fault)
        supervisor.fault_ended(resolved=False)
        raise UnresolvedFaultError(
            f"fault on page {vpn} of {space.name} persisted after "
            f"{MAX_FAULT_RETRIES} manager invocations"
        )

    def _fault_from_resolution(
        self, space: Segment, vpn: int, write: bool, res: ResolvedPage
    ) -> PageFault:
        """The fault a resolution that does not grant the access raises."""
        if res.needs_cow:
            kind = COPY_ON_WRITE
            write = True
        elif res.frame is None:
            kind = MISSING_PAGE
        else:
            kind = PROTECTION
        # (segment_id, page, kind, write, space_id, vaddr)
        return PageFault(
            res.owner.seg_id,
            res.page,
            kind,
            write,
            space.seg_id,
            vpn * space.page_size,
        )

    def _install_and_touch(
        self,
        space: Segment,
        vpn: int,
        res: ResolvedPage,
        write: bool,
        post_fault: bool,
    ) -> PageFrame:
        """Install a translation and set REFERENCED/DIRTY.

        A translation is installed writable only once the page is dirty,
        so the first store to a clean page re-enters the kernel (cheap)
        and dirties it --- exact dirty information for managers.  The
        mapping-update cost after a fault is part of ``MigratePages``
        ("the kernel manages hardware-supported VM translation tables",
        S2.1), so only non-fault installs charge ``map_update``.
        """
        frame = res.frame
        assert frame is not None
        if write:
            frame.flags |= REFERENCED_I | DIRTY_I
        else:
            frame.flags |= REFERENCED_I
        if not post_fault:
            self.meter.charge("map_update", self.costs.map_update)
        prot_i = int(res.prot)
        writable = (prot_i & WRITE_I) != 0 and (frame.flags & DIRTY_I) != 0
        # (space_id, vpn, pfn, prot)
        entry = Translation(
            space.seg_id,
            vpn,
            frame.pfn,
            (prot_i & READ_I) | (WRITE_I if writable else 0),
        )
        self.page_table.insert(entry)
        self.tlb.insert(space.seg_id, vpn, (frame.pfn, writable))
        translations = self._frame_translations
        bucket = translations.get(frame.pfn)
        if bucket is None:
            bucket = translations[frame.pfn] = set()
        bucket.add((space.seg_id, vpn))
        return frame

    def dispatch_fault(self, fault: PageFault) -> None:
        """Forward a fault to the responsible segment manager (Figure 2).

        Charges the dispatch and hands the fault to the
        :class:`~repro.core.supervisor.ManagerSupervisor`, which charges
        the control transfer for the manager's invocation mode, invokes
        the handler, and charges resumption.  When the manager fails
        instead of replying (its segments failed over, or recovery
        restarted it), the fault is dispatched again.
        """
        segment = self._segments.get(fault.segment_id)
        if segment is None:
            raise SegmentError(f"no such segment: {fault.segment_id}")
        manager = segment.manager
        if manager is None:
            raise NoManagerError(
                f"segment {segment.name} has no manager for "
                f"{fault.describe()}"
            )
        if not self.tracer.enabled:
            return self._dispatch_fault(segment, manager, fault)
        with self.tracer.span(
            "kernel",
            "dispatch_fault",
            kind=fault.kind.name,
            segment=segment.name,
            page=fault.page,
            manager=manager.name,
        ):
            return self._dispatch_fault(segment, manager, fault)

    def _dispatch_fault(
        self, segment: Segment, manager: SegmentManager, fault: PageFault
    ) -> None:
        self.meter.charge("fault_dispatch", self.costs.vpp_fault_dispatch)
        stats = self.stats
        stats.faults += 1
        # the member's own name attribute: ``.name`` is a descriptor that
        # runs through enum.py on every read
        kind = fault.kind._name_
        stats.faults_by_kind[kind] = stats.faults_by_kind.get(kind, 0) + 1
        manager_calls = stats.manager_calls
        manager_calls[manager.name] = manager_calls.get(manager.name, 0) + 1
        if self.tracer.enabled:
            self.tracer.step(
                "kernel",
                f"forward {fault.kind.name} fault (segment "
                f"{segment.name}, page {fault.page}) to manager "
                f"{manager.name}",
                self.costs.vpp_fault_dispatch,
            )
        if self.supervisor.deliver(manager, fault):
            self.dispatch_fault(fault)

    def retire_frame(self, frame: PageFrame) -> None:
        """Remove a frame from service after an uncorrectable ECC error.

        The frame leaves its owning segment and joins the retired set;
        the next reference to the page re-faults, so the manager refills
        the data into a healthy frame.
        """
        self.stats.ecc_retirements += 1
        self.meter.charge("ecc_retire", self.costs.trap_entry_exit)
        if self.tracer.enabled:
            self.tracer.step(
                "kernel",
                f"uncorrectable ECC error: retire frame pfn={frame.pfn}",
                self.costs.trap_entry_exit,
            )
        owner = (
            self._segments.get(frame.owner_segment_id)
            if frame.owner_segment_id is not None
            else None
        )
        page = frame.page_index
        if owner is not None and owner.pages.get(page) is frame:
            del owner.pages[page]
        keys = self._frame_translations.pop(frame.pfn, None)
        if keys:
            self._shoot_down(keys)
        frame.owner_segment_id = None
        frame.page_index = None
        frame.flags = 0
        self.retired_frames.add(frame.pfn)
        if self.spcm is not None:
            self.spcm.note_frame_retired(frame, owner, page)

    def _through_bindings(
        self,
        segment: Segment,
        page: int,
        n_pages: int,
        allow_grow: bool = False,
    ) -> tuple[Segment, int]:
        """Resolve a page range through bound regions to the segment that
        actually holds its frames (for MigratePages, S2.1)."""
        seen = 0
        while True:
            if allow_grow and segment.auto_grow:
                segment.ensure_size(page + n_pages)
            segment.check_page_range(page, n_pages)
            binding = segment.binding_covering(page)
            if binding is None:
                return segment, page
            if not binding.covers(page + n_pages - 1):
                raise MigrationError(
                    f"pages [{page}, {page + n_pages}) straddle the "
                    f"boundary of a bound region in {segment.name}"
                )
            page = binding.translate(page)
            segment = binding.target
            seen += 1
            if seen > 64:
                raise MigrationError("binding chain too deep")

    def notify_manager_call(self, manager: SegmentManager) -> None:
        """Record a non-fault manager request forwarded by the kernel
        (file opens/closes and the like --- Table 3 counts these too)."""
        self.stats.note_manager_call(manager.name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _shoot_down(self, keys: set[tuple[int, int]]) -> None:
        """Translation shootdown: drop the cached translations of ``keys``
        (``(space_id, vpn)`` pairs) from the TLB and the page table.

        Callers pop a frame's keys from ``_frame_translations`` inline
        and call this only when there are any: a frame that is moved,
        flagged or retired usually has none.
        """
        tlb = self.tlb
        page_table = self.page_table
        for space_id, vpn in keys:
            tlb.invalidate(space_id, vpn)
            page_table.remove(space_id, vpn)

    # -- invariant support -------------------------------------------------

    def check_frame_conservation(self) -> None:
        """Raise unless every in-service frame is owned by one segment.

        Runs the invariant engine's ``frames`` check: frames retired
        after ECC failures (:meth:`retire_frame`) have left service on
        purpose and are excluded.
        """
        enforce(self, ("frames",))
