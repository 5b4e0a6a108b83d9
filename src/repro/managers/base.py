"""The generic segment manager applications specialize.

"An application segment manager can be 'specialized' from a generic or
standard segment manager using inheritance ... The generic implementation
provides data structures for managing the free page segment and basic page
faulting handling.  The page replacement selection routines and page fill
routines can be easily specialized" (paper, S2.2).

The free-page segment is the manager's private frame stock:

* *free slots* hold an allocatable frame;
* *empty slots* hold no frame (their frame was migrated out to satisfy a
  fault) and are reused when pages are reclaimed back in;
* reclaimed pages keep their data, and the manager remembers where each
  came from --- a fault on a page whose frame is still sitting in the free
  segment is satisfied by migrating the same frame straight back ("the
  manager simply migrates it back to the original segment", S2.2).

Subclass hooks: :meth:`fill_page` (page-in policy), :meth:`writeback`
(page-out policy), :meth:`select_victims` (replacement policy),
:meth:`on_protection_fault`, and the frame-choice point of the one supply
path, :meth:`_supply_page`:

* ``choose_slot(segment, fault)`` picks the free slot whose frame backs
  the page (placement policy: page coloring, NUMA home nodes), usually
  through :meth:`take_slot`, which takes the newest free slot whose frame
  passes a test;
* ``home_node_for(segment)`` gives the ``MigratePages`` placement hint.

Both are ``None`` unless a subclass defines them, so the default fault
path makes no call for them.  A reclaimed page's frame still comes
straight back through the migrate-back fast path before either is asked.

Every change to the policy structures (the free and empty slot lists,
the resident set and the two migrate-back maps) is one of three
transitions.  Each is made by one helper, which the live path calls
next to the kernel call that moves the frames and
:meth:`~GenericSegmentManager.replay_record` calls for the matching
journal record, so replay keeps no bookkeeping of its own:

* :meth:`~GenericSegmentManager._slots_taken` --- slots leave the free
  list, with any migrate-back entry (the allocator, the fast path's
  migrate-back, surrender and seizure; records ``mgr.alloc``,
  ``mgr.fastreclaim``, ``mgr.slots_surrendered``);
* :meth:`~GenericSegmentManager._pages_backed` --- taken slots' frames
  now back pages, so the slots join the empty list and the pages the
  resident set (a supplied fault or append run, the fast path, adoption,
  and frames handed back to the SPCM; ``mgr.place``,
  ``mgr.fastreclaim``, ``mgr.adopt``, ``mgr.slots_surrendered``);
* :meth:`~GenericSegmentManager._page_parked` --- a page's frame is
  parked in a free slot, with or without its migrate-back entry
  (reclaim, segment deletion and wholesale discard, all through
  :meth:`~GenericSegmentManager._park_page`; ``mgr.evict``,
  ``mgr.segdel``, ``mgr.discard``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.api import (
    FrameDemand,
    FrameGrant,
    MigratePagesRequest,
    ModifyPageFlagsRequest,
)
from repro.core.faults import MISSING_PAGE, PROTECTION, PageFault
from repro.core.flags import (
    DIRTY_I,
    PINNED_I,
    REFERENCED,
    REFERENCED_DIRTY,
    RW,
)
from repro.core.manager_api import InvocationMode, SegmentManager
from repro.core.segment import Segment
from repro.errors import ManagerError, OutOfFramesError, RecoveryError
from repro.recovery.journal import NULL_JOURNAL
from repro.spcm.spcm import FrameRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.hw.phys_mem import PageFrame
    from repro.spcm.spcm import SystemPageCacheManager


class GenericSegmentManager(SegmentManager):
    """Free-page segment bookkeeping plus basic fault handling."""

    invocation = InvocationMode.IN_PROCESS

    #: frame-choice hooks (see the module docstring); ``None`` keeps the
    #: default: the newest free slot, hinted with :attr:`home_node`
    choose_slot: Callable[[Segment, PageFault], int] | None = None
    home_node_for: Callable[[Segment], int | None] | None = None

    def __init__(
        self,
        kernel: "Kernel",
        spcm: "SystemPageCacheManager",
        name: str,
        initial_frames: int = 64,
        page_size: int | None = None,
        refill_batch: int = 32,
        reclaim_batch: int = 16,
        home_node: int | None = None,
    ) -> None:
        super().__init__(kernel, name)
        self.spcm = spcm
        # recovery hooks: registration below gives the manager its own
        # journal when a recovery coordinator is installed
        self.journal = NULL_JOURNAL
        self.restarts = 0
        self.account = spcm.register_manager(self)
        self.page_size = page_size or kernel.memory.page_size
        #: NUMA node this manager's workload runs on; frame requests are
        #: hinted so the SPCM serves them local-first (None: no preference)
        self.home_node = home_node
        self.refill_batch = refill_batch
        self.reclaim_batch = reclaim_batch
        # one frozen unconstrained request per (n_frames, home_node) asked
        # for: a refill the SPCM defers then builds nothing
        self._plain_requests: dict[tuple[int, int | None], FrameRequest] = {}
        self.free_segment = kernel.create_segment(
            0,
            page_size=self.page_size,
            name=f"{name}.free",
            auto_grow=True,
        )
        self._free_slots: list[int] = []   # slots holding an allocatable frame
        self._empty_slots: list[int] = []  # slots holding no frame
        # reclaim cache: free slot -> origin, and the reverse
        self._stale_origin: dict[int, tuple[int, int]] = {}
        self._stale_slot: dict[tuple[int, int], int] = {}
        # resident pages this manager placed, oldest first (FIFO default);
        # a plain dict keeps insertion order and copies fastest
        self._resident: dict[tuple[int, int], None] = {}
        self.pinned_segments: set[int] = set()
        # counters
        self.faults_handled = 0
        self.fast_reclaims = 0
        self.pages_reclaimed = 0
        self.writebacks = 0
        self.duplicate_deliveries = 0
        if initial_frames:
            self.request_frames(initial_frames)

    # ------------------------------------------------------------------
    # frame stock
    # ------------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return len(self._free_slots)

    @property
    def total_frames(self) -> int:
        """Frames this manager holds (free stock plus resident pages)."""
        return len(self._free_slots) + len(self._resident)

    def request_frames(self, n_frames: int, **constraints) -> int:
        """Ask the SPCM for frames into the free segment; returns count.

        The manager's ``home_node`` rides along as the placement hint
        unless the caller supplies its own.
        """
        if constraints:
            constraints.setdefault("home_node", self.home_node)
            request = FrameRequest(
                self.account, n_frames, page_size=self.page_size, **constraints
            )
        else:
            key = (n_frames, self.home_node)
            request = self._plain_requests.get(key)
            if request is None:
                request = self._plain_requests[key] = FrameRequest(
                    self.account,
                    n_frames,
                    page_size=self.page_size,
                    home_node=self.home_node,
                )
        pages = self.spcm.request_frames(self, request, self.free_segment)
        self._free_slots.extend(pages)
        if pages and self.journal.enabled:
            self.journal.append("mgr.slots_granted", slots=list(pages))
        return len(pages)

    def return_frames(self, n_frames: int, node: int | None = None) -> int:
        """Give free frames back to the SPCM; returns count returned."""
        return self._surrender_slots(n_frames, node).n_frames

    def _surrender_slots(
        self, n_frames: int, node: int | None = None
    ) -> FrameGrant:
        """Hand up to ``n_frames`` free slots back to the SPCM.

        With a ``node`` preference (the arbiter reclaiming a cross-node
        loan), slots whose frames live on that node are surrendered
        first.
        """
        n = min(n_frames, len(self._free_slots))
        if n == 0:
            return FrameGrant.empty()
        # newest slots go first (the historical LIFO order); a node
        # preference pulls that node's frames ahead of the rest
        candidates = list(reversed(self._free_slots))
        topology = self.kernel.topology
        if node is not None and topology is not None:
            candidates.sort(
                key=lambda slot: not topology.is_local(
                    node, self.free_segment.pages[slot].phys_addr
                )
            )
        slots = candidates[:n]
        self._slots_taken(slots)
        self.spcm.return_frames(self, self.free_segment, slots)
        self._pages_backed(slots)
        if self.journal.enabled:
            self.journal.append("mgr.slots_surrendered", slots=list(slots))
        return FrameGrant(tuple(slots), node=node)

    def allocate_slot(self) -> int:
        """A free-segment slot whose frame may be migrated out.

        Refills from the SPCM, then by reclaiming victims; charges the
        manager's allocation work.
        """
        self.kernel.meter.charge(
            "manager_alloc", self.kernel.costs.vpp_manager_alloc
        )
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager",
                f"{self.name} allocates a frame from its free segment",
                self.kernel.costs.vpp_manager_alloc,
            )
        self._maybe_crash_in_alloc()
        return self._pop_slot()

    def allocate_run(self, n_slots: int) -> list[int]:
        """``n_slots`` *contiguous* free-segment slots (for one
        multi-page MigratePages, e.g. 16 KB append allocation), or that
        many single slots when no run can be had."""
        self.kernel.meter.charge(
            "manager_alloc", self.kernel.costs.vpp_manager_alloc
        )
        self._maybe_crash_in_alloc()
        run = self._find_run(n_slots)
        # Fresh SPCM grants are appended, hence contiguous.
        if run is None and self.request_frames(n_slots) == n_slots:
            run = self._find_run(n_slots)
        if run is None:
            # fall back to singles; caller will issue one migrate per slot
            return [self._pop_slot() for _ in range(n_slots)]
        self._slots_taken(run)
        if self.journal.enabled:
            self.journal.append("mgr.alloc", slots=list(run))
        return run

    def take_slot(self, accepts: Callable[["PageFrame"], bool]) -> int | None:
        """The newest free slot whose frame passes ``accepts``, taken the
        way :meth:`allocate_slot` takes one; ``None`` (nothing charged)
        when no free frame passes."""
        pages = self.free_segment.pages
        free = self._free_slots
        for i in range(len(free) - 1, -1, -1):
            if accepts(pages[free[i]]):
                break
        else:
            return None
        self.kernel.meter.charge(
            "manager_alloc", self.kernel.costs.vpp_manager_alloc
        )
        self._maybe_crash_in_alloc()
        slot = free[i]
        self._slots_taken((slot,))
        if self.journal.enabled:
            self.journal.append("mgr.alloc", slots=[slot])
        return slot

    def _pop_slot(self) -> int:
        """Take the newest free slot, refilling the stock from the SPCM
        and then by reclaiming victims when it is dry."""
        if not self._free_slots:
            self.request_frames(self.refill_batch)
        if not self._free_slots:
            self.reclaim_pages(self.reclaim_batch)
        if not self._free_slots:
            raise OutOfFramesError(
                f"manager {self.name} has no frames and could not reclaim"
            )
        slot = self._free_slots[-1]
        self._slots_taken((slot,))
        if self.journal.enabled:
            self.journal.append("mgr.alloc", slots=[slot])
        return slot

    def _maybe_crash_in_alloc(self) -> None:
        """Chaos choke point: the manager can die inside its allocator.

        Every allocator passes it once, after its charge and before any
        slot leaves the free list.  Models a manager crashing
        mid-handler; the kernel's
        :class:`~repro.core.supervisor.ManagerSupervisor` catches the
        resulting :class:`~repro.errors.ManagerCrashError` and fails the
        segment over.  The fallback manager is exempt.
        """
        supervisor = self.kernel.supervisor
        if supervisor.injector.enabled and self is not supervisor.fallback:
            supervisor.injector.manager_alloc(self.name)

    def _find_run(self, n: int) -> list[int] | None:
        """The lowest ``n`` consecutive free slots (the head of the
        lowest free run at least ``n`` long), or ``None``.

        Slots are distinct, so a window of ``n`` sorted slots is
        consecutive exactly when its ends lie ``n - 1`` apart, and the
        first such window starts the lowest run that long.
        """
        free = self._free_slots
        if len(free) < n:
            return None
        ordered = sorted(free)
        span = n - 1
        for i, last in enumerate(ordered[span:]):
            if last - ordered[i] == span:
                return ordered[i : i + n]
        return None

    def charge_io(self, n_bytes: int) -> float:
        """Bill backing-store traffic to this manager's dram account
        (a no-op unless the SPCM runs a market)."""
        return self.spcm.charge_io(self, n_bytes)

    # ------------------------------------------------------------------
    # crash recovery (checkpoint serialization + journal replay)
    # ------------------------------------------------------------------

    def serialize_policy_state(self) -> dict:
        """Checkpointable snapshot of the private policy structures.

        Plain data only (ints, strings, lists) so the canonical encoding
        round-trips through JSON.  Counters ride along for monitoring
        continuity; the exactness contract covers the structures.
        """
        return {
            "free_slots": list(self._free_slots),
            "empty_slots": list(self._empty_slots),
            "stale": [
                [slot, key[0], key[1]]
                for slot, key in self._stale_origin.items()
            ],
            "resident": [[seg, page] for seg, page in self._resident],
            "pinned": sorted(self.pinned_segments),
            "counters": {
                "faults_handled": self.faults_handled,
                "fast_reclaims": self.fast_reclaims,
                "pages_reclaimed": self.pages_reclaimed,
                "writebacks": self.writebacks,
                "duplicate_deliveries": self.duplicate_deliveries,
            },
        }

    def restore_policy_state(self, state: dict | None) -> None:
        """Reincarnate in place from a checkpoint (``None``: fresh boot).

        Wipes every private policy structure --- modeling an exec()ed
        replacement manager process attaching to the same segments ---
        then loads the checkpoint.  Journal-suffix replay and the
        recovery auditor finish the job.
        """
        self._free_slots = []
        self._empty_slots = []
        self._stale_origin = {}
        self._stale_slot = {}
        self._resident = {}
        self.pinned_segments = set()
        self.faults_handled = 0
        self.fast_reclaims = 0
        self.pages_reclaimed = 0
        self.writebacks = 0
        self.duplicate_deliveries = 0
        if state is None:
            return
        self._free_slots = [int(s) for s in state["free_slots"]]
        self._empty_slots = [int(s) for s in state["empty_slots"]]
        for slot, seg, page in state["stale"]:
            self._stale_origin[slot] = (seg, page)
            self._stale_slot[(seg, page)] = slot
        for seg, page in state["resident"]:
            self._resident[(seg, page)] = None
        self.pinned_segments = set(state["pinned"])
        counters = state.get("counters", {})
        self.faults_handled = counters.get("faults_handled", 0)
        self.fast_reclaims = counters.get("fast_reclaims", 0)
        self.pages_reclaimed = counters.get("pages_reclaimed", 0)
        self.writebacks = counters.get("writebacks", 0)
        self.duplicate_deliveries = counters.get("duplicate_deliveries", 0)

    def replay_record(self, record: dict) -> None:
        """Apply one journal record to the policy structures.

        Each record is applied by the transition helper the live path
        called when it was written (never by the emitting methods, which
        would journal again or touch the kernel).  The helpers tolerate
        a missing entry: a log replayed over a checkpoint older than an
        audit repair may name a slot the checkpoint lacks, and the
        auditor reconciles what replay cannot.  A kind with no branch
        raises :class:`~repro.errors.RecoveryError`, so the restart goes
        cold rather than lose state silently.
        """
        kind = record["kind"]
        if kind == "mgr.alloc":
            self._slots_taken(record["slots"])
        elif kind == "mgr.place":
            self._pages_backed(record["slots"], record["seg"], record["pages"])
        elif kind == "mgr.evict":
            self._page_parked(
                record["seg"], record["page"], record["slot"], record["keep"]
            )
        elif kind == "mgr.fastreclaim":
            slots = (record["slot"],)
            self._slots_taken(slots)
            self._pages_backed(slots, record["seg"], (record["page"],))
        elif kind == "mgr.slots_granted":
            self._free_slots.extend(record["slots"])
        elif kind == "mgr.slots_surrendered":
            self._slots_taken(record["slots"])
            self._pages_backed(record["slots"])
        elif kind == "mgr.segdel" or kind == "mgr.discard":
            seg = record["seg"]
            for page, slot in record["moves"]:
                self._page_parked(seg, page, slot, False)
            # a deleted segment is unpinned; a discarded one lives on
            if kind == "mgr.segdel":
                self.pinned_segments.discard(seg)
        elif kind == "mgr.adopt":
            self._pages_backed((), record["seg"], record["pages"])
        elif kind == "mgr.pin":
            self.pinned_segments.add(record["seg"])
        elif kind == "mgr.unpin":
            self.pinned_segments.discard(record["seg"])
        elif kind == "mgr.invalidate":
            self._stale_origin.clear()
            self._stale_slot.clear()
        else:
            raise RecoveryError(
                f"{self.name} has no replay for journal record kind {kind!r}"
            )

    def invalidate_reclaim_cache(self) -> None:
        """Forget the migrate-back cache (reclaimed data no longer valid).

        Used when the reclaimed frames' contents must be treated as lost,
        e.g. when modeling a conventional OS that hands reclaimed frames
        to other processes.
        """
        self._stale_origin.clear()
        self._stale_slot.clear()
        if self.journal.enabled:
            self.journal.append("mgr.invalidate")

    # ------------------------------------------------------------------
    # the three policy-state transitions (live paths and replay)
    # ------------------------------------------------------------------

    def _slots_taken(self, slots: Iterable[int]) -> None:
        """``slots`` leave the free list, and any migrate-back entry
        with them: their frames leave the free segment."""
        free = self._free_slots
        for slot in slots:
            if free and free[-1] == slot:  # the allocator takes the newest
                free.pop()
            elif slot in free:
                free.remove(slot)
            origin = self._stale_origin.pop(slot, None)
            if origin is not None:
                self._stale_slot.pop(origin, None)

    def _pages_backed(
        self,
        slots: Iterable[int],
        seg_id: int = -1,
        pages: Iterable[int] = (),
    ) -> None:
        """Taken ``slots``' frames now back pages --- ``pages`` of segment
        ``seg_id``, or the SPCM's own when no pages are named --- so the
        slots join the empty list and the pages the resident set."""
        self._empty_slots.extend(slots)
        resident = self._resident
        for page in pages:
            resident[(seg_id, page)] = None

    def _page_parked(
        self, seg_id: int, page: int, slot: int, keep: bool
    ) -> None:
        """The frame of ``page`` of segment ``seg_id`` is parked in free
        slot ``slot`` (an empty slot, or one the free segment grew by),
        keeping its migrate-back entry when ``keep``."""
        empty = self._empty_slots
        if empty and empty[-1] == slot:  # reclaim fills the newest
            empty.pop()
        elif slot in empty:
            empty.remove(slot)
        self._free_slots.append(slot)
        key = (seg_id, page)
        self._resident.pop(key, None)
        if keep:
            self._stale_origin[slot] = key
            self._stale_slot[key] = slot

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def handle_fault(self, fault: PageFault) -> None:
        self.faults_handled += 1
        segment = self.kernel.segment(fault.segment_id)
        if fault.kind is PROTECTION:
            self.on_protection_fault(segment, fault)
            return
        if fault.page in segment.pages:
            self._note_duplicate_delivery(segment, fault)
            return
        self._supply_page(segment, fault)

    def _supply_page(self, segment: Segment, fault: PageFault) -> None:
        """Back the page of a counted, first-delivery missing-page or
        copy-on-write fault: migrate its reclaimed frame back if that is
        still in the free segment, else migrate in a newly filled one
        (the slot ``choose_slot`` picks, when a subclass defines it)."""
        key = (fault.segment_id, fault.page)
        home = (
            self.home_node
            if self.home_node_for is None
            else self.home_node_for(segment)
        )
        stale_slot = self._stale_slot.get(key)
        if stale_slot is not None and fault.kind is MISSING_PAGE:
            # The paper's fast path: the frame reclaimed from this page is
            # still in the free segment with its data; migrate it back.
            if self.kernel.tracer.enabled:
                self.kernel.tracer.event(
                    "manager",
                    f"fast reclaim: frame for page {fault.page} of "
                    f"{segment.name} still cached in the free segment",
                )
            slots = (stale_slot,)
            self._slots_taken(slots)
            self.kernel.migrate_pages(
                MigratePagesRequest(
                    self.free_segment.seg_id,
                    fault.segment_id,
                    stale_slot,
                    fault.page,
                    set_flags=RW,
                    home_node=home,
                )
            )
            self._pages_backed(slots, fault.segment_id, (fault.page,))
            self.fast_reclaims += 1
            if self.journal.enabled:
                self.journal.append(
                    "mgr.fastreclaim",
                    seg=fault.segment_id,
                    page=fault.page,
                    slot=stale_slot,
                )
            return
        slot = (
            self.allocate_slot()
            if self.choose_slot is None
            else self.choose_slot(segment, fault)
        )
        frame = self.free_segment.pages[slot]
        if fault.kind is MISSING_PAGE:
            if self.kernel.tracer.enabled:
                with self.kernel.tracer.span(
                    "manager", "fill_page", segment=segment.name,
                    page=fault.page, pfn=frame.pfn,
                ):
                    self.fill_page(segment, fault.page, frame)
            else:
                self.fill_page(segment, fault.page, frame)
        # For COPY_ON_WRITE the kernel copies the source data during the
        # migrate; the manager only supplies the frame.
        self.kernel.migrate_pages(
            MigratePagesRequest(
                self.free_segment.seg_id,
                fault.segment_id,
                slot,
                fault.page,
                set_flags=RW,
                clear_flags=REFERENCED,
                home_node=home,
            )
        )
        self._pages_backed((slot,), fault.segment_id, (fault.page,))
        if self.journal.enabled:
            self.journal.append(
                "mgr.place",
                seg=fault.segment_id,
                pages=[fault.page],
                slots=[slot],
            )
        if self.kernel.tracer.enabled:
            self.kernel.tracer.step(
                "manager",
                f"migrate frame pfn={frame.pfn} into {segment.name} "
                f"page {fault.page}",
            )

    def _note_duplicate_delivery(
        self, segment: Segment, fault: PageFault
    ) -> None:
        """At-least-once IPC: a redelivery of a resolved fault.

        A duplicated fault message arrives after the first delivery
        already resolved the page, so the handler, which tests that
        first, finds the page resident.  The handler must be idempotent:
        note it and do nothing.
        """
        self.duplicate_deliveries += 1
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager",
                f"{self.name}: duplicate fault delivery for page "
                f"{fault.page} of {segment.name}; already resolved",
            )

    def on_protection_fault(self, segment: Segment, fault: PageFault) -> None:
        """Default protection-fault policy: restore full access."""
        self.kernel.modify_page_flags(
            ModifyPageFlagsRequest(
                segment.seg_id,
                fault.page,
                set_flags=RW,
            )
        )

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------

    def fill_page(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        """Fill a frame about to be migrated to ``segment``:``page``.

        The default manager of anonymous memory provides fresh frames
        as-is: V++ does not zero unless the frame changed users, which the
        kernel handles via the ZERO_FILL flag.
        """

    def writeback(
        self, segment: Segment, page: int, frame: "PageFrame"
    ) -> None:
        """Persist a dirty page being reclaimed.  Default: nowhere to put
        anonymous data, so the data simply stays in the frame (and remains
        recoverable through the migrate-back fast path)."""

    def select_victims(self, n_pages: int) -> list[tuple[Segment, int]]:
        """Choose pages to reclaim.  Default: FIFO over resident pages,
        skipping pinned segments and pinned frames."""
        victims: list[tuple[Segment, int]] = []
        for (seg_id, page) in self._resident:
            if len(victims) >= n_pages:
                break
            if seg_id in self.pinned_segments:
                continue
            segment = self.kernel.segment(seg_id)
            frame = segment.pages.get(page)
            if frame is None:
                continue
            if frame.flags & PINNED_I:
                continue
            victims.append((segment, page))
        return victims

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------

    def reclaim_pages(self, n_pages: int) -> int:
        """Reclaim up to ``n_pages`` resident pages into the free stock."""
        victims = self.select_victims(n_pages)
        for segment, page in victims:
            self.reclaim_one(segment, page)
        return len(victims)

    def reclaim_one(
        self, segment: Segment, page: int, keep: bool = True
    ) -> None:
        """Reclaim a specific resident page (writeback if dirty).

        With ``keep`` false the page's data is not to come back (garbage,
        or a discarded dirty intermediate), so the frame is parked without
        a migrate-back entry and a refault fills a fresh frame.
        """
        frame = segment.pages.get(page)
        if frame is None:
            raise ManagerError(
                f"page {page} of {segment.name} is not resident"
            )
        tracer = self.kernel.tracer
        if not tracer.enabled:
            if frame.flags & DIRTY_I:
                self.writeback(segment, page, frame)
            slot = self._park_page(segment, page, keep)
        else:
            with tracer.span(
                "manager",
                "reclaim_page",
                manager=self.name,
                segment=segment.name,
                page=page,
            ):
                if frame.flags & DIRTY_I:
                    with tracer.span(
                        "manager", "writeback", segment=segment.name, page=page
                    ):
                        self.writeback(segment, page, frame)
                slot = self._park_page(segment, page, keep)
        self.pages_reclaimed += 1
        if self.journal.enabled:
            self.journal.append(
                "mgr.evict",
                seg=segment.seg_id,
                page=page,
                slot=slot,
                keep=int(keep),
            )

    def _park_page(self, segment: Segment, page: int, keep: bool) -> int:
        """Migrate a resident page's frame into the newest empty slot of
        the free segment (growing it by one when none is empty) and note
        it parked; returns the slot."""
        free_segment = self.free_segment
        if self._empty_slots:
            slot = self._empty_slots[-1]
        else:
            slot = free_segment.n_pages
            free_segment.grow(1)
        self.kernel.migrate_pages(
            MigratePagesRequest(
                segment.seg_id,
                free_segment.seg_id,
                page,
                slot,
                clear_flags=REFERENCED_DIRTY,
            )
        )
        self._page_parked(segment.seg_id, page, slot, keep)
        return slot

    # ------------------------------------------------------------------
    # kernel events / SPCM pressure
    # ------------------------------------------------------------------

    def segment_deleted(self, segment: Segment) -> None:
        """Reclaim every frame of a dying segment; its data is dead, so
        no writeback and no migrate-back cache entries."""
        self.pinned_segments.discard(segment.seg_id)
        self._drop_pages(segment, "mgr.segdel")

    def _drop_pages(self, segment: Segment, kind: str) -> int:
        """Park every resident page of ``segment`` without writeback or
        migrate-back entry, journaling the ``[page, slot]`` moves as one
        ``kind`` record; returns the number of pages moved."""
        moves = [
            [page, self._park_page(segment, page, False)]
            for page in sorted(segment.pages)
        ]
        if self.journal.enabled:
            self.journal.append(kind, seg=segment.seg_id, moves=moves)
        return len(moves)

    def release_frames(self, demand: FrameDemand) -> FrameGrant:
        """SPCM pressure: surrender frames, reclaiming if needed.

        Takes a :class:`~repro.core.api.FrameDemand` and answers with the
        :class:`~repro.core.api.FrameGrant` of surrendered free-segment
        pages (honoring the demand's node preference).  The manager keeps
        "complete control over which page frames to surrender" ---
        pinned segments are never victimized.
        """
        if len(self._free_slots) < demand.n_frames:
            self.reclaim_pages(demand.n_frames - len(self._free_slots))
        return self._surrender_slots(demand.n_frames, demand.node)

    def adopt_segment(self, segment: Segment) -> FrameGrant:
        """Index a failed manager's resident pages for our reclaim policy."""
        pages = sorted(segment.pages)
        self._pages_backed((), segment.seg_id, pages)
        if self.journal.enabled:
            self.journal.append(
                "mgr.adopt", seg=segment.seg_id, pages=list(pages)
            )
        return FrameGrant(tuple(pages))

    def on_frames_seized(self, grant: FrameGrant) -> None:
        """The SPCM forcibly took these free-segment pages back."""
        self._slots_taken(grant.pages)
        self._pages_backed(grant.pages)
        if self.journal.enabled:
            self.journal.append(
                "mgr.slots_surrendered", slots=list(grant.pages)
            )

    # ------------------------------------------------------------------
    # pinning helpers (S2.2: the manager keeps its own pages in memory)
    # ------------------------------------------------------------------

    def pin_segment(self, segment: Segment) -> None:
        """Exclude a segment's pages from replacement."""
        self.pinned_segments.add(segment.seg_id)
        if self.journal.enabled:
            self.journal.append("mgr.pin", seg=segment.seg_id)

    def unpin_segment(self, segment: Segment) -> None:
        """Re-admit a segment's pages to replacement."""
        self.pinned_segments.discard(segment.seg_id)
        if self.journal.enabled:
            self.journal.append("mgr.unpin", seg=segment.seg_id)

    def resident_pages_of(self, segment: Segment) -> list[int]:
        """Page indices of ``segment`` currently backed by frames."""
        return sorted(segment.pages)
