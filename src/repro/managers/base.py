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
(page-out policy), :meth:`select_victims` (replacement policy), and
:meth:`on_protection_fault`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.api import (
    FrameDemand,
    FrameGrant,
    MigratePagesRequest,
    ModifyPageFlagsRequest,
)
from repro.core.faults import FaultKind, PageFault
from repro.core.flags import PageFlags
from repro.core.manager_api import InvocationMode, SegmentManager
from repro.core.segment import Segment
from repro.errors import ManagerError, OutOfFramesError
from repro.recovery.journal import NULL_JOURNAL
from repro.spcm.spcm import FrameRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel import Kernel
    from repro.hw.phys_mem import PageFrame
    from repro.spcm.spcm import SystemPageCacheManager

# request-flag values hoisted out of the fault path: PageFlags `|` runs
# through Flag.__or__ at Python speed on every construction otherwise
_RW_PROT = PageFlags.READ | PageFlags.WRITE
_CLEAR_REFERENCED = PageFlags.REFERENCED


class GenericSegmentManager(SegmentManager):
    """Free-page segment bookkeeping plus basic fault handling."""

    invocation = InvocationMode.IN_PROCESS

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
        # recovery hooks: registration below swaps in the live journal
        # when a recovery coordinator is installed
        self.journal = NULL_JOURNAL
        self.restarts = 0
        self.account = spcm.register_manager(self)
        self.page_size = page_size or kernel.memory.page_size
        #: NUMA node this manager's workload runs on; frame requests are
        #: hinted so the SPCM serves them local-first (None: no preference)
        self.home_node = home_node
        self.refill_batch = refill_batch
        self.reclaim_batch = reclaim_batch
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
        # resident pages this manager placed, oldest first (FIFO default)
        self._resident: OrderedDict[tuple[int, int], None] = OrderedDict()
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
        constraints.setdefault("home_node", self.home_node)
        pages = self.spcm.request_frames(
            self,
            FrameRequest(
                self.account, n_frames, page_size=self.page_size, **constraints
            ),
            self.free_segment,
        )
        self._free_slots.extend(pages)
        if self.journal.enabled:
            self.journal.append(
                "mgr.slots_granted", self.name, slots=list(pages)
            )
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
        for slot in slots:
            self._free_slots.remove(slot)
            self._drop_stale(slot)
        self.spcm.return_frames(self, self.free_segment, slots)
        self._empty_slots.extend(slots)
        if self.journal.enabled:
            self.journal.append(
                "mgr.slots_surrendered", self.name, slots=list(slots)
            )
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
        if not self._free_slots:
            self.request_frames(self.refill_batch)
        if not self._free_slots:
            self.reclaim_pages(self.reclaim_batch)
        if not self._free_slots:
            raise OutOfFramesError(
                f"manager {self.name} has no frames and could not reclaim"
            )
        slot = self._free_slots.pop()
        self._drop_stale(slot)
        if self.journal.enabled:
            self.journal.append("mgr.alloc", self.name, slot=slot)
        return slot

    def allocate_run(self, n_slots: int) -> list[int]:
        """``n_slots`` *contiguous* free-segment slots (for one
        multi-page MigratePages, e.g. 16 KB append allocation)."""
        self.kernel.meter.charge(
            "manager_alloc", self.kernel.costs.vpp_manager_alloc
        )
        run = self._find_run(n_slots)
        if run is None:
            # Fresh SPCM grants are appended, hence contiguous.
            got = self.request_frames(n_slots)
            if got == n_slots:
                run = self._find_run(n_slots)
        if run is None:
            # fall back to singles; caller will issue one migrate per slot
            return [self._pop_slot() for _ in range(n_slots)]
        for slot in run:
            self._free_slots.remove(slot)
            self._drop_stale(slot)
        if self.journal.enabled:
            self.journal.append("mgr.allocrun", self.name, slots=list(run))
        return run

    def _pop_slot(self) -> int:
        self._maybe_crash_in_alloc()
        if not self._free_slots:
            self.request_frames(self.refill_batch)
        if not self._free_slots:
            self.reclaim_pages(self.reclaim_batch)
        if not self._free_slots:
            raise OutOfFramesError(f"manager {self.name} is out of frames")
        slot = self._free_slots.pop()
        self._drop_stale(slot)
        if self.journal.enabled:
            self.journal.append("mgr.alloc", self.name, slot=slot)
        return slot

    def _maybe_crash_in_alloc(self) -> None:
        """Chaos choke point: the manager can die inside its allocator.

        Models a manager crashing mid-handler; the kernel's
        :class:`~repro.core.supervisor.ManagerSupervisor` catches the
        resulting :class:`~repro.errors.ManagerCrashError` and fails the
        segment over.  The fallback manager is exempt.
        """
        supervisor = self.kernel.supervisor
        if supervisor.injectable(self):
            supervisor.injector.manager_alloc(self.name)

    def _find_run(self, n: int) -> list[int] | None:
        if len(self._free_slots) < n:
            return None
        ordered = sorted(self._free_slots)
        start = 0
        for i in range(1, len(ordered) + 1):
            if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
                if i - start >= n:
                    return ordered[start : start + n]
                start = i
        return None

    def charge_io(self, n_bytes: int) -> float:
        """Bill backing-store traffic to this manager's dram account
        (a no-op unless the SPCM runs a market)."""
        return self.spcm.charge_io(self, n_bytes)

    def stats_dict(self) -> dict[str, float]:
        """Flat values for a metrics-registry provider."""
        return {
            "faults_handled": float(self.faults_handled),
            "fast_reclaims": float(self.fast_reclaims),
            "pages_reclaimed": float(self.pages_reclaimed),
            "writebacks": float(self.writebacks),
            "free_frames": float(self.free_frames),
            "resident_pages": float(len(self._resident)),
            "duplicate_deliveries": float(self.duplicate_deliveries),
        }

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
        self._resident = OrderedDict()
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

        Mutates the structures directly (never through the emitting
        methods, which would journal again or touch the kernel).  Kinds
        outside the ``mgr.`` namespace are ground-truth records for the
        auditor and are ignored here.  Removals are tolerant --- after a
        torn journal the referenced entry may already be gone; the
        auditor reconciles what replay cannot.
        """
        kind = str(record.get("kind", ""))
        if not kind.startswith("mgr."):
            return
        if kind == "mgr.slots_granted":
            self._free_slots.extend(record["slots"])
        elif kind == "mgr.slots_surrendered":
            for slot in record["slots"]:
                if slot in self._free_slots:
                    self._free_slots.remove(slot)
                self._drop_stale(slot)
            self._empty_slots.extend(record["slots"])
        elif kind == "mgr.alloc":
            slot = record["slot"]
            if slot in self._free_slots:
                self._free_slots.remove(slot)
            self._drop_stale(slot)
        elif kind == "mgr.allocrun":
            for slot in record["slots"]:
                if slot in self._free_slots:
                    self._free_slots.remove(slot)
                self._drop_stale(slot)
        elif kind == "mgr.place":
            self._empty_slots.append(record["slot"])
            self._resident[(record["seg"], record["page"])] = None
        elif kind == "mgr.fastreclaim":
            key = (record["seg"], record["page"])
            slot = record["slot"]
            self._stale_slot.pop(key, None)
            self._stale_origin.pop(slot, None)
            if slot in self._free_slots:
                self._free_slots.remove(slot)
            self._empty_slots.append(slot)
            self._resident[key] = None
        elif kind == "mgr.evict":
            slot = record["slot"]
            # a grown slot never sat in the recycling list; the kernel-side
            # segment growth itself survives the crash
            if not record["grew"] and slot in self._empty_slots:
                self._empty_slots.remove(slot)
            self._free_slots.append(slot)
            key = (record["seg"], record["page"])
            self._stale_origin[slot] = key
            self._stale_slot[key] = slot
            self._resident.pop(key, None)
        elif kind == "mgr.segdel":
            seg = record["seg"]
            for page, slot, grew in record["moves"]:
                if not grew and slot in self._empty_slots:
                    self._empty_slots.remove(slot)
                self._free_slots.append(slot)
                self._resident.pop((seg, page), None)
            self.pinned_segments.discard(seg)
        elif kind == "mgr.adopt":
            for page in record["pages"]:
                self._resident[(record["seg"], page)] = None
        elif kind == "mgr.seized":
            seized = set(record["slots"])
            self._free_slots = [
                s for s in self._free_slots if s not in seized
            ]
            for slot in record["slots"]:
                self._drop_stale(slot)
            self._empty_slots.extend(record["slots"])
        elif kind == "mgr.pin":
            self.pinned_segments.add(record["seg"])
        elif kind == "mgr.unpin":
            self.pinned_segments.discard(record["seg"])
        elif kind == "mgr.invalidate":
            self._stale_origin.clear()
            self._stale_slot.clear()

    def invalidate_reclaim_cache(self) -> None:
        """Forget the migrate-back cache (reclaimed data no longer valid).

        Used when the reclaimed frames' contents must be treated as lost,
        e.g. when modeling a conventional OS that hands reclaimed frames
        to other processes.
        """
        self._stale_origin.clear()
        self._stale_slot.clear()
        if self.journal.enabled:
            self.journal.append("mgr.invalidate", self.name)

    def _drop_stale(self, slot: int) -> None:
        origin = self._stale_origin.pop(slot, None)
        if origin is not None:
            self._stale_slot.pop(origin, None)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------

    def handle_fault(self, fault: PageFault) -> None:
        self.faults_handled += 1
        segment = self.kernel.segment(fault.segment_id)
        if fault.kind is FaultKind.PROTECTION:
            self.on_protection_fault(segment, fault)
            return
        if self._duplicate_delivery(segment, fault):
            return
        key = (fault.segment_id, fault.page)
        stale_slot = self._stale_slot.get(key)
        if stale_slot is not None and fault.kind is FaultKind.MISSING_PAGE:
            # The paper's fast path: the frame reclaimed from this page is
            # still in the free segment with its data; migrate it back.
            if self.kernel.tracer.enabled:
                self.kernel.tracer.event(
                    "manager",
                    f"fast reclaim: frame for page {fault.page} of "
                    f"{segment.name} still cached in the free segment",
                )
            self._stale_slot.pop(key)
            self._stale_origin.pop(stale_slot)
            self._free_slots.remove(stale_slot)
            self.kernel.migrate_pages(
                MigratePagesRequest(
                    self.free_segment.seg_id,
                    fault.segment_id,
                    stale_slot,
                    fault.page,
                    set_flags=_RW_PROT,
                    home_node=self.home_node,
                )
            )
            self._empty_slots.append(stale_slot)
            self._note_resident(segment, fault.page)
            self.fast_reclaims += 1
            if self.journal.enabled:
                self.journal.append(
                    "mgr.fastreclaim",
                    self.name,
                    seg=fault.segment_id,
                    page=fault.page,
                    slot=stale_slot,
                )
            return
        slot = self.allocate_slot()
        frame = self.free_segment.pages[slot]
        if fault.kind is FaultKind.MISSING_PAGE:
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
                set_flags=_RW_PROT,
                clear_flags=_CLEAR_REFERENCED,
                home_node=self.home_node,
            )
        )
        self._empty_slots.append(slot)
        self._note_resident(segment, fault.page)
        if self.journal.enabled:
            self.journal.append(
                "mgr.place",
                self.name,
                seg=fault.segment_id,
                page=fault.page,
                slot=slot,
            )
        if self.kernel.trace is not None or self.kernel.tracer.enabled:
            self.kernel._step(
                "manager",
                f"migrate frame pfn={frame.pfn} into {segment.name} "
                f"page {fault.page}",
            )

    def _duplicate_delivery(self, segment: Segment, fault: PageFault) -> bool:
        """At-least-once IPC: is this a redelivery of a resolved fault?

        A duplicated fault message arrives after the first delivery
        already resolved the page, so it finds the page resident.  The
        handler must be idempotent: note it and do nothing.
        """
        if fault.page not in segment.pages:
            return False
        self.duplicate_deliveries += 1
        if self.kernel.tracer.enabled:
            self.kernel.tracer.event(
                "manager",
                f"{self.name}: duplicate fault delivery for page "
                f"{fault.page} of {segment.name}; already resolved",
            )
        return True

    def on_protection_fault(self, segment: Segment, fault: PageFault) -> None:
        """Default protection-fault policy: restore full access."""
        self.kernel.modify_page_flags(
            ModifyPageFlagsRequest(
                segment,
                fault.page,
                set_flags=_RW_PROT,
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
            if PageFlags.PINNED & PageFlags(frame.flags):
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

    def reclaim_one(self, segment: Segment, page: int) -> None:
        """Reclaim a specific resident page (writeback if dirty)."""
        if not self.kernel.tracer.enabled:
            return self._reclaim_one(segment, page)
        with self.kernel.tracer.span(
            "manager",
            "reclaim_page",
            manager=self.name,
            segment=segment.name,
            page=page,
        ):
            return self._reclaim_one(segment, page)

    def _reclaim_one(self, segment: Segment, page: int) -> None:
        frame = segment.pages.get(page)
        if frame is None:
            raise ManagerError(
                f"page {page} of {segment.name} is not resident"
            )
        if PageFlags.DIRTY & PageFlags(frame.flags):
            if self.kernel.tracer.enabled:
                with self.kernel.tracer.span(
                    "manager", "writeback", segment=segment.name, page=page
                ):
                    self.writeback(segment, page, frame)
            else:
                self.writeback(segment, page, frame)
        slot = self._empty_slots.pop() if self._empty_slots else None
        grew = slot is None
        if grew:
            slot = self.free_segment.n_pages
            self.free_segment.grow(1)
        self.kernel.migrate_pages(
            MigratePagesRequest(
                segment,
                self.free_segment,
                page,
                slot,
                clear_flags=PageFlags.REFERENCED | PageFlags.DIRTY,
            )
        )
        self._free_slots.append(slot)
        key = (segment.seg_id, page)
        self._stale_origin[slot] = key
        self._stale_slot[key] = slot
        self._resident.pop(key, None)
        self.pages_reclaimed += 1
        if self.journal.enabled:
            self.journal.append(
                "mgr.evict",
                self.name,
                seg=segment.seg_id,
                page=page,
                slot=slot,
                grew=int(grew),
            )

    def _note_resident(self, segment: Segment, page: int) -> None:
        self._resident[(segment.seg_id, page)] = None

    # ------------------------------------------------------------------
    # kernel events / SPCM pressure
    # ------------------------------------------------------------------

    def segment_deleted(self, segment: Segment) -> None:
        """Reclaim every frame of a dying segment; its data is dead, so
        no writeback and no migrate-back cache entries."""
        moves: list[list[int]] = []
        for page in sorted(segment.pages):
            slot = self._empty_slots.pop() if self._empty_slots else None
            grew = slot is None
            if grew:
                slot = self.free_segment.n_pages
                self.free_segment.grow(1)
            self.kernel.migrate_pages(
                MigratePagesRequest(
                    segment,
                    self.free_segment,
                    page,
                    slot,
                    clear_flags=PageFlags.REFERENCED | PageFlags.DIRTY,
                )
            )
            self._free_slots.append(slot)
            self._resident.pop((segment.seg_id, page), None)
            moves.append([page, slot, int(grew)])
        self.pinned_segments.discard(segment.seg_id)
        if self.journal.enabled:
            self.journal.append(
                "mgr.segdel", self.name, seg=segment.seg_id, moves=moves
            )

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
        for page in pages:
            self._note_resident(segment, page)
        if self.journal.enabled:
            self.journal.append(
                "mgr.adopt", self.name, seg=segment.seg_id, pages=list(pages)
            )
        return FrameGrant(tuple(pages))

    def on_frames_seized(self, grant: FrameGrant) -> None:
        """The SPCM forcibly took these free-segment pages back."""
        seized = set(grant.pages)
        self._free_slots = [s for s in self._free_slots if s not in seized]
        for slot in grant.pages:
            self._drop_stale(slot)
        self._empty_slots.extend(grant.pages)
        if self.journal.enabled:
            self.journal.append(
                "mgr.seized", self.name, slots=list(grant.pages)
            )

    # ------------------------------------------------------------------
    # pinning helpers (S2.2: the manager keeps its own pages in memory)
    # ------------------------------------------------------------------

    def pin_segment(self, segment: Segment) -> None:
        """Exclude a segment's pages from replacement."""
        self.pinned_segments.add(segment.seg_id)
        if self.journal.enabled:
            self.journal.append("mgr.pin", self.name, seg=segment.seg_id)

    def unpin_segment(self, segment: Segment) -> None:
        """Re-admit a segment's pages to replacement."""
        self.pinned_segments.discard(segment.seg_id)
        if self.journal.enabled:
            self.journal.append("mgr.unpin", self.name, seg=segment.seg_id)

    def resident_pages_of(self, segment: Segment) -> list[int]:
        """Page indices of ``segment`` currently backed by frames."""
        return sorted(segment.pages)
