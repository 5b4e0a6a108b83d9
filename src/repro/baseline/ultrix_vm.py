"""An ULTRIX 4.1-style kernel VM model.

The distinguishing behaviors the paper measures against (S3.1-S3.2):

* page faults handled entirely in the kernel; every allocation is
  **zero-filled** for security ("most of the difference in cost (75
  microseconds) is the cost of page zeroing that the Ultrix kernel
  performs on each page allocation");
* the I/O transfer unit is 8 KB (two pages per read/write call);
* writes carry extra buffer-handling cost (Table 1: write 311 vs 211);
* user-level fault handling only via signal + ``mprotect`` (152
  microseconds to change one page's protection);
* pinning via ``mpin`` with a hard quota; ``madvise`` is accepted and
  recorded but changes nothing --- the paper's complaint.

The model shares the hardware types (frames, linear page tables, TLB) but
none of the V++ kernel machinery: policy lives in this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.flags import PageFlags
from repro.errors import OutOfFramesError, ProtectionError, SegmentError
from repro.hw.costs import DECSTATION_5000_200, CostMeter, MachineCosts
from repro.hw.page_table import LinearPageTable, Translation
from repro.hw.phys_mem import PageFrame, PhysicalMemory
from repro.hw.tlb import TLB

#: the ULTRIX I/O transfer unit (S3.2)
ULTRIX_IO_UNIT = 8192


@dataclass
class UltrixStats:
    faults: int = 0
    zero_fills: int = 0
    protection_signals: int = 0
    mprotect_calls: int = 0
    madvise_calls: int = 0
    reclaimed_pages: int = 0
    read_calls: int = 0
    write_calls: int = 0
    pageins: int = 0
    pageouts: int = 0


@dataclass
class UltrixFile:
    """One file fully described by kernel state: data plus a page cache."""

    name: str
    data: bytearray
    cached_pages: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.data)


class UltrixSpace:
    """One process address space."""

    def __init__(self, space_id: int, n_pages: int, page_size: int) -> None:
        self.space_id = space_id
        self.n_pages = n_pages
        self.page_size = page_size
        self.pages: dict[int, PageFrame] = {}
        # user-set protections (mprotect); pages default to read-write
        self.prot: dict[int, PageFlags] = {}
        self.pinned: set[int] = set()
        self.user_handler = None  # type: ignore[assignment]

    def protection(self, page: int) -> PageFlags:
        """Effective user protection of one page."""
        return self.prot.get(page, PageFlags.READ | PageFlags.WRITE)


class UltrixVM:
    """The conventional kernel."""

    def __init__(
        self,
        memory: PhysicalMemory,
        costs: MachineCosts = DECSTATION_5000_200,
        pin_quota: int = 64,
    ) -> None:
        self.memory = memory
        self.costs = costs
        self.meter = CostMeter()
        self.stats = UltrixStats()
        self.page_table = LinearPageTable()
        self.tlb = TLB()
        self.pin_quota = pin_quota
        self._spaces: dict[int, UltrixSpace] = {}
        self._files: dict[str, UltrixFile] = {}
        self._next_space = 0
        # free frames by pfn: a frame object is made only when first used
        self._free: list[int] = list(range(memory.n_frames))
        # FIFO of (space, page) for kernel reclamation, invisible to apps
        self._resident: list[tuple[UltrixSpace, int]] = []

    # ------------------------------------------------------------------
    # address spaces
    # ------------------------------------------------------------------

    def create_space(self, n_pages: int) -> UltrixSpace:
        """Create a process address space of ``n_pages``."""
        space = UltrixSpace(self._next_space, n_pages, self.memory.page_size)
        self._next_space += 1
        self._spaces[space.space_id] = space
        return space

    def destroy_space(self, space: UltrixSpace) -> None:
        """Tear a space down, freeing its frames."""
        for page, frame in list(space.pages.items()):
            self._free.append(frame.pfn)
        self._resident = [
            (s, p) for (s, p) in self._resident if s is not space
        ]
        self.tlb.flush_space(space.space_id)
        self.page_table.remove_space(space.space_id)
        del self._spaces[space.space_id]

    # ------------------------------------------------------------------
    # references and in-kernel fault handling
    # ------------------------------------------------------------------

    def reference(
        self, space: UltrixSpace, vaddr: int, write: bool = False
    ) -> PageFrame:
        """One CPU reference; faults are resolved inside the kernel."""
        if vaddr < 0 or vaddr >= space.n_pages * space.page_size:
            raise SegmentError(f"address {vaddr:#x} outside the space")
        vpn = vaddr // space.page_size
        prot = space.protection(vpn)
        needed = PageFlags.WRITE if write else PageFlags.READ
        payload = self.tlb.lookup(space.space_id, vpn)
        if payload is not None and needed in prot:
            frame = space.pages.get(vpn)
            if frame is not None:
                self._touch(frame, write)
                return frame
        if needed not in prot:
            return self._deliver_signal(space, vpn, write)
        entry = self.page_table.lookup(space.space_id, vpn)
        if entry is not None and vpn in space.pages:
            self.meter.charge("tlb_refill", self.costs.tlb_refill)
            self.tlb.insert(space.space_id, vpn, entry.pfn)
            frame = space.pages[vpn]
            self._touch(frame, write)
            return frame
        return self._kernel_fault(space, vpn, write)

    def _kernel_fault(
        self, space: UltrixSpace, vpn: int, write: bool
    ) -> PageFrame:
        """The whole conventional fault path, in the kernel.

        trap + service + zero-fill + map = the paper's 175 microseconds.
        """
        self.stats.faults += 1
        self.meter.charge("trap", self.costs.trap_entry_exit)
        self.meter.charge("fault_service", self.costs.ultrix_fault_service)
        frame = self._allocate_frame()
        frame.zero()
        self.meter.charge("zero_fill", self.costs.zero_page)
        self.stats.zero_fills += 1
        space.pages[vpn] = frame
        frame.owner_segment_id = space.space_id
        frame.page_index = vpn
        frame.flags = int(PageFlags.READ | PageFlags.WRITE)
        self._resident.append((space, vpn))
        self.meter.charge("map_update", self.costs.map_update)
        self.page_table.insert(Translation(space.space_id, vpn, frame.pfn))
        self.tlb.insert(space.space_id, vpn, frame.pfn)
        self._touch(frame, write)
        return frame

    def _allocate_frame(self) -> PageFrame:
        if not self._free:
            self._reclaim(16)
        if not self._free:
            raise OutOfFramesError("ULTRIX free list exhausted")
        return self.memory.frame(self._free.pop())

    def _reclaim_exempt(self) -> set[int]:
        """The ``id`` of every frame :meth:`_reclaim` must skip: none."""
        return set()

    def _reclaim(self, n_pages: int) -> None:
        """Kernel clock-ish reclamation: FIFO over unpinned residents,
        skipping the frames :meth:`_reclaim_exempt` names."""
        exempt = self._reclaim_exempt()
        reclaimed = 0
        survivors: list[tuple[UltrixSpace, int]] = []
        for space, vpn in self._resident:
            frame = space.pages.get(vpn)
            if frame is None:
                continue
            if (
                reclaimed >= n_pages
                or vpn in space.pinned
                or id(frame) in exempt
            ):
                survivors.append((space, vpn))
                continue
            if PageFlags.DIRTY & PageFlags(frame.flags):
                # anonymous pageout to swap
                self.meter.charge(
                    "pageout", self.costs.disk_transfer_us(space.page_size)
                )
                self.stats.pageouts += 1
            del space.pages[vpn]
            self.tlb.invalidate(space.space_id, vpn)
            self.page_table.remove(space.space_id, vpn)
            self._free.append(frame.pfn)
            reclaimed += 1
            self.stats.reclaimed_pages += 1
        self._resident = survivors

    @staticmethod
    def _touch(frame: PageFrame, write: bool) -> None:
        frame.flags |= int(PageFlags.REFERENCED)
        if write:
            frame.flags |= int(PageFlags.DIRTY)

    # ------------------------------------------------------------------
    # user-level fault handling: signal + mprotect (the 152 us path)
    # ------------------------------------------------------------------

    def set_user_handler(self, space: UltrixSpace, handler) -> None:
        """Install a SIGSEGV-style handler: ``handler(vm, space, vpn, write)``."""
        space.user_handler = handler

    def _deliver_signal(
        self, space: UltrixSpace, vpn: int, write: bool
    ) -> PageFrame:
        if space.user_handler is None:
            raise ProtectionError(
                f"access violation at page {vpn}, no handler installed"
            )
        self.stats.protection_signals += 1
        self.meter.charge("trap", self.costs.trap_entry_exit)
        self.meter.charge("signal_delivery", self.costs.signal_delivery)
        space.user_handler(self, space, vpn, write)
        self.meter.charge("sigreturn", self.costs.sigreturn)
        prot = space.protection(vpn)
        needed = PageFlags.WRITE if write else PageFlags.READ
        if needed not in prot:
            raise ProtectionError(
                f"handler did not restore access to page {vpn}"
            )
        frame = space.pages.get(vpn)
        if frame is None:
            return self._kernel_fault(space, vpn, write)
        self._touch(frame, write)
        return frame

    def mprotect(
        self, space: UltrixSpace, page: int, n_pages: int, prot: PageFlags
    ) -> None:
        """Change user protections (charges the system call)."""
        if page < 0 or page + n_pages > space.n_pages:
            raise SegmentError("mprotect range outside the space")
        self.stats.mprotect_calls += 1
        self.meter.charge("mprotect", self.costs.mprotect_call)
        for p in range(page, page + n_pages):
            space.prot[p] = prot
            self.tlb.invalidate(space.space_id, p)

    # ------------------------------------------------------------------
    # pinning and advice --- the limited conventional control (S4)
    # ------------------------------------------------------------------

    def mpin(self, space: UltrixSpace, page: int, n_pages: int = 1) -> int:
        """Pin pages subject to the system-wide quota; returns pages pinned."""
        pinned = 0
        total_pinned = sum(len(s.pinned) for s in self._spaces.values())
        for p in range(page, page + n_pages):
            if p in space.pinned:
                continue
            if total_pinned + pinned >= self.pin_quota:
                break
            if p not in space.pages:
                self.reference(space, p * space.page_size)
            space.pinned.add(p)
            pinned += 1
        return pinned

    def munpin(self, space: UltrixSpace, page: int, n_pages: int = 1) -> None:
        """Unpin pages previously pinned with :meth:`mpin`."""
        for p in range(page, page + n_pages):
            space.pinned.discard(p)

    def madvise(self, space: UltrixSpace, page: int, n_pages: int, advice: str) -> None:
        """Advisory only: recorded, but policy does not change --- which is
        precisely the inadequacy the paper argues (S4)."""
        self.stats.madvise_calls += 1

    # ------------------------------------------------------------------
    # file system calls (8 KB transfer unit)
    # ------------------------------------------------------------------

    def create_file(self, name: str, data: bytes = b"") -> UltrixFile:
        """Create a named file with optional initial contents."""
        if name in self._files:
            raise SegmentError(f"file {name!r} exists")
        file = UltrixFile(name, bytearray(data))
        self._files[name] = file
        return file

    def cache_file(self, name: str) -> None:
        """Warm the buffer cache for a file (the paper's measurement
        setup: "run with the files they read cached in memory")."""
        file = self._files[name]
        n_pages = -(-len(file.data) // self.memory.page_size) or 0
        file.cached_pages.update(range(n_pages))

    def read(self, name: str, offset: int, n_bytes: int) -> bytes:
        """The ``read`` system call.  4 KB cached: 211 microseconds."""
        file = self._files[name]
        n_bytes = min(n_bytes, max(0, file.size - offset))
        self.stats.read_calls += 1
        self.meter.charge("file_read", self.costs.syscall)
        if n_bytes == 0:
            return b""
        self.meter.charge("file_read", self.costs.fs_lookup_ultrix)
        self._charge_transfer("file_read", offset, n_bytes, file)
        return bytes(file.data[offset : offset + n_bytes])

    def write(self, name: str, offset: int, data: bytes) -> int:
        """The ``write`` system call.  4 KB cached: 311 microseconds."""
        file = self._files[name]
        self.stats.write_calls += 1
        self.meter.charge("file_write", self.costs.syscall)
        if not data:
            return 0
        self.meter.charge(
            "file_write",
            self.costs.fs_lookup_ultrix + self.costs.ultrix_write_extra,
        )
        self._charge_transfer("file_write", offset, len(data), file, write=True)
        end = offset + len(data)
        if end > len(file.data):
            file.data.extend(bytes(end - len(file.data)))
        file.data[offset:end] = data
        page_size = self.memory.page_size
        file.cached_pages.update(
            range(offset // page_size, -(-end // page_size))
        )
        return len(data)

    # ------------------------------------------------------------------
    # oracle extraction (verify differential harness)
    # ------------------------------------------------------------------

    def file_bytes(self, name: str) -> bytes:
        """The final, authoritative contents of a file.

        The differential oracle compares this against the V++ file
        server's post-writeback bytes --- in ULTRIX the kernel's buffer
        cache *is* the file, so the answer is simply the data array.
        """
        return bytes(self._files[name].data)

    def page_bytes(
        self, space: UltrixSpace, vpn: int, offset: int = 0,
        length: int | None = None,
    ) -> bytes:
        """Resident bytes of one page, without touching the fault path.

        Raises :class:`SegmentError` when the page is not resident ---
        oracle schedules are sized so no comparison page was reclaimed,
        and a silent zero-fill here would mask exactly the divergences
        the oracle exists to catch.
        """
        frame = space.pages.get(vpn)
        if frame is None:
            raise SegmentError(
                f"page {vpn} of space {space.space_id} is not resident"
            )
        return frame.read(offset, length)

    def _charge_transfer(
        self,
        category: str,
        offset: int,
        n_bytes: int,
        file: UltrixFile,
        write: bool = False,
    ) -> None:
        page_size = self.memory.page_size
        first = offset // page_size
        last = (offset + n_bytes - 1) // page_size
        for page in range(first, last + 1):
            lo = max(offset, page * page_size)
            hi = min(offset + n_bytes, (page + 1) * page_size)
            self.meter.charge(
                category, self.costs.copy_page * ((hi - lo) / page_size)
            )
            if not write and page not in file.cached_pages:
                self.meter.charge(
                    "pagein", self.costs.disk_transfer_us(page_size)
                )
                self.stats.pageins += 1
                file.cached_pages.add(page)
