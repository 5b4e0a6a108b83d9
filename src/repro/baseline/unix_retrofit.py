"""The Unix retrofit of external page-cache management (S2.4, end).

"The small number of kernel extensions required for external page cache
management could be added to a conventional Unix system ... kernel
extensions would be required to designate a mapped file as a page-cache
file, meaning that page frames for the file would not be reclaimed
(without sufficient notice) ... a kernel operation, such as an extension
to the ioctl system call, would be required to set the managing process
associated with a given file and to allocate pages ... the ptrace and
signal/wait mechanism can be used to communicate page faults to the
process-level segment manager ... the simplest solution to protecting the
manager against page faults on its code and private data is simply to
lock its pages in memory."

This module implements exactly that retrofit over the ULTRIX model:

* :meth:`UnixRetrofitVM.designate_pagecache_file` — frames of the file are
  exempt from kernel reclamation;
* :meth:`UnixRetrofitVM.set_file_manager` — associates a user-level
  manager, reached through the signal mechanism (two context switches
  plus signal delivery --- dearer than a V++ upcall, cheaper than paying
  kernel zeroing);
* :meth:`UnixRetrofitVM.ioctl_allocate_page` — the manager's allocation
  call (an ioctl: one system call, no zero-fill since the manager supplies
  the contents).

The point the bench makes: the *capability* ports to Unix, at a fault cost
between V++'s 107 us upcall and its 379 us IPC manager.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.baseline.ultrix_vm import UltrixSpace, UltrixVM
from repro.core.flags import PageFlags
from repro.errors import SegmentError, UnresolvedFaultError
from repro.hw.page_table import Translation

#: manager callback: handler(vm, space, file_name, file_page) must leave
#: the page allocated (via ioctl_allocate_page)
RetrofitHandler = Callable[["UnixRetrofitVM", UltrixSpace, str, int], None]


@dataclass
class _FileMapping:
    """One mmap of a page-cache file into a space."""

    file_name: str
    start_vpn: int
    n_pages: int
    file_start_page: int = 0

    def covers(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.start_vpn + self.n_pages

    def file_page(self, vpn: int) -> int:
        return self.file_start_page + (vpn - self.start_vpn)


class UnixRetrofitVM(UltrixVM):
    """ULTRIX plus the paper's three retrofit extensions."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pagecache_files: set[str] = set()
        self._file_managers: dict[str, RetrofitHandler] = {}
        # (file, page) -> frame: the externally-managed page cache
        self._pagecache_frames: dict[tuple[str, int], object] = {}
        self._mappings: dict[int, list[_FileMapping]] = {}
        self.retrofit_faults = 0
        self.ioctl_allocations = 0

    # ------------------------------------------------------------------
    # the three kernel extensions
    # ------------------------------------------------------------------

    def designate_pagecache_file(self, name: str) -> None:
        """Mark a file's frames as not-reclaimable-without-notice."""
        if name not in self._files:
            raise SegmentError(f"no file named {name!r}")
        self._pagecache_files.add(name)

    def set_file_manager(self, name: str, handler: RetrofitHandler) -> None:
        """The ioctl that associates a managing process with a file."""
        if name not in self._pagecache_files:
            raise SegmentError(
                f"{name!r} must be designated a page-cache file first"
            )
        self.stats.madvise_calls += 0  # no advisory involved; explicit ctl
        self.meter.charge("ioctl", self.costs.syscall)
        self._file_managers[name] = handler

    def ioctl_allocate_page(
        self, name: str, file_page: int, data: bytes | None = None
    ) -> None:
        """The manager's page-allocation ioctl.

        Takes a frame off the kernel free list and installs it as the
        file's page, with the manager-supplied contents.  No zero-fill:
        the manager overwrites the frame, so the kernel's security zeroing
        is unnecessary --- one of the two costs the retrofit removes.
        """
        if name not in self._pagecache_files:
            raise SegmentError(f"{name!r} is not a page-cache file")
        if (name, file_page) in self._pagecache_frames:
            raise SegmentError(
                f"page {file_page} of {name!r} is already allocated"
            )
        self.meter.charge("ioctl", self.costs.syscall)
        frame = self._allocate_frame()
        if data is not None:
            frame.write(data[: self.memory.page_size])
        frame.flags = int(PageFlags.READ | PageFlags.WRITE)
        self._pagecache_frames[(name, file_page)] = frame
        self.ioctl_allocations += 1

    def release_pagecache_page(self, name: str, file_page: int) -> None:
        """The manager gives a page back (the 'sufficient notice' path)."""
        frame = self._pagecache_frames.pop((name, file_page), None)
        if frame is None:
            raise SegmentError(
                f"page {file_page} of {name!r} is not allocated"
            )
        self._free.append(frame.pfn)  # type: ignore[attr-defined]

    def make_heap_manager(self) -> RetrofitHandler:
        """The standard anonymous-heap manager the oracle installs.

        On each fault it ioctl-allocates the missing page with no
        supplied data (the manager "overwrites the frame", so the page's
        initial contents are whatever the application stores --- matching
        V++'s no-zero-fill-within-one-account semantics).  Returned as a
        handler so tests can wrap it to count or perturb deliveries.
        """

        def handler(
            vm: "UnixRetrofitVM",
            space: UltrixSpace,
            file_name: str,
            file_page: int,
        ) -> None:
            vm.ioctl_allocate_page(file_name, file_page)

        return handler

    # ------------------------------------------------------------------
    # mapped page-cache files
    # ------------------------------------------------------------------

    def map_pagecache_file(
        self,
        space: UltrixSpace,
        name: str,
        start_vpn: int,
        n_pages: int,
        file_start_page: int = 0,
    ) -> None:
        """mmap a page-cache file into an address space."""
        if name not in self._pagecache_files:
            raise SegmentError(f"{name!r} is not a page-cache file")
        if start_vpn < 0 or start_vpn + n_pages > space.n_pages:
            raise SegmentError("mapping outside the space")
        self._mappings.setdefault(space.space_id, []).append(
            _FileMapping(name, start_vpn, n_pages, file_start_page)
        )

    def reference(self, space: UltrixSpace, vaddr: int, write: bool = False):
        vpn = vaddr // space.page_size
        mapping = self._mapping_covering(space, vpn)
        if mapping is None:
            return super().reference(space, vaddr, write)
        frame = self._pagecache_frames.get(
            (mapping.file_name, mapping.file_page(vpn))
        )
        if frame is not None and space.pages.get(vpn) is frame:
            self._touch(frame, write)  # type: ignore[arg-type]
            return frame
        return self._retrofit_fault(space, vpn, mapping, write)

    def _mapping_covering(
        self, space: UltrixSpace, vpn: int
    ) -> _FileMapping | None:
        for mapping in self._mappings.get(space.space_id, []):
            if mapping.covers(vpn):
                return mapping
        return None

    def _retrofit_fault(
        self, space: UltrixSpace, vpn: int, mapping: _FileMapping, write: bool
    ):
        """Deliver the fault to the user-level manager via signal/wait.

        Cost: trap, switch to the manager process, signal delivery, the
        manager's work (its ioctl charges itself), switch back, sigreturn,
        then the kernel installs the mapping.
        """
        handler = self._file_managers.get(mapping.file_name)
        if handler is None:
            raise UnresolvedFaultError(
                f"page-cache file {mapping.file_name!r} has no manager"
            )
        self.retrofit_faults += 1
        self.meter.charge("trap", self.costs.trap_entry_exit)
        self.meter.charge("retrofit_switch", self.costs.context_switch)
        self.meter.charge("signal_delivery", self.costs.signal_delivery)
        file_page = mapping.file_page(vpn)
        handler(self, space, mapping.file_name, file_page)
        self.meter.charge("retrofit_switch", self.costs.context_switch)
        self.meter.charge("sigreturn", self.costs.sigreturn)
        frame = self._pagecache_frames.get((mapping.file_name, file_page))
        if frame is None:
            raise UnresolvedFaultError(
                f"manager did not allocate page {file_page} of "
                f"{mapping.file_name!r}"
            )
        space.pages[vpn] = frame  # type: ignore[assignment]
        self.meter.charge("map_update", self.costs.map_update)
        self.page_table.insert(
            Translation(space.space_id, vpn, frame.pfn)  # type: ignore[attr-defined]
        )
        self.tlb.insert(space.space_id, vpn, frame.pfn)  # type: ignore[attr-defined]
        self._touch(frame, write)  # type: ignore[arg-type]
        return frame

    # ------------------------------------------------------------------
    # reclamation respects the page-cache designation
    # ------------------------------------------------------------------

    def _reclaim_exempt(self) -> set[int]:
        """Page-cache frames belong to the external manager: the kernel
        sweep never takes them."""
        return {id(f) for f in self._pagecache_frames.values()}


def retrofit_fault_cost(vm: UnixRetrofitVM) -> float:
    """The modeled cost of one minimal retrofit fault (for the bench):
    trap + 2 switches + signal + allocation ioctl + map + sigreturn."""
    c = vm.costs
    return (
        c.trap_entry_exit
        + 2 * c.context_switch
        + c.signal_delivery
        + c.syscall
        + c.map_update
        + c.sigreturn
    )
