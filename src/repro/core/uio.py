"""Cached files and the Uniform I/O block interface.

Cached files in V++ are segments accessed through "a kernel-provided
file-like block read/write interface, specifically the Uniform Input/Output
Object (UIO) protocol" (paper, S2.1).  A read of an unbacked page raises an
ordinary page fault to the file segment's manager; when the file is cached
the access is a single kernel operation.  A cached file's length is state
of its segment (``Segment.file_size``), so UIO needs only the kernel.

:class:`FileServer` models the backing store (the paper's V++ machine was
diskless, served by a DECstation 3100): it owns a disk extent per file and
answers managers' fetch/store requests, charging device time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.core.faults import MISSING_PAGE, PageFault
from repro.core.flags import DIRTY_I, REFERENCED_I
from repro.core.kernel import MAX_FAULT_RETRIES, Kernel
from repro.core.segment import Segment
from repro.core.supervisor import FAILOVER_AFTER_ATTEMPTS
from repro.errors import TransientDiskError, UIOError
from repro.hw.disk import Disk

# builds a record without its namedtuple ``__new__``, a Python function:
# every UIO fault builds one ``PageFault``
_new_tuple = tuple.__new__

#: Transient disk errors are retried this many times (with exponential
#: backoff) before the file server gives up on the request.
MAX_IO_RETRIES = 4

#: Disk blocks a new file reserves past its initial pages, for growth.
GROWTH_SLACK_BLOCKS = 64


def _backoff_jitter(op: str, block_no: int, attempt: int) -> float:
    """Deterministic jitter factor in [0.5, 1.0).

    Pure exponential backoff synchronizes retries across requests that
    failed together; jitter de-correlates them.  The factor is a hash of
    the operation identity rather than a random draw, so seeded runs
    stay bit-reproducible.
    """
    digest = zlib.crc32(f"io:{op}:{block_no}:{attempt}".encode())
    return 0.5 + (digest % 4096) / 8192.0


def pages_for_bytes(n_bytes: int, page_size: int) -> int:
    """Pages needed to cover ``n_bytes``."""
    return -(-n_bytes // page_size)


def _not_a_file(segment: Segment) -> UIOError:
    return UIOError(f"segment {segment.name} is not a file")


@dataclass
class CachedFile:
    """Where one file's blocks are: its segment and disk extent.

    The server sets the extent's size, ``extent_pages``, when it creates
    the file.  A page past the extent gets blocks no other file owns the
    first time the server reads or writes it (``overflow``: page -> first
    block), so a file that outgrows its extent never reaches into the
    next file's.  The file's length is its segment's ``file_size``.
    """

    segment: Segment
    start_block: int
    extent_pages: int
    overflow: dict[int, int] = field(default_factory=dict, init=False)


class FileServer:
    """Backing store for cached files.

    Managers call :meth:`fetch_page` / :meth:`store_page`; the server
    charges disk service time to the kernel meter under the
    ``file_server`` category.
    """

    def __init__(self, kernel: Kernel, disk: Disk) -> None:
        self.kernel = kernel
        self.disk = disk
        self._files: dict[int, CachedFile] = {}
        self._next_block = 0
        self.io_retries = 0
        self.io_errors = 0
        #: simulated time spent waiting in retry backoff
        self.io_backoff_us = 0.0
        #: requests abandoned after ``MAX_IO_RETRIES`` retries
        self.io_exhausted = 0

    # -- disk access with transient-error retry ---------------------------

    def _disk_read(self, block_no: int, n_blocks: int) -> tuple[bytes, float]:
        """``disk.read_range`` with retry-with-backoff on transient errors."""
        return self._with_retries(
            "read", block_no, self.disk.read_range, block_no, n_blocks
        )

    def _disk_write(self, block_no: int, data: bytes) -> float:
        """``disk.write_range`` with retry-with-backoff on transient errors."""
        return self._with_retries(
            "write", block_no, self.disk.write_range, block_no, data
        )

    def _with_retries(self, op, block_no, attempt_fn, *args):
        """``attempt_fn(*args)``, retried with backoff while it raises
        :class:`~repro.errors.TransientDiskError` (the arguments ride
        along, so a request builds no closure)."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return attempt_fn(*args)
            except TransientDiskError as exc:
                self.io_errors += 1
                if attempt > MAX_IO_RETRIES:
                    self.io_exhausted += 1
                    raise UIOError(
                        f"disk {op} at block {block_no} failed after "
                        f"{MAX_IO_RETRIES} retries: {exc}"
                    ) from exc
                self.io_retries += 1
                backoff = (
                    self.kernel.costs.io_retry_backoff_us
                    * 2 ** (attempt - 1)
                    * _backoff_jitter(op, block_no, attempt)
                )
                self.io_backoff_us += backoff
                self.kernel.meter.charge("io_retry", backoff)
                if self.kernel.tracer.enabled:
                    self.kernel.tracer.event(
                        "file_server",
                        f"transient {op} error at block {block_no} "
                        f"(attempt {attempt}); retry after backoff",
                        backoff,
                    )

    def create_file(
        self, segment: Segment, data: bytes | None = None
    ) -> CachedFile:
        """Register ``segment`` as a file whose contents are ``data``
        (empty by default), which also sets its length."""
        if segment.seg_id in self._files:
            raise UIOError(f"segment {segment.name} is already a file")
        size_bytes = len(data) if data is not None else 0
        n_pages = pages_for_bytes(size_bytes, segment.page_size) or 1
        if segment.page_size % self.disk.block_size != 0:
            raise UIOError("page size must be a multiple of the disk block size")
        blocks_per_page = segment.page_size // self.disk.block_size
        start_block = self._next_block
        self._next_block += n_pages * blocks_per_page + GROWTH_SLACK_BLOCKS
        file = CachedFile(
            segment,
            start_block,
            n_pages + GROWTH_SLACK_BLOCKS // blocks_per_page,
        )
        self._files[segment.seg_id] = file
        segment.set_file_size(size_bytes)
        if data:
            padded_len = pages_for_bytes(len(data), self.disk.block_size)
            padded = data + bytes(padded_len * self.disk.block_size - len(data))
            self._disk_write(start_block, padded)
        segment.ensure_size(segment.file_pages)
        return file

    def file_for(self, segment: Segment) -> CachedFile:
        """The file record of ``segment`` (raises if not a file).

        The per-page paths below read ``_files`` directly and come here
        only to raise.
        """
        try:
            return self._files[segment.seg_id]
        except KeyError:
            raise _not_a_file(segment) from None

    def _page_block(
        self, file: CachedFile, page: int, blocks_per_page: int
    ) -> int:
        """The first disk block of ``page`` of ``file`` (see
        :class:`CachedFile`: a page past the extent is given its blocks
        on first use)."""
        if page < file.extent_pages:
            return file.start_block + page * blocks_per_page
        block = file.overflow.get(page)
        if block is None:
            block = file.overflow[page] = self._next_block
            self._next_block += blocks_per_page
        return block

    def fetch_page(self, segment: Segment, page: int) -> bytes:
        """Fetch one page of file data from backing store.

        Returns zeroes past end-of-file (a new page).  Charges disk time.
        """
        file = self._files.get(segment.seg_id) or self.file_for(segment)
        if page >= segment.file_pages:
            return bytes(segment.page_size)
        if not self.kernel.tracer.enabled:
            return self._fetch_page(file, segment, page)
        with self.kernel.tracer.span(
            "file_server", "fetch_page", segment=segment.name, page=page
        ):
            return self._fetch_page(file, segment, page)

    def _fetch_page(
        self, file: CachedFile, segment: Segment, page: int
    ) -> bytes:
        if self.kernel.tracer.enabled:
            self.kernel.tracer.step(
                "manager",
                f"request data for page {page} of {segment.name} "
                "from the file server",
            )
        blocks_per_page = segment.page_size // self.disk.block_size
        data, service_us = self._disk_read(
            self._page_block(file, page, blocks_per_page), blocks_per_page
        )
        self.kernel.meter.charge("file_server", service_us)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.step(
                "file server", "reply with page data", service_us
            )
        return data

    def store_page(self, segment: Segment, page: int, data: bytes) -> None:
        """Write one page of file data back to backing store.

        A page wholly past the end of the file extends the file to cover
        it (a mapped store past the end); a store to a page the file
        already reaches leaves its length alone, so writing back a
        partial last page does not pad the file to a page boundary.
        """
        file = self._files.get(segment.seg_id) or self.file_for(segment)
        if len(data) != segment.page_size:
            raise UIOError("store_page requires exactly one page of data")
        if not self.kernel.tracer.enabled:
            return self._store_page(file, segment, page, data)
        with self.kernel.tracer.span(
            "file_server", "store_page", segment=segment.name, page=page
        ):
            return self._store_page(file, segment, page, data)

    def _store_page(
        self, file: CachedFile, segment: Segment, page: int, data: bytes
    ) -> None:
        blocks_per_page = segment.page_size // self.disk.block_size
        self._disk_write(self._page_block(file, page, blocks_per_page), data)
        self.kernel.meter.charge(
            "file_server", self.disk.costs.disk_transfer_us(segment.page_size)
        )
        start = page * segment.page_size
        if start >= segment.file_size:
            segment.set_file_size(start + segment.page_size)


class UIO:
    """The kernel block read/write interface over cached-file segments."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def read(self, segment: Segment, offset: int, n_bytes: int) -> bytes:
        """Block read: ``n_bytes`` at ``offset`` of the file segment.

        Cached pages cost a single kernel operation (UIO call + lookup +
        copy, the paper's 222 microseconds for 4 KB); unbacked pages fault
        to the segment's manager first, each one fault service the
        kernel's :meth:`~repro.core.kernel.Kernel.on_fault_serviced`
        listeners see.
        """
        size = segment.file_size
        if size is None:
            raise _not_a_file(segment)
        if offset < 0 or n_bytes < 0:
            raise UIOError("negative read range")
        n_bytes = min(n_bytes, max(0, size - offset))
        kernel = self.kernel
        costs = kernel.costs
        meter = kernel.meter
        if kernel.tracer.enabled:
            kernel.tracer.event(
                "kernel",
                f"UIO read: {n_bytes} bytes at {offset} of {segment.name}",
                costs.uio_call,
            )
        meter.charge("uio_read", costs.uio_call)
        if n_bytes == 0:
            return b""
        page_size = segment.page_size
        resident = segment.pages
        chunks: list[bytes] = []
        pos = offset
        remaining = n_bytes
        while remaining > 0:
            page = pos // page_size
            in_page_off = pos % page_size
            take = min(remaining, page_size - in_page_off)
            frame = resident.get(page)
            if frame is None:
                frame = kernel.observed_fault(
                    segment, page, False, self._require_frame
                )
            meter.charge(
                "uio_read",
                costs.fs_lookup_vpp + costs.copy_page * (take / page_size),
            )
            frame.flags |= REFERENCED_I
            chunks.append(frame.read(in_page_off, take))
            pos += take
            remaining -= take
        return b"".join(chunks)

    def write(self, segment: Segment, offset: int, data: bytes) -> int:
        """Block write: store ``data`` at ``offset`` of the file segment.

        Appends grow the segment; the resulting faults are where the V++
        default manager's 16 KB append-allocation unit shows up (S3.2).
        Returns the number of bytes written.
        """
        if segment.file_size is None:
            raise _not_a_file(segment)
        if offset < 0:
            raise UIOError("negative write offset")
        if not data:
            return 0
        page_size = segment.page_size
        n_bytes = len(data)
        end = offset + n_bytes
        segment.ensure_size(pages_for_bytes(end, page_size))
        kernel = self.kernel
        costs = kernel.costs
        meter = kernel.meter
        if kernel.tracer.enabled:
            kernel.tracer.event(
                "kernel",
                f"UIO write: {n_bytes} bytes at {offset} of {segment.name}",
                costs.uio_call - costs.vpp_write_fastpath_saving,
            )
        meter.charge(
            "uio_write", costs.uio_call - costs.vpp_write_fastpath_saving
        )
        resident = segment.pages
        pos = offset
        written = 0
        while written < n_bytes:
            page = pos // page_size
            in_page_off = pos % page_size
            take = min(n_bytes - written, page_size - in_page_off)
            frame = resident.get(page)
            if frame is None:
                frame = kernel.observed_fault(
                    segment, page, True, self._require_frame
                )
            meter.charge(
                "uio_write",
                costs.fs_lookup_vpp + costs.copy_page * (take / page_size),
            )
            frame.write(data[written : written + take], in_page_off)
            frame.flags |= REFERENCED_I | DIRTY_I
            pos += take
            written += take
        if end > segment.file_size:
            segment.set_file_size(end)
        return written

    def _require_frame(self, segment: Segment, page: int, write: bool):
        """Resolve a file page, faulting to the manager as needed (the
        fault service of a read or write that found no frame).

        The retry loop is the reference slow path's: up to
        ``MAX_FAULT_RETRIES`` deliveries, the page looked at before each
        and after the last, and a manager that has not provided it after
        ``FAILOVER_AFTER_ATTEMPTS`` deliveries failed over.
        """
        kernel = self.kernel
        supervisor = kernel.supervisor
        for attempt in range(MAX_FAULT_RETRIES + 1):
            frame = segment.pages.get(page)
            if frame is not None:
                # tested inline, as on the reference slow path: a healthy
                # fault makes no call
                if supervisor._failover_pending:
                    supervisor.fault_ended(resolved=True)
                return frame
            if attempt == MAX_FAULT_RETRIES:
                break
            # (segment_id, page, kind, write, space_id, vaddr), built
            # without the namedtuple's Python-level ``__new__``
            fault = _new_tuple(
                PageFault, (segment.seg_id, page, MISSING_PAGE, write, None, None)
            )
            if attempt >= FAILOVER_AFTER_ATTEMPTS and supervisor.distrust(
                fault, attempt
            ):
                continue  # look again; the next delivery goes to the fallback
            kernel.dispatch_fault(fault)
        supervisor.fault_ended(resolved=False)
        raise UIOError(
            f"manager failed to provide page {page} of file segment "
            f"{segment.name} after {MAX_FAULT_RETRIES} deliveries"
        )
