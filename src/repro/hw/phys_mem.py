"""Physical memory: the page-frame pool.

The kernel's entire view of main memory is a pool of :class:`PageFrame`
objects.  On boot the V++ kernel places every frame, in order of physical
address, into a well-known segment (paper, S2.1); all later ownership moves
happen through ``MigratePages``.

Frames are deliberately dumb hardware: a physical address, a size, and
bytes.  Ownership bookkeeping (which segment holds the frame, at which page
index, with which flags) is written by the kernel but stored here so there
is exactly one record per frame.

Nothing is paid per frame until the frame is used.  Frames of one page size
form a *pool*: a contiguous run of frame numbers in physical-address order
(``PhysicalMemory.pools``), starting at the pool's base address
(``PhysicalMemory.pool_addrs``).  The base pool comes first and each large
pool follows in ascending page size, so a frame's address, and its place in
its pool --- ``pfn - pools[size].start``, which is also its page index in
the boot segment --- are arithmetic.  Boot files each pool with one record
(:meth:`PhysicalMemory.file_pool`), and :meth:`PhysicalMemory.frame` makes a
frame's object the first time it is asked for, filed as boot left it.  Frame
data is allocated later still, on first write --- an untouched frame reads
as zeroes without the simulator paying for gigabytes of real buffers.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.chaos.injector import NULL_INJECTOR
from repro.errors import PhysicalMemoryError


class PageFrame:
    """One physical page frame.

    ``flags`` is a plain integer bit-set; :mod:`repro.core.flags` defines
    the bit meanings.  ``owner_segment_id`` / ``page_index`` record where the
    kernel currently files this frame.
    """

    __slots__ = (
        "pfn",
        "page_size",
        "phys_addr",
        "flags",
        "owner_segment_id",
        "page_index",
        "_data",
    )

    def __init__(self, pfn: int, page_size: int, phys_addr: int) -> None:
        self.pfn = pfn
        self.page_size = page_size
        self.phys_addr = phys_addr
        self.flags = 0
        self.owner_segment_id: int | None = None
        self.page_index: int | None = None
        self._data: bytearray | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageFrame(pfn={self.pfn}, size={self.page_size}, "
            f"owner={self.owner_segment_id}, page={self.page_index})"
        )

    # -- data access -------------------------------------------------------

    @property
    def is_materialized(self) -> bool:
        """True once the frame's backing buffer has been allocated."""
        return self._data is not None

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (zero-fill default)."""
        if length is None:
            length = self.page_size - offset
        self._check_range(offset, length)
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset : offset + length])

    def write(self, data: bytes, offset: int = 0) -> None:
        """Write ``data`` at ``offset``, materializing the frame."""
        self._check_range(offset, len(data))
        if self._data is None:
            self._data = bytearray(self.page_size)
        self._data[offset : offset + len(data)] = data

    def zero(self) -> None:
        """Zero-fill the frame (drops the buffer; reads return zeroes)."""
        self._data = None

    def copy_from(self, other: "PageFrame") -> None:
        """Copy the full contents of ``other`` into this frame."""
        if other.page_size != self.page_size:
            raise PhysicalMemoryError(
                f"cannot copy between frame sizes {other.page_size} "
                f"and {self.page_size}"
            )
        if other._data is None:
            self._data = None
        else:
            self._data = bytearray(other._data)

    def color(self, n_colors: int) -> int:
        """Page color of this frame for an ``n_colors``-color cache."""
        if n_colors <= 0:
            raise ValueError("n_colors must be positive")
        return (self.phys_addr // self.page_size) % n_colors

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.page_size:
            raise PhysicalMemoryError(
                f"access [{offset}, {offset + length}) outside frame of "
                f"size {self.page_size}"
            )


class PhysicalMemory:
    """The machine's frame pool, in order of physical address.

    ``size_bytes`` of base-size frames, optionally followed by extra pools
    of larger frames (``large_pools`` maps page size to frame count) to
    model machines with multiple page sizes (paper, S2.1, citing the
    Alpha).  ``pools`` maps each page size present to its frames' pfn
    range and ``pool_addrs`` to the physical address of its first frame.
    A frame's object is made the first time :meth:`frame` asks for it.
    """

    def __init__(
        self,
        size_bytes: int,
        page_size: int = 4096,
        large_pools: Mapping[int, int] | None = None,
    ) -> None:
        if size_bytes <= 0 or size_bytes % page_size != 0:
            raise PhysicalMemoryError(
                f"memory size {size_bytes} is not a positive multiple of "
                f"page size {page_size}"
            )
        self.page_size = page_size
        n_frames = size_bytes // page_size
        self.pools: dict[int, range] = {page_size: range(n_frames)}
        self.pool_addrs: dict[int, int] = {page_size: 0}
        phys_addr = size_bytes
        for size, count in sorted((large_pools or {}).items()):
            if size % page_size != 0 or size <= page_size:
                raise PhysicalMemoryError(
                    f"large page size {size} must be a larger multiple "
                    f"of the base page size {page_size}"
                )
            if count < 0:
                raise PhysicalMemoryError(
                    f"negative frame count {count} for page size {size}"
                )
            if count:
                self.pools[size] = range(n_frames, n_frames + count)
                self.pool_addrs[size] = phys_addr
            n_frames += count
            phys_addr += count * size
        self.size_bytes = phys_addr
        self.n_frames = n_frames
        #: pfn -> frame, for every frame made so far (:meth:`frame` makes
        #: them; read this to look at a frame without making it)
        self.made: dict[int, PageFrame] = {}
        # page size -> (seg_id, flags) boot filed that pool under
        self._filed: dict[int, tuple[int, int]] = {}
        #: chaos choke point; frame ECC failures are drawn here
        self.injector = NULL_INJECTOR

    def ecc_failure(self, frame: PageFrame) -> bool:
        """Does referencing ``frame`` raise an uncorrectable ECC error?

        Always false on healthy hardware; a chaos injector makes the
        answer a seeded Bernoulli draw.  The kernel responds by retiring
        the frame and re-running the reference.
        """
        if not self.injector.enabled:
            return False
        return self.injector.frame_ecc(frame.pfn)

    def file_pool(self, page_size: int, seg_id: int, flags: int) -> None:
        """Boot's filing of one pool: the pool's ``i``-th frame sits at
        page ``i`` of segment ``seg_id`` with ``flags``.

        One record for the whole pool, which each frame takes when it is
        made; boot files a pool before any of its frames is used.
        """
        self._filed[page_size] = (seg_id, flags)

    # -- lookup --------------------------------------------------------------

    def frame(self, pfn: int) -> PageFrame:
        """The frame with physical frame number ``pfn``.

        The first call for a frame makes it, filed where boot put it;
        every later call returns that same object.
        """
        frame = self.made.get(pfn)
        if frame is not None:
            return frame
        for size, pfns in self.pools.items():
            if pfn in pfns:
                page = pfn - pfns.start
                addr = self.pool_addrs[size] + page * size
                frame = PageFrame(pfn, size, addr)
                filed = self._filed.get(size)
                if filed is not None:
                    frame.owner_segment_id, frame.flags = filed
                    frame.page_index = page
                self.made[pfn] = frame
                return frame
        raise PhysicalMemoryError(f"no such frame: pfn {pfn}")

    def frames(self) -> Iterator[PageFrame]:
        """All frames in order of physical address (this makes them all)."""
        return map(self.frame, range(self.n_frames))

    def pool_range(self, page_size: int, lo: int, hi: int) -> range:
        """Places in the ``page_size`` pool (``pfn - pools[size].start``)
        of the frames whose physical address lies in ``[lo, hi)``."""
        base, n = self.pool_addrs[page_size], len(self.pools[page_size])
        # -((base - x) // size) is ceil((x - base) / size)
        first = min(n, max(0, -((base - lo) // page_size)))
        return range(first, min(n, max(first, -((base - hi) // page_size))))

    def frames_in_addr_range(self, lo: int, hi: int) -> list[PageFrame]:
        """Frames whose physical address lies in ``[lo, hi)``."""
        return [
            self.frame(pfns.start + i)
            for size, pfns in self.pools.items()
            for i in self.pool_range(size, lo, hi)
        ]

    def frame_at_addr(self, phys_addr: int) -> PageFrame:
        """The frame covering physical address ``phys_addr``."""
        for size, pfns in self.pools.items():
            i = (phys_addr - self.pool_addrs[size]) // size
            if 0 <= i < len(pfns):
                return self.frame(pfns.start + i)
        raise PhysicalMemoryError(f"physical address {phys_addr:#x} out of range")
