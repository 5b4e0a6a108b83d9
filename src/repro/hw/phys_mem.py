"""Physical memory: the page-frame pool.

The kernel's entire view of main memory is a pool of :class:`PageFrame`
objects.  On boot the V++ kernel places every frame, in order of physical
address, into a well-known segment (paper, S2.1); all later ownership moves
happen through ``MigratePages``.

Frames are deliberately dumb hardware: a physical address, a size, and
bytes.  Ownership bookkeeping (which segment holds the frame, at which page
index, with which flags) is written by the kernel but stored here so there
is exactly one record per frame.  Frame data is allocated lazily --- an
untouched frame reads as zeroes without the simulator paying for gigabytes
of real buffers.

Frames of one page size form a *pool*: a contiguous run of frame numbers
in physical-address order (``PhysicalMemory.pools``).  The base pool comes
first and each large pool follows in ascending page size, so a frame's
place in its pool --- ``pfn - pools[size].start`` --- is also its page
index in the boot segment, and boot can fill each segment in one pass.
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

    ``size_bytes`` of base-size frames are created, optionally followed by
    extra pools of larger frames (``large_pools`` maps page size to frame
    count) to model machines with multiple page sizes (paper, S2.1, citing
    the Alpha).  ``pools`` maps each page size present to its frames' pfn
    range, in physical-address order.
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
        n_base = size_bytes // page_size
        self._frames: list[PageFrame] = [
            PageFrame(pfn, page_size, pfn * page_size) for pfn in range(n_base)
        ]
        self.pools: dict[int, range] = {page_size: range(n_base)}
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
            pfns = range(len(self._frames), len(self._frames) + count)
            self._frames += [
                PageFrame(pfn, size, phys_addr + (pfn - pfns.start) * size)
                for pfn in pfns
            ]
            if pfns:
                self.pools[size] = pfns
            phys_addr += count * size
        self.size_bytes = phys_addr
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

    # -- lookup --------------------------------------------------------------

    @property
    def n_frames(self) -> int:
        return len(self._frames)

    def frame(self, pfn: int) -> PageFrame:
        """The frame with physical frame number ``pfn``."""
        if not 0 <= pfn < len(self._frames):
            raise PhysicalMemoryError(f"no such frame: pfn {pfn}")
        return self._frames[pfn]

    def frames(self) -> Iterator[PageFrame]:
        """All frames in order of physical address."""
        return iter(self._frames)

    def frames_of_size(self, page_size: int) -> list[PageFrame]:
        """All frames with the given page size, in physical-address order."""
        pfns = self.pools.get(page_size)
        if pfns is None:
            return []
        return self._frames[pfns.start : pfns.stop]

    def frames_in_addr_range(self, lo: int, hi: int) -> list[PageFrame]:
        """Frames whose physical address lies in ``[lo, hi)``."""
        return [f for f in self._frames if lo <= f.phys_addr < hi]

    def frame_at_addr(self, phys_addr: int) -> PageFrame:
        """The frame covering physical address ``phys_addr``."""
        for f in self._frames:
            if f.phys_addr <= phys_addr < f.phys_addr + f.page_size:
                return f
        raise PhysicalMemoryError(f"physical address {phys_addr:#x} out of range")
