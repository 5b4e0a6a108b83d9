"""Segments and bound regions.

A V++ segment is "a variable-size address range of zero or more pages"
(paper, S2.1).  Segments hold page frames directly (``pages``), may be
composed from other segments through *bound regions* (``bindings``), and may
be a copy-on-write image of a source segment (``cow_source``).  A program's
virtual address space is itself a segment whose code/data/stack regions are
bindings to other segments (Figure 1).

Resolution walks a page index through bindings and COW sources until it
reaches the segment that owns (or should own) the backing frame; the kernel
turns unsatisfiable resolutions into faults for that segment's manager.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping
from dataclasses import dataclass
from itertools import filterfalse
from typing import TYPE_CHECKING

from repro.core.flags import RW_I, WRITE_I, PageFlags
from repro.errors import BindingError, SegmentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager_api import SegmentManager
    from repro.hw.phys_mem import PageFrame, PhysicalMemory


# resolution runs on the plain-int flag values and converts once at the
# end, by index into ``PageFlags(i)`` for every 6-bit value ``i`` (the
# enum's own cached members), so it makes no call into enum.py
_PROT = tuple(PageFlags(i) for i in range(64))


class HomePages(MutableMapping):
    """A boot segment's residency: page ``i`` holds its pool's ``i``-th frame.

    Boot files every frame of a pool at its own page of that page size's
    well-known segment (S2.1), and a free frame only ever comes back to
    that page, so the residency is just the set of pages whose frame is
    at home: it records the pages that are not.  Page ``i`` is
    ``memory.frame(first_pfn + i)``, made when first read or migrated
    out.  Storing any other frame at a page raises.
    """

    __slots__ = ("_memory", "first_pfn", "_pages", "_away")

    def __init__(self, memory: "PhysicalMemory", page_size: int) -> None:
        pfns = memory.pools[page_size]
        self._memory = memory
        #: pfn of the frame at page 0
        self.first_pfn = pfns.start
        self._pages = range(len(pfns))
        # pages whose frame is away: granted out, retired or lost
        self._away: set[int] = set()

    def __contains__(self, page: int) -> bool:  # type: ignore[override]
        return page in self._pages and page not in self._away

    def __len__(self) -> int:
        return len(self._pages) - len(self._away)

    def __iter__(self) -> Iterator[int]:
        """The pages at home, ascending."""
        return self.within(self._pages)

    def __getitem__(self, page: int) -> "PageFrame":
        if page not in self:
            raise KeyError(page)
        return self._memory.frame(self.first_pfn + page)

    def __setitem__(self, page: int, frame: "PageFrame") -> None:
        if page not in self._pages or frame.pfn != self.first_pfn + page:
            raise SegmentError(
                f"frame pfn={frame.pfn} cannot sit at boot page {page}: "
                f"its home page is {frame.pfn - self.first_pfn}"
            )
        self._away.discard(page)

    def __delitem__(self, page: int) -> None:
        self.pop(page)

    def pop(self, page: int, *default):
        # inline membership: this runs once per frame the SPCM grants
        if page not in self._pages or page in self._away:
            if default:
                return default[0]
            raise KeyError(page)
        self._away.add(page)
        return self._memory.frame(self.first_pfn + page)

    def within(self, pages: range) -> Iterator[int]:
        """The pages of ``pages`` at home, ascending (``pages`` lies
        inside the pool)."""
        return filterfalse(self._away.__contains__, pages)

    def count(self, pages: range) -> int:
        """How many of ``pages`` are at home."""
        return len(pages) - sum(1 for page in self._away if page in pages)


@dataclass(frozen=True, slots=True)
class Binding:
    """A bound region: pages [start, start+n) of the binder reference
    pages [target_start, target_start+n) of ``target``."""

    start_page: int
    n_pages: int
    target: "Segment"
    target_start_page: int
    prot_mask: PageFlags = PageFlags.READ | PageFlags.WRITE

    def covers(self, page: int) -> bool:
        """True when ``page`` lies inside the bound region."""
        return self.start_page <= page < self.start_page + self.n_pages

    def translate(self, page: int) -> int:
        """The target page index corresponding to binder page ``page``."""
        if not self.covers(page):
            raise BindingError(f"page {page} outside bound region")
        return self.target_start_page + (page - self.start_page)


@dataclass(slots=True)
class ResolvedPage:
    """The outcome of resolving one page reference through a segment."""

    owner: "Segment"          # segment that owns / should own the frame
    page: int                 # page index within ``owner``
    frame: "PageFrame | None"  # present frame, if any
    prot: PageFlags           # effective protection along the chain
    needs_cow: bool = False   # a write must first privatize this page
    cow_source_frame: "PageFrame | None" = None   # data to copy on COW
    depth: int = 0            # binding/COW hops traversed


class Segment:
    """One kernel segment."""

    def __init__(
        self,
        seg_id: int,
        n_pages: int,
        page_size: int,
        name: str = "",
        prot: PageFlags = PageFlags.READ | PageFlags.WRITE,
        cow_source: "Segment | None" = None,
        auto_grow: bool = False,
    ) -> None:
        if n_pages < 0:
            raise SegmentError("segment size cannot be negative")
        if page_size <= 0:
            raise SegmentError("page size must be positive")
        self.seg_id = seg_id
        self.n_pages = n_pages
        self.page_size = page_size
        self.name = name or f"segment-{seg_id}"
        self.prot = prot
        self.cow_source = cow_source
        self.auto_grow = auto_grow
        self.manager: "SegmentManager | None" = None
        self.deleted = False
        self.pages: MutableMapping[int, "PageFrame"] = {}
        self.bindings: list[Binding] = []
        #: a cached file's length in bytes (``None``: not a file; see
        #: :meth:`set_file_size`), and the pages that length reaches
        self.file_size: int | None = None
        self.file_pages = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(id={self.seg_id}, name={self.name!r}, "
            f"pages={len(self.pages)}/{self.n_pages})"
        )

    # -- size ---------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.n_pages * self.page_size

    @property
    def resident_pages(self) -> int:
        """Number of pages currently backed by a frame."""
        return len(self.pages)

    def check_page_range(self, page: int, n_pages: int = 1) -> None:
        """Raise unless [page, page+n) lies inside the segment."""
        if n_pages <= 0:
            raise SegmentError("page count must be positive")
        if page < 0 or page + n_pages > self.n_pages:
            raise SegmentError(
                f"pages [{page}, {page + n_pages}) outside segment "
                f"{self.name} of {self.n_pages} pages"
            )

    def grow(self, n_pages: int) -> None:
        """Extend the segment by ``n_pages`` (new pages are unbacked)."""
        if n_pages <= 0:
            raise SegmentError("growth must be positive")
        self.n_pages += n_pages

    def ensure_size(self, n_pages: int) -> None:
        """Grow so the segment covers at least ``n_pages`` pages."""
        if n_pages > self.n_pages:
            self.n_pages = n_pages

    def set_file_size(self, n_bytes: int) -> None:
        """Make the segment a cached file ``n_bytes`` long, or set its
        length (the file server creates it; UIO writes and stores past
        the end extend it)."""
        self.file_size = n_bytes
        self.file_pages = -(-n_bytes // self.page_size)

    # -- bindings -------------------------------------------------------------

    def bind(
        self,
        start_page: int,
        n_pages: int,
        target: "Segment",
        target_start_page: int = 0,
        prot_mask: PageFlags = PageFlags.READ | PageFlags.WRITE,
    ) -> Binding:
        """Bind a region of this segment to a region of ``target``."""
        if target is self:
            raise BindingError("a segment cannot bind to itself")
        if target.page_size != self.page_size:
            raise BindingError(
                "bound segments must share a page size "
                f"({self.page_size} vs {target.page_size})"
            )
        self.check_page_range(start_page, n_pages)
        target.check_page_range(target_start_page, n_pages)
        for existing in self.bindings:
            if (
                start_page < existing.start_page + existing.n_pages
                and existing.start_page < start_page + n_pages
            ):
                raise BindingError(
                    f"bound region [{start_page}, {start_page + n_pages}) "
                    f"overlaps existing region at {existing.start_page}"
                )
        binding = Binding(start_page, n_pages, target, target_start_page, prot_mask)
        self.bindings.append(binding)
        return binding

    def unbind(self, binding: Binding) -> None:
        """Remove a bound region previously created with :meth:`bind`."""
        try:
            self.bindings.remove(binding)
        except ValueError:
            raise BindingError("binding not present on this segment") from None

    def binding_covering(self, page: int) -> Binding | None:
        """The bound region covering ``page``, if any."""
        for binding in self.bindings:
            if binding.covers(page):
                return binding
        return None

    # -- resolution ------------------------------------------------------------

    def resolve(self, page: int, for_write: bool = False) -> ResolvedPage:
        """Resolve a page reference through bindings and COW sources.

        Returns the owning segment/page, the present frame (or ``None``),
        the effective protection (the meet of every binding mask and
        segment protection traversed), and whether a write first requires
        copy-on-write privatization.
        """
        segment: Segment = self
        prot_i = RW_I
        depth = 0
        seen: set[tuple[int, int]] | None = None
        while True:
            # Flat segment --- no bindings, no COW source: the walk ends
            # here, so no cycle bookkeeping is needed.  This is the shape
            # of nearly every hop (and of every resident-page reference),
            # so its result is built positionally (keywords cost a
            # dataclass constructor twice as much):
            # (owner, page, frame, prot, needs_cow, cow_source_frame, depth)
            if not segment.bindings and segment.cow_source is None:
                if page < 0 or page >= segment.n_pages:
                    segment.check_page_range(page)
                prot_i &= int(segment.prot)
                frame = segment.pages.get(page)
                if frame is not None:
                    prot_i &= frame.flags
                return ResolvedPage(
                    segment, page, frame, _PROT[prot_i], False, None, depth
                )
            if seen is None:
                seen = set()
            key = (segment.seg_id, page)
            if key in seen:
                raise BindingError(
                    f"binding cycle resolving page {page} of {self.name}"
                )
            seen.add(key)
            segment.check_page_range(page)
            prot_i &= int(segment.prot)
            binding = segment.binding_covering(page)
            if binding is not None:
                prot_i &= int(binding.prot_mask)
                page = binding.translate(page)
                segment = binding.target
                depth += 1
                continue
            frame = segment.pages.get(page)
            if frame is not None:
                return ResolvedPage(
                    owner=segment,
                    page=page,
                    frame=frame,
                    prot=_PROT[prot_i & frame.flags],
                    depth=depth,
                )
            if segment.cow_source is not None:
                source = segment.cow_source
                if page < source.n_pages:
                    if for_write:
                        # Write to a still-shared page: the frame must be
                        # privatized into ``segment`` --- a COW fault there.
                        source_res = source.resolve(page, for_write=False)
                        return ResolvedPage(
                            owner=segment,
                            page=page,
                            frame=None,
                            prot=_PROT[prot_i],
                            needs_cow=True,
                            cow_source_frame=source_res.frame,
                            depth=depth,
                        )
                    # Reads fall through to the source (read sharing),
                    # but the shared view is never writable.
                    prot_i &= ~WRITE_I
                    segment = source
                    depth += 1
                    continue
            return ResolvedPage(
                owner=segment,
                page=page,
                frame=None,
                prot=_PROT[prot_i],
                depth=depth,
            )
