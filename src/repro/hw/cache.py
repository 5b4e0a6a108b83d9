"""A physically-indexed, direct-mapped cache.

Page coloring (paper S1, citing Bray/Lynch/Flynn) matters because a
physically-addressed direct-mapped cache maps two physical pages to the
same cache lines whenever their frame numbers are congruent modulo the
number of page colors.  An application that controls which physical frames
back its virtual pages can spread hot data across colors; one that gets
random frames may find its hot pages colliding.

The model tracks, per cache line, which physical line currently occupies
it, and reports hit/miss counts.  ``n_colors`` is the number of page-sized
bins the cache divides into --- the quantity an application-level coloring
policy allocates against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import NULL_TRACER


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    conflict_evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class PhysicallyIndexedCache:
    """Direct-mapped cache indexed and tagged by physical address.

    The DECstation 5000/200's off-chip cache is 64 KB with 16-byte lines;
    those are the defaults.
    """

    def __init__(
        self,
        size_bytes: int = 64 * 1024,
        line_size: int = 16,
        page_size: int = 4096,
    ) -> None:
        if size_bytes % line_size != 0:
            raise ValueError("cache size must be a multiple of the line size")
        if size_bytes % page_size != 0:
            raise ValueError("cache size must be a multiple of the page size")
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.page_size = page_size
        self.n_lines = size_bytes // line_size
        #: number of page colors: physical pages with equal
        #: (frame number mod n_colors) collide in the cache.
        self.n_colors = size_bytes // page_size
        # per cache index, the tag (full physical line number) resident there
        self._lines: list[int | None] = [None] * self.n_lines
        self.stats = CacheStats()
        #: line-grain accesses are far too hot to trace; page-grain sweeps
        #: and flushes are reported as events when a tracer is attached
        self.tracer = NULL_TRACER

    def color_of(self, phys_addr: int) -> int:
        """The page color of the page containing ``phys_addr``."""
        return (phys_addr // self.page_size) % self.n_colors

    def access(self, phys_addr: int) -> bool:
        """Touch one physical address; returns True on a cache hit."""
        line_no = phys_addr // self.line_size
        idx = line_no % self.n_lines
        self.stats.accesses += 1
        if self._lines[idx] == line_no:
            self.stats.hits += 1
            return True
        if self._lines[idx] is not None:
            self.stats.conflict_evictions += 1
        self._lines[idx] = line_no
        self.stats.misses += 1
        return False

    def access_page(self, phys_page_addr: int, stride: int | None = None) -> int:
        """Touch every line of the page at ``phys_page_addr``.

        Returns the number of misses.  ``stride`` (default: line size)
        allows sparse touch patterns.
        """
        step = stride if stride is not None else self.line_size
        misses = 0
        for offset in range(0, self.page_size, step):
            if not self.access(phys_page_addr + offset):
                misses += 1
        if self.tracer.enabled:
            self.tracer.event(
                "cache",
                f"sweep page at {phys_page_addr:#x} "
                f"(color {self.color_of(phys_page_addr)}): {misses} miss(es)",
            )
        return misses

    def flush(self) -> None:
        """Invalidate every line."""
        self._lines = [None] * self.n_lines
        if self.tracer.enabled:
            self.tracer.event("cache", "flush: all lines invalidated")
