"""Translation structures.

V++ "augments the segment and bound region data structures with a global
64K entry direct mapped hash table with a 32 entry overflow area" (paper,
S3.2).  :class:`GlobalHashPageTable` models that structure; a miss is soft
--- the kernel reloads the entry from the segment structures --- so a
direct-mapped collision simply evicts the previous occupant into the
overflow area, or drops it when the overflow area is full.

:class:`LinearPageTable` models the conventional per-address-space page
tables ULTRIX uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Translation(NamedTuple):
    """One installed translation: (space, vpn) -> pfn with protection bits
    (a tuple: the kernel builds one per translation it installs)."""

    space_id: int
    vpn: int
    pfn: int
    prot: int = 0


@dataclass
class PageTableStats:
    lookups: int = 0
    hits: int = 0
    collisions: int = 0
    overflow_inserts: int = 0
    dropped: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class GlobalHashPageTable:
    """The V++ global direct-mapped hash table with an overflow area."""

    def __init__(self, n_entries: int = 65536, overflow_entries: int = 32) -> None:
        if n_entries <= 0 or overflow_entries < 0:
            raise ValueError("table sizes must be positive")
        self.n_entries = n_entries
        self.overflow_entries = overflow_entries
        self._table: list[Translation | None] = [None] * n_entries
        self._overflow: dict[tuple[int, int], Translation] = {}
        self.stats = PageTableStats()

    def _index(self, space_id: int, vpn: int) -> int:
        return hash((space_id, vpn)) % self.n_entries

    def insert(self, entry: Translation) -> None:
        """Install a translation, spilling a colliding entry to overflow."""
        space_id, vpn = entry.space_id, entry.vpn
        # _index, inline (as in lookup, which runs on every TLB miss)
        idx = hash((space_id, vpn)) % self.n_entries
        occupant = self._table[idx]
        if occupant is not None and (
            occupant.space_id != space_id or occupant.vpn != vpn
        ):
            self.stats.collisions += 1
            if len(self._overflow) < self.overflow_entries:
                self._overflow[(occupant.space_id, occupant.vpn)] = occupant
                self.stats.overflow_inserts += 1
            else:
                self.stats.dropped += 1
        self._table[idx] = entry
        if self._overflow:
            self._overflow.pop((space_id, vpn), None)

    def lookup(self, space_id: int, vpn: int) -> Translation | None:
        """Look up a translation; ``None`` is a soft miss."""
        stats = self.stats
        stats.lookups += 1
        entry = self._table[hash((space_id, vpn)) % self.n_entries]
        if entry is not None and entry.space_id == space_id and entry.vpn == vpn:
            stats.hits += 1
            return entry
        if self._overflow:
            entry = self._overflow.get((space_id, vpn))
            if entry is not None:
                stats.hits += 1
                return entry
        return None

    def remove(self, space_id: int, vpn: int) -> bool:
        """Drop a translation if present; returns whether one was dropped."""
        idx = self._index(space_id, vpn)
        entry = self._table[idx]
        removed = False
        if entry is not None and entry.space_id == space_id and entry.vpn == vpn:
            self._table[idx] = None
            removed = True
        if self._overflow.pop((space_id, vpn), None) is not None:
            removed = True
        return removed

    def remove_space(self, space_id: int) -> int:
        """Drop every translation for an address space; returns the count."""
        removed = 0
        for idx, entry in enumerate(self._table):
            if entry is not None and entry.space_id == space_id:
                self._table[idx] = None
                removed += 1
        stale = [k for k in self._overflow if k[0] == space_id]
        for key in stale:
            del self._overflow[key]
        removed += len(stale)
        return removed

    def entries(self) -> list[Translation]:
        """All live translations (main table then overflow)."""
        live = [e for e in self._table if e is not None]
        live.extend(self._overflow.values())
        return live


class LinearPageTable:
    """Conventional per-space page tables (the ULTRIX model)."""

    def __init__(self) -> None:
        self._spaces: dict[int, dict[int, Translation]] = {}
        self.stats = PageTableStats()

    def insert(self, entry: Translation) -> None:
        """Install a translation in its space's table."""
        self._spaces.setdefault(entry.space_id, {})[entry.vpn] = entry

    def lookup(self, space_id: int, vpn: int) -> Translation | None:
        """Look up a translation; counts hits and misses."""
        self.stats.lookups += 1
        entry = self._spaces.get(space_id, {}).get(vpn)
        if entry is not None:
            self.stats.hits += 1
        return entry

    def remove(self, space_id: int, vpn: int) -> bool:
        """Drop one translation; returns whether it existed."""
        space = self._spaces.get(space_id)
        if space is None:
            return False
        return space.pop(vpn, None) is not None

    def remove_space(self, space_id: int) -> int:
        """Drop a whole space's translations; returns the count."""
        space = self._spaces.pop(space_id, None)
        return len(space) if space else 0

    def entries(self) -> list[Translation]:
        """All live translations across spaces."""
        return [e for space in self._spaces.values() for e in space.values()]
