"""A software-managed TLB in the style of the MIPS R3000.

The R3000 in the DECstation 5000/200 has a 64-entry fully-associative TLB
whose misses are handled by a short kernel refill routine ("simple TLB
misses are handled by the kernel", paper S2.1).  The model is LRU over
(space, vpn) tags; the kernel charges ``tlb_refill`` per miss it refills.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.trace import NULL_TRACER


@dataclass
class TLBStats:
    lookups: int = 0
    hits: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat values for a metrics-registry provider."""
        return {
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "flushes": float(self.flushes),
        }


class TLB:
    """A fully-associative, LRU-replacement translation lookaside buffer."""

    def __init__(self, n_entries: int = 64) -> None:
        if n_entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.n_entries = n_entries
        # (space_id, vpn) -> payload; ordered oldest-first for LRU.
        self._entries: OrderedDict[tuple[int, int], object] = OrderedDict()
        self.stats = TLBStats()
        #: set by the owning kernel; misses are reported as trace events
        #: (the hit path is untouched, so disabled tracing costs nothing)
        self.tracer = NULL_TRACER

    def lookup(self, space_id: int, vpn: int) -> object | None:
        """Return the cached payload, refreshing LRU order, or ``None``."""
        self.stats.lookups += 1
        key = (space_id, vpn)
        payload = self._entries.get(key)
        if payload is None:
            if self.tracer.enabled:
                self.tracer.event(
                    "tlb", f"miss: space {space_id} vpn {vpn}"
                )
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return payload

    def insert(self, space_id: int, vpn: int, payload: object) -> None:
        """Install a translation, evicting the LRU entry when full."""
        key = (space_id, vpn)
        if key not in self._entries and len(self._entries) >= self.n_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = payload
        self._entries.move_to_end(key)

    def invalidate(self, space_id: int, vpn: int) -> bool:
        """Drop one translation; returns whether it was present."""
        return self._entries.pop((space_id, vpn), None) is not None

    def flush_space(self, space_id: int) -> int:
        """Drop all translations for one address space."""
        stale = [k for k in self._entries if k[0] == space_id]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def flush(self) -> None:
        """Drop every translation."""
        self._entries.clear()
        self.stats.flushes += 1

    def entries(self) -> list[tuple[tuple[int, int], object]]:
        """Snapshot of ``((space_id, vpn), payload)`` pairs, LRU order.

        Read-only view for the invariant engine's ``translations`` check
        (:mod:`repro.invariants`); does not refresh LRU order.
        """
        return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)
