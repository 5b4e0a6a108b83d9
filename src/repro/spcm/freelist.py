"""Node-bucketed free list for the SPCM's frame pool.

The SPCM used to keep one flat sorted list of free boot-page indices per
page size.  Every grant then paid linear work over the whole pool: a
full copy to build the candidate list, a Python-level local/remote
partition when the request carried a ``home_node`` hint, and one
``list.remove`` scan per granted page.  :class:`NodeBucketedFreeList`
keeps one sorted bucket per NUMA node instead, so the common
(unconstrained) grant is a prefix slice of the preferred node's bucket
--- constant work per granted frame --- and a return is one bisected
insert into the owning node's bucket.

Because the machine's physical address space is partitioned into
contiguous per-node ranges and boot pages are laid out in
physical-address order, concatenating the buckets in node order yields
the exact ascending page order the flat list had.  External readers
(the invariant engine's ``spcm_pool`` check, the verify digest) treat
the free list as an iterable of page indices with ``append`` /
``remove`` / ``in`` / ``len``; that contract is preserved, so the state
digest over the free pool is unchanged by the refactor.

Pages whose node cannot be computed (e.g. a bogus index injected by a
corruption test) land in an overflow bucket that sorts after every real
node.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable, Iterator


class NodeBucketedFreeList:
    """Sorted free boot-page indices for one page size, one bucket per node."""

    __slots__ = ("_buckets", "_extra", "_node_of", "_len")

    def __init__(self, n_nodes: int, node_of_page: Callable[[int], int]) -> None:
        if n_nodes <= 0:
            raise ValueError("free list needs at least one node bucket")
        self._buckets: list[list[int]] = [[] for _ in range(n_nodes)]
        #: pages with no computable home node (corruption injection)
        self._extra: list[int] = []
        self._node_of = node_of_page
        self._len = 0

    def _bucket_of(self, page: int) -> list[int]:
        try:
            return self._buckets[self._node_of(page)]
        except Exception:
            return self._extra

    def _find(self, page: int) -> tuple[list[int], int] | None:
        """Locate ``page``: its bucket and index there, or ``None``.

        The computed bucket is checked first; a miss falls back to every
        bucket, because a page's node can become uncomputable after it
        was appended (frame retirement drops it from the boot segment).
        """
        bucket = self._bucket_of(page)
        i = bisect_left(bucket, page)
        if i < len(bucket) and bucket[i] == page:
            return bucket, i
        for other in self._buckets:
            if other is bucket:
                continue
            i = bisect_left(other, page)
            if i < len(other) and other[i] == page:
                return other, i
        if bucket is not self._extra:
            i = bisect_left(self._extra, page)
            if i < len(self._extra) and self._extra[i] == page:
                return self._extra, i
        return None

    # -- the list-like contract external readers rely on --------------------

    def append(self, page: int) -> None:
        """Insert a page, keeping its bucket sorted."""
        insort(self._bucket_of(page), page)
        self._len += 1

    def remove(self, page: int) -> None:
        """Remove one page; raises ``ValueError`` when absent."""
        found = self._find(page)
        if found is None:
            raise ValueError(f"page {page} not in free list")
        bucket, i = found
        del bucket[i]
        self._len -= 1

    def __contains__(self, page: int) -> bool:
        return self._find(page) is not None

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        """Ascending page order (node buckets in order, overflow last)."""
        for bucket in self._buckets:
            yield from bucket
        yield from self._extra

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._len
        if index < 0:
            raise IndexError("free list index out of range")
        for bucket in self._buckets:
            if index < len(bucket):
                return bucket[index]
            index -= len(bucket)
        if index < len(self._extra):
            return self._extra[index]
        raise IndexError("free list index out of range")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeBucketedFreeList):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeBucketedFreeList({list(self)!r})"

    # -- bucketed fast paths -------------------------------------------------

    def count_on_node(self, node: int) -> int:
        """Free pages currently homed on ``node``."""
        return len(self._buckets[node])

    def counts_by_node(self) -> dict[int, int]:
        """``node -> free page count`` without touching frame state."""
        return {node: len(b) for node, b in enumerate(self._buckets)}

    def take(self, n: int, prefer_node: int | None = None) -> list[int]:
        """Remove and return up to ``n`` pages in grant order.

        Grant order is ascending page index; a ``prefer_node`` pulls that
        node's bucket ahead of the rest (local-first placement), matching
        the order the flat list produced under a ``home_node`` hint.
        """
        if n <= 0:
            return []
        buckets = self._buckets
        order: list[int] | range = range(len(buckets))
        if prefer_node is not None and 0 <= prefer_node < len(buckets):
            order = [prefer_node]
            order.extend(i for i in range(len(buckets)) if i != prefer_node)
        taken: list[int] = []
        for node in order:
            need = n - len(taken)
            if need <= 0:
                break
            bucket = buckets[node]
            if bucket:
                taken.extend(bucket[:need])
                del bucket[:need]
        need = n - len(taken)
        if need > 0 and self._extra:
            taken.extend(self._extra[:need])
            del self._extra[:need]
        self._len -= len(taken)
        return taken
