"""The SPCM's grant order over its free pool, one run per NUMA node.

The free pool for a page size *is* the residency of that size's boot
segment: the kernel boots every frame there, ``MigratePages`` is the
only way a frame moves, and a free frame can sit only at its home page
(:class:`~repro.core.segment.HomePages`; the SPCM returns frames there
and the kernel sweeps a deleted segment's leftovers there).
:class:`NodeBucketedFreeList` therefore stores no pages, and it reads
pages, never frames.  Boot pages follow physical-address order and NUMA
nodes own contiguous physical ranges, so each node's pages are one run
of page indices; a grant scans the preferred node's run upward, then the other
runs in node order, which yields the lowest free pages, local first.

Scanning each run from its start would revisit every page granted
before, so each run keeps a low-water mark with no free page below it.
:meth:`~NodeBucketedFreeList.take` raises the mark past the pages it
hands out, and every path that puts a frame back into a boot segment
must lower it through :meth:`~NodeBucketedFreeList.append`: a mark above
a free page hides that page and grants under-fill.  Retiring a frame
only removes a page, so it needs no call here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import islice

from repro.core.segment import HomePages


class NodeBucketedFreeList:
    """Grant order over one boot segment's pages: node runs and marks."""

    __slots__ = ("_pages", "_runs", "_marks")

    def __init__(self, pages: HomePages, runs: list[range]) -> None:
        #: the boot segment's residency, read, never copied
        self._pages = pages
        #: each node's boot pages, in node order (a run may be empty)
        self._runs = runs
        self._marks = [run.start for run in runs]

    def _order(self, prefer_node: int | None) -> list[int] | range:
        nodes = range(len(self._runs))
        if prefer_node is None or prefer_node not in nodes:
            return nodes
        return [prefer_node, *(node for node in nodes if node != prefer_node)]

    def _free_on(self, node: int) -> Iterator[int]:
        """``node``'s free pages, ascending."""
        return self._pages.within(
            range(self._marks[node], self._runs[node].stop)
        )

    def take(self, n: int, prefer_node: int | None = None) -> list[int]:
        """The ``n`` lowest free pages, ``prefer_node``'s run first.

        The pages stay in the boot segment until the caller migrates them
        out; the marks move past them now.
        """
        taken: list[int] = []
        for node in self._order(prefer_node):
            need = n - len(taken)
            if need <= 0:
                break
            found = list(islice(self._free_on(node), need))
            taken += found
            self._marks[node] = (
                found[-1] + 1 if len(found) == need else self._runs[node].stop
            )
        return taken

    def append(self, page: int) -> None:
        """A frame came home to ``page``: lower its run's mark."""
        for node, run in enumerate(self._runs):
            if page in run:
                self._marks[node] = min(self._marks[node], page)
                return

    def count_on(self, node: int) -> int:
        """``node``'s free page count."""
        return self._pages.count(self._runs[node])

    def counts_by_node(self) -> dict[int, int]:
        """``node -> free page count``."""
        return {node: self.count_on(node) for node in range(len(self._runs))}

    def matching(
        self,
        accept: Callable[[int], bool],
        prefer_node: int | None = None,
    ) -> list[int]:
        """Every free page that ``accept`` takes, in grant order."""
        return [
            page
            for node in self._order(prefer_node)
            for page in self._free_on(node)
            if accept(page)
        ]
