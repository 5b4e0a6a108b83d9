"""The default segment manager (the extended UCDS)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.flags import PageFlags
from repro.core.manager_api import InvocationMode
from repro.managers.base import GenericSegmentManager
from repro.managers.default_manager import APPEND_UNIT_PAGES


class _RecordingJournal:
    """A journal that keeps each record it is given, in order."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[tuple[str, dict]] = []

    def append(self, kind: str, **fields) -> None:
        self.records.append((kind, fields))


def maximal_run_scan(free_slots: list[int], n: int) -> list[int] | None:
    """The reference ``_find_run``: walk the sorted stock run by run and
    take the head of the first maximal run at least ``n`` long."""
    if len(free_slots) < n:
        return None
    ordered = sorted(free_slots)
    start = 0
    for i in range(1, len(ordered) + 1):
        if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
            if i - start >= n:
                return ordered[start : start + n]
            start = i
    return None


def unbacked_run_around(segment, page: int) -> list[int]:
    """The reference append run: list the unit's unbacked pages, split
    them into runs of consecutive pages and keep the faulting page's."""
    unit = APPEND_UNIT_PAGES
    start = (page // unit) * unit
    pages = [
        p
        for p in range(start, min(start + unit, segment.n_pages))
        if p not in segment.pages
    ]
    runs = [[pages[0]]]
    for p in pages[1:]:
        if p == runs[-1][-1] + 1:
            runs[-1].append(p)
        else:
            runs.append([p])
    return next(run for run in runs if page in run)


class TestInvocation:
    def test_runs_as_separate_process(self, system):
        assert (
            system.default_manager.invocation
            is InvocationMode.SEPARATE_PROCESS
        )

    def test_fault_cost_is_379us(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(4, manager=system.default_manager)
        snap = kernel.meter.snapshot()
        kernel.reference(seg, 0, write=True)
        assert sum(kernel.meter.delta_since(snap).values()) == 379.0


class TestFilePaging:
    def make_file(self, system, data):
        seg = system.kernel.create_segment(
            0, name="file", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=data)
        return seg

    def test_fill_fetches_file_data(self, system):
        data = b"filedata" * 512  # one page
        seg = self.make_file(system, data)
        assert system.uio.read(seg, 0, len(data)) == data

    def test_writeback_on_reclaim(self, system):
        seg = self.make_file(system, b"v0" * 2048)
        system.uio.write(seg, 0, b"v1" * 2048)
        system.default_manager.reclaim_one(seg, 0)
        system.default_manager.invalidate_reclaim_cache()
        assert system.default_manager.writebacks == 1
        # page back in from the server: sees the written data
        assert system.uio.read(seg, 0, 4, ) == b"v1v1"

    def test_anonymous_pages_have_no_writeback(self, system):
        kernel = system.kernel
        seg = kernel.create_segment(4, manager=system.default_manager)
        kernel.reference(seg, 0, write=True)
        system.default_manager.reclaim_one(seg, 0)
        assert system.default_manager.writebacks == 0

    def test_file_close_writes_back_dirty_pages(self, system):
        seg = self.make_file(system, b"a" * 4096)
        system.uio.write(seg, 0, b"b" * 4096)
        system.default_manager.file_closed(seg)
        assert system.default_manager.writebacks == 1
        assert system.file_server.fetch_page(seg, 0) == b"b" * 4096
        # DIRTY cleared after writeback
        assert not PageFlags.DIRTY & PageFlags(seg.pages[0].flags)

    def test_store_after_close_is_written_back_at_next_close(self, system):
        """Writeback clears DIRTY; a later store through a translation
        must dirty the page again, or the next close would skip it."""
        kernel, manager = system.kernel, system.default_manager
        seg = self.make_file(system, b"a" * 4096)
        kernel.reference(seg, 0, write=True)
        manager.file_closed(seg)
        assert manager.writebacks == 1
        frame = kernel.reference(seg, 0, write=True)
        frame.write(b"c" * 4096)
        assert PageFlags.DIRTY & PageFlags(frame.flags)
        manager.file_closed(seg)
        assert manager.writebacks == 2
        assert system.file_server.fetch_page(seg, 0) == b"c" * 4096

    def test_open_close_count_as_manager_calls(self, system):
        kernel = system.kernel
        seg = self.make_file(system, b"")
        calls = kernel.stats.manager_calls.get("default-manager", 0)
        system.default_manager.file_opened(seg)
        system.default_manager.file_closed(seg)
        assert kernel.stats.manager_calls["default-manager"] == calls + 2


class TestAppendAllocation:
    def test_append_alignment(self, system):
        """Appends allocate 16 KB (4-page) aligned units."""
        seg = system.kernel.create_segment(
            0, name="out", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg)
        system.uio.write(seg, 0, b"x" * 4096)
        assert sorted(seg.pages) == [0, 1, 2, 3]
        assert system.default_manager.append_allocations == 1

    def test_single_migrate_per_append_unit(self, system):
        seg = system.kernel.create_segment(
            0, name="out", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg)
        migrates = system.kernel.stats.migrate_calls_by_manager.get(
            "default-manager", 0
        )
        system.uio.write(seg, 0, b"x" * 4096)
        assert (
            system.kernel.stats.migrate_calls_by_manager["default-manager"]
            == migrates + 1
        )

    @pytest.mark.parametrize("fault_page", [1, 2])
    def test_run_stops_at_backed_pages_on_both_sides(self, system, fault_page):
        """Pages 0 and 3 of a unit backed, 1 and 2 not: an append fault on
        either takes the run 1..2, the slots the maximal-run scan picks
        and journals them as one ``mgr.place``."""
        kernel, manager = system.kernel, system.default_manager
        seg = kernel.create_segment(
            0, name="out", manager=manager, auto_grow=True
        )
        system.file_server.create_file(seg)
        system.uio.write(seg, 0, b"x" * 4096)  # backs the unit 0..3
        manager.reclaim_one(seg, 1)
        manager.reclaim_one(seg, 2)
        manager.invalidate_reclaim_cache()  # no migrate-back: an append
        assert sorted(seg.pages) == [0, 3]
        run = unbacked_run_around(seg, fault_page)
        assert run == [1, 2]
        slots = maximal_run_scan(manager._free_slots, len(run))
        assert slots is not None
        frames = [manager.free_segment.pages[slot] for slot in slots]
        manager.journal = _RecordingJournal()
        appends = manager.append_allocations
        system.uio.write(seg, fault_page * 4096, b"y" * 4096)
        assert manager.append_allocations == appends + 1
        assert sorted(seg.pages) == [0, 1, 2, 3]
        assert [seg.pages[page] for page in run] == frames
        places = [
            fields
            for kind, fields in manager.journal.records
            if kind == "mgr.place"
        ]
        assert places == [{"seg": seg.seg_id, "pages": run, "slots": slots}]

    def test_overwrite_below_eof_is_not_an_append(self, system):
        seg = system.kernel.create_segment(
            0, name="out", manager=system.default_manager, auto_grow=True
        )
        system.file_server.create_file(seg, data=b"z" * (8 * 4096))
        appends = system.default_manager.append_allocations
        system.uio.write(seg, 0, b"y" * 4096)
        assert system.default_manager.append_allocations == appends


@st.composite
def free_stocks(draw):
    """A free-slot stack (distinct slots in any order), sometimes with a
    fresh SPCM grant appended: slots from the free segment's old end up,
    which may extend the old stock's top run."""
    slots = draw(st.lists(st.integers(0, 48), unique=True, max_size=32))
    slots = draw(st.permutations(slots))
    if draw(st.booleans()):
        end = max(slots, default=-1) + 1 + draw(st.integers(0, 2))
        slots = slots + list(range(end, end + draw(st.integers(1, 8))))
    return slots


class TestFindRun:
    """The append allocator's run search returns the first sorted window
    whose ends lie ``n - 1`` apart; that must be exactly what the
    maximal-run scan returns."""

    # the lowest long-enough run is slot 11 merged with a fresh grant
    # of 12..15 appended at the top
    @example([11, 5, 12, 13, 14, 15], 4)
    @example([3, 9, 10, 1, 2], 3)
    @example([], 1)
    @example([7], 1)
    @given(free_stocks(), st.integers(1, 6))
    def test_matches_the_maximal_run_scan(self, free_slots, n):
        stock = SimpleNamespace(_free_slots=list(free_slots))
        got = GenericSegmentManager._find_run(stock, n)
        assert got == maximal_run_scan(free_slots, n)
        assert stock._free_slots == free_slots  # reads, never takes


class TestWorkingSetRebalance:
    def test_rebalance_reclaims_from_slack_segments(self, system):
        kernel = system.kernel
        manager = system.default_manager
        hot = kernel.create_segment(8, name="hot", manager=manager)
        cold = kernel.create_segment(8, name="cold", manager=manager)
        for page in range(8):
            kernel.reference(hot, page * 4096)
            kernel.reference(cold, page * 4096)
        manager.sampler.begin_interval([hot, cold])
        for page in range(8):  # only hot is touched this interval
            kernel.reference(hot, page * 4096)
        freed = manager.rebalance([hot, cold], frames_to_free=4)
        assert freed == 4
        assert cold.resident_pages < 8
        assert hot.resident_pages == 8
