"""The invariant engine: every corruption fires the check that owns it.

One table, one row per corruption: each row breaks one fact on a live
system and names the check that must report it.  Three legal states that
a naive checker mistakes for corruption --- a retired frame, a cold
failover, a sweep fired from inside a fill --- must sweep clean.  The
kernel's frame-conservation call and the SLO watchdog read the same
checks, so on every row they must reach the sweep's verdict.
"""

from __future__ import annotations

import pytest

from repro import build_system
from repro.chaos import ChaosPlan, Injector
from repro.core.flags import PageFlags
from repro.errors import InvariantViolationError
from repro.invariants import CHECKS, InvariantChecker
from repro.managers.base import GenericSegmentManager
from repro.managers.default_manager import DefaultSegmentManager
from repro.obs.slo import SLOWatchdog
from repro.spcm.market import MemoryMarket
from repro.verify import determinism, oracle
from repro.verify.schedule import NAMED_SCHEDULES

PAGE = 4096


@pytest.fixture
def world():
    """A booted system plus a worked generic manager.

    The manager holds free slots, empty slots, resident pages (4-15 of
    its segment) and migrate-back entries (pages 0-3, reclaimed), so
    every bookkeeping rule has something to check.
    """
    system = build_system(memory_mb=8, manager_frames=128)
    kernel = system.kernel
    manager = GenericSegmentManager(
        kernel, system.spcm, "work", initial_frames=32
    )
    seg = kernel.create_segment(16, name="work.data", manager=manager)
    for page in range(16):
        kernel.reference(seg, page * PAGE, write=(page % 2 == 0))
    manager.reclaim_pages(4)
    assert sorted(seg.pages) == list(range(4, 16))
    assert manager._stale_slot and manager._empty_slots
    return system, manager, seg


# ---------------------------------------------------------------------------
# corruptions, one per row
# ---------------------------------------------------------------------------


def lose_frame(system, manager, seg):
    boot = system.kernel.initial_segment
    del boot.pages[next(iter(boot.pages))]


def file_frame_twice(system, manager, seg):
    spare = system.kernel.create_segment(4, name="spare")
    spare.pages[0] = seg.pages[15]


def break_back_pointer(system, manager, seg):
    seg.pages[15].owner_segment_id = 9999


def retire_in_service(system, manager, seg):
    system.kernel.retired_frames.add(seg.pages[15].pfn)


def move_without_shootdown(system, manager, seg):
    frame = seg.pages.pop(15)
    spare = system.kernel.create_segment(4, name="spare")
    spare.pages[0] = frame
    frame.owner_segment_id = spare.seg_id
    frame.page_index = 0


def revoke_write_without_shootdown(system, manager, seg):
    frame = seg.pages[14]  # written, so its cached entries are writable
    frame.flags &= ~int(PageFlags.WRITE)


def overlap_bindings(system, manager, seg):
    space = system.kernel.create_segment(8, name="space")
    space.bind(0, 4, seg, 4)
    space.bindings.append(space.bindings[0])


def list_slot_twice(system, manager, seg):
    manager._empty_slots.append(manager._free_slots[0])


def invent_free_slot(system, manager, seg):
    manager._free_slots.append(manager.free_segment.n_pages + 7)


def empty_a_backed_slot(system, manager, seg):
    manager._empty_slots.append(manager._free_slots.pop(0))


def split_migrate_back_maps(system, manager, seg):
    del manager._stale_slot[next(iter(manager._stale_slot))]


def invent_resident(system, manager, seg):
    manager._resident[(seg.seg_id, 99)] = None


def drift_spcm_pool(system, manager, seg):
    system.spcm._free[PAGE].append(999_999)


def unsort_pool(system, manager, seg):
    bucket = system.spcm._free[PAGE]._buckets[0]
    bucket[0], bucket[1] = bucket[1], bucket[0]


def mint_drams(system, manager, seg):
    market = MemoryMarket()
    market.open_account("a")
    system.spcm.markets.append(market)
    market.accounts["a"].balance += 5.0


CORRUPTIONS = [
    pytest.param(lose_frame, "frames", id="lost-frame"),
    pytest.param(file_frame_twice, "frames", id="double-owner"),
    pytest.param(break_back_pointer, "frames", id="bad-back-pointer"),
    pytest.param(retire_in_service, "frames", id="retired-in-service"),
    pytest.param(
        move_without_shootdown, "translations", id="stale-translation"
    ),
    pytest.param(
        revoke_write_without_shootdown, "translations", id="writable-read-only"
    ),
    pytest.param(overlap_bindings, "bindings", id="overlapping-bindings"),
    pytest.param(list_slot_twice, "managers", id="slot-listed-twice"),
    pytest.param(invent_free_slot, "managers", id="phantom-free-slot"),
    pytest.param(empty_a_backed_slot, "managers", id="empty-slot-holds-frame"),
    pytest.param(
        split_migrate_back_maps, "managers", id="migrate-back-maps-disagree"
    ),
    pytest.param(invent_resident, "managers", id="phantom-resident"),
    pytest.param(drift_spcm_pool, "spcm_pool", id="spcm-pool-drift"),
    pytest.param(unsort_pool, "spcm_pool", id="unsorted-pool"),
    pytest.param(mint_drams, "market", id="minted-drams"),
]


def fired_checks(found: list[str]) -> set[str]:
    """Check names out of ``[check] message`` lines."""
    return {line[1:line.index("]")] for line in found}


@pytest.mark.parametrize("corrupt, check", CORRUPTIONS)
def test_corruption_fires_its_check(world, corrupt, check):
    system, manager, seg = world
    checker = InvariantChecker(system.kernel)
    assert checker.violations() == []
    corrupt(system, manager, seg)
    found = checker.violations()
    assert check in fired_checks(found), found
    with pytest.raises(InvariantViolationError, match=rf"\[{check}\] "):
        checker.check_all()
    assert checker.checks_run == 3

    # the kernel's conservation call and the SLO watchdog agree
    frames_broken = "frames" in fired_checks(found)
    try:
        system.kernel.check_frame_conservation()
        conserved = True
    except InvariantViolationError as exc:
        conserved = False
        assert "[frames]" in str(exc)
    assert conserved is not frames_broken
    alerts = {a.name: a for a in SLOWatchdog(system).check()}
    assert ("frame_conservation" in alerts) is frames_broken
    assert ("market_balance" in alerts) is ("market" in fired_checks(found))
    for alert in alerts.values():
        assert alert.severity == "critical" and alert.threshold == 0.0
        assert alert.value >= 1.0


def test_table_order_and_clean_sweep(world):
    system, manager, _ = world
    assert list(CHECKS) == [
        "frames", "spcm_pool", "shards", "translations",
        "bindings", "market", "quotas", "managers",
    ]
    manager.return_frames(4)
    file_seg = system.kernel.create_segment(
        0, name="f", manager=system.default_manager, auto_grow=True
    )
    system.file_server.create_file(file_seg)
    system.uio.write(file_seg, 0, b"x" * (8 * PAGE))
    checker = InvariantChecker(system.kernel)
    checker.check_all()
    checker(object())  # the injector-observer form
    assert checker.violations() == []
    assert checker.checks_run == 3


# ---------------------------------------------------------------------------
# legal states that must sweep clean
# ---------------------------------------------------------------------------


def test_retired_frames_sweep_clean(world):
    """ECC retirement takes frames out of service, not out of the count:
    one from the free pool, one from a resident page.  Until the refault
    places a new frame, the manager still lists the page as resident."""
    system, _, seg = world
    kernel = system.kernel
    boot = kernel.initial_segment
    kernel.retire_frame(boot.pages[next(iter(boot.pages))])
    kernel.retire_frame(seg.pages[15])
    assert len(kernel.retired_frames) == 2
    checker = InvariantChecker(kernel)
    assert checker.violations() == []
    kernel.reference(seg, 15 * PAGE)  # the refault the kernel's ECC path runs
    assert checker.violations() == []
    kernel.check_frame_conservation()


def test_cold_failover_sweeps_clean(world):
    """The fallback adopts the dead manager's pages; the dead manager is
    skipped and its SPCM account may stay out of step."""
    system, _, _ = world
    kernel = system.kernel
    victim = DefaultSegmentManager(
        kernel, system.spcm, system.file_server, initial_frames=8,
        name="victim",
    )
    data = kernel.create_segment(8, name="victim.data", manager=victim)
    kernel.reference(data, 0, write=True)
    Injector(
        ChaosPlan(
            manager_crash_rate=1.0, max_injections=1,
            target_managers=("victim",),
        )
    ).install(system)
    kernel.reference(data, PAGE, write=True)
    assert victim.failed and data.manager is system.default_manager
    assert InvariantChecker(kernel).violations() == []


def test_sweep_inside_a_fill_is_clean(world):
    """A disk error during a fill's page read fires the sweep while the
    slot popped for the fill is still backed but off the free list."""
    system, _, _ = world
    kernel = system.kernel
    victim = DefaultSegmentManager(
        kernel, system.spcm, system.file_server, initial_frames=8,
        name="victim",
    )
    file_seg = kernel.create_segment(
        0, name="victim.file", manager=victim, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"f" * (4 * PAGE))
    checker = InvariantChecker(kernel)
    seen = []

    def observe(_event):
        seen.append(
            (
                len(victim._free_slots),
                len(victim.free_segment.pages),
                checker.violations(),
            )
        )

    injector = Injector(ChaosPlan(disk_error_rate=1.0, max_injections=1))
    injector.install(system)
    injector.observers.append(observe)
    kernel.reference(file_seg, 0)
    ((free, backed, found),) = seen
    assert free == backed - 1
    assert found == []


# ---------------------------------------------------------------------------
# every verify run closes with a full sweep
# ---------------------------------------------------------------------------


def _drive_then_lose_a_frame(drive):
    def corrupting_drive(system, schedule, segments):
        drive(system, schedule, segments)
        boot = system.kernel.initial_segment
        del boot.pages[next(iter(boot.pages))]

    return corrupting_drive


def test_oracle_run_closes_with_a_sweep(monkeypatch):
    monkeypatch.setattr(
        oracle, "drive_vpp", _drive_then_lose_a_frame(oracle.drive_vpp)
    )
    with pytest.raises(InvariantViolationError, match=r"\[frames\]"):
        oracle.run_vpp(NAMED_SCHEDULES["table1"]())


def test_schedule_determinism_run_closes_with_a_sweep(monkeypatch):
    monkeypatch.setattr(
        determinism,
        "drive_vpp",
        _drive_then_lose_a_frame(determinism.drive_vpp),
    )
    report = determinism.run_twice(NAMED_SCHEDULES["table1"]())
    assert report.divergence is None
    assert not report.ok
    assert "[frames]" in report.render()
