"""The pressure path's simulated state, pinned at three seeds.

A 1 MB machine whose default manager starts with 32 frames is driven
through a working set several times its memory: two scans of a
384-page file, 256 dirty 4 KB log appends, 64 seeded re-reads of the
log, and a 128-page heap written and then re-read in seeded order.
Clock victim selection, dirty writeback, refetch and migrate-back all
run, and every one of them feeds the state digest, so a change to the
pressure path that moves any simulated outcome (the clock's victim
order included) fails here.  The manager's own policy state (the clock
ring and hand, the order of the free and empty slot lists, the
migrate-back map and the counters) is pinned beside it: it can drift
without any change to kernel state until it changes a victim or a slot
choice.  The pinned values were recorded before the path's host-side
rewrites (plain-dict resident set, int flag tests; one-page migrates,
hoisted clock sweeps) and must not move with them.

The same drive, without its boot, must make no call into ``enum.py``:
PageFlags and FaultKind operators run there at Python speed, and the
fault path works on ints and prebuilt members instead.
"""

from __future__ import annotations

import enum
import random
import sys

import pytest

from repro import build_system
from repro.verify.digest import digest_payload, state_digest

PAGE = 4096
SCAN_PAGES = 384
SCANS = 2
LOG_PAGES = 256
LOG_REREADS = 64
HEAP_PAGES = 128

#: seed -> (faults, pages reclaimed, writebacks, fast reclaims, state
#: digest, policy-state digest)
PINNED = {
    0: (
        973, 944, 176, 4,
        "83e75bdc9b8824730c314f2e80d5b22f4dfb595fd8b483655dd46d92f21a9e3e",
        "e300efbaa962f1f01d41c09af7794e361f7a302d6618b59cff2233225b1f39c1",
    ),
    1: (
        974, 944, 176, 3,
        "e4af152eda2c8af890d7977d33b5c478815a612e7ea5509248b5b9f68868a62b",
        "70e048c1c7fa6605a45115db0577f23ba5f1ff14857d621728bb3374692c6dc0",
    ),
    2: (
        974, 944, 176, 2,
        "f9951d9c65bd1c6814bd80ba52e4cb0bf2dfd3934b85c5d5801b28b7e52faa72",
        "d134655c07b240b681b7fbe9f48c9d724b4cf6173fb760eb09ec0fd3d5c7d1f0",
    ),
}


def pressure_machine(seed: int):
    """Boot the machine; returns ``(system, drive)``.

    ``drive()`` runs the whole workload and returns how many reads came
    back with bytes other than those written.
    """
    rng = random.Random(seed)
    scan_data = rng.randbytes(SCAN_PAGES * PAGE)
    log_pages = [rng.randbytes(PAGE) for _ in range(LOG_PAGES)]
    log_rereads = [rng.randrange(LOG_PAGES) for _ in range(LOG_REREADS)]
    heap_rereads = list(range(HEAP_PAGES))
    rng.shuffle(heap_rereads)

    system = build_system(memory_mb=1, manager_frames=32)
    kernel, manager = system.kernel, system.default_manager
    uio, file_server = system.uio, system.file_server
    scan = kernel.create_segment(
        0, name="scan.dat", manager=manager, auto_grow=True
    )
    file_server.create_file(scan, data=scan_data)
    log = kernel.create_segment(
        0, name="append.log", manager=manager, auto_grow=True
    )
    file_server.create_file(log)
    heap = kernel.create_segment(HEAP_PAGES, name="heap", manager=manager)

    def drive() -> int:
        mismatches = 0
        for _ in range(SCANS):
            for page in range(SCAN_PAGES):
                off = page * PAGE
                if uio.read(scan, off, PAGE) != scan_data[off : off + PAGE]:
                    mismatches += 1
        for page, data in enumerate(log_pages):
            uio.write(log, page * PAGE, data)
        for page in log_rereads:
            if uio.read(log, page * PAGE, PAGE) != log_pages[page]:
                mismatches += 1
        for page in range(HEAP_PAGES):
            kernel.reference(heap, page * PAGE, write=True)
        for page in heap_rereads:
            kernel.reference(heap, page * PAGE, write=False)
        return mismatches

    return system, drive


def outcome(system) -> tuple:
    manager = system.default_manager
    return (
        system.kernel.stats.faults,
        manager.pages_reclaimed,
        manager.writebacks,
        manager.fast_reclaims,
        state_digest(system),
        digest_payload(manager.serialize_policy_state()),
    )


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pressure_path_state_is_pinned(seed):
    system, drive = pressure_machine(seed)
    assert drive() == 0
    system.kernel.check_frame_conservation()
    assert outcome(system) == PINNED[seed]


def test_pressure_path_makes_no_enum_calls():
    system, drive = pressure_machine(0)
    enum_file = enum.__file__
    calls: list[str] = []

    def profile(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename == enum_file:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        mismatches = drive()
    finally:
        sys.setprofile(previous)
    assert mismatches == 0
    # the drive did run the pressure path
    assert system.default_manager.pages_reclaimed > 0
    assert system.default_manager.writebacks > 0
    assert calls == [], f"{len(calls)} enum.py calls, first {calls[:5]}"
