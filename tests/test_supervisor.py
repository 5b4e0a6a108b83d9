"""The manager supervisor: every degradation path, one table.

Each row drives one way a manager can fail a fault delivery through the
real kernel and pins what the supervisor reports: the degradation events
its listeners see, in order, and the ``KernelStats`` counters the path
moves (every other degradation counter stays zero).  The fault always
resolves, and no degradation clock is left running afterwards.
"""

from __future__ import annotations

import pytest

from repro import build_system
from repro.chaos import ChaosPlan, Injector
from repro.core.supervisor import (
    FAILOVER_AFTER_ATTEMPTS,
    IPC_MAX_REDELIVERIES,
)
from repro.errors import UnresolvedFaultError
from repro.managers.default_manager import DefaultSegmentManager
from repro.recovery import install_recovery

VICTIM = "victim-ucds"

#: every counter a degradation can move; a path leaves the rest at zero
DEGRADATION_COUNTERS = (
    "manager_timeouts",
    "manager_crashes",
    "manager_failovers",
    "fallback_resolutions",
    "byzantine_replies",
    "ipc_drops",
    "ipc_duplicates",
    "warm_restarts",
    "listener_errors",
)

_FAILED_OVER = {"manager_failovers": 1, "fallback_resolutions": 1}

#: path -> (chaos plan rates, recovery installed, events, counters moved)
PATHS = {
    "crash": (
        {"manager_crash_rate": 1.0, "max_injections": 1},
        False,
        ["failover"],
        {"manager_crashes": 1, **_FAILED_OVER},
    ),
    "crash-warm-restart": (
        {"manager_crash_rate": 1.0, "max_injections": 1},
        True,
        ["warm_restart"],
        {"manager_crashes": 1, "warm_restarts": 1},
    ),
    "crash-torn-journal": (
        # injection 1 crashes the manager, injection 2 tears the journal
        # tail the warm restart needs
        {
            "manager_crash_rate": 1.0,
            "journal_tear_rate": 1.0,
            "max_injections": 2,
        },
        True,
        ["cold_fallback", "failover"],
        {"manager_crashes": 1, **_FAILED_OVER},
    ),
    "hang": (
        {"manager_hang_rate": 1.0, "max_injections": 1},
        False,
        ["failover"],
        {"manager_timeouts": 1, **_FAILED_OVER},
    ),
    "hang-warm-restart": (
        {"manager_hang_rate": 1.0, "max_injections": 1},
        True,
        ["warm_restart"],
        {"manager_timeouts": 1, "warm_restarts": 1},
    ),
    "byzantine": (
        {"manager_byzantine_rate": 1.0},
        False,
        ["failover"],
        {"byzantine_replies": FAILOVER_AFTER_ATTEMPTS, **_FAILED_OVER},
    ),
    "ipc-unreachable": (
        {"ipc_drop_rate": 1.0},
        False,
        ["failover"],
        {
            "ipc_drops": IPC_MAX_REDELIVERIES + 1,
            "manager_timeouts": 1,
            **_FAILED_OVER,
        },
    ),
    "ipc-unreachable-warm-restart": (
        {
            "ipc_drop_rate": 1.0,
            "max_injections": IPC_MAX_REDELIVERIES + 1,
        },
        True,
        ["warm_restart"],
        {
            "ipc_drops": IPC_MAX_REDELIVERIES + 1,
            "manager_timeouts": 1,
            "warm_restarts": 1,
        },
    ),
    "ipc-duplicate": (
        {"ipc_duplicate_rate": 1.0, "max_injections": 1},
        False,
        [],
        {"ipc_duplicates": 1},
    ),
}


def _victim_world(path: str):
    """A cached file under a chaos-targeted victim manager, the space that
    binds it, and the path's injector installed."""
    rates, recovery, _, _ = PATHS[path]
    system = build_system(memory_mb=8, manager_frames=128)
    if recovery:
        install_recovery(system)
    kernel = system.kernel
    victim = DefaultSegmentManager(
        kernel, system.spcm, system.file_server, initial_frames=8, name=VICTIM
    )
    file_seg = kernel.create_segment(
        0, name="vf", manager=victim, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"data" * 2048)
    space = kernel.create_segment(8, name="vs")
    space.bind(0, 2, file_seg, 0)
    Injector(ChaosPlan(target_managers=(VICTIM,), **rates)).install(system)
    return system, space


@pytest.mark.parametrize("path", list(PATHS))
def test_degradation_path(path):
    _, _, events, counters = PATHS[path]
    system, space = _victim_world(path)
    kernel = system.kernel
    seen = []
    kernel.supervisor.on_degradation(lambda *event: seen.append(event))
    assert kernel.reference(space, 0) is not None
    assert [event for event, _, _ in seen] == events
    assert all(name == VICTIM for _, name, _ in seen)
    stats = kernel.stats.as_dict()
    moved = {name: stats[name] for name in DEGRADATION_COUNTERS}
    assert moved == {name: counters.get(name, 0) for name in moved}
    assert kernel.supervisor._degradation_start is None
    kernel.check_frame_conservation()


@pytest.mark.parametrize(
    "path", ["crash-warm-restart", "crash-torn-journal", "crash"]
)
def test_raising_listener_is_counted_not_raised(path):
    """A raising degradation listener never unwinds the fault path, on the
    warm, cold-fallback and failover paths alike: the fault resolves,
    each raise is counted, and later listeners still run."""
    _, _, events, counters = PATHS[path]
    system, space = _victim_world(path)
    kernel = system.kernel
    seen = []

    def observer_bug(event, manager, duration_us):
        raise RuntimeError(f"observer bug on {event}")

    kernel.supervisor.on_degradation(observer_bug)
    kernel.supervisor.on_degradation(lambda *event: seen.append(event[0]))
    assert kernel.reference(space, 0) is not None
    assert seen == events
    assert kernel.stats.listener_errors == len(events)
    assert kernel.stats.warm_restarts == counters.get("warm_restarts", 0)


def test_unresolvable_crash_stops_the_degradation_clock():
    """A crash with nowhere to fail over to ends its excursion: the next,
    unrelated failover is measured from its own detection."""
    system = build_system(memory_mb=8, manager_frames=128)
    kernel = system.kernel
    supervisor = kernel.supervisor
    durations = []
    supervisor.on_degradation(lambda _e, _m, d: durations.append(d))
    Injector(
        ChaosPlan(
            manager_crash_rate=1.0,
            max_injections=2,
            target_managers=("orphaned", "second"),
        )
    ).install(system)

    def crash_target(name: str):
        manager = DefaultSegmentManager(
            kernel, system.spcm, system.file_server,
            initial_frames=8, name=name,
        )
        return kernel.create_segment(4, name=f"{name}-seg", manager=manager)

    orphan = crash_target("orphaned")
    supervisor.fallback = None  # nothing to fail over to
    with pytest.raises(UnresolvedFaultError, match="suspending"):
        kernel.reference(orphan, 0, write=True)
    supervisor.fallback = system.default_manager
    # unrelated healthy work lets simulated time pass
    healthy = kernel.create_segment(
        8, name="healthy", manager=system.default_manager
    )
    for page in range(8):
        kernel.reference(healthy, page * healthy.page_size, write=True)
    second = crash_target("second")
    start = kernel.meter.total_us
    kernel.reference(second, 0, write=True)
    assert len(durations) == 1
    assert durations[0] <= kernel.meter.total_us - start
