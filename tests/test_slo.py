"""SLO watchdogs: latency/failover objectives, invariant sweeps, chaos wiring."""

from __future__ import annotations

import pytest

from repro import build_system
from repro.chaos.harness import run_schedule
from repro.obs.slo import Alert, SLOPolicy, SLOWatchdog
from repro.spcm.market import MemoryMarket


def _fault_workload(system, n_pages=8):
    kernel = system.kernel
    seg = kernel.create_segment(
        n_pages, name="slo-anon", manager=system.default_manager
    )
    for page in range(n_pages):
        kernel.reference(seg, page * seg.page_size, write=True)
    return seg


class TestLatencyObjective:
    def test_tight_p99_policy_fires_once(self):
        system = build_system(memory_mb=8)
        policy = SLOPolicy(fault_p99_us=1.0, min_fault_samples=2)
        watchdog = SLOWatchdog(system, policy).install()
        _fault_workload(system)
        alerts = [a for a in watchdog.alerts if a.name == "fault_p99_latency"]
        # edge-triggered: the violation persists for every later fault,
        # but only the crossing fires
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.severity == "warning"
        assert alert.value > alert.threshold
        assert watchdog.fault_latency.count == 8

    def test_generous_policy_stays_quiet(self):
        system = build_system(memory_mb=8)
        watchdog = SLOWatchdog(system).install()  # default policy
        _fault_workload(system)
        watchdog.check()
        assert watchdog.alerts == []

    def test_min_samples_gate_defers_judgement(self):
        system = build_system(memory_mb=8)
        policy = SLOPolicy(fault_p99_us=1.0, min_fault_samples=100)
        watchdog = SLOWatchdog(system, policy).install()
        _fault_workload(system)  # only 8 faults: never judged
        assert watchdog.alerts == []


class TestFailoverObjective:
    def test_hang_failover_breaches_tight_budget(self):
        from repro.chaos import ChaosPlan, Injector
        from repro.managers.default_manager import DefaultSegmentManager

        system = build_system(memory_mb=8)
        policy = SLOPolicy(failover_us=1_000.0, min_fault_samples=10_000)
        watchdog = SLOWatchdog(system, policy).install()
        victim = DefaultSegmentManager(
            system.kernel,
            system.spcm,
            system.file_server,
            initial_frames=0,
            name="slo-victim",
        )
        injector = Injector(
            ChaosPlan(manager_hang_rate=1.0, target_managers=("slo-victim",))
        )
        injector.install(system)
        seg = system.kernel.create_segment(4, name="slo-hang", manager=victim)
        system.kernel.reference(seg, 0, write=True)
        alerts = [a for a in watchdog.alerts if a.name == "failover_time"]
        assert len(alerts) == 1
        # the failover charges at least the 5ms manager timeout
        assert alerts[0].value >= 5_000.0

    def test_watchdog_installed_before_recovery_sees_cold_fallback(self):
        """Install order is free: a watchdog armed before recovery still
        hears the restart outcome of a later crash."""
        from repro.chaos import ChaosPlan, Injector
        from repro.managers.default_manager import DefaultSegmentManager
        from repro.recovery import install_recovery

        system = build_system(memory_mb=8)
        watchdog = SLOWatchdog(system).install()
        install_recovery(system, max_restarts=0)  # every crash goes cold
        victim = DefaultSegmentManager(
            system.kernel,
            system.spcm,
            system.file_server,
            initial_frames=8,
            name="slo-victim",
        )
        Injector(
            ChaosPlan(
                manager_crash_rate=1.0,
                max_injections=1,
                target_managers=("slo-victim",),
            )
        ).install(system)
        seg = system.kernel.create_segment(
            4, name="slo-crash", manager=victim
        )
        system.kernel.reference(seg, 0, write=True)
        assert [a.name for a in watchdog.alerts] == ["cold_fallback"]


class TestDriftObjectives:
    def test_clean_system_sweeps_quiet(self):
        system = build_system(memory_mb=8)
        watchdog = SLOWatchdog(system).install()
        _fault_workload(system)
        assert watchdog.check() == []
        assert watchdog.checks_run == 1

    def test_vanished_frame_fires_critical(self):
        system = build_system(memory_mb=8)
        watchdog = SLOWatchdog(system).install()
        # steal a frame outright: the engine's frames check reports it
        # lost
        boot = next(iter(system.kernel.boot_segments.values()))
        page = next(iter(boot.pages))
        boot.pages.pop(page)
        fired = watchdog.check()
        names = [a.name for a in fired]
        assert "frame_conservation" in names
        alert = next(a for a in fired if a.name == "frame_conservation")
        assert alert.severity == "critical"
        # edge-trigger: a second sweep of the same excursion stays quiet
        assert watchdog.check() == []

    def test_market_imbalance_fires_critical(self):
        system = build_system(memory_mb=8)
        market = MemoryMarket()
        market.open_account("a")
        system.spcm.markets.append(market)
        watchdog = SLOWatchdog(system).install()
        assert watchdog.check() == []  # balanced: nothing fires
        # conjure drams from nowhere (no sink debit, no transfer)
        market.accounts["a"].balance += 5.0
        fired = watchdog.check()
        assert [a.name for a in fired] == ["market_balance"]
        assert fired[0].severity == "critical"
        # recovery re-arms the objective...
        market.accounts["a"].balance -= 5.0
        assert watchdog.check() == []
        # ...so the next excursion fires again
        market.accounts["a"].balance += 5.0
        assert [a.name for a in watchdog.check()] == ["market_balance"]

    def test_observer_protocol_runs_a_sweep(self):
        system = build_system(memory_mb=8)
        watchdog = SLOWatchdog(system).install()
        watchdog(object())  # the injector calls observers with the event
        assert watchdog.checks_run == 1


class TestAlertRecord:
    def test_round_trip_and_summary(self):
        a = Alert("x", "warning", 1.0, 2.0, 1.5, detail="d")
        assert Alert.from_dict(a.to_dict()) == a
        system = build_system(memory_mb=8)
        watchdog = SLOWatchdog(system)
        watchdog.alerts.extend([a, a])
        assert watchdog.n_alerts == 2
        assert watchdog.summary() == {"x": 2}


@pytest.mark.chaos
class TestChaosIntegration:
    def test_run_schedule_collects_slo_alerts(self):
        result = run_schedule("figure2-hang", seed=0, slo=True)
        assert result.completed
        # the hang scenario pushes fault latency past the default p99
        # budget (it did at the time of writing); whatever fired, every
        # alert is structured and the conservation objectives are quiet
        for alert in result.alerts:
            assert alert.name in (
                "fault_p99_latency",
                "failover_time",
                "frame_conservation",
                "market_balance",
            )
            assert alert.severity in ("warning", "critical")
        drift = [
            a
            for a in result.alerts
            if a.name in ("frame_conservation", "market_balance")
        ]
        assert drift == []

    def test_run_schedule_with_telemetry_samples(self):
        result = run_schedule(
            "figure2-crash", seed=1, slo=True, telemetry_interval_us=500.0
        )
        assert result.completed
        assert result.telemetry is not None
        samples = result.telemetry.samples()
        assert samples
        assert "kernel.faults" in samples[-1].values

    def test_custom_policy_reaches_the_watchdog(self):
        policy = SLOPolicy(fault_p99_us=1.0, min_fault_samples=1)
        result = run_schedule("figure2-crash", seed=0, slo_policy=policy)
        assert any(a.name == "fault_p99_latency" for a in result.alerts)
