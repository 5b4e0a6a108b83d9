"""Continuous telemetry: interval sampling, ring buffer, wiring, JSONL."""

from __future__ import annotations

import io
import json

import pytest

from repro import build_system
from repro.obs.export import read_jsonl, validate_record, write_jsonl
from repro.obs.slo import Alert
from repro.obs.telemetry import (
    TelemetryCollector,
    TelemetrySample,
    install_telemetry,
)
from repro.sim.engine import Engine


class TestCollectorBasics:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            TelemetryCollector(interval_us=0.0)
        with pytest.raises(ValueError):
            TelemetryCollector(capacity=0)
        with pytest.raises(ValueError):
            TelemetryCollector(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            TelemetryCollector(ewma_alpha=1.5)

    def test_duplicate_registrations_rejected(self):
        c = TelemetryCollector()
        c.gauge("a", lambda: 1.0)
        with pytest.raises(ValueError):
            c.gauge("a", lambda: 2.0)
        c.bind("p", lambda: {})
        with pytest.raises(ValueError):
            c.bind("p", lambda: {})

    def test_ewma_seeds_then_smooths(self):
        c = TelemetryCollector(ewma_alpha=0.5)
        c.observe_fault(100.0)
        assert c.fault_latency_ewma_us == 100.0  # first observation seeds
        c.observe_fault(200.0)
        assert c.fault_latency_ewma_us == pytest.approx(150.0)
        assert c.faults_observed == 2


class TestIntervalSampling:
    def _clocked(self, interval=100.0):
        now = [0.0]
        c = TelemetryCollector(clock=lambda: now[0], interval_us=interval)
        c.gauge("t", lambda: now[0])
        return c, now

    def test_first_poll_arms_without_sampling(self):
        c, now = self._clocked()
        now[0] = 50.0
        assert c.poll() is None
        assert c.samples() == []

    def test_samples_stamped_at_crossed_boundary(self):
        c, now = self._clocked(interval=100.0)
        now[0] = 50.0
        c.poll()  # arm at 100
        now[0] = 120.0
        sample = c.poll()
        assert sample is not None and sample.t_us == 100.0
        now[0] = 130.0
        assert c.poll() is None  # same interval, one sample max
        # a long quiet stretch yields ONE sample at the latest boundary
        now[0] = 555.0
        sample = c.poll()
        assert sample is not None and sample.t_us == 500.0
        assert [s.t_us for s in c.samples()] == [100.0, 500.0]

    def test_identical_runs_are_byte_identical(self):
        def run() -> list[dict]:
            c, now = self._clocked(interval=10.0)
            for step in range(40):
                now[0] = step * 7.0
                c.poll()
            return [s.to_dict() for s in c.samples()]

        assert run() == run()

    def test_ring_drops_oldest_and_counts(self):
        c = TelemetryCollector(clock=lambda: 0.0, capacity=4)
        for i in range(6):
            c._take(float(i))
        assert len(c.samples()) == 4
        assert c.dropped_samples == 2
        assert [s.t_us for s in c.samples()] == [2.0, 3.0, 4.0, 5.0]

    def test_reset_rearms(self):
        c, now = self._clocked()
        now[0] = 150.0
        c.poll()
        now[0] = 250.0
        assert c.poll() is not None
        c.reset()
        assert c.samples() == []
        now[0] = 350.0
        assert c.poll() is None  # re-armed: first poll after reset

    def test_engine_tick_hook_paces_sampling(self):
        engine = Engine()
        c = TelemetryCollector(
            clock=lambda: engine.now, interval_us=100.0
        )
        c.gauge("now", lambda: engine.now)
        c.attach_engine(engine)
        for i in range(10):
            engine.schedule_at(i * 50.0, lambda: None)
        engine.run()
        stamps = [s.t_us for s in c.samples()]
        assert stamps  # virtual time crossed boundaries
        assert all(t % 100.0 == 0.0 for t in stamps)
        assert stamps == sorted(stamps)


class TestInstalledProbes:
    @pytest.fixture
    def sampled_system(self):
        system = build_system(memory_mb=8)
        collector = install_telemetry(system, interval_us=250.0)
        kernel = system.kernel
        seg = kernel.create_segment(
            8, name="telemetry-anon", manager=system.default_manager
        )
        for page in range(8):
            kernel.reference(seg, page * seg.page_size, write=True)
        collector.sample_now()
        return system, collector

    def test_install_stores_collector_on_system(self, sampled_system):
        system, collector = sampled_system
        assert system.telemetry is collector

    def test_sample_carries_every_standard_probe(self, sampled_system):
        _, collector = sampled_system
        values = collector.samples()[-1].values
        for key in (
            "kernel.faults",
            "kernel.references",
            "kernel.cost_total_us",
            "tlb.hit_rate",
            "disk.reads",
            "disk.writes",
            "faults.latency_ewma_us",
            "faults.observed",
            "spcm.node0.free_frames",
            "spcm.node0.granted_frames",
            "spcm.node0.loaned_grants",
            "spcm.node0.retired_frames",
            "manager.default-manager.resident_pages",
            "manager.default-manager.free_frames",
            "manager.default-manager.dram_balance",
        ):
            assert key in values, key
        assert values["kernel.faults"] == 8.0
        assert values["faults.observed"] == 8.0
        assert values["faults.latency_ewma_us"] > 0.0
        assert values["manager.default-manager.resident_pages"] == 8.0

    def test_fault_pacing_emits_interval_samples(self, sampled_system):
        _, collector = sampled_system
        # every boundary-crossing fault emitted one interval sample;
        # the explicit sample_now() closes the series off-boundary
        interval_stamps = [s.t_us for s in collector.samples()[:-1]]
        assert interval_stamps
        assert all(t % 250.0 == 0.0 for t in interval_stamps)

    def test_per_node_gauges_cover_every_shard(self):
        system = build_system(memory_mb=8, n_nodes=2)
        collector = install_telemetry(system, interval_us=250.0)
        sample = collector.sample_now()
        assert "spcm.node0.free_frames" in sample.values
        assert "spcm.node1.free_frames" in sample.values

    def test_free_frame_gauges_count_each_node_once(self, monkeypatch):
        """Each node's free-frame gauge counts that node alone: a sample's
        values equal ``free_frames_by_node()``, and the sample makes one
        ``HomePages.count`` a node, not one a node for every gauge."""
        from repro.core.segment import HomePages

        system = build_system(memory_mb=8, n_nodes=2)
        collector = install_telemetry(system, interval_us=250.0)
        nodes = len(system.spcm.shards)
        assert nodes == 2
        counted = []
        count = HomePages.count

        def counting(pages_at_home, pages):
            counted.append(pages)
            return count(pages_at_home, pages)

        monkeypatch.setattr(HomePages, "count", counting)
        seen = []
        for step in range(4):
            system.default_manager.request_frames(8 + step, home_node=step % 2)
            expected = system.spcm.free_frames_by_node()
            counted.clear()
            values = collector.sample_now().values
            assert len(counted) == nodes
            assert {
                node: values[f"spcm.node{node}.free_frames"]
                for node in range(nodes)
            } == {node: float(n) for node, n in expected.items()}
            seen.append(expected)
        # each grant moved a node's count: every sample met new values
        assert len({tuple(counts.values()) for counts in seen}) == 4

    def test_values_deterministic_across_identical_runs(self):
        def run() -> dict:
            system = build_system(memory_mb=8)
            collector = install_telemetry(system)
            seg = system.kernel.create_segment(
                8, name="m", manager=system.default_manager
            )
            for page in range(4):
                system.kernel.reference(
                    seg, page * seg.page_size, write=(page % 2 == 0)
                )
            return collector.sample_now().values

        first, second = run(), run()
        assert first == second
        # key order is part of the export contract (byte-stable dumps)
        assert list(first) == list(second)

    def test_values_follow_replaced_kernel_stats(self):
        from repro.core.kernel import KernelStats

        system = build_system(memory_mb=8)
        collector = install_telemetry(system)
        seg = system.kernel.create_segment(
            4, name="x", manager=system.default_manager
        )
        # workload runners swap in fresh stats before measuring
        system.kernel.stats = KernelStats()
        system.kernel.reference(seg, 0, write=True)
        assert system.kernel.stats.faults == 1
        assert collector.sample_now().values["kernel.faults"] == 1.0


class TestTelemetryJsonl:
    def test_round_trip_with_alerts(self, tmp_path):
        c = TelemetryCollector(clock=lambda: 0.0)
        c.gauge("x", lambda: 1.5)
        s = c.sample_now()
        alert = Alert(
            name="fault_p99_latency",
            severity="warning",
            t_us=10.0,
            value=25_000.0,
            threshold=20_000.0,
            detail="p99 over budget",
        )
        path = tmp_path / "telemetry.jsonl"
        write_jsonl(c.samples() + [alert], path)
        records = read_jsonl(str(path))
        samples, alerts = records.samples, records.alerts
        assert len(samples) == 1
        assert samples[0].t_us == s.t_us
        assert samples[0].values == {"x": 1.5}
        assert len(alerts) == 1
        assert alerts[0] == alert

    def test_records_validate_against_shared_schema(self):
        sample = TelemetrySample(t_us=5.0, values={"a": 1.0})
        validate_record(sample.to_dict())
        alert = Alert("n", "critical", 1.0, 2.0, 1.5)
        validate_record(alert.to_dict())
        with pytest.raises(ValueError):
            validate_record({"type": "sample", "t_us": 1.0})  # no values

    @pytest.mark.parametrize(
        "value",
        ["null", '"x"', "[1]", "{}"],
        ids=["null", "string", "list", "object"],
    )
    def test_non_numeric_sample_value_rejected_with_line(self, value):
        record = '{"type": "sample", "t_us": 1.0, "values": {"a": %s}}'
        with pytest.raises(ValueError, match="sample value 'a'"):
            validate_record(json.loads(record % value))
        text = '{"type": "sample", "t_us": 0.0, "values": {}}\n' + (
            record % value
        )
        with pytest.raises(ValueError, match="^line 2: sample value 'a'"):
            read_jsonl(io.StringIO(text))

    def test_read_tolerates_span_and_event_records(self, tmp_path):
        text = (
            '{"type": "sample", "t_us": 1.0, "values": {}}\n'
            '{"type": "span", "span_id": 1, "parent_id": null,'
            ' "component": "kernel", "operation": "x",'
            ' "t_start_us": 0.0, "t_end_us": 1.0}\n'
            '{"type": "event", "step": 1, "actor": "ipc",'
            ' "action": "msg", "cost_us": 31.0}\n'
        )
        records = read_jsonl(io.StringIO(text))
        assert len(records.samples) == 1 and records.alerts == []
        assert len(records.spans) == 1 and len(records.events) == 1
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO('{"type": "bogus"}\n'))
