"""``repro top``: sparklines, frame rendering, live and replay paths."""

from __future__ import annotations

import pytest

from repro.obs.dashboard import (
    SPARK_GLYPHS,
    main,
    render_frame,
    series,
    sparkline,
)
from repro.obs.export import write_jsonl
from repro.obs.slo import Alert
from repro.obs.telemetry import TelemetryCollector


class TestSparkline:
    def test_empty_series_is_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_mid_bars(self):
        assert sparkline([3.0, 3.0, 3.0]) == SPARK_GLYPHS[4] * 3

    def test_scaling_spans_min_to_max(self):
        line = sparkline([0.0, 50.0, 100.0])
        assert line[0] == SPARK_GLYPHS[1]
        assert line[-1] == SPARK_GLYPHS[8]
        assert len(line) == 3

    def test_window_keeps_the_tail(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10


def _samples():
    c = TelemetryCollector(clock=lambda: 0.0)
    values = {
        "kernel.faults": 8.0,
        "kernel.references": 64.0,
        "kernel.cost_total_us": 1234.0,
        "tlb.hit_rate": 0.875,
        "disk.reads": 8.0,
        "disk.writes": 0.0,
        "faults.latency_ewma_us": 2000.0,
        "faults.observed": 8.0,
        "spcm.node0.free_frames": 100.0,
        "spcm.node0.granted_frames": 28.0,
        "spcm.node0.loaned_grants": 0.0,
        "spcm.node0.retired_frames": 0.0,
        "spcm.node1.free_frames": 90.0,
        "spcm.node1.granted_frames": 38.0,
        "spcm.node1.loaned_grants": 1.0,
        "spcm.node1.retired_frames": 0.0,
        "manager.default-manager.resident_pages": 8.0,
        "manager.default-manager.free_frames": 20.0,
        "manager.default-manager.dram_balance": 128.0,
    }
    for name, value in values.items():
        c.gauge(name, lambda v=value: v)
    out = []
    for _ in range(3):
        out.append(c.sample_now())
    return c, out


class TestRenderFrame:
    def test_empty_buffer_has_a_placeholder(self):
        assert "no telemetry samples yet" in render_frame([])

    def test_panels_cover_nodes_managers_and_hw(self):
        _, samples = _samples()
        frame = render_frame(samples)
        assert "repro top" in frame
        assert "samples=3" in frame
        assert "kernel    faults=8" in frame
        assert "tlb hit=0.875" in frame
        assert "node0" in frame and "node1" in frame
        assert "loaned=   1" in frame
        assert "mgr default-manager" in frame
        assert "drams=" in frame
        assert "\x1b" not in frame  # frames themselves carry no ANSI

    def test_alert_tail_shows_recent_alerts(self):
        _, samples = _samples()
        alerts = [
            Alert(f"a{i}", "warning", float(i), 2.0, 1.0) for i in range(7)
        ]
        frame = render_frame(samples, alerts)
        assert "alerts" in frame
        assert "a6" in frame and "a2" in frame
        assert "a0" not in frame  # only the 5 most recent
        assert "[warning " in frame

    def test_width_clips_every_line(self):
        _, samples = _samples()
        frame = render_frame(samples, width=40)
        assert all(len(line) <= 40 for line in frame.splitlines())

    def test_series_skips_missing_keys(self):
        _, samples = _samples()
        assert series(samples, "kernel.faults") == [8.0, 8.0, 8.0]
        assert series(samples, "absent") == []


class TestReplay:
    def test_replay_renders_written_jsonl(self, tmp_path, capsys):
        collector, _ = _samples()
        alert = Alert("fault_p99_latency", "warning", 500.0, 9.0, 5.0)
        path = tmp_path / "telemetry.jsonl"
        write_jsonl(collector.samples() + [alert], path)
        assert main(["--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "node0" in out
        assert "fault_p99_latency" in out

    def test_replay_of_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["--replay", str(path)]) == 0
        assert "no telemetry samples yet" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"type": "sample", "t_us": 1.0, "values": {"a": null}}',
            '{"type": "sample", "t_us": 1.0, "values": {"a": "x"}}',
            '{"type": "sample", "t_us": 1.0',
            '{"type": "bogus"}',
            '{"type": "sample", "t_us": 1%s, "values": {}}' % ("0" * 400),
        ],
        ids=[
            "null-value",
            "string-value",
            "truncated",
            "unknown-type",
            "time-beyond-float",
        ],
    )
    def test_replay_of_invalid_file_exits_2(self, tmp_path, capsys, bad_line):
        path = tmp_path / "bad.jsonl"
        good = '{"type": "sample", "t_us": 0.0, "values": {"a": 1}}'
        path.write_text(f"{good}\n{bad_line}\n")
        assert main(["--replay", str(path), "--no-ansi"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro top: {path}: line 2: ")


@pytest.mark.obs_smoke
class TestLiveRun:
    def test_live_no_ansi_prints_final_frame(self, capsys):
        assert main(["--no-ansi", "--faults", "120", "--interval-us",
                     "500"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "kernel    faults=" in out
        assert "node0" in out
        assert "mgr default-manager" in out
        assert "\x1b" not in out  # non-tty stdout: no escape codes
