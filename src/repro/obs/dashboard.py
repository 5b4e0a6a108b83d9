"""``python -m repro top``: an ANSI dashboard over continuous telemetry.

Renders per-node SPCM panels, per-manager panels, fault-latency EWMA
sparklines and the SLO alert tail from a :class:`TelemetryCollector`'s
sample buffer --- either **live** (boot a system, run a fault-heavy
workload, repaint as interval boundaries are crossed) or **replayed**
from a telemetry JSONL export (``--replay telemetry.jsonl``).

Everything is simulated time: a "live" run finishes instantly in wall
clock while the dashboard pages through simulated milliseconds.  With
``--no-ansi`` (or when stdout is not a tty) no escape codes are emitted
and only the final frame is printed, which is what the tests and CI
artifacts consume.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Iterable, Sequence

from repro.obs.export import read_jsonl
from repro.obs.slo import Alert, SLOPolicy, SLOWatchdog
from repro.obs.telemetry import (
    TelemetryCollector,
    TelemetrySample,
    install_telemetry,
)

#: eight-level bar glyphs for sparklines (space = no data)
SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"

#: ANSI clear-screen + home
CLEAR = "\x1b[2J\x1b[H"

_NODE_KEY = re.compile(r"^spcm\.node(\d+)\.(\w+)$")
_MANAGER_KEY = re.compile(r"^manager\.([^.]+)\.(\w+)$")


def sparkline(values: Sequence[float], width: int = 30) -> str:
    """Render the last ``width`` values as a unicode bar strip.

    Bars are scaled to the min/max of the rendered window; a flat series
    renders as mid-height bars so "no variation" stays visible.
    """
    tail = list(values)[-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi == lo:
        return SPARK_GLYPHS[4] * len(tail)
    span = hi - lo
    out = []
    for v in tail:
        idx = 1 + int((v - lo) / span * 7)
        out.append(SPARK_GLYPHS[min(idx, 8)])
    return "".join(out)


def series(
    samples: Iterable[TelemetrySample], key: str
) -> list[float]:
    """One gauge's values across the sample buffer (missing -> skipped)."""
    return [s.values[key] for s in samples if key in s.values]


def _fmt(value: float) -> str:
    """Compact numeric rendering (integers without a trailing .0)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.1f}"


def render_frame(
    samples: Sequence[TelemetrySample],
    alerts: Sequence[Alert] = (),
    width: int = 78,
    spark_width: int = 30,
) -> str:
    """One dashboard frame over the buffered samples (latest = current)."""
    if not samples:
        return "repro top: no telemetry samples yet"
    latest = samples[-1]
    values = latest.values
    lines: list[str] = []
    title = (
        f"repro top — t={_fmt(latest.t_us)} us"
        f"   samples={len(samples)}   alerts={len(alerts)}"
    )
    lines.append(title[:width])
    lines.append("─" * min(width, len(title)))

    # kernel / fault-service panel
    if "kernel.faults" in values:
        lines.append(
            f"kernel    faults={_fmt(values['kernel.faults'])}"
            f"  references={_fmt(values.get('kernel.references', 0.0))}"
            f"  cost={_fmt(values.get('kernel.cost_total_us', 0.0))} us"
        )
    ewma = series(samples, "faults.latency_ewma_us")
    if ewma:
        lines.append(
            f"faults    latency ewma={_fmt(ewma[-1])} us"
            f"  {sparkline(ewma, spark_width)}"
        )
    hw_bits = []
    if "tlb.hit_rate" in values:
        hw_bits.append(f"tlb hit={values['tlb.hit_rate']:.3f}")
    if "cache.hit_rate" in values:
        hw_bits.append(f"cache hit={values['cache.hit_rate']:.3f}")
    if "disk.reads" in values:
        hw_bits.append(
            f"disk r={_fmt(values['disk.reads'])}"
            f" w={_fmt(values.get('disk.writes', 0.0))}"
        )
    if hw_bits:
        lines.append("hw        " + "  ".join(hw_bits))

    # per-node SPCM panels
    nodes: dict[int, dict[str, float]] = {}
    for key, value in values.items():
        m = _NODE_KEY.match(key)
        if m:
            nodes.setdefault(int(m.group(1)), {})[m.group(2)] = value
    for node in sorted(nodes):
        stats = nodes[node]
        free_hist = series(samples, f"spcm.node{node}.free_frames")
        lines.append(
            f"node{node}     free={_fmt(stats.get('free_frames', 0.0)):>6}"
            f"  granted={_fmt(stats.get('granted_frames', 0.0)):>6}"
            f"  loaned={_fmt(stats.get('loaned_grants', 0.0)):>4}"
            f"  retired={_fmt(stats.get('retired_frames', 0.0)):>4}"
            f"  {sparkline(free_hist, spark_width // 2)}"
        )

    # per-manager panels
    managers: dict[str, dict[str, float]] = {}
    for key, value in values.items():
        m = _MANAGER_KEY.match(key)
        if m:
            managers.setdefault(m.group(1), {})[m.group(2)] = value
    for name in sorted(managers):
        stats = managers[name]
        bits = [f"mgr {name:<12}"]
        if "resident_pages" in stats:
            bits.append(f"resident={_fmt(stats['resident_pages']):>6}")
        if "free_frames" in stats:
            bits.append(f"free={_fmt(stats['free_frames']):>6}")
        if "dram_balance" in stats:
            bits.append(f"drams={stats['dram_balance']:>10.2f}")
        lines.append("  ".join(bits))

    # alert tail (most recent last)
    if alerts:
        lines.append("alerts")
        for alert in list(alerts)[-5:]:
            lines.append(
                f"  [{alert.severity:<8}] t={_fmt(alert.t_us)} us"
                f"  {alert.name}: {_fmt(alert.value)}"
                f" > {_fmt(alert.threshold)}"
                + (f"  ({alert.detail})" if alert.detail else "")
            )
    return "\n".join(line[:width] for line in lines)


# ---------------------------------------------------------------------------
# live workload
# ---------------------------------------------------------------------------


def _live_run(
    interval_us: float, faults: int
) -> tuple[TelemetryCollector, SLOWatchdog]:
    """Boot a system and drive a deterministic fault-heavy workload.

    The workload walks a file-backed space larger than the manager's
    frame pool (so faults keep coming), giving the collector a dense
    stream of interval crossings without any wall-clock sleeps.
    """
    from repro import build_system

    system = build_system(memory_mb=16, manager_frames=64)
    collector = install_telemetry(system, interval_us=interval_us)
    watchdog = SLOWatchdog(system, SLOPolicy()).install()
    kernel = system.kernel
    file_seg = kernel.create_segment(
        0, name="top-file", manager=system.default_manager, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"top!" * 4096 * 16)
    n_pages = 48
    space = kernel.create_segment(n_pages, name="top-space")
    space.bind(0, n_pages, file_seg, 0)
    page_size = space.page_size
    for i in range(faults):
        kernel.reference(space, (i % n_pages) * page_size, write=False)
    collector.sample_now()
    watchdog.check()
    return collector, watchdog


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``top`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description=(
            "Render live or replayed continuous telemetry as a dashboard."
        ),
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        help="render a telemetry JSONL export instead of running live",
    )
    parser.add_argument(
        "--no-ansi",
        action="store_true",
        help="no escape codes; print only the final frame",
    )
    parser.add_argument(
        "--interval-us",
        type=float,
        default=250.0,
        help="live sampling interval in simulated us (default 250)",
    )
    parser.add_argument(
        "--faults",
        type=int,
        default=400,
        help="live workload length in page faults (default 400)",
    )
    parser.add_argument(
        "--width", type=int, default=78, help="frame width in columns"
    )
    args = parser.parse_args(argv)

    ansi = (
        not args.no_ansi
        and args.replay is None
        and sys.stdout.isatty()
    )
    if args.replay is not None:
        try:
            records = read_jsonl(args.replay)
        except ValueError as exc:
            print(f"repro top: {args.replay}: {exc}", file=sys.stderr)
            return 2
        print(render_frame(records.samples, records.alerts, width=args.width))
        return 0

    if ansi:
        # repaint on every crossed interval boundary by replaying the
        # buffer growth frame by frame
        collector, watchdog = _live_run(args.interval_us, args.faults)
        samples = collector.samples()
        for i in range(1, len(samples) + 1):
            sys.stdout.write(CLEAR)
            print(render_frame(samples[:i], watchdog.alerts,
                               width=args.width))
        return 0
    collector, watchdog = _live_run(args.interval_us, args.faults)
    print(render_frame(collector.samples(), watchdog.alerts,
                       width=args.width))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
