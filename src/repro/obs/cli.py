"""``python -m repro trace <target>``: trace an experiment end to end.

Targets:

* ``figure2`` --- a default-manager page fault on a cached file, the
  paper's Figure-2 sequence, rendered as a flamegraph-style span tree
  plus a per-phase latency breakdown.
* ``table1`` --- the Table-1 primitive measurements, run with tracing
  on; ``--json`` writes the machine-readable results (the
  file committed as ``BENCH_table1.json``).

``--out FILE`` additionally dumps the raw trace as JSONL (one span or
event record per line, schema in :mod:`repro.obs.export`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.critical_path import (
    SpanTree,
    attribute,
    critical_path,
    render_attribution,
    render_critical_path,
)
from repro.obs.export import render_breakdown, render_flame, write_jsonl
from repro.obs.trace import NULL_TRACER, Tracer, set_global_tracer

TARGETS = ("figure2", "table1")


def _trace_figure2(tracer: Tracer) -> str:
    """Run one Figure-2 fault under ``tracer``; returns the report text."""
    from repro import build_system

    system = build_system(memory_mb=16, tracer=tracer)
    kernel = system.kernel
    file_seg = kernel.create_segment(
        0, name="fig2-file", manager=system.default_manager, auto_grow=True
    )
    system.file_server.create_file(file_seg, data=b"fig2" * 2048)
    space = kernel.create_segment(8, name="fig2-space")
    space.bind(0, 2, file_seg, 0)
    tracer.reset()  # drop boot-time spans; trace just the fault
    before = kernel.meter.total_us
    kernel.reference(space, 0, write=False)
    delta = kernel.meter.total_us - before

    lines = ["Figure 2: external page-cache fault handling", ""]
    lines += [render_flame(tracer), "", render_breakdown(tracer)]
    tree = SpanTree(tracer.spans)
    for root in tree.roots():
        lines.append("")
        lines.append(render_attribution(attribute(tree, tracer.events, root)))
        lines.append(render_critical_path(critical_path(tree, root)))
    lines.append("")
    lines.append(f"metered cost of the fault: {delta:.1f} us")
    return "\n".join(lines)


def _trace_table1(tracer: Tracer, json_path: str | None) -> str:
    """Run the Table-1 primitives traced; optionally dump JSON results."""
    from repro.analysis.experiments import table1_primitives

    set_global_tracer(tracer)  # table1_primitives boots its own system
    try:
        rows = table1_primitives()
    finally:
        set_global_tracer(NULL_TRACER)

    width = max(len(r.name) for r in rows)
    lines = ["Table 1: system primitive times (measured vs. paper)", ""]
    lines.append(
        f"{'primitive'.ljust(width)}  {'measured':>9}  {'paper':>7}  error"
    )
    for row in rows:
        lines.append(
            f"{row.name.ljust(width)}  {row.measured:>7.1f}{row.unit}"
            f"  {row.paper:>5.1f}{row.unit}"
            f"  {100.0 * row.relative_error:5.1f}%"
        )
    lines.append("")
    lines.append(render_breakdown(tracer))

    if json_path is not None:
        payload = {
            "benchmark": "table1_primitives",
            # run-identity header: the bench differ refuses to compare
            # payloads whose schema_version or meta disagree
            "schema_version": 1,
            "meta": {"n_nodes": 1, "seed": 0, "quick": False},
            "unit": "us",
            "rows": [
                {
                    "name": r.name,
                    "measured": r.measured,
                    "paper": r.paper,
                    "relative_error": r.relative_error,
                }
                for r in rows
            ],
            "n_spans": len(tracer.spans),
            "n_events": len(tracer.events),
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append("")
        lines.append(f"wrote {json_path}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``trace`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Trace an experiment and print its fault-path profile.",
    )
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument(
        "--out", metavar="FILE", help="also write the raw trace as JSONL"
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write machine-readable results (table1 only)",
    )
    args = parser.parse_args(argv)
    if args.json and args.target != "table1":
        parser.error("--json is only meaningful with the table1 target")

    tracer = Tracer()
    if args.target == "figure2":
        report = _trace_figure2(tracer)
    else:
        report = _trace_table1(tracer, args.json)
    print(report)
    if args.out:
        write_jsonl(tracer.spans + tracer.events, args.out)
        print(f"wrote {args.out} ({len(tracer.spans)} spans, "
              f"{len(tracer.events)} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
