"""Exporters: JSONL records, flamegraph-style trees, latency breakdowns.

* :func:`to_jsonl` / :func:`write_jsonl` / :func:`read_jsonl` --- the
  JSONL writer and reader for every record type: a tracer's ``span`` and
  ``event`` records and telemetry's ``sample`` and ``alert`` records, one
  object per line (schema in :data:`JSONL_SCHEMA`, checked by
  :func:`validate_record`);
* :func:`render_flame` --- the span tree as indented text with per-span
  simulated cost and share of the root, the fault-path "flamegraph";
* :func:`fault_breakdown` / :func:`render_breakdown` --- self-cost
  aggregated per ``(component, operation)`` phase, the decomposition a
  perf PR compares against the paper's Table 1.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, NamedTuple

from repro.obs.critical_path import SpanTree, events_by_span
from repro.obs.records import SpanRecord, TraceStep
from repro.obs.slo import Alert
from repro.obs.telemetry import TelemetrySample
from repro.obs.trace import Tracer

#: Any record a JSONL file holds.
Record = SpanRecord | TraceStep | TelemetrySample | Alert

#: The JSONL record contract, by record ``type``.  Each value maps a field
#: name to (python types, required) --- what :func:`validate_record` checks.
JSONL_SCHEMA: dict[str, dict[str, tuple[tuple[type, ...], bool]]] = {
    "span": {
        "span_id": ((int,), True),
        "parent_id": ((int, type(None)), True),
        "component": ((str,), True),
        "operation": ((str,), True),
        "t_start_us": ((int, float), True),
        "t_end_us": ((int, float, type(None)), True),
        "attrs": ((dict,), False),
    },
    "event": {
        "step": ((int,), True),
        "actor": ((str,), True),
        "action": ((str,), True),
        "cost_us": ((int, float), True),
        "span_id": ((int, type(None)), False),
        "t_us": ((int, float, type(None)), False),
    },
    # continuous-telemetry records (see repro.obs.telemetry / repro.obs.slo);
    # every entry of a sample's ``values`` must be a number
    "sample": {
        "t_us": ((int, float), True),
        "values": ((dict,), True),
    },
    "alert": {
        "name": ((str,), True),
        "severity": ((str,), True),
        "t_us": ((int, float), True),
        "value": ((int, float), True),
        "threshold": ((int, float), True),
        "detail": ((str,), False),
    },
}


def validate_record(record: object) -> dict:
    """Check one decoded JSONL record against :data:`JSONL_SCHEMA`.

    Returns the record; raises ``ValueError`` describing the first
    violation.  Unknown fields and non-numeric sample values are
    rejected so the schema stays honest.
    """
    if not isinstance(record, dict):
        raise ValueError(f"record is not an object: {record!r}")
    kind = record.get("type")
    if kind not in JSONL_SCHEMA:
        raise ValueError(f"unknown record type: {kind!r}")
    schema = JSONL_SCHEMA[kind]
    for name, (types, required) in schema.items():
        if name not in record:
            if required:
                raise ValueError(f"{kind} record missing field {name!r}")
            continue
        if not isinstance(record[name], types):
            raise ValueError(
                f"{kind} field {name!r} has type "
                f"{type(record[name]).__name__}, expected one of "
                f"{[t.__name__ for t in types]}"
            )
    extra = set(record) - set(schema) - {"type"}
    if extra:
        raise ValueError(f"{kind} record has unknown fields: {sorted(extra)}")
    # only a sample has ``values``
    for key, val in record.get("values", {}).items():
        if not isinstance(val, (int, float)):
            raise ValueError(f"{kind} value {key!r} is {val!r}, not a number")
    return record


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


class Records(NamedTuple):
    """The typed records of one JSONL file, by type, each in file order."""

    spans: list[SpanRecord]
    events: list[TraceStep]
    samples: list[TelemetrySample]
    alerts: list[Alert]


#: record ``type`` -> (:class:`Records` field, decoder)
_DECODERS = {
    "span": ("spans", SpanRecord.from_dict),
    "event": ("events", TraceStep.from_dict),
    "sample": ("samples", TelemetrySample.from_dict),
    "alert": ("alerts", Alert.from_dict),
}


def to_jsonl(records: Iterable[Record]) -> str:
    """Serialize ``records`` in order, one JSON object per line."""
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(records: Iterable[Record], path) -> None:
    """Write :func:`to_jsonl` output to ``path``.

    A tracer's dump is ``tracer.spans + tracer.events``; a telemetry
    export is ``collector.samples() + alerts``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(records))


def read_jsonl(source: str | IO[str]) -> Records:
    """Parse (and validate) a JSONL file back into typed records.

    ``source`` is a path or an open text stream.  Any record that fails
    to decode or validate raises ``ValueError`` naming its line.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    records = Records([], [], [], [])
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = validate_record(json.loads(line))
            field, decode = _DECODERS[record["type"]]
            getattr(records, field).append(decode(record))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# flamegraph-style tree
# ---------------------------------------------------------------------------


def render_flame(tracer: Tracer) -> str:
    """The span tree as indented text with costs and share-of-root.

    Each line shows ``component/operation``, the span's total simulated
    cost, its *self* cost (total minus children), and its share of the
    root --- a text flamegraph of where fault latency goes.
    """
    tree = SpanTree(tracer.spans)
    events = events_by_span(tracer.events)
    lines: list[str] = []
    for root in tree.roots():
        base = root.duration_us or 1.0
        depths: dict[int | None, int] = {}
        for span in tree.walk(root):
            depth = depths[span.span_id] = depths.get(span.parent_id, -1) + 1
            share = 100.0 * span.duration_us / base
            lines.append(
                f"{'  ' * depth}{span.component}/{span.operation}"
                f"  total={span.duration_us:.1f}us"
                f"  self={tree.self_us(span):.1f}us"
                f"  ({share:.1f}%)"
            )
            for event in events.get(span.span_id, ()):
                cost = f"  ({event.cost_us:.0f} us)" if event.cost_us else ""
                lines.append(
                    f"{'  ' * (depth + 1)}* [{event.actor}] "
                    f"{event.action}{cost}"
                )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-phase latency breakdown
# ---------------------------------------------------------------------------


def fault_breakdown(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self-cost aggregated per ``component/operation`` phase.

    Returns ``{phase: {"self_us": ..., "count": ...}}`` covering every
    span under every root.  Because self-costs partition each root's
    duration, the ``self_us`` values sum to the total traced cost --- the
    property that lets a trace be checked against the cost meter.
    """
    tree = SpanTree(tracer.spans)
    phases: dict[str, dict[str, float]] = {}
    for root in tree.roots():
        for span in tree.walk(root):
            key = f"{span.component}/{span.operation}"
            bucket = phases.setdefault(key, {"self_us": 0.0, "count": 0.0})
            bucket["self_us"] += tree.self_us(span)
            bucket["count"] += 1
    return phases


def render_breakdown(tracer: Tracer) -> str:
    """The :func:`fault_breakdown` as an aligned text table."""
    phases = fault_breakdown(tracer)
    total = sum(b["self_us"] for b in phases.values()) or 1.0
    width = max((len(k) for k in phases), default=5)
    lines = [f"{'phase'.ljust(width)}  {'self(us)':>10}  {'count':>6}  share"]
    for key, bucket in sorted(
        phases.items(), key=lambda kv: -kv[1]["self_us"]
    ):
        lines.append(
            f"{key.ljust(width)}  {bucket['self_us']:>10.1f}"
            f"  {int(bucket['count']):>6}"
            f"  {100.0 * bucket['self_us'] / total:5.1f}%"
        )
    lines.append(f"{'total'.ljust(width)}  {total:>10.1f}")
    return "\n".join(lines)
