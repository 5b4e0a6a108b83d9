"""Critical-path analysis and latency attribution over span trees.

The paper's argument is about *where fault time goes* --- kernel
bookkeeping vs. manager policy vs. IPC control transfer vs. disk vs.
zeroing.  This module turns a collected (or replayed) span tree into
exactly that decomposition:

* :class:`SpanTree` --- the span-tree queries (roots, children,
  self-time, walk) over a bare ``list[SpanRecord]``, so analysis and the
  exporters' renderings work on live tracers and on JSONL replays alike;
* :func:`critical_path` --- the chain of dominant spans from a root to a
  leaf: at every level the child that consumed the most simulated time;
* :func:`attribute` --- per-component attribution of a root span's whole
  duration.  Every span's self-time goes to its component's bucket,
  except the portion covered by specially-classified point events (IPC
  messages, zero-fills), which moves to those buckets.  The event shares
  are clamped to the span's self-time, so the bucket totals always sum
  **exactly** to the root span's duration --- the conservation property
  the tier-1 tests pin for every traced Figure-2 fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.records import SpanRecord, TraceStep

#: span component -> attribution bucket
COMPONENT_BUCKETS: dict[str, str] = {
    "application": "kernel",  # the trap into the kernel
    "kernel": "kernel",
    "tlb": "kernel",
    "manager": "manager",
    "spcm": "manager",
    "market": "manager",
    "file_server": "disk",
    "file server": "disk",
    "disk": "disk",
    "uio": "disk",
}

#: event actor -> attribution bucket (events re-attribute a slice of
#: their enclosing span's self-time)
EVENT_BUCKETS: dict[str, str] = {
    "ipc": "ipc",
    "zeroing": "zeroing",
}

#: canonical bucket order for rendering
BUCKET_ORDER = ("kernel", "ipc", "manager", "disk", "zeroing", "other")


def classify_span(span: SpanRecord) -> str:
    """The attribution bucket a span's self-time belongs to."""
    return COMPONENT_BUCKETS.get(span.component, "other")


def classify_event(event: TraceStep) -> str | None:
    """The bucket an event's cost re-attributes to, or ``None``."""
    return EVENT_BUCKETS.get(event.actor)


def events_by_span(events: Iterable[TraceStep]) -> dict:
    """Events grouped by the span they were emitted in, in emission order."""
    grouped: dict[int | None, list[TraceStep]] = {}
    for event in events:
        grouped.setdefault(event.span_id, []).append(event)
    return grouped


class SpanTree:
    """Tree queries over a flat span list (live or replayed)."""

    def __init__(self, spans: Sequence[SpanRecord]) -> None:
        self.spans = list(spans)
        self.by_id: dict[int, SpanRecord] = {
            s.span_id: s for s in self.spans
        }
        self._children: dict[int | None, list[SpanRecord]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)

    def roots(self) -> list[SpanRecord]:
        """Spans with no parent (or whose parent is absent), start order."""
        known = set(self.by_id)
        return [
            s
            for s in self.spans
            if s.parent_id is None or s.parent_id not in known
        ]

    def children(self, span: SpanRecord) -> list[SpanRecord]:
        """Direct children of ``span``, in start order."""
        return self._children.get(span.span_id, [])

    def self_us(self, span: SpanRecord) -> float:
        """Span duration minus direct children's durations."""
        return span.duration_us - sum(
            c.duration_us for c in self.children(span)
        )

    def walk(self, root: SpanRecord) -> list[SpanRecord]:
        """Depth-first spans under (and including) ``root``."""
        out: list[SpanRecord] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(self.children(span)))
        return out


@dataclass
class PathStep:
    """One hop on the critical path."""

    span: SpanRecord
    #: this span's share of the root duration
    share: float

    @property
    def label(self) -> str:
        """``component/operation`` of this hop's span."""
        return f"{self.span.component}/{self.span.operation}"


def critical_path(tree: SpanTree, root: SpanRecord) -> list[PathStep]:
    """Root-to-leaf chain of dominant spans.

    At every level the child with the largest duration is followed (ties
    break to the earlier span), mirroring how a profiler walks the
    hottest stack.  The first step is the root itself.
    """
    base = root.duration_us or 1.0
    path = [PathStep(root, root.duration_us / base)]
    span = root
    while True:
        kids = tree.children(span)
        if not kids:
            return path
        span = max(kids, key=lambda s: s.duration_us)
        path.append(PathStep(span, span.duration_us / base))


@dataclass
class Attribution:
    """Per-bucket decomposition of one root span's duration."""

    root: SpanRecord
    buckets: dict[str, float] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        """Sum of every bucket (equals the root span's duration)."""
        return sum(self.buckets.values())

    def share(self, bucket: str) -> float:
        """One bucket's fraction of the root span's duration."""
        base = self.root.duration_us or 1.0
        return self.buckets.get(bucket, 0.0) / base


def attribute(
    tree: SpanTree,
    events: Iterable[TraceStep],
    root: SpanRecord,
) -> Attribution:
    """Decompose ``root``'s duration into component buckets.

    Conservation by construction: each span's self-time is split between
    its component bucket and the buckets of its classified events, with
    the event shares clamped so they never exceed the self-time.  The
    bucket totals therefore sum exactly to ``root.duration_us`` (up to
    float addition), whatever the tree shape --- the property the
    Figure-2 tests assert for every traced fault and failover.
    """
    grouped = events_by_span(events)
    attribution = Attribution(root)
    buckets = attribution.buckets
    for span in tree.walk(root):
        remaining = tree.self_us(span)
        for event in grouped.get(span.span_id, ()):
            bucket = classify_event(event)
            if bucket is None or event.cost_us <= 0:
                continue
            slice_us = min(event.cost_us, remaining)
            if slice_us <= 0:
                continue
            buckets[bucket] = buckets.get(bucket, 0.0) + slice_us
            remaining -= slice_us
        span_bucket = classify_span(span)
        buckets[span_bucket] = buckets.get(span_bucket, 0.0) + remaining
    return attribution


def analyze(
    spans: Sequence[SpanRecord], events: Iterable[TraceStep]
) -> list[tuple[Attribution, list[PathStep]]]:
    """Attribution plus critical path for every root in a trace."""
    tree = SpanTree(spans)
    events = list(events)
    return [
        (attribute(tree, events, root), critical_path(tree, root))
        for root in tree.roots()
    ]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_attribution(attribution: Attribution) -> str:
    """The bucket decomposition as an aligned text table."""
    root = attribution.root
    lines = [
        f"attribution of {root.component}/{root.operation} "
        f"({root.duration_us:.1f} us):"
    ]
    ordered = [b for b in BUCKET_ORDER if b in attribution.buckets] + [
        b for b in sorted(attribution.buckets) if b not in BUCKET_ORDER
    ]
    width = max((len(b) for b in ordered), default=6)
    for bucket in ordered:
        us = attribution.buckets[bucket]
        lines.append(
            f"  {bucket.ljust(width)}  {us:>10.1f} us"
            f"  {100.0 * attribution.share(bucket):5.1f}%"
        )
    lines.append(
        f"  {'total'.ljust(width)}  {attribution.total_us:>10.1f} us"
    )
    return "\n".join(lines)


def render_critical_path(path: list[PathStep]) -> str:
    """The dominant chain as one indented hop per line."""
    lines = ["critical path:"]
    for depth, step in enumerate(path):
        lines.append(
            f"  {'  ' * depth}-> {step.label}"
            f"  {step.span.duration_us:.1f} us  ({100.0 * step.share:.1f}%)"
        )
    return "\n".join(lines)
