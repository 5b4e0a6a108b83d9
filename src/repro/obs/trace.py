"""Structured tracing: nested spans and point events over simulated time.

A :class:`Tracer` collects :class:`~repro.obs.records.SpanRecord` intervals
and :class:`~repro.obs.records.TraceStep` events.  Spans nest through a
stack, so instrumented code reads naturally::

    with tracer.span("kernel", "dispatch_fault", kind="MISSING_PAGE"):
        with tracer.span("manager", "handle_fault"):
            ...

Timestamps come from ``clock`` --- a callable returning simulated
microseconds, normally the kernel cost meter's ``total_us`` --- so a
span's duration *is* the simulated cost charged while it was open, and
per-span self time (duration minus child durations) decomposes a page
fault's total cost exactly (the Figure-2 / Table-1 property the
integration tests assert).  The tracer only emits; tree queries over its
spans are :class:`~repro.obs.critical_path.SpanTree`'s.

Tracing is off by default: components hold :data:`NULL_TRACER`, whose
``enabled`` flag is ``False`` and whose methods are no-ops returning a
shared null span, so the disabled mode adds no measurable cost to the
benchmarked paths.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.records import SpanRecord, TraceStep


class _NullSpan:
    """The do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attr(self, key: str, value: object) -> None:
        """Discard the attribute."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead stand-in used when tracing is disabled."""

    __slots__ = ()

    enabled = False

    def span(self, component: str, operation: str, **attrs) -> _NullSpan:
        """Return the shared null span."""
        return _NULL_SPAN

    def event(
        self, actor: str, action: str, cost_us: float = 0.0
    ) -> None:
        """Discard the event."""

    def step(self, actor: str, action: str, cost_us: float = 0.0) -> None:
        """Discard the Figure-2 step."""

    def digest_event(self, step: int, digest: str, label: str = "") -> None:
        """Discard the digest checkpoint."""

    def reset(self) -> None:
        """Nothing to clear."""


#: The shared disabled tracer; identity-comparable (``is NULL_TRACER``).
NULL_TRACER = NullTracer()


class _Span:
    """A live span: context manager that closes its record on exit."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set_attr(self, key: str, value: object) -> None:
        """Attach or update one attribute on the span."""
        self.record.attrs[key] = value

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.record.attrs["error"] = exc_type.__name__
        self._tracer._close_span(self)
        return False


class Tracer:
    """Collects a span tree plus events, over a simulated clock.

    ``clock`` may be supplied later (``build_system`` hooks it to the
    kernel meter); until then timestamps are 0.0, which keeps standalone
    component tests simple.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self.events: list[TraceStep] = []
        #: the Figure-2 subset of ``events`` (see :meth:`step`)
        self.steps: list[TraceStep] = []
        self._stack: list[_Span] = []
        self._next_span_id = 1

    # -- time ------------------------------------------------------------

    def now_us(self) -> float:
        """Current simulated time (0.0 until a clock is attached)."""
        return self.clock() if self.clock is not None else 0.0

    # -- emission --------------------------------------------------------

    def span(self, component: str, operation: str, **attrs) -> _Span:
        """Open a nested span; use as a context manager."""
        parent = self._stack[-1].record.span_id if self._stack else None
        record = SpanRecord(
            span_id=self._next_span_id,
            parent_id=parent,
            component=component,
            operation=operation,
            t_start_us=self.now_us(),
            attrs=dict(attrs) if attrs else {},
        )
        self._next_span_id += 1
        self.spans.append(record)
        live = _Span(self, record)
        self._stack.append(live)
        return live

    def _close_span(self, live: _Span) -> None:
        # Tolerate out-of-order exits (generators, error unwinds): close
        # everything above the span too.  A span such an exit already
        # closed is off the stack, so its own late exit closes nothing.
        while live in self._stack:
            self._stack.pop().record.t_end_us = self.now_us()

    def event(self, actor: str, action: str, cost_us: float = 0.0) -> None:
        """Record one point event inside the current span (if any)."""
        self.events.append(
            TraceStep(
                step=len(self.events) + 1,
                actor=actor,
                action=action,
                cost_us=cost_us,
                span_id=(
                    self._stack[-1].record.span_id if self._stack else None
                ),
                t_us=self.now_us(),
            )
        )

    def step(self, actor: str, action: str, cost_us: float = 0.0) -> None:
        """Record one Figure-2 step: an event also kept in :attr:`steps`.

        ``FaultTrace.from_events(tracer.steps[first:])`` renders the steps
        emitted since index ``first`` as the figure.
        """
        self.event(actor, action, cost_us)
        self.steps.append(self.events[-1])

    def digest_event(self, step: int, digest: str, label: str = "") -> None:
        """Record one verify digest-chain checkpoint as a trace event.

        The determinism harness emits one per chain step when tracing is
        on, so a trace export carries the digest chain inline: two traces
        of the same seeded run can be diffed by their ``digest`` events
        alone, without re-running the workload.
        """
        suffix = f" ({label})" if label else ""
        self.event("digest", f"chain step {step}: {digest}{suffix}")

    def reset(self) -> None:
        """Drop collected records (open spans are abandoned, not closed)."""
        self.spans.clear()
        self.events.clear()
        self.steps.clear()
        self._stack.clear()
        self._next_span_id = 1

    @property
    def current_span(self) -> SpanRecord | None:
        """The innermost open span, or ``None``."""
        return self._stack[-1].record if self._stack else None


#: Process-wide tracer the benchmark harness toggles; ``build_system``
#: adopts it so ``pytest benchmarks/... --trace`` needs no per-bench code.
_global_tracer: Tracer | NullTracer = NULL_TRACER


def set_global_tracer(tracer: Tracer | NullTracer) -> None:
    """Install the tracer newly built systems adopt by default."""
    global _global_tracer
    _global_tracer = tracer


def get_global_tracer() -> Tracer | NullTracer:
    """The tracer newly built systems adopt by default."""
    return _global_tracer
