"""repro.obs: unified tracing, telemetry, and fault-path profiling.

The observability layer for the reproduction (see DESIGN.md):

* :mod:`repro.obs.records` --- the shared span/event record types (also
  used by the Figure-2 :class:`~repro.core.faults.FaultTrace`);
* :mod:`repro.obs.trace` --- the :class:`Tracer` (nested spans over
  simulated time) and the zero-overhead :data:`NULL_TRACER`;
* :mod:`repro.obs.export` --- the one JSONL reader and writer (span,
  event, sample and alert records), flamegraph-style trees, and
  per-phase fault-latency breakdowns;
* :mod:`repro.obs.telemetry` --- continuous sim-time gauge sampling over
  a ring buffer (:class:`TelemetryCollector`), the one registry of named
  values;
* :mod:`repro.obs.critical_path` --- :class:`SpanTree`, the one set of
  span-tree queries, plus critical-path extraction and conservative
  latency attribution;
* :mod:`repro.obs.slo` --- :class:`SLOWatchdog` structured alerting;
* :mod:`repro.obs.dashboard` --- ``python -m repro top``;
* :mod:`repro.obs.cli` --- ``python -m repro trace <target>``.
"""

from repro.obs.critical_path import (
    Attribution,
    PathStep,
    SpanTree,
    analyze,
    attribute,
    critical_path,
)
from repro.obs.records import SpanRecord, TraceStep
from repro.obs.slo import Alert, SLOPolicy, SLOWatchdog
from repro.obs.telemetry import (
    TelemetryCollector,
    TelemetrySample,
    install_telemetry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_global_tracer,
    set_global_tracer,
)

__all__ = [
    "Alert",
    "Attribution",
    "NULL_TRACER",
    "NullTracer",
    "PathStep",
    "SLOPolicy",
    "SLOWatchdog",
    "SpanRecord",
    "SpanTree",
    "TelemetryCollector",
    "TelemetrySample",
    "TraceStep",
    "Tracer",
    "analyze",
    "attribute",
    "critical_path",
    "get_global_tracer",
    "install_telemetry",
    "set_global_tracer",
]
