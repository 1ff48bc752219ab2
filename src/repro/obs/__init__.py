"""repro.obs — the unified telemetry subsystem.

One near-zero-overhead surface for every tier of the repo (see
``docs/observability.md``):

- a process-global metrics registry of counters, gauges, and fixed
  log-bucket histograms (:mod:`repro.obs.registry`), returning a shared
  no-op singleton while telemetry is disabled so hot paths pay one flag
  check;
- span tracing over monotonic clocks with optional JSONL export
  (:mod:`repro.obs.spans`);
- causal trace context — trace/span/parent ids, cross-process propagation
  over the worker pipes, clock alignment, and a Chrome-trace
  converter CLI ``python -m repro.obs.trace`` (:mod:`repro.obs.trace`);
- an always-on crash flight recorder with postmortem dumps
  (:mod:`repro.obs.flight`);
- snapshot/merge cross-process aggregation (rollout workers attach
  registry snapshots to their control-channel replies; the parent merges
  deterministically);
- a report CLI: ``python -m repro.obs.report trace.jsonl``
  (:mod:`repro.obs.report`).

Telemetry defaults **off**; enable with ``REPRO_OBS=1``, with
:func:`set_enabled`, or scoped via ``with obs.telemetry(): ...``.  By
contract it never touches an RNG stream or reorders work — the cross-engine
bit-identity harness passes with telemetry enabled (pinned by
``tests/test_obs.py``).
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    NullMetric,
    counter,
    enabled,
    gauge,
    global_registry,
    histogram,
    histogram_quantile,
    merge_snapshot,
    reset,
    set_enabled,
    snapshot,
    telemetry,
)
from repro.obs import flight
from repro.obs import trace
from repro.obs.spans import (
    close_export,
    export_event,
    export_path,
    export_snapshot,
    set_export_path,
    span,
)
from repro.obs.trace import (
    begin_trace,
    current_span_id,
    end_trace,
    trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "NullMetric",
    "begin_trace",
    "close_export",
    "counter",
    "current_span_id",
    "enabled",
    "end_trace",
    "export_event",
    "export_path",
    "export_snapshot",
    "flight",
    "gauge",
    "global_registry",
    "histogram",
    "histogram_quantile",
    "merge_snapshot",
    "reset",
    "set_enabled",
    "set_export_path",
    "snapshot",
    "span",
    "telemetry",
    "trace",
    "trace_id",
]
