"""Span tracing: monotonic-clock timers over the metrics registry.

``with span("trainer.update"):`` times a block on
:func:`time.perf_counter_ns` and records three metrics under a naming
convention the report CLI understands:

- ``span.<name>.calls`` — counter of completed spans;
- ``span.<name>.total_ns`` — counter of summed wall time;
- ``span.<name>.us`` — log-bucket histogram of per-span durations
  (microseconds), for p50/p99.

Because spans are plain counters and histograms, worker-side spans ride the
same snapshot/merge path as every other metric — rollout-vs-update time
aggregates across processes with no extra machinery.

While telemetry is disabled :func:`span` returns a shared no-op context
manager — no clock read, no allocation beyond the call itself.

Optionally, completed spans are appended to a JSONL trace file
(:func:`set_export_path`, or the ``REPRO_OBS_EXPORT`` environment
variable): one ``{"kind": "span", ...}`` object per line carrying the
aligned start time (``t_us``), duration, pid, and thread id — enough to
rebuild a timeline — plus whole-registry ``{"kind": "snapshot", ...}``
events from :func:`export_snapshot`.  While a trace is open
(:mod:`repro.obs.trace`) each span also carries ``trace_id`` /
``span_id`` / ``parent_id`` causal links; nesting is tracked in a
context variable so threads and asyncio tasks each see their own stack.
``python -m repro.obs.report trace.jsonl`` summarises such a file and
``python -m repro.obs.trace`` converts it for chrome://tracing.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.obs import flight as _flight
from repro.obs import registry as _registry
from repro.obs import trace as _trace

__all__ = [
    "close_export",
    "export_event",
    "export_path",
    "export_snapshot",
    "set_export_path",
    "span",
]


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        return False


_NULL_SPAN = _NullSpan()

# span name -> (registry generation, calls, total_ns, us): the span's
# metrics, resolved again only after the registry has dropped them.
_SPAN_METRICS = {}


def _span_metrics(name):
    registry = _registry.global_registry()
    metrics = _SPAN_METRICS.get(name)
    if metrics is None or metrics[0] != registry.generation:
        metrics = _SPAN_METRICS[name] = (
            registry.generation,
            registry.counter(f"span.{name}.calls"),
            registry.counter(f"span.{name}.total_ns"),
            registry.histogram(f"span.{name}.us"),
        )
    return metrics


class Span:
    """One timed block; created per use (spans may nest and overlap)."""

    __slots__ = ("name", "span_id", "parent_id", "_start", "_token")

    def __init__(self, name, parent_id=None):
        self.name = name
        self.span_id = None
        self.parent_id = parent_id
        self._start = 0
        self._token = None

    def __enter__(self):
        if _trace.active():
            self.span_id = _trace.new_span_id()
            self.parent_id = _trace.effective_parent(self.parent_id)
            self._token = _trace._push_current(self.span_id)
        if _flight.enabled():
            _flight.record("span_begin", name=self.name)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc_value, tb):
        duration_ns = time.perf_counter_ns() - self._start
        if self._token is not None:
            _trace._pop_current(self._token)
            self._token = None
        if _flight.enabled():
            _flight.record(
                "span_end", name=self.name, dur_us=duration_ns / 1000.0
            )
        # Re-check: telemetry may have been disabled mid-span (the worker
        # toggle); record only when still on, so snapshots stay consistent.
        if _registry.enabled():
            _, calls, total_ns, us = _span_metrics(self.name)
            calls.inc()
            total_ns.inc(duration_ns)
            us.observe(duration_ns / 1000.0)
            if _EXPORT_PATH is not None:
                event = {
                    "kind": "span",
                    "name": self.name,
                    "t_us": _trace.align_us(self._start / 1000.0),
                    "dur_us": duration_ns / 1000.0,
                    "pid": os.getpid(),
                    "tid": threading.get_native_id(),
                }
                if self.span_id is not None:
                    event["trace_id"] = _trace.trace_id()
                    event["span_id"] = self.span_id
                    if self.parent_id is not None:
                        event["parent_id"] = self.parent_id
                export_event(event)
        return False


def span(name, parent_id=None):
    """A context manager timing ``name`` — no-op while telemetry is off.

    ``parent_id`` overrides causal-parent resolution (enclosing span, then
    the process default) for work executed on behalf of a span that isn't
    on the current call stack — e.g. a batch flushed by an event-loop
    timer on behalf of the server's root span.
    """
    if _registry.enabled():
        return Span(name, parent_id=parent_id)
    return _NULL_SPAN


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------

_EXPORT_LOCK = threading.Lock()
_EXPORT_PATH = os.environ.get("REPRO_OBS_EXPORT") or None
_EXPORT_FILE = None
_EXPORT_FILE_PID = None


def export_path():
    """The configured JSONL sink path, or None."""
    return _EXPORT_PATH


def set_export_path(path):
    """Point the JSONL trace sink at ``path`` (None closes and disables).

    Parent directories are created eagerly so timelines can be exported
    straight into a per-run directory.
    """
    global _EXPORT_PATH, _EXPORT_FILE
    with _EXPORT_LOCK:
        if _EXPORT_FILE is not None:
            _EXPORT_FILE.close()
            _EXPORT_FILE = None
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
        _EXPORT_PATH = path


def close_export():
    """Flush and close the trace sink, keeping the path configured."""
    global _EXPORT_FILE
    with _EXPORT_LOCK:
        if _EXPORT_FILE is not None:
            _EXPORT_FILE.close()
            _EXPORT_FILE = None


def export_event(event):
    """Append one JSON object to the trace file (no-op without a path)."""
    global _EXPORT_FILE, _EXPORT_FILE_PID
    if _EXPORT_PATH is None:
        return
    line = json.dumps(event, sort_keys=True)
    with _EXPORT_LOCK:
        if _EXPORT_PATH is None:  # closed while we serialised
            return
        if _EXPORT_FILE is not None and _EXPORT_FILE_PID != os.getpid():
            # Forked child inheriting the parent's handle: writing through
            # it would interleave with the parent mid-line.  Reopen our own.
            _EXPORT_FILE.close()
            _EXPORT_FILE = None
        if _EXPORT_FILE is None:
            _EXPORT_FILE = open(_EXPORT_PATH, "a", buffering=1)
            _EXPORT_FILE_PID = os.getpid()
        _EXPORT_FILE.write(line + "\n")


def export_snapshot(reset=False):
    """Write the whole registry as one ``snapshot`` trace event."""
    export_event({
        "kind": "snapshot",
        "pid": os.getpid(),
        "data": _registry.snapshot(reset=reset),
    })
