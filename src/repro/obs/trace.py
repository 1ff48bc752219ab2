"""Causal trace context + Chrome-trace conversion.

This module adds *causality* to the span layer (:mod:`repro.obs.spans`):
while a trace is active every completed span carries a ``trace_id``, its
own ``span_id``, and a ``parent_id`` link, so the JSONL export describes a
parent→child tree instead of a flat bag of durations.

Three pieces:

- **Trace context.**  :func:`begin_trace` opens a process-local trace
  (random 64-bit hex id); the *current* span is tracked in a
  :class:`contextvars.ContextVar` so nesting works across threads and
  asyncio tasks.  :func:`propagation_context` captures ``(trace_id,
  parent_span_id, export path)`` for shipping over the worker pipes;
  :func:`adopt` installs it on the far side, pointing the worker's JSONL
  export at a per-pid sibling file (``<base>.<pid>``) so processes never
  interleave writes.

- **Clock alignment.**  Each process timestamps spans on its own
  ``time.perf_counter_ns``, whose epoch is arbitrary per process.  At
  worker handshake the parent measures a round trip and computes
  :func:`compute_clock_offset` (RTT midpoint); the worker installs it via
  :func:`set_clock_offset_us`, after which :func:`now_us` ticks on the
  parent's timeline and cross-process spans line up.

- **Chrome-trace export.**  ``python -m repro.obs.trace merged.jsonl -o
  out.json`` converts one or more JSONL trace files (plus their
  ``<path>.<pid>`` siblings, picked up automatically) into the Chrome
  trace-event JSON that ``chrome://tracing`` / Perfetto load: one ``X``
  (complete) event per span in a pid/tid lane, ``M`` metadata rows naming
  each process, and ``s``/``f`` flow arrows for every parent→child link
  that crosses a process or thread.

By contract nothing here touches a numpy RNG stream: trace ids come from
``os.urandom`` and span ids from a per-process counter, so enabling
tracing cannot perturb training determinism.
"""

from __future__ import annotations

import argparse
import contextvars
import glob
import itertools
import json
import os
import sys
import time

__all__ = [
    "active",
    "adopt",
    "begin_trace",
    "clock_offset_us",
    "compute_clock_offset",
    "current_span_id",
    "emit_manual_span",
    "end_trace",
    "main",
    "new_span_id",
    "now_us",
    "process_label",
    "propagation_context",
    "raw_now_us",
    "set_clock_offset_us",
    "set_default_parent",
    "set_process_label",
    "to_chrome_trace",
    "trace_id",
    "validate_chrome_trace",
]

# Process-global trace state.  The *current span* is a ContextVar (nesting
# must follow task/thread structure); everything else is genuinely
# process-wide: one trace, one clock offset, one label per process.
_TRACE_ID = None
_DEFAULT_PARENT = None  # remote parent: adopted spans attach here
_CLOCK_OFFSET_US = 0
_PROCESS_LABEL = None
_CURRENT = contextvars.ContextVar("repro_obs_current_span", default=None)
_SPAN_COUNTER = itertools.count(1)
# Span ids' process prefix, read once per process (a forked child
# refreshes it) instead of once per span.
_PID_HEX = f"{os.getpid():x}"


def _refresh_pid():
    global _PID_HEX
    _PID_HEX = f"{os.getpid():x}"


os.register_at_fork(after_in_child=_refresh_pid)


def new_span_id():
    """A span id unique within the trace: ``<pid hex>-<counter>``."""
    return f"{_PID_HEX}-{next(_SPAN_COUNTER)}"


def active():
    """True while a trace is open in this process."""
    return _TRACE_ID is not None


def trace_id():
    """The open trace's id, or None."""
    return _TRACE_ID


def current_span_id():
    """The innermost open span's id in this context, or None."""
    return _CURRENT.get()


def _push_current(span_id):
    return _CURRENT.set(span_id)


def _pop_current(token):
    _CURRENT.reset(token)


def default_parent():
    """The process-wide fallback parent for spans with no local parent."""
    return _DEFAULT_PARENT


def set_default_parent(span_id):
    """Set the fallback parent (the remote/root span adopted spans join)."""
    global _DEFAULT_PARENT
    _DEFAULT_PARENT = span_id


def effective_parent(explicit=None):
    """Resolve a span's parent: explicit > enclosing local > default."""
    if explicit is not None:
        return explicit
    current = _CURRENT.get()
    if current is not None:
        return current
    return _DEFAULT_PARENT


def process_label():
    """This process's lane label in the merged timeline, or None."""
    return _PROCESS_LABEL


def set_process_label(label):
    global _PROCESS_LABEL
    _PROCESS_LABEL = label


# ---------------------------------------------------------------------------
# Clock alignment
# ---------------------------------------------------------------------------


def raw_now_us():
    """This process's unaligned monotonic clock, microseconds."""
    return time.perf_counter_ns() // 1000


def now_us():
    """Monotonic microseconds on the *parent's* timeline."""
    return time.perf_counter_ns() // 1000 + _CLOCK_OFFSET_US


def align_us(raw_us):
    """Map a :func:`raw_now_us` reading onto the parent's timeline."""
    return raw_us + _CLOCK_OFFSET_US


def clock_offset_us():
    return _CLOCK_OFFSET_US


def set_clock_offset_us(offset_us):
    """Install the negotiated offset (workers call this at handshake)."""
    global _CLOCK_OFFSET_US
    _CLOCK_OFFSET_US = int(offset_us)


def compute_clock_offset(t0_us, t1_us, remote_now_us):
    """Offset the remote should add to land on this process's timeline.

    ``t0``/``t1`` are this process's *aligned* clock readings around a
    probe round trip and ``remote_now_us`` the remote's raw clock sampled
    in between; the RTT midpoint estimates what our clock read at that
    instant, so the error is bounded by half the round trip (locally,
    tens of microseconds).
    """
    midpoint = (t0_us + t1_us) // 2
    return midpoint - int(remote_now_us)


# ---------------------------------------------------------------------------
# Trace lifecycle + cross-process propagation
# ---------------------------------------------------------------------------


def begin_trace(trace_id=None, label=None):
    """Open a trace in this process; returns its id.

    Idempotent on the id: beginning while a trace is open keeps the open
    one (nested ``train_epoch`` calls share a single tree).
    """
    global _TRACE_ID
    if _TRACE_ID is None:
        _TRACE_ID = trace_id or os.urandom(8).hex()
        if label is not None:
            set_process_label(label)
        _emit_process_event()
    return _TRACE_ID


def end_trace():
    """Close the trace; spans recorded after this carry no trace ids."""
    global _TRACE_ID, _DEFAULT_PARENT
    _TRACE_ID = None
    _DEFAULT_PARENT = None
    _CURRENT.set(None)


def propagation_context():
    """The dict shipped to a worker so its spans join this trace.

    Returns None when no trace is open — callers forward it blindly and
    :func:`adopt` treats None as "don't trace".
    """
    if _TRACE_ID is None:
        return None
    from repro.obs import spans as _spans

    return {
        "trace_id": _TRACE_ID,
        "parent_span_id": effective_parent(),
        "export": _spans.export_path(),
    }


def adopt(ctx, label=None):
    """Install a :func:`propagation_context` in a worker process.

    Joins the parent's trace, parents local spans to the sender's span,
    and points the JSONL export at ``<base>.<pid>`` so each process owns
    its file (the trace CLI merges the siblings back together).
    """
    global _TRACE_ID
    if ctx is None:
        return
    from repro.obs import spans as _spans

    fresh = _TRACE_ID != ctx["trace_id"]
    _TRACE_ID = ctx["trace_id"]
    set_default_parent(ctx.get("parent_span_id"))
    if label is not None:
        set_process_label(label)
    base = ctx.get("export")
    if base is not None:
        own = f"{base}.{os.getpid()}"
        if _spans.export_path() != own:
            _spans.set_export_path(own)
    if fresh:
        _emit_process_event()


def _emit_process_event():
    from repro.obs import spans as _spans

    _spans.export_event({
        "kind": "process",
        "pid": os.getpid(),
        "label": _PROCESS_LABEL or f"pid {os.getpid()}",
        "trace_id": _TRACE_ID,
    })


def emit_manual_span(name, t_us, dur_us, parent_id=None, span_id=None,
                     **args):
    """Export a span that wasn't timed via ``with obs.span(...)``.

    For retroactive intervals (e.g. a request's queue wait, measured from
    its enqueue timestamp once the batch flushes) and for root spans whose
    id was handed out before the interval closed (``span_id=``).  ``t_us``
    must already be on the aligned timeline.  Returns the event's span id.
    """
    import threading

    from repro.obs import spans as _spans

    if _TRACE_ID is not None and span_id is None:
        span_id = new_span_id()
    event = {
        "kind": "span",
        "name": name,
        "t_us": float(t_us),
        "dur_us": float(dur_us),
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
    }
    if _TRACE_ID is not None:
        event["trace_id"] = _TRACE_ID
        event["span_id"] = span_id
        parent = effective_parent(parent_id)
        # Never self-parent: a root span emitted while it is itself the
        # process default parent must stay a root.
        if parent is not None and parent != span_id:
            event["parent_id"] = parent
    if args:
        event["args"] = args
    _spans.export_event(event)
    return span_id


def reset():
    """Test hook: clear every piece of process-global trace state."""
    global _TRACE_ID, _DEFAULT_PARENT, _CLOCK_OFFSET_US, _PROCESS_LABEL
    _TRACE_ID = None
    _DEFAULT_PARENT = None
    _CLOCK_OFFSET_US = 0
    _PROCESS_LABEL = None
    _CURRENT.set(None)


# ---------------------------------------------------------------------------
# Chrome-trace conversion
# ---------------------------------------------------------------------------


def load_events(paths):
    """Read span/process events from JSONL files plus ``<path>.<pid>`` siblings."""
    seen = set()
    files = []
    for path in paths:
        for candidate in [path] + sorted(glob.glob(glob.escape(path) + ".*")):
            real = os.path.abspath(candidate)
            if real not in seen and os.path.isfile(candidate):
                seen.add(real)
                files.append(candidate)
    events = []
    for path in files:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    return events


def to_chrome_trace(events):
    """Convert JSONL events into a Chrome trace-event document.

    Spans become ``X`` (complete) events in their ``pid``/``tid`` lane;
    ``process`` events become ``process_name`` metadata; every parent→child
    link that crosses a process or thread becomes an ``s``→``f`` flow pair
    so the arrows survive the lane split.
    """
    chrome = []
    spans = []
    labels = {}
    for event in events:
        kind = event.get("kind")
        if kind == "process":
            labels[event["pid"]] = event.get("label") or f"pid {event['pid']}"
        elif kind == "span" and "t_us" in event:
            spans.append(event)

    for pid, label in sorted(labels.items()):
        chrome.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })

    by_id = {e["span_id"]: e for e in spans if e.get("span_id")}
    flow_ids = itertools.count(1)
    for event in spans:
        args = {}
        for key in ("trace_id", "span_id", "parent_id"):
            if event.get(key) is not None:
                args[key] = event[key]
        args.update(event.get("args", {}))
        chrome.append({
            "ph": "X",
            "name": event["name"],
            "cat": "span",
            "ts": event["t_us"],
            "dur": event.get("dur_us", 0.0),
            "pid": event.get("pid", 0),
            "tid": event.get("tid", 0),
            "args": args,
        })
        parent = by_id.get(event.get("parent_id"))
        if parent is None:
            continue
        same_lane = (parent.get("pid") == event.get("pid")
                     and parent.get("tid") == event.get("tid"))
        if same_lane:
            continue
        # Anchor the arrow tail inside the parent slice: at the child's
        # start when the parent covers it, else clamped to the parent.
        tail = min(max(event["t_us"], parent["t_us"]),
                   parent["t_us"] + parent.get("dur_us", 0.0))
        flow = next(flow_ids)
        chrome.append({
            "ph": "s", "id": flow, "name": "parent", "cat": "flow",
            "ts": tail, "pid": parent.get("pid", 0),
            "tid": parent.get("tid", 0),
        })
        chrome.append({
            "ph": "f", "bp": "e", "id": flow, "name": "parent",
            "cat": "flow", "ts": event["t_us"],
            "pid": event.get("pid", 0), "tid": event.get("tid", 0),
        })
    return {"traceEvents": chrome, "displayTimeUnit": "ms"}


_REQUIRED = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "M": ("name", "pid", "args"),
    "s": ("id", "ts", "pid", "tid"),
    "f": ("id", "ts", "pid", "tid"),
}


def validate_chrome_trace(doc):
    """Schema-check a Chrome trace document; returns a list of problems."""
    problems = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    flows = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in _REQUIRED:
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        for field in _REQUIRED[ph]:
            if field not in event:
                problems.append(f"event {i} (ph={ph}): missing {field!r}")
        if ph == "X":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event {i}: ts not numeric")
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(f"event {i}: dur not numeric")
            elif event["dur"] < 0:
                problems.append(f"event {i}: negative dur")
        if ph in ("s", "f"):
            flows.setdefault(event.get("id"), set()).add(ph)
    for flow, phases in sorted(flows.items(), key=lambda kv: str(kv[0])):
        if phases != {"s", "f"}:
            problems.append(f"flow {flow}: unpaired ({sorted(phases)})")
    return problems


def connected_roots(events):
    """Trace-tree sanity: the set of root span ids among traced spans.

    A span is a root when it has no parent or its parent id never appears
    as a recorded span (e.g. the parent predates the export).  A fully
    connected tree has exactly one root.
    """
    spans = [e for e in events
             if e.get("kind") == "span" and e.get("span_id")]
    ids = {e["span_id"] for e in spans}
    return sorted(e["span_id"] for e in spans
                  if e.get("parent_id") not in ids)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Convert obs JSONL traces to Chrome/Perfetto JSON.")
    parser.add_argument("inputs", nargs="+",
                        help="JSONL trace file(s); <path>.<pid> worker "
                             "siblings are merged automatically")
    parser.add_argument("-o", "--output", default=None,
                        help="write Chrome JSON here (default: stdout)")
    parser.add_argument("--check", action="store_true",
                        help="schema-check the output; nonzero exit on "
                             "problems")
    args = parser.parse_args(argv)

    events = load_events(args.inputs)
    if not events:
        print(f"error: no trace events found in {', '.join(args.inputs)}",
              file=sys.stderr)
        return 2
    doc = to_chrome_trace(events)
    if args.check:
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(f"schema: {problem}", file=sys.stderr)
            return 1
    rendered = json.dumps(doc, sort_keys=True)
    if args.output:
        directory = os.path.dirname(args.output)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.output, "w") as f:
            f.write(rendered + "\n")
        n_spans = sum(1 for e in doc["traceEvents"] if e["ph"] == "X")
        print(f"wrote {args.output}: {n_spans} spans, "
              f"{len(doc['traceEvents'])} events")
    else:
        print(rendered)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
