"""The metrics registry: counters, gauges, and log-bucket histograms.

The design centre is a *near-zero* disabled cost, because the registry is
consulted from the hottest paths in the repo (compiled-kernel dispatch, the
lockstep rollout round, the micro-batcher).  Telemetry is a single
module-level flag:

- **disabled** (the default) — every accessor (:func:`counter`,
  :func:`gauge`, :func:`histogram`) returns the shared :data:`NULL_METRIC`
  singleton whose methods are empty, so an instrumented call site costs one
  flag check and nothing else, and :func:`span` hands out a no-op context
  manager without reading a clock;
- **enabled** (:func:`set_enabled`, the :func:`telemetry` scope, or the
  ``REPRO_OBS`` environment variable) — accessors resolve real metric
  objects in the process-global :class:`MetricsRegistry`.

All metric objects are thread-safe (the serving tier records from the event
loop *and* the checkpoint-watcher thread; tests hammer one counter from
many threads).  Histograms use **fixed log-spaced buckets** — geometric
edges frozen at creation — so two histograms of the same name always share
edges and cross-process snapshots merge by plain bucket-wise addition.

Cross-process aggregation is snapshot-based: a worker calls
:func:`snapshot` (usually with ``reset=True``), ships the plain-dict result
over its control channel, and the parent folds it in with
:func:`merge_snapshot`.  Merging is deterministic: counters and histogram
buckets add, gauges take the incoming value, and the caller controls
ordering by merging replies in worker-index order.  Telemetry never touches
an RNG stream — nothing here draws randomness or reorders work.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "NullMetric",
    "counter",
    "enabled",
    "gauge",
    "global_registry",
    "histogram",
    "histogram_quantile",
    "merge_snapshot",
    "reset",
    "set_enabled",
    "snapshot",
    "telemetry",
]


class NullMetric:
    """The shared do-nothing metric handed out while telemetry is disabled.

    Implements the full surface of every metric kind so call sites never
    branch on the telemetry state beyond the accessor's one flag check.
    """

    __slots__ = ()

    def inc(self, amount=1):
        return None

    def add(self, amount):
        return None

    def set(self, value):
        return None

    def observe(self, value):
        return None


NULL_METRIC = NullMetric()


class Counter:
    """A monotonically increasing integer (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1):
        with self._lock:
            self._value += int(amount)

    # Byte/row totals read better as add(); same operation.
    add = inc

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A last-write-wins float (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value):
        with self._lock:
            self._value = float(value)

    @property
    def value(self):
        return self._value

    def __repr__(self):
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """Fixed log-spaced-bucket histogram with exact count/sum/min/max.

    Bucket edges are frozen at creation as the geometric series
    ``min_edge * base**i`` for ``i in range(n_buckets)``; observation ``v``
    lands in the first bucket whose edge satisfies ``v <= edge`` (values at
    an edge belong to that edge's bucket), and anything beyond the last
    edge lands in a dedicated overflow bucket.  The defaults
    (``1 * 2**i``, 40 buckets) span twelve decades — enough for
    microsecond latencies and byte counts alike — at ~41 ints of memory.
    """

    __slots__ = ("name", "edges", "_lock", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name, min_edge=1.0, n_buckets=40, base=2.0):
        if min_edge <= 0:
            raise ValueError(f"min_edge must be > 0, got {min_edge!r}")
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets!r}")
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base!r}")
        self.name = name
        self.edges = [float(min_edge) * float(base) ** i
                      for i in range(int(n_buckets))]
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.edges) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value):
        value = float(value)
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    def quantile(self, q):
        """Deterministic quantile estimate from the bucket counts.

        Finds the bucket holding the ``ceil(q * count)``-th observation and
        interpolates linearly inside it, clamped to the exact observed
        ``[min, max]`` — so single-observation histograms and the overflow
        bucket report true values, not edge artefacts.
        """
        return histogram_quantile(self.state(), q)

    def state(self):
        """Plain-dict snapshot of this histogram (JSON- and merge-ready)."""
        with self._lock:
            return {
                "edges": list(self.edges),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    def merge_state(self, state):
        """Fold another histogram's :meth:`state` in (bucket-wise add)."""
        if list(state["edges"]) != self.edges:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched bucket "
                f"edges ({len(state['edges'])} vs {len(self.edges)})"
            )
        with self._lock:
            for i, count in enumerate(state["counts"]):
                self._counts[i] += int(count)
            self._count += int(state["count"])
            self._sum += float(state["sum"])
            if state["min"] is not None and state["min"] < self._min:
                self._min = float(state["min"])
            if state["max"] is not None and state["max"] > self._max:
                self._max = float(state["max"])

    def __repr__(self):
        return (
            f"Histogram({self.name!r}, count={self._count}, "
            f"buckets={len(self.edges)})"
        )


def histogram_quantile(state, q):
    """Quantile from a histogram snapshot dict (see :meth:`Histogram.state`).

    Shared by live histograms, the report CLI, and the server's
    ``/metrics`` document, so every surface computes percentiles
    identically.  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = int(state["count"])
    if total == 0:
        return 0.0
    edges = state["edges"]
    target = max(1, math.ceil(q * total))
    cumulative = 0
    for index, bucket_count in enumerate(state["counts"]):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(edges):
                return float(state["max"])
            upper = edges[index]
            lower = edges[index - 1] if index > 0 else 0.0
            fraction = (target - cumulative) / bucket_count
            value = lower + fraction * (upper - lower)
            return float(min(max(value, state["min"]), state["max"]))
        cumulative += bucket_count
    return float(state["max"])  # pragma: no cover — count/counts agree


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge semantics.

    One process-global instance backs the module accessors; tests may
    build private registries.  Creation is thread-safe and idempotent —
    concurrent :meth:`counter` calls for one name return the same object.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def _resolve(self, name, cls, kwargs=None):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, **(kwargs or {}))
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already exists as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name):
        return self._resolve(name, Counter)

    def gauge(self, name):
        return self._resolve(name, Gauge)

    def histogram(self, name, **kwargs):
        return self._resolve(name, Histogram, kwargs)

    def get(self, name):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def snapshot(self, reset=False):
        """All metric values as plain nested dicts (picklable, JSON-able).

        With ``reset=True`` the registry is emptied atomically after the
        capture — the worker-side idiom for shipping per-collect deltas.
        """
        with self._lock:
            metrics = dict(self._metrics)
            if reset:
                self._metrics.clear()
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in sorted(metrics.items()):
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.state()
        return out

    def merge(self, snap):
        """Fold a :meth:`snapshot` in: counters/buckets add, gauges adopt.

        Deterministic given the call order — the cross-process aggregators
        merge worker replies in worker-index order, so repeated runs fold
        identically.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in snap.get("histograms", {}).items():
            edges = state["edges"]
            histogram = self._metrics.get(name)
            if histogram is None:
                base = edges[1] / edges[0] if len(edges) > 1 else 2.0
                histogram = self.histogram(
                    name, min_edge=edges[0], n_buckets=len(edges), base=base
                )
            histogram.merge_state(state)

    def reset(self):
        """Drop every metric."""
        with self._lock:
            self._metrics.clear()

    def __len__(self):
        return len(self._metrics)


# ---------------------------------------------------------------------------
# The process-global registry and the enabled flag
# ---------------------------------------------------------------------------

_GLOBAL = MetricsRegistry()
_ENABLED = os.environ.get("REPRO_OBS", "") not in ("", "0", "false", "off")


def enabled():
    """Whether telemetry currently records (the one hot-path check)."""
    return _ENABLED


def set_enabled(flag):
    """Flip telemetry recording; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def telemetry(flag=True):
    """Scope telemetry on (or off) and restore the prior state on exit."""
    previous = set_enabled(flag)
    try:
        yield _GLOBAL
    finally:
        set_enabled(previous)


def global_registry():
    """The process-global registry behind the module accessors."""
    return _GLOBAL


def counter(name):
    """The named global counter, or :data:`NULL_METRIC` while disabled."""
    return _GLOBAL.counter(name) if _ENABLED else NULL_METRIC


def gauge(name):
    """The named global gauge, or :data:`NULL_METRIC` while disabled."""
    return _GLOBAL.gauge(name) if _ENABLED else NULL_METRIC


def histogram(name, **kwargs):
    """The named global histogram, or :data:`NULL_METRIC` while disabled."""
    return _GLOBAL.histogram(name, **kwargs) if _ENABLED else NULL_METRIC


def snapshot(reset=False):
    """Snapshot the global registry (see :meth:`MetricsRegistry.snapshot`)."""
    return _GLOBAL.snapshot(reset=reset)


def merge_snapshot(snap):
    """Merge a snapshot into the global registry."""
    _GLOBAL.merge(snap)


def reset():
    """Drop every global metric (test isolation)."""
    _GLOBAL.reset()
