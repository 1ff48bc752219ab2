"""Adaptive micro-batching: coalesce concurrent requests into one circuit call.

Per-request evaluation wastes exactly the parallelism the statevector
backend is best at — a 64-row stacked evaluation costs far less than 64
single-row calls (the same observation that made vectorized rollouts and ES
fast).  The batcher therefore queues concurrent decision requests and
flushes them as ONE ``rows_probabilities`` call when either

- ``max_batch`` rows have accumulated (flush on size), or
- the *oldest* queued request has waited ``max_wait_us`` (flush on time).

Under heavy load batches fill instantly and the timer never fires; under
light load a request waits at most ``max_wait_us`` before evaluating alone.
That is the adaptive part: batch size tracks the offered load with a hard
latency bound, no tuning loop required.

Everything runs on one asyncio event loop, and a flush is synchronous once
it starts — which is exactly what makes hot reload safe: the engine swap is
scheduled as a loop callback, so it can interleave *between* flushes but
never inside one.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro import obs
from repro.obs import spans as _spans
from repro.obs import trace as _trace

__all__ = ["MicroBatcher", "OverloadedError"]


class OverloadedError(RuntimeError):
    """Raised by submit() when the pending queue exceeds ``max_pending``."""


class _Entry:
    """One submitted request group and the future its caller awaits."""

    __slots__ = ("observations", "agents", "greedy", "future", "enqueued_at",
                 "meta", "span_id")

    def __init__(self, observations, agents, greedy, future, enqueued_at,
                 meta=None, span_id=None):
        self.observations = observations
        self.agents = agents
        self.greedy = greedy
        self.future = future
        self.enqueued_at = enqueued_at
        self.meta = meta
        # The submitting request's span id (when a trace is open), so the
        # flush can attribute the retroactive queue-wait span to it.
        self.span_id = span_id


class MicroBatcher:
    """Coalesce submit() calls into stacked engine evaluations.

    Args:
        engine: A :class:`~repro.serving.engine.PolicyEngine` — anything
            with ``act(observations, agents, greedy_mask)``.
        max_batch: Most rows per flush.  Request groups are never split:
            a group larger than ``max_batch`` flushes as its own batch.
        max_wait_us: Longest the oldest queued row waits before a flush.
        max_pending: Queued-row bound; beyond it submit() raises
            :class:`OverloadedError`.  0 means unbounded.
        flush_observer: Optional callable invoked after every successful
            flush with ``(batch_id, trigger, entries, generation)`` where
            ``entries`` is ``[(meta, rows, queue_wait_us), ...]`` in queue
            order — the server's structured access log hangs off this.
    """

    def __init__(self, engine, max_batch=32, max_wait_us=2000, max_pending=0,
                 flush_observer=None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait = max_wait_us / 1e6
        self.max_pending = int(max_pending)
        self.flush_observer = flush_observer
        self._queue = []
        self._pending_rows = 0
        self._timer = None
        self._batch_seq = 0
        self.stats = {
            "requests": 0,
            "rows": 0,
            "batches": 0,
            "rejected": 0,
            "flush_size": 0,
            "flush_time": 0,
            "batch_size_hist": {},
            "max_batch_seen": 0,
        }

    @property
    def pending_rows(self):
        """Rows currently queued (not yet flushed)."""
        return self._pending_rows

    async def submit(self, observations, agents, greedy, meta=None):
        """Queue one request group; returns ``(actions, probs, generation)``.

        ``observations`` is ``(k, obs_size)``, ``agents`` and ``greedy``
        are length ``k`` — a group is typically one request (k=1) but the
        batch endpoint submits many rows atomically.  ``meta`` is an opaque
        caller tag handed back through ``flush_observer``.
        """
        rows = len(observations)
        if self.max_pending and self._pending_rows + rows > self.max_pending:
            self.stats["rejected"] += 1
            if obs.enabled():
                obs.counter("serving.rejected").inc()
            raise OverloadedError(
                f"{self._pending_rows} rows pending, bound is "
                f"{self.max_pending}"
            )
        loop = asyncio.get_running_loop()
        entry = _Entry(
            observations, agents, greedy, loop.create_future(),
            time.perf_counter(), meta, _trace.current_span_id(),
        )
        self._queue.append(entry)
        self._pending_rows += rows
        self.stats["requests"] += 1
        self.stats["rows"] += rows
        if self._pending_rows >= self.max_batch:
            self._flush("size")
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_wait, self._flush, "time"
            )
        return await entry.future

    def _take_batch(self):
        """Dequeue whole groups up to ``max_batch`` rows (at least one)."""
        taken = []
        rows = 0
        while self._queue:
            entry = self._queue[0]
            entry_rows = len(entry.observations)
            if taken and rows + entry_rows > self.max_batch:
                break
            taken.append(self._queue.pop(0))
            rows += entry_rows
        self._pending_rows -= rows
        return taken, rows

    def _flush(self, trigger):
        """Evaluate queued groups as stacked engine calls (sync, on-loop)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        while self._queue:
            taken, rows = self._take_batch()
            observations = np.concatenate([e.observations for e in taken])
            agents = [a for e in taken for a in e.agents]
            greedy = [g for e in taken for g in e.greedy]
            try:
                # The batch span's causal parent is the process default
                # (the server's root span), set explicitly: _flush runs
                # either inside one request's context (size trigger) or a
                # timer callback's captured context (time trigger), and
                # neither request should own a span covering everyone's
                # rows.  Request→batch attribution comes from the
                # queue-wait spans below instead.
                with obs.span("serving.batch",
                              parent_id=_trace.default_parent()):
                    actions, probs, generation = self.engine.act(
                        observations, agents, greedy
                    )
            except Exception as exc:  # noqa: BLE001 — fail the waiters
                for entry in taken:
                    if not entry.future.done():
                        entry.future.set_exception(exc)
                continue
            self.stats["batches"] += 1
            self.stats[f"flush_{trigger}"] += 1
            hist = self.stats["batch_size_hist"]
            hist[rows] = hist.get(rows, 0) + 1
            self.stats["max_batch_seen"] = max(
                self.stats["max_batch_seen"], rows
            )
            self._batch_seq += 1
            telemetry = obs.enabled()
            if telemetry or self.flush_observer is not None:
                now = time.perf_counter()
                waits = [
                    (entry, (now - entry.enqueued_at) * 1e6)
                    for entry in taken
                ]
                if telemetry:
                    obs.counter(f"serving.flush.{trigger}").inc()
                    obs.histogram(
                        "serving.batch_rows", min_edge=1.0, n_buckets=12
                    ).observe(rows)
                    wait_hist = obs.histogram(
                        "serving.queue_wait_us", min_edge=1.0, n_buckets=32
                    )
                    for _, wait_us in waits:
                        wait_hist.observe(wait_us)
                    if _trace.active() and _spans.export_path() is not None:
                        # Retroactive per-request queue-wait spans: the
                        # interval from enqueue to this flush, parented to
                        # the submitting request's span.
                        for entry, wait_us in waits:
                            _trace.emit_manual_span(
                                "serving.queue_wait",
                                t_us=_trace.align_us(
                                    entry.enqueued_at * 1e6
                                ),
                                dur_us=wait_us,
                                parent_id=entry.span_id,
                                batch_id=self._batch_seq,
                                flush=trigger,
                            )
                if self.flush_observer is not None:
                    self.flush_observer(
                        self._batch_seq,
                        trigger,
                        [
                            (e.meta, len(e.observations), wait_us)
                            for e, wait_us in waits
                        ],
                        generation,
                    )
            offset = 0
            for entry in taken:
                k = len(entry.observations)
                if not entry.future.done():
                    entry.future.set_result(
                        (
                            actions[offset:offset + k],
                            probs[offset:offset + k],
                            generation,
                        )
                    )
                offset += k
            if self._pending_rows < self.max_batch:
                break
        if self._queue and self._timer is None:
            # Leftover groups keep the oldest entry's original deadline.
            remaining = max(
                0.0,
                self._queue[0].enqueued_at + self.max_wait
                - time.perf_counter(),
            )
            self._timer = asyncio.get_running_loop().call_later(
                remaining, self._flush, "time"
            )
