"""Process-sharded rollout collection: a worker pool over the vectorized
engine.

Public surface:

- :class:`~repro.marl.parallel.collector.ShardedRolloutCollector` — the
  parent-side pool: shards the ``(N, ...)`` lockstep state across worker
  processes, broadcasts actor weights, gathers episode blocks in
  deterministic order, and survives worker crashes.
- :class:`~repro.marl.parallel.worker.ShardActionAdapter` — the worker-side
  action sampler that keeps the shared action stream bit-aligned across
  shards.
- :mod:`~repro.marl.parallel.transport` — the tagged pickle-pipe protocol
  the two sides speak (:class:`PipeChannel` on the parent's end): commands,
  weight broadcasts, RNG states, checkpoints and episode blocks all ride
  it.
"""

from repro.marl.parallel.collector import ShardedRolloutCollector
from repro.marl.parallel.transport import (
    PipeChannel,
    WorkerCrashError,
    WorkerTaskError,
    get_rng_state,
    rng_from_state,
)
from repro.marl.parallel.worker import ShardActionAdapter, worker_main

__all__ = [
    "ShardedRolloutCollector",
    "ShardActionAdapter",
    "PipeChannel",
    "WorkerCrashError",
    "WorkerTaskError",
    "get_rng_state",
    "rng_from_state",
    "worker_main",
]
