"""Process-sharded rollout collection: a persistent worker pool over the
vectorized engine.

:class:`ShardedRolloutCollector` splits the ``N`` lockstep env copies of the
in-process vectorized engine (:mod:`repro.envs.vector`,
:mod:`repro.marl.rollout`) into ``W`` contiguous row shards, each owned by a
long-lived worker process that steps its shard with local batched circuit
evaluation and ships completed episode blocks back over its pickle-pipe
(:mod:`repro.marl.parallel.transport`).  The parent broadcasts the current
actor weights with every collect command (so each
:meth:`~repro.marl.trainer.CTDETrainer.update` is visible to the mirrors) and
reassembles episodes in deterministic global order.  A stats-only collect
(``transitions=False``, what ES generations use) ships no episode blocks at
all: the replies carry nothing but stats, RNG positions and checkpoints.

Determinism contract (pinned by ``tests/test_parallel_rollout.py``):

- ``rollout_workers=W`` over ``rollout_envs=N`` is **bit-identical** to the
  in-process ``VectorEnv(N)`` path — same episodes, same stats, same RNG
  stream positions afterwards — for any ``W``, because every global env row
  keeps its own generator regardless of shard assignment and action
  sampling replays the global shared stream (see
  :class:`~repro.marl.parallel.worker.ShardActionAdapter`).  Transitively,
  ``N=1, W=1`` is bit-identical to the serial reference loop.
- The engine serves **fixed-length** envs only: every row completes one
  episode every ``episode_limit`` rounds, so a collect of ``n`` episodes is
  ``ceil(n / N)`` blocks of one episode per row, known before it starts.
  One command per worker carries its quota (blocks x its rows), and the
  parent reassembles block by block, workers in order — the in-process
  engine's (round, row) completion order and surplus discard.  Envs with
  data-dependent termination (``has_data_dependent_termination``) are
  rejected at construction: collect them in-process with
  ``rollout_workers=1``.  Their stopping round is a global property no
  shard sees alone, and the negotiation that once found it ran at about
  0.1x the in-process engine (see ``docs/parallel_rollouts.md``).

Worker lifecycle: processes are daemonic (the OS reaps them if the parent
dies without cleanup), :meth:`close` shuts them down gracefully, and a crash
detected on either side of a collect triggers restart-and-requeue — the new
process resumes from the checkpoint its predecessor returned after the last
successful collect and replays the in-flight command bit-exactly, so no
episode is lost or duplicated.
"""

from __future__ import annotations

import multiprocessing
import os
import sys

import numpy as np

from repro import obs
from repro.envs.vector import _spawn_row_rngs
from repro.obs import flight as _flight
from repro.obs import trace as _trace
from repro.marl.parallel.transport import (
    PipeChannel,
    WorkerCrashError,
    get_rng_state,
)
from repro.marl.parallel.worker import worker_main

__all__ = ["ShardedRolloutCollector"]


def _default_start_method():
    """Prefer cheap fork workers where forking is actually safe.

    Fork is only trusted on Linux: macOS offers it but forked children can
    abort inside Apple system libraries (the reason CPython's own default
    there is spawn).
    """
    methods = multiprocessing.get_all_start_methods()
    if sys.platform.startswith("linux") and "fork" in methods:
        return "fork"
    return "spawn"


class _WorkerHandle:
    """Parent-side record of one worker: process, channel, shard,
    checkpoint."""

    def __init__(self, context, payload, name):
        self.context = context
        self.payload = payload
        self.name = name
        self.n_rows = len(payload["rngs"])
        self.checkpoint = None
        self.process = None
        self.channel = None
        self.restarts = 0
        self.flight_ring = None

    def start(self):
        """Spawn the process and initialise it (from a checkpoint if cached).

        After init the clock-alignment handshake pins the worker's
        monotonic clock to the parent's timeline, and — when a flight dump
        directory is configured — the worker is told to keep its flight
        ring in a file the parent can recover if the process dies without
        warning.
        """
        parent_end, child_end = self.context.Pipe()
        self.process = self.context.Process(
            target=worker_main, args=(child_end,), daemon=True, name=self.name,
        )
        self.process.start()
        child_end.close()
        self.channel = PipeChannel(self.process, parent_end)
        payload = dict(self.payload)
        payload["checkpoint"] = self.checkpoint
        payload["label"] = self.name
        if _flight.enabled() and _flight.dump_dir() is not None:
            self.flight_ring = os.path.join(
                _flight.dump_dir(), f"{self.name}.ring"
            )
            payload["flight_ring"] = self.flight_ring
        self.channel.send(("init", payload))
        self.channel.recv()
        self._sync_clock()

    def _sync_clock(self):
        """RTT-midpoint clock negotiation (see ``repro.obs.trace``)."""
        t0 = _trace.now_us()
        self.channel.send(("clock",))
        worker_now = self.channel.recv()
        t1 = _trace.now_us()
        offset = _trace.compute_clock_offset(t0, t1, worker_now)
        self.channel.send(("clock_set", offset))
        self.channel.recv()

    def restart(self):
        """Replace a dead process with a fresh one at the last checkpoint.

        Before the evidence disappears: recover the dead incarnation's
        flight ring (when file-backed) and dump a postmortem beside the
        recovery — the crash path otherwise deliberately swallows it.
        """
        if _flight.enabled():
            worker_events = None
            if self.flight_ring is not None:
                worker_events = _flight.read_file(self.flight_ring)
            _flight.record(
                "worker_restart", worker=self.name,
                restarts=self.restarts + 1,
            )
            _flight.dump(
                "worker-crash",
                extra={"worker": self.name, "restarts": self.restarts + 1},
                worker_events=worker_events,
            )
        self.terminate()
        self.restarts += 1
        self.start()

    def terminate(self):
        """Hard-stop the process and drop the channel."""
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover — last resort
                self.process.kill()
                self.process.join(timeout=5.0)
            self.process = None

    def close(self):
        """Graceful shutdown; falls back to terminate on any trouble."""
        if self.channel is not None and self.process is not None:
            try:
                self.channel.send(("close",))
                self.channel.recv()
            except Exception:  # noqa: BLE001 — dying worker; force below
                pass
        self.terminate()
        if self.flight_ring is not None:
            try:
                os.unlink(self.flight_ring)
            except OSError:
                pass
            self.flight_ring = None


class ShardedRolloutCollector:
    """Collect episodes from ``n_envs`` lockstep copies across ``n_workers``
    processes, bit-identically to the in-process vectorized engine.

    Args:
        env: The serial reference environment (``SingleHopOffloadEnv`` /
            ``MultiHopOffloadEnv``).  Its generator seeds row 0's stream and
            is kept in sync with it across collects, exactly as
            :func:`~repro.envs.vector.make_vector_env` does in-process.
        actors: The live :class:`~repro.marl.actors.ActorGroup`; its current
            weights are broadcast to the worker mirrors on every collect.
        n_envs: Global lockstep copy count ``N``.
        n_workers: Worker process count ``W`` (clamped to ``n_envs``).
        start_method: ``multiprocessing`` start method; defaults to
            ``"fork"`` where available, else ``"spawn"``.
    """

    #: How worker replies travel: the pickle-pipe, the only transport.
    transport = "pipe"

    def __init__(self, env, actors, n_envs, n_workers, start_method=None):
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if env.n_agents != actors.n_agents:
            raise ValueError(
                f"env has {env.n_agents} agents, group has {actors.n_agents}"
            )
        if getattr(env, "has_data_dependent_termination", False):
            raise ValueError(
                f"{type(self).__name__} serves fixed-length episodes only, "
                "and this env ends episodes on data-dependent events "
                "(has_data_dependent_termination, e.g. "
                "terminate_on_overflow); collect it in-process with "
                "rollout_workers=1 and rollout_mode 'auto' or 'vector'"
            )
        self.env = env
        self.actors = actors
        self.n_envs = int(n_envs)
        self.n_workers = min(int(n_workers), self.n_envs)
        self._closed = False

        # Row streams are spawned centrally, before sharding, so every global
        # row's generator is independent of the worker layout (and identical
        # to what make_vector_env would build in-process, including the
        # side-effect on env.rng's spawn counter).
        row_rngs = _spawn_row_rngs(env.rng, self.n_envs)
        shards = np.array_split(np.arange(self.n_envs), self.n_workers)
        self._workers = []
        context = multiprocessing.get_context(
            start_method if start_method is not None else _default_start_method()
        )
        for w, rows in enumerate(shards):
            payload = {
                "env": env,
                "rngs": [row_rngs[i] for i in rows],
                "first_row": int(rows[0]),
                "n_envs_total": self.n_envs,
                "actors": actors,
            }
            self._workers.append(
                _WorkerHandle(context, payload, name=f"repro-rollout-{w}")
            )
        try:
            for worker in self._workers:
                worker.start()
        except Exception:
            self.close()
            raise

    # -- introspection --------------------------------------------------------

    @property
    def total_restarts(self):
        """Crash-recovery count across the pool (diagnostics)."""
        return sum(w.restarts for w in self._workers)

    def _actor_weight_states(self):
        return [
            actor.state_dict() if hasattr(actor, "state_dict") else None
            for actor in self.actors.actors
        ]

    # -- collection -----------------------------------------------------------

    def _exchange(self, command_for):
        """Send a per-worker command and gather replies, restarting crashed
        workers and replaying their command (once each per exchange).

        Any failure that escapes the retry — a deterministic
        :class:`~repro.marl.parallel.transport.WorkerTaskError`, or a worker
        crashing again right after its restart — aborts mid-loop with other
        workers' replies still queued in their pipes.  The pool could then
        pair the *next* command's recv with a stale reply, so it is poisoned
        (closed) before the error propagates; a later collect fails fast
        instead of silently returning old episodes.
        """
        try:
            for worker in self._workers:
                try:
                    worker.channel.send(command_for(worker))
                except WorkerCrashError:
                    worker.restart()
                    worker.channel.send(command_for(worker))
            replies = []
            for worker in self._workers:
                try:
                    replies.append(worker.channel.recv())
                except WorkerCrashError:
                    worker.restart()
                    worker.channel.send(command_for(worker))
                    replies.append(worker.channel.recv())
        except Exception:
            self.close()
            raise
        return replies

    def collect(self, n_episodes, rng, greedy=False, transitions=True):
        """Collect ``n_episodes`` episodes; returns ``(episodes, stats)``.

        Same signature, ordering, and stat accounting as
        :meth:`~repro.marl.rollout.VectorRolloutCollector.collect`; ``rng``
        (the shared action-sampling stream) is advanced to exactly the
        position the in-process engine would leave it at.  With
        ``transitions=False`` the workers stage and ship no transitions —
        their replies carry the stats alone — and ``episodes`` is
        ``None``.
        """
        if self._closed:
            raise RuntimeError("collector is closed")
        if n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        action_state = get_rng_state(rng)
        weight_states = self._actor_weight_states()
        # Captured once per collect, like the rng state: workers mirror the
        # parent's telemetry flag for this pass and attach their registry
        # snapshots to their replies when it is on.
        telemetry = obs.enabled()

        # Every row completes one episode per block of episode_limit
        # rounds, so the quota fixes the stopping round for every shard.
        blocks = -(-n_episodes // self.n_envs)
        spec = {
            "greedy": greedy,
            "transitions": bool(transitions),
            "action_rng": action_state,
            "weights": weight_states,
            "telemetry": telemetry,
            # Causal link: workers join the parent's open trace (None when
            # no trace is active), parenting their spans to whichever span
            # issued this collect.
            "trace": _trace.propagation_context(),
        }
        replies = self._exchange(
            lambda worker: (
                "collect", dict(spec, quota=blocks * worker.n_rows)
            )
        )

        # Every worker advances an identical replica of the shared action
        # stream; divergence means the lockstep bookkeeping broke.
        final_action = replies[0]["action_rng"]
        if any(reply["action_rng"] != final_action for reply in replies[1:]):
            raise RuntimeError(
                "worker action streams diverged; shard bookkeeping is broken"
            )
        rng.bit_generator.state = final_action
        # Row 0 shares the serial env's stream in-process; mirror that by
        # adopting its advanced position into env.rng.
        self.env.rng.bit_generator.state = replies[0]["row_rngs"][0]
        for worker, reply in zip(self._workers, replies):
            worker.checkpoint = reply["checkpoint"]
        if telemetry:
            # Merge in worker-index order — counters and histogram buckets
            # add, gauges last-write-wins, so the merged registry is
            # deterministic for a fixed worker layout.
            for reply in replies:
                snap = reply.get("telemetry")
                if snap:
                    obs.merge_snapshot(snap)

        # Reassemble in the in-process completion order — round-major,
        # global-row-minor: block b holds one episode per row, and each
        # worker ships its blocks in local row order.
        episodes, stats = [], []
        for block in range(blocks):
            for worker, reply in zip(self._workers, replies):
                lo = block * worker.n_rows
                rows = slice(lo, lo + worker.n_rows)
                stats.extend(reply["stats"][rows])
                if transitions:
                    episodes.extend(reply["episodes"][rows])
        return (
            episodes[:n_episodes] if transitions else None,
            stats[:n_episodes],
        )

    # -- lifecycle ------------------------------------------------------------

    def ping(self):
        """Round-trip every worker (health check); returns worker count."""
        if self._closed:
            raise RuntimeError("collector is closed")
        replies = self._exchange(lambda worker: ("ping",))
        return len(replies)

    def debug_crash_worker(self, index, during_next_collect=False):
        """Test hook: make worker ``index`` die like a crashed process.

        With ``during_next_collect=True`` the worker dies only upon
        receiving its next command (exercising the recv-side requeue path);
        otherwise it is killed immediately (exercising send-side detection).
        """
        worker = self._workers[index]
        if during_next_collect:
            worker.channel.send(("arm_crash",))
            worker.channel.recv()
        else:
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def close(self):
        """Shut the pool down; idempotent, leaves no live processes behind."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter teardown
            pass

    def __repr__(self):
        return (
            f"ShardedRolloutCollector(n_envs={self.n_envs}, "
            f"n_workers={self.n_workers}, n_agents={self.actors.n_agents})"
        )
