"""Multi-worker sharded serving over the rollout workers' pipe protocol.

One statevector process saturates around one core's worth of batched
evaluation; the sharded engine splits each micro-batch's rows across
worker processes, each holding its own warm framework replica, and
concatenates the probability blocks.  It reuses what the sharded rollout
collector built: the tagged pickle-pipe protocol
(:mod:`repro.marl.parallel.transport`), daemon worker processes, and
restart-and-replay crash recovery.

The parent stays the single authority for everything stateful: action
sampling (workers only compute probabilities), the generation counter, and
which checkpoint is current — a restarted worker is simply re-initialised
with the spec and the last broadcast checkpoint path.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback

import numpy as np

from repro import obs as _obs
from repro.marl.parallel.collector import _default_start_method
from repro.marl.parallel.transport import (
    PipeChannel,
    WorkerCrashError,
    WorkerEndpoint,
    WorkerTaskError,
)
from repro.obs import flight as _flight
from repro.obs import trace as _trace

from repro.serving.engine import (
    build_inference_framework,
    select_actions,
)

__all__ = ["ShardedPolicyEngine", "serving_worker_main"]


def serving_worker_main(connection):
    """Blocking command loop run inside each serving worker process.

    Commands: ``init`` (spec + optional checkpoint + optional
    observability config), ``load`` (checkpoint path), ``infer``
    (observation rows + agent indices + optional trace context; replies
    with the ``(R, A)`` probability block), ``ping``, ``close``, plus the
    ``clock`` / ``clock_set`` alignment handshake (see
    :mod:`repro.obs.trace`).  Commands are ringed in the flight recorder so
    a shard's postmortem shows what it was serving when it died.
    """
    endpoint = WorkerEndpoint(connection)
    framework = None
    while True:
        try:
            message = endpoint.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        command = message[0]
        if _flight.enabled():
            _flight.record("command", command=command)
        if command == "close":
            endpoint.send_ok(None)
            break
        try:
            if command == "init":
                spec, checkpoint_path = message[1], message[2]
                obs_cfg = message[3] if len(message) > 3 else None
                if obs_cfg:
                    if obs_cfg.get("label"):
                        _trace.set_process_label(obs_cfg["label"])
                    if obs_cfg.get("flight_ring"):
                        _flight.attach_file(obs_cfg["flight_ring"])
                framework = build_inference_framework(spec)
                if checkpoint_path is not None:
                    from repro.marl.checkpoint import load_checkpoint

                    load_checkpoint(
                        framework, checkpoint_path, weights_only=True
                    )
                # Warm the compiled programs so the first batch is fast.
                obs = np.zeros(
                    (framework.env.n_agents, framework.env.observation_size)
                )
                framework.actors.rows_probabilities(
                    obs, np.arange(framework.env.n_agents)
                )
                reply = None
            elif command == "load":
                if framework is None:
                    raise RuntimeError("'load' before 'init'")
                from repro.marl.checkpoint import load_checkpoint

                load_checkpoint(framework, message[1], weights_only=True)
                reply = None
            elif command == "infer":
                if framework is None:
                    raise RuntimeError("'infer' before 'init'")
                observations, agents = message[1], message[2]
                ctx = message[3] if len(message) > 3 else None
                if ctx is not None:
                    if _obs.enabled() != bool(ctx.get("telemetry")):
                        _obs.set_enabled(bool(ctx.get("telemetry")))
                    _trace.adopt(ctx.get("trace"))
                with _obs.span("serving.shard_eval"):
                    reply = framework.actors.rows_probabilities(
                        observations, agents
                    )
            elif command == "ping":
                reply = "pong"
            elif command == "clock":
                reply = _trace.raw_now_us()
            elif command == "clock_set":
                _trace.set_clock_offset_us(message[1])
                reply = None
            else:
                raise RuntimeError(f"unknown serving command {command!r}")
        except Exception:  # noqa: BLE001 — ship any failure to the parent
            if _flight.enabled():
                _flight.record("command_error", command=command)
            endpoint.send_error(traceback.format_exc())
        else:
            endpoint.send_ok(reply)
    endpoint.close()


class _ShardHandle:
    """Parent-side record of one serving worker: process + channel."""

    def __init__(self, context, spec, name):
        self.context = context
        self.spec = spec
        self.name = name
        self.checkpoint_path = None
        self.process = None
        self.channel = None
        self.restarts = 0
        self.flight_ring = None

    def start(self):
        parent_end, child_end = self.context.Pipe()
        self.process = self.context.Process(
            target=serving_worker_main, args=(child_end,), daemon=True,
            name=self.name,
        )
        self.process.start()
        child_end.close()
        self.channel = PipeChannel(self.process, parent_end)
        obs_cfg = {"label": self.name}
        if _flight.enabled() and _flight.dump_dir() is not None:
            self.flight_ring = os.path.join(
                _flight.dump_dir(), f"{self.name}.ring"
            )
            obs_cfg["flight_ring"] = self.flight_ring
        self.channel.send(("init", self.spec, self.checkpoint_path, obs_cfg))
        self.channel.recv()
        # Clock-alignment handshake (same protocol as rollout workers).
        t0 = _trace.now_us()
        self.channel.send(("clock",))
        worker_now = self.channel.recv()
        t1 = _trace.now_us()
        self.channel.send(
            ("clock_set", _trace.compute_clock_offset(t0, t1, worker_now))
        )
        self.channel.recv()

    def restart(self):
        """Replace a dead shard, dumping a postmortem of its last moments."""
        if _flight.enabled():
            worker_events = None
            if self.flight_ring is not None:
                worker_events = _flight.read_file(self.flight_ring)
            _flight.record(
                "serving_restart", worker=self.name,
                restarts=self.restarts + 1,
            )
            _flight.dump(
                "serving-worker-restart",
                extra={"worker": self.name, "restarts": self.restarts + 1},
                worker_events=worker_events,
            )
        self.terminate()
        self.restarts += 1
        self.start()

    def terminate(self):
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


class ShardedPolicyEngine:
    """Fan micro-batches across worker processes; same interface as
    :class:`~repro.serving.engine.PolicyEngine`.

    Args:
        spec: :class:`~repro.serving.engine.FrameworkSpec` every shard
            builds from.
        checkpoint_path: Optional checkpoint loaded into every shard at
            startup.
        n_workers: Shard process count.
        sample_seed: Seed for the parent-owned sampling stream.
        start_method: Multiprocessing start method override.
    """

    def __init__(self, spec, checkpoint_path=None, n_workers=2,
                 sample_seed=0, start_method=None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.spec = spec
        self.generation = 0
        self.checkpoint_path = None
        self._sample_rng = np.random.default_rng(sample_seed)
        self._closed = False
        context = multiprocessing.get_context(
            start_method if start_method is not None else _default_start_method()
        )
        self._workers = [
            _ShardHandle(context, spec, name=f"repro-serving-{w}")
            for w in range(n_workers)
        ]
        try:
            for worker in self._workers:
                worker.start()
            if checkpoint_path is not None:
                self.load(checkpoint_path)
        except Exception:
            self.close()
            raise

    @property
    def n_workers(self):
        return len(self._workers)

    @property
    def total_restarts(self):
        """Crash-recovery count across the pool (diagnostics)."""
        return sum(w.restarts for w in self._workers)

    @staticmethod
    def _send(worker, command):
        """Send one command, restarting a dead worker first if need be."""
        try:
            worker.channel.send(command)
        except WorkerCrashError:
            worker.restart()
            worker.channel.send(command)

    @staticmethod
    def _recv(worker, command):
        """Await ``command``'s reply, replaying it on a restarted worker if
        this one died before answering."""
        try:
            return worker.channel.recv()
        except WorkerCrashError:
            worker.restart()
            worker.channel.send(command)
            return worker.channel.recv()

    def _exchange(self, worker, command):
        """Send one command with restart-and-replay crash recovery."""
        self._send(worker, command)
        return self._recv(worker, command)

    def load(self, path):
        """Broadcast a checkpoint to every shard; bumps the generation.

        All shards answer before the generation flips, so no mixed-weights
        batch can be served — a batch is either fully old or fully new.
        """
        for worker in self._workers:
            worker.checkpoint_path = path
            self._exchange(worker, ("load", path))
        self.checkpoint_path = path
        self.generation += 1

    def infer(self, observations, agents):
        """``(R, A)`` probabilities assembled from per-shard blocks.

        Every shard's reply is received before a shard's error is raised:
        a reply left in its pipe would answer the next batch's rows.
        """
        observations = np.asarray(observations, dtype=np.float64)
        agents = np.asarray(agents, dtype=np.int64)
        rows = observations.shape[0]
        n_shards = min(len(self._workers), max(rows, 1))
        splits = np.array_split(np.arange(rows), n_shards)
        # Workers mirror the parent's telemetry flag per command and join
        # its trace: shard evaluation spans parent to the span issuing
        # this infer (the batcher's batch span).
        ctx = {
            "telemetry": _obs.enabled(),
            "trace": _trace.propagation_context(),
        }
        commands = [
            ("infer", observations[rows_idx], agents[rows_idx], ctx)
            for rows_idx in splits
        ]
        for worker, command in zip(self._workers, commands):
            self._send(worker, command)
        blocks, error = [], None
        for worker, command in zip(self._workers, commands):
            try:
                blocks.append(self._recv(worker, command))
            except (WorkerTaskError, WorkerCrashError) as exc:
                error = error or exc
        if error is not None:
            raise error
        return np.concatenate(blocks, axis=0), self.generation

    def act(self, observations, agents, greedy_mask):
        """``(actions, probs, generation)`` — sampling stays parent-side."""
        probs, generation = self.infer(observations, agents)
        draws = self._sample_rng.random(probs.shape[0])
        return select_actions(probs, greedy_mask, draws), probs, generation

    def ping(self):
        """Round-trip every worker (liveness check)."""
        return [self._exchange(w, ("ping",)) for w in self._workers]

    def close(self):
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
            f"ShardedPolicyEngine(workers={len(self._workers)}, "
            f"generation={self.generation})"
        )
