"""Worker-process side of the sharded rollout subsystem.

Each worker owns a contiguous shard of the global ``(N, ...)`` vectorized
state: a :class:`~repro.envs.vector.VectorEnv` over its rows plus a mirrored
copy of the parent's :class:`~repro.marl.actors.ActorGroup`, so the
expensive part of collection — the batched VQC evaluation — runs locally
and in parallel across workers.  The collection loop itself is the
already-tested in-process :class:`~repro.marl.rollout.VectorRolloutCollector`;
the only sharding-specific piece is how actions are sampled.

Determinism contract (why a shard is bit-identical to its rows in-process):

- **Env streams are per row.**  Every global env row keeps its own
  ``numpy.random.Generator``, spawned once by the parent and shipped to
  whichever worker owns the row — shard assignment cannot shift a row's
  draws.
- **Action sampling consumes the *global* stream.**  The in-process engine
  draws one uniform per (copy, agent) row per step from a single shared
  generator.  :class:`ShardActionAdapter` replays that exactly: every worker
  holds an identical replica of the shared stream, draws the full
  ``N_total * n_agents`` block each step, and uses only its shard's slice.
  All replicas advance in lockstep, so worker ``w``'s slice equals the
  block slice the in-process engine would hand those rows — and every
  worker finishes each collect with the same stream position, which the
  parent adopts.

The worker main loop answers ``init`` / ``collect`` / ``ping`` / ``close``
commands (plus a crash-injection hook for the restart tests) and returns a
checkpoint of its full shard state with every committed collect, which is
what makes parent-side crash recovery replay-exact.

A ``collect`` command carries the shard's episode quota, ``ceil(n / N)``
episodes per row, and the worker meets it with one plain
:meth:`~repro.marl.rollout.VectorRolloutCollector.collect`.  The sharded
engine serves fixed-length envs only, so every row completes one episode
every ``episode_limit`` rounds and each shard stops on the same round as
the in-process engine over all ``N`` rows.  A command is a pure function of
the committed checkpoint, so a restarted worker replays it bit-exactly.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from repro import obs
from repro.envs.vector import make_vector_env
from repro.marl.actors import (
    categorical_from_cdf,
    check_policy_rows,
    policy_cdf,
)
from repro.marl.rollout import VectorRolloutCollector
from repro.marl.parallel.transport import (
    WorkerEndpoint,
    get_rng_state,
    rng_from_state,
)
from repro.obs import flight as _flight
from repro.obs import trace as _trace

__all__ = ["ShardActionAdapter", "worker_main"]


class ShardActionAdapter:
    """Act on a shard while consuming the global action-sampling stream.

    Drop-in for the :class:`~repro.marl.actors.ActorGroup` interface the
    vector collector uses (``n_agents`` + ``act_batch``): policy inference
    runs on the wrapped group over the shard's observations only, but the
    uniform draws come from the full ``n_envs_total * n_agents`` block so
    the stream stays bit-aligned with the in-process engine (see the module
    docstring).

    Args:
        actors: The worker's mirrored actor group.
        first_row: Global index of the shard's first env row.
        n_envs_total: Global lockstep copy count ``N``.
    """

    def __init__(self, actors, first_row, n_envs_total):
        self.actors = actors
        self.first_row = int(first_row)
        self.n_envs_total = int(n_envs_total)

    @property
    def n_agents(self):
        """Team size (delegated to the wrapped group)."""
        return self.actors.n_agents

    def act_batch(self, observations, rng, greedy=False):
        """``(shard, n_agents)`` actions from the global draw block.

        A policy row that is not a distribution is reported by its global
        env row on both paths.
        """
        if greedy:
            self.actors.check_greedy_support()
        observations = np.asarray(observations, dtype=np.float64)
        probs = self.actors.batch_probabilities(observations)
        if greedy:
            # Greedy execution consumes no randomness.
            check_policy_rows(probs, self.first_row)
            return np.argmax(probs, axis=2)
        n_rows, n_agents = probs.shape[:2]
        cdf = policy_cdf(probs, self.first_row)
        draws = rng.random(self.n_envs_total * n_agents)
        start = self.first_row * n_agents
        flat = categorical_from_cdf(cdf, draws[start:start + len(cdf)])
        return flat.reshape(n_rows, n_agents)

    def __repr__(self):
        return (
            f"ShardActionAdapter(first_row={self.first_row}, "
            f"n_envs_total={self.n_envs_total})"
        )


class _WorkerState:
    """Everything a worker holds between commands: env shard + actor mirror."""

    def __init__(self, payload):
        self.actors = payload["actors"]
        # Population groups (the ES engine) map env rows to members by
        # *global* row index; tell the mirror where its shard starts.
        if hasattr(self.actors, "set_row_offset"):
            self.actors.set_row_offset(payload["first_row"])
        checkpoint = payload.get("checkpoint")
        if checkpoint is None:
            self.vector_env = make_vector_env(
                payload["env"], len(payload["rngs"]), rngs=payload["rngs"]
            )
        else:
            # Restart path: resume from the exact post-collect state the
            # parent cached — env arrays, row streams, and the collector's
            # carried-over observations — so no draw is repeated or skipped.
            self.vector_env = checkpoint["vector_env"]
        adapter = ShardActionAdapter(
            self.actors, payload["first_row"], payload["n_envs_total"]
        )
        self.collector = VectorRolloutCollector(self.vector_env, adapter)
        if checkpoint is not None:
            self.collector.restore_carry_state(checkpoint["carry"])

    def _load_weights(self, weight_states):
        if weight_states is None:
            return
        if isinstance(weight_states, dict):
            # A group-level broadcast (the ES engine's base-plus-seeds
            # generation payload) instead of per-actor weight dicts; the
            # group reconstructs its member weights locally.
            self.actors.load_broadcast(weight_states)
            return
        for actor, state in zip(self.actors.actors, weight_states):
            if state is not None:
                actor.load_state_dict(state)

    def collect(self, spec):
        """Collect ``spec["quota"]`` episodes over the shard and commit.

        ``spec["telemetry"]`` mirrors the parent's obs flag into this
        process for the duration of the pass; when set, the worker's
        registry snapshot (reset at commit, so passes never double-count)
        rides the reply back for deterministic parent-side merging.
        ``spec["trace"]`` (when the parent has a trace open) joins this
        process to it: local spans parent to the sender's span and export
        to a per-pid sibling file.  The reply carries stats, RNG positions,
        the crash checkpoint and, unless ``spec["transitions"]`` is false
        (a stats-only pass), episodes.
        """
        telemetry = bool(spec["telemetry"])
        if obs.enabled() != telemetry:
            obs.set_enabled(telemetry)
        _trace.adopt(spec.get("trace"))
        self._load_weights(spec["weights"])
        rng = rng_from_state(spec["action_rng"])
        with obs.span("worker.collect"):
            episodes, stats = self.collector.collect(
                spec["quota"], rng, greedy=bool(spec["greedy"]),
                transitions=bool(spec["transitions"]),
            )
        reply = {
            "stats": stats,
            "action_rng": get_rng_state(rng),
            "row_rngs": [get_rng_state(r) for r in self.vector_env.rngs],
            "checkpoint": {
                "vector_env": self.vector_env,
                "carry": self.collector.carry_state(),
            },
        }
        if episodes is not None:
            # A stats-only reply carries no "episodes" key at all.
            reply["episodes"] = episodes
        if telemetry:
            reply["telemetry"] = obs.snapshot(reset=True)
        return reply


def _configure_observability(payload):
    """Apply the init payload's optional observability keys.

    ``label`` names this process's lane in merged timelines; ``flight_ring``
    re-backs the flight recorder with a file ring the *parent* can recover
    after a SIGKILL (a dead process can't dump its own memory ring).
    """
    label = payload.get("label")
    if label:
        _trace.set_process_label(label)
    ring = payload.get("flight_ring")
    if ring:
        _flight.attach_file(ring)


def worker_main(connection):
    """Blocking command loop run inside each worker process.

    Besides ``init`` / ``collect`` / ``ping`` / ``close`` the loop answers
    the clock-alignment handshake: ``clock`` replies with this process's
    raw monotonic microseconds and ``clock_set`` installs the offset the
    parent computed from the round trip, after which exported span
    timestamps land on the parent's timeline.  Every command is also
    ringed in the flight recorder, so a postmortem shows what the worker
    was asked to do before it died.
    """
    endpoint = WorkerEndpoint(connection)
    state = None
    crash_armed = False
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
        if command == "arm_crash":
            # Crash-injection hook for the restart/requeue tests: the *next*
            # command kills the process mid-task, without a reply, exactly
            # like a segfault or OOM kill during collection would.
            crash_armed = True
            endpoint.send_ok(None)
            continue
        if crash_armed:
            os._exit(86)
        try:
            if command == "init":
                _configure_observability(message[1])
                state = _WorkerState(message[1])
                reply = None
            elif command == "collect":
                if state is None:
                    raise RuntimeError("'collect' before 'init'")
                reply = state.collect(message[1])
            elif command == "ping":
                reply = "pong"
            elif command == "clock":
                reply = _trace.raw_now_us()
            elif command == "clock_set":
                _trace.set_clock_offset_us(message[1])
                reply = None
            else:
                raise RuntimeError(f"unknown worker command {command!r}")
        except Exception:  # noqa: BLE001 — ship any failure to the parent
            if _flight.enabled():
                _flight.record("command_error", command=command)
            endpoint.send_error(traceback.format_exc())
        else:
            endpoint.send_ok(reply)
    endpoint.close()
