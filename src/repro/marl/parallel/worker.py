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

``collect`` commands carry an *absolute* lockstep-round bound.  For
fixed-length envs the parent knows the stopping round a priori and one
``finalize`` command commits the whole pass — the historical single
round-trip.  For ragged envs (data-dependent termination) the stopping
round is a global property no shard can see alone, so the parent probes:
non-final commands advance the shard to the bound and reply only with the
full per-round completion-count history, the worker keeps the pass open
(snapshotting at each probed bound), and the final command commits at the
globally agreed stopping round — rewinding first if the shard speculated
past it.  Absolute bounds plus full count histories make every command
idempotent from the last committed checkpoint, so the parent's
restart-and-replay crash recovery needs no extra cases: a restarted worker
simply re-runs the pass from round zero to the commanded bound.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from repro import obs
from repro.envs.vector import make_vector_env
from repro.marl.actors import categorical_from_draws, check_policy_rows
from repro.marl.rollout import VectorRolloutCollector
from repro.marl.parallel.transport import (
    get_rng_state,
    make_worker_endpoint,
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
        """``(shard, n_agents)`` actions from the global draw block."""
        if greedy:
            # Greedy execution consumes no randomness; delegate wholesale so
            # per-actor greedy support checks behave exactly as in-process.
            return self.actors.act_batch(observations, rng, greedy=True)
        observations = np.asarray(observations, dtype=np.float64)
        probs = self.actors.batch_probabilities(observations)
        check_policy_rows(probs, self.first_row)
        n_rows, n_agents, n_actions = probs.shape
        draws = rng.random(self.n_envs_total * n_agents)
        start = self.first_row * n_agents
        shard_draws = draws[start:start + n_rows * n_agents]
        flat = categorical_from_draws(
            probs.reshape(n_rows * n_agents, n_actions), shard_draws
        )
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
        self._session = None

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

    def _begin_session(self, spec):
        """Open a collection pass from the last committed shard state.

        ``spec["telemetry"]`` mirrors the parent's obs flag into this
        process for the duration of the pass; when set, the worker's
        registry snapshot (reset at commit, so passes never double-count)
        rides the final reply's control payload back for deterministic
        parent-side merging.  ``spec["trace"]`` (when the parent has a
        trace open) joins this process to it: local spans parent to the
        sender's span and export to a per-pid sibling file.
        """
        if obs.enabled() != bool(spec["telemetry"]):
            obs.set_enabled(bool(spec["telemetry"]))
        _trace.adopt(spec.get("trace"))
        self._load_weights(spec["weights"])
        return {
            "rng": rng_from_state(spec["action_rng"]),
            "state": self.collector.begin_rounds(),
            "greedy": bool(spec["greedy"]),
            "snapshot": None,
        }

    def _take_snapshot(self, session):
        session["snapshot"] = {
            "collector": self.collector.snapshot_rounds(session["state"]),
            "action_rng": get_rng_state(session["rng"]),
        }

    def _rewind(self, session):
        """Un-run speculative rounds: back to the last snapshotted bound."""
        snapshot = session["snapshot"]
        self.collector.restore_rounds(snapshot["collector"], session["state"])
        session["rng"] = rng_from_state(snapshot["action_rng"])
        self.vector_env = self.collector.vector_env

    def collect(self, spec):
        """Advance the shard's pass to ``spec["bound"]`` lockstep rounds.

        Non-final commands reply with the pass's full per-round completion
        counts and keep it open; ``spec["finalize"]`` commits at exactly
        the bound and returns episodes, stats, RNG positions, and the
        crash checkpoint.  Bounds are absolute, so a replayed command on a
        freshly restarted worker (no open session) reproduces the dead
        incarnation's trajectory bit-exactly from the committed state.
        """
        session = self._session
        if session is None:
            session = self._session = self._begin_session(spec)
            # Probing passes may be rewound by the eventual finalize;
            # one-shot commits (the fixed-length fast path, or a finalize
            # replayed after a crash) never rewind, so they skip the copy.
            if not spec["finalize"]:
                self._take_snapshot(session)
        state = session["state"]
        bound = int(spec["bound"])
        if bound < state.rounds:
            self._rewind(session)
        elif not spec["finalize"] and state.rounds > 0:
            # The parent is probing further, which proves the stopping
            # round lies past everything run so far — shift the rewind
            # point up before speculating onward.
            self._take_snapshot(session)
        with obs.span("worker.collect"):
            self.collector.run_rounds(
                state, session["rng"], greedy=session["greedy"],
                max_rounds=bound
            )
        if not spec["finalize"]:
            return {"counts": state.counts_per_round()}
        self._session = None
        return self._commit(session, bool(spec["telemetry"]))

    def _commit(self, session, telemetry):
        state = session["state"]
        self.vector_env = self.collector.vector_env
        checkpoint = {
            "vector_env": self.vector_env,
            "carry": self.collector.carry_state(),
        }
        if obs.enabled():
            self.collector.publish_telemetry(state)
        reply = {
            "episodes": state.completed,
            "stats": state.completed_stats,
            "counts": state.counts_per_round(),
            "action_rng": get_rng_state(session["rng"]),
            "row_rngs": [get_rng_state(r) for r in self.vector_env.rngs],
            "checkpoint": checkpoint,
        }
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


def worker_main(connection, transport_info=None):
    """Blocking command loop run inside each worker process.

    ``transport_info`` selects how transition blocks travel back to the
    parent (see :func:`~repro.marl.parallel.transport.make_worker_endpoint`):
    ``None``/pipe replies pickle everything, shm replies publish episode
    blocks through the worker's shared-memory ring while the control
    payload stays on the pipe.

    Besides ``init`` / ``collect`` / ``ping`` / ``close`` the loop answers
    the clock-alignment handshake: ``clock`` replies with this process's
    raw monotonic microseconds and ``clock_set`` installs the offset the
    parent computed from the round trip, after which exported span
    timestamps land on the parent's timeline.  Every command is also
    ringed in the flight recorder, so a postmortem shows what the worker
    was asked to do before it died.
    """
    try:
        endpoint = make_worker_endpoint(connection, transport_info)
    except Exception:  # noqa: BLE001 — e.g. the shm segment vanished
        try:
            connection.send(("error", traceback.format_exc()))
            connection.close()
        except OSError:
            pass
        return
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
