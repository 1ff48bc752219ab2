"""Vectorized episode collection over lockstep environment copies.

:func:`repro.marl.trainer.rollout_episode` is the reference serial
implementation of data collection — one env, one episode, one VQC forward
per agent per step.  This module is its batched counterpart: a
:class:`VectorRolloutCollector` steps a :class:`~repro.envs.vector.VectorEnv`
of ``N`` copies in lockstep, queries the whole team's policies for all
copies with one :meth:`~repro.marl.actors.ActorGroup.act_batch` call per
step, and slices the stacked results back into per-copy
:class:`~repro.marl.buffer.Episode` objects with exactly the Fig. 3 stat
accounting of the serial path (per-episode total reward, mean queue level,
empty ratio, overflow ratio).

Determinism contract:

- With ``N = 1`` and the vector env sharing the serial env's generator
  (:func:`~repro.envs.vector.make_vector_env`), collection is bit-identical
  to repeated ``rollout_episode`` calls: the auto-reset that follows each
  finished episode draws exactly what the next serial ``env.reset()``
  would, and the collector carries the freshly reset state over to the next
  ``collect`` call instead of resetting again.
- With ``N > 1``, runs are deterministic for a fixed seed: action sampling
  consumes one shared stream in (copy, agent) row-major order, and each
  copy's environment draws come from its own child stream.

Episodes complete in (step, copy index) order — for ragged envs
(data-dependent termination) that order is the collection contract: every
copy steps every lockstep round, finished copies restart immediately, and
completions are appended round-by-round in ascending copy order.
Partially collected episodes left in flight when ``collect`` returns are
discarded, and their copies are re-initialised at the start of the next
call.

This collector is also the engine each worker of the process-sharded
subsystem runs over its shard (:mod:`repro.marl.parallel`): the worker
substitutes an actor-group adapter whose ``act_batch`` consumes the global
action stream, and everything else — stepping, stat accounting, auto-reset
carry-over — is exactly this code.  The worker drives the loop through the
round-bounded session API (:meth:`VectorRolloutCollector.begin_rounds` /
:meth:`~VectorRolloutCollector.run_rounds` over a :class:`RoundState`)
because for ragged envs the stopping round is a *global* property the
parent determines across all shards; :meth:`VectorRolloutCollector.collect`
is the same loop with the local episode quota as the stopping rule.
"""

from __future__ import annotations

import copy

import numpy as np

from repro import obs
from repro.marl.buffer import Episode
from repro.obs import flight as _flight

__all__ = ["RoundState", "VectorRolloutCollector"]


#: Episode columns in ``Episode.from_arrays`` order, with their dtypes.
_STAGING_DTYPES = (
    np.float64,  # states
    np.float64,  # observations
    np.int64,  # actions
    np.float64,  # rewards
    np.float64,  # next_states
    np.float64,  # next_observations
    bool,  # dones
)


class RoundState:
    """Mutable loop state of one collection pass, resumable across calls.

    Holds the per-copy staging plus the completed output lists.  Staging is
    columnar: ``columns`` holds one ``(n_envs, capacity, ...)`` buffer per
    :class:`Episode` column (``from_arrays`` order), allocated on the first
    round, where row ``i``'s in-flight transitions fill ``[:steps[i]]``;
    next to it sit the Fig. 3 stat accumulators.  Each completion is tagged
    with the 1-based lockstep round it finished on (``completed_rounds``)
    so the sharded parent can interleave shards back into global (round,
    row) completion order.
    """

    __slots__ = (
        "columns",
        "queue_sums",
        "empty_sums",
        "overflow_sums",
        "steps",
        "completed",
        "completed_stats",
        "completed_rounds",
        "rounds",
    )

    def __init__(self, n_envs):
        self.columns = None
        self.queue_sums = np.zeros(n_envs)
        self.empty_sums = np.zeros(n_envs)
        self.overflow_sums = np.zeros(n_envs)
        self.steps = np.zeros(n_envs, dtype=np.int64)
        self.completed = []
        self.completed_stats = []
        self.completed_rounds = []
        self.rounds = 0

    def counts_per_round(self):
        """Completion counts for rounds ``1..rounds`` as a plain list."""
        counts = [0] * self.rounds
        for round_index in self.completed_rounds:
            counts[round_index - 1] += 1
        return counts


class VectorRolloutCollector:
    """Collects completed episodes from lockstep environment copies.

    Args:
        vector_env: A :class:`~repro.envs.vector.VectorEnv` with
            ``auto_reset`` enabled.
        actors: An :class:`~repro.marl.actors.ActorGroup` with one policy
            per agent.
    """

    def __init__(self, vector_env, actors):
        if not vector_env.auto_reset:
            raise ValueError("VectorRolloutCollector needs auto_reset=True")
        if vector_env.n_agents != actors.n_agents:
            raise ValueError(
                f"env has {vector_env.n_agents} agents, group has "
                f"{actors.n_agents}"
            )
        self.vector_env = vector_env
        self.actors = actors
        # Ragged envs end episodes on data-dependent overflow events; those
        # terminations are the breadcrumbs the flight recorder keeps.
        self._ragged = bool(
            getattr(vector_env, "has_data_dependent_termination", False)
        )
        self._observations = None
        self._states = None
        # True where the copy sits at an unconsumed fresh episode start
        # (left there by auto-reset); False where it is mid-episode.
        self._fresh = np.zeros(vector_env.n_envs, dtype=bool)

    @property
    def n_envs(self):
        """Number of lockstep copies."""
        return self.vector_env.n_envs

    def carry_state(self):
        """The between-collect carry-over, as a dict.

        Everything :meth:`collect` holds across calls besides the vector
        env itself: the current observations/states and the fresh-row mask.
        Supported contract for the process-sharded subsystem's crash
        checkpoints — pair with :meth:`restore_carry_state` on a collector
        wrapping the same (restored) vector env to resume without repeating
        or skipping a single draw.
        """
        return {
            "observations": self._observations,
            "states": self._states,
            "fresh": self._fresh.copy(),
        }

    def restore_carry_state(self, state):
        """Adopt a carry-over previously captured by :meth:`carry_state`."""
        self._observations = state["observations"]
        self._states = state["states"]
        self._fresh = state["fresh"].copy()

    def _prepare(self):
        """Ensure every copy is at an episode start before collecting."""
        if self._observations is None:
            self._observations, self._states = self.vector_env.reset()
            self._fresh[:] = True
            return
        stale = np.flatnonzero(~self._fresh)
        if stale.size:
            self._observations, self._states = self.vector_env.reset_rows(
                stale
            )
            self._fresh[stale] = True

    def collect(self, n_episodes, rng, greedy=False):
        """Collect ``n_episodes`` completed episodes; returns ``(episodes, stats)``.

        ``stats`` carries one dict per episode with the same keys and
        accounting as the serial ``rollout_episode``:
        ``total_reward``, ``length``, ``mean_queue``, ``empty_ratio``,
        ``overflow_ratio``.  Episodes are ordered by completion (step, copy
        index); all copies keep stepping until the quota is reached, so a
        final lockstep round may finish more episodes than requested — the
        surplus is discarded deterministically.
        """
        if n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        state = self.begin_rounds()
        self.run_rounds(state, rng, greedy=greedy, episode_quota=n_episodes)
        # Boundary-level accounting: the per-step quantities are already
        # tracked by the loop, so telemetry costs one publish per collect,
        # not per step.  Inside a sharded worker these counters land in the
        # worker's local registry and ride the snapshot reply to the parent.
        if obs.enabled():
            self.publish_telemetry(state)
        return state.completed[:n_episodes], state.completed_stats[:n_episodes]

    # -- round-bounded session API (the sharded ragged protocol) --------------

    def begin_rounds(self):
        """Start a collection pass: prepare all rows, return a fresh state.

        After :meth:`_prepare` every copy sits at an episode start, so the
        returned :class:`RoundState` (empty staging, zeroed accumulators)
        describes the loop exactly — which is what makes
        :meth:`snapshot_rounds` / :meth:`restore_rounds` sufficient for
        replaying the pass from any captured point.
        """
        self._prepare()
        return RoundState(self.vector_env.n_envs)

    def run_rounds(self, state, rng, greedy=False, *, max_rounds=None,
                   episode_quota=None):
        """Advance lockstep rounds, accumulating completions into ``state``.

        Stops before the first round that would exceed ``max_rounds``
        (absolute, counted from the pass start) or once ``state`` holds at
        least ``episode_quota`` completed episodes — whichever stopping
        rule is given; both may be combined.  All copies step every round;
        completions append in (round, copy index) order.
        """
        env = self.vector_env
        rows = np.arange(env.n_envs)
        while True:
            if max_rounds is not None and state.rounds >= max_rounds:
                break
            if (episode_quota is not None
                    and len(state.completed) >= episode_quota):
                break
            state.rounds += 1
            actions = self.actors.act_batch(
                self._observations, rng, greedy=greedy
            )
            result = env.step(actions)
            values = (
                self._states, self._observations, actions, result.rewards,
                result.final_states, result.final_observations, result.dones,
            )
            if state.columns is None:
                state.columns = self._allocate_columns(values)
            for column, value in zip(state.columns, values):
                column[rows, state.steps] = value
            state.queue_sums += result.mean_queues
            state.empty_sums += result.empty_ratios
            state.overflow_sums += result.overflow_ratios
            state.steps += 1
            self._fresh[:] = result.dones
            finished = np.flatnonzero(result.dones)
            if finished.size:
                self._finish_rows(state, finished, result)
            self._observations = result.observations
            self._states = result.states
        return state

    def _allocate_columns(self, values):
        """Staging buffers shaped ``(n_envs, episode_limit, ...)`` after
        the first round's values: every episode ends by ``episode_limit``
        (``VectorEnv._row_done``), so a row never outgrows its buffer."""
        capacity = self.vector_env.episode_limit
        return tuple(
            np.empty(
                (self.n_envs, capacity) + np.shape(value)[1:], dtype=dtype
            )
            for value, dtype in zip(values, _STAGING_DTYPES)
        )

    def _finish_rows(self, state, finished, result):
        """Turn this round's finished rows into episodes and stats, in
        ascending row order, and restart their staging."""
        for i in finished.tolist():
            length = int(state.steps[i])
            if (self._ragged and _flight.enabled()
                    and result.overflow_ratios[i] > 0.0):
                _flight.record(
                    "overflow_termination", row=i,
                    round=int(state.rounds), length=length,
                )
            # Copies, so episodes own their arrays: the buffers are reused.
            episode = Episode.from_arrays(
                *(column[i, :length].copy() for column in state.columns)
            )
            state.completed.append(episode)
            state.completed_stats.append({
                "total_reward": episode.total_reward,
                "length": length,
                "mean_queue": float(state.queue_sums[i] / length),
                "empty_ratio": float(state.empty_sums[i] / length),
                "overflow_ratio": float(state.overflow_sums[i] / length),
            })
            state.completed_rounds.append(state.rounds)
        state.queue_sums[finished] = 0.0
        state.empty_sums[finished] = 0.0
        state.overflow_sums[finished] = 0.0
        state.steps[finished] = 0

    def snapshot_rounds(self, state):
        """Deep-copied resume point of a running pass.

        Captures everything :meth:`restore_rounds` needs to rewind the
        collector to this exact round: the vector env (queues, step
        counters, row generators), the between-round carry, the per-copy
        staging, and how much of the completed output existed.  The
        sharded ragged protocol uses this to un-run speculative rounds
        when the globally agreed stopping round turns out to be earlier
        than a worker's probed bound.
        """
        return copy.deepcopy({
            "vector_env": self.vector_env,
            "carry": self.carry_state(),
            "staging": {
                "columns": state.columns,
                "queue_sums": state.queue_sums,
                "empty_sums": state.empty_sums,
                "overflow_sums": state.overflow_sums,
                "steps": state.steps,
            },
            "rounds": state.rounds,
            "n_completed": len(state.completed),
        })

    def restore_rounds(self, snapshot, state):
        """Rewind the collector and ``state`` to a :meth:`snapshot_rounds` point.

        Adopts the snapshot's objects directly (single-use: take a fresh
        snapshot if another rewind to the same point could follow) and
        truncates the completed lists back to the captured length.
        """
        self.vector_env = snapshot["vector_env"]
        self.restore_carry_state(snapshot["carry"])
        staging = snapshot["staging"]
        state.columns = staging["columns"]
        state.queue_sums = staging["queue_sums"]
        state.empty_sums = staging["empty_sums"]
        state.overflow_sums = staging["overflow_sums"]
        state.steps = staging["steps"]
        n_completed = snapshot["n_completed"]
        del state.completed[n_completed:]
        del state.completed_stats[n_completed:]
        del state.completed_rounds[n_completed:]
        state.rounds = snapshot["rounds"]

    def publish_telemetry(self, state):
        """One rollout-counter publish for a finished pass."""
        obs.counter("rollout.env_steps").inc(state.rounds)
        obs.counter("rollout.env_rows").inc(state.rounds * self.n_envs)
        obs.counter("rollout.episodes").inc(len(state.completed))

    def __repr__(self):
        return (
            f"VectorRolloutCollector(n_envs={self.n_envs}, "
            f"n_agents={self.actors.n_agents})"
        )
