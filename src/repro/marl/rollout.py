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

A caller that reads only the per-episode stats (ES fitness, vectorized
evaluation) passes ``transitions=False``: the pass then stages just the
reward column, builds no :class:`~repro.marl.buffer.Episode`, and returns
``None`` in place of the episode list.  Stats, RNG stream positions and the
between-call carry-over are identical either way.

This collector is also the engine each worker of the process-sharded
subsystem runs over its shard (:mod:`repro.marl.parallel`): the worker
substitutes an actor-group adapter whose ``act_batch`` consumes the global
action stream and calls :meth:`VectorRolloutCollector.collect` with its
shard's episode quota; everything else — stepping, stat accounting,
auto-reset carry-over — is exactly this code.  The sharded engine serves
fixed-length envs only, so a worker's quota always ends on the round every
other shard ends on.
"""

from __future__ import annotations

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
#: What a stats-only pass stages: the rewards column alone.
_STATS_DTYPES = (np.float64,)


class RoundState:
    """Mutable loop state of one collection pass.

    Holds the per-copy staging plus the completed output lists.  Staging is
    columnar: ``columns`` holds one ``(n_envs, capacity, ...)`` buffer per
    :class:`Episode` column (``from_arrays`` order), allocated on the first
    round, where row ``i``'s in-flight transitions fill ``[:steps[i]]``;
    next to it sit the Fig. 3 stat accumulators.  A stats-only pass
    (``transitions=False``) stages the rewards column alone and leaves
    ``completed`` empty; ``completed_stats`` counts completions in both
    modes.
    """

    __slots__ = (
        "transitions",
        "columns",
        "queue_sums",
        "empty_sums",
        "overflow_sums",
        "steps",
        "completed",
        "completed_stats",
        "rounds",
    )

    def __init__(self, n_envs, transitions=True):
        self.transitions = bool(transitions)
        self.columns = None
        self.queue_sums = np.zeros(n_envs)
        self.empty_sums = np.zeros(n_envs)
        self.overflow_sums = np.zeros(n_envs)
        self.steps = np.zeros(n_envs, dtype=np.int64)
        self.completed = []
        self.completed_stats = []
        self.rounds = 0


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

    def collect(self, n_episodes, rng, greedy=False, transitions=True):
        """Collect ``n_episodes`` completed episodes; returns ``(episodes, stats)``.

        ``stats`` carries one dict per episode with the same keys and
        accounting as the serial ``rollout_episode``:
        ``total_reward``, ``length``, ``mean_queue``, ``empty_ratio``,
        ``overflow_ratio``.  Episodes are ordered by completion (step, copy
        index); all copies keep stepping until the quota is reached, so a
        final lockstep round may finish more episodes than requested — the
        surplus is discarded deterministically.  With ``transitions=False``
        no transitions are staged and ``episodes`` is ``None``; the stats
        are the same.
        """
        if n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        self._prepare()
        state = RoundState(self.n_envs, transitions)
        self.run_rounds(state, rng, n_episodes, greedy=greedy)
        # Boundary-level accounting: the per-step quantities are already
        # tracked by the loop, so telemetry costs one publish per collect,
        # not per step.  Inside a sharded worker these counters land in the
        # worker's local registry and ride the snapshot reply to the parent.
        if obs.enabled():
            obs.counter("rollout.env_steps").inc(state.rounds)
            obs.counter("rollout.env_rows").inc(state.rounds * self.n_envs)
            obs.counter("rollout.episodes").inc(len(state.completed_stats))
        episodes = state.completed[:n_episodes] if transitions else None
        return episodes, state.completed_stats[:n_episodes]

    def run_rounds(self, state, rng, episode_quota, greedy=False):
        """Advance lockstep rounds until ``state`` holds at least
        ``episode_quota`` completed episodes.

        All copies step every round; completions append in (round, copy
        index) order.
        """
        env = self.vector_env
        # Every copy starts the pass at an episode start (``_prepare``).
        # Fixed-length copies therefore share one staging step and finish
        # together, so a round stages by basic slice; ragged copies keep a
        # step each.
        lockstep = not env.has_data_dependent_termination
        rows = np.arange(env.n_envs)
        result = None
        try:
            while len(state.completed_stats) < episode_quota:
                state.rounds += 1
                actions = self.actors.act_batch(
                    self._observations, rng, greedy=greedy
                )
                result = env.step(actions)
                if state.transitions:
                    values = (
                        self._states, self._observations, actions,
                        result.rewards, result.final_states,
                        result.final_observations, result.dones,
                    )
                else:
                    values = (result.rewards,)
                if state.columns is None:
                    state.columns = self._allocate_columns(
                        values, _STAGING_DTYPES if state.transitions
                        else _STATS_DTYPES,
                    )
                at = (
                    (slice(None), int(state.steps[0])) if lockstep
                    else (rows, state.steps)
                )
                for column, value in zip(state.columns, values):
                    column[at] = value
                state.queue_sums += result.mean_queues
                state.empty_sums += result.empty_ratios
                state.overflow_sums += result.overflow_ratios
                state.steps += 1
                finished = result.dones.nonzero()[0]
                if finished.size:
                    self._finish_rows(state, finished)
                self._observations = result.observations
                self._states = result.states
        finally:
            # Between passes only the last round's done mask matters.
            if result is not None:
                self._fresh[:] = result.dones
        return state

    def _allocate_columns(self, values, dtypes):
        """Staging buffers shaped ``(n_envs, episode_limit, ...)`` after
        the first round's values: every episode ends by ``episode_limit``
        (``VectorEnv._row_done``), so a row never outgrows its buffer."""
        capacity = self.vector_env.episode_limit
        return tuple(
            np.empty(
                (self.n_envs, capacity) + np.shape(value)[1:], dtype=dtype
            )
            for value, dtype in zip(values, dtypes)
        )

    def _finish_rows(self, state, finished):
        """Turn this round's finished rows into stats (and, unless the pass
        is stats-only, episodes), in ascending row order, and restart their
        staging."""
        # Ragged envs end episodes on their own overflow condition; those
        # terminations are the breadcrumbs the flight recorder keeps.  Not
        # ``overflow_ratios``: it also counts edge queues, which end nothing.
        overflowed = self.vector_env.overflow_terminated
        breadcrumbs = overflowed is not None and _flight.enabled()
        for i in finished.tolist():
            length = int(state.steps[i])
            if breadcrumbs and overflowed[i]:
                _flight.record(
                    "overflow_termination", row=i,
                    round=int(state.rounds), length=length,
                )
            if state.transitions:
                # Copies, so episodes own their arrays: the buffers are
                # reused.
                episode = Episode.from_arrays(
                    *(column[i, :length].copy() for column in state.columns)
                )
                state.completed.append(episode)
                total_reward = episode.total_reward
            else:
                # The same pairwise sum Episode.total_reward takes over its
                # copy of this slice, so the value is bit-identical.
                total_reward = float(np.sum(state.columns[0][i, :length]))
            state.completed_stats.append({
                "total_reward": total_reward,
                "length": length,
                "mean_queue": float(state.queue_sums[i] / length),
                "empty_ratio": float(state.empty_sums[i] / length),
                "overflow_ratio": float(state.overflow_sums[i] / length),
            })
        state.queue_sums[finished] = 0.0
        state.empty_sums[finished] = 0.0
        state.overflow_sums[finished] = 0.0
        state.steps[finished] = 0

    def __repr__(self):
        return (
            f"VectorRolloutCollector(n_envs={self.n_envs}, "
            f"n_agents={self.actors.n_agents})"
        )
