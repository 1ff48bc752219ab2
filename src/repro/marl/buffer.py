"""Episode-structured experience storage (Algorithm 1's replay ``D``).

The trainer collects whole episodes, then updates from every transition of
the collected batch (Algorithm 1, line 12: "for each timestep t in each
episode in batch D").  Because MAPG's ``y_t log pi`` term is only unbiased
on-policy, the buffer is cleared after each update by default; a bounded
capacity with reuse is available for off-policy experimentation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EPISODE_COLUMNS", "Episode", "TransitionBatch", "RolloutBuffer"]

#: The ordered column attributes of a finished :class:`Episode` — the
#: argument order of :meth:`Episode.from_arrays`.
EPISODE_COLUMNS = (
    "states", "observations", "actions", "rewards",
    "next_states", "next_observations", "dones",
)


class Episode:
    """One complete episode's transitions, stored column-wise.

    Attributes (after :meth:`finish`):
        states: ``(T, state_size)``.
        observations: ``(T, n_agents, obs_size)``.
        actions: ``(T, n_agents)`` integer actions.
        rewards: ``(T,)`` shared team rewards.
        next_states: ``(T, state_size)``.
        next_observations: ``(T, n_agents, obs_size)``.
        dones: ``(T,)`` termination flags (True only at the final step for
            time-limited episodes).
    """

    def __init__(self):
        self._states = []
        self._observations = []
        self._actions = []
        self._rewards = []
        self._next_states = []
        self._next_observations = []
        self._dones = []
        self._finished = False

    def add(self, state, observations, actions, reward, next_state,
            next_observations, done):
        """Append one transition."""
        if self._finished:
            raise RuntimeError("cannot add to a finished episode")
        self._states.append(np.asarray(state, dtype=np.float64))
        self._observations.append(
            np.asarray(observations, dtype=np.float64)
        )
        self._actions.append(np.asarray(actions, dtype=np.int64))
        self._rewards.append(float(reward))
        self._next_states.append(np.asarray(next_state, dtype=np.float64))
        self._next_observations.append(
            np.asarray(next_observations, dtype=np.float64)
        )
        self._dones.append(bool(done))

    def finish(self):
        """Freeze the episode into stacked arrays; returns ``self``.

        The per-step staging lists are dropped afterwards so a finished
        episode carries (and pickles, over the process-sharded workers'
        pipes) only the stacked arrays.
        """
        if self._finished:
            return self
        if not self._states:
            raise ValueError("cannot finish an empty episode")
        self.states = np.stack(self._states)
        self.observations = np.stack(self._observations)
        self.actions = np.stack(self._actions)
        self.rewards = np.asarray(self._rewards)
        self.next_states = np.stack(self._next_states)
        self.next_observations = np.stack(self._next_observations)
        self.dones = np.asarray(self._dones, dtype=bool)
        self._finished = True
        self._states = self._observations = self._actions = None
        self._rewards = self._next_states = self._next_observations = None
        self._dones = None
        return self

    @classmethod
    def from_arrays(cls, states, observations, actions, rewards, next_states,
                    next_observations, dones):
        """Rebuild a finished episode directly from its stacked columns.

        Used by the vectorized collectors to turn their columnar round
        staging into episodes without replaying per-step ``add`` calls;
        the episode keeps the given arrays (when their dtypes already
        match), so pass copies of any buffer that will be reused.
        """
        episode = cls()
        episode.states = np.asarray(states, dtype=np.float64)
        episode.observations = np.asarray(observations, dtype=np.float64)
        episode.actions = np.asarray(actions, dtype=np.int64)
        episode.rewards = np.asarray(rewards, dtype=np.float64)
        episode.next_states = np.asarray(next_states, dtype=np.float64)
        episode.next_observations = np.asarray(
            next_observations, dtype=np.float64
        )
        episode.dones = np.asarray(dones, dtype=bool)
        if episode.rewards.ndim != 1:
            raise ValueError("rewards must be one-dimensional (T,)")
        lengths = {
            array.shape[0] if array.ndim else -1
            for array in (
                episode.states, episode.observations, episode.actions,
                episode.rewards, episode.next_states,
                episode.next_observations, episode.dones,
            )
        }
        if len(lengths) != 1 or episode.rewards.shape[0] < 1:
            raise ValueError(
                f"episode columns disagree on transition count: {lengths}"
            )
        episode._finished = True
        episode._states = episode._observations = episode._actions = None
        episode._rewards = episode._next_states = None
        episode._next_observations = episode._dones = None
        return episode

    @property
    def length(self):
        """Number of transitions."""
        if self._finished:
            return int(self.rewards.shape[0])
        return len(self._rewards)

    @property
    def total_reward(self):
        """Sum of rewards over the episode."""
        if self._finished:
            return float(np.sum(self.rewards))
        return float(np.sum(self._rewards))

    def __len__(self):
        return self.length


class TransitionBatch:
    """All transitions of several episodes, concatenated along time.

    Provides exactly the views the CTDE update needs: the critic sees
    global states; actor ``n`` sees ``observations[:, n]`` and
    ``actions[:, n]``.
    """

    def __init__(self, episodes):
        episodes = list(episodes)
        if not episodes:
            raise ValueError("need at least one episode")
        self.states = np.concatenate([e.states for e in episodes])
        self.observations = np.concatenate([e.observations for e in episodes])
        self.actions = np.concatenate([e.actions for e in episodes])
        self.rewards = np.concatenate([e.rewards for e in episodes])
        self.next_states = np.concatenate([e.next_states for e in episodes])
        self.next_observations = np.concatenate(
            [e.next_observations for e in episodes]
        )
        self.dones = np.concatenate([e.dones for e in episodes])
        self.n_episodes = len(episodes)

    @property
    def size(self):
        """Total transition count."""
        return self.states.shape[0]

    @property
    def n_agents(self):
        """Number of agents per transition."""
        return self.observations.shape[1]

    def agent_observations(self, n):
        """Observations of agent ``n``: ``(size, obs_size)``."""
        return self.observations[:, n, :]

    def agent_actions(self, n):
        """Actions of agent ``n``: ``(size,)``."""
        return self.actions[:, n]

    def __len__(self):
        return self.size


class RolloutBuffer:
    """A bounded store of completed episodes.

    Capacity semantics — explicit because parallel collection lands many
    episodes at once:

    - ``capacity`` counts *episodes*, not transitions.
    - :meth:`add_episode` evicts the oldest stored episode once the cap is
      exceeded (FIFO), which is safe for one-at-a-time serial collection.
    - :meth:`add_episodes` stores a whole batch atomically and *refuses* a
      batch larger than the capacity: silently evicting episodes collected
      in the same epoch would bias the update batch, so that is an error,
      never an eviction.  The trainer sizes its buffer to
      ``max(64, episodes_per_epoch)`` so a full epoch always fits.

    The on-policy trainer clears the buffer each epoch; the cap only
    matters in off-policy experiments.
    """

    def __init__(self, capacity=64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.episodes = []

    def add_episode(self, episode):
        """Store a finished episode (evicting the oldest beyond capacity)."""
        if not getattr(episode, "_finished", False):
            raise ValueError("episode must be finished before storage")
        self.episodes.append(episode)
        if len(self.episodes) > self.capacity:
            self.episodes.pop(0)

    def add_episodes(self, episodes):
        """Store a batch of finished episodes, oldest-first, atomically.

        Raises ``ValueError`` when the batch alone exceeds the capacity —
        same-batch data must never be silently evicted (see the class
        docstring).  Pre-existing episodes may still rotate out FIFO.
        """
        episodes = list(episodes)
        if len(episodes) > self.capacity:
            raise ValueError(
                f"batch of {len(episodes)} episodes exceeds capacity "
                f"{self.capacity}; same-batch eviction is not allowed"
            )
        # Validate the whole batch before storing any of it, so a rejected
        # batch leaves the buffer untouched (atomicity promised above).
        for episode in episodes:
            if not getattr(episode, "_finished", False):
                raise ValueError("episode must be finished before storage")
        for episode in episodes:
            self.add_episode(episode)

    def batch(self):
        """Concatenate everything currently stored."""
        return TransitionBatch(self.episodes)

    def clear(self):
        """Drop all stored episodes (the on-policy reset)."""
        self.episodes.clear()

    @property
    def n_episodes(self):
        """Stored episode count."""
        return len(self.episodes)

    @property
    def n_transitions(self):
        """Total stored transition count."""
        return sum(e.length for e in self.episodes)

    def mean_episode_reward(self):
        """Average total reward across stored episodes."""
        if not self.episodes:
            raise ValueError("buffer is empty")
        return float(np.mean([e.total_reward for e in self.episodes]))

    def __len__(self):
        return len(self.episodes)
