"""Multi-agent environment API.

A deliberately small, explicit protocol in the CTDE mould: agents receive
*local observations* for decentralised execution, while the trainer receives
the *global state* (the ground truth ``s_t`` of the paper) for centralised
criticism.  Rewards are team rewards shared by all agents, matching the
cooperative setting of the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Discrete", "FeatureSpace", "MultiAgentEnv", "StepResult"]


class Discrete:
    """A finite action set ``{0, ..., n-1}``."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("Discrete space needs n >= 1")
        self.n = int(n)

    def sample(self, rng):
        """Uniformly random action index."""
        return int(rng.integers(self.n))

    def contains(self, value):
        """Whether ``value`` is a valid action index."""
        return isinstance(value, (int, np.integer)) and 0 <= int(value) < self.n

    def __eq__(self, other):
        return isinstance(other, Discrete) and other.n == self.n

    def __repr__(self):
        return f"Discrete({self.n})"


class FeatureSpace:
    """A box of real features with elementwise bounds."""

    def __init__(self, low, high, size):
        self.low = float(low)
        self.high = float(high)
        self.size = int(size)
        if self.low >= self.high:
            raise ValueError("low must be < high")

    def contains(self, value, atol=1e-9):
        """Whether a vector lies inside the box (within tolerance)."""
        value = np.asarray(value)
        return (
            value.shape == (self.size,)
            and bool(np.all(value >= self.low - atol))
            and bool(np.all(value <= self.high + atol))
        )

    def __repr__(self):
        return f"FeatureSpace(low={self.low}, high={self.high}, size={self.size})"


class StepResult:
    """The outcome of one environment step.

    Attributes:
        observations: List of per-agent observation vectors.
        state: Global state vector (concatenated observations in the paper).
        reward: Shared team reward.
        done: Episode-termination flag.
        info: Dict of diagnostic statistics for metrics collection.
    """

    __slots__ = ("observations", "state", "reward", "done", "info")

    def __init__(self, observations, state, reward, done, info):
        self.observations = observations
        self.state = state
        self.reward = float(reward)
        self.done = bool(done)
        self.info = info

    def __iter__(self):
        """Allow tuple unpacking: ``obs, state, reward, done, info = result``."""
        return iter(
            (self.observations, self.state, self.reward, self.done, self.info)
        )


class MultiAgentEnv:
    """Protocol for cooperative multi-agent environments.

    Subclasses must set ``n_agents``, ``observation_space``, ``action_space``
    and ``state_size``, and implement :meth:`reset` and :meth:`step`.
    """

    n_agents = 0
    observation_space = None
    action_space = None
    state_size = 0

    #: Whether episodes can end *before* the horizon on a data-dependent
    #: event (e.g. a queue overflow).  The serial and vector engines collect
    #: such ragged envs; the sharded engines and the ES trainer reject them,
    #: since they need every row to end an episode every ``episode_limit``
    #: rounds.  Subclasses with data-dependent termination must override
    #: this (attribute or property) to return True.
    has_data_dependent_termination = False

    def reset(self):
        """Start a new episode; returns ``(observations, state)``."""
        raise NotImplementedError

    def step(self, actions):
        """Advance one step; returns a :class:`StepResult`."""
        raise NotImplementedError

    @property
    def observation_size(self):
        """Per-agent observation dimensionality."""
        return self.observation_space.size

    @property
    def n_actions(self):
        """Per-agent action count."""
        return self.action_space.n

    def validate_actions(self, actions):
        """Raise with a clear message when an action vector is malformed."""
        if len(actions) != self.n_agents:
            raise ValueError(
                f"expected {self.n_agents} actions, got {len(actions)}"
            )
        for i, action in enumerate(actions):
            if not self.action_space.contains(action):
                raise ValueError(
                    f"agent {i} action {action!r} outside {self.action_space}"
                )
