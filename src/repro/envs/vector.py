"""Vectorized environments: N lockstep copies over stacked numpy state.

The serial environments (:mod:`repro.envs.single_hop`,
:mod:`repro.envs.multi_hop`) step one episode at a time, which leaves the
batched statevector simulator running at batch size ``n_agents`` during data
collection.  A :class:`VectorEnv` instead holds the state of ``N``
environment copies as stacked arrays — queue levels ``(N, n_queues)``,
observations ``(N, n_agents, obs_size)``, global states ``(N, state_size)``
— and advances all copies with one batched kernel call per step.  Combined
with :meth:`repro.marl.actors.ActorGroup.act_batch` this turns each rollout
step into a single ``(N * n_agents)``-row circuit evaluation.

Design contract (pinned by ``tests/test_vector_env.py``):

- **The serial envs are ground truth.**  Each environment copy owns its own
  ``numpy.random.Generator``; arrivals and uniform queue initialisation are
  drawn per copy in the same order a serial env would draw them, and all
  queue arithmetic is elementwise.  Row ``i`` of a ``VectorEnv`` is
  therefore *bit-identical*, step for step, to an independent serial env
  seeded with the same stream.
- **Auto-reset.**  With ``auto_reset=True`` (the default) a copy that
  finishes its episode is immediately re-initialised from its own
  generator; the :class:`VectorStepResult` carries both the terminal
  (``final_observations`` / ``final_states``) and the freshly reset
  (``observations`` / ``states``) views so rollout collectors can store the
  true terminal transition while continuing without a pause.  The terminal
  views are snapshotted *before* the reset runs, so they stay valid even if
  a subclass hands out views into reused stacked buffers.
- **Ragged episodes.**  Termination is per row: :meth:`VectorEnv.step`
  asks the :meth:`VectorEnv._row_done` hook for an ``(N,)`` mask after
  advancing the step counters: the fixed-horizon check, OR the
  ``overflow_terminated`` mask that subclasses with data-dependent
  termination (``terminate_on_overflow``) stash each step.  Those
  subclasses advertise it via ``has_data_dependent_termination`` so the
  rollout engines can switch from lockstep to ragged accounting.  Every
  row keeps stepping every round (finished rows restart immediately under
  auto-reset), which keeps the one-batched-call-per-step shape and the
  per-row RNG streams intact regardless of how lengths vary.

Use :func:`make_vector_env` to vectorize an existing serial env: row 0
reuses the serial env's generator (so an ``N=1`` vector rollout consumes
the exact stream the serial rollout would), and rows ``1..N-1`` get
independent child streams spawned from it.
"""

from __future__ import annotations

import numpy as np

from repro.config import SingleHopConfig
from repro.envs.arrivals import UniformArrivals
from repro.envs.multi_hop import MultiHopOffloadEnv
from repro.envs.queues import QueueBank
from repro.envs.single_hop import SingleHopOffloadEnv

__all__ = [
    "VectorStepResult",
    "VectorEnv",
    "SingleHopVectorEnv",
    "MultiHopVectorEnv",
    "make_vector_env",
]


class VectorStepResult:
    """The outcome of one lockstep vector step.

    Attributes:
        observations: ``(N, n_agents, obs_size)`` — the observations to act
            on next (rows finished this step are already reset).
        states: ``(N, state_size)`` global states matching ``observations``.
        rewards: ``(N,)`` shared team rewards.
        dones: ``(N,)`` episode-termination flags.
        mean_queues / empty_ratios / overflow_ratios: ``(N,)`` vectorized
            Fig. 3 stat scalars (the hot-path subset of ``infos``, computed
            without any per-env python work).
        infos: List of ``N`` per-env diagnostic dicts (identical keys and
            values to the serial env's ``StepResult.info``).  Built lazily
            on first access — rollout collection never pays for them.
        final_observations: ``(N, n_agents, obs_size)`` pre-reset terminal
            observations (equal to ``observations`` on rows that did not
            finish).
        final_states: ``(N, state_size)`` pre-reset global states.
    """

    __slots__ = (
        "observations",
        "states",
        "rewards",
        "dones",
        "mean_queues",
        "empty_ratios",
        "overflow_ratios",
        "final_observations",
        "final_states",
        "_infos",
        "_info_builder",
    )

    def __init__(self, observations, states, rewards, dones, stats,
                 info_builder, final_observations, final_states):
        self.observations = observations
        self.states = states
        self.rewards = rewards
        self.dones = dones
        self.mean_queues, self.empty_ratios, self.overflow_ratios = stats
        self.final_observations = final_observations
        self.final_states = final_states
        self._infos = None
        self._info_builder = info_builder

    @property
    def infos(self):
        """Per-env serial-parity info dicts (materialised on demand).

        The builder's inputs are snapshotted at step time (the
        ``_apply_actions`` contract), so reading ``infos`` after further
        ``step()`` / ``reset_rows()`` calls still returns *this* step's
        values.  The builder reference is dropped after the first access so
        the captured per-step arrays can be freed once materialised.
        """
        if self._infos is None:
            builder, self._info_builder = self._info_builder, None
            self._infos = builder()
        return self._infos

    def __iter__(self):
        """Allow ``obs, states, rewards, dones, infos = result`` unpacking."""
        return iter(
            (self.observations, self.states, self.rewards, self.dones,
             self.infos)
        )


def _joint_rewards_and_stats(update, n_agents, w_r):
    """Eq. (1) rewards over the penalised columns ``n_agents:`` of a joint
    ``QueueUpdate`` (clouds, or every non-agent node), and the vectorized
    Fig. 3 stats over all of its columns."""
    penalised = slice(n_agents, None)
    empty_penalty = np.where(
        update.empty[:, penalised], update.q_tilde[:, penalised], 0.0
    )
    overflow_penalty = np.where(
        update.overflow[:, penalised], update.q_hat[:, penalised] * w_r, 0.0
    )
    rewards = -np.sum(empty_penalty + overflow_penalty, axis=1)
    n_slots = update.levels.shape[1]
    stats = (
        update.levels.mean(axis=1),
        update.empty.sum(axis=1) / n_slots,
        update.overflow.sum(axis=1) / n_slots,
    )
    return rewards, stats


class VectorEnv:
    """N lockstep environment copies sharing one configuration.

    Subclasses own the stacked dynamics and implement three hooks:
    ``_reset_rows(rows)`` (re-initialise the given copies, drawing from
    each copy's own generator), ``_apply_actions(actions)`` (advance the
    stacked state one step; returns ``(rewards, stats, info_builder)``
    where ``stats`` is the vectorized ``(mean_queues, empty_ratios,
    overflow_ratios)`` triple and ``info_builder`` lazily materialises the
    serial-parity per-env info dicts — the builder must close over
    *snapshots* taken during the step, never over live stacked state, so
    ``VectorStepResult.infos`` stays correct after later steps or resets)
    and ``_observations()`` (stacked ``(N, n_agents, obs_size)`` views).
    Subclasses with data-dependent termination additionally set
    :attr:`overflow_terminated` in ``_apply_actions`` and advertise
    themselves via ``has_data_dependent_termination``.

    Args:
        n_envs: Number of lockstep copies.
        rngs: One ``numpy.random.Generator`` per copy (fresh unseeded
            generators when omitted).
        auto_reset: Re-initialise a copy the moment its episode ends.
    """

    n_agents = 0
    n_actions = 0
    observation_size = 0
    state_size = 0
    episode_limit = 0
    #: Mirrors :attr:`repro.envs.base.MultiAgentEnv.has_data_dependent_termination`.
    has_data_dependent_termination = False
    #: ``(N,)`` mask of the rows whose own overflow condition ended the
    #: episode on the last step (``None`` when only the horizon ends one).
    #: A fresh array each step, never a view into reused storage.
    overflow_terminated = None

    def __init__(self, n_envs, rngs=None, auto_reset=True):
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        self.n_envs = int(n_envs)
        if rngs is None:
            rngs = [np.random.default_rng() for _ in range(self.n_envs)]
        rngs = list(rngs)
        if len(rngs) != self.n_envs:
            raise ValueError(
                f"need {self.n_envs} generators, got {len(rngs)}"
            )
        self.rngs = rngs
        self.auto_reset = bool(auto_reset)
        self._t = np.zeros(self.n_envs, dtype=np.int64)

    # -- subclass hooks -------------------------------------------------------

    def _reset_rows(self, rows):
        raise NotImplementedError

    def _apply_actions(self, actions):
        raise NotImplementedError

    def _observations(self):
        raise NotImplementedError

    def _states(self, observations):
        """Global state per copy = concatenated agent observations."""
        return observations.reshape(self.n_envs, -1)

    def _row_done(self):
        """``(N,)`` termination mask for the step just applied.

        Called by :meth:`step` after the step counters were advanced: the
        fixed-horizon check, OR :attr:`overflow_terminated` when set.  The
        mask is a *fresh* boolean array each step (never a view into
        reused storage): it outlives the step inside its
        :class:`VectorStepResult`.
        """
        dones = self._t >= self.episode_limit
        if self.overflow_terminated is not None:
            dones |= self.overflow_terminated
        return dones

    # -- protocol -------------------------------------------------------------

    def reset(self):
        """Re-initialise every copy; returns ``(observations, states)``."""
        return self.reset_rows(np.arange(self.n_envs))

    def reset_rows(self, rows):
        """Re-initialise selected copies; returns full ``(observations, states)``."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        self._reset_rows(rows)
        self._t[rows] = 0
        observations = self._observations()
        return observations, self._states(observations)

    def step(self, actions):
        """Advance all copies one step; returns a :class:`VectorStepResult`.

        Args:
            actions: ``(N, n_agents)`` integer action indices.
        """
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (self.n_envs, self.n_agents):
            raise ValueError(
                f"expected actions of shape {(self.n_envs, self.n_agents)}, "
                f"got {actions.shape}"
            )
        if actions.min() < 0 or actions.max() >= self.n_actions:
            raise ValueError(
                f"action indices must lie in [0, {self.n_actions})"
            )
        rewards, stats, info_builder = self._apply_actions(actions)
        self._t += 1
        dones = self._row_done()
        observations = self._observations()
        states = self._states(observations)
        final_observations, final_states = observations, states
        if self.auto_reset and dones.any():
            # Snapshot the terminal views before the reset runs: a subclass
            # may hand out views into reused stacked buffers, and the done
            # rows' pre-reset values must survive the re-initialisation.
            final_observations = observations.copy()
            final_states = states.copy()
            observations, states = self.reset_rows(np.flatnonzero(dones))
        return VectorStepResult(
            observations, states, rewards, dones, stats, info_builder,
            final_observations, final_states,
        )


class SingleHopVectorEnv(VectorEnv):
    """N lockstep copies of the paper's single-hop offloading environment.

    Stacked-state mirror of :class:`~repro.envs.single_hop.SingleHopOffloadEnv`
    — same Table I observations, Eq. (1) reward and Fig. 3 ``info``
    accounting, computed for all copies with batched queue kernels.

    Args:
        n_envs: Number of lockstep copies.
        config: Environment parameters (defaults = Table II).
        rngs: One generator per copy (see :class:`VectorEnv`).
        arrivals: Arrival process shared by all copies (stateless; each
            copy samples from its own generator).
        auto_reset: Re-initialise finished copies immediately.
    """

    def __init__(self, n_envs, config=None, rngs=None, arrivals=None,
                 auto_reset=True):
        super().__init__(n_envs, rngs=rngs, auto_reset=auto_reset)
        self.config = config if config is not None else SingleHopConfig()
        cfg = self.config
        self.arrivals = (
            arrivals
            if arrivals is not None
            else UniformArrivals(cfg.w_p, cfg.queue_capacity)
        )
        self.n_agents = cfg.n_agents
        self.n_clouds = cfg.n_clouds
        self.n_actions = cfg.n_actions
        self.observation_size = cfg.observation_size
        self.state_size = cfg.state_size
        self.episode_limit = cfg.episode_limit

        # One bank over the joint columns ``[edge | cloud]``: every queue
        # update is elementwise, so a step is one QueueBank.step whose
        # columns hold exactly what the serial env's two banks hold.
        self._queues = QueueBank(
            cfg.n_agents + cfg.n_clouds, cfg.queue_capacity,
            cfg.initial_queue_level, n_envs=self.n_envs,
        )
        # Cloud columns drain at the fixed service rate; each step writes
        # only the edge columns.
        self._outflow = np.full(self._queues.shape, cfg.cloud_service_rate)
        self._prev_edge_levels = np.zeros((self.n_envs, self.n_agents))
        self._amounts = np.asarray(cfg.packet_amounts, dtype=np.float64)
        self._env_index = np.arange(self.n_envs)

    @property
    def has_data_dependent_termination(self):
        """True when ``terminate_on_overflow`` makes episode length ragged."""
        return self.config.terminate_on_overflow

    def _reset_rows(self, rows):
        # One uniform draw over [edge | cloud] is the serial env's two
        # draws (edge bank, then clouds): the same doubles in the same order.
        for row in rows:
            self._queues.reset_row(row, self.rngs[row])
        self._prev_edge_levels[rows] = self._queues.levels[rows, :self.n_agents]

    def _observations(self):
        n = self.n_agents
        q_max = self.config.queue_capacity
        levels = self._queues.levels / q_max
        obs = np.empty(
            (self.n_envs, self.n_agents, self.observation_size)
        )
        obs[:, :, 0] = levels[:, :n]
        obs[:, :, 1] = self._prev_edge_levels / q_max
        obs[:, :, 2:] = levels[:, None, n:]
        return obs

    def _apply_actions(self, actions):
        cfg = self.config
        n = self.n_agents
        levels = self._queues.levels
        n_amounts = len(self._amounts)
        destinations = actions // n_amounts
        scheduled = self._amounts[actions % n_amounts]
        if cfg.conserve_packets:
            sent = np.minimum(scheduled, levels[:, :n])
        else:
            sent = scheduled

        inflow = np.empty(self._queues.shape)
        inflow[:, :n] = self.arrivals.sample_batch(self.rngs, n)
        cloud_inflow = inflow[:, n:]
        cloud_inflow[...] = 0.0
        np.add.at(
            cloud_inflow, (self._env_index[:, None], destinations), sent
        )
        self._outflow[:, :n] = sent
        self._prev_edge_levels[...] = levels[:, :n]
        update = self._queues.step(outflow=self._outflow, inflow=inflow)

        rewards, stats = _joint_rewards_and_stats(update, n, cfg.w_r)
        if cfg.terminate_on_overflow:
            # Stash for _row_done; .any(axis=1) allocates a fresh mask, so
            # the step result never aliases reused storage.
            self.overflow_terminated = update.overflow[:, n:].any(axis=1)
        t_next = self._t + 1
        return rewards, stats, (
            lambda: self._build_infos(t_next, update, destinations, sent)
        )

    def _build_infos(self, t_next, update, destinations, sent):
        n = self.n_agents
        n_slots = self._queues.n_queues
        excess = update.overflow_excess
        # Summed per bank, as the serial env's overflow_amount is.
        cloud_excess = excess[:, n:].sum(axis=1)
        edge_excess = excess[:, :n].sum(axis=1)
        infos = []
        for i in range(self.n_envs):
            levels, empty = update.levels[i], update.empty[i]
            overflow = update.overflow[i]
            infos.append({
                "t": int(t_next[i]),
                "cloud_levels": levels[n:].copy(),
                "edge_levels": levels[:n].copy(),
                "cloud_empty": empty[n:].copy(),
                "cloud_overflow": overflow[n:].copy(),
                "edge_empty": empty[:n].copy(),
                "edge_overflow": overflow[:n].copy(),
                "mean_queue": float(levels.mean()),
                "empty_ratio": float(empty.sum() / n_slots),
                "overflow_ratio": float(overflow.sum() / n_slots),
                "overflow_amount": float(cloud_excess[i] + edge_excess[i]),
                "destinations": destinations[i].copy(),
                "sent": sent[i].copy(),
            })
        return infos

    def __repr__(self):
        cfg = self.config
        return (
            f"SingleHopVectorEnv(n_envs={self.n_envs}, K={cfg.n_clouds}, "
            f"N={cfg.n_agents}, |A|={cfg.n_actions}, T={cfg.episode_limit})"
        )


class MultiHopVectorEnv(VectorEnv):
    """N lockstep copies of the layered multi-hop offloading environment.

    Builds one serial :class:`~repro.envs.multi_hop.MultiHopOffloadEnv` as a
    template (reusing its topology validation and node ordering), then runs
    the dynamics over stacked state.  Routing is precomputed into index
    tables so a step is a handful of fancy-indexed array ops; the relay
    forwarding constants are replayed in the serial env's exact edge order
    to keep the floating-point accumulation bit-identical.

    Args:
        n_envs: Number of lockstep copies.
        topology: Layered DAG (see :func:`repro.envs.multi_hop.layered_topology`).
        rngs: One generator per copy.
        auto_reset: Re-initialise finished copies immediately.
        **env_kwargs: Forwarded to :class:`MultiHopOffloadEnv` (packet
            amounts, rates, capacities, episode limit, ...).
    """

    def __init__(self, n_envs, topology, rngs=None, auto_reset=True,
                 **env_kwargs):
        super().__init__(n_envs, rngs=rngs, auto_reset=auto_reset)
        template = MultiHopOffloadEnv(
            topology, rng=np.random.default_rng(0), **env_kwargs
        )
        self._template = template
        self.n_agents = template.n_agents
        self.n_actions = template.action_space.n
        self.observation_size = template.observation_size
        self.state_size = template.state_size
        self.episode_limit = template.episode_limit
        self.arrivals = template.arrivals

        self._amounts = np.asarray(template.packet_amounts, dtype=np.float64)
        self._n_network = len(template._non_agent_nodes)
        self._succ_table = np.array(
            [
                [
                    template._network_index[s]
                    for s in template._successors[node]
                ]
                for node in template.agent_nodes
            ],
            dtype=np.int64,
        )
        # Relay forwarding replayed in the serial env's per-edge order.
        relay_targets, relay_amounts = [], []
        for node in template._non_agent_nodes:
            successors = template._successors[node]
            if successors:
                per_edge = template.service_rate / len(successors)
                for target in successors:
                    relay_targets.append(template._network_index[target])
                    relay_amounts.append(per_edge)
        self._relay_targets = np.asarray(relay_targets, dtype=np.int64)
        self._relay_amounts = np.asarray(relay_amounts, dtype=np.float64)

        # One bank over the joint columns ``[agent | network]`` (see
        # SingleHopVectorEnv): one QueueBank.step per env step.
        self._queues = QueueBank(
            self.n_agents + self._n_network, template.queue_capacity,
            template._agent_queues.initial_level, n_envs=self.n_envs,
        )
        # Network columns drain at the fixed service rate.
        self._outflow = np.full(self._queues.shape, template.service_rate)
        # Observed successor levels, as columns of the joint bank.
        self._succ_columns = self._succ_table + self.n_agents
        self._prev_agent_levels = np.zeros((self.n_envs, self.n_agents))
        self._env_index = np.arange(self.n_envs)
        self._agent_index = np.arange(self.n_agents)

    @property
    def has_data_dependent_termination(self):
        """True when the template env terminates on network overflow."""
        return self._template.terminate_on_overflow

    def _reset_rows(self, rows):
        # One draw over [agent | network] is the serial env's agent-bank
        # then network-bank draws.
        for row in rows:
            self._queues.reset_row(row, self.rngs[row])
        self._prev_agent_levels[rows] = self._queues.levels[rows, :self.n_agents]

    def _observations(self):
        q_max = self._template.queue_capacity
        levels = self._queues.levels / q_max
        obs = np.empty(
            (self.n_envs, self.n_agents, self.observation_size)
        )
        obs[:, :, 0] = levels[:, :self.n_agents]
        obs[:, :, 1] = self._prev_agent_levels / q_max
        obs[:, :, 2:] = levels[:, self._succ_columns]
        return obs

    def _apply_actions(self, actions):
        template = self._template
        n = self.n_agents
        n_amounts = len(self._amounts)
        successor_index = actions // n_amounts
        scheduled = self._amounts[actions % n_amounts]
        targets = self._succ_table[self._agent_index, successor_index]

        inflow = np.empty(self._queues.shape)
        inflow[:, :n] = self.arrivals.sample_batch(self.rngs, n)
        # Match the serial accumulation order exactly: agent contributions
        # first (agent-major), then the relay constants edge by edge.
        network_inflow = inflow[:, n:]
        network_inflow[...] = 0.0
        np.add.at(
            network_inflow, (self._env_index[:, None], targets), scheduled
        )
        np.add.at(
            network_inflow,
            (
                self._env_index[:, None],
                np.broadcast_to(
                    self._relay_targets,
                    (self.n_envs, self._relay_targets.size),
                ),
            ),
            self._relay_amounts,
        )
        self._outflow[:, :n] = scheduled
        self._prev_agent_levels[...] = self._queues.levels[:, :n]
        update = self._queues.step(outflow=self._outflow, inflow=inflow)

        rewards, stats = _joint_rewards_and_stats(update, n, template.w_r)
        if template.terminate_on_overflow:
            self.overflow_terminated = update.overflow[:, n:].any(axis=1)
        t_next = self._t + 1
        return rewards, stats, (
            lambda: self._build_infos(t_next, update)
        )

    def _build_infos(self, t_next, update):
        n = self.n_agents
        n_slots = self._queues.n_queues
        excess = update.overflow_excess
        # Summed per bank, as the serial env's overflow_amount is.
        agent_excess = excess[:, :n].sum(axis=1)
        network_excess = excess[:, n:].sum(axis=1)
        infos = []
        for i in range(self.n_envs):
            levels = update.levels[i]
            infos.append({
                "t": int(t_next[i]),
                "agent_levels": levels[:n].copy(),
                "network_levels": levels[n:].copy(),
                "mean_queue": float(levels.mean()),
                "empty_ratio": float(update.empty[i].sum() / n_slots),
                "overflow_ratio": float(update.overflow[i].sum() / n_slots),
                "overflow_amount": float(agent_excess[i] + network_excess[i]),
            })
        return infos

    def __repr__(self):
        return (
            f"MultiHopVectorEnv(n_envs={self.n_envs}, "
            f"template={self._template!r})"
        )


def _spawn_row_rngs(env_rng, n_envs):
    """Row generators: row 0 shares the serial env's stream, rows 1.. spawn.

    Sharing the serial generator on row 0 makes an ``N=1`` vector rollout
    consume exactly the stream a serial rollout would — the property the
    trainer's serial/vectorized determinism test pins down.
    """
    rngs = [env_rng]
    if n_envs > 1:
        rngs.extend(env_rng.spawn(n_envs - 1))
    return rngs


def make_vector_env(env, n_envs, rngs=None, auto_reset=True):
    """Vectorize a serial environment into ``n_envs`` lockstep copies.

    Args:
        env: A :class:`SingleHopOffloadEnv` or :class:`MultiHopOffloadEnv`
            whose configuration (and arrival process) the copies share.
        n_envs: Number of lockstep copies.
        rngs: Optional per-copy generators.  By default row 0 reuses
            ``env.rng`` (stepping the vector env advances the serial env's
            stream — deliberate, see :func:`_spawn_row_rngs`) and the rest
            are independent children spawned from it.
        auto_reset: Re-initialise finished copies immediately.
    """
    if not isinstance(env, (SingleHopOffloadEnv, MultiHopOffloadEnv)):
        raise TypeError(
            f"cannot vectorize environment of type {type(env).__name__}"
        )
    if rngs is None:
        rngs = _spawn_row_rngs(env.rng, n_envs)
    if isinstance(env, SingleHopOffloadEnv):
        return SingleHopVectorEnv(
            n_envs,
            config=env.config,
            rngs=rngs,
            arrivals=env.arrivals,
            auto_reset=auto_reset,
        )
    return MultiHopVectorEnv(
        n_envs,
        env.topology,
        rngs=rngs,
        auto_reset=auto_reset,
        packet_amounts=env.packet_amounts,
        w_p=env.w_p,
        w_r=env.w_r,
        service_rate=env.service_rate,
        queue_capacity=env.queue_capacity,
        episode_limit=env.episode_limit,
        initial_queue_level=env._agent_queues.initial_level,
        terminate_on_overflow=env.terminate_on_overflow,
    )
