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
- **Arrivals come in blocks.**  A fixed-length env draws each copy's
  arrivals for up to 64 steps in one call, on the first step the block
  serves; a block never crosses the episode's end, so at every episode
  boundary (and at any reset) each copy's generator stands exactly where
  the serial env's does.  Mid-episode it runs ahead by the unused rest of
  the block.  Envs with data-dependent termination draw one step at a time
  (see :class:`_QueueVectorEnv`).
- **One fused step.**  Each offload family updates its joint queue bank
  in one pass of numpy kernels: no per-copy Python, no per-step
  :class:`~repro.envs.queues.QueueUpdate`, and no defensive copies (a
  reset copies what it overwrites instead).  A step is a fixed count of
  numpy calls whatever ``N``, so at tens of copies it is dispatch-bound.
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

import functools

import numpy as np

from repro.config import SingleHopConfig
from repro.envs.arrivals import UniformArrivals
from repro.envs.multi_hop import MultiHopOffloadEnv
from repro.envs.queues import (
    QueueBank,
    check_flows,
    lost_to_overflow,
    penalty_magnitudes,
)
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


#: Most steps of arrivals a fixed-length copy draws in one call.
_ARRIVAL_BLOCK = 64


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
    ``_apply_actions`` may keep the step counter array ``_t`` it sees:
    :meth:`step` then replaces ``_t`` with a fresh array, so nothing
    writes to the kept one again.
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
            actions: ``(N, n_agents)`` integer action indices (a bool
                array counts as 0/1, as ``bool`` does in the serial envs;
                any other dtype raises ``ValueError``).
        """
        actions = np.asarray(actions)
        if actions.dtype.kind not in "biu":
            raise ValueError(
                f"actions must be integer indices, got dtype {actions.dtype}"
            )
        if actions.shape != (self.n_envs, self.n_agents):
            raise ValueError(
                f"expected actions of shape {(self.n_envs, self.n_agents)}, "
                f"got {actions.shape}"
            )
        actions = actions.astype(np.int64, copy=False)
        # One reduction for both bounds: a negative index viewed as uint64
        # is at least 2**63.
        if actions.view(np.uint64).max() >= self.n_actions:
            raise ValueError(
                f"action indices must lie in [0, {self.n_actions})"
            )
        rewards, stats, info_builder = self._apply_actions(actions)
        self._t = self._t + 1
        dones = self._row_done()
        observations = self._observations()
        states = self._states(observations)
        final_observations, final_states = observations, states
        finished = dones.nonzero()[0]
        if self.auto_reset and finished.size:
            # Snapshot the terminal views before the reset runs: a subclass
            # may hand out views into reused stacked buffers, and the done
            # rows' pre-reset values must survive the re-initialisation.
            final_observations = observations.copy()
            final_states = states.copy()
            observations, states = self.reset_rows(finished)
        return VectorStepResult(
            observations, states, rewards, dones, stats, info_builder,
            final_observations, final_states,
        )


class _QueueVectorEnv(VectorEnv):
    """The stepping both offload families share: one fused update of a
    joint queue bank, and arrivals drawn in blocks.

    The bank's columns are ``[agents | penalised]``: the agents' own queues
    (edges), then the queues the Eq. (1) reward penalises (clouds, or every
    non-agent node).  A family's ``_apply_actions`` builds the pre-clip
    values ``raw = q - u + b`` for all columns — agent outflow plus
    :meth:`_arrivals`, and its routed inflow — and hands them to
    :meth:`_settle`.

    Every per-step array is fresh and never written in place afterwards
    (a reset copies before it writes), so a step result's info builder
    can keep the arrays themselves as its snapshot.

    **Arrival contract.**  Row ``i`` sees exactly the arrival doubles a
    serial env on ``rngs[i]`` would draw, and at every reset its generator
    sits where the serial env's does.  A fixed-length env draws each row's
    arrivals in blocks of at most ``_ARRIVAL_BLOCK`` steps, with one
    :meth:`~repro.envs.arrivals.ArrivalProcess.sample_steps` call.  A block
    is drawn on the first step it serves (never at a reset, whose level
    draw the serial env makes first) and never crosses the episode's end.
    A row reset before its block is used up rewinds its generator to the
    block's start and redraws the steps it served.  Envs with
    data-dependent termination cannot know where an episode ends, so they
    draw one step at a time.
    """

    def _init_queues(self, n_penalised, capacity, initial_level, w_r,
                     service_rate):
        """Build the joint bank and the step's buffers (a family's
        constructor calls this once ``n_agents`` is set).

        Args:
            n_penalised: Number of penalised columns.
            capacity: ``q_max`` of every queue.
            initial_level: As :class:`~repro.envs.queues.QueueBank`.
            w_r: Overflow penalty weight of Eq. (1).
            service_rate: Outflow of every penalised queue per step.
        """
        n = self.n_agents
        self._queues = QueueBank(
            n + n_penalised, capacity, initial_level, n_envs=self.n_envs
        )
        # + 0.0 turns a -0.0 weight into 0.0: a zero overflow penalty must
        # be +0.0, as the serial env's sum of two where() terms gives.
        self._w_r = w_r + 0.0
        # Penalised columns drain at the fixed service rate; each step
        # writes only the agent columns.
        self._outflow = np.full(self._queues.shape, service_rate)
        # The agents' levels of the step before (obs[..., 1] * q_max).
        self._prev_levels = np.zeros((self.n_envs, n))
        # Per-row arrival block: steps [_block_from, _block_to) of the
        # row's episode, held in _arrival_block[row, :to - from].
        self._arrival_block = None
        self._block_from = np.zeros(self.n_envs, dtype=np.int64)
        self._block_to = np.zeros(self.n_envs, dtype=np.int64)
        self._block_states = [None] * self.n_envs
        # True while every row shares its step and its block bounds: then
        # a step reads its arrivals by one basic slice instead of the
        # per-row compare, subtract and gather.
        self._aligned = True
        self._row_index = np.arange(self.n_envs)

    # -- arrivals -------------------------------------------------------------

    def _arrivals(self):
        """``(N, n_agents)`` arrival volumes for the step being applied."""
        if self.has_data_dependent_termination:
            arrivals = self.arrivals.sample_batch(self.rngs, self.n_agents)
            check_flows(arrivals)
            return arrivals
        if self._aligned:
            t = int(self._t[0])
            if t == self._block_to[0]:
                self._draw_blocks(self._row_index)
            return self._arrival_block[:, t - int(self._block_from[0])]
        spent = np.flatnonzero(self._t == self._block_to)
        if spent.size:
            self._draw_blocks(spent)
        return self._arrival_block[self._row_index,
                                   self._t - self._block_from]

    def _draw_blocks(self, rows):
        """Draw the next block of each given row from its generator."""
        n = self.n_agents
        if self._arrival_block is None:
            # Zeros, so that the one check below never reads garbage.
            self._arrival_block = np.zeros(
                (self.n_envs, min(_ARRIVAL_BLOCK, self.episode_limit), n)
            )
        for row in rows.tolist():
            t = int(self._t[row])
            # Past the horizon (auto_reset off) a row draws step by step.
            steps = max(1, min(_ARRIVAL_BLOCK, self.episode_limit - t))
            rng = self.rngs[row]
            self._block_states[row] = rng.bit_generator.state
            self._arrival_block[row, :steps] = self.arrivals.sample_steps(
                rng, steps, n
            )
            self._block_from[row] = t
            self._block_to[row] = t + steps
        check_flows(self._arrival_block)

    def _retire_blocks(self, rows):
        """Retire the blocks of rows about to reset.  A row reset before its
        block is used up goes back to the block's start and redraws the
        steps it served, so its generator stands where a serial env's does
        at that step."""
        if self.has_data_dependent_termination:
            return  # no blocks: every row draws step by step
        t = self._t
        for row in rows[t[rows] < self._block_to[rows]].tolist():
            rng = self.rngs[row]
            rng.bit_generator.state = self._block_states[row]
            served = int(t[row] - self._block_from[row])
            if served:
                self.arrivals.sample_steps(rng, served, self.n_agents)
        self._block_from[rows] = 0
        self._block_to[rows] = 0
        # ``_block_to`` is 0 only on a row at step 0 that has drawn no
        # block, so the rows are back in step once every one is: after a
        # reset of every row (a fixed-length env's episode end).  A
        # partial reset parts them.
        self._aligned = not self._block_to.any()

    # -- dynamics -------------------------------------------------------------

    def _reset_rows(self, rows):
        self._retire_blocks(rows)
        queues = self._queues
        # Copy before writing: the last step's result reads the old arrays.
        # One uniform draw over the joint columns is the serial env's two
        # bank draws (agents, then the rest): the same doubles in order.
        queues.levels = queues.levels.copy()
        for row in rows.tolist():
            queues.reset_row(row, self.rngs[row])
        # A fresh episode's previous level is its first level.
        prev = self._prev_levels.copy()
        prev[rows] = queues.levels[rows, :self.n_agents]
        self._prev_levels = prev

    def _settle(self, raw, penalised_raw):
        """Clip ``raw`` into the bank; returns ``(rewards, stats, levels,
        events)`` with Eq. (1) rewards over the penalised columns
        (``penalised_raw`` is ``raw[:, n_agents:]``), the Fig. 3 stats over
        all of them, and the bank's event masks."""
        n = self.n_agents
        self._prev_levels = self._queues.levels[:, :n]
        levels, events = self._queues.advance(raw)
        empty, overflow = events[:, :, n:]
        # penalty = where(empty, q_tilde, 0) + where(overflow, q_hat * w_r,
        # 0), adding q_tilde only where it is not 0: the same sums.
        q_tilde, q_hat = penalty_magnitudes(
            penalised_raw, self._queues.capacity
        )
        q_hat *= self._w_r
        penalty = np.where(overflow, q_hat, 0.0)
        np.add(penalty, q_tilde, out=penalty, where=empty)
        rewards = -penalty.sum(axis=1)
        if self.has_data_dependent_termination:
            # .any(axis=1) allocates a fresh mask, so the step result
            # never aliases reused storage.
            self.overflow_terminated = overflow.any(axis=1)
        # sum / n_slots is np.mean's own arithmetic.
        n_slots = raw.shape[1]
        empty_ratios, overflow_ratios = events.sum(axis=2) / n_slots
        stats = (levels.sum(axis=1) / n_slots, empty_ratios, overflow_ratios)
        return rewards, stats, levels, events

    def _observations(self):
        """Own level, own previous level, then the observed penalised
        levels, each over ``q_max``: one gather (``_gather``) from the
        joint levels with the previous agent levels appended."""
        scaled = np.concatenate(
            (self._queues.levels, self._prev_levels), axis=1
        )
        scaled /= self._queues.capacity
        return scaled.take(self._gather, axis=1)

    def _set_observed(self, observed):
        """Each agent's observation columns: ``observed[a]`` lists the
        joint-bank columns agent ``a`` sees after its own two levels."""
        n = self.n_agents
        agents = np.arange(n)[:, None]
        self._gather = np.concatenate(
            (agents, agents + self._queues.n_queues, observed), axis=1
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        if not (self._t < self._block_to).any():
            # Every drawn step has been served: no block is live, so none
            # rides a pickle (a sharded worker's reply, say).
            state["_arrival_block"] = None
            state["_block_states"] = [None] * self.n_envs
        return state


class SingleHopVectorEnv(_QueueVectorEnv):
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
        # update is elementwise, so a step is one bank update whose
        # columns hold exactly what the serial env's two banks hold.
        self._init_queues(
            cfg.n_clouds, cfg.queue_capacity, cfg.initial_queue_level,
            cfg.w_r, cfg.cloud_service_rate,
        )
        # Every agent observes every cloud column.
        self._set_observed(np.tile(
            np.arange(cfg.n_agents, cfg.n_agents + cfg.n_clouds),
            (cfg.n_agents, 1),
        ))
        n_amounts = len(cfg.packet_amounts)
        # Action index -> (destination cloud, packet amount).
        self._destination_of = np.arange(cfg.n_actions) // n_amounts
        self._amount_of = np.asarray(cfg.packet_amounts, dtype=np.float64)[
            np.arange(cfg.n_actions) % n_amounts
        ]
        # Row offsets that make (row, cloud) one bincount slot.
        self._cloud_slots = (np.arange(self.n_envs) * cfg.n_clouds)[:, None]

    @property
    def has_data_dependent_termination(self):
        """True when ``terminate_on_overflow`` makes episode length ragged."""
        return self.config.terminate_on_overflow

    def _apply_actions(self, actions):
        cfg = self.config
        n = self.n_agents
        levels = self._queues.levels
        destinations = self._destination_of[actions]
        sent = self._amount_of[actions]
        if cfg.conserve_packets:
            sent = np.minimum(sent, levels[:, :n])
        self._outflow[:, :n] = sent
        raw = levels - self._outflow
        edge_raw = raw[:, :n]
        edge_raw += self._arrivals()
        cloud_raw = raw[:, n:]
        # bincount adds each slot's weights in index order from 0.0, the
        # serial env's np.add.at order: agent by agent.
        cloud_raw += np.bincount(
            (destinations + self._cloud_slots).ravel(),
            weights=sent.ravel(), minlength=cloud_raw.size,
        ).reshape(cloud_raw.shape)

        rewards, stats, new_levels, events = self._settle(raw, cloud_raw)
        return rewards, stats, functools.partial(
            self._build_infos, self._t, raw, new_levels, events,
            destinations, sent,
        )

    def _build_infos(self, t, raw, levels, events, destinations, sent):
        n = self.n_agents
        n_slots = levels.shape[1]
        empty, overflow = events
        excess = lost_to_overflow(raw, levels, overflow)
        # Summed per bank, as the serial env's overflow_amount is.
        cloud_excess = excess[:, n:].sum(axis=1)
        edge_excess = excess[:, :n].sum(axis=1)
        infos = []
        for i in range(self.n_envs):
            row_levels, row_empty = levels[i], empty[i]
            row_overflow = overflow[i]
            infos.append({
                "t": int(t[i]) + 1,
                "cloud_levels": row_levels[n:].copy(),
                "edge_levels": row_levels[:n].copy(),
                "cloud_empty": row_empty[n:].copy(),
                "cloud_overflow": row_overflow[n:].copy(),
                "edge_empty": row_empty[:n].copy(),
                "edge_overflow": row_overflow[:n].copy(),
                "mean_queue": float(row_levels.mean()),
                "empty_ratio": float(row_empty.sum() / n_slots),
                "overflow_ratio": float(row_overflow.sum() / n_slots),
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


class MultiHopVectorEnv(_QueueVectorEnv):
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

        n = self.n_agents
        n_network = len(template._non_agent_nodes)
        # One bank over the joint columns ``[agent | network]`` (see
        # SingleHopVectorEnv): one bank update per env step.
        self._init_queues(
            n_network, template.queue_capacity,
            template._agent_queues.initial_level, template.w_r,
            template.service_rate,
        )
        succ_table = np.array(
            [
                [
                    template._network_index[s]
                    for s in template._successors[node]
                ]
                for node in template.agent_nodes
            ],
            dtype=np.int64,
        )
        # Each agent observes its successors' columns of the joint bank.
        self._set_observed(succ_table + n)
        self._agent_index = np.arange(n)
        n_amounts = len(template.packet_amounts)
        actions = np.arange(self.n_actions)
        # (agent, action index) -> network target, and action -> amount.
        self._target_of = succ_table[:, actions // n_amounts]
        self._amount_of = np.asarray(
            template.packet_amounts, dtype=np.float64
        )[actions % n_amounts]
        # Relay forwarding replayed in the serial env's per-edge order.
        relay_targets, relay_amounts = [], []
        for node in template._non_agent_nodes:
            successors = template._successors[node]
            if successors:
                per_edge = template.service_rate / len(successors)
                for target in successors:
                    relay_targets.append(template._network_index[target])
                    relay_amounts.append(per_edge)
        # One bincount per step adds, per row, the agents' amounts and then
        # the relay constants: the serial env's accumulation order.  The
        # relay half of both buffers never changes.
        slots = (np.arange(self.n_envs) * n_network)[:, None]
        self._network_slots = slots
        self._inflow_index = np.empty(
            (self.n_envs, n + len(relay_targets)), dtype=np.int64
        )
        self._inflow_index[:, n:] = np.asarray(relay_targets, np.int64) + slots
        self._inflow_weights = np.empty(self._inflow_index.shape)
        self._inflow_weights[:, n:] = relay_amounts

    @property
    def has_data_dependent_termination(self):
        """True when the template env terminates on network overflow."""
        return self._template.terminate_on_overflow

    def _apply_actions(self, actions):
        n = self.n_agents
        levels = self._queues.levels
        scheduled = self._amount_of[actions]
        self._outflow[:, :n] = scheduled
        raw = levels - self._outflow
        agent_raw = raw[:, :n]
        agent_raw += self._arrivals()
        network_raw = raw[:, n:]
        np.add(
            self._target_of[self._agent_index, actions], self._network_slots,
            out=self._inflow_index[:, :n],
        )
        self._inflow_weights[:, :n] = scheduled
        network_raw += np.bincount(
            self._inflow_index.ravel(), weights=self._inflow_weights.ravel(),
            minlength=network_raw.size,
        ).reshape(network_raw.shape)

        rewards, stats, new_levels, events = self._settle(raw, network_raw)
        return rewards, stats, functools.partial(
            self._build_infos, self._t, raw, new_levels, events
        )

    def _build_infos(self, t, raw, levels, events):
        n = self.n_agents
        n_slots = levels.shape[1]
        empty, overflow = events
        excess = lost_to_overflow(raw, levels, overflow)
        # Summed per bank, as the serial env's overflow_amount is.
        agent_excess = excess[:, :n].sum(axis=1)
        network_excess = excess[:, n:].sum(axis=1)
        infos = []
        for i in range(self.n_envs):
            row_levels = levels[i]
            infos.append({
                "t": int(t[i]) + 1,
                "agent_levels": row_levels[:n].copy(),
                "network_levels": row_levels[n:].copy(),
                "mean_queue": float(row_levels.mean()),
                "empty_ratio": float(empty[i].sum() / n_slots),
                "overflow_ratio": float(overflow[i].sum() / n_slots),
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
