"""The CTDE training loop (Algorithm 1).

One trainer epoch:

1. roll out ``episodes_per_epoch`` episodes with every agent *sampling*
   from its decentralised policy (line 6);
2. form the transition batch ``D`` (line 9);
3. compute TD targets ``y_t`` with the frozen target critic (lines 13-14);
4. descend the critic on ``sum ||y_t||^2`` and every actor on
   ``-sum y_t log pi`` (line 16);
5. periodically sync the target critic (lines 17-19).

The buffer is cleared after each update (MAPG is on-policy; see
:mod:`repro.marl.buffer`).

Collection (step 1) has three interchangeable engines: the serial reference
:func:`rollout_episode` (ground truth, one env at a time), the vectorized
path (``TrainingConfig.rollout_envs`` lockstep env copies + batched policy
inference; see :mod:`repro.envs.vector` and :mod:`repro.marl.rollout`), and
the process-sharded path (``TrainingConfig.rollout_workers`` worker
processes each owning a shard of the lockstep copies, fixed-length envs
only; see :mod:`repro.marl.parallel`).  The chain of determinism
contracts — sharded is bit-identical to vectorized for any worker count,
vectorized with one copy is bit-identical to serial — is pinned by the
regression tests, so every engine produces the same episodes, metrics, and
RNG stream positions under a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.envs.vector import make_vector_env
from repro.marl import mapg
from repro.marl.buffer import Episode, RolloutBuffer
from repro.marl.critics import paired_critic_values
from repro.marl.metrics import MetricsHistory, publish_epoch_record
from repro.marl.parallel import ShardedRolloutCollector
from repro.marl.rollout import VectorRolloutCollector
from repro.nn.optim import Adam, clip_grad_norm, gradient_norm
from repro.obs import flight as _flight

__all__ = ["CTDETrainer", "NonFiniteUpdateError", "rollout_episode"]


class NonFiniteUpdateError(FloatingPointError):
    """A training update computed a non-finite loss or gradient norm.

    Raised before the optimizer step that would apply it, so the weights
    (and any checkpoint saved afterwards) keep their last finite values.
    """

    def __init__(self, epoch, quantity, value):
        super().__init__(
            f"epoch {epoch}: {quantity} is {value!r}; the update stopped "
            f"before its optimizer step"
        )
        self.epoch = epoch
        self.quantity = quantity


def rollout_episode(env, actor_group, rng, greedy=False):
    """Roll out one episode; returns ``(episode, stats)``.

    ``stats`` carries the Fig. 3 quantities averaged over the episode:
    total reward, mean queue level, empty ratio and overflow ratio.
    Standalone so non-trainable policies (the random walk) can be evaluated
    with exactly the same accounting as trained frameworks.
    """
    episode = Episode()
    observations, state = env.reset()
    done = False
    queue_sum = empty_sum = overflow_sum = 0.0
    steps = 0
    while not done:
        actions = actor_group.act(observations, rng, greedy=greedy)
        result = env.step(actions)
        episode.add(
            state,
            observations,
            actions,
            result.reward,
            result.state,
            result.observations,
            result.done,
        )
        queue_sum += result.info["mean_queue"]
        empty_sum += result.info["empty_ratio"]
        overflow_sum += result.info["overflow_ratio"]
        steps += 1
        observations, state = result.observations, result.state
        done = result.done
    episode.finish()
    if obs.enabled():
        obs.counter("rollout.env_steps").inc(steps)
        obs.counter("rollout.env_rows").inc(steps)
        obs.counter("rollout.episodes").inc()
    stats = {
        "total_reward": episode.total_reward,
        "length": steps,
        "mean_queue": queue_sum / steps,
        "empty_ratio": empty_sum / steps,
        "overflow_ratio": overflow_sum / steps,
    }
    return episode, stats


class CTDETrainer:
    """Centralised-training / decentralised-execution actor-critic.

    Args:
        env: A :class:`~repro.envs.base.MultiAgentEnv`.
        actor_group: An :class:`~repro.marl.actors.ActorGroup` (one policy
            per agent).
        critic: Centralised critic ``V_psi``.
        target_critic: Frozen copy ``V_phi`` (same architecture).
        config: :class:`~repro.config.TrainingConfig`.
        rng: Generator for action sampling.
    """

    def __init__(self, env, actor_group, critic, target_critic, config, rng):
        if env.n_agents != actor_group.n_agents:
            raise ValueError(
                f"env has {env.n_agents} agents, group has "
                f"{actor_group.n_agents}"
            )
        self.env = env
        self.actors = actor_group
        self.critic = critic
        self.target_critic = target_critic
        self.config = config
        self.rng = rng
        self.buffer = RolloutBuffer(capacity=max(64, config.episodes_per_epoch))
        self.history = MetricsHistory()
        self.epoch = 0
        # Periodic target syncs performed by train_epoch (the constructor's
        # initial copy is not counted).  Checkpointed alongside the optimizer
        # moments so a resumed run syncs on the same schedule.
        self.target_syncs = 0
        self._collector = None
        self._sharded_collector = None

        actor_params = actor_group.parameters()
        self.actor_optimizer = (
            Adam(actor_params, lr=config.actor_lr) if actor_params else None
        )
        self.critic_optimizer = Adam(critic.parameters(), lr=config.critic_lr)
        self.sync_target()

    # -- rollouts ------------------------------------------------------------

    def sync_target(self):
        """Copy the online critic into the target critic (``phi <- psi``)."""
        self.target_critic.load_state_dict(self.critic.state_dict())

    def collect_episode(self, greedy=False):
        """Roll out one episode with the current policies (serial reference)."""
        return rollout_episode(self.env, self.actors, self.rng, greedy=greedy)

    @property
    def rollout_envs(self):
        """Effective lockstep env copies for epoch collection (the config's
        divisor clamp — see ``TrainingConfig.effective_rollout_envs``)."""
        return self.config.effective_rollout_envs

    @property
    def rollout_workers(self):
        """Effective worker process count for sharded collection (clamped
        to the effective copy count by the config)."""
        return self.config.effective_rollout_workers

    @property
    def sharded_rollouts(self):
        """Whether epoch collection goes through the process-sharded engine."""
        mode = self.config.rollout_mode
        if mode == "sharded":
            return True
        return mode == "auto" and self.rollout_workers > 1

    @property
    def vectorized_rollouts(self):
        """Whether epoch collection goes through the vectorized engine."""
        mode = self.config.rollout_mode
        if mode == "serial" or mode == "sharded":
            return False
        if mode == "vector":
            return True
        return self.rollout_envs > 1 and not self.sharded_rollouts

    def vector_collector(self):
        """The lazily built vectorized collection engine.

        Built once and kept across epochs: copy 0 shares ``self.env``'s
        generator (so one-copy vectorized collection is bit-identical to the
        serial loop) and the auto-reset state carries over between epochs
        exactly like consecutive serial ``env.reset()`` calls.
        """
        if self._collector is None:
            vector_env = make_vector_env(self.env, self.rollout_envs)
            self._collector = VectorRolloutCollector(vector_env, self.actors)
        return self._collector

    def sharded_collector(self):
        """The lazily built process-sharded collection engine.

        Built once and kept across epochs like the in-process collector; the
        worker pool persists between updates and receives the current actor
        weights with every collect.  Shut down via :meth:`close`.
        """
        if self._sharded_collector is None:
            self._sharded_collector = ShardedRolloutCollector(
                self.env,
                self.actors,
                n_envs=self.rollout_envs,
                n_workers=self.rollout_workers,
            )
        return self._sharded_collector

    def collect_episodes(self, n_episodes, greedy=False):
        """Collect ``n_episodes`` episodes; returns ``(episodes, stats)`` lists.

        Dispatches to the process-sharded engine, the vectorized engine, or
        the serial reference loop according to ``TrainingConfig.rollout_mode``.
        """
        if self.sharded_rollouts:
            return self.sharded_collector().collect(
                n_episodes, self.rng, greedy=greedy
            )
        if self.vectorized_rollouts:
            return self.vector_collector().collect(
                n_episodes, self.rng, greedy=greedy
            )
        episodes, all_stats = [], []
        for _ in range(n_episodes):
            episode, stats = self.collect_episode(greedy=greedy)
            episodes.append(episode)
            all_stats.append(stats)
        return episodes, all_stats

    # -- updates ----------------------------------------------------------------

    def update(self, batch):
        """One gradient step on critic and actors from a transition batch.

        Besides the losses, the returned stats carry barren-plateau
        diagnostics: the pre-clip gradient norms of critic and actor team
        and the mean policy entropy.  All are pure functions of the batch,
        so they are bit-identical across collection engines.

        A non-finite loss or pre-clip gradient norm raises
        :class:`NonFiniteUpdateError` before the optimizer step it would
        feed, so NaN never reaches the weights.
        """
        cfg = self.config

        # Critic forward (differentiable) + frozen bootstrap values.  On
        # quantum critic pairs both forwards share one stacked circuit
        # evaluation over the per-sample weight axis (see
        # repro.marl.critics.paired_critic_values).
        with obs.span("trainer.critic"):
            values, next_values = paired_critic_values(
                self.critic, self.target_critic, batch.states,
                batch.next_states,
            )
            targets = mapg.td_targets(
                batch.rewards, next_values, batch.dones, cfg.gamma
            )
            advantages = mapg.td_errors(targets, values.data)

            critic_loss = mapg.critic_loss(values, targets)
            self.critic_optimizer.zero_grad()
            critic_loss.backward()
            if cfg.grad_clip is not None:
                critic_grad_norm = clip_grad_norm(
                    self.critic.parameters(), cfg.grad_clip
                )
            else:
                critic_grad_norm = gradient_norm(self.critic.parameters())
            critic_loss_value = critic_loss.item()
            self._check_finite("critic_loss", critic_loss_value)
            self._check_finite("critic_grad_norm", critic_grad_norm)
            self.critic_optimizer.step()

        actor_loss_value = 0.0
        actor_grad_norm = 0.0
        policy_entropy = 0.0
        if self.actor_optimizer is not None:
            with obs.span("trainer.actor"):
                # One stacked policy evaluation for the whole team (a single
                # batched circuit call + adjoint sweep on quantum groups)
                # instead of sequential per-agent forwards.
                log_probs = self.actors.stacked_log_policies(
                    batch.observations
                )
                flat = np.asarray(log_probs.data, dtype=np.float64).reshape(
                    -1, log_probs.shape[-1]
                )
                policy_entropy = float(
                    -np.mean(np.sum(np.exp(flat) * flat, axis=-1))
                )
                total_loss = mapg.team_actor_loss(
                    log_probs, batch.actions, advantages,
                    entropy_coef=cfg.entropy_coef,
                )
                self.actor_optimizer.zero_grad()
                total_loss.backward()
                if cfg.grad_clip is not None:
                    actor_grad_norm = clip_grad_norm(
                        self.actors.parameters(), cfg.grad_clip
                    )
                else:
                    actor_grad_norm = gradient_norm(self.actors.parameters())
                actor_loss_value = total_loss.item()
                self._check_finite("actor_loss", actor_loss_value)
                self._check_finite("actor_grad_norm", actor_grad_norm)
                self.actor_optimizer.step()

        return {
            "critic_loss": critic_loss_value,
            "actor_loss": actor_loss_value,
            "mean_abs_td_error": float(np.mean(np.abs(advantages))),
            "mean_value": float(np.mean(values.data)),
            "critic_grad_norm": float(critic_grad_norm),
            "actor_grad_norm": float(actor_grad_norm),
            "policy_entropy": policy_entropy,
        }

    def _check_finite(self, quantity, value):
        """Stop the update on a non-finite loss or gradient norm: dump the
        flight recorder and raise :class:`NonFiniteUpdateError` naming the
        epoch being trained and the quantity."""
        if math.isfinite(value):
            return
        epoch = self.epoch + 1
        _flight.record("non_finite_update", epoch=epoch, quantity=quantity)
        _flight.dump(
            "non-finite-update",
            extra={"epoch": epoch, "quantity": quantity, "value": repr(value)},
        )
        raise NonFiniteUpdateError(epoch, quantity, value)

    def train_epoch(self):
        """Collect one batch of episodes, update once, record metrics.

        While telemetry is on the epoch runs as one traced tree: a trace
        is opened lazily (joined by rollout workers over their pipes) and
        every span below — rollout, worker shards, update —
        parents back to this epoch span.
        """
        if obs.enabled():
            obs.begin_trace(label="trainer")
        with obs.span("trainer.epoch"):
            return self._train_epoch()

    def _train_epoch(self):
        cfg = self.config
        self.buffer.clear()
        with obs.span("trainer.rollout"):
            episodes, episode_stats = self.collect_episodes(
                cfg.episodes_per_epoch, greedy=False
            )
        self.buffer.add_episodes(episodes)

        with obs.span("trainer.update"):
            update_stats = self.update(self.buffer.batch())

        self.epoch += 1
        if self.epoch % cfg.target_update_period == 0:
            self.sync_target()
            self.target_syncs += 1

        record = {
            "epoch": self.epoch,
            "total_reward": float(
                np.mean([s["total_reward"] for s in episode_stats])
            ),
            "mean_queue": float(np.mean([s["mean_queue"] for s in episode_stats])),
            "empty_ratio": float(
                np.mean([s["empty_ratio"] for s in episode_stats])
            ),
            "overflow_ratio": float(
                np.mean([s["overflow_ratio"] for s in episode_stats])
            ),
        }
        record.update(update_stats)
        self.history.append(record)
        publish_epoch_record(record)
        return record

    def train(self, n_epochs=None, callback=None):
        """Run the full loop; returns the :class:`MetricsHistory`.

        Args:
            n_epochs: Number of epochs (defaults to the config's).
            callback: Optional ``fn(record)`` called after each epoch
                (progress printing, early stopping by raising StopIteration).
        """
        n_epochs = n_epochs if n_epochs is not None else self.config.n_epochs
        for _ in range(n_epochs):
            record = self.train_epoch()
            if callback is not None:
                try:
                    callback(record)
                except StopIteration:
                    break
        return self.history

    # -- lifecycle ----------------------------------------------------------------

    def close(self):
        """Shut down the sharded worker pool, if one was started.

        Idempotent and safe to call on trainers that never sharded; the
        in-process engines hold no external resources.  A later collect
        rebuilds the pool lazily — but note that closing *mid-training*
        ends bit-parity with an uninterrupted run: the rebuilt pool
        re-derives row streams from the (advanced) env generator and resets
        its copies, so subsequent episodes are still seed-deterministic yet
        not the ones an uninterrupted sharded/vector run would have
        collected.  Treat ``close`` as end-of-collection, not a pause.
        """
        if self._sharded_collector is not None:
            self._sharded_collector.close()
            self._sharded_collector = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, n_episodes=None, greedy=True):
        """Run evaluation episodes; returns averaged episode stats."""
        n_episodes = (
            n_episodes
            if n_episodes is not None
            else self.config.evaluation_episodes
        )
        all_stats = []
        for _ in range(n_episodes):
            _, stats = self.collect_episode(greedy=greedy)
            all_stats.append(stats)
        return {
            key: float(np.mean([s[key] for s in all_stats]))
            for key in all_stats[0]
        }
