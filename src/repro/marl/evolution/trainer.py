"""The gradient-free training loop: evolutionary strategies over VQC teams.

:class:`ESTrainer` is the second training engine next to
:class:`~repro.marl.trainer.CTDETrainer`.  Instead of backpropagating
through the circuits it searches weight space directly — the approach the
quantum-MARL ES line (Kölle et al. 2023, 2024) showed matches or beats
gradient training on exactly this class of VQC multi-agent policies while
sidestepping barren plateaus.  One **generation** (= one ``train_epoch``):

1. draw one seed per antithetic noise pair from the trainer stream
   (parent-side, so every engine sees the identical draw);
2. build the population of ``P`` perturbed candidate team vectors
   (:func:`~repro.marl.evolution.es.perturb_population`);
3. roll out ``episodes_per_epoch`` episodes **per member** with the whole
   population multiplexed over ``k * P`` lockstep env rows
   (:class:`~repro.marl.evolution.population.PopulationActorGroup`) — on
   exact quantum teams every env step is a *single* per-sample-weight
   circuit evaluation covering all ``P * k * n_agents`` observations,
   riding the compiled-program tier with the suffix unitaries cached for
   the generation;
4. score each member by its mean episode return, shape by centered ranks,
   and apply the ES update to the base vector
   (:class:`~repro.marl.evolution.es.ESOptimizer`);
5. write the new base into the live actors (so evaluation and checkpoints
   always see the current mean policy).

Engines, selected by ``TrainingConfig.rollout_mode`` exactly like the
gradient trainer's collection engines:

- ``"serial"`` — the reference: the same lockstep vector env, but members
  evaluated one at a time through the template team (the semantic oracle
  for the stacked weight math);
- ``"vector"`` (and ``"auto"`` without workers) — in-process stacked
  single-circuit-call evaluation;
- ``"sharded"`` (and ``"auto"`` with workers) — the population sharded
  across worker processes, receiving only base-plus-seeds broadcasts
  (:class:`~repro.marl.evolution.collector.PopulationRolloutCollector`).

Fitness needs episode returns only, so every engine collects stats-only
(``transitions=False``): no transitions are staged, and sharded workers
return per-episode stats instead of episodes.  All engines are
bit-identical — same stats, fitness, updates, and RNG stream positions —
pinned by the ES axis of the unified cross-engine harness; and
``population=1, sigma=0`` reproduces plain unperturbed evaluation of the
team bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.envs.vector import make_vector_env
from repro.marl.evolution import es as _es
from repro.marl.evolution.collector import PopulationRolloutCollector
from repro.marl.evolution.population import (
    PopulationActorGroup,
    flat_team_vector,
    load_team_vector,
)
from repro.marl.metrics import (
    MetricsHistory,
    population_fitness_summary,
    publish_epoch_record,
)
from repro.marl.rollout import VectorRolloutCollector
from repro.marl.trainer import rollout_episode

__all__ = ["ESTrainer"]


class ESTrainer:
    """Evolutionary-strategies trainer over an actor team (no critic).

    Args:
        env: A :class:`~repro.envs.base.MultiAgentEnv` with fixed-length
            episodes — the in-process engines handle ragged envs, but ES
            fitness attribution is positional and requires lockstep
            completion (rejected up front otherwise).
        actor_group: The live :class:`~repro.marl.actors.ActorGroup` whose
            weights ES trains in place.
        config: :class:`~repro.config.TrainingConfig` with
            ``trainer="es"``.
        rng: Generator for noise seeds and action sampling (the single
            stream whose positions the determinism contract tracks).
    """

    def __init__(self, env, actor_group, config, rng):
        if env.n_agents != actor_group.n_agents:
            raise ValueError(
                f"env has {env.n_agents} agents, group has "
                f"{actor_group.n_agents}"
            )
        if config.trainer != "es":
            raise ValueError(
                f"ESTrainer needs TrainingConfig(trainer='es'), "
                f"got trainer={config.trainer!r}"
            )
        if getattr(env, "has_data_dependent_termination", False):
            # member_fitness maps episode j to member j % n_envs % P — a
            # positional rule that only holds when every row finishes an
            # episode every round (lockstep completion).  Ragged envs break
            # it silently, so reject them up front.
            raise ValueError(
                "ESTrainer needs fixed-length episodes: its fitness "
                "attribution maps episodes to population members by "
                "position, which data-dependent termination (e.g. "
                "terminate_on_overflow) breaks; use the gradient trainer "
                "for ragged envs"
            )
        self.env = env
        self.actors = actor_group
        self.config = config
        self.rng = rng
        self.history = MetricsHistory()
        self.epoch = 0

        self.base_vector = flat_team_vector(actor_group)
        self.optimizer = _es.ESOptimizer(
            lr=config.effective_es_lr,
            sigma=config.effective_es_sigma,
            weight_decay=config.effective_es_weight_decay,
        )
        self._population_group = PopulationActorGroup(
            actor_group,
            member_vectors=np.tile(
                self.base_vector, (self.population, 1)
            ),
            stacked=self.stacked_evaluation,
        )
        self._collector = None
        self._sharded_collector = None

    # -- engine selection -----------------------------------------------------

    @property
    def population(self):
        """Population size ``P``."""
        return self.config.effective_es_population

    @property
    def sigma(self):
        """Perturbation scale of the current configuration."""
        return self.config.effective_es_sigma

    @property
    def envs_per_member(self):
        """Lockstep env copies each member owns (the config's divisor
        clamp on ``rollout_envs`` — see ``effective_rollout_envs``)."""
        return self.config.effective_rollout_envs

    @property
    def n_envs(self):
        """Total lockstep rows: ``envs_per_member * population``."""
        return self.envs_per_member * self.population

    @property
    def rollout_workers(self):
        """Effective worker count (clamped to the total row count)."""
        return self.config.effective_rollout_workers

    @property
    def sharded_rollouts(self):
        """Whether generations are collected by the worker-pool engine."""
        mode = self.config.rollout_mode
        if mode == "sharded":
            return True
        return mode == "auto" and self.rollout_workers > 1

    @property
    def stacked_evaluation(self):
        """Whether the population is evaluated through the stacked
        per-sample-weight path (``rollout_mode="serial"`` forces the
        per-member reference loop instead)."""
        return self.config.rollout_mode != "serial"

    # -- collection -----------------------------------------------------------

    def vector_collector(self):
        """The lazily built in-process engine (stacked or member-loop)."""
        if self._collector is None:
            vector_env = make_vector_env(self.env, self.n_envs)
            self._collector = VectorRolloutCollector(
                vector_env, self._population_group
            )
        return self._collector

    def sharded_collector(self):
        """The lazily built worker-pool engine (persists across
        generations; shut down via :meth:`close`)."""
        if self._sharded_collector is None:
            self._sharded_collector = PopulationRolloutCollector(
                self.env,
                self._population_group,
                n_envs=self.n_envs,
                n_workers=self.rollout_workers,
            )
        return self._sharded_collector

    def collect_generation(self, seeds):
        """Roll out the whole population once; returns ``(None, stats)``.

        A stats-only collect: fitness reads episode returns alone, so no
        transitions are staged or shipped, and the episode slot is
        ``None``.  Stats arrive in the engines' shared completion order —
        round-major, global-row-minor — so episode ``j`` belongs to member
        ``j % n_envs % population``.
        """
        n_episodes = self.config.episodes_per_epoch * self.population
        if self.sharded_rollouts:
            collector = self.sharded_collector()
            collector.set_generation(self.base_vector, seeds, self.sigma)
        else:
            self._population_group.set_members(
                _es.perturb_population(
                    self.base_vector, seeds, self.sigma, self.population
                )
            )
            collector = self.vector_collector()
        return collector.collect(
            n_episodes, self.rng, greedy=False, transitions=False
        )

    def member_fitness(self, stats):
        """Mean total reward per member from a generation's episode stats."""
        returns = np.array([s["total_reward"] for s in stats])
        members = np.arange(returns.size) % self.n_envs % self.population
        fitness = np.zeros(self.population)
        for member in range(self.population):
            fitness[member] = returns[members == member].mean()
        return fitness

    # -- training -------------------------------------------------------------

    def train_epoch(self):
        """One ES generation: collect, score, update, record metrics.

        Traced like the gradient engine: one ``trainer.epoch`` span roots
        the generation's tree, and sharded workers join it over their
        pipes.
        """
        if obs.enabled():
            obs.begin_trace(label="trainer")
        with obs.span("trainer.epoch"):
            return self._train_epoch()

    def _train_epoch(self):
        cfg = self.config
        # Seeds are drawn parent-side from the shared stream *before*
        # collection, identically under every engine.  sigma=0 (the
        # evaluation-only mode) draws nothing, so it consumes exactly the
        # streams plain unperturbed collection would.
        seeds = (
            ()
            if self.sigma == 0.0
            else _es.draw_generation_seeds(self.rng, self.population)
        )
        with obs.span("trainer.rollout"):
            _, stats = self.collect_generation(seeds)
        with obs.span("trainer.update"):
            fitness = self.member_fitness(stats)
            self.base_vector, info = self.optimizer.step(
                self.base_vector, fitness, seeds
            )
            # Keep the live team on the updated mean policy: greedy
            # evaluation, checkpoints, and a later MAPG fine-tune all read
            # these weights.
            load_team_vector(self.actors, self.base_vector)

        self.epoch += 1
        record = {
            "epoch": self.epoch,
            "total_reward": float(
                np.mean([s["total_reward"] for s in stats])
            ),
            "mean_queue": float(np.mean([s["mean_queue"] for s in stats])),
            "empty_ratio": float(np.mean([s["empty_ratio"] for s in stats])),
            "overflow_ratio": float(
                np.mean([s["overflow_ratio"] for s in stats])
            ),
            "grad_norm": info["grad_norm"],
        }
        record.update(population_fitness_summary(fitness))
        self.history.append(record)
        publish_epoch_record(record)
        return record

    def train(self, n_epochs=None, callback=None):
        """Run generations; same loop contract as ``CTDETrainer.train``."""
        n_epochs = n_epochs if n_epochs is not None else self.config.n_epochs
        for _ in range(n_epochs):
            record = self.train_epoch()
            if callback is not None:
                try:
                    callback(record)
                except StopIteration:
                    break
        return self.history

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, n_episodes=None, greedy=True):
        """Serial evaluation episodes of the current base policy."""
        n_episodes = (
            n_episodes
            if n_episodes is not None
            else self.config.evaluation_episodes
        )
        all_stats = []
        for _ in range(n_episodes):
            _, stats = rollout_episode(
                self.env, self.actors, self.rng, greedy=greedy
            )
            all_stats.append(stats)
        return {
            key: float(np.mean([s[key] for s in all_stats]))
            for key in all_stats[0]
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self):
        """Shut down the sharded worker pool, if one was started.

        Same caveat as the gradient trainer: closing mid-training ends
        bit-parity with an uninterrupted run (a rebuilt pool re-derives
        row streams from the advanced env generator).
        """
        if self._sharded_collector is not None:
            self._sharded_collector.close()
            self._sharded_collector = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()

    def __repr__(self):
        return (
            f"ESTrainer(population={self.population}, sigma={self.sigma}, "
            f"n_envs={self.n_envs}, workers={self.rollout_workers}, "
            f"stacked={self.stacked_evaluation}, epoch={self.epoch})"
        )
