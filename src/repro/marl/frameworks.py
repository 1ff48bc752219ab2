"""Framework presets: Proposed, Comp1, Comp2, Comp3 and the random walk.

Builds the exact four-way comparison of Section IV-C:

======== ==================== ============================== ==============
Name     Actors               Centralised critic             Budget
======== ==================== ============================== ==============
proposed VQC (50 weights)     VQC (50 weights)               50 / 50
comp1    VQC (50 weights)     classical MLP (~50 params)     50 / ~50
comp2    classical (~50)      classical MLP (~50 params)     ~50 / ~50
comp3    classical (large)    classical MLP (large)          > 40k total
random   uniform random       —                              0
======== ==================== ============================== ==============

All quantum actors share one circuit *structure* (enabling the batched
team rollout of :class:`~repro.marl.actors.QuantumActorGroup`) but own
independent weight vectors, as in the paper's Fig. 2.
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    COMP2_NET,
    COMP3_NET,
    SingleHopConfig,
    TrainingConfig,
    VQCConfig,
    replace,
)
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.marl.actors import (
    ActorGroup,
    ClassicalActor,
    QuantumActor,
    QuantumActorGroup,
    RandomActor,
)
from repro.marl.critics import ClassicalCentralCritic, QuantumCentralCritic
from repro.marl.evolution import ESTrainer
from repro.marl.metrics import achievability
from repro.marl.trainer import CTDETrainer, rollout_episode
from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.observables import all_z_observables
from repro.quantum.vqc import build_vqc
from repro.seeding import SeedSequenceFactory

__all__ = ["Framework", "build_framework", "FRAMEWORK_NAMES", "evaluate_random_walk"]

FRAMEWORK_NAMES = ("proposed", "comp1", "comp2", "comp3", "random")


class Framework:
    """A ready-to-run experimental arm of the Section IV comparison.

    Attributes:
        name: One of :data:`FRAMEWORK_NAMES`.
        env: The environment instance.
        actors: The actor group.
        trainer: A :class:`CTDETrainer`, or ``None`` for the random walk.
        metadata: Parameter accounting (per-actor, critic, total).
    """

    def __init__(self, name, env, actors, trainer, metadata, eval_rng):
        self.name = name
        self.env = env
        self.actors = actors
        self.trainer = trainer
        self.metadata = metadata
        self._eval_rng = eval_rng

    @property
    def trainable(self):
        """Whether this framework has anything to train."""
        return self.trainer is not None

    def train(self, n_epochs=None, callback=None):
        """Run training; returns the metrics history."""
        if self.trainer is None:
            raise RuntimeError(f"framework {self.name!r} is not trainable")
        return self.trainer.train(n_epochs=n_epochs, callback=callback)

    def evaluate(self, n_episodes=8, greedy=None, vectorized=False):
        """Averaged episode stats under the current policy.

        Greedy (arg-max) execution by default for trainable frameworks —
        the paper's decentralised execution — and stochastic for the random
        walk.  With ``vectorized=True`` all ``n_episodes`` run as lockstep
        env copies through batched policy inference (same stat accounting,
        different RNG stream layout than the serial loop).
        """
        if greedy is None:
            greedy = self.trainable
        if vectorized:
            from repro.envs.vector import make_vector_env
            from repro.marl.rollout import VectorRolloutCollector

            collector = VectorRolloutCollector(
                make_vector_env(self.env, n_episodes), self.actors
            )
            _, all_stats = collector.collect(
                n_episodes, self._eval_rng, greedy=greedy, transitions=False
            )
        else:
            all_stats = []
            for _ in range(n_episodes):
                _, stats = rollout_episode(
                    self.env, self.actors, self._eval_rng, greedy=greedy
                )
                all_stats.append(stats)
        return {
            key: float(np.mean([s[key] for s in all_stats]))
            for key in all_stats[0]
        }

    def close(self):
        """Release external resources (the sharded rollout worker pool)."""
        if self.trainer is not None:
            self.trainer.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()

    def achievability(self, random_walk_return, window=20):
        """Min-max normalised return vs the random walk (Section IV-D)."""
        if self.trainer is None or self.trainer.history.n_epochs == 0:
            raise RuntimeError("train the framework before computing achievability")
        recent = self.trainer.history.last("total_reward", window=window)
        return achievability(recent, random_walk_return)

    def __repr__(self):
        return (
            f"Framework({self.name!r}, actors={self.metadata['actor_parameters']}"
            f"x{self.env.n_agents}, critic={self.metadata['critic_parameters']})"
        )


def _quantum_actor_group(env_config, vqc_config, seeds, backend_factory):
    """Build N quantum actors sharing one circuit structure."""
    if env_config.n_actions > vqc_config.n_qubits:
        raise ValueError(
            f"{env_config.n_actions} actions need at least that many qubits "
            f"to measure (got {vqc_config.n_qubits})"
        )
    vqc = build_vqc(
        n_qubits=vqc_config.n_qubits,
        n_features=env_config.observation_size,
        n_weights=vqc_config.n_variational_gates,
        seed=vqc_config.actor_ansatz_seed,
        template=vqc_config.template,
        encoding_scale=vqc_config.encoding_scale,
        observables=all_z_observables(vqc_config.n_qubits)[: env_config.n_actions],
        two_qubit_ratio=vqc_config.two_qubit_ratio,
    )
    actors = []
    for n in range(env_config.n_agents):
        actors.append(
            QuantumActor(
                vqc,
                seeds.rng(f"actor-weights/{n}"),
                backend=backend_factory(),
                gradient_method=vqc_config.gradient_method,
                logit_scale=vqc_config.actor_logit_scale,
                policy_head=vqc_config.actor_policy_head,
            )
        )
    return QuantumActorGroup(actors)


def _quantum_critic(env_config, vqc_config, seeds, backend_factory, name):
    """Build the centralised quantum critic with multi-layer state encoding."""
    state_size = env_config.state_size
    n_qubits = vqc_config.n_qubits
    vqc = build_vqc(
        n_qubits=n_qubits,
        n_features=state_size,
        n_weights=vqc_config.n_variational_gates,
        seed=vqc_config.critic_ansatz_seed,
        template=vqc_config.template,
        encoding_scale=vqc_config.encoding_scale,
        two_qubit_ratio=vqc_config.two_qubit_ratio,
    )
    return QuantumCentralCritic(
        vqc,
        seeds.rng(name),
        backend=backend_factory(),
        gradient_method=vqc_config.gradient_method,
        value_scale=vqc_config.critic_value_scale,
    )


def _classical_actor_group(env_config, hidden, seeds, activation="tanh"):
    actors = [
        ClassicalActor(
            env_config.observation_size,
            env_config.n_actions,
            hidden,
            seeds.rng(f"actor-weights/{n}"),
            activation=activation,
        )
        for n in range(env_config.n_agents)
    ]
    return ActorGroup(actors)


def build_framework(
    name,
    seed=0,
    env_config=None,
    vqc_config=None,
    train_config=None,
    noise_model=None,
    shots=None,
    comp2_net=COMP2_NET,
    comp3_net=COMP3_NET,
    rollout_envs=None,
    rollout_workers=None,
    trainer=None,
    es_population=None,
    es_sigma=None,
    es_lr=None,
    es_weight_decay=None,
):
    """Construct one experimental arm, fully wired and reproducibly seeded.

    Args:
        name: ``"proposed"``, ``"comp1"``, ``"comp2"``, ``"comp3"`` or
            ``"random"``.
        seed: Root seed; every stochastic component derives a named child.
        env_config: :class:`SingleHopConfig` (Table II defaults).
        vqc_config: :class:`VQCConfig` (Table II defaults).
        train_config: :class:`TrainingConfig`.
        noise_model: Optional :class:`~repro.quantum.channels.NoiseModel`;
            switches quantum components onto the density-matrix backend and
            parameter-shift gradients (NISQ ablations).
        shots: Optional finite measurement shots for quantum components.
        comp2_net / comp3_net: Classical baseline shapes.
        rollout_envs: Convenience override of
            ``train_config.rollout_envs`` — the number of lockstep env
            copies the trainer collects episodes with (vectorized rollout
            engine; serial reference when 1).
        rollout_workers: Convenience override of
            ``train_config.rollout_workers`` — the number of worker
            processes the sharded rollout engine splits those copies across
            (in-process when 1; call ``framework.close()`` when done to shut
            the pool down).
        trainer: Convenience override of ``train_config.trainer`` —
            ``"mapg"`` (the paper's gradient-based CTDE loop) or ``"es"``
            (the gradient-free evolutionary-strategies engine; no critic
            is built, and the es_* overrides below apply).
        es_population / es_sigma / es_lr / es_weight_decay: Convenience
            overrides of the matching ``train_config`` ES knobs.
    """
    if name not in FRAMEWORK_NAMES:
        raise ValueError(f"unknown framework {name!r}; choose from {FRAMEWORK_NAMES}")
    env_config = env_config if env_config is not None else SingleHopConfig()
    vqc_config = vqc_config if vqc_config is not None else VQCConfig()
    train_config = train_config if train_config is not None else TrainingConfig()
    if rollout_envs is not None:
        train_config = replace(train_config, rollout_envs=int(rollout_envs))
    if rollout_workers is not None:
        train_config = replace(train_config, rollout_workers=int(rollout_workers))
    if trainer is not None:
        train_config = replace(train_config, trainer=str(trainer))
    es_overrides = {
        "es_population": es_population,
        "es_sigma": es_sigma,
        "es_lr": es_lr,
        "es_weight_decay": es_weight_decay,
    }
    es_overrides = {k: v for k, v in es_overrides.items() if v is not None}
    if es_overrides:
        train_config = replace(train_config, **es_overrides)
    seeds = SeedSequenceFactory(seed)

    if noise_model is not None or shots is not None:
        if noise_model is not None:
            def backend_factory():
                return DensityMatrixBackend(
                    noise_model, shots=shots, rng=seeds.rng("backend-shots")
                )
        else:
            def backend_factory():
                return StatevectorBackend(
                    shots=shots, rng=seeds.rng("backend-shots")
                )
        if vqc_config.gradient_method == "adjoint":
            vqc_config = VQCConfig(
                **{**vqc_config.__dict__, "gradient_method": "parameter_shift"}
            )
    else:
        def backend_factory():
            return StatevectorBackend()

    env = SingleHopOffloadEnv(env_config, rng=seeds.rng("env"))

    if name == "random":
        actors = ActorGroup(
            [RandomActor(env_config.n_actions) for _ in range(env_config.n_agents)]
        )
        metadata = {
            "actor_parameters": 0,
            "critic_parameters": 0,
            "total_parameters": 0,
        }
        return Framework(
            name, env, actors, None, metadata, seeds.rng("evaluation")
        )

    if name in ("proposed", "comp1"):
        actors = _quantum_actor_group(env_config, vqc_config, seeds, backend_factory)
    elif name == "comp2":
        actors = _classical_actor_group(
            env_config, comp2_net.actor_hidden, seeds, comp2_net.activation
        )
    else:  # comp3
        actors = _classical_actor_group(
            env_config, comp3_net.actor_hidden, seeds, comp3_net.activation
        )

    if train_config.trainer == "es":
        # Gradient-free engine: population search over the actor team, no
        # critic at all (and none constructed, so the parameter accounting
        # reflects what actually trains).
        trainer = ESTrainer(env, actors, train_config, seeds.rng("rollouts"))
        critic_parameters = 0
    else:
        if name == "proposed":
            critic = _quantum_critic(
                env_config, vqc_config, seeds, backend_factory, "critic-weights"
            )
            target = _quantum_critic(
                env_config, vqc_config, seeds, backend_factory, "target-weights"
            )
        else:
            critic_hidden = (
                comp3_net.critic_hidden if name == "comp3"
                else comp2_net.critic_hidden
            )
            critic = ClassicalCentralCritic(
                env_config.state_size, critic_hidden, seeds.rng("critic")
            )
            target = ClassicalCentralCritic(
                env_config.state_size, critic_hidden, seeds.rng("target")
            )
        trainer = CTDETrainer(
            env, actors, critic, target, train_config, seeds.rng("rollouts")
        )
        critic_parameters = critic.n_parameters()

    per_actor = actors.actors[0].n_parameters()
    metadata = {
        "actor_parameters": per_actor,
        "critic_parameters": critic_parameters,
        "total_parameters": actors.n_parameters() + critic_parameters,
    }
    return Framework(name, env, actors, trainer, metadata, seeds.rng("evaluation"))


def evaluate_random_walk(seed=0, env_config=None, n_episodes=50):
    """Mean total reward of the uniform random policy (the paper's -33.2
    reference, rescaled by episode length — see SingleHopConfig)."""
    framework = build_framework("random", seed=seed, env_config=env_config)
    stats = framework.evaluate(n_episodes=n_episodes, greedy=False)
    return stats["total_reward"]
