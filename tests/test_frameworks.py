"""Unit tests for the framework presets (Section IV-C)."""

import copy

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig, VQCConfig
from repro.envs.vector import make_vector_env
from repro.marl.actors import ClassicalActor, QuantumActor, RandomActor
from repro.marl.critics import ClassicalCentralCritic, QuantumCentralCritic
from repro.marl.frameworks import (
    FRAMEWORK_NAMES,
    build_framework,
    evaluate_random_walk,
)
from repro.marl.rollout import VectorRolloutCollector
from repro.marl.trainer import rollout_episode
from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.channels import NoiseModel


ENV = SingleHopConfig(episode_limit=5)
TRAIN = TrainingConfig(episodes_per_epoch=1, actor_lr=1e-3, critic_lr=1e-3)


class TestComposition:
    def test_proposed_is_fully_quantum(self):
        fw = build_framework("proposed", env_config=ENV, train_config=TRAIN)
        assert all(isinstance(a, QuantumActor) for a in fw.actors.actors)
        assert isinstance(fw.trainer.critic, QuantumCentralCritic)
        assert isinstance(fw.trainer.target_critic, QuantumCentralCritic)

    def test_comp1_is_hybrid(self):
        fw = build_framework("comp1", env_config=ENV, train_config=TRAIN)
        assert all(isinstance(a, QuantumActor) for a in fw.actors.actors)
        assert isinstance(fw.trainer.critic, ClassicalCentralCritic)

    def test_comp2_and_comp3_classical(self):
        for name in ("comp2", "comp3"):
            fw = build_framework(name, env_config=ENV, train_config=TRAIN)
            assert all(isinstance(a, ClassicalActor) for a in fw.actors.actors)
            assert isinstance(fw.trainer.critic, ClassicalCentralCritic)

    def test_random_untrainable(self):
        fw = build_framework("random", env_config=ENV)
        assert all(isinstance(a, RandomActor) for a in fw.actors.actors)
        assert not fw.trainable
        with pytest.raises(RuntimeError):
            fw.train()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_framework("comp9")


class TestParameterBudgets:
    def test_quantum_budget_is_exactly_50(self):
        fw = build_framework("proposed", env_config=ENV, train_config=TRAIN)
        assert fw.metadata["actor_parameters"] == 50
        assert fw.metadata["critic_parameters"] == 50

    def test_comp2_budget_near_50(self):
        fw = build_framework("comp2", env_config=ENV, train_config=TRAIN)
        assert 40 <= fw.metadata["actor_parameters"] <= 60
        assert 40 <= fw.metadata["critic_parameters"] <= 60

    def test_comp3_budget_over_40k(self):
        fw = build_framework("comp3", env_config=ENV, train_config=TRAIN)
        assert fw.metadata["total_parameters"] > 40_000

    def test_random_budget_zero(self):
        fw = build_framework("random", env_config=ENV)
        assert fw.metadata["total_parameters"] == 0


class TestSeeding:
    def test_same_seed_same_initial_weights(self):
        a = build_framework("proposed", seed=3, env_config=ENV, train_config=TRAIN)
        b = build_framework("proposed", seed=3, env_config=ENV, train_config=TRAIN)
        wa = a.actors.actors[0].layer.weights.data
        wb = b.actors.actors[0].layer.weights.data
        assert np.allclose(wa, wb)

    def test_different_seed_different_weights(self):
        a = build_framework("proposed", seed=3, env_config=ENV, train_config=TRAIN)
        b = build_framework("proposed", seed=4, env_config=ENV, train_config=TRAIN)
        assert not np.allclose(
            a.actors.actors[0].layer.weights.data,
            b.actors.actors[0].layer.weights.data,
        )

    def test_actors_have_distinct_weights(self):
        fw = build_framework("proposed", env_config=ENV, train_config=TRAIN)
        w0 = fw.actors.actors[0].layer.weights.data
        w1 = fw.actors.actors[1].layer.weights.data
        assert not np.allclose(w0, w1)

    def test_actors_share_circuit_structure(self):
        fw = build_framework("proposed", env_config=ENV, train_config=TRAIN)
        circuits = {id(a.layer.vqc.circuit) for a in fw.actors.actors}
        assert len(circuits) == 1


class TestBackendsAndNoise:
    def test_default_backend_exact(self):
        fw = build_framework("proposed", env_config=ENV, train_config=TRAIN)
        backend = fw.actors.actors[0].layer.backend
        assert isinstance(backend, StatevectorBackend)
        assert backend.shots is None

    def test_noise_model_switches_backend_and_gradients(self):
        fw = build_framework(
            "proposed",
            env_config=ENV,
            train_config=TRAIN,
            noise_model=NoiseModel(0.01),
        )
        actor = fw.actors.actors[0]
        assert isinstance(actor.layer.backend, DensityMatrixBackend)
        assert actor.layer.gradient_method == "parameter_shift"

    def test_shots_backend(self):
        fw = build_framework(
            "proposed", env_config=ENV, train_config=TRAIN, shots=32
        )
        actor = fw.actors.actors[0]
        assert isinstance(actor.layer.backend, StatevectorBackend)
        assert actor.layer.backend.shots == 32
        assert actor.layer.gradient_method == "parameter_shift"


class TestTrainingAndEvaluation:
    def test_all_frameworks_train_one_epoch(self):
        for name in FRAMEWORK_NAMES:
            fw = build_framework(name, env_config=ENV, train_config=TRAIN)
            if fw.trainable:
                history = fw.train(n_epochs=1)
                assert history.n_epochs == 1

    def test_evaluate_returns_stats(self):
        fw = build_framework("comp2", env_config=ENV, train_config=TRAIN)
        stats = fw.evaluate(n_episodes=2)
        assert stats["total_reward"] <= 0.0

    def test_evaluate_vectorized(self):
        fw = build_framework("comp2", env_config=ENV, train_config=TRAIN)
        stats = fw.evaluate(n_episodes=3, vectorized=True)
        assert set(stats) == {
            "total_reward", "length", "mean_queue", "empty_ratio",
            "overflow_ratio",
        }
        assert stats["length"] == 5
        assert stats["total_reward"] <= 0.0

    def test_rollout_envs_override(self):
        fw = build_framework(
            "comp2", env_config=ENV,
            train_config=TrainingConfig(
                episodes_per_epoch=4, actor_lr=1e-3, critic_lr=1e-3,
                rollout_envs=4,
            ),
        )
        assert fw.trainer.config.rollout_envs == 4
        history = fw.train(n_epochs=1)
        assert history.n_epochs == 1
        collector = fw.trainer._collector
        assert isinstance(collector, VectorRolloutCollector)
        assert collector.vector_env.n_envs == 4
        assert fw.trainer._sharded_collector is None

    def test_random_evaluation_stochastic(self):
        fw = build_framework("random", env_config=ENV)
        stats = fw.evaluate(n_episodes=3)
        assert stats["length"] == 5

    def test_achievability_requires_training(self):
        fw = build_framework("comp2", env_config=ENV, train_config=TRAIN)
        with pytest.raises(RuntimeError):
            fw.achievability(-10.0)
        fw.train(n_epochs=2)
        value = fw.achievability(-10.0, window=2)
        assert value <= 1.0

    def test_evaluate_random_walk_negative(self):
        value = evaluate_random_walk(seed=1, env_config=ENV, n_episodes=5)
        assert value < 0.0

    def test_repr(self):
        fw = build_framework("comp2", env_config=ENV, train_config=TRAIN)
        assert "comp2" in repr(fw)


class TestEvaluateValidation:
    """``n_episodes`` is checked before any episode runs, in both modes:
    0 and -1 used to raise ``IndexError`` (serial) or the vector env's
    error about ``n_envs``, 2.5 ``TypeError``, and True ran one episode."""

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("n_episodes", [0, -1, 2.5, True])
    def test_bad_counts_raise_before_any_episode(self, n_episodes,
                                                 vectorized):
        fw = build_framework("comp2", env_config=ENV, train_config=TRAIN)
        streams = (fw.env.rng.bit_generator.state,
                   fw._eval_rng.bit_generator.state)
        with pytest.raises(ValueError,
                           match="^n_episodes must be an integer >= 1"):
            fw.evaluate(n_episodes=n_episodes, vectorized=vectorized)
        assert (fw.env.rng.bit_generator.state,
                fw._eval_rng.bit_generator.state) == streams

    def test_random_walk_is_checked_too(self):
        with pytest.raises(ValueError,
                           match="^n_episodes must be an integer >= 1"):
            evaluate_random_walk(seed=1, env_config=ENV, n_episodes=0)


class TestEvaluationStreams:
    """Evaluation steps an env of its own, so evaluating between epochs
    leaves every later training episode as it was, and a run of
    evaluations gives what rolling the same episodes out on the training
    env gives."""

    ENV = SingleHopConfig(episode_limit=10)

    def _framework(self, rollout_envs=1):
        return build_framework(
            "comp2", seed=1, env_config=self.ENV,
            train_config=TrainingConfig(
                episodes_per_epoch=4, actor_lr=1e-3, critic_lr=1e-3,
                rollout_envs=rollout_envs,
            ),
        )

    def _records(self, rollout_envs, evaluate_before=None, vectorized=False):
        fw = self._framework(rollout_envs)
        records = []
        for epoch in range(3):
            if epoch == evaluate_before:
                fw.evaluate(n_episodes=2, vectorized=vectorized)
            records.append(fw.trainer.train_epoch())
        return records

    @pytest.mark.parametrize("rollout_envs", [1, 4])
    @pytest.mark.parametrize("vectorized", [False, True],
                             ids=["serial", "vectorized"])
    def test_evaluating_between_epochs_leaves_training_unchanged(
            self, vectorized, rollout_envs):
        plain = self._records(rollout_envs)
        evaluated = self._records(rollout_envs, evaluate_before=2,
                                  vectorized=vectorized)
        assert evaluated == plain

    @pytest.mark.parametrize("vectorized", [False, True],
                             ids=["serial", "vectorized"])
    def test_evaluations_roll_out_on_a_copy_of_the_training_env(
            self, vectorized):
        fw = self._framework()
        fw.train(n_epochs=2)
        eval_rng = copy.deepcopy(fw._eval_rng)
        results = [fw.evaluate(n_episodes=3, vectorized=vectorized)
                   for _ in range(2)]
        # The same episodes rolled out on the training env itself, which
        # the evaluation no longer steps.
        expected = []
        for _ in range(2):
            if vectorized:
                collector = VectorRolloutCollector(
                    make_vector_env(fw.env, 3), fw.actors
                )
                _, stats = collector.collect(3, eval_rng, greedy=True,
                                             transitions=False)
            else:
                stats = [
                    rollout_episode(fw.env, fw.actors, eval_rng,
                                    greedy=True)[1]
                    for _ in range(3)
                ]
            expected.append({key: float(np.mean([s[key] for s in stats]))
                             for key in stats[0]})
        assert results == expected
