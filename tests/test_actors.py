"""Unit tests for actors and actor groups."""

import numpy as np
import pytest

from repro.marl.actors import (
    ActorGroup,
    ClassicalActor,
    QuantumActor,
    QuantumActorGroup,
    RandomActor,
)
from repro.nn.tensor import Tensor
from repro.quantum.backends import StatevectorBackend
from repro.quantum.program import using_program
from repro.quantum.vqc import build_vqc


@pytest.fixture
def shared_vqc():
    return build_vqc(4, 4, 12, seed=3)


def quantum_team(shared_vqc, n=3, logit_scale=1.0):
    actors = [
        QuantumActor(shared_vqc, np.random.default_rng(i), logit_scale=logit_scale)
        for i in range(n)
    ]
    return QuantumActorGroup(actors)


class TestQuantumActor:
    def test_forward_is_distribution(self, shared_vqc, rng):
        actor = QuantumActor(shared_vqc, rng)
        probs = actor(Tensor(rng.uniform(size=(5, 4))))
        assert probs.shape == (5, 4)
        assert np.allclose(probs.data.sum(axis=1), 1.0)
        assert np.all(probs.data > 0)

    def test_log_policy_matches_log_of_policy(self, shared_vqc, rng):
        actor = QuantumActor(shared_vqc, rng)
        obs = rng.uniform(size=(3, 4))
        assert np.allclose(
            actor.log_policy(obs).data, np.log(actor(Tensor(obs)).data)
        )

    def test_probabilities_fast_path_matches_forward(self, shared_vqc, rng):
        actor = QuantumActor(shared_vqc, rng)
        obs = rng.uniform(size=(4, 4))
        assert np.allclose(actor.probabilities(obs), actor(Tensor(obs)).data)

    def test_sample_action_range(self, shared_vqc, rng):
        actor = QuantumActor(shared_vqc, rng)
        actions = {actor.sample_action(rng.uniform(size=4), rng) for _ in range(50)}
        assert actions <= {0, 1, 2, 3}

    def test_greedy_action_is_argmax(self, shared_vqc, rng):
        actor = QuantumActor(shared_vqc, rng)
        obs = rng.uniform(size=4)
        greedy = actor.greedy_action(obs)
        assert greedy == int(np.argmax(actor.probabilities(obs)[0]))

    def test_logit_scale_sharpens(self, shared_vqc, rng):
        flat = QuantumActor(shared_vqc, np.random.default_rng(0), logit_scale=1.0)
        sharp = QuantumActor(shared_vqc, np.random.default_rng(0), logit_scale=5.0)
        obs = rng.uniform(size=4)
        assert sharp.probabilities(obs).max() > flat.probabilities(obs).max()

    def test_parameter_budget(self, shared_vqc, rng):
        assert QuantumActor(shared_vqc, rng).n_parameters() == 12

    def test_with_backend_shares_weights(self, shared_vqc, rng):
        actor = QuantumActor(shared_vqc, rng)
        clone = actor.with_backend(StatevectorBackend())
        assert clone.layer.weights is actor.layer.weights
        obs = rng.uniform(size=4)
        assert np.allclose(actor.probabilities(obs), clone.probabilities(obs))


class TestClassicalActor:
    def test_distribution(self, rng):
        actor = ClassicalActor(4, 4, (5,), rng)
        probs = actor(Tensor(rng.normal(size=(3, 4))))
        assert np.allclose(probs.data.sum(axis=1), 1.0)

    def test_comp2_parameter_budget(self, rng):
        actor = ClassicalActor(4, 4, (5,), rng)
        assert actor.n_parameters() == 49

    def test_sample_and_greedy(self, rng):
        actor = ClassicalActor(4, 4, (5,), rng)
        obs = rng.normal(size=4)
        assert 0 <= actor.sample_action(obs, rng) < 4
        assert actor.greedy_action(obs) == int(
            np.argmax(actor.probabilities(obs)[0])
        )


class TestRandomActor:
    def test_uniform_probabilities(self):
        actor = RandomActor(4)
        probs = actor.probabilities(np.zeros((3, 2)))
        assert np.allclose(probs, 0.25)

    def test_sample(self, rng):
        actor = RandomActor(4)
        assert {actor.sample_action(None, rng) for _ in range(100)} == {0, 1, 2, 3}

    def test_no_greedy(self):
        with pytest.raises(RuntimeError):
            RandomActor(2).greedy_action(None)

    def test_parameterless(self):
        assert RandomActor(2).parameters() == []
        assert RandomActor(2).n_parameters() == 0


class TestActorGroup:
    def test_act_per_agent(self, rng):
        group = ActorGroup([RandomActor(4) for _ in range(3)])
        actions = group.act([np.zeros(2)] * 3, rng)
        assert len(actions) == 3
        assert all(0 <= a < 4 for a in actions)

    def test_parameters_aggregate(self, rng):
        group = ActorGroup([ClassicalActor(4, 4, (5,), rng) for _ in range(2)])
        assert group.n_parameters() == 98
        # Each actor: two Linear layers x (weight, bias) = 4 parameters.
        assert len(group.parameters()) == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ActorGroup([])


class TestQuantumActorGroup:
    def test_team_probabilities_match_individual(self, shared_vqc, rng):
        """The single batched team evaluation must equal per-actor calls."""
        group = quantum_team(shared_vqc, n=3)
        observations = [rng.uniform(size=4) for _ in range(3)]
        team = group.team_probabilities(observations)
        individual = np.concatenate(
            [a.probabilities(o) for a, o in zip(group.actors, observations)]
        )
        assert np.allclose(team, individual, atol=1e-12)

    def test_greedy_act_matches_individual(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=3)
        observations = [rng.uniform(size=4) for _ in range(3)]
        team_actions = group.act(observations, rng, greedy=True)
        solo_actions = [
            a.greedy_action(o) for a, o in zip(group.actors, observations)
        ]
        assert team_actions == solo_actions

    def test_sampled_actions_in_range(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=4)
        actions = group.act([rng.uniform(size=4)] * 4, rng)
        assert all(0 <= a < 4 for a in actions)

    def test_requires_shared_circuit(self, rng):
        a = QuantumActor(build_vqc(4, 4, 8, seed=1), rng)
        b = QuantumActor(build_vqc(4, 4, 8, seed=1), rng)
        with pytest.raises(ValueError, match="sharing one circuit"):
            QuantumActorGroup([a, b])

    def test_logit_scale_respected_in_group(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=2, logit_scale=4.0)
        observations = [rng.uniform(size=4) for _ in range(2)]
        team = group.team_probabilities(observations)
        individual = np.concatenate(
            [a.probabilities(o) for a, o in zip(group.actors, observations)]
        )
        assert np.allclose(team, individual, atol=1e-12)


class TestRowsProbabilities:
    """The ragged-row inference surface the serving tier batches through."""

    def test_quantum_rows_match_per_actor_calls(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=3)
        observations = rng.uniform(size=(7, 4))
        agents = np.array([2, 0, 1, 1, 0, 2, 0])
        rows = group.rows_probabilities(observations, agents)
        assert rows.shape == (7, 4)
        for r, agent in enumerate(agents):
            direct = group.actors[agent].probabilities(
                observations[r][None]
            )[0]
            assert np.allclose(rows[r], direct, atol=1e-12), r

    def test_compiled_matches_uncompiled_path(self, shared_vqc, rng):
        """The program tier's ragged gather against the interpreted oracle."""
        group = quantum_team(shared_vqc, n=3)
        observations = rng.uniform(size=(6, 4))
        agents = [0, 2, 2, 1, 0, 1]
        compiled = group.rows_probabilities(observations, agents)
        with using_program(False):
            interpreted = group.rows_probabilities(observations, agents)
        assert np.allclose(compiled, interpreted, atol=1e-12)

    def test_classical_group_rows(self, rng):
        group = ActorGroup(
            [ClassicalActor(4, 3, (5,), rng) for _ in range(2)]
        )
        observations = rng.uniform(size=(5, 4))
        agents = [1, 0, 1, 1, 0]
        rows = group.rows_probabilities(observations, agents)
        for r, agent in enumerate(agents):
            direct = group.actors[agent].probabilities(
                observations[r][None]
            )[0]
            assert np.allclose(rows[r], direct, atol=1e-12), r

    def test_empty_batch(self, shared_vqc):
        group = quantum_team(shared_vqc, n=2)
        rows = group.rows_probabilities(np.empty((0, 4)), [])
        assert rows.shape == (0, 4)

    def test_validation(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=2)
        observations = rng.uniform(size=(3, 4))
        with pytest.raises(ValueError, match="observations must be"):
            group.rows_probabilities(observations[0], [0])
        with pytest.raises(ValueError, match="agent indices"):
            group.rows_probabilities(observations, [0, 1])
        with pytest.raises(ValueError, match=r"in \[0, 2\)"):
            group.rows_probabilities(observations, [0, 1, 2])


class TestStackedLogPolicies:
    """The single-call training forward (update-path vectorization)."""

    def stacked_and_reference(self, group, rng, batch=5):
        n_agents = group.n_agents
        obs = rng.uniform(size=(batch, n_agents, 4))
        stacked = group.stacked_log_policies(obs)
        assert stacked.shape == (batch, n_agents, group.actors[0].n_actions)
        reference = np.stack(
            [
                actor.log_policy(obs[:, n, :]).data
                for n, actor in enumerate(group.actors)
            ],
            axis=1,
        )
        return obs, stacked, reference

    def test_quantum_values_match_per_agent_forwards(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=3)
        _, stacked, reference = self.stacked_and_reference(group, rng)
        assert np.allclose(stacked.data, reference, atol=1e-12)

    def test_quantum_gradients_match_per_agent_backward(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=3)
        obs, stacked, _ = self.stacked_and_reference(group, rng)
        upstream = rng.normal(size=stacked.shape)

        stacked.backward(upstream)
        stacked_grads = [a.layer.weights.grad.copy() for a in group.actors]
        group.zero_grad()
        for n, actor in enumerate(group.actors):
            actor.log_policy(obs[:, n, :]).backward(upstream[:, n, :])
        loop_grads = [a.layer.weights.grad.copy() for a in group.actors]
        for fast, slow in zip(stacked_grads, loop_grads):
            assert np.allclose(fast, slow, atol=1e-9)

    def test_folded_gradients_match_interpreted(self, shared_vqc, rng,
                                                sweep_rows):
        """Above 2**n rows per agent the team backward folds each agent's
        rows into one matrix; it must match the interpreted oracle."""
        group = quantum_team(shared_vqc, n=3)
        obs = rng.uniform(size=(24, 3, 4))
        upstream = rng.normal(size=(24, 3, 4))
        grads = []
        for enabled in (True, False):
            group.zero_grad()
            with using_program(enabled):
                group.stacked_log_policies(obs).backward(upstream)
            grads.append([a.layer.weights.grad.copy() for a in group.actors])
        # One folded sweep over 3 agents x 16 basis states, no encoding sweep.
        assert sweep_rows == [2 * 3 * 16]
        for fast, slow in zip(*grads):
            assert np.allclose(fast, slow, atol=1e-12)

    def test_born_head_stacked_matches(self, shared_vqc, rng):
        actors = [
            QuantumActor(shared_vqc, np.random.default_rng(i), policy_head="born")
            for i in range(2)
        ]
        group = QuantumActorGroup(actors)
        _, stacked, reference = self.stacked_and_reference(group, rng)
        assert np.allclose(stacked.data, reference, atol=1e-12)

    def test_classical_group_stacks_per_agent_forwards(self, rng):
        group = ActorGroup(
            [ClassicalActor(4, 4, (5,), np.random.default_rng(i)) for i in range(3)]
        )
        obs, stacked, reference = self.stacked_and_reference(group, rng)
        assert np.allclose(stacked.data, reference, atol=1e-15)
        stacked.sum().backward()
        assert all(
            p.grad is not None for actor in group.actors for p in actor.parameters()
        )

    def test_shot_backend_falls_back_to_per_agent_path(self, shared_vqc):
        actors = [
            QuantumActor(
                shared_vqc,
                np.random.default_rng(i),
                backend=StatevectorBackend(shots=64, rng=np.random.default_rng(9)),
                gradient_method="parameter_shift",
            )
            for i in range(2)
        ]
        group = QuantumActorGroup(actors)
        assert group._fast_backend is None
        obs = np.random.default_rng(0).uniform(size=(2, 2, 4))
        stacked = group.stacked_log_policies(obs)
        assert stacked.shape == (2, 2, 4)
        assert np.all(np.isfinite(stacked.data))


class TestStackedUpdateReusesForward:
    """The team backward starts from the states its forward kept: log
    policies and gradients bit-identical to a backward that simulates the
    rows again, and no row simulated twice."""

    def run_update(self, group, obs, upstream):
        group.zero_grad()
        log_probs = group.stacked_log_policies(obs)
        log_probs.backward(upstream)
        return log_probs.data, [a.layer.weights.grad.copy() for a in group.actors]

    @pytest.mark.parametrize("policy_head", ["softmax", "born"])
    @pytest.mark.parametrize("batch", [5, 16, 24])  # vs 2**n = 16 per agent
    def test_bits_equal_recomputing_path(self, shared_vqc, batch, policy_head,
                                         recomputing):
        actors = [
            QuantumActor(
                shared_vqc, np.random.default_rng(i), policy_head=policy_head
            )
            for i in range(3)
        ]
        group = QuantumActorGroup(actors)
        rng = np.random.default_rng(batch)
        obs = rng.uniform(size=(batch, 3, 4))
        upstream = rng.normal(size=(batch, 3, 4))
        values, grads = self.run_update(group, obs, upstream)
        recomputing()
        ref_values, ref_grads = self.run_update(group, obs, upstream)
        assert values.tobytes() == ref_values.tobytes()
        for grad, ref in zip(grads, ref_grads):
            assert grad.tobytes() == ref.tobytes()

    def test_folded_backward_simulates_nothing(self, shared_vqc, rng,
                                               simulated):
        group = quantum_team(shared_vqc, n=3)
        log_probs = group.stacked_log_policies(rng.uniform(size=(24, 3, 4)))
        simulated.clear()
        log_probs.backward(rng.normal(size=log_probs.shape))
        assert simulated == []

    def test_gradient_is_taken_at_the_forward_weights(self, shared_vqc, rng):
        group = quantum_team(shared_vqc, n=3)
        obs = rng.uniform(size=(24, 3, 4))
        upstream = rng.normal(size=(24, 3, 4))
        _, expected = self.run_update(group, obs, upstream)
        group.zero_grad()
        log_probs = group.stacked_log_policies(obs)
        for actor in group.actors:
            actor.layer.weights.data += 0.3
        log_probs.backward(upstream)
        for actor, grad in zip(group.actors, expected):
            assert actor.layer.weights.grad.tobytes() == grad.tobytes()

    def test_second_backward_after_a_step(self, shared_vqc, rng):
        """The first backward leaves the kept states as it found them, so
        a second one after an optimizer step repeats its gradient."""
        group = quantum_team(shared_vqc, n=3)
        expectations = group._stacked_expectations(
            rng.uniform(size=(24, 3, 4))
        )
        upstream = rng.normal(size=expectations.shape)
        grads = []
        for _ in range(2):
            group.zero_grad()
            expectations.grad = None
            expectations.backward(upstream)
            grads.append([a.layer.weights.grad.tobytes() for a in group.actors])
            for actor in group.actors:
                actor.layer.weights.data -= 0.1 * actor.layer.weights.grad
        assert grads[0] == grads[1]


class TestBornPolicyHead:
    def test_probabilities_are_measurement_distribution(self, shared_vqc, rng):
        """The born head must equal the exact marginal measurement probs."""
        from repro.quantum import statevector as sv
        from repro.quantum.backends import StatevectorBackend

        actor = QuantumActor(shared_vqc, rng, policy_head="born")
        obs = rng.uniform(size=(3, 4))
        probs = actor.probabilities(obs)
        psi = StatevectorBackend().evolve(
            actor.layer.vqc.circuit, obs, actor.layer.weights.data
        )
        marginal = sv.marginal_probabilities(psi, (0, 1), 4)
        assert np.allclose(probs, marginal, atol=1e-7)

    def test_forward_matches_probabilities(self, shared_vqc, rng):
        from repro.nn.tensor import Tensor

        actor = QuantumActor(shared_vqc, rng, policy_head="born")
        obs = rng.uniform(size=(4, 4))
        assert np.allclose(
            actor(Tensor(obs)).data, actor.probabilities(obs), atol=1e-7
        )

    def test_log_policy_gradcheck(self, shared_vqc, rng):
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        actor = QuantumActor(shared_vqc, rng, policy_head="born")
        obs = rng.uniform(size=(2, 4))
        actions = np.array([0, 3])
        loss = F.gather(actor.log_policy(Tensor(obs)), actions).sum()
        loss.backward()
        w = actor.layer.weights
        eps, k = 1e-6, 5
        orig = w.data[k]

        def value():
            lp = actor.log_policy(Tensor(obs))
            return float(F.gather(lp, actions).sum().data)

        w.data[k] = orig + eps
        plus = value()
        w.data[k] = orig - eps
        minus = value()
        w.data[k] = orig
        assert abs((plus - minus) / (2 * eps) - w.grad[k]) < 1e-6

    def test_non_power_of_two_rejected(self, rng):
        vqc = build_vqc(4, 4, 8, seed=2,
                        observables=None)
        from repro.quantum.observables import all_z_observables
        from repro.quantum.vqc import VQC

        three_action = VQC(
            vqc.circuit, all_z_observables(4)[:3], vqc.template
        )
        with pytest.raises(ValueError, match="power-of-two"):
            QuantumActor(three_action, rng, policy_head="born")

    def test_unknown_head_rejected(self, shared_vqc, rng):
        with pytest.raises(ValueError, match="unknown policy head"):
            QuantumActor(shared_vqc, rng, policy_head="argmax")

    def test_group_batched_matches_individual(self, shared_vqc, rng):
        actors = [
            QuantumActor(shared_vqc, np.random.default_rng(i),
                         policy_head="born")
            for i in range(3)
        ]
        group = QuantumActorGroup(actors)
        observations = [rng.uniform(size=4) for _ in range(3)]
        team = group.team_probabilities(observations)
        individual = np.concatenate(
            [a.probabilities(o) for a, o in zip(actors, observations)]
        )
        assert np.allclose(team, individual, atol=1e-10)

    def test_mixed_heads_rejected(self, shared_vqc, rng):
        a = QuantumActor(shared_vqc, np.random.default_rng(0))
        b = QuantumActor(shared_vqc, np.random.default_rng(1),
                         policy_head="born")
        with pytest.raises(ValueError, match="policy head"):
            QuantumActorGroup([a, b])

    def test_with_backend_preserves_head(self, shared_vqc, rng):
        from repro.quantum.backends import StatevectorBackend

        actor = QuantumActor(shared_vqc, rng, policy_head="born")
        clone = actor.with_backend(StatevectorBackend())
        obs = rng.uniform(size=4)
        assert np.allclose(
            actor.probabilities(obs), clone.probabilities(obs), atol=1e-12
        )

    def test_framework_builds_with_born_head(self):
        from repro.config import SingleHopConfig, TrainingConfig, VQCConfig
        from repro.marl.frameworks import build_framework

        fw = build_framework(
            "proposed",
            env_config=SingleHopConfig(episode_limit=4),
            vqc_config=VQCConfig(actor_policy_head="born"),
            train_config=TrainingConfig(
                episodes_per_epoch=1, actor_lr=1e-3, critic_lr=1e-3
            ),
        )
        record = fw.trainer.train_epoch()
        assert np.isfinite(record["actor_loss"])
