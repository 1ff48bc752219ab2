"""Unit tests for centralised critics."""

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.critics import (
    ClassicalCentralCritic,
    QuantumCentralCritic,
    critic_pair_stackable,
    paired_critic_values,
)
from repro.marl.frameworks import build_framework
from repro.nn.tensor import Tensor
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.encoding import AngleEncoding
from repro.quantum.observables import all_z_observables
from repro.quantum.program import using_program
from repro.quantum.templates import BasicEntanglerTemplate
from repro.quantum.vqc import VQC, build_vqc


@pytest.fixture
def critic_vqc():
    return build_vqc(4, 16, 20, seed=5)


class TestQuantumCentralCritic:
    def test_forward_shape(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng, value_scale=10.0)
        values = critic(Tensor(rng.uniform(size=(6, 16))))
        assert values.shape == (6,)

    def test_values_match_forward(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng, value_scale=10.0)
        states = rng.uniform(size=(4, 16))
        assert np.allclose(critic.values(states), critic(Tensor(states)).data)

    def test_value_scale_bounds_output(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng, value_scale=10.0)
        values = critic.values(rng.uniform(size=(8, 16)))
        assert np.all(np.abs(values) <= 10.0 + 1e-9)

    def test_value_scale_is_linear(self, critic_vqc, rng):
        small = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(1), value_scale=1.0
        )
        large = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(1), value_scale=5.0
        )
        states = rng.uniform(size=(3, 16))
        assert np.allclose(5.0 * small.values(states), large.values(states))

    def test_parameter_budget_fixed_head(self, critic_vqc, rng):
        """Fixed scale keeps exactly the ansatz budget (Table II's 50)."""
        critic = QuantumCentralCritic(critic_vqc, rng)
        assert critic.n_parameters() == 20

    def test_trainable_head_adds_parameters(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng, trainable_head=True)
        assert critic.n_parameters() == 20 + 4 + 1

    def test_trainable_head_forward(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng, trainable_head=True)
        states = rng.uniform(size=(3, 16))
        assert critic(Tensor(states)).shape == (3,)
        assert np.allclose(critic.values(states), critic(Tensor(states)).data)

    def test_gradients_flow(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng, value_scale=10.0)
        values = critic(Tensor(rng.uniform(size=(2, 16))))
        (values * values).sum().backward()
        assert critic.layer.weights.grad is not None

    def test_1d_state_promoted_in_values(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, rng)
        assert critic.values(rng.uniform(size=16)).shape == (1,)


class TestClassicalCentralCritic:
    def test_forward_shape(self, rng):
        critic = ClassicalCentralCritic(16, (8,), rng)
        assert critic(Tensor(rng.normal(size=(5, 16)))).shape == (5,)

    def test_values_match_forward(self, rng):
        critic = ClassicalCentralCritic(16, (8,), rng)
        states = rng.normal(size=(4, 16))
        assert np.allclose(critic.values(states), critic(Tensor(states)).data)

    def test_comp1_parameter_budget(self, rng):
        critic = ClassicalCentralCritic(16, (3,), rng)
        assert critic.n_parameters() == 16 * 3 + 3 + 3 + 1  # 55, near 50

    def test_target_sync_via_state_dict(self, rng):
        critic = ClassicalCentralCritic(16, (4,), rng)
        target = ClassicalCentralCritic(16, (4,), np.random.default_rng(99))
        states = rng.normal(size=(3, 16))
        assert not np.allclose(critic.values(states), target.values(states))
        target.load_state_dict(critic.state_dict())
        assert np.allclose(critic.values(states), target.values(states))

    def test_quantum_target_sync(self, critic_vqc, rng):
        critic = QuantumCentralCritic(critic_vqc, np.random.default_rng(1))
        target = QuantumCentralCritic(critic_vqc, np.random.default_rng(2))
        states = rng.uniform(size=(3, 16))
        target.load_state_dict(critic.state_dict())
        assert np.allclose(critic.values(states), target.values(states))


class TestPairedCriticValues:
    """The batched online+target forward (one stacked circuit call)."""

    def quantum_pair(self, critic_vqc):
        critic = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(1), value_scale=10.0
        )
        target = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(2), value_scale=10.0
        )
        return critic, target

    def test_quantum_pair_is_stackable(self, critic_vqc):
        critic, target = self.quantum_pair(critic_vqc)
        assert critic_pair_stackable(critic, target)

    def test_structurally_distinct_circuits_also_stack(self, rng):
        """The framework builds online/target from separate build_vqc
        calls with one seed — different objects, same structure."""
        critic = QuantumCentralCritic(
            build_vqc(4, 16, 20, seed=5), np.random.default_rng(1)
        )
        target = QuantumCentralCritic(
            build_vqc(4, 16, 20, seed=5), np.random.default_rng(2)
        )
        assert critic_pair_stackable(critic, target)
        states = rng.uniform(size=(3, 16))
        next_states = rng.uniform(size=(3, 16))
        values, next_values = paired_critic_values(
            critic, target, states, next_states
        )
        assert np.allclose(values.data, critic.values(states), atol=1e-12)
        assert np.allclose(
            next_values, target.values(next_states), atol=1e-12
        )

    def test_non_stackable_pairs_fall_back(self, critic_vqc, rng):
        quantum = QuantumCentralCritic(critic_vqc, np.random.default_rng(1))
        classical = ClassicalCentralCritic(16, (4,), np.random.default_rng(2))
        head = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(3), trainable_head=True
        )
        shots = QuantumCentralCritic(
            critic_vqc,
            np.random.default_rng(4),
            backend=StatevectorBackend(shots=64, rng=np.random.default_rng(5)),
            gradient_method="parameter_shift",
        )
        different = QuantumCentralCritic(
            build_vqc(4, 16, 21, seed=6), np.random.default_rng(6)
        )
        assert not critic_pair_stackable(classical, classical)
        assert not critic_pair_stackable(quantum, classical)
        assert not critic_pair_stackable(quantum, head)
        assert not critic_pair_stackable(quantum, shots)
        assert not critic_pair_stackable(quantum, different)

    def test_fallback_is_bit_identical_to_two_pass(self, rng):
        critic = ClassicalCentralCritic(16, (4,), np.random.default_rng(1))
        target = ClassicalCentralCritic(16, (4,), np.random.default_rng(2))
        states = rng.normal(size=(5, 16))
        next_states = rng.normal(size=(5, 16))
        values, next_values = paired_critic_values(
            critic, target, states, next_states
        )
        assert np.array_equal(values.data, critic(Tensor(states)).data)
        assert np.array_equal(next_values, target.values(next_states))

    def test_stacked_forward_matches_two_pass(self, critic_vqc, rng):
        critic, target = self.quantum_pair(critic_vqc)
        states = rng.uniform(size=(6, 16))
        next_states = rng.uniform(size=(6, 16))
        values, next_values = paired_critic_values(
            critic, target, states, next_states
        )
        assert np.allclose(values.data, critic.values(states), atol=1e-12)
        assert np.allclose(
            next_values, target.values(next_states), atol=1e-12
        )

    def test_stacked_backward_matches_two_pass(self, critic_vqc, rng):
        critic, target = self.quantum_pair(critic_vqc)
        states = rng.uniform(size=(4, 16))
        next_states = rng.uniform(size=(4, 16))
        upstream = rng.normal(size=4)

        values, _ = paired_critic_values(critic, target, states, next_states)
        critic.zero_grad()
        (values * upstream).sum().backward()
        stacked_grad = critic.layer.weights.grad.copy()

        critic.zero_grad()
        (critic(Tensor(states)) * upstream).sum().backward()
        reference_grad = critic.layer.weights.grad.copy()

        assert np.allclose(stacked_grad, reference_grad, atol=1e-12)
        # The frozen target accumulated nothing.
        assert target.layer.weights.grad is None

    def test_folded_backward_matches_interpreted(self, critic_vqc, rng,
                                                 sweep_rows):
        """More than 2**n states: the online backward folds every row."""
        critic, target = self.quantum_pair(critic_vqc)
        states = rng.uniform(size=(24, 16))
        next_states = rng.uniform(size=(24, 16))
        upstream = rng.normal(size=24)
        grads = []
        for enabled in (True, False):
            critic.zero_grad()
            with using_program(enabled):
                values, _ = paired_critic_values(
                    critic, target, states, next_states
                )
                (values * upstream).sum().backward()
            grads.append(critic.layer.weights.grad.copy())
        assert sweep_rows == [2 * 16]
        assert np.allclose(grads[0], grads[1], atol=1e-12)

    def test_mismatched_shapes_rejected(self, critic_vqc, rng):
        critic, target = self.quantum_pair(critic_vqc)
        with pytest.raises(ValueError, match="must match"):
            paired_critic_values(
                critic, target,
                rng.uniform(size=(3, 16)), rng.uniform(size=(4, 16)),
            )


def _reuploading_critic_vqc():
    """16 features on 4 qubits in four encoding layers, each followed by a
    weight layer: the prefix holds 12 of the 16 weights."""
    circuit = QuantumCircuit(4)
    for layer in range(4):
        AngleEncoding(4).apply(circuit, feature_offset=4 * layer)
        BasicEntanglerTemplate(4, 1).apply(circuit, weight_offset=4 * layer)
    return VQC(circuit, all_z_observables(4), BasicEntanglerTemplate(4, 4))


def _on_policy_batch(seed=3, episode_limit=10):
    """A framework's critic pair and one on-policy 8-episode batch."""
    framework = build_framework(
        "proposed", seed=seed,
        env_config=SingleHopConfig(episode_limit=episode_limit),
        train_config=TrainingConfig(episodes_per_epoch=8, rollout_envs=8),
    )
    trainer = framework.trainer
    episodes, _ = trainer.collect_episodes(8)
    trainer.buffer.add_episodes(episodes)
    batch = trainer.buffer.batch()
    framework.close()
    return trainer.critic, trainer.target_critic, batch


class TestPairedUpdateReusesForward:
    """The online backward starts from the states and weights the paired
    forward ran, and the forward encodes each distinct state once; every
    value and gradient bit equals the path that simulates all rows again."""

    def pair(self, vqc):
        """An online/target pair after a target sync, the online critic
        then stepped away from the target."""
        critic = QuantumCentralCritic(vqc, np.random.default_rng(1),
                                      value_scale=10.0)
        target = QuantumCentralCritic(vqc, np.random.default_rng(2),
                                      value_scale=10.0)
        target.load_state_dict(critic.state_dict())
        critic.layer.weights.data += np.random.default_rng(3).normal(
            scale=0.1, size=critic.layer.weights.data.shape
        )
        return critic, target

    def run_update(self, critic, target, states, next_states, upstream):
        critic.zero_grad()
        values, next_values = paired_critic_values(
            critic, target, states, next_states
        )
        (values * upstream).sum().backward()
        return values.data, next_values, critic.layer.weights.grad.copy()

    @pytest.mark.parametrize("reuploading", [False, True])
    @pytest.mark.parametrize("batch", [6, 16, 40])  # vs 2**n = 16
    def test_bits_equal_recomputing_path(self, critic_vqc, batch, reuploading,
                                         recomputing):
        vqc = _reuploading_critic_vqc() if reuploading else critic_vqc
        critic, target = self.pair(vqc)
        rng = np.random.default_rng(batch)
        trajectory = rng.uniform(size=(batch + 1, 16))
        args = (trajectory[:-1], trajectory[1:], rng.normal(size=batch))
        got = self.run_update(critic, target, *args)
        recomputing()
        expected = self.run_update(critic, target, *args)
        for value, reference in zip(got, expected):
            assert value.tobytes() == reference.tobytes()
        assert target.layer.weights.grad is None

    def test_on_policy_batch_bits_equal_recomputing_path(self, recomputing):
        critic, target, batch = _on_policy_batch()
        upstream = np.random.default_rng(0).normal(size=len(batch.states))
        args = (batch.states, batch.next_states, upstream)
        got = self.run_update(critic, target, *args)
        recomputing()
        expected = self.run_update(critic, target, *args)
        for value, reference in zip(got, expected):
            assert value.tobytes() == reference.tobytes()

    def test_encodes_each_distinct_state_once(self, encoded_rows):
        critic, target, batch = _on_policy_batch()
        n_rows = len(batch.states)
        assert n_rows == 80
        encoded_rows.clear()  # the rollout's forwards
        paired_critic_values(critic, target, batch.states, batch.next_states)
        # Every next state but an episode's last is the following state.
        assert encoded_rows == [n_rows + 8]
        encoded_rows.clear()
        shuffled = np.random.default_rng(3).permutation(batch.next_states)
        # This shuffle leaves no next state beside an equal state.
        neighbours = (batch.states, np.roll(batch.states, -1, axis=0))
        assert not any((shuffled == s).all(axis=1).any() for s in neighbours)
        paired_critic_values(critic, target, batch.states, shuffled)
        assert encoded_rows == [2 * n_rows]

    def test_weighted_prefix_encodes_every_row(self, encoded_rows):
        critic, target = self.pair(_reuploading_critic_vqc())
        trajectory = np.random.default_rng(0).uniform(size=(41, 16))
        paired_critic_values(critic, target, trajectory[:-1], trajectory[1:])
        assert encoded_rows == [80]

    def test_folded_backward_simulates_nothing(self, critic_vqc, simulated):
        critic, target = self.pair(critic_vqc)
        trajectory = np.random.default_rng(0).uniform(size=(41, 16))
        values, _ = paired_critic_values(
            critic, target, trajectory[:-1], trajectory[1:]
        )
        simulated.clear()
        values.sum().backward()
        assert simulated == []

    @pytest.mark.parametrize("batch", [6, 40])  # row sweep and fold
    def test_gradient_is_taken_at_the_forward_weights(self, critic_vqc, batch):
        """A step between forward and backward (or a checkpoint load) must
        not change the gradient of values the forward already produced."""
        critic, target = self.pair(critic_vqc)
        rng = np.random.default_rng(batch)
        states = rng.uniform(size=(batch, 16))
        next_states = rng.uniform(size=(batch, 16))
        upstream = rng.normal(size=batch)
        _, _, expected = self.run_update(
            critic, target, states, next_states, upstream
        )
        critic.zero_grad()
        values, _ = paired_critic_values(critic, target, states, next_states)
        critic.layer.weights.data += 0.3
        (values * upstream).sum().backward()
        assert critic.layer.weights.grad.tobytes() == expected.tobytes()

    def test_second_backward_after_a_step(self, critic_vqc):
        """The first backward leaves the kept states as it found them, so
        a second one after an optimizer step repeats its gradient."""
        critic, target = self.pair(critic_vqc)
        rng = np.random.default_rng(0)
        trajectory = rng.uniform(size=(41, 16))
        upstream = rng.normal(size=40)
        values, _ = paired_critic_values(
            critic, target, trajectory[:-1], trajectory[1:]
        )
        grads = []
        for _ in range(2):
            critic.zero_grad()
            values.grad = None
            values.backward(upstream)
            grads.append(critic.layer.weights.grad.tobytes())
            critic.layer.weights.data -= 0.1 * critic.layer.weights.grad
        assert grads[0] == grads[1]
