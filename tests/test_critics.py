"""Unit tests for centralised critics."""

import numpy as np
import pytest

from repro.marl.critics import (
    ClassicalCentralCritic,
    QuantumCentralCritic,
    critic_pair_stackable,
    paired_critic_values,
)
from repro.nn.tensor import Tensor
from repro.quantum.backends import StatevectorBackend
from repro.quantum.program import using_program
from repro.quantum.vqc import build_vqc


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
