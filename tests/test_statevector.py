"""Unit tests for the batched statevector simulator."""

import sys
import threading

import numpy as np
import pytest

from repro.quantum import gates
from repro.quantum import statevector as sv

from tests.helpers import full_gate_matrix, random_state


class TestStates:
    def test_zero_state(self):
        psi = sv.zero_state(3, batch_size=2)
        assert psi.shape == (2, 8)
        assert np.allclose(psi[:, 0], 1.0)
        assert np.allclose(psi[:, 1:], 0.0)

    def test_basis_state(self):
        psi = sv.basis_state(2, 3)
        assert np.allclose(psi[0], [0, 0, 0, 1])

    def test_basis_state_out_of_range(self):
        with pytest.raises(ValueError):
            sv.basis_state(2, 4)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            sv.zero_state(0)

    def test_norms_and_normalize(self, rng):
        psi = rng.normal(size=(3, 4)) + 0j
        normalised = sv.normalize(psi)
        assert np.allclose(sv.norms(normalised), 1.0)

    def test_normalize_zero_state_raises(self):
        with pytest.raises(ValueError):
            sv.normalize(np.zeros((1, 4), dtype=complex))


class TestApplyMatrix:
    @pytest.mark.parametrize("wire", [0, 1, 2])
    def test_single_qubit_matches_kron_oracle(self, rng, wire):
        psi = random_state(rng, 3, batch=2)
        out = sv.apply_matrix(psi, gates.HADAMARD, (wire,), 3)
        oracle = full_gate_matrix(gates.HADAMARD, (wire,), 3)
        assert np.allclose(out, psi @ oracle.T)

    @pytest.mark.parametrize("wires", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    def test_two_qubit_matches_kron_oracle(self, rng, wires):
        psi = random_state(rng, 3, batch=2)
        out = sv.apply_matrix(psi, gates.CNOT, wires, 3)
        oracle = full_gate_matrix(gates.CNOT, wires, 3)
        assert np.allclose(out, psi @ oracle.T)

    def test_three_qubit_toffoli(self, rng):
        psi = random_state(rng, 4, batch=2)
        out = sv.apply_matrix(psi, gates.TOFFOLI, (0, 2, 3), 4)
        oracle = full_gate_matrix(gates.TOFFOLI, (0, 2, 3), 4)
        assert np.allclose(out, psi @ oracle.T)

    def test_batched_matrix_per_sample(self, rng):
        psi = random_state(rng, 2, batch=3)
        thetas = np.array([0.1, 0.9, -0.4])
        out = sv.apply_matrix(psi, gates.rx(thetas), (1,), 2)
        for b, theta in enumerate(thetas):
            expected = sv.apply_matrix(psi[b : b + 1], gates.rx(theta), (1,), 2)
            assert np.allclose(out[b], expected[0])

    def test_norm_preserved_by_unitary(self, rng):
        psi = random_state(rng, 3, batch=4)
        out = sv.apply_matrix(psi, gates.cry(1.3), (2, 0), 3)
        assert np.allclose(sv.norms(out), 1.0)

    def test_duplicate_wires_rejected(self, rng):
        psi = random_state(rng, 2)
        with pytest.raises(ValueError):
            sv.apply_matrix(psi, gates.CNOT, (0, 0), 2)

    def test_wire_out_of_range(self, rng):
        psi = random_state(rng, 2)
        with pytest.raises(ValueError):
            sv.apply_matrix(psi, gates.HADAMARD, (2,), 2)

    def test_wrong_matrix_shape(self, rng):
        psi = random_state(rng, 2)
        with pytest.raises(ValueError):
            sv.apply_matrix(psi, gates.CNOT, (0,), 2)

    def test_batch_mismatch(self, rng):
        psi = random_state(rng, 2, batch=2)
        with pytest.raises(ValueError):
            sv.apply_matrix(psi, gates.rx(np.zeros(3)), (0,), 2)

    def test_input_not_modified(self, rng):
        psi = random_state(rng, 2)
        snapshot = psi.copy()
        sv.apply_matrix(psi, gates.PAULI_X, (0,), 2)
        assert np.allclose(psi, snapshot)


class TestApplyGate:
    def test_named_gate(self):
        psi = sv.zero_state(1)
        out = sv.apply_gate(psi, "x", (0,), 1)
        assert np.allclose(out[0], [0, 1])

    def test_named_rotation(self):
        psi = sv.zero_state(1)
        out = sv.apply_gate(psi, "ry", (0,), 1, np.pi)
        assert np.allclose(out[0], [0, 1], atol=1e-12)

    def test_arity_mismatch(self):
        psi = sv.zero_state(2)
        with pytest.raises(ValueError):
            sv.apply_gate(psi, "cnot", (0,), 2)


class TestMeasurement:
    def test_probabilities_sum_to_one(self, rng):
        psi = random_state(rng, 3, batch=5)
        probs = sv.probabilities(psi)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_marginal_of_product_state(self):
        # |0> (x) |1>: marginal over wire 1 is deterministic |1>.
        psi = sv.basis_state(2, 1)
        marginal = sv.marginal_probabilities(psi, (1,), 2)
        assert np.allclose(marginal[0], [0, 1])

    def test_marginal_wire_order(self, rng):
        psi = random_state(rng, 3)
        forward = sv.marginal_probabilities(psi, (0, 2), 3)
        swapped = sv.marginal_probabilities(psi, (2, 0), 3)
        # Outcome (a, b) under (0,2) equals outcome (b, a) under (2,0).
        forward = forward.reshape(2, 2)
        swapped = swapped.reshape(2, 2)
        assert np.allclose(forward, swapped.T)

    def test_marginal_all_wires_is_full(self, rng):
        psi = random_state(rng, 2)
        assert np.allclose(
            sv.marginal_probabilities(psi, (0, 1), 2), sv.probabilities(psi)
        )

    def test_expectation_z_basis_states(self):
        psi = sv.zero_state(2)
        assert np.allclose(sv.expectation_pauli_z(psi, 0, 2), 1.0)
        flipped = sv.apply_gate(psi, "x", (0,), 2)
        assert np.allclose(sv.expectation_pauli_z(flipped, 0, 2), -1.0)
        assert np.allclose(sv.expectation_pauli_z(flipped, 1, 2), 1.0)

    def test_expectation_z_superposition(self):
        psi = sv.apply_gate(sv.zero_state(1), "h", (0,), 1)
        assert np.allclose(sv.expectation_pauli_z(psi, 0, 1), 0.0, atol=1e-12)

    def test_sampling_distribution(self, rng):
        psi = sv.apply_gate(sv.zero_state(1), "ry", (0,), 1, np.pi / 3)
        expected_p1 = np.sin(np.pi / 6) ** 2
        samples = sv.sample_bitstrings(psi, 20000, rng)
        assert abs(samples.mean() - expected_p1) < 0.02

    def test_sampling_shape(self, rng):
        psi = sv.zero_state(2, batch_size=3)
        samples = sv.sample_bitstrings(psi, 7, rng)
        assert samples.shape == (3, 7)
        assert np.all(samples == 0)

    def test_sampling_requires_positive_shots(self, rng):
        with pytest.raises(ValueError):
            sv.sample_bitstrings(sv.zero_state(1), 0, rng)

    def test_inner_products(self, rng):
        psi = random_state(rng, 2, batch=3)
        assert np.allclose(sv.inner_products(psi, psi), 1.0)

    def test_probabilities_thread_safe(self, rng):
        """Two threads measuring same-shape batches (serving's reload
        watcher and event loop) each get their own state's probabilities."""
        calls = 5000
        states = [random_state(rng, 4, batch=4) for _ in range(2)]
        expected = [psi.real * psi.real + psi.imag * psi.imag for psi in states]
        wrong = [0, 0]
        barrier = threading.Barrier(2)

        def measure(slot):
            barrier.wait()
            for _ in range(calls):
                if not np.array_equal(sv.probabilities(states[slot]), expected[slot]):
                    wrong[slot] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=measure, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [0, 0]


class TestStatevectorClass:
    def test_chaining(self):
        state = sv.Statevector(2).apply("h", (0,)).apply("cnot", (0, 1))
        probs = state.probabilities()[0]
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_expectation_z(self):
        state = sv.Statevector(1).apply("x", (0,))
        assert np.allclose(state.expectation_z(0), -1.0)

    def test_copy_is_independent(self):
        state = sv.Statevector(1)
        dup = state.copy()
        dup.apply("x", (0,))
        assert np.allclose(state.data[0], [1, 0])

    def test_from_data_1d(self):
        state = sv.Statevector(1, data=np.array([0, 1], dtype=complex))
        assert state.batch_size == 1
        assert np.allclose(state.expectation_z(0), -1.0)

    def test_bad_data_dim(self):
        with pytest.raises(ValueError):
            sv.Statevector(2, data=np.zeros(3, dtype=complex))

    def test_repr(self):
        assert "n_qubits=2" in repr(sv.Statevector(2))
