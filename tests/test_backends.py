"""Unit tests for the execution backends."""

import numpy as np
import pytest

from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.channels import NoiseModel
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.observables import Hamiltonian, PauliString, all_z_observables
from repro.quantum.vqc import build_vqc


def simple_circuit():
    circuit = QuantumCircuit(2)
    circuit.add("rx", (0,), ParameterRef.input(0))
    circuit.add("ry", (1,), ParameterRef.input(1))
    circuit.add("cnot", (0, 1))
    circuit.add("rz", (1,), ParameterRef.weight(0))
    circuit.add("crx", (1, 0), ParameterRef.weight(1))
    return circuit


class TestStatevectorBackend:
    def test_run_shape(self, rng):
        circuit = simple_circuit()
        backend = StatevectorBackend()
        inputs = rng.uniform(size=(5, 2))
        out = backend.run(circuit, all_z_observables(2), inputs, [0.3, 0.4])
        assert out.shape == (5, 2)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_1d_input_promoted(self):
        circuit = simple_circuit()
        backend = StatevectorBackend()
        out = backend.run(circuit, all_z_observables(2), [0.1, 0.2], [0.0, 0.0])
        assert out.shape == (1, 2)

    def test_run_without_inputs(self):
        circuit = QuantumCircuit(1)
        circuit.add("x", (0,))
        backend = StatevectorBackend()
        out = backend.run(circuit, [PauliString.z(0)], batch_size=3)
        assert out.shape == (3, 1)
        assert np.allclose(out, -1.0)

    def test_missing_inputs_raises(self):
        backend = StatevectorBackend()
        with pytest.raises(ValueError):
            backend.run(simple_circuit(), all_z_observables(2), None, [0.1, 0.2])

    def test_too_few_features_raises(self):
        backend = StatevectorBackend()
        with pytest.raises(ValueError):
            backend.run(
                simple_circuit(), all_z_observables(2), np.zeros((1, 1)), [0.1, 0.2]
            )

    def test_probabilities(self, rng):
        circuit = simple_circuit()
        backend = StatevectorBackend()
        probs = backend.probabilities(circuit, rng.uniform(size=(3, 2)), [0.5, 0.1])
        assert probs.shape == (3, 4)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_hamiltonian_observable(self, rng):
        circuit = simple_circuit()
        backend = StatevectorBackend()
        inputs = rng.uniform(size=(3, 2))
        weights = [0.5, 0.1]
        z0, z1 = all_z_observables(2)
        ham = Hamiltonian([2.0, -1.0], [z0, z1])
        combined = backend.run(circuit, [ham], inputs, weights)
        separate = backend.run(circuit, [z0, z1], inputs, weights)
        assert np.allclose(combined[:, 0], 2 * separate[:, 0] - separate[:, 1])

    def test_unsupported_observable_type(self):
        backend = StatevectorBackend()
        with pytest.raises(TypeError):
            backend.run(simple_circuit(), ["Z0"], np.zeros((1, 2)), [0.0, 0.0])

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            StatevectorBackend(shots=0)

    @pytest.mark.parametrize(
        "backend", [StatevectorBackend, DensityMatrixBackend]
    )
    def test_fractional_shots_rejected_at_construction(self, backend):
        """2.5 shots used to construct and raise ``TypeError`` on the first
        sampled run."""
        with pytest.raises(ValueError, match="^shots must be an integer"):
            backend(shots=2.5)


class TestAllZMeasurement:
    """A list made only of non-identity Z strings is recognised by one
    cached lookup; every other list keeps the per-observable path."""

    @staticmethod
    def _states(rng, n_qubits=3, batch=4):
        psi = rng.normal(size=(batch, 2**n_qubits)) + 1j * rng.normal(
            size=(batch, 2**n_qubits)
        )
        return psi / np.linalg.norm(psi, axis=1, keepdims=True)

    def test_cached_lookup_skips_classification(self, rng, monkeypatch):
        backend = StatevectorBackend()
        observables = all_z_observables(3) + [PauliString({0: "Z", 2: "Z"})]
        psi = self._states(rng)
        first = backend.measure(psi, observables, 3)
        reads = []
        is_diagonal = PauliString.is_diagonal

        def counting(obs):
            reads.append(1)
            return is_diagonal.fget(obs)

        monkeypatch.setattr(PauliString, "is_diagonal", property(counting))
        again = backend.measure(psi, observables, 3)
        assert reads == []
        assert again.tobytes() == first.tobytes()
        for column, obs in zip(again.T, observables):
            assert np.allclose(column, obs.expectation(psi, 3), atol=1e-12)

    def test_changed_list_is_reclassified(self, rng):
        backend = StatevectorBackend()
        observables = all_z_observables(3)
        psi = self._states(rng)
        backend.measure(psi, observables, 3)
        observables[1] = PauliString.z(2)
        out = backend.measure(psi, observables, 3)
        assert np.allclose(out[:, 1], PauliString.z(2).expectation(psi, 3))

    def test_mixed_list_equals_each_alone(self, rng):
        backend = StatevectorBackend()
        hamiltonian = Hamiltonian(
            [0.5, -1.5], [PauliString({0: "X", 1: "Z"}), PauliString.z(2)]
        )
        observables = [
            PauliString.z(0),
            PauliString({1: "X"}),
            PauliString.z(2),
            PauliString(),
            hamiltonian,
            PauliString({0: "Z", 1: "Z"}),
        ]
        psi = self._states(rng)
        out = backend.measure(psi, observables, 3)
        assert out.shape == (4, len(observables))
        for column, obs in zip(out.T, observables):
            alone = backend.measure(psi, [obs], 3)[:, 0]
            assert np.allclose(column, alone, atol=1e-12)
        assert np.allclose(out[:, 3], 1.0)


class TestShotSampling:
    def test_shot_estimate_close_to_exact(self, rng):
        vqc = build_vqc(3, 3, 12, seed=2)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(2, 3))
        exact = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        sampled = StatevectorBackend(shots=40000, rng=rng).run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert np.max(np.abs(exact - sampled)) < 0.05

    def test_x_observable_basis_rotation(self, rng):
        # <X> of |+> is exactly +1, so sampling must return all +1.
        circuit = QuantumCircuit(1)
        circuit.add("h", (0,))
        backend = StatevectorBackend(shots=64, rng=rng)
        out = backend.run(circuit, [PauliString({0: "X"})], batch_size=1)
        assert np.allclose(out, 1.0)

    def test_y_observable_basis_rotation(self, rng):
        # RX(-pi/2)|0> is the +1 eigenstate of Y.
        circuit = QuantumCircuit(1)
        circuit.add("rx", (0,), ParameterRef.fixed(-np.pi / 2))
        backend = StatevectorBackend(shots=64, rng=rng)
        out = backend.run(circuit, [PauliString({0: "Y"})], batch_size=1)
        assert np.allclose(out, 1.0)

    def test_shot_noise_scales_down(self, rng):
        vqc = build_vqc(2, 2, 6, seed=4)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(1, 2))
        exact = StatevectorBackend().run(vqc.circuit, vqc.observables, inputs, weights)

        def error(shots, reps=12):
            errors = []
            for _ in range(reps):
                est = StatevectorBackend(shots=shots, rng=rng).run(
                    vqc.circuit, vqc.observables, inputs, weights
                )
                errors.append(np.abs(est - exact).mean())
            return np.mean(errors)

        assert error(2048) < error(32)


class TestDensityMatrixBackend:
    def test_noiseless_matches_statevector(self, rng):
        vqc = build_vqc(3, 6, 15, seed=5)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(4, 6))
        exact = StatevectorBackend().run(vqc.circuit, vqc.observables, inputs, weights)
        dense = DensityMatrixBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert np.allclose(exact, dense, atol=1e-10)

    def test_noise_attenuates_expectations(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(6, 2))
        clean = DensityMatrixBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        noisy = DensityMatrixBackend(NoiseModel(0.05)).run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert np.mean(np.abs(noisy)) < np.mean(np.abs(clean))

    def test_noisy_probabilities_sum_to_one(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)
        backend = DensityMatrixBackend(NoiseModel(0.1))
        probs = backend.probabilities(
            vqc.circuit, rng.uniform(size=(3, 2)), weights
        )
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shots_on_density_backend(self, rng):
        circuit = QuantumCircuit(1)
        circuit.add("h", (0,))
        backend = DensityMatrixBackend(shots=64, rng=rng)
        out = backend.run(circuit, [PauliString({0: "X"})], batch_size=1)
        assert np.allclose(out, 1.0)

    def test_supports_adjoint_flag(self):
        assert StatevectorBackend().supports_adjoint
        assert not DensityMatrixBackend().supports_adjoint

    def test_repr(self):
        assert "shots=None" in repr(StatevectorBackend())
        assert "NoiseModel" in repr(DensityMatrixBackend())
