"""The program tier's compiled trailing block (cached variational unitaries).

Everything after the last input-dependent gate (:func:`split_index`) runs
as one unitary per weight row
(:meth:`~repro.quantum.program.CircuitProgram.suffix_unitary`), cached by
weight content.  Pinned here: equivalence with the interpreted tier, the
cache, the grouped weight contract and the actor-team integration.
"""

import numpy as np
import pytest

from repro.marl.actors import QuantumActor, QuantumActorGroup
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.program import compile_program, split_index, using_program
from repro.quantum.vqc import build_vqc


def _interpreted():
    return StatevectorBackend(program=False)


class TestSplitIndex:
    def test_standard_vqc_splits_after_encoding(self):
        vqc = build_vqc(4, 16, 50, seed=1)
        assert split_index(vqc.circuit) == 16
        assert compile_program(vqc.circuit).split == 16

    def test_no_inputs_compiles_everything(self):
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("cnot", (0, 1))
        assert split_index(circuit) == 0

    def test_interleaved_inputs_limit_suffix(self):
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("ry", (0,), ParameterRef.input(0))
        circuit.add("rz", (1,), ParameterRef.weight(1))
        assert split_index(circuit) == 2


class TestCompiledEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_uncompiled_backend(self, rng, seed):
        vqc = build_vqc(4, 8, 30, seed=seed)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(6, 8))
        exact = _interpreted().run(vqc.circuit, vqc.observables, inputs, weights)
        program = compile_program(vqc.circuit)
        psi = program.apply_suffix(
            program.prefix_states(inputs, weights, 6),
            program.suffix_unitary(weights),
        )
        compiled = StatevectorBackend().measure(psi, vqc.observables, 4)
        assert np.allclose(compiled, exact, atol=1e-12)

    def test_per_sample_weights_match(self, rng):
        vqc = build_vqc(3, 3, 12, seed=4)
        weights = np.stack([vqc.initial_weights(rng) for _ in range(4)])
        inputs = rng.uniform(size=(4, 3))
        exact = _interpreted().run(vqc.circuit, vqc.observables, inputs, weights)
        compiled = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert np.allclose(compiled, exact, atol=1e-12)

    def test_suffix_unitary_is_unitary(self, rng):
        vqc = build_vqc(3, 3, 15, seed=5)
        weights = vqc.initial_weights(rng)
        unitary = compile_program(vqc.circuit).suffix_unitary(weights)
        assert unitary.shape == (1, 8, 8)
        assert np.allclose(
            unitary[0] @ unitary[0].conj().T, np.eye(8), atol=1e-10
        )

    def test_evolve_without_inputs(self, rng):
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("rx", (1,), ParameterRef.weight(0))
        psi = compile_program(circuit).evolve(
            None, np.array([[0.7]]), batch_size=3
        )
        exact = _interpreted().evolve(
            circuit, None, np.array([0.7]), batch_size=3
        )
        assert np.allclose(psi, exact, atol=1e-12)


class TestCaching:
    def test_cache_hit_returns_same_object(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)
        program = compile_program(vqc.circuit)
        first = program.suffix_unitary(weights)
        second = program.suffix_unitary(weights.copy())
        assert first is second  # content-equal weights hit the cache

    def test_inplace_mutation_invalidates(self, rng):
        """Adam mutates weight arrays in place; the cache must notice."""
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = vqc.initial_weights(rng)[None]
        backend = StatevectorBackend()
        inputs = rng.uniform(size=(2, 2))
        before = backend.run(vqc.circuit, vqc.observables, inputs, weights)
        weights += 0.3  # in-place update, same array object
        after = backend.run(vqc.circuit, vqc.observables, inputs, weights)
        exact = _interpreted().run(vqc.circuit, vqc.observables, inputs, weights)
        assert not np.allclose(before, after)
        assert np.allclose(after, exact, atol=1e-12)

    def test_weight_row_mismatch_rejected(self, rng):
        vqc = build_vqc(2, 2, 8, seed=6)
        weights = np.stack([vqc.initial_weights(rng) for _ in range(3)])
        for backend in (StatevectorBackend(), _interpreted()):
            with pytest.raises(ValueError, match="3 weight rows for batch 2"):
                backend.run(
                    vqc.circuit, vqc.observables, rng.uniform(size=(2, 2)),
                    weights,
                )

    def test_ensemble_weights_cycle_over_batch(self, rng):
        """Batch k*G with G weight rows: row b uses weight row b % G."""
        vqc = build_vqc(3, 3, 12, seed=5)
        n_sets, k = 3, 4
        weights = np.stack([vqc.initial_weights(rng) for _ in range(n_sets)])
        inputs = rng.uniform(size=(k * n_sets, 3))
        backend = StatevectorBackend()
        outputs = backend.run(vqc.circuit, vqc.observables, inputs, weights)
        exact = _interpreted().run(
            vqc.circuit, vqc.observables, inputs, np.tile(weights, (k, 1))
        )
        assert np.allclose(outputs, exact, atol=1e-12)
        # Only the distinct unitaries are cached, independently of k.
        program = compile_program(vqc.circuit)
        cached = program.suffix_unitary(weights)
        assert cached.shape[0] == n_sets
        backend.run(vqc.circuit, vqc.observables, inputs[: 2 * n_sets], weights)
        assert program.suffix_unitary(weights) is cached

    def test_repr(self):
        vqc = build_vqc(2, 2, 8, seed=6)
        assert "split=2" in repr(compile_program(vqc.circuit))


class TestActorGroupIntegration:
    def test_compiled_group_matches_uncompiled(self, rng):
        vqc = build_vqc(4, 4, 20, seed=7)
        actors = [QuantumActor(vqc, np.random.default_rng(i)) for i in range(4)]
        group = QuantumActorGroup(actors)
        observations = [rng.uniform(size=4) for _ in range(4)]
        compiled = group.team_probabilities(observations)
        with using_program(False):
            interpreted = group.team_probabilities(observations)
        assert np.allclose(compiled, interpreted, atol=1e-12)

    def test_compiled_group_tracks_training_updates(self, rng):
        vqc = build_vqc(4, 4, 20, seed=7)
        actors = [QuantumActor(vqc, np.random.default_rng(i)) for i in range(4)]
        group = QuantumActorGroup(actors)
        observations = [rng.uniform(size=4) for _ in range(4)]
        before = group.team_probabilities(observations)
        for actor in actors:
            actor.layer.weights.data += 0.2  # simulated optimiser step
        after = group.team_probabilities(observations)
        individual = np.concatenate(
            [a.probabilities(o) for a, o in zip(actors, observations)]
        )
        assert not np.allclose(before, after)
        assert np.allclose(after, individual, atol=1e-12)
