"""Equivalence and structure tests for the program-compiled kernel tier.

The contract under test: :class:`repro.quantum.program.CircuitProgram`
execution (fused diagonal / gather / dense kernels, the cached trailing-block
unitaries) and the program-compiled adjoint sweep are numerically identical
— ``allclose`` at 1e-12, usually bit-identical — to the interpreted per-gate
reference path, across every registered gate, batched encoding angles and
grouped 2-D weights.  Fusion must never merge across an input-dependent
operation.

The equivalence suites run on fresh programs and on reused ones whose
trailing-block cache holds other weights' unitaries (the ``program_state``
fixture).
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.quantum import program as qprog
from repro.quantum import statevector as sv
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import Operation, ParameterRef, QuantumCircuit
from repro.quantum.encoding import (
    AngleEncoding,
    DataReuploadingEncoding,
    MultiLayerAngleEncoding,
)
from repro.quantum.templates import BasicEntanglerTemplate
from repro.quantum.gates import GATE_REGISTRY
from repro.quantum.gradients import adjoint_backward
from repro.quantum.observables import Hamiltonian, PauliString, all_z_observables
from repro.quantum.program import (
    CircuitProgram,
    compile_program,
    using_program,
)
from repro.quantum.vqc import build_vqc

ATOL = 1e-12


def _interpreted():
    return StatevectorBackend(program=False)


def _all_gates_circuit():
    """One circuit touching every gate in the registry, mixed param kinds."""
    circuit = QuantumCircuit(4)
    circuit.add("i", (1,))
    circuit.add("x", (0,))
    circuit.add("y", (2,))
    circuit.add("z", (3,))
    circuit.add("h", (0,))
    circuit.add("s", (1,))
    circuit.add("t", (2,))
    circuit.add("cnot", (2, 0))
    circuit.add("cz", (1, 3))
    circuit.add("swap", (0, 3))
    circuit.add("toffoli", (3, 1, 2))
    circuit.add("rx", (0,), ParameterRef.input(0, scale=np.pi))
    circuit.add("ry", (1,), ParameterRef.input(1, scale=0.5))
    circuit.add("rz", (2,), ParameterRef.input(2))
    circuit.add("crx", (3, 1), ParameterRef.weight(0))
    circuit.add("cry", (0, 2), ParameterRef.weight(1, scale=2.0))
    circuit.add("crz", (2, 3), ParameterRef.weight(2))
    circuit.add("rx", (1,), ParameterRef.fixed(0.3))
    circuit.add("rz", (0,), ParameterRef.weight(3))
    circuit.add("cnot", (0, 1))
    circuit.add("cnot", (1, 2))
    circuit.add("cnot", (2, 3))
    assert set(circuit.gate_counts()) == set(GATE_REGISTRY)
    return circuit


def _random_circuit(rng, n_qubits=4, n_ops=40):
    """Random circuit over the full registry with random parameter kinds."""
    names = list(GATE_REGISTRY)
    circuit = QuantumCircuit(n_qubits)
    n_weights = 0
    for _ in range(n_ops):
        spec = GATE_REGISTRY[names[rng.integers(len(names))]]
        if spec.n_qubits > n_qubits:
            continue
        wires = tuple(
            rng.choice(n_qubits, size=spec.n_qubits, replace=False).tolist()
        )
        param = None
        if spec.n_params:
            kind = rng.integers(3)
            if kind == 0:
                param = ParameterRef.input(
                    int(rng.integers(4)), scale=float(rng.uniform(0.5, 2.0))
                )
            elif kind == 1:
                param = ParameterRef.weight(
                    n_weights, scale=float(rng.uniform(0.5, 2.0))
                )
                n_weights += 1
            else:
                param = ParameterRef.fixed(float(rng.uniform(-np.pi, np.pi)))
        circuit.add(spec.name, wires, param)
    return circuit, n_weights


class TestProgramEquivalence:
    @pytest.mark.usefixtures("program_state")
    def test_all_registered_gates(self, rng):
        circuit = _all_gates_circuit()
        inputs = rng.uniform(size=(6, 3))
        weights = rng.uniform(-np.pi, np.pi, size=4)
        exact = _interpreted().evolve(circuit, inputs, weights)
        out = compile_program(circuit).evolve(inputs, weights, batch_size=6)
        assert np.allclose(out, exact, atol=ATOL)

    @pytest.mark.usefixtures("program_state")
    def test_all_gates_per_sample_weights(self, rng):
        circuit = _all_gates_circuit()
        inputs = rng.uniform(size=(5, 3))
        weights = rng.uniform(-np.pi, np.pi, size=(5, 4))
        exact = _interpreted().evolve(circuit, inputs, weights)
        out = compile_program(circuit).evolve(inputs, weights, batch_size=5)
        assert np.allclose(out, exact, atol=ATOL)

    @pytest.mark.usefixtures("program_state")
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit, n_weights = _random_circuit(rng)
        inputs = rng.uniform(size=(4, 4))
        weights = rng.uniform(-np.pi, np.pi, size=max(n_weights, 1))
        exact = _interpreted().evolve(circuit, inputs, weights)
        out = compile_program(circuit).evolve(inputs, weights, batch_size=4)
        assert np.allclose(out, exact, atol=ATOL)

    @pytest.mark.usefixtures("program_state")
    def test_standard_vqc_batched_encoding(self, rng):
        vqc = build_vqc(4, 16, 50, seed=7)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(9, 16))
        exact = _interpreted().run(vqc.circuit, vqc.observables, inputs, weights)
        program_out = StatevectorBackend(program=True).run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert np.allclose(program_out, exact, atol=ATOL)

    @pytest.mark.usefixtures("program_state")
    def test_backend_follows_global_switch(self, rng):
        vqc = build_vqc(3, 3, 9, seed=2)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(2, 3))
        backend = StatevectorBackend()
        with using_program(False):
            interpreted = backend.run(vqc.circuit, vqc.observables, inputs, weights)
        with using_program(True):
            compiled = backend.run(vqc.circuit, vqc.observables, inputs, weights)
        assert np.allclose(compiled, interpreted, atol=ATOL)

    def test_weights_required_error_matches(self):
        circuit = QuantumCircuit(1)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        with pytest.raises(ValueError, match="references weights"):
            compile_program(circuit).evolve(None, None, batch_size=1)

    def test_short_per_sample_weights_rejected_like_interpreted(self, rng):
        """4 weight rows cannot cycle over batch 6: both tiers raise the
        same error instead of silently broadcasting."""
        circuit = QuantumCircuit(2)
        circuit.add("ry", (1,), ParameterRef.input(0))
        circuit.add("rx", (0,), ParameterRef.weight(0))
        inputs = rng.uniform(size=(6, 1))
        weights = rng.uniform(size=(4, 1))
        program = compile_program(circuit)
        for run in (
            lambda: _interpreted().evolve(circuit, inputs, weights),
            lambda: program.evolve(inputs, weights, batch_size=6),
        ):
            with pytest.raises(ValueError, match="4 weight rows for batch 6"):
                run()

    def test_recompiles_after_circuit_mutation(self, rng):
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        first = compile_program(circuit)
        circuit.add("cnot", (0, 1))
        second = compile_program(circuit)
        assert first is not second
        exact = _interpreted().evolve(circuit, batch_size=1)
        assert np.allclose(second.evolve(batch_size=1), exact, atol=ATOL)

    def test_cache_hit_returns_same_program(self):
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        assert compile_program(circuit) is compile_program(circuit)

    def test_recompiles_after_operation_replacement(self):
        """Equal length, a different gate in the middle: the cache's one
        tuple comparison still sees the change."""
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("x", (1,))
        circuit.add("cnot", (0, 1))
        first = compile_program(circuit)
        circuit.operations[1] = Operation("y", (1,))
        second = compile_program(circuit)
        assert second is not first
        assert second.operations[1].gate == "y"
        exact = _interpreted().evolve(circuit, batch_size=1)
        assert np.allclose(second.evolve(batch_size=1), exact, atol=ATOL)


class TestFusion:
    def test_fusion_never_crosses_input_ops(self, rng):
        """Regression: input-dependent ops are fusion barriers."""
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("ry", (0,), ParameterRef.input(0))
        circuit.add("rz", (0,), ParameterRef.weight(1))
        circuit.add("h", (0,))
        program = compile_program(circuit)
        for step in program.steps:
            if len(step.ops) > 1:
                assert not any(op.is_input for op in step.ops)
        # The input op must sit alone between the weight/fixed runs.
        kinds = [step.kind for step in program.steps]
        assert "prot" in kinds  # the lone input ry
        flattened = [op for step in program.steps for op in step.ops]
        assert flattened == list(circuit.operations)  # order preserved

    def test_reuploading_circuit_fuses_between_blocks(self, rng):
        """Interleaved encode/variational blocks: constant runs fuse, while
        input and weight gates keep their own plans."""
        circuit = QuantumCircuit(2)
        encoder = DataReuploadingEncoding(AngleEncoding(2), n_repeats=2)
        index = 0
        for repeat in range(2):
            encoder.apply(circuit)
            circuit.add("rx", (0,), ParameterRef.weight(index))
            circuit.add("h", (1,))
            circuit.add("cnot", (0, 1))
            circuit.add("rz", (0,), ParameterRef.weight(index + 1))
            index += 2
        program = compile_program(circuit)
        fused = [step for step in program.steps if len(step.ops) > 1]
        assert len(fused) == 2  # h + cnot, once per block
        for step in fused:
            assert step.kind == "dense"
            assert not any(op.is_input or op.is_trainable for op in step.ops)
        own = [step.ops[0] for step in program.steps if len(step.ops) == 1]
        assert own == [
            op for op in circuit.operations if op.is_input or op.is_trainable
        ]
        inputs = rng.uniform(size=(3, 2))
        for weights in (rng.uniform(size=4), rng.uniform(size=(3, 4))):
            exact = _interpreted().evolve(circuit, inputs, weights)
            out = program.evolve(inputs, weights, batch_size=3)
            assert np.allclose(out, exact, atol=ATOL)

    def test_cnot_ring_collapses_to_one_gather(self):
        circuit = QuantumCircuit(4)
        for wire in range(4):
            circuit.add("cnot", (wire, (wire + 1) % 4))
        program = compile_program(circuit)
        assert program.n_steps == 1
        assert program.steps[0].kind == "gather"

    def test_identity_gates_are_eliminated(self):
        circuit = QuantumCircuit(2)
        circuit.add("i", (0,))
        circuit.add("i", (1,))
        program = compile_program(circuit)
        assert program.n_steps == 0
        assert np.allclose(
            program.evolve(batch_size=2),
            np.tile([1, 0, 0, 0], (2, 1)).astype(complex),
        )


@pytest.mark.usefixtures("program_state")
class TestCompiledCircuitIntegration:
    """The circuit as encoding prefix plus compiled trailing block."""

    def test_prefix_program_matches_interpreted(self, rng):
        vqc = build_vqc(4, 8, 30, seed=5)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(6, 8))
        program = compile_program(vqc.circuit)
        psi = program.apply_suffix(
            program.prefix_states(inputs, weights, 6),
            program.suffix_unitary(weights),
        )
        exact = _interpreted().evolve(vqc.circuit, inputs, weights)
        assert np.allclose(psi, exact, atol=ATOL)

    def test_ensemble_weights_through_program_prefix(self, rng):
        vqc = build_vqc(3, 3, 12, seed=5)
        n_sets, k = 3, 4
        weights = np.stack([vqc.initial_weights(rng) for _ in range(n_sets)])
        inputs = rng.uniform(size=(k * n_sets, 3))
        outputs = StatevectorBackend().run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        exact = _interpreted().run(
            vqc.circuit, vqc.observables, inputs, np.tile(weights, (k, 1))
        )
        assert np.allclose(outputs, exact, atol=ATOL)


def _reuploading_circuit(trailing=True):
    """Encoding and weight layers interleaved, optionally ending in a
    trailing weight block (so both halves hold weight gates)."""
    circuit = QuantumCircuit(3)
    for layer in range(2):
        BasicEntanglerTemplate(3, 1).apply(circuit, weight_offset=3 * layer)
        AngleEncoding(3).apply(circuit)
    if trailing:
        BasicEntanglerTemplate(3, 2).apply(circuit, weight_offset=6)
    return circuit


class TestGroupedWeights:
    """The 2-D weight contract: ``(G, n_weights)`` over ``k * G`` rows."""

    @pytest.mark.usefixtures("program_state")
    def test_rows_gather_matches_interpreted(self, rng):
        vqc = build_vqc(3, 3, 12, seed=2)
        weights = np.stack([vqc.initial_weights(rng) for _ in range(3)])
        inputs = rng.uniform(size=(7, 3))
        rows = np.array([2, 0, 1, 1, 0, 2, 2])
        program = compile_program(vqc.circuit)
        psi = program.evolve_rows(inputs, weights, rows)
        exact = _interpreted().evolve(vqc.circuit, inputs, weights[rows])
        assert np.allclose(psi, exact, atol=ATOL)
        # The ragged gather and the cycled batch share one cache entry.
        unitary = program.suffix_unitary(weights)
        program.evolve(inputs[:6], weights, batch_size=6)
        assert program.suffix_unitary(weights) is unitary
        with pytest.raises(ValueError, match="rows must have shape"):
            program.evolve_rows(inputs, weights, rows[:3])

    def test_reuploading_grouped_forward_matches_interpreted(self, rng):
        circuit = _reuploading_circuit()
        weights = rng.uniform(size=(2, circuit.n_weights))
        inputs = rng.uniform(size=(6, 3))
        out = compile_program(circuit).evolve(inputs, weights, batch_size=6)
        exact = _interpreted().evolve(circuit, inputs, np.tile(weights, (3, 1)))
        assert np.allclose(out, exact, atol=ATOL)

    @pytest.mark.usefixtures("program_state")
    def test_prefix_states_match_interpreted(self, rng):
        """Encoded states at the split, with every parameter kind and a
        weight gate in the prefix, for shared and grouped weights."""
        circuit = QuantumCircuit(3)
        circuit.add("h", (0,))
        circuit.add("h", (2,))
        circuit.add("rx", (0,), ParameterRef.input(0, scale=np.pi))
        circuit.add("rx", (1,), ParameterRef.input(1))
        circuit.add("rx", (0,), ParameterRef.input(2))
        circuit.add("rz", (1,), ParameterRef.fixed(0.4))
        circuit.add("rz", (2,), ParameterRef.fixed(-1.1))
        circuit.add("ry", (2,), ParameterRef.weight(0))
        circuit.add("ry", (0,), ParameterRef.weight(1, scale=0.5))
        circuit.add("rx", (1,), ParameterRef.input(0))
        circuit.add("cnot", (0, 1))
        circuit.add("crx", (1, 2), ParameterRef.weight(2))
        program = compile_program(circuit)
        prefix = QuantumCircuit(3)
        prefix.operations = list(circuit.operations[: program.split])
        inputs = rng.uniform(size=(6, 3))
        for weights in (rng.uniform(size=3), rng.uniform(size=(2, 3))):
            phi = program.prefix_states(inputs, weights, 6)
            exact = _interpreted().evolve(prefix, inputs, weights)
            assert np.allclose(phi, exact, atol=ATOL)
            out = program.evolve(inputs, weights, batch_size=6)
            exact = _interpreted().evolve(circuit, inputs, weights)
            assert np.allclose(out, exact, atol=ATOL)

    def test_suffix_unitaries_bit_identical_for_any_composition(self, rng):
        """A weight row's unitary, and a row's final state, do not depend on
        which other rows share the call."""
        vqc = build_vqc(4, 4, 30, seed=1)
        weights = np.stack([vqc.initial_weights(rng) for _ in range(5)])
        program = compile_program(vqc.circuit)
        alone = program.suffix_unitary(weights[2])[0]
        assert np.array_equal(program.suffix_unitary(weights[1:4])[1], alone)
        assert np.array_equal(program.suffix_unitary(weights)[2], alone)
        inputs = rng.uniform(size=(20, 4))
        many = program.evolve(inputs, weights, batch_size=20)
        few = program.evolve(inputs[:5], weights, batch_size=5)
        assert np.array_equal(many[:5], few)


def _on_policy_rows(rng, n_episodes, steps, n_features):
    """Critic-pair rows of an on-policy batch: ``states`` and
    ``next_states`` interleaved, where every ``next_states`` row but an
    episode's last repeats the following ``states`` row."""
    states, next_states = [], []
    for _ in range(n_episodes):
        trajectory = rng.uniform(size=(steps + 1, n_features))
        states.append(trajectory[:-1])
        next_states.append(trajectory[1:])
    rows = np.empty((2 * n_episodes * steps, n_features))
    rows[0::2] = np.concatenate(states)
    rows[1::2] = np.concatenate(next_states)
    return rows


class TestEvolveStates:
    """The grouped forward that keeps its states for the adjoint: final
    states bit-identical to :meth:`CircuitProgram.evolve`, with rows that
    repeat the row before them sharing its encoding."""

    def critic_program(self):
        return compile_program(build_vqc(4, 16, 20, seed=5).circuit)

    @pytest.mark.usefixtures("program_state")
    def test_states_are_evolves_bits(self, rng, encoded_rows):
        program = self.critic_program()
        inputs = _on_policy_rows(rng, n_episodes=3, steps=5, n_features=16)
        weights = rng.uniform(0, 2 * np.pi, (2, 20))
        batch = inputs.shape[0]
        states = program.evolve_states(inputs, weights, batch)
        # 15 states, 15 next states of which 12 repeat a state.
        assert encoded_rows == [batch - 12]
        assert states.final.tobytes() == program.evolve(
            inputs, weights, batch_size=batch
        ).tobytes()
        assert states.prefix.tobytes() == program.prefix_states(
            inputs, weights, batch
        ).tobytes()
        assert states.unitary is program.suffix_unitary(weights)

    def test_group_selects_one_weight_rows_rows(self, rng):
        program = self.critic_program()
        inputs = rng.uniform(size=(6, 16))
        weights = rng.uniform(0, 2 * np.pi, (3, 20))
        states = program.evolve_states(inputs, weights, 6)
        one = states.group(1, 3)
        assert one.prefix.tobytes() == states.prefix[1::3].tobytes()
        assert one.final.tobytes() == states.final[1::3].tobytes()
        assert one.unitary.tobytes() == states.unitary[1:2].tobytes()
        assert one.prefix.flags.c_contiguous and one.final.flags.c_contiguous

    def test_signed_zeros_do_not_share(self, rng, encoded_rows):
        """``-0.0 == 0.0``, yet the two are different input bits: rows are
        compared by bits, so a shared state is always the row's own."""
        program = self.critic_program()
        inputs = np.repeat(rng.uniform(size=(1, 16)), 4, axis=0)
        inputs[0::2, 3] = 0.0
        inputs[1::2, 3] = -0.0
        weights = rng.uniform(0, 2 * np.pi, (2, 20))
        states = program.evolve_states(inputs, weights, 4)
        assert encoded_rows == [4]
        assert states.final.tobytes() == program.evolve(
            inputs, weights, batch_size=4
        ).tobytes()

    def test_first_layer_only_prefix_encodes_every_row(self, rng,
                                                       encoded_rows):
        """The actor's prefix is its product-state first layer: sharing
        would cost about what it saves, so every row is encoded."""
        program = compile_program(build_vqc(4, 4, 12, seed=3).circuit)
        inputs = np.repeat(rng.uniform(size=(4, 4)), 2, axis=0)
        weights = rng.uniform(0, 2 * np.pi, (2, 12))
        states = program.evolve_states(inputs, weights, 8)
        assert encoded_rows == [8]
        assert states.final.tobytes() == program.evolve(
            inputs, weights, batch_size=8
        ).tobytes()

    def test_weighted_prefix_encodes_every_row(self, rng, encoded_rows):
        circuit = _reuploading_circuit()
        program = compile_program(circuit)
        inputs = np.repeat(rng.uniform(size=(3, 3)), 2, axis=0)
        weights = rng.uniform(0, 2 * np.pi, (2, circuit.n_weights))
        states = program.evolve_states(inputs, weights, 6)
        assert encoded_rows == [6]
        assert states.final.tobytes() == program.evolve(
            inputs, weights, batch_size=6
        ).tobytes()

    def test_counts_one_grouped_evaluation(self, rng):
        from repro import obs

        program = self.critic_program()
        inputs = _on_policy_rows(rng, n_episodes=2, steps=4, n_features=16)
        weights = rng.uniform(0, 2 * np.pi, (2, 20))
        previous = obs.set_enabled(True)
        try:
            counts = []
            for run in (program.evolve, program.evolve_states):
                obs.reset()
                run(inputs, weights, 16)
                counters = obs.snapshot()["counters"]
                counts.append((
                    counters["program.evals"], counters["program.rows"],
                    counters["program.kernel_dispatches"],
                ))
        finally:
            obs.set_enabled(previous)
            obs.reset()
        assert counts[0] == counts[1] == (1, 16, counts[0][2])

    def test_rejects_a_batch_the_weight_rows_do_not_divide(self, rng):
        program = self.critic_program()
        with pytest.raises(ValueError, match="multiple of the weight rows"):
            program.evolve_states(
                rng.uniform(size=(5, 16)), rng.uniform(size=(2, 20)), 5
            )


def _layer_circuit(name):
    """``(circuit, n_features, first-layer gate count)``: a first encoding
    layer followed by weight gates, some of them inside the prefix."""
    circuit = QuantumCircuit(4)
    if name in ("angle_rx", "angle_ry"):
        AngleEncoding(4, rotation=name[-2:]).apply(circuit)
        n_features, n_gates = 4, 4
    elif name == "multilayer":
        # The critic's shape: 16 features folded onto 4 qubits.
        MultiLayerAngleEncoding(4, 16).apply(circuit)
        n_features, n_gates = 16, 4
    else:
        circuit.add("ry", (0,), ParameterRef.input(1, scale=np.pi))
        circuit.add("ry", (1,), ParameterRef.input(0, scale=0.5))
        circuit.add("rx", (2,), ParameterRef.weight(2))
        circuit.add("cnot", (1, 3))
        circuit.add("rx", (3,), ParameterRef.input(2))
        n_features, n_gates = 3, 2
    circuit.add("crz", (0, 2), ParameterRef.weight(0))
    circuit.add("rx", (1,), ParameterRef.input(0))
    BasicEntanglerTemplate(4, 2).apply(circuit, weight_offset=3)
    return circuit, n_features, n_gates


def _per_op_prefix(program, inputs, row_weights):
    """Encoded states from ``zero_state`` through the unfused per-op plans."""
    psi = program.zero_state(inputs.shape[0])
    for plan in program.op_plans[:program.split]:
        theta = None
        if plan.resolver is not None:
            theta = qprog._resolve(plan.resolver, inputs, row_weights)
        psi = plan.apply_forward(psi, theta)
    return psi


class TestSuffixCache:
    """The content-keyed cache of trailing-block unitaries: newest-first
    lookup, move-to-newest on a hit, least-recently-used eviction."""

    @staticmethod
    def _filled(rng):
        """A program whose cache holds four weight sets, oldest first."""
        vqc = build_vqc(3, 3, 12, seed=2)
        program = compile_program(vqc.circuit)
        sets = [
            np.stack([vqc.initial_weights(rng) for _ in range(2)])
            for _ in range(CircuitProgram._SUFFIX_CACHE_SIZE)
        ]
        unitaries = [program.suffix_unitary(weights) for weights in sets]
        return vqc, program, sets, unitaries

    @staticmethod
    def _count_comparisons(monkeypatch):
        calls = []
        array_equal = np.array_equal

        def counting(*args, **kwargs):
            calls.append(1)
            return array_equal(*args, **kwargs)

        monkeypatch.setattr(qprog.np, "array_equal", counting)
        return calls

    def test_hit_on_newest_compares_once(self, rng, monkeypatch):
        _, program, sets, unitaries = self._filled(rng)
        calls = self._count_comparisons(monkeypatch)
        assert program.suffix_unitary(sets[-1]) is unitaries[-1]
        assert len(calls) == 1

    def test_hit_on_oldest_moves_it_to_newest(self, rng, monkeypatch):
        _, program, sets, unitaries = self._filled(rng)
        assert program.suffix_unitary(sets[0]) is unitaries[0]
        calls = self._count_comparisons(monkeypatch)
        assert program.suffix_unitary(sets[0]) is unitaries[0]
        assert len(calls) == 1

    def test_fifth_set_evicts_least_recently_used(self, rng):
        vqc, program, sets, unitaries = self._filled(rng)
        program.suffix_unitary(sets[0])  # now sets[1] is the LRU entry
        program.suffix_unitary(
            np.stack([vqc.initial_weights(rng) for _ in range(2)])
        )
        rebuilt = program.suffix_unitary(sets[1])
        assert rebuilt is not unitaries[1]
        assert np.array_equal(rebuilt, unitaries[1])
        # Rebuilding sets[1] evicted sets[2]; the rest are still cached.
        assert program.suffix_unitary(sets[3]) is unitaries[3]
        assert program.suffix_unitary(sets[0]) is unitaries[0]


class TestFirstEncodingLayer:
    """The product-state build of the leading encoding layer gives the
    values the per-op kernels do (``array_equal``: only zero signs may
    differ), on every path that starts from ``prefix_states``."""

    @pytest.mark.usefixtures("program_state")
    @pytest.mark.parametrize(
        "name", ["angle_rx", "angle_ry", "multilayer", "two_of_four"]
    )
    def test_prefix_states_equal_per_op_kernels(self, rng, name):
        circuit, n_features, n_gates = _layer_circuit(name)
        program = compile_program(circuit)
        assert program._layer.n_gates == n_gates
        inputs = rng.uniform(size=(6, n_features))
        inputs[0] = 0.0  # zero angles: sin terms vanish exactly
        weights = rng.uniform(-np.pi, np.pi, size=(3, circuit.n_weights))
        rows = np.array([2, 0, 1, 1, 0, 2])
        expected = _per_op_prefix(program, inputs, weights[rows])
        assert np.array_equal(
            program.prefix_states(inputs, weights, 6, rows), expected
        )
        assert np.array_equal(
            program.evolve_rows(inputs, weights, rows),
            program.apply_suffix(
                expected, program.suffix_unitary(weights), rows
            ),
        )
        cycled = _per_op_prefix(program, inputs, qprog.expand_weights(weights, 6))
        assert np.array_equal(program.prefix_states(inputs, weights, 6), cycled)
        assert np.array_equal(
            program.evolve(inputs, weights, batch_size=6),
            program.apply_suffix(cycled, program.suffix_unitary(weights)),
        )

    @pytest.mark.parametrize("batch", [1, 5, 64])
    @pytest.mark.parametrize("rotation", ["rx", "ry"])
    def test_states_are_the_kernel_bits(self, rng, rotation, batch):
        """``tobytes`` equal to each gate's compiled one-qubit kernel on
        fresh ``|0>`` columns, chained in gate order: the compile-time
        ``G|0>`` columns keep every zero sign, which ``array_equal``
        would not see."""
        circuit = QuantumCircuit(4)
        AngleEncoding(4, rotation=rotation).apply(circuit)
        program = compile_program(circuit)
        inputs = rng.uniform(-1.0, 1.0, size=(batch, 4))
        inputs[0] = 0.0
        inputs[-1, 1] = -0.0
        psi = None
        for op in circuit.operations:
            kernel = qprog._compile_op(dataclasses.replace(op, wires=(0,)), 1)
            column = kernel.apply_forward(
                sv.zero_state(1, batch), inputs[:, op.param.index] * op.param.scale
            )
            psi = column if psi is None else (
                psi[:, :, None] * column[:, None, :]
            ).reshape(batch, -1)
        states = program._layer.states(inputs, batch)
        assert states.shape == psi.shape
        assert states.tobytes() == psi.tobytes()
        assert program.prefix_states(inputs, None, batch).tobytes() == (
            psi.tobytes()
        )

    def test_folded_adjoint_unchanged(self, rng, sweep_rows):
        """The folded sweep starts from prefix_states: its gradients are
        the bits of the same sweep from the per-op kernels."""
        circuit, n_features, _ = _layer_circuit("multilayer")
        program = compile_program(circuit)
        weights = rng.uniform(-np.pi, np.pi, size=(2, circuit.n_weights))
        inputs = rng.uniform(size=(40, n_features))
        upstream = rng.normal(size=(40, 4))
        observables = all_z_observables(4)
        layered = adjoint_backward(
            circuit, observables, inputs, weights, upstream
        )
        assert sweep_rows[0] == 2 * 2 * program.dim  # the folded sweep ran
        layer, program._layer = program._layer, None
        try:
            per_op = adjoint_backward(
                circuit, observables, inputs, weights, upstream
            )
        finally:
            program._layer = layer
        for got, want in zip(layered, per_op):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "first_ops",
        [
            [("rx", (1,), "input"), ("rx", (0,), "input")],
            [("rx", (0,), "input"), ("ry", (1,), "input")],
            [("rz", (0,), "input"), ("rz", (1,), "input")],
            [("rx", (0,), "weight"), ("rx", (1,), "input")],
            [("rx", (0,), "input"), ("cnot", (0, 1), None)],
        ],
        ids=["descending_wires", "mixed_kinds", "rz_first", "weight_first",
             "single_gate"],
    )
    def test_no_layer_detected(self, rng, first_ops):
        circuit = QuantumCircuit(3)
        for index, (gate, wires, kind) in enumerate(first_ops):
            param = None
            if kind == "input":
                param = ParameterRef.input(index)
            elif kind == "weight":
                param = ParameterRef.weight(0)
            circuit.add(gate, wires, param)
        circuit.add("rx", (2,), ParameterRef.input(2))
        program = compile_program(circuit)
        assert program._layer is None
        inputs = rng.uniform(size=(4, 3))
        weights = np.array([0.7])
        assert np.allclose(
            program.evolve(inputs, weights, batch_size=4),
            _interpreted().evolve(circuit, inputs, weights),
            atol=ATOL,
        )


class TestGateKernels:
    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_forward_kernel_matches_interpreted_gate(self, rng, name):
        """Each gate's compiled forward kernel on random states, wires out
        of order, against the interpreted gate matrix."""
        spec = GATE_REGISTRY[name]
        wires = (2, 0, 1)[: spec.n_qubits]
        circuit = QuantumCircuit(3)
        circuit.add(name, wires, ParameterRef.weight(0) if spec.n_params else None)
        plan = compile_program(circuit).op_plans[0]
        theta = 0.9 if spec.n_params else None
        matrix = spec.matrix_fn(theta) if spec.n_params else spec.fixed_matrix
        psi = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        assert np.allclose(
            plan.apply_forward(psi, theta), sv.apply_matrix(psi, matrix, wires, 3),
            atol=ATOL,
        )


@pytest.mark.usefixtures("program_state")
class TestProgramAdjoint:
    def _grads(self, circuit, observables, inputs, weights, upstream):
        with using_program(True):
            gi_p, gw_p = adjoint_backward(
                circuit, observables, inputs, weights, upstream
            )
        with using_program(False):
            gi_i, gw_i = adjoint_backward(
                circuit, observables, inputs, weights, upstream
            )
        return (gi_p, gw_p), (gi_i, gw_i)

    def test_vqc_adjoint_matches_interpreted(self, rng):
        vqc = build_vqc(4, 8, 30, seed=3)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(5, 8))
        upstream = rng.normal(size=(5, 4))
        (gi_p, gw_p), (gi_i, gw_i) = self._grads(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        assert np.allclose(gi_p, gi_i, atol=ATOL)
        assert np.allclose(gw_p, gw_i, atol=ATOL)

    def test_all_gates_adjoint_matches_interpreted(self, rng):
        circuit = _all_gates_circuit()
        observables = all_z_observables(4)
        inputs = rng.uniform(size=(3, 3))
        weights = rng.uniform(-np.pi, np.pi, size=4)
        upstream = rng.normal(size=(3, 4))
        (gi_p, gw_p), (gi_i, gw_i) = self._grads(
            circuit, observables, inputs, weights, upstream
        )
        assert np.allclose(gi_p, gi_i, atol=ATOL)
        assert np.allclose(gw_p, gw_i, atol=ATOL)

    def test_per_sample_weight_adjoint_matches(self, rng):
        """2-D weights: per-sample weight gradients ride the stacked sweep."""
        vqc = build_vqc(3, 3, 15, seed=9)
        batch = 6
        weights = np.stack([vqc.initial_weights(rng) for _ in range(batch)])
        inputs = rng.uniform(size=(batch, 3))
        upstream = rng.normal(size=(batch, 3))
        (gi_p, gw_p), (gi_i, gw_i) = self._grads(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        assert gw_p.shape == (batch, 15)
        assert np.allclose(gi_p, gi_i, atol=ATOL)
        assert np.allclose(gw_p, gw_i, atol=ATOL)

    def test_hamiltonian_observable_adjoint(self, rng):
        vqc = build_vqc(3, 3, 9, seed=1)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(4, 3))
        ham = Hamiltonian(
            np.array([0.5, -1.5, 2.0]),
            [PauliString.z(0), PauliString({1: "Z", 2: "Z"}), PauliString({0: "X"})],
        )
        upstream = rng.normal(size=(4, 1))
        (gi_p, gw_p), (gi_i, gw_i) = self._grads(
            vqc.circuit, [ham], inputs, weights, upstream
        )
        assert np.allclose(gi_p, gi_i, atol=ATOL)
        assert np.allclose(gw_p, gw_i, atol=ATOL)


class TestMeasurementKernels:
    @pytest.mark.usefixtures("program_state")
    def test_diagonal_measure_matches_interpreted(self, rng):
        vqc = build_vqc(3, 3, 9, seed=4)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(4, 3))
        observables = [
            PauliString.z(0),
            PauliString({0: "Z", 2: "Z"}),
            PauliString({1: "X"}),
            PauliString(()),
            Hamiltonian(np.array([1.0, -2.0]), [PauliString.z(1), PauliString.z(2)]),
        ]
        with using_program(True):
            fast = StatevectorBackend().run(vqc.circuit, observables, inputs, weights)
        with using_program(False):
            reference = StatevectorBackend().run(
                vqc.circuit, observables, inputs, weights
            )
        assert np.allclose(fast, reference, atol=ATOL)

    def test_z_sign_cache_returns_shared_readonly_arrays(self):
        first = sv.pauli_z_string_signs(3, (0, 2))
        second = sv.pauli_z_string_signs(3, (0, 2))
        assert first is second
        assert not first.flags.writeable

    def test_probabilities_match_abs_square(self, rng):
        psi = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        assert np.allclose(sv.probabilities(psi), np.abs(psi) ** 2, atol=ATOL)


class TestVectorizedSampling:
    def test_sample_bitstrings_stream_matches_choice_loop(self, rng):
        """The batched inverse-CDF sampler consumes the generator exactly
        like the previous per-sample ``rng.choice`` loop."""
        psi = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        psi = sv.normalize(psi)
        probs = sv.probabilities(psi)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        reference_rng = np.random.default_rng(123)
        reference = np.stack(
            [reference_rng.choice(8, size=11, p=probs[b]) for b in range(5)]
        )
        sampled = sv.sample_bitstrings(psi, 11, np.random.default_rng(123))
        assert np.array_equal(sampled, reference)

    def test_mean_signs_stream_matches_choice_loop(self, rng):
        from repro.quantum.backends import _sample_mean_signs

        probs = rng.uniform(size=(4, 8))
        probs /= probs.sum(axis=1, keepdims=True)
        signs = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        reference_rng = np.random.default_rng(77)
        reference = np.array(
            [
                signs[reference_rng.choice(8, size=16, p=probs[b])].mean()
                for b in range(4)
            ]
        )
        estimated = _sample_mean_signs(
            probs.copy(), signs, 16, np.random.default_rng(77)
        )
        assert np.allclose(estimated, reference, atol=ATOL)

    def test_shot_backend_equivalent_streams(self, rng):
        """Shot-sampled expectations are reproducible under a fixed seed."""
        vqc = build_vqc(2, 2, 6, seed=4)
        weights = vqc.initial_weights(rng)
        inputs = rng.uniform(size=(3, 2))
        first = StatevectorBackend(shots=64, rng=np.random.default_rng(5)).run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        second = StatevectorBackend(shots=64, rng=np.random.default_rng(5)).run(
            vqc.circuit, vqc.observables, inputs, weights
        )
        assert np.array_equal(first, second)


def _constant_tail_circuit():
    """Weight and encoding layers, then constant gates only."""
    circuit = _reuploading_circuit(trailing=False)
    for wire in range(3):
        circuit.add("cnot", (wire, (wire + 1) % 3))
    circuit.add("h", (0,))
    circuit.add("s", (2,))
    return circuit


_WEIGHT_FREE_TAILS = {
    "empty": lambda: _reuploading_circuit(trailing=False),
    "constant": _constant_tail_circuit,
}


class TestWeightFreeTrailingBlock:
    """A trailing block with no weight gate builds no unitary: an empty
    block is skipped, a constant one runs as its compiled steps on every
    row, and either is the same for every weight row."""

    @pytest.mark.parametrize("tail", sorted(_WEIGHT_FREE_TAILS))
    def test_no_unitary_is_built(self, rng, tail):
        circuit = _WEIGHT_FREE_TAILS[tail]()
        program = compile_program(circuit)
        assert not program.suffix_has_weights
        inputs = rng.uniform(size=(6, 3))
        previous = obs.set_enabled(True)
        obs.reset()
        try:
            for _ in range(5):
                weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
                program.evolve(inputs, weights, 6)
                program.evolve_rows(inputs, weights[None], np.zeros(6, int))
            counters = obs.snapshot()["counters"]
        finally:
            obs.set_enabled(previous)
            obs.reset()
        assert counters.get("program.suffix_build", 0) == 0
        assert "program.kernels.suffix" not in counters
        assert program.suffix_unitary(weights) is None
        if tail == "empty":
            assert counters["program.kernel_dispatches"] == 10 * len(
                program._prefix_steps
            )

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("tail", sorted(_WEIGHT_FREE_TAILS))
    def test_matches_interpreted_and_one_weight_row(self, rng, tail,
                                                    grouped):
        circuit = _WEIGHT_FREE_TAILS[tail]()
        observables = all_z_observables(3)
        n_groups = 3 if grouped else 1
        weights = rng.uniform(-np.pi, np.pi, (n_groups, circuit.n_weights))
        inputs = rng.uniform(size=(6, 3))
        backend = StatevectorBackend()
        out = backend.run(circuit, observables, inputs, weights)
        exact = _interpreted().run(
            circuit, observables, inputs,
            qprog.expand_weights(weights, 6),
        )
        assert np.allclose(out, exact, atol=ATOL)
        if not grouped:
            one = backend.run(circuit, observables, inputs, weights[0])
            assert one.tobytes() == out.tobytes()

    @pytest.mark.parametrize("tail", sorted(_WEIGHT_FREE_TAILS))
    def test_backward_from_kept_states(self, rng, tail, simulated):
        circuit = _WEIGHT_FREE_TAILS[tail]()
        observables = all_z_observables(3)
        weights = rng.uniform(-np.pi, np.pi, (2, circuit.n_weights))
        inputs = rng.uniform(size=(20, 3))
        upstream = rng.normal(size=(20, 3))
        _, states = StatevectorBackend().run_states(
            circuit, observables, inputs, weights
        )
        assert states.unitary is None
        simulated.clear()
        kept = adjoint_backward(
            circuit, observables, inputs, weights, upstream, states=states
        )
        assert simulated == []
        fresh = adjoint_backward(
            circuit, observables, inputs, weights, upstream
        )
        for a, b in zip(kept, fresh):
            assert a.tobytes() == b.tobytes()
        one = states.group(1, 2)
        assert one.unitary is None
        assert one.final.tobytes() == states.final[1::2].tobytes()


class TestProgramIntrospection:
    def test_kernel_counts_and_repr(self):
        circuit = _all_gates_circuit()
        program = compile_program(circuit)
        counts = program.kernel_counts()
        assert sum(counts.values()) == program.n_steps
        assert "CircuitProgram" in repr(program)

    def test_subcircuit_program(self, rng):
        """Programs compile from op slices (e.g. a circuit's two halves):
        the prefix slice evolves to the whole program's encoded states and
        the trailing slice builds its unitaries."""
        circuit = _reuploading_circuit()
        program = compile_program(circuit)
        prefix = CircuitProgram(3, circuit.operations[:program.split])
        suffix = CircuitProgram(3, circuit.operations[program.split:])
        weights = rng.uniform(-np.pi, np.pi, size=(2, circuit.n_weights))
        inputs = rng.uniform(size=(4, 3))
        assert np.array_equal(
            prefix.evolve(inputs, weights, batch_size=4),
            program.prefix_states(inputs, weights, 4),
        )
        assert suffix.suffix_unitary(weights).tobytes() == (
            program.suffix_unitary(weights).tobytes()
        )
