"""Property-based tests (hypothesis) for the quantum substrate.

Invariants checked on randomly generated circuits and states:

- unitarity: every circuit preserves state norm;
- measurement: probabilities form a distribution, Z-expectations stay in
  [-1, 1];
- gradients: adjoint and parameter-shift agree on arbitrary circuits;
- density matrices: trace one, Hermitian, purity <= 1 under any channel;
- encodings: angle encoding is injective in expectation space for a single
  qubit (monotone regions), multi-layer encoding consumes the right count;
- batch composition: a row's bits do not depend on how its batch is split.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marl.actors import QuantumActor, QuantumActorGroup
from repro.quantum import channels as ch
from repro.quantum import density as dm
from repro.quantum import statevector as sv
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.gradients import adjoint_backward, parameter_shift_backward
from repro.quantum.observables import all_z_observables
from repro.quantum.vqc import build_vqc

MAX_EXAMPLES = 25


@st.composite
def random_circuits(draw, max_qubits=3, max_ops=12):
    """A random circuit with a mix of fixed, input and weight gates."""
    n_qubits = draw(st.integers(1, max_qubits))
    n_ops = draw(st.integers(1, max_ops))
    n_inputs = draw(st.integers(0, 3))
    n_weights = draw(st.integers(0, 4))
    circuit = QuantumCircuit(n_qubits)
    single_pool = ["rx", "ry", "rz"]
    fixed_pool = ["h", "x", "y", "z", "s", "t"]
    double_pool = ["crx", "cry", "crz", "cnot", "cz", "swap"]
    used_inputs = set()
    used_weights = set()
    for _ in range(n_ops):
        use_double = n_qubits > 1 and draw(st.booleans())
        if use_double:
            gate = draw(st.sampled_from(double_pool))
            w1 = draw(st.integers(0, n_qubits - 1))
            w2 = draw(st.integers(0, n_qubits - 1).filter(lambda w: w != w1))
            wires = (w1, w2)
        else:
            gate = draw(st.sampled_from(single_pool + fixed_pool))
            wires = (draw(st.integers(0, n_qubits - 1)),)
        if gate in ("rx", "ry", "rz", "crx", "cry", "crz"):
            kind = draw(st.sampled_from(["input", "weight", "fixed"]))
            if kind == "input" and n_inputs > 0:
                index = draw(st.integers(0, n_inputs - 1))
                used_inputs.add(index)
                param = ParameterRef.input(index)
            elif kind == "weight" and n_weights > 0:
                index = draw(st.integers(0, n_weights - 1))
                used_weights.add(index)
                param = ParameterRef.weight(index)
            else:
                param = ParameterRef.fixed(draw(st.floats(-3.0, 3.0)))
            circuit.add(gate, wires, param)
        else:
            circuit.add(gate, wires)
    # Compact weight indices so the circuit validates.
    remap = {old: new for new, old in enumerate(sorted(used_weights))}
    compacted = QuantumCircuit(n_qubits)
    for op in circuit.operations:
        if op.is_trainable:
            compacted.add(
                op.gate, op.wires, ParameterRef.weight(remap[op.param.index])
            )
        else:
            compacted.add(op.gate, op.wires, op.param)
    return compacted


def _materialise(circuit, seed):
    rng = np.random.default_rng(seed)
    inputs = (
        rng.uniform(-1, 1, size=(2, circuit.n_inputs))
        if circuit.n_inputs
        else None
    )
    weights = (
        rng.uniform(0, 2 * np.pi, size=circuit.n_weights)
        if circuit.n_weights
        else None
    )
    return inputs, weights


class TestCircuitInvariants:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(circuit=random_circuits(), seed=st.integers(0, 10_000))
    def test_norm_preserved(self, circuit, seed):
        inputs, weights = _materialise(circuit, seed)
        psi = StatevectorBackend().evolve(circuit, inputs, weights, batch_size=2)
        assert np.allclose(sv.norms(psi), 1.0, atol=1e-9)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(circuit=random_circuits(), seed=st.integers(0, 10_000))
    def test_probabilities_distribution(self, circuit, seed):
        inputs, weights = _materialise(circuit, seed)
        probs = StatevectorBackend().probabilities(
            circuit, inputs, weights, batch_size=2
        )
        assert np.all(probs >= -1e-12)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(circuit=random_circuits(), seed=st.integers(0, 10_000))
    def test_z_expectations_bounded(self, circuit, seed):
        inputs, weights = _materialise(circuit, seed)
        out = StatevectorBackend().run(
            circuit, all_z_observables(circuit.n_qubits), inputs, weights,
            batch_size=2,
        )
        assert np.all(np.abs(out) <= 1.0 + 1e-9)


class TestGradientInvariants:
    @settings(max_examples=15, deadline=None)
    @given(circuit=random_circuits(max_qubits=2, max_ops=8),
           seed=st.integers(0, 10_000))
    def test_adjoint_equals_parameter_shift(self, circuit, seed):
        if circuit.n_weights == 0 and circuit.n_inputs == 0:
            return
        inputs, weights = _materialise(circuit, seed)
        observables = all_z_observables(circuit.n_qubits)
        rng = np.random.default_rng(seed + 1)
        upstream = rng.normal(size=(2 if inputs is not None else 1,
                                    len(observables)))
        gi_a, gw_a = adjoint_backward(
            circuit, observables, inputs, weights, upstream
        )
        gi_p, gw_p = parameter_shift_backward(
            circuit, observables, inputs, weights, upstream
        )
        if gw_a is not None:
            assert np.allclose(gw_a, gw_p, atol=1e-8)
        if gi_a is not None:
            assert np.allclose(gi_a, gi_p, atol=1e-8)


class TestDensityInvariants:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        circuit=random_circuits(max_qubits=2, max_ops=6),
        seed=st.integers(0, 10_000),
        error=st.floats(0.0, 0.3),
    )
    def test_noisy_evolution_physical(self, circuit, seed, error):
        from repro.quantum.backends import DensityMatrixBackend
        from repro.quantum.channels import NoiseModel

        inputs, weights = _materialise(circuit, seed)
        backend = DensityMatrixBackend(NoiseModel(error))
        rho = backend.evolve(circuit, inputs, weights, batch_size=1)
        assert np.allclose(dm.traces(rho), 1.0, atol=1e-9)
        assert np.allclose(rho, np.conjugate(np.swapaxes(rho, 1, 2)), atol=1e-9)
        purity = dm.purity(rho)
        assert np.all(purity <= 1.0 + 1e-9)
        assert np.all(purity >= 1.0 / rho.shape[1] - 1e-9)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        factory_index=st.integers(0, 3),
    )
    def test_channels_trace_preserving(self, p, factory_index):
        factory = [ch.depolarizing, ch.bit_flip, ch.phase_flip,
                   ch.amplitude_damping][factory_index]
        channel = factory(p)
        total = sum(k.conj().T @ k for k in channel.kraus_operators)
        assert np.allclose(total, np.eye(2), atol=1e-10)


# -- batch composition --------------------------------------------------------


@st.composite
def batch_splits(draw, max_batch=12):
    """``(batch, bounds)``: a batch size and the bounds of a random split
    of its rows into consecutive chunks, one-row chunks included."""
    batch = draw(st.integers(1, max_batch))
    cuts = draw(st.sets(st.integers(1, batch - 1))) if batch > 1 else set()
    return batch, [0, *sorted(cuts), batch]


def _in_chunks(bounds, evaluate):
    """``evaluate(lo, hi)`` over every chunk, concatenated."""
    return np.concatenate(
        [evaluate(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    )


class TestBatchComposition:
    """A row's bits never depend on the batch it is evaluated in: every
    forward entry point gives ``==`` bits over random splits of one batch,
    one-row chunks included (a lone row is measured like any other)."""

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(split=batch_splits(), n_features=st.sampled_from([4, 16]),
           seed=st.integers(0, 10_000))
    def test_backend_entry_points(self, split, n_features, seed):
        batch, bounds = split
        rng = np.random.default_rng(seed)
        vqc = build_vqc(4, n_features, 50, seed=seed % 5)
        circuit, observables = vqc.circuit, vqc.observables
        inputs = rng.uniform(size=(batch, n_features))
        # Repeated rows: the critic-shaped prefix shares their encoding.
        inputs[1::3] = inputs[0::3][:len(inputs[1::3])]
        weights = rng.uniform(0, 2 * np.pi, size=(3, 50))
        rows = rng.integers(0, 3, size=batch)
        backend = StatevectorBackend()
        calls = {
            "run": lambda lo, hi: backend.run(
                circuit, observables, inputs[lo:hi], weights[0]
            ),
            "run_states": lambda lo, hi: backend.run_states(
                circuit, observables, inputs[lo:hi], weights[0]
            )[0],
            "run_rows": lambda lo, hi: backend.run_rows(
                circuit, observables, inputs[lo:hi], weights, rows[lo:hi]
            ),
        }
        for name, call in calls.items():
            whole = call(0, batch)
            assert _in_chunks(bounds, call).tobytes() == whole.tobytes(), name

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(split=batch_splits(), seed=st.integers(0, 10_000))
    def test_actor_team_entry_points(self, split, seed):
        batch, bounds = split
        rng = np.random.default_rng(seed)
        vqc = build_vqc(4, 4, 50, seed=seed % 5)
        team = QuantumActorGroup([
            QuantumActor(vqc, np.random.default_rng(seed + agent))
            for agent in range(4)
        ])
        observations = rng.uniform(size=(batch, 4, 4))
        flat = observations.reshape(batch * 4, 4)
        agents = rng.integers(0, 4, size=batch * 4)
        row_bounds = [4 * bound for bound in bounds]

        def rows(lo, hi):
            return team.rows_probabilities(flat[lo:hi], agents[lo:hi])

        assert _in_chunks(row_bounds, rows).tobytes() == (
            rows(0, 4 * batch).tobytes()
        )
        # One-row chunks of the ragged form: every row alone.
        assert _in_chunks(list(range(4 * batch + 1)), rows).tobytes() == (
            rows(0, 4 * batch).tobytes()
        )

        def copies(lo, hi):
            return team.batch_probabilities(observations[lo:hi])

        assert _in_chunks(bounds, copies).tobytes() == (
            copies(0, batch).tobytes()
        )
