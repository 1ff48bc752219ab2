"""Cross-validation of the three circuit-differentiation methods.

These are the most important tests in the quantum substrate: adjoint,
parameter-shift and finite differences are three independent derivations of
the same gradients, so their agreement to near machine precision is strong
evidence each is correct.
"""

import numpy as np
import pytest

from repro.quantum import gradients
from repro.quantum import statevector as _sv
from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.channels import NoiseModel
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.gradients import (
    adjoint_backward,
    backward,
    finite_difference_backward,
    parameter_shift_backward,
)
from repro.quantum.encoding import AngleEncoding
from repro.quantum.gates import GATE_REGISTRY
from repro.quantum.observables import Hamiltonian, PauliString, all_z_observables
from repro.quantum.program import using_program
from repro.quantum.templates import BasicEntanglerTemplate
from repro.quantum.vqc import build_vqc


def _random_problem(rng, n_qubits=3, n_features=6, n_weights=14, batch=4, seed=0):
    vqc = build_vqc(n_qubits, n_features, n_weights, seed=seed)
    inputs = rng.uniform(0.0, 1.0, size=(batch, n_features))
    weights = vqc.initial_weights(rng)
    upstream = rng.normal(size=(batch, vqc.n_outputs))
    return vqc, inputs, weights, upstream


@pytest.mark.usefixtures("program_state")
class TestMethodAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjoint_vs_parameter_shift(self, rng, seed):
        vqc, inputs, weights, upstream = _random_problem(rng, seed=seed)
        gi_a, gw_a = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        gi_p, gw_p = parameter_shift_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        assert np.allclose(gw_a, gw_p, atol=1e-10)
        assert np.allclose(gi_a, gi_p, atol=1e-10)

    def test_adjoint_vs_finite_difference(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        gi_a, gw_a = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        gi_f, gw_f = finite_difference_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        assert np.allclose(gw_a, gw_f, atol=1e-6)
        assert np.allclose(gi_a, gi_f, atol=1e-6)

    def test_controlled_rotation_four_term_rule(self, rng):
        """Isolate CRX/CRY/CRZ so the four-term rule is what's being tested."""
        circuit = QuantumCircuit(2)
        circuit.add("h", (0,))
        circuit.add("crx", (0, 1), ParameterRef.weight(0))
        circuit.add("cry", (1, 0), ParameterRef.weight(1))
        circuit.add("crz", (0, 1), ParameterRef.weight(2))
        observables = all_z_observables(2)
        weights = rng.uniform(0, 2 * np.pi, size=3)
        upstream = rng.normal(size=(1, 2))
        _, gw_shift = parameter_shift_backward(
            circuit, observables, None, weights, upstream
        )
        _, gw_fd = finite_difference_backward(
            circuit, observables, None, weights, upstream
        )
        _, gw_adj = adjoint_backward(circuit, observables, None, weights, upstream)
        assert np.allclose(gw_shift, gw_fd, atol=1e-6)
        assert np.allclose(gw_adj, gw_fd, atol=1e-6)

    def test_shared_weight_product_rule(self, rng):
        """One weight driving several gates must accumulate all terms."""
        circuit = QuantumCircuit(2)
        circuit.add("rx", (0,), ParameterRef.weight(0))
        circuit.add("cnot", (0, 1))
        circuit.add("ry", (1,), ParameterRef.weight(0, scale=2.0))
        circuit.add("rz", (0,), ParameterRef.weight(0))
        observables = all_z_observables(2)
        weights = np.array([0.7])
        upstream = np.ones((1, 2))
        _, gw_adj = adjoint_backward(circuit, observables, None, weights, upstream)
        _, gw_fd = finite_difference_backward(
            circuit, observables, None, weights, upstream
        )
        assert gw_adj.shape == (1,)
        assert np.allclose(gw_adj, gw_fd, atol=1e-6)

    def test_scaled_input_chain_rule(self, rng):
        circuit = QuantumCircuit(1)
        circuit.add("rx", (0,), ParameterRef.input(0, scale=np.pi))
        observables = [PauliString.z(0)]
        inputs = np.array([[0.3]])
        upstream = np.ones((1, 1))
        gi, _ = adjoint_backward(circuit, observables, inputs, None, upstream)
        # d<Z>/dx = -pi * sin(pi x)
        assert np.allclose(gi[0, 0], -np.pi * np.sin(np.pi * 0.3), atol=1e-10)

    def test_hamiltonian_observable_gradients(self, rng):
        vqc, inputs, weights, _ = _random_problem(rng, batch=2)
        ham = Hamiltonian([0.5, -1.5, 2.0], vqc.observables[:3])
        upstream = rng.normal(size=(2, 1))
        gi_a, gw_a = adjoint_backward(vqc.circuit, [ham], inputs, weights, upstream)
        gi_f, gw_f = finite_difference_backward(
            vqc.circuit, [ham], inputs, weights, upstream
        )
        assert np.allclose(gw_a, gw_f, atol=1e-6)
        assert np.allclose(gi_a, gi_f, atol=1e-6)

    def test_upstream_1d_promoted(self, rng):
        vqc, inputs, weights, _ = _random_problem(rng, batch=1)
        upstream = np.ones(vqc.n_outputs)
        gi, gw = adjoint_backward(
            vqc.circuit, vqc.observables, inputs[:1], weights, upstream
        )
        assert gi.shape == (1, vqc.n_features)
        assert gw.shape == (vqc.n_weights,)


# -- the folded adjoint sweep --------------------------------------------------

N_QUBITS = 3
DIM = 2**N_QUBITS
FOLD_TOL = 1e-12


def _grouped_weights(rng, template_weights, n_groups):
    """``n_groups`` weight rows; one group is the shared 1-D vector."""
    rows = np.stack([template_weights(rng) for _ in range(n_groups)])
    return rows[0] if n_groups == 1 else rows


def _row_sweeps(circuit, observables, inputs, weights, upstream, n_groups,
                input_grads):
    """The same VJP from chunks of ``G * 2**n`` rows, each below the fold
    threshold (chunks keep every row's weight group)."""
    chunk = n_groups * DIM
    gi_parts, gw_total = [], 0.0
    for lo in range(0, upstream.shape[0], chunk):
        gi, gw = adjoint_backward(
            circuit, observables, inputs[lo:lo + chunk], weights,
            upstream[lo:lo + chunk], input_grads=input_grads,
        )
        gi_parts.append(gi)
        gw_total = gw_total + gw
    return (np.concatenate(gi_parts) if input_grads else None), gw_total


def _reuploading_circuit(trailing):
    """Encoding and weight layers interleaved; ``trailing`` appends a final
    input-free weight block."""
    circuit = QuantumCircuit(N_QUBITS)
    for layer in range(2):
        BasicEntanglerTemplate(N_QUBITS, 1).apply(
            circuit, weight_offset=N_QUBITS * layer
        )
        AngleEncoding(N_QUBITS).apply(circuit)
    if trailing:
        BasicEntanglerTemplate(N_QUBITS, 2).apply(
            circuit, weight_offset=2 * N_QUBITS
        )
    return circuit


def _check_fold(circuit, observables, inputs, weights, upstream, n_groups,
                input_grads, sweep_rows, folded):
    """Program sweep == interpreted oracle (== row sweeps when folded)."""
    gi, gw = adjoint_backward(
        circuit, observables, inputs, weights, upstream,
        input_grads=input_grads,
    )
    batch = upstream.shape[0]
    assert sweep_rows[0] == (2 * n_groups * DIM if folded else 2 * batch)
    with using_program(False):
        gi_ref, gw_ref = adjoint_backward(
            circuit, observables, inputs, weights, upstream,
            input_grads=input_grads,
        )
    assert gw.shape == np.shape(weights)
    assert np.allclose(gw, gw_ref, atol=FOLD_TOL)
    if input_grads:
        assert np.allclose(gi, gi_ref, atol=FOLD_TOL)
    else:
        assert gi is None and gi_ref is None
    if folded:
        gi_row, gw_row = _row_sweeps(
            circuit, observables, inputs, weights, upstream, n_groups,
            input_grads,
        )
        assert np.allclose(gw, gw_row, atol=FOLD_TOL)
        if input_grads:
            assert np.allclose(gi, gi_row, atol=FOLD_TOL)


@pytest.mark.usefixtures("program_state")
class TestFoldedAdjoint:
    """Rows sharing a weight row fold into one matrix at the trailing
    block's boundary whenever ``B > G * 2**n`` — exact against the row
    sweep and the interpreted oracle."""

    @pytest.mark.parametrize("input_grads", [True, False])
    @pytest.mark.parametrize("per_group", [4, 8, 16])  # B/G vs 2**n = 8
    @pytest.mark.parametrize("n_groups", [1, 4])
    @pytest.mark.parametrize(
        "template", ["random", "basic_entangler", "strongly_entangling"]
    )
    def test_fold_matches_row_sweep_and_interpreted(
        self, template, n_groups, per_group, input_grads, sweep_rows
    ):
        rng = np.random.default_rng(per_group + 10 * n_groups)
        vqc = build_vqc(N_QUBITS, 6, 18, seed=3, template=template)
        batch = n_groups * per_group
        weights = _grouped_weights(rng, vqc.initial_weights, n_groups)
        inputs = rng.uniform(size=(batch, 6))
        upstream = rng.normal(size=(batch, vqc.n_outputs))
        _check_fold(
            vqc.circuit, vqc.observables, inputs, weights, upstream,
            n_groups, input_grads, sweep_rows, folded=per_group > DIM,
        )

    @pytest.mark.parametrize("n_groups", [1, 4])
    def test_hamiltonian_observables(self, n_groups, sweep_rows):
        rng = np.random.default_rng(5)
        vqc = build_vqc(N_QUBITS, 3, 12, seed=2)
        observables = [
            Hamiltonian(
                [0.5, -1.5, 2.0],
                [PauliString.z(0), PauliString({1: "Z", 2: "Z"}),
                 PauliString({0: "X"})],
            ),
            PauliString({1: "Y", 2: "X"}),
        ]
        batch = n_groups * 2 * DIM
        weights = _grouped_weights(rng, vqc.initial_weights, n_groups)
        _check_fold(
            vqc.circuit, observables, rng.uniform(size=(batch, 3)), weights,
            rng.normal(size=(batch, 2)), n_groups, True, sweep_rows,
            folded=True,
        )

    @pytest.mark.parametrize("input_grads", [True, False])
    @pytest.mark.parametrize("n_groups", [1, 4])
    def test_reuploading_without_trailing_block_takes_row_sweep(
        self, n_groups, input_grads, sweep_rows
    ):
        rng = np.random.default_rng(6)
        circuit = _reuploading_circuit(trailing=False)
        batch = n_groups * 2 * DIM
        weights = _grouped_weights(
            rng, lambda r: r.uniform(0, 2 * np.pi, circuit.n_weights), n_groups
        )
        _check_fold(
            circuit, all_z_observables(N_QUBITS),
            rng.uniform(size=(batch, N_QUBITS)), weights,
            rng.normal(size=(batch, N_QUBITS)), n_groups, input_grads,
            sweep_rows, folded=False,
        )

    @pytest.mark.parametrize("input_grads", [True, False])
    @pytest.mark.parametrize("n_groups", [1, 4])
    def test_reuploading_with_trailing_block_folds_it(
        self, n_groups, input_grads, sweep_rows
    ):
        """Weights on both sides of the split: the block folds, the
        encoding layers are swept per row even without input gradients."""
        rng = np.random.default_rng(7)
        circuit = _reuploading_circuit(trailing=True)
        batch = n_groups * 2 * DIM
        weights = _grouped_weights(
            rng, lambda r: r.uniform(0, 2 * np.pi, circuit.n_weights), n_groups
        )
        _check_fold(
            circuit, all_z_observables(N_QUBITS),
            rng.uniform(size=(batch, N_QUBITS)), weights,
            rng.normal(size=(batch, N_QUBITS)), n_groups, input_grads,
            sweep_rows, folded=True,
        )
        assert sweep_rows[1] == 2 * batch


# -- the single-generator sweep against the per-gate reference ----------------


def _reference_sweep(prog, circuit, stacked, indices, angle, reduce,
                     input_grads, weight_grads):
    """The per-gate reverse sweep that applied each rotation's generator
    twice (once for the gradient, once inside the inverse) and reduced and
    accumulated every gate on its own.  ``reduce`` maps a ``(gates, rows)``
    block, so each gate's row goes through it as a one-row block."""
    half = stacked.shape[0] // 2
    ops = circuit.operations
    lowest = indices[-1] if len(indices) else None
    for i in indices:
        op = ops[i]
        if gradients._needs_grad(op, input_grads is not None):
            g_ket = prog.apply_generator(i, stacked[half:])
            grad = np.imag(_sv.inner_products(stacked[:half], g_ket))
            gradients._accumulate(
                op, reduce(grad[None])[0], input_grads, weight_grads
            )
        if i == lowest:
            break
        theta = angle(op)
        if theta is not None and np.ndim(theta) == 1:
            theta = np.concatenate([theta, theta])
        stacked = prog.apply_inverse(i, stacked, theta)


_ROTATIONS = ("rx", "ry", "rz", "crx", "cry", "crz")


def _every_rotation_circuit():
    """Every registry rotation as an encoding gate, then twice as a weight
    gate (controlled ones in both wire orders).  Each of the 2 inputs and 4
    weights drives three gates, so the accumulation order shows in the
    bits."""
    circuit = QuantumCircuit(N_QUBITS)
    for k, gate in enumerate(_ROTATIONS):
        wires = (k % N_QUBITS,) if k < 3 else (k % N_QUBITS, (k + 1) % N_QUBITS)
        circuit.add(gate, wires, ParameterRef.input(k % 2))
    for k, gate in enumerate(_ROTATIONS * 2):
        first, second = (k + 1) % N_QUBITS, k % N_QUBITS
        wires = (first,) if gate[0] == "r" else (first, second)
        circuit.add(gate, wires, ParameterRef.weight(k % 4, scale=0.5 + k / 10))
    return circuit


_SWEEP_KINDS = (
    "random", "basic_entangler", "strongly_entangling",
    "every_rotation", "reuploading", "reuploading_trailing",
)


def _sweep_case(kind):
    """``(circuit, n_inputs, whether a trailing weight block can fold)``."""
    if kind == "every_rotation":
        return _every_rotation_circuit(), 2, True
    if kind.startswith("reuploading"):
        trailing = kind.endswith("trailing")
        return _reuploading_circuit(trailing), N_QUBITS, trailing
    return build_vqc(N_QUBITS, 6, 18, seed=3, template=kind).circuit, 6, True


def _sweep_observables(kind):
    if kind == "hamiltonian":
        return [
            Hamiltonian(
                [0.5, -1.5, 2.0],
                [PauliString.z(0), PauliString({1: "Z", 2: "Z"}),
                 PauliString({0: "X"})],
            ),
            PauliString({1: "Y", 2: "X"}),
        ]
    return all_z_observables(N_QUBITS)


class TestSweepMatchesPerGateReference:
    """The sweep that applies each generator once and reduces every gate
    after the loop gives the per-gate loop's gradients bit for bit."""

    @pytest.mark.parametrize("observables", ["z", "hamiltonian"])
    @pytest.mark.parametrize("input_grads", [True, False])
    @pytest.mark.parametrize("per_group", [4, 8, 16])  # B/G vs 2**n = 8
    @pytest.mark.parametrize("weight_rows", [None, 1, 4])  # None: 1-D
    @pytest.mark.parametrize("kind", _SWEEP_KINDS)
    def test_gradients_are_bit_identical(
        self, kind, weight_rows, per_group, input_grads, observables,
        sweep_rows, monkeypatch,
    ):
        circuit, n_inputs, has_block = _sweep_case(kind)
        observables = _sweep_observables(observables)
        rng = np.random.default_rng(per_group + 10 * (weight_rows or 0))
        n_groups = weight_rows or 1
        batch = n_groups * per_group
        weights = rng.uniform(0, 2 * np.pi, (n_groups, circuit.n_weights))
        if weight_rows is None:
            weights = weights[0]
        args = (
            circuit, observables, rng.uniform(size=(batch, n_inputs)),
            weights, rng.normal(size=(batch, len(observables))),
        )
        gi, gw = adjoint_backward(*args, input_grads=input_grads)
        folded = has_block and per_group > DIM
        assert sweep_rows[0] == (2 * n_groups * DIM if folded else 2 * batch)
        monkeypatch.setattr(gradients, "_sweep", _reference_sweep)
        gi_ref, gw_ref = adjoint_backward(*args, input_grads=input_grads)
        assert gw.shape == np.shape(weights)
        assert gw.tobytes() == gw_ref.tobytes()
        if input_grads:
            assert gi.tobytes() == gi_ref.tobytes()
        else:
            assert gi is None and gi_ref is None


# -- the fold starting from the forward's states --------------------------------


class TestForwardStates:
    """``StatevectorBackend.run_states`` keeps what the adjoint starts
    from; handed to ``adjoint_backward`` either sweep simulates nothing
    again, with every gradient bit unchanged."""

    def problem(self, n_groups=4, per_group=2 * DIM, seed=0):
        rng = np.random.default_rng(seed)
        vqc = build_vqc(N_QUBITS, 6, 18, seed=3)
        batch = n_groups * per_group
        weights = _grouped_weights(rng, vqc.initial_weights, n_groups)
        if np.ndim(weights) == 1:
            weights = weights[None]
        return (
            vqc.circuit, vqc.observables, rng.uniform(size=(batch, 6)),
            weights, rng.normal(size=(batch, vqc.n_outputs)),
        )

    @pytest.mark.parametrize("input_grads", [True, False])
    @pytest.mark.parametrize("n_groups", [1, 4])
    def test_folded_backward_simulates_nothing(
        self, n_groups, input_grads, simulated
    ):
        circuit, observables, inputs, weights, upstream = self.problem(n_groups)
        backend = StatevectorBackend()
        values, states = backend.run_states(circuit, observables, inputs, weights)
        assert values.tobytes() == backend.run(
            circuit, observables, inputs, weights
        ).tobytes()
        simulated.clear()
        gi, gw = backward(
            circuit, observables, inputs, weights, upstream,
            input_grads=input_grads, states=states,
        )
        assert simulated == []
        gi_ref, gw_ref = backward(
            circuit, observables, inputs, weights, upstream,
            input_grads=input_grads,
        )
        assert simulated == ["prefix_states", "suffix_unitary"]
        assert gw.tobytes() == gw_ref.tobytes()
        if input_grads:
            assert gi.tobytes() == gi_ref.tobytes()

    def test_row_sweep_starts_from_final_states(self, sweep_rows, simulated):
        circuit, observables, inputs, weights, upstream = self.problem(
            per_group=DIM
        )
        _, states = StatevectorBackend().run_states(
            circuit, observables, inputs, weights
        )
        simulated.clear()
        _, gw = adjoint_backward(
            circuit, observables, inputs, weights, upstream, states=states
        )
        assert simulated == []
        _, gw_ref = adjoint_backward(
            circuit, observables, inputs, weights, upstream
        )
        assert simulated == ["prefix_states", "suffix_unitary"]
        assert sweep_rows == [2 * inputs.shape[0]] * 2
        assert gw.tobytes() == gw_ref.tobytes()

    def test_one_group_of_a_grouped_forward(self, simulated):
        """A weight row's rows of a grouped forward stand in for a 1-D
        backward at that row (the critic pair's online half)."""
        circuit, observables, inputs, weights, _ = self.problem(n_groups=2)
        upstream = np.random.default_rng(1).normal(
            size=(inputs.shape[0] // 2, len(observables))
        )
        _, states = StatevectorBackend().run_states(
            circuit, observables, inputs, weights
        )
        simulated.clear()
        _, gw = adjoint_backward(
            circuit, observables, inputs[1::2], weights[1], upstream,
            states=states.group(1, 2),
        )
        assert simulated == []
        _, gw_ref = adjoint_backward(
            circuit, observables, inputs[1::2], weights[1], upstream
        )
        assert gw.tobytes() == gw_ref.tobytes()

    def test_weighted_prefix_with_1d_weights_reuses_states(self, simulated):
        """A 1-D vector is one weight row: a one-row forward's states are
        the bits a 1-D backward would build, weighted prefix included."""
        rng = np.random.default_rng(2)
        circuit = _reuploading_circuit(trailing=True)
        weights = rng.uniform(0, 2 * np.pi, (1, circuit.n_weights))
        inputs = rng.uniform(size=(4 * DIM, N_QUBITS))
        upstream = rng.normal(size=(4 * DIM, N_QUBITS))
        observables = all_z_observables(N_QUBITS)
        _, states = StatevectorBackend().run_states(
            circuit, observables, inputs, weights
        )
        simulated.clear()
        _, gw = adjoint_backward(
            circuit, observables, inputs, weights[0], upstream, states=states
        )
        assert simulated == []
        _, gw_ref = adjoint_backward(
            circuit, observables, inputs, weights[0], upstream
        )
        assert "prefix_states" in simulated
        assert gw.tobytes() == gw_ref.tobytes()

    def test_mismatched_states_rejected(self):
        circuit, observables, inputs, weights, upstream = self.problem()
        _, states = StatevectorBackend().run_states(
            circuit, observables, inputs, weights
        )
        with pytest.raises(ValueError, match="forward states"):
            adjoint_backward(
                circuit, observables, inputs[:-4], weights, upstream[:-4],
                states=states,
            )

    def test_no_states_off_the_program_tier(self):
        circuit, observables, inputs, weights, _ = self.problem(n_groups=1)
        backend = StatevectorBackend()
        with using_program(False):
            values, states = backend.run_states(
                circuit, observables, inputs, weights
            )
            reference = backend.run(circuit, observables, inputs, weights)
        assert states is None
        assert values.tobytes() == reference.tobytes()


def _one_gate_circuit(name):
    """``name`` between an encoding layer and a weight rotation, so both
    the prefix and the trailing block run; a parameterised ``name`` takes
    weight 0."""
    spec = GATE_REGISTRY[name]
    circuit = QuantumCircuit(N_QUBITS)
    AngleEncoding(N_QUBITS, rotation="ry").apply(circuit)
    circuit.add(
        name, (2, 0, 1)[:spec.n_qubits],
        ParameterRef.weight(0, scale=0.7) if spec.n_params else None,
    )
    circuit.add("rx", (1,), ParameterRef.weight(1))
    return circuit


class TestOneWeightRow:
    """A 1-D weight vector is one weight row: ``w`` and ``w[None]`` run the
    same kernels, so they give the same bits, and a 1-D forward keeps the
    states its backward differentiates."""

    @staticmethod
    def _run_both(circuit, n_inputs, batch, seed=0):
        rng = np.random.default_rng(seed)
        inputs = rng.uniform(size=(batch, n_inputs))
        weights = rng.uniform(0, 2 * np.pi, circuit.n_weights)
        observables = all_z_observables(N_QUBITS)
        backend = StatevectorBackend()
        one = backend.run(circuit, observables, inputs, weights)
        row = backend.run(circuit, observables, inputs, weights[None])
        return one, row

    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_every_gate(self, name):
        one, row = self._run_both(_one_gate_circuit(name), N_QUBITS, batch=5)
        assert one.tobytes() == row.tobytes()

    @pytest.mark.parametrize("batch", [DIM, 4 * DIM])  # B <= 2**n, B > 2**n
    @pytest.mark.parametrize("kind", _SWEEP_KINDS)
    def test_sweep_circuits(self, kind, batch):
        circuit, n_inputs, _ = _sweep_case(kind)
        one, row = self._run_both(circuit, n_inputs, batch)
        assert one.tobytes() == row.tobytes()

    @pytest.mark.parametrize("batch", [DIM, 4 * DIM])
    @pytest.mark.parametrize("kind", _SWEEP_KINDS)
    def test_backward_reuses_the_forward(self, kind, batch, simulated):
        circuit, n_inputs, _ = _sweep_case(kind)
        rng = np.random.default_rng(1)
        inputs = rng.uniform(size=(batch, n_inputs))
        weights = rng.uniform(0, 2 * np.pi, circuit.n_weights)
        upstream = rng.normal(size=(batch, N_QUBITS))
        observables = all_z_observables(N_QUBITS)
        values, states = StatevectorBackend().run_states(
            circuit, observables, inputs, weights
        )
        assert states is not None
        assert values.tobytes() == StatevectorBackend().run(
            circuit, observables, inputs, weights
        ).tobytes()
        simulated.clear()
        gi, gw = backward(
            circuit, observables, inputs, weights, upstream, states=states
        )
        assert "prefix_states" not in simulated
        gi_ref, gw_ref = backward(circuit, observables, inputs, weights, upstream)
        assert "prefix_states" in simulated
        assert gw.tobytes() == gw_ref.tobytes()
        assert gi.tobytes() == gi_ref.tobytes()


class TestNoisyGradients:
    def test_parameter_shift_on_noisy_backend(self, rng):
        """The shift rule stays exact under Kraus noise; check against FD."""
        vqc, inputs, weights, upstream = _random_problem(
            rng, n_qubits=2, n_features=2, n_weights=6, batch=2
        )
        backend = DensityMatrixBackend(NoiseModel(0.02))
        gi_p, gw_p = parameter_shift_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream, backend
        )
        gi_f, gw_f = finite_difference_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream, backend
        )
        assert np.allclose(gw_p, gw_f, atol=1e-5)
        assert np.allclose(gi_p, gi_f, atol=1e-5)

    def test_noise_shrinks_gradients(self, rng):
        vqc, inputs, weights, upstream = _random_problem(
            rng, n_qubits=2, n_features=2, n_weights=8, batch=2
        )
        _, gw_clean = parameter_shift_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        _, gw_noisy = parameter_shift_backward(
            vqc.circuit,
            vqc.observables,
            inputs,
            weights,
            upstream,
            DensityMatrixBackend(NoiseModel(0.1)),
        )
        assert np.linalg.norm(gw_noisy) < np.linalg.norm(gw_clean)


class TestDispatch:
    def test_unknown_method(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        with pytest.raises(ValueError, match="unknown gradient method"):
            backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method="autograd",
            )

    def test_adjoint_rejects_density_backend(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        with pytest.raises(ValueError, match="adjoint"):
            backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method="adjoint", backend=DensityMatrixBackend(),
            )

    def test_adjoint_rejects_shots(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        with pytest.raises(ValueError, match="exact"):
            backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method="adjoint", backend=StatevectorBackend(shots=10),
            )

    def test_dispatch_equivalence(self, rng):
        vqc, inputs, weights, upstream = _random_problem(rng)
        direct = adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        )
        dispatched = backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream,
            method="adjoint",
        )
        assert np.allclose(direct[1], dispatched[1])
