"""Execution backends: exact statevector, shot-sampled, and noisy density matrix.

A backend turns a symbolic :class:`~repro.quantum.circuit.QuantumCircuit`
plus concrete ``inputs`` (batched feature vectors) and ``weights`` (trainable
angles) into measurement expectation values.

Three execution regimes are supported, mirroring how the paper's experiments
and future-work axis are set up:

- ``StatevectorBackend(shots=None)`` — exact expectations, the regime the
  paper's torchquantum experiments run in;
- ``StatevectorBackend(shots=k)`` — exact evolution, sampled measurement
  (finite-shot estimation noise);
- ``DensityMatrixBackend(noise_model=...)`` — Kraus noise after every gate,
  modelling NISQ gate errors.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_integer
from repro.quantum import density as _dm
from repro.quantum import gates as _gates
from repro.quantum import program as _program
from repro.quantum import statevector as _sv
from repro.quantum.channels import NoiseModel
from repro.quantum.observables import Hamiltonian, PauliString

__all__ = ["StatevectorBackend", "DensityMatrixBackend"]

# Basis-change gates mapping X/Y measurement onto the computational basis:
# X = H Z H,  Y = (S^+ H)^+ ... applied as  rot Z rot^+  with rot below.
_BASIS_ROTATIONS = {
    "X": _gates.HADAMARD,
    "Y": _gates.HADAMARD @ _gates.S_GATE.conj().T,
}


def _pauli_string_signs(pauli, n_qubits):
    """Diagonal eigenvalues of the Z-basis version of a Pauli string.

    Cached per ``(n_qubits, wires)`` — after the basis rotation every
    factor measures as Z, so only the wire set matters.
    """
    return _sv.pauli_z_string_signs(n_qubits, pauli.wires)


def _rotate_to_z_basis_sv(psi, pauli, n_qubits):
    """Apply basis rotations so every factor of ``pauli`` measures as Z."""
    out = psi
    for wire, p in pauli.terms.items():
        rotation = _BASIS_ROTATIONS.get(p)
        if rotation is not None:
            out = _sv.apply_matrix(out, rotation, (wire,), n_qubits)
    return out


def _sample_mean_signs(probs, signs, shots, rng):
    """Monte-Carlo estimate of ``sum_i p_i s_i`` from ``shots`` samples.

    All rows are drawn through one batched inverse-CDF pass, consuming the
    generator identically to per-sample ``rng.choice`` loops (see
    :func:`repro.quantum.statevector.batched_inverse_cdf_sample`).
    """
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    drawn = _sv.batched_inverse_cdf_sample(probs, shots, rng)
    return signs[drawn].mean(axis=1)


# id(observable list) -> (snapshot, n_qubits, stacked signs); only lists of
# non-identity Z strings are entered.
_ALL_Z_SIGNS = {}
_ALL_Z_SIGNS_LIMIT = 64


def _all_z_signs(observables, n_qubits):
    """The stacked ``(2**n, m)`` sign operand when every observable is a
    non-identity Z string, else ``None``.

    Cached per list and validated against its contents like the program
    cache: a hit is one dict lookup and one tuple comparison, with no
    per-observable classification.
    """
    snapshot = tuple(observables)
    entry = _ALL_Z_SIGNS.get(id(observables))
    if entry is not None and entry[1] == n_qubits and entry[0] == snapshot:
        return entry[2]
    if not snapshot or not all(
        isinstance(obs, PauliString) and obs.is_diagonal and not obs.is_identity()
        for obs in snapshot
    ):
        return None
    signs = _sv.stacked_z_signs(n_qubits, tuple(obs.wires for obs in snapshot))
    if len(_ALL_Z_SIGNS) >= _ALL_Z_SIGNS_LIMIT:
        _ALL_Z_SIGNS.clear()
    _ALL_Z_SIGNS[id(observables)] = (snapshot, n_qubits, signs)
    return signs


def _signed_sums(psi, signs):
    """``probabilities(psi) @ signs``, each row's bits independent of the
    batch it came in: a lone row would take the matmul's one-row kernel,
    which sums in another order, so it runs as the first of two."""
    probs = _sv.probabilities(psi)
    if probs.shape[0] == 1:
        return (np.concatenate([probs, probs]) @ signs)[:1]
    return probs @ signs


def _normalise_run_args(n_inputs, inputs, batch_size):
    """``(inputs, batch)`` checked against the ``n_inputs`` features the
    circuit (or its compiled program) references."""
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        if inputs.shape[1] < n_inputs:
            raise ValueError(
                f"circuit needs {n_inputs} input features, "
                f"got {inputs.shape[1]}"
            )
        return inputs, inputs.shape[0]
    if n_inputs > 0:
        raise ValueError("circuit references inputs but none were given")
    return None, batch_size if batch_size is not None else 1


class StatevectorBackend:
    """Exact (optionally shot-sampled) pure-state execution.

    Args:
        shots: ``None`` for exact expectation values, otherwise the number of
            measurement samples used to estimate each expectation.
        rng: ``numpy.random.Generator`` used for shot sampling.
        program: ``True``/``False`` forces the program-compiled /
            interpreted gate tier for this backend; ``None`` (default)
            follows the global :func:`repro.quantum.program.program_enabled`
            switch.
    """

    name = "statevector"
    supports_adjoint = True

    def __init__(self, shots=None, rng=None, program=None):
        if shots is not None:
            check_integer("shots", shots, 1)
        self.shots = shots
        self.rng = rng if rng is not None else np.random.default_rng()
        self.program = program

    def _use_program(self):
        if self.program is not None:
            return self.program
        return _program.program_enabled()

    def evolve(self, circuit, inputs=None, weights=None, batch_size=None):
        """Run the circuit, returning the final state batch ``(B, 2**n)``.

        ``weights`` is a shared ``(n_weights,)`` vector (one weight row) or
        a grouped ``(G, n_weights)`` matrix whose row ``b % G`` drives batch
        row ``b`` (see :func:`repro.quantum.program.expand_weights`).
        Dispatches to the program-compiled kernel tier (pre-planned, fused
        gate applications — see :mod:`repro.quantum.program`) unless the
        tier is disabled, in which case the interpreted per-gate reference
        loop runs.  Both produce the same states to float round-off.
        """
        if self._use_program():
            program = _program.compile_program(circuit)
            inputs, batch = _normalise_run_args(
                program.n_inputs, inputs, batch_size
            )
            return program.evolve(inputs, weights, batch)
        inputs, batch = _normalise_run_args(circuit.n_inputs, inputs, batch_size)
        if circuit.n_weights:
            weights = _program.expand_weights(weights, batch)
        psi = _sv.zero_state(circuit.n_qubits, batch)
        for op in circuit.operations:
            theta = circuit.resolve_angle(op, inputs, weights)
            psi = _sv.apply_gate(psi, op.gate, op.wires, circuit.n_qubits, theta)
        return psi

    def run(self, circuit, observables, inputs=None, weights=None, batch_size=None):
        """Expectation values, shape ``(B, n_observables)``."""
        psi = self.evolve(circuit, inputs, weights, batch_size)
        return self.measure(psi, observables, circuit.n_qubits)

    def run_states(self, circuit, observables, inputs=None, weights=None,
                   batch_size=None):
        """:meth:`run` that also returns the states the adjoint backward
        can reuse: ``(expectations, states)``.

        On the program tier ``states`` is the forward's
        :class:`~repro.quantum.program.ForwardStates` (see
        :meth:`~repro.quantum.program.CircuitProgram.evolve_states`, which
        also lets rows with repeated input bits share one encoding), to be
        passed to :func:`repro.quantum.gradients.backward`.  On the
        interpreted tier it is ``None`` and the values are :meth:`run`'s.
        """
        if not self._use_program():
            return self.run(circuit, observables, inputs, weights, batch_size), None
        program = _program.compile_program(circuit)
        inputs, batch = _normalise_run_args(program.n_inputs, inputs, batch_size)
        states = program.evolve_states(inputs, weights, batch)
        return self.measure(states.final, observables, circuit.n_qubits), states

    def run_rows(self, circuit, observables, inputs, weights, rows):
        """Expectations where batch row ``b`` uses weight row ``rows[b]`` —
        the ragged form of the grouped contract (serving micro-batches)."""
        if self._use_program():
            program = _program.compile_program(circuit)
            inputs, _ = _normalise_run_args(program.n_inputs, inputs, None)
            psi = program.evolve_rows(inputs, weights, rows)
        else:
            inputs, _ = _normalise_run_args(circuit.n_inputs, inputs, None)
            psi = self.evolve(circuit, inputs, np.asarray(weights)[rows])
        return self.measure(psi, observables, circuit.n_qubits)

    def measure(self, psi, observables, n_qubits):
        """Measure prepared states: exact or shot-estimated expectations.

        On the exact path all diagonal (Z-string) observables share one
        probability pass and a single matmul against their stacked cached
        sign diagonals.  The common case — a list made only of such strings,
        as the actor and the critic measure ``Z`` on every qubit — is
        recognised by one cached lookup (:func:`_all_z_signs`) and costs one
        ``|psi|^2`` and one ``(B, dim) @ (dim, m)``.  Every other list (X/Y
        strings, the identity, Hamiltonians, shots) takes the general path.
        A one-row batch is measured as the first of two rows, so a row gets
        the same bits alone as inside any batch (:func:`_signed_sums`).

        The whole measurement runs under this backend's effective tier
        (``program=`` override or the global switch), so a
        ``program=False`` backend measures through the interpreted
        reference path even when the global tier is on, and vice versa.
        """
        exact_program = self.shots is None and self._use_program()
        if exact_program:
            signs = _all_z_signs(observables, n_qubits)
            if signs is not None:
                return _signed_sums(psi, signs)
        with _program.using_program(self._use_program()):
            columns = [None] * len(observables)
            if exact_program:
                diag_indices = [
                    j
                    for j, obs in enumerate(observables)
                    if isinstance(obs, PauliString)
                    and obs.is_diagonal
                    and not obs.is_identity()
                ]
                if diag_indices:
                    signs = _sv.stacked_z_signs(
                        n_qubits,
                        tuple(observables[j].wires for j in diag_indices),
                    )
                    values = _signed_sums(psi, signs)
                    for column, j in enumerate(diag_indices):
                        columns[j] = values[:, column]
            for j, obs in enumerate(observables):
                if columns[j] is None:
                    columns[j] = self._measure_one(psi, obs, n_qubits)
            return np.stack(columns, axis=1)

    def _measure_one(self, psi, obs, n_qubits):
        if isinstance(obs, Hamiltonian):
            total = np.zeros(psi.shape[0])
            for j, pauli in enumerate(obs.paulis):
                coeff = obs.coefficients[..., j]
                total = total + coeff * self._measure_one(psi, pauli, n_qubits)
            return total
        if not isinstance(obs, PauliString):
            raise TypeError(f"unsupported observable type {type(obs).__name__}")
        if self.shots is None:
            return obs.expectation(psi, n_qubits)
        rotated = _rotate_to_z_basis_sv(psi, obs, n_qubits)
        probs = _sv.probabilities(rotated)
        signs = _pauli_string_signs(obs, n_qubits)
        return _sample_mean_signs(probs, signs, self.shots, self.rng)

    def probabilities(self, circuit, inputs=None, weights=None, batch_size=None):
        """Computational-basis probabilities of the final state."""
        psi = self.evolve(circuit, inputs, weights, batch_size)
        return _sv.probabilities(psi)

    def __repr__(self):
        return f"StatevectorBackend(shots={self.shots})"


class DensityMatrixBackend:
    """Mixed-state execution with per-gate Kraus noise.

    Args:
        noise_model: :class:`~repro.quantum.channels.NoiseModel` applied
            after every gate (default: noiseless).
        shots: ``None`` for exact expectations, else sample count.
        rng: Generator for shot sampling.
    """

    name = "density_matrix"
    supports_adjoint = False

    def __init__(self, noise_model=None, shots=None, rng=None):
        if shots is not None:
            check_integer("shots", shots, 1)
        self.noise_model = noise_model if noise_model is not None else NoiseModel()
        self.shots = shots
        self.rng = rng if rng is not None else np.random.default_rng()

    def evolve(self, circuit, inputs=None, weights=None, batch_size=None):
        """Run the circuit with noise, returning ``(B, 2**n, 2**n)`` states."""
        inputs, batch = _normalise_run_args(circuit.n_inputs, inputs, batch_size)
        if circuit.n_weights:
            weights = _program.expand_weights(weights, batch)
        rho = _dm.zero_density(circuit.n_qubits, batch)
        for op in circuit.operations:
            theta = circuit.resolve_angle(op, inputs, weights)
            rho = _dm.apply_gate(rho, op.gate, op.wires, circuit.n_qubits, theta)
            for channel, wire in self.noise_model.channels_after(op):
                rho = _dm.apply_channel(rho, channel, (wire,), circuit.n_qubits)
        return rho

    def run(self, circuit, observables, inputs=None, weights=None, batch_size=None):
        """Expectation values, shape ``(B, n_observables)``."""
        rho = self.evolve(circuit, inputs, weights, batch_size)
        return self.measure(rho, observables, circuit.n_qubits)

    def measure(self, rho, observables, n_qubits):
        """Measure prepared density matrices."""
        columns = [self._measure_one(rho, obs, n_qubits) for obs in observables]
        return np.stack(columns, axis=1)

    def _measure_one(self, rho, obs, n_qubits):
        if isinstance(obs, Hamiltonian):
            total = np.zeros(rho.shape[0])
            for j, pauli in enumerate(obs.paulis):
                coeff = obs.coefficients[..., j]
                total = total + coeff * self._measure_one(rho, pauli, n_qubits)
            return total
        if not isinstance(obs, PauliString):
            raise TypeError(f"unsupported observable type {type(obs).__name__}")
        if self.shots is None:
            return _dm.expectation(rho, obs.matrix(n_qubits))
        rotated = rho
        for wire, p in obs.terms.items():
            rotation = _BASIS_ROTATIONS.get(p)
            if rotation is not None:
                rotated = _dm.apply_matrix(rotated, rotation, (wire,), n_qubits)
        probs = _dm.probabilities(rotated)
        signs = _pauli_string_signs(obs, n_qubits)
        return _sample_mean_signs(probs, signs, self.shots, self.rng)

    def probabilities(self, circuit, inputs=None, weights=None, batch_size=None):
        """Computational-basis probabilities of the final mixed state."""
        rho = self.evolve(circuit, inputs, weights, batch_size)
        return _dm.probabilities(rho)

    def __repr__(self):
        return (
            f"DensityMatrixBackend(noise_model={self.noise_model!r}, "
            f"shots={self.shots})"
        )
