"""Batched statevector simulation.

States are stored as ``(batch, 2**n_qubits)`` complex arrays with qubit 0 as
the most-significant bit of the basis index.  All gate applications are
vectorised over the batch axis, which is what makes training whole RL batches
through a VQC cheap: one numpy call applies a gate to every transition in the
batch simultaneously.  Gate matrices may themselves be batched (``(B, d, d)``)
so that *data-encoding* rotations can use a different angle per sample while
variational rotations share one angle across the batch.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.quantum import gates as _gates

__all__ = [
    "zero_state",
    "basis_state",
    "apply_matrix",
    "apply_gate",
    "norms",
    "normalize",
    "probabilities",
    "marginal_probabilities",
    "sample_bitstrings",
    "expectation_pauli_z",
    "pauli_z_string_signs",
    "stacked_z_signs",
    "inner_products",
    "Statevector",
]


def zero_state(n_qubits, batch_size=1):
    """Return the ``|0...0>`` state, batched: shape ``(batch_size, 2**n)``."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    psi = np.zeros((batch_size, 2**n_qubits), dtype=np.complex128)
    psi[:, 0] = 1.0
    return psi


def basis_state(n_qubits, index, batch_size=1):
    """Return a computational basis state ``|index>``, batched."""
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    psi = np.zeros((batch_size, dim), dtype=np.complex128)
    psi[:, index] = 1.0
    return psi


def _check_wires(n_qubits, wires):
    if len(set(wires)) != len(wires):
        raise ValueError(f"duplicate wires in {wires}")
    for w in wires:
        if not 0 <= w < n_qubits:
            raise ValueError(f"wire {w} out of range for {n_qubits} qubits")


def apply_matrix(psi, matrix, wires, n_qubits):
    """Apply an arbitrary ``(d, d)`` or ``(B, d, d)`` matrix to ``wires``.

    The matrix need not be unitary (adjoint differentiation applies gate
    generators through this same code path).  Returns a new array; ``psi``
    is not modified.

    Args:
        psi: State batch of shape ``(B, 2**n_qubits)``.
        matrix: ``(d, d)`` shared across the batch or ``(B, d, d)``
            per-sample, with ``d == 2**len(wires)``.
        wires: Qubit indices the matrix acts on, in matrix bit order
            (``wires[0]`` is the most-significant bit of the matrix index).
        n_qubits: Total qubit count of ``psi``.
    """
    wires = tuple(int(w) for w in wires)
    _check_wires(n_qubits, wires)
    k = len(wires)
    dim_gate = 2**k
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape[-2:] != (dim_gate, dim_gate):
        raise ValueError(
            f"matrix shape {matrix.shape} incompatible with wires {wires}"
        )
    batch = psi.shape[0]

    # View the state as (B, 2, 2, ..., 2) and move the target axes to the end.
    tensor = psi.reshape((batch,) + (2,) * n_qubits)
    axes = tuple(w + 1 for w in wires)
    tensor = np.moveaxis(tensor, axes, tuple(range(1, k + 1)))
    moved_shape = tensor.shape
    tensor = tensor.reshape(batch, dim_gate, -1)

    if matrix.ndim == 2:
        out = np.einsum("ij,bjr->bir", matrix, tensor)
    elif matrix.ndim == 3:
        if matrix.shape[0] != batch:
            raise ValueError(
                f"batched matrix has batch {matrix.shape[0]}, state has {batch}"
            )
        out = np.einsum("bij,bjr->bir", matrix, tensor)
    else:
        raise ValueError(f"matrix must be 2-D or 3-D, got shape {matrix.shape}")

    out = out.reshape(moved_shape)
    out = np.moveaxis(out, tuple(range(1, k + 1)), axes)
    return out.reshape(batch, 2**n_qubits)


def apply_gate(psi, name, wires, n_qubits, theta=None):
    """Apply a registered gate by name (see :data:`~repro.quantum.gates.GATE_REGISTRY`)."""
    spec = _gates.get_gate_spec(name)
    if len(wires) != spec.n_qubits:
        raise ValueError(
            f"gate {name!r} acts on {spec.n_qubits} wires, got {len(wires)}"
        )
    matrix = spec.matrix(theta) if spec.n_params else spec.matrix()
    return apply_matrix(psi, matrix, wires, n_qubits)


def norms(psi):
    """Per-sample 2-norms, shape ``(B,)``."""
    return np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1))


def normalize(psi):
    """Return ``psi`` with each batch sample normalised to unit norm."""
    n = norms(psi)
    if np.any(n == 0):
        raise ValueError("cannot normalise a zero state")
    return psi / n[:, None]


def probabilities(psi):
    """Measurement probabilities in the computational basis, ``(B, 2**n)``.

    Computed as ``real**2 + imag**2`` — same quantity as ``abs(psi)**2``
    without the intermediate square root, and this runs once per measured
    observable in every rollout step.  Holds no state between calls, so
    threads may call it concurrently.
    """
    re = psi.real
    im = psi.imag
    out = re * re
    out += im * im
    return out


def marginal_probabilities(psi, wires, n_qubits):
    """Marginal probabilities over a subset of wires, ``(B, 2**len(wires))``.

    ``wires[0]`` is the most-significant bit of the marginal outcome index.
    """
    wires = tuple(int(w) for w in wires)
    _check_wires(n_qubits, wires)
    batch = psi.shape[0]
    probs = probabilities(psi).reshape((batch,) + (2,) * n_qubits)
    keep = tuple(w + 1 for w in wires)
    drop = tuple(ax for ax in range(1, n_qubits + 1) if ax not in keep)
    probs = probs.sum(axis=drop, keepdims=True) if drop else probs
    probs = np.moveaxis(probs, keep, tuple(range(1, len(keep) + 1)))
    return probs.reshape(batch, 2 ** len(wires))


def batched_inverse_cdf_sample(probs, shots, rng):
    """One batched categorical draw per probability row: ``(B, shots)``.

    Inverse-CDF sampling (``cumsum`` + right-bisection) consuming the
    generator exactly like ``B`` successive ``rng.choice(dim, size=shots,
    p=probs[b])`` calls: ``choice`` draws ``shots`` uniforms and inverts the
    normalised cumsum, so drawing the whole ``(B, shots)`` uniform block
    row-major reproduces the serial per-sample stream bit-for-bit while
    replacing ``B`` python-level ``choice`` calls with array kernels.

    ``probs`` must be non-negative; rows are renormalised by their own sum
    (mirroring ``choice``'s internal normalisation).
    """
    probs = np.asarray(probs, dtype=np.float64)
    batch, dim = probs.shape
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    draws = rng.random((batch, shots))
    if batch * dim * shots <= 1 << 22:
        # searchsorted(cdf, v, side="right") == count of cdf entries <= v.
        return (cdf[:, :, None] <= draws[:, None, :]).sum(axis=1, dtype=np.int64)
    out = np.empty((batch, shots), dtype=np.int64)
    for b in range(batch):
        out[b] = np.searchsorted(cdf[b], draws[b], side="right")
    return out


def sample_bitstrings(psi, shots, rng):
    """Sample measurement outcomes for each batch sample.

    Returns an integer array of shape ``(B, shots)`` of basis-state indices.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = probabilities(psi)
    # Guard against tiny negative round-off and renormalise.
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return batched_inverse_cdf_sample(probs, shots, rng)


@functools.lru_cache(maxsize=None)
def _z_signs(n_qubits, wire):
    """Eigenvalue signs (+1/-1) of Pauli-Z on ``wire`` per basis state.

    Cached (and frozen read-only): this diagonal is consulted per measured
    observable in every rollout step.
    """
    indices = np.arange(2**n_qubits)
    bit = (indices >> (n_qubits - 1 - wire)) & 1
    signs = 1.0 - 2.0 * bit
    signs.flags.writeable = False
    return signs


@functools.lru_cache(maxsize=None)
def pauli_z_string_signs(n_qubits, wires):
    """Diagonal eigenvalues of ``prod_{w in wires} Z_w``, cached per key.

    ``wires`` must be a (hashable) tuple.  An empty tuple yields the
    identity diagonal.  The returned array is read-only — it is shared by
    every caller with the same ``(n_qubits, wires)`` key.
    """
    signs = np.ones(2**n_qubits)
    for wire in wires:
        signs = signs * _z_signs(n_qubits, int(wire))
    signs.flags.writeable = False
    return signs


@functools.lru_cache(maxsize=None)
def stacked_z_signs(n_qubits, wire_sets):
    """Column-stacked Z-string diagonals, shape ``(2**n, len(wire_sets))``.

    One cached ``probs @ signs`` operand per group of diagonal observables
    measured together — built once per ``(n_qubits, wire_sets)`` key instead
    of re-stacking the per-observable diagonals on every measure call.
    Read-only, like the per-string diagonals it stacks.
    """
    signs = np.stack(
        [pauli_z_string_signs(n_qubits, ws) for ws in wire_sets], axis=1
    )
    signs.flags.writeable = False
    return signs


def expectation_pauli_z(psi, wire, n_qubits):
    """``<Z_wire>`` for each batch sample, shape ``(B,)``, exact (infinite shots)."""
    _check_wires(n_qubits, (wire,))
    return probabilities(psi) @ _z_signs(n_qubits, wire)


def inner_products(bra, ket):
    """Per-sample inner products ``<bra|ket>``, shape ``(B,)``."""
    return np.sum(np.conj(bra) * ket, axis=-1)


class Statevector:
    """A convenience object-oriented wrapper over the functional API.

    Most library code uses the functional API directly (it composes better
    with the gradient routines); this class is the ergonomic entry point for
    examples and interactive exploration.
    """

    def __init__(self, n_qubits, batch_size=1, data=None):
        self.n_qubits = int(n_qubits)
        if data is not None:
            data = np.asarray(data, dtype=np.complex128)
            if data.ndim == 1:
                data = data[None, :]
            if data.shape[1] != 2**self.n_qubits:
                raise ValueError(
                    f"data dim {data.shape[1]} != 2**{self.n_qubits}"
                )
            self.data = data.copy()
        else:
            self.data = zero_state(self.n_qubits, batch_size)

    @property
    def batch_size(self):
        """Number of states in the batch."""
        return self.data.shape[0]

    def apply(self, name, wires, theta=None):
        """Apply a named gate in place and return ``self`` for chaining."""
        self.data = apply_gate(self.data, name, wires, self.n_qubits, theta)
        return self

    def apply_matrix(self, matrix, wires):
        """Apply a raw matrix in place and return ``self`` for chaining."""
        self.data = apply_matrix(self.data, matrix, wires, self.n_qubits)
        return self

    def probabilities(self):
        """Computational-basis probabilities, shape ``(B, 2**n)``."""
        return probabilities(self.data)

    def expectation_z(self, wire):
        """``<Z_wire>`` per batch sample."""
        return expectation_pauli_z(self.data, wire, self.n_qubits)

    def copy(self):
        """Deep copy of this statevector."""
        return Statevector(self.n_qubits, data=self.data)

    def __repr__(self):
        return f"Statevector(n_qubits={self.n_qubits}, batch_size={self.batch_size})"
