"""Measurement observables: Pauli strings and weighted sums of them.

The measurement step of a VQC (the ``M`` block of Fig. 1 in the paper)
computes expectation values ``<psi| O |psi>`` for a list of observables.
The quantum actor measures ``Z`` on every qubit to produce action logits;
the quantum critic measures ``Z`` on every qubit and aggregates them into a
scalar state value.

Observables also need to be *applied* to states (``O |psi>``) because the
adjoint differentiation pass seeds its backward-propagated "bra" state with
the observable applied to the final state.
"""

from __future__ import annotations

import numpy as np

from repro.quantum import gates as _gates
from repro.quantum import program as _program
from repro.quantum import statevector as _sv

__all__ = ["PauliString", "Hamiltonian", "all_z_observables", "expectation"]

_PAULI_MATRICES = {
    "X": _gates.PAULI_X,
    "Y": _gates.PAULI_Y,
    "Z": _gates.PAULI_Z,
    "I": _gates.I2,
}


class PauliString:
    """A tensor product of single-qubit Paulis, e.g. ``Z0 X2``.

    Args:
        terms: Mapping or iterable of ``(wire, pauli)`` pairs where pauli is
            one of ``"X"``, ``"Y"``, ``"Z"``.  Identity wires are implicit.

    An empty term set represents the identity observable.
    """

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = list(terms)
        cleaned = {}
        for wire, pauli in items:
            pauli = pauli.upper()
            if pauli == "I":
                continue
            if pauli not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli {pauli!r}")
            wire = int(wire)
            if wire in cleaned:
                raise ValueError(f"duplicate wire {wire} in Pauli string")
            cleaned[wire] = pauli
        self.terms = dict(sorted(cleaned.items()))

    @classmethod
    def z(cls, wire):
        """Single ``Z`` on one wire — the workhorse observable of the paper."""
        return cls({wire: "Z"})

    @property
    def wires(self):
        """Sorted tuple of non-identity wires."""
        return tuple(self.terms)

    def is_identity(self):
        """True when this string has no non-identity factors."""
        return not self.terms

    @property
    def is_diagonal(self):
        """True when every factor is ``Z`` (or the string is the identity)."""
        return all(p == "Z" for p in self.terms.values())

    def z_signs(self, n_qubits):
        """Cached diagonal eigenvalues; only valid for diagonal strings."""
        return _sv.pauli_z_string_signs(n_qubits, self.wires)

    def apply(self, psi, n_qubits):
        """Return ``O |psi>`` for a batch of statevectors."""
        if self.terms and self.is_diagonal and _program.program_enabled():
            return psi * self.z_signs(n_qubits)
        out = psi
        for wire, pauli in self.terms.items():
            out = _sv.apply_matrix(out, _PAULI_MATRICES[pauli], (wire,), n_qubits)
        return out

    def expectation(self, psi, n_qubits):
        """``<psi|O|psi>`` per batch sample (real, shape ``(B,)``)."""
        if self.is_identity():
            return np.real(_sv.inner_products(psi, psi))
        if self.is_diagonal and _program.program_enabled():
            # <psi| diag(s) |psi> = sum_i s_i |psi_i|^2: one probability
            # pass and a matvec against the cached sign diagonal.
            return _sv.probabilities(psi) @ self.z_signs(n_qubits)
        applied = self.apply(psi, n_qubits)
        return np.real(_sv.inner_products(psi, applied))

    def matrix(self, n_qubits):
        """Dense ``(2**n, 2**n)`` matrix (for density-matrix simulation/tests)."""
        out = np.array([[1.0]], dtype=np.complex128)
        for wire in range(n_qubits):
            factor = _PAULI_MATRICES.get(self.terms.get(wire, "I"))
            out = np.kron(out, factor)
        return out

    def __eq__(self, other):
        return isinstance(other, PauliString) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        if self.is_identity():
            return "PauliString(I)"
        body = " ".join(f"{p}{w}" for w, p in self.terms.items())
        return f"PauliString({body})"


class Hamiltonian:
    """A real-weighted sum of Pauli strings ``sum_j c_j P_j``.

    Used both as a measurable observable and as the *effective observable*
    built during backpropagation through a quantum layer (where the upstream
    gradient supplies per-sample coefficients).
    """

    def __init__(self, coefficients, paulis):
        paulis = list(paulis)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.ndim not in (1, 2):
            raise ValueError("coefficients must be (n_terms,) or (B, n_terms)")
        if coefficients.shape[-1] != len(paulis):
            raise ValueError(
                f"{coefficients.shape[-1]} coefficients for {len(paulis)} Paulis"
            )
        self.coefficients = coefficients
        self.paulis = paulis

    @property
    def batched(self):
        """True when coefficients vary per batch sample."""
        return self.coefficients.ndim == 2

    def apply(self, psi, n_qubits):
        """Return ``H |psi>`` per batch sample."""
        out = np.zeros_like(psi)
        for j, pauli in enumerate(self.paulis):
            term = pauli.apply(psi, n_qubits)
            if self.batched:
                out += self.coefficients[:, j][:, None] * term
            else:
                out += self.coefficients[j] * term
        return out

    def expectation(self, psi, n_qubits):
        """``<psi|H|psi>`` per batch sample (real, shape ``(B,)``)."""
        applied = self.apply(psi, n_qubits)
        return np.real(_sv.inner_products(psi, applied))

    def matrix(self, n_qubits):
        """Dense matrix form; only valid for unbatched coefficients."""
        if self.batched:
            raise ValueError("batched Hamiltonian has no single matrix")
        dim = 2**n_qubits
        out = np.zeros((dim, dim), dtype=np.complex128)
        for coeff, pauli in zip(self.coefficients, self.paulis):
            out += coeff * pauli.matrix(n_qubits)
        return out

    def __repr__(self):
        return f"Hamiltonian(n_terms={len(self.paulis)}, batched={self.batched})"


def all_z_observables(n_qubits):
    """``[Z_0, Z_1, ..., Z_{n-1}]`` — the measurement set used by the paper."""
    return [PauliString.z(w) for w in range(n_qubits)]


def expectation(psi, observables, n_qubits):
    """Stack expectations of several observables: shape ``(B, n_obs)``."""
    columns = [obs.expectation(psi, n_qubits) for obs in observables]
    return np.stack(columns, axis=1)
