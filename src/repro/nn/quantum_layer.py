"""The hybrid bridge: a VQC as an autodiff module.

``QuantumLayer`` makes a variational quantum circuit behave exactly like any
other :class:`~repro.nn.layers.Module`: its forward pass runs the circuit on
a backend and returns measured expectation values as a Tensor; its backward
pass computes the vector-Jacobian product with respect to both the circuit
weights and the classical inputs using adjoint differentiation (default) or
the parameter-shift rule (required for noisy / shot-based backends).

This is the piece that lets a quantum actor's softmax policy, a quantum
critic's value head, and classical layers train end-to-end under one
optimiser — the paper's hybrid quantum-classical training loop.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module
from repro.nn.tensor import Parameter, Tensor, as_tensor
from repro.quantum.backends import StatevectorBackend
from repro.quantum.gradients import backward as _qbackward

__all__ = ["QuantumLayer"]


class QuantumLayer(Module):
    """Adapt a :class:`~repro.quantum.vqc.VQC` into an autodiff module.

    Args:
        vqc: The circuit bundle (encoder + ansatz + observables).
        rng: Generator for weight initialisation.
        backend: Execution backend; defaults to exact statevector.
        gradient_method: ``"adjoint"`` (default, exact backends only),
            ``"parameter_shift"`` or ``"finite_diff"``.
    """

    def __init__(self, vqc, rng, backend=None, gradient_method="adjoint"):
        self.vqc = vqc
        self.backend = backend if backend is not None else StatevectorBackend()
        if gradient_method == "adjoint" and not self.backend.supports_adjoint:
            raise ValueError(
                f"backend {self.backend!r} cannot use adjoint differentiation; "
                "pass gradient_method='parameter_shift'"
            )
        if gradient_method == "adjoint" and self.backend.shots is not None:
            raise ValueError(
                "adjoint differentiation needs exact expectations (shots=None)"
            )
        self.gradient_method = gradient_method
        self.weights = Parameter(vqc.initial_weights(rng))

    def forward(self, x):
        """Run the circuit on a ``(B, n_features)`` batch of inputs.

        Returns a ``(B, n_outputs)`` tensor of expectation values wired into
        the autodiff graph through both ``x`` and the circuit weights.
        """
        x = as_tensor(x)
        if x.data.ndim != 2:
            raise ValueError(f"expected (B, features) input, got {x.shape}")
        if x.data.shape[1] != self.vqc.n_features:
            raise ValueError(
                f"circuit expects {self.vqc.n_features} features, "
                f"got {x.data.shape[1]}"
            )
        weights = self.weights
        vqc = self.vqc
        backend = self.backend
        method = self.gradient_method

        out_data = backend.run(vqc.circuit, vqc.observables, x.data, weights.data)

        def backward_fn(grad):
            # The backend is passed for every method: the adjoint path
            # checks it supports exact adjoint differentiation, the
            # shift/finite-diff paths execute on it directly.
            input_grads, weight_grads = _qbackward(
                vqc.circuit,
                vqc.observables,
                x.data,
                weights.data,
                grad,
                method=method,
                backend=backend,
            )
            if weight_grads is not None:
                weights._accumulate(weight_grads)
            if input_grads is not None:
                x._accumulate(input_grads)

        return Tensor._from_op(out_data, (x, weights), backward_fn)

    def __repr__(self):
        return (
            f"QuantumLayer(n_qubits={self.vqc.n_qubits}, "
            f"n_features={self.vqc.n_features}, "
            f"n_weights={self.vqc.n_weights}, "
            f"gradient_method={self.gradient_method!r})"
        )
