"""Centralised critics: state-value functions over the global state.

The CTDE trainer uses one critic for the whole team (Section III-A2):

- :class:`QuantumCentralCritic` — the paper's VQC critic.  The global state
  (16 features for N=4) passes through the multi-layer angle encoder onto 4
  qubits; the state value is the mean of the per-qubit ``<Z>`` expectations
  times a fixed ``value_scale``, keeping the trainable count at exactly the
  ansatz's gate budget (Table II's 50).
- :class:`ClassicalCentralCritic` — MLP critic (Comp1's hybrid pairing and
  Comp2/Comp3's classical stacks).

Both expose ``forward`` (differentiable) and ``values`` (numpy fast path,
used for TD targets through the frozen target critic).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, Module, mlp
from repro.nn.quantum_layer import QuantumLayer
from repro.nn.tensor import Tensor, as_tensor
from repro.quantum.backends import StatevectorBackend
from repro.quantum.gradients import backward as _qbackward

__all__ = [
    "QuantumCentralCritic",
    "ClassicalCentralCritic",
    "critic_pair_stackable",
    "paired_critic_values",
]


class QuantumCentralCritic(Module):
    """VQC state-value function ``V(s) = value_scale * mean_j <Z_j>``.

    Args:
        vqc: Circuit bundle whose encoder consumes the global state.
        rng: Generator for weight initialisation.
        backend: Execution backend.
        gradient_method: Differentiation method.
        value_scale: Fixed output scale mapping ``[-1, 1]`` onto the return
            range (see ``VQCConfig.critic_value_scale``).
        trainable_head: When True, adds a 2-parameter affine head instead of
            the fixed scale (breaks the strict 50-parameter budget; used in
            ablations).
    """

    def __init__(
        self,
        vqc,
        rng,
        backend=None,
        gradient_method="adjoint",
        value_scale=30.0,
        trainable_head=False,
    ):
        self.layer = QuantumLayer(
            vqc, rng, backend=backend, gradient_method=gradient_method
        )
        self.value_scale = float(value_scale)
        self.head = Linear(vqc.n_outputs, 1, rng) if trainable_head else None

    def forward(self, states):
        """Differentiable state values, shape ``(B,)``."""
        features = self.layer(as_tensor(states))
        if self.head is not None:
            return self.head(features).reshape(-1)
        return features.mean(axis=1) * self.value_scale

    def values(self, states):
        """Numpy state values (no gradient graph), shape ``(B,)``."""
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 1:
            states = states[None, :]
        vqc = self.layer.vqc
        expectations = self.layer.backend.run(
            vqc.circuit, vqc.observables, states, self.layer.weights.data
        )
        if self.head is not None:
            out = expectations @ self.head.weight.data + self.head.bias.data
            return out[:, 0]
        return expectations.mean(axis=1) * self.value_scale


class ClassicalCentralCritic(Module):
    """MLP state-value function ``V(s)`` over the global state."""

    def __init__(self, state_size, hidden, rng, activation="tanh"):
        sizes = (state_size, *hidden, 1)
        self.net = mlp(sizes, rng, activation=activation)

    def forward(self, states):
        """Differentiable state values, shape ``(B,)``."""
        return self.net(as_tensor(states)).reshape(-1)

    def values(self, states):
        """Numpy state values (no gradient graph), shape ``(B,)``."""
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 1:
            states = states[None, :]
        return self.forward(states).data


# -- batched online + target evaluation ----------------------------------------

def critic_pair_stackable(critic, target):
    """Whether one stacked circuit call can serve both critics' forwards.

    True only for a pair of exact, adjoint-differentiated
    :class:`QuantumCentralCritic` instances with the fixed value head and
    structurally identical circuits/observables (the framework presets
    build online and target from the same ansatz seed, so this holds for
    every quantum arm; it is checked — never assumed).
    """
    if not (
        isinstance(critic, QuantumCentralCritic)
        and isinstance(target, QuantumCentralCritic)
    ):
        return False
    if critic.head is not None or target.head is not None:
        return False
    for half in (critic, target):
        layer = half.layer
        if (
            not isinstance(layer.backend, StatevectorBackend)
            or layer.backend.shots is not None
            or layer.gradient_method != "adjoint"
        ):
            return False
    a, b = critic.layer.vqc, target.layer.vqc
    if a.circuit is not b.circuit and (
        a.circuit.n_qubits != b.circuit.n_qubits
        or a.circuit.operations != b.circuit.operations
    ):
        return False
    try:
        same_observables = list(a.observables) == list(b.observables)
    except TypeError:  # pragma: no cover — exotic observables
        same_observables = a.observables is b.observables
    return bool(same_observables)


def paired_critic_values(critic, target, states, next_states):
    """``(values, next_values)`` for the TD update, sharing one forward.

    ``values`` is the online critic's differentiable ``(B,)`` tensor over
    ``states``; ``next_values`` the frozen target critic's numpy ``(B,)``
    over ``next_states``.  On a stackable quantum pair
    (:func:`critic_pair_stackable`) both forwards run as **one** batched
    circuit evaluation: the ``2B`` states interleave row-wise and the two
    weight vectors are two weight groups cycled over them, halving the
    update's forward circuit evaluations.  The backward pass is one adjoint
    sweep over the online half only (the target is frozen), without input
    gradients.  Any other pair falls back to the plain two-pass path,
    bit-identically to the pre-batched trainer.
    """
    if not critic_pair_stackable(critic, target):
        return critic(states), target.values(next_states)

    states = np.asarray(states, dtype=np.float64)
    next_states = np.asarray(next_states, dtype=np.float64)
    if states.shape != next_states.shape:
        raise ValueError(
            f"states {states.shape} and next_states {next_states.shape} "
            f"must match"
        )
    batch = states.shape[0]
    vqc = critic.layer.vqc
    circuit, observables = vqc.circuit, vqc.observables
    backend = critic.layer.backend
    online_weights = critic.layer.weights

    stacked = np.empty((2 * batch, states.shape[1]))
    stacked[0::2] = states
    stacked[1::2] = next_states
    # Rows alternate online/target: two weight groups cycled over the batch.
    weights = np.stack([online_weights.data, target.layer.weights.data])
    outputs = backend.run(circuit, observables, stacked, weights)
    online_out, target_out = outputs[0::2], outputs[1::2]
    next_values = target_out.mean(axis=1) * target.value_scale

    n_outputs = online_out.shape[1]
    scale = critic.value_scale

    def backward_fn(grad):
        upstream = np.broadcast_to(
            np.asarray(grad, dtype=np.float64)[:, None] * (scale / n_outputs),
            online_out.shape,
        )
        _, weight_grads = _qbackward(
            circuit, observables, states, online_weights.data, upstream,
            method="adjoint", input_grads=False,
        )
        online_weights._accumulate(weight_grads)

    values = Tensor._from_op(
        online_out.mean(axis=1) * scale, (online_weights,), backward_fn
    )
    return values, next_values
