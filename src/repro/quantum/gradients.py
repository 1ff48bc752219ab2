"""Differentiation of variational quantum circuits.

Three interchangeable methods, all computing the same mathematical object —
the gradient of measured expectation values with respect to the circuit's
trainable weights *and* its encoded input features (the latter lets the
quantum layer participate in end-to-end classical backpropagation):

- **Adjoint differentiation** (`method="adjoint"`): a single forward pass
  plus one reverse sweep, exact, statevector only.  This is the default
  training path, equivalent to what PennyLane/torchquantum use on
  simulators.  Per-sample upstream gradients are folded into a batched
  *effective observable* so one reverse sweep serves the whole batch and
  every observable simultaneously.  Given the states the forward kept
  (``states=``), the sweep starts from them instead of simulating the
  batch again.
- **Parameter-shift rule** (`method="parameter_shift"`): evaluates the
  circuit at shifted angles; hardware-compatible and valid on noisy /
  shot-based backends.  Pauli rotations use the two-term rule; controlled
  rotations use the four-term rule.
- **Finite differences** (`method="finite_diff"`): central differences,
  used as an independent cross-check in the test suite.

All methods return ``(input_grads, weight_grads)`` with shapes
``(B, n_inputs)`` and ``(n_weights,)`` given an upstream gradient of shape
``(B, n_observables)`` — i.e. they implement the vector-Jacobian product of
the map ``(inputs, weights) -> expectations``.  With *grouped* weights
``(G, n_weights)`` (ensemble evaluation: batch row ``b`` runs weight row
``b % G`` through the shared circuit structure, ``G == B`` being plain
per-sample weights) the weight gradient is returned per group as
``(G, n_weights)`` instead of summed over the batch.  ``input_grads=False``
skips the input gradients (returned as ``None``) for callers that discard
them.
"""

from __future__ import annotations

import numpy as np

from repro.quantum import program as _program
from repro.quantum import statevector as _sv
from repro.quantum.backends import StatevectorBackend
from repro.quantum.observables import Hamiltonian, PauliString

__all__ = [
    "adjoint_backward",
    "parameter_shift_backward",
    "finite_difference_backward",
    "backward",
    "GRADIENT_METHODS",
]

# Four-term shift-rule coefficients for controlled rotations
# (generator eigenvalues {0, +-1}; see Anselmetti et al. 2021 / PennyLane).
_SQRT2 = np.sqrt(2.0)
_FOUR_TERM_C1 = (_SQRT2 + 1.0) / (4.0 * _SQRT2)
_FOUR_TERM_C2 = (_SQRT2 - 1.0) / (4.0 * _SQRT2)


def _flatten_observables(observables, upstream):
    """Expand Hamiltonian observables into per-Pauli effective coefficients.

    Returns ``(paulis, coefficients)`` where coefficients has shape
    ``(B, n_paulis)`` and already includes the upstream gradient.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    batch = upstream.shape[0]
    paulis = []
    columns = []
    for j, obs in enumerate(observables):
        u_j = upstream[:, j]
        if isinstance(obs, PauliString):
            paulis.append(obs)
            columns.append(u_j)
        elif isinstance(obs, Hamiltonian):
            for c, pauli in zip(np.atleast_1d(obs.coefficients.T), obs.paulis):
                paulis.append(pauli)
                columns.append(u_j * c)
        else:
            raise TypeError(f"unsupported observable type {type(obs).__name__}")
    coefficients = np.stack(columns, axis=1).reshape(batch, len(paulis))
    return paulis, coefficients


def _accumulate(op, grad, input_grads, weight_grads):
    """Route one gate's angle gradient to its parameter source.

    ``grad`` holds one value per batch row (or per weight group, from the
    folded sweep).  ``weight_grads`` is ``(n_weights,)`` for batch-shared
    weights (everything sums) or ``(G, n_weights)`` for grouped weights,
    where batch row ``b`` belongs to group ``b % G`` — e.g. one stacked
    update pass over every agent's actor.  Input gradients are dropped when
    ``input_grads`` is None.
    """
    ref = op.param
    scaled = grad * ref.scale
    if ref.kind == "weight":
        if weight_grads.ndim == 2:
            n_groups = weight_grads.shape[0]
            if scaled.shape[0] != n_groups:
                scaled = scaled.reshape(-1, n_groups).sum(axis=0)
            weight_grads[:, ref.index] += scaled
        else:
            weight_grads[ref.index] += scaled.sum()
    elif ref.kind == "input" and input_grads is not None:
        input_grads[:, ref.index] += scaled


def _gradient_buffers(circuit, weights, batch, input_grads):
    """Zeroed ``(input_grads, weight_grads)``, per group for 2-D weights."""
    inputs = (
        np.zeros((batch, circuit.n_inputs))
        if input_grads and circuit.n_inputs else None
    )
    if not circuit.n_weights:
        return inputs, None
    if weights is not None and np.ndim(weights) == 2:
        return inputs, np.zeros((np.shape(weights)[0], circuit.n_weights))
    return inputs, np.zeros(circuit.n_weights)


def _needs_grad(op, with_inputs):
    return op.is_trainable or (with_inputs and op.is_input)


def _inverse_matrix(op, theta):
    """Matrix of the inverse of one operation."""
    spec = op.spec
    if spec.n_params == 1:
        return spec.matrix_fn(-np.asarray(theta))
    if spec.self_inverse:
        return spec.fixed_matrix
    return spec.fixed_matrix.conj().T


def adjoint_backward(
    circuit, observables, inputs, weights, upstream, input_grads=True,
    states=None,
):
    """Vector-Jacobian product via adjoint differentiation (exact, pure state).

    Args:
        circuit: The symbolic circuit.
        observables: List of PauliString / Hamiltonian observables.
        inputs: ``(B, n_inputs)`` features or ``None``.
        weights: ``(n_weights,)`` trainable angles shared across the batch,
            ``(G, n_weights)`` grouped weights (row ``b`` uses weight row
            ``b % G``; the returned weight gradient is then per group,
            ``(G, n_weights)``), or ``None``.
        upstream: ``(B, n_observables)`` upstream gradient
            ``dL/d<O_j>`` per sample.
        input_grads: ``False`` skips the input gradients (returned as
            ``None``) and, with no weight among the encoding gates, their
            per-row sweep.
        states: The :class:`~repro.quantum.program.ForwardStates` of the
            forward that produced the values being differentiated (from
            :meth:`~repro.quantum.backends.StatevectorBackend.run_states`),
            or ``None``.  Both sweeps start from them instead of
            simulating the rows again.

    Returns:
        ``(input_grads, weight_grads)``; ``input_grads`` is ``None`` when the
        circuit encodes no inputs or they were not requested.

    On the program tier, when ``B > G * 2**n``, the trailing input-free
    block is swept *folded*: the rows sharing weight row ``g`` become one
    matrix ``M_g = sum_b |phi_b><beta_b|`` (encoded state, bra pulled back
    through the block unitary ``U_g``), and one reverse sweep over the
    ``2 G 2**n`` rows ``{U_g e_l, U_g M_g e_l}`` yields the block's weight
    gradients exactly (see ``docs/quantum_kernels.md``, "Folded adjoint").
    """
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    batch = upstream.shape[0]
    if inputs is not None and inputs.shape[0] != batch:
        raise ValueError(
            f"upstream batch {batch} != input batch {inputs.shape[0]}"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    n = circuit.n_qubits
    ops = circuit.operations
    n_groups = _program.weight_groups(weights, batch)
    # Effective observable with per-sample coefficients: one reverse sweep
    # then serves every observable and every sample at once.
    paulis, coefficients = _flatten_observables(observables, upstream)
    effective = Hamiltonian(coefficients, paulis)
    # Gates below the lowest one needing a gradient are never swept.
    stop = next(
        (i for i, op in enumerate(ops) if _needs_grad(op, input_grads)),
        len(ops),
    )

    if not _program.program_enabled():
        return _interpreted_adjoint(
            circuit, effective, inputs, weights, batch, stop, input_grads
        )

    # Program-compiled sweep: each gate's pre-planned inverse kernel is
    # applied to the stacked bra/ket block in ONE call, and generators run
    # as compiled diagonal/gather kernels (Pauli generators are never
    # dense).
    prog = _program.compile_program(circuit)
    gi, gw = _gradient_buffers(circuit, weights, batch, input_grads)
    split, dim = prog.split, prog.dim
    top = len(ops)
    reusable = _reusable(prog, states, batch, n_groups)
    if _folds(prog, batch, n_groups):
        if reusable:
            phi, final, unitary = states
        else:
            phi = prog.prefix_states(inputs, weights, batch)
            unitary = prog.suffix_unitary(weights)
            final = prog.apply_suffix(phi, unitary)
        bra = effective.apply(final, n)
        # beta_b = U_g^+ bra_b; as a row vector, bra_b^T conj(U_g).
        beta = np.matmul(
            bra.reshape(-1, n_groups, 1, dim), np.conj(unitary)
        ).reshape(-1, n_groups, dim)
        # M_g = sum_b |phi_b><beta_b| over the rows of group g.
        fold = np.matmul(
            np.transpose(phi.reshape(-1, n_groups, dim), (1, 2, 0)),
            np.transpose(np.conj(beta), (1, 0, 2)),
        )
        # Rows U_g e_l (bra half) and U_g M_g e_l = rows of M_g^T U_g^T.
        transposed = np.swapaxes(unitary, -1, -2)
        block = np.concatenate([
            transposed, np.matmul(np.swapaxes(fold, -1, -2), transposed)
        ], axis=0).reshape(2 * n_groups * dim, dim)

        def group_angle(op):
            ref = op.param
            if ref is not None and ref.kind == "weight" and weights.ndim == 2:
                return np.repeat(weights[:, ref.index] * ref.scale, dim)
            return circuit.resolve_angle(op, None, weights)

        _sweep(
            prog, circuit, block, range(top - 1, max(stop, split) - 1, -1),
            group_angle,
            lambda grads: grads.reshape(-1, n_groups, dim).sum(axis=2),
            None, gw,
        )
        top = split
        bra_ket = (beta.reshape(batch, dim), phi)
    else:
        psi = states.final if reusable else prog.evolve(inputs, weights, batch)
        bra_ket = (effective.apply(psi, n), psi)
    if stop < top:
        row_weights = _program.expand_weights(weights, batch)
        _sweep(
            prog, circuit, np.concatenate(bra_ket, axis=0),
            range(top - 1, stop - 1, -1),
            lambda op: circuit.resolve_angle(op, inputs, row_weights),
            lambda grads: grads, gi, gw,
        )
    return gi, gw


def _folds(prog, batch, n_groups):
    """Whether to fold the trailing block: its ``2 G 2**n`` fold rows
    against the ``2 B`` rows of the row sweep, decided by shapes alone."""
    return prog.suffix_has_weights and batch > n_groups * prog.dim


def _reusable(prog, states, batch, n_groups):
    """Whether a forward's states are there to differentiate: the fold
    starts from all three, the row sweep from the final states (a
    weight-free trailing block leaves no unitary)."""
    if states is None:
        return False
    unitary = states.unitary
    if states.prefix.shape != (batch, prog.dim) or (
        unitary is not None and unitary.shape[0] != n_groups
    ):
        groups = "no" if unitary is None else unitary.shape[0]
        raise ValueError(
            f"forward states for {states.prefix.shape[0]} rows and "
            f"{groups} weight rows do not match a batch of "
            f"{batch} over {n_groups} weight rows"
        )
    return True


def _sweep(prog, circuit, stacked, indices, angle, reduce, input_grads,
           weight_grads):
    """Compiled reverse sweep over ``indices`` (descending).

    ``stacked`` is the ``(2R, dim)`` bra-over-ket block (the states right
    after gate ``indices[0]``); ``angle(op)`` is a gate's angle for one
    half, and ``reduce`` maps the ``(gates, R)`` per-row gradients onto
    what :func:`_accumulate` routes, one row per gate.  The lowest gate is
    not inverted: nothing below it is swept.

    A rotation's generator is applied once, to the whole block: its ket
    half feeds the gradient and the block feeds the inverse rotation.  Each
    gate's ``<bra| G |ket>`` row sums land in one ``(gates, R)`` buffer, so
    ``Im``, ``reduce`` and the accumulation run once, after the sweep.
    """
    half = stacked.shape[0] // 2
    ops = circuit.operations
    lowest = indices[-1] if len(indices) else None
    swept = []
    sums = np.empty((len(indices), half), np.complex128)
    for i in indices:
        op = ops[i]
        generated = None
        if _needs_grad(op, input_grads is not None):
            # d<H>/dtheta = Im(<bra| G |ket>), ket = psi_i (pre-inverse).
            if i != lowest and prog.rotates(i):
                generated = prog.apply_generator(i, stacked)
                g_ket = generated[half:]
            else:
                g_ket = prog.apply_generator(i, stacked[half:])
            sums[len(swept)] = _sv.inner_products(stacked[:half], g_ket)
            swept.append(op)
        if i == lowest:
            break
        theta = angle(op)
        if theta is not None and np.ndim(theta) == 1:
            theta = np.concatenate([theta, theta])
        stacked = prog.apply_inverse(i, stacked, theta, generated)
    grads = reduce(np.imag(sums[:len(swept)]))
    for op, grad in zip(swept, grads):
        _accumulate(op, grad, input_grads, weight_grads)


def _interpreted_adjoint(circuit, effective, inputs, weights, batch, stop,
                         input_grads):
    """The per-gate reference sweep (interpreted tier)."""
    n = circuit.n_qubits
    row_weights = _program.expand_weights(weights, batch)
    ket = StatevectorBackend(program=False).evolve(
        circuit, inputs, row_weights, batch_size=batch
    )
    bra = effective.apply(ket, n)
    input_grads, weight_grads = _gradient_buffers(
        circuit, weights, batch, input_grads
    )
    for i in range(len(circuit.operations) - 1, stop - 1, -1):
        op = circuit.operations[i]
        if _needs_grad(op, input_grads is not None):
            # d<H>/dtheta = Im(<bra| G |ket>) with ket = psi_k (pre-inverse).
            g_ket = _sv.apply_matrix(ket, op.spec.generator, op.wires, n)
            grad = np.imag(_sv.inner_products(bra, g_ket))
            _accumulate(op, grad, input_grads, weight_grads)
        inverse = _inverse_matrix(op, circuit.resolve_angle(op, inputs, row_weights))
        ket = _sv.apply_matrix(ket, inverse, op.wires, n)
        bra = _sv.apply_matrix(bra, inverse, op.wires, n)
    return input_grads, weight_grads


class _ShiftExecutor:
    """Minimal state-stepping adapter over the two backends.

    Parameter-shift and finite differences only need "init, apply op,
    measure" primitives; this adapter provides them uniformly for pure and
    mixed states (including per-gate noise on the density backend).
    """

    def __init__(self, backend):
        self.backend = backend
        self._is_density = getattr(backend, "name", "") == "density_matrix"

    def initial_state(self, n_qubits, batch):
        if self._is_density:
            from repro.quantum import density as _dm

            return _dm.zero_density(n_qubits, batch)
        return _sv.zero_state(n_qubits, batch)

    def apply_operation(self, state, op, theta, n_qubits):
        if self._is_density:
            from repro.quantum import density as _dm

            state = _dm.apply_gate(state, op.gate, op.wires, n_qubits, theta)
            for channel, wire in self.backend.noise_model.channels_after(op):
                state = _dm.apply_channel(state, channel, (wire,), n_qubits)
            return state
        return _sv.apply_gate(state, op.gate, op.wires, n_qubits, theta)

    def measure_state(self, state, observables, n_qubits):
        return self.backend.measure(state, observables, n_qubits)


def _shifted_expectations(executor, circuit, observables, inputs, weights, op_index, delta):
    from repro.quantum.backends import _normalise_run_args

    inputs_arr, batch = _normalise_run_args(circuit.n_inputs, inputs, None)
    n = circuit.n_qubits
    state = executor.initial_state(n, batch)
    for i, op in enumerate(circuit.operations):
        theta = circuit.resolve_angle(op, inputs_arr, weights)
        if i == op_index:
            theta = np.asarray(theta) + delta
        state = executor.apply_operation(state, op, theta, n)
    return executor.measure_state(state, observables, n)


def _per_gate_angle_grad(executor, circuit, observables, inputs, weights, op_index, rule):
    """d<O_j>/d(theta of one gate occurrence), shape (B, n_obs)."""
    expectation = lambda delta: _shifted_expectations(  # noqa: E731
        executor, circuit, observables, inputs, weights, op_index, delta
    )
    if rule == "two_term":
        return 0.5 * (expectation(np.pi / 2) - expectation(-np.pi / 2))
    if rule == "four_term":
        near = expectation(np.pi / 2) - expectation(-np.pi / 2)
        far = expectation(3 * np.pi / 2) - expectation(-3 * np.pi / 2)
        return _FOUR_TERM_C1 * near - _FOUR_TERM_C2 * far
    raise ValueError(f"gate has no shift rule: {rule!r}")


def _shift_backward(circuit, upstream, weights, backend, input_grads,
                    angle_grad):
    """The VJP loop shared by the shift-based methods.

    ``angle_grad(executor, row_weights, i)`` is ``d<O_j>/d theta_i`` for one
    gate occurrence, shape ``(B, n_obs)``.
    """
    executor = _ShiftExecutor(
        backend if backend is not None else StatevectorBackend()
    )
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        upstream = upstream[None, :]
    batch = upstream.shape[0]
    input_grads, weight_grads = _gradient_buffers(
        circuit, weights, batch, input_grads
    )
    row_weights = _program.expand_weights(weights, batch)
    for i, op in enumerate(circuit.operations):
        if _needs_grad(op, input_grads is not None):
            grad_obs = angle_grad(executor, row_weights, i)
            _accumulate(
                op, np.sum(grad_obs * upstream, axis=1), input_grads,
                weight_grads,
            )
    return input_grads, weight_grads


def parameter_shift_backward(
    circuit, observables, inputs, weights, upstream, backend=None,
    input_grads=True,
):
    """Vector-Jacobian product via the parameter-shift rule.

    Works on any backend, including noisy density-matrix execution (the
    shift rule holds channel-wise) and shot-based estimation.
    """
    def angle_grad(executor, row_weights, i):
        return _per_gate_angle_grad(
            executor, circuit, observables, inputs, row_weights, i,
            circuit.operations[i].spec.shift_rule,
        )

    return _shift_backward(
        circuit, upstream, weights, backend, input_grads, angle_grad
    )


def finite_difference_backward(
    circuit, observables, inputs, weights, upstream, backend=None, epsilon=1e-6,
    input_grads=True,
):
    """Vector-Jacobian product via central finite differences (testing aid)."""
    def angle_grad(executor, row_weights, i):
        plus, minus = (
            _shifted_expectations(
                executor, circuit, observables, inputs, row_weights, i, delta
            )
            for delta in (epsilon, -epsilon)
        )
        return (plus - minus) / (2.0 * epsilon)

    return _shift_backward(
        circuit, upstream, weights, backend, input_grads, angle_grad
    )


GRADIENT_METHODS = ("adjoint", "parameter_shift", "finite_diff")


def backward(
    circuit,
    observables,
    inputs,
    weights,
    upstream,
    method="adjoint",
    backend=None,
    input_grads=True,
    states=None,
):
    """Dispatch to one of the gradient methods by name.

    ``input_grads=False`` returns ``None`` input gradients without computing
    them — for callers that only train weights.  ``states`` hands the
    adjoint method what the forward kept (see :func:`adjoint_backward`);
    the shift-based methods re-run the circuit anyway and ignore it.
    """
    if method == "adjoint":
        if backend is not None and not getattr(backend, "supports_adjoint", False):
            raise ValueError(
                f"backend {backend!r} does not support adjoint differentiation; "
                "use method='parameter_shift'"
            )
        if backend is not None and backend.shots is not None:
            raise ValueError("adjoint differentiation requires exact expectations")
        return adjoint_backward(
            circuit,
            observables,
            inputs,
            weights,
            upstream,
            input_grads=input_grads,
            states=states,
        )
    if method == "parameter_shift":
        return parameter_shift_backward(
            circuit, observables, inputs, weights, upstream, backend,
            input_grads=input_grads,
        )
    if method == "finite_diff":
        return finite_difference_backward(
            circuit, observables, inputs, weights, upstream, backend,
            input_grads=input_grads,
        )
    raise ValueError(
        f"unknown gradient method {method!r}; choose from {GRADIENT_METHODS}"
    )
