"""Compiled circuit programs: fused, pre-planned gate kernels.

The interpreted simulator (:func:`repro.quantum.statevector.apply_gate`)
re-derives everything on every call: wire validation, gate-matrix
construction, a generic ``moveaxis``/``reshape``/``einsum`` application.
:func:`compile_program` resolves all of that **once** per circuit into a
:class:`CircuitProgram` — a flat list of pre-planned kernel applications
specialised by gate class:

- **diagonal** gates (``z``/``s``/``t``/``cz`` and parameterised
  ``rz``/``crz``) become a phase-vector elementwise multiply over the full
  state — no axis movement at all;
- **permutation / monomial** gates (``x``/``y``/``cnot``/``swap``/
  ``toffoli``) become a cached full-state index gather (plus a phase
  multiply when the single nonzero per row is not 1);
- **dense** 1–2 qubit gates keep the einsum contraction, but through a
  pre-planned reshape (no ``moveaxis`` copies) with the subscripts and view
  shapes resolved at compile time.

On top of the per-op plans the forward execution path *fuses*:

- runs of adjacent input-independent gates whose combined wire set stays
  within two qubits are pre-merged into single small unitaries (constant
  ones folded at compile time, weight-dependent ones cached by weight
  content);
- consecutive constant diagonal/monomial kernels are composed into one
  full-state gather (a CNOT ring collapses to a single index take).

Fusion never crosses an input-dependent operation, so per-sample encoding
angles always see exactly the gates the symbolic circuit specifies.

Grouped 2-D weights ``(G, n_weights)`` (row ``b`` uses weight row
``b % G``, :func:`expand_weights`) run the encoding prefix per row and the
input-free trailing block (from :func:`split_index` on) as ``G`` cached
``2**n x 2**n`` unitaries (:meth:`CircuitProgram.suffix_unitary`).

The per-op (unfused) plans double as the adjoint-differentiation kernels:
each op exposes a compiled **inverse** plan (for the reverse sweep, applied
to the stacked bra/ket array in one call) and a compiled **generator** plan
(Pauli generators are diagonal or monomial, so ``G |ket>`` is a multiply or
a gather instead of an einsum).

Everything here is numerically the same linear map as the interpreted
path — identical gate matrices, associatively regrouped — and is pinned
against it by the equivalence suite in ``tests/test_program.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.quantum import statevector as _sv

__all__ = [
    "CircuitProgram",
    "compile_program",
    "expand_weights",
    "program_enabled",
    "set_program_enabled",
    "split_index",
    "using_program",
    "weight_groups",
    "weights_key",
]

# ---------------------------------------------------------------------------
# Global tier switch
# ---------------------------------------------------------------------------

_ENABLED = os.environ.get("REPRO_QUANTUM_PROGRAM", "1").lower() not in (
    "0",
    "false",
    "no",
    "off",
)


def program_enabled():
    """Whether the program-compiled execution tier is globally enabled."""
    return _ENABLED


def set_program_enabled(enabled):
    """Toggle the program tier globally; returns the previous setting.

    The interpreted path is kept as the semantic reference — equivalence
    tests and the kernel benchmarks flip this switch to compare tiers.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def using_program(enabled):
    """Context manager scoping :func:`set_program_enabled`."""
    previous = set_program_enabled(enabled)
    try:
        yield
    finally:
        set_program_enabled(previous)


# ---------------------------------------------------------------------------
# Weights: content keys and the grouped 2-D contract
# ---------------------------------------------------------------------------


def weights_key(weights):
    """Content key of a 1-D weight vector (weights mutate in place under Adam).

    Keys the fused weight-step matrices; grouped 2-D weights never need it
    (their per-op kernels read the angles directly).
    """
    array = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    digest = hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()
    return (array.shape, digest)


def split_index(circuit):
    """Index of the first operation after the last input-dependent one:
    the trailing block from there on is one fixed unitary per weight vector.
    Takes anything with an ``operations`` list (a circuit or a program)."""
    last_input = -1
    for i, op in enumerate(circuit.operations):
        if op.is_input:
            last_input = i
    return last_input + 1


def weight_groups(weights, batch):
    """``G`` of grouped ``(G, n)`` weights, which serve a ``k * G``-row batch
    (row ``b`` uses weight row ``b % G``; other batch sizes are rejected).
    A shared 1-D vector (or ``None``) is one group."""
    if weights is None or np.ndim(weights) != 2:
        return 1
    n_groups = np.shape(weights)[0]
    if n_groups == 0 or batch % n_groups:
        raise ValueError(
            f"{n_groups} weight rows for batch {batch}: the batch must be a "
            f"multiple of the weight rows"
        )
    return n_groups


def expand_weights(weights, batch):
    """One weight row per batch row (see :func:`weight_groups`); 1-D
    weights and ``None`` pass through."""
    n_groups = weight_groups(weights, batch)
    if weights is None or np.ndim(weights) != 2 or n_groups == batch:
        return weights
    return np.asarray(weights)[np.arange(batch) % n_groups]


# ---------------------------------------------------------------------------
# Index algebra: embedding gate-space structure into the full register
# ---------------------------------------------------------------------------


def _sub_indices(indices, wires, n_qubits):
    """Gate-space sub-index of every full basis index (``wires[0]`` MSB)."""
    k = len(wires)
    sub = np.zeros_like(indices)
    for j, w in enumerate(wires):
        sub |= ((indices >> (n_qubits - 1 - w)) & 1) << (k - 1 - j)
    return sub


def _full_diagonal(diag, wires, n_qubits):
    """Spread a gate-space diagonal (length ``2**k``) over the full state."""
    indices = np.arange(2**n_qubits)
    return diag[_sub_indices(indices, wires, n_qubits)]


def _full_gather(source_sub, phase_sub, wires, n_qubits):
    """Lift a gate-space gather (per-row source + phase) to the full state."""
    indices = np.arange(2**n_qubits)
    k = len(wires)
    sub = _sub_indices(indices, wires, n_qubits)
    target = source_sub[sub]
    cleared = indices.copy()
    for w in wires:
        cleared &= ~(1 << (n_qubits - 1 - w))
    source = cleared
    for j, w in enumerate(wires):
        source = source | (((target >> (k - 1 - j)) & 1) << (n_qubits - 1 - w))
    phase = None if phase_sub is None else phase_sub[sub]
    return source, phase


def _kron(a, b):
    """Kronecker product supporting batched (``(B, d, d)``) factors."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    da, db = a.shape[-1], b.shape[-1]
    return out.reshape(out.shape[:-4] + (da * db, da * db))


_BIT_SWAP_2Q = np.array([0, 2, 1, 3])


def _embed_matrix(matrix, op_wires, union):
    """Embed a 1–2 qubit gate matrix into the (sorted) fused wire space."""
    op_wires = tuple(op_wires)
    union = tuple(union)
    if op_wires == union:
        return matrix
    if len(op_wires) == 1:
        identity = np.eye(2, dtype=np.complex128)
        if op_wires[0] == union[0]:
            return _kron(matrix, identity)
        return _kron(identity, matrix)
    # Two-qubit gate listed in the opposite wire order: swap its index bits.
    return matrix[..., _BIT_SWAP_2Q, :][..., :, _BIT_SWAP_2Q]


# ---------------------------------------------------------------------------
# Dense kernel: pre-planned reshape/einsum (no moveaxis copies)
# ---------------------------------------------------------------------------


class _DensePlan:
    """Apply a dense 1–2 qubit matrix through a compile-time matmul plan.

    Two strategies, chosen once per (wires, n_qubits) by memory layout:

    - ``bmm`` — when the gate axes are contiguous in the state tensor and
      followed by a reasonably wide trailing block, ``matmul`` broadcasts
      the gate matrix straight onto the ``(..., d_gate, trailing)`` view:
      zero copies, BLAS-backed.
    - ``tmm`` — otherwise the gate axes are transposed to the end once,
      flattened, and contracted as ``t @ m.T``; the two transposes replace
      the interpreted path's ``moveaxis`` copies with a single
      cache-friendly one each way.
    """

    __slots__ = ("_bit_perm", "_strategy", "_view_shape", "_gate_dim",
                 "_fwd_axes", "_back_axes", "dim")

    _BMM_MIN_TRAILING = 8

    def __init__(self, wires, n_qubits):
        wires = tuple(int(w) for w in wires)
        k = len(wires)
        if k not in (1, 2):
            raise ValueError(f"dense plans cover 1-2 wires, got {wires}")
        self.dim = 2**n_qubits
        ordered = tuple(sorted(wires))
        self._bit_perm = None if wires == ordered else _BIT_SWAP_2Q
        self._gate_dim = 2**k
        adjacent = k == 1 or ordered[1] == ordered[0] + 1
        if adjacent:
            left = 2 ** ordered[0]
            trailing = self.dim // (left * self._gate_dim)
            self._view_shape = (left, self._gate_dim, trailing)
            if trailing >= self._BMM_MIN_TRAILING:
                self._strategy = "bmm"
            else:
                self._strategy = "tmm"
                self._fwd_axes = (0, 1, 3, 2)
                self._back_axes = (0, 1, 3, 2)
        else:
            u, v = ordered
            self._strategy = "tmm"
            self._view_shape = (
                2**u, 2, 2 ** (v - u - 1), 2, 2 ** (n_qubits - 1 - v)
            )
            # (B, d1, j, d2, l, d3) -> (B, d1, d2, d3, j, l) and back.
            self._fwd_axes = (0, 1, 3, 5, 2, 4)
            self._back_axes = (0, 1, 4, 2, 5, 3)

    def apply(self, psi, matrix):
        batch = psi.shape[0]
        if self._bit_perm is not None:
            matrix = matrix[..., self._bit_perm, :][..., :, self._bit_perm]
        view = psi.reshape((batch,) + self._view_shape)
        d = self._gate_dim
        if self._strategy == "bmm":
            operand = matrix if matrix.ndim == 2 else matrix[:, None]
            return np.matmul(operand, view).reshape(batch, self.dim)
        moved = np.transpose(view, self._fwd_axes)
        rest_shape = moved.shape
        flat = moved.reshape(batch, self.dim // d, d)
        out = np.matmul(flat, np.swapaxes(matrix, -1, -2))
        out = np.transpose(out.reshape(rest_shape), self._back_axes)
        return out.reshape(batch, self.dim)


# ---------------------------------------------------------------------------
# Matrix classification
# ---------------------------------------------------------------------------


def _monomial_parts(matrix):
    """``(source, phase)`` when each row has at most one nonzero, else None.

    Rows that are entirely zero (Hermitian generators of controlled
    rotations have them) gather from column 0 with phase 0.
    """
    nonzero = matrix != 0
    per_row = nonzero.sum(axis=1)
    if np.any(per_row > 1):
        return None
    rows = np.arange(matrix.shape[0])
    source = np.where(per_row == 1, nonzero.argmax(axis=1), 0)
    phase = matrix[rows, source] * (per_row == 1)
    return source, phase


def _is_diagonal(matrix):
    return np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0


# Full-state exponent coefficients of the diagonal rotations:
# U = diag(exp(1j * theta * c_i)).
_PARAM_DIAG_COEFFS = {
    "rz": np.array([-0.5, 0.5]),
    "crz": np.array([0.0, 0.0, -0.5, 0.5]),
}


def _diag_phases(theta, unique_coeff, index_map):
    """``exp(1j * theta * coeff)`` for scalar or per-sample ``theta``.

    The exponential runs over the few *unique* coefficients (2–3 for
    ``rz``/``crz``) and is spread over the full state by a precompiled
    index map — same per-element values, a fraction of the transcendental
    work.
    """
    if np.ndim(theta) == 1:
        phases = np.exp(1j * np.asarray(theta)[:, None] * unique_coeff)
        return np.take(phases, index_map, axis=1)
    return np.take(np.exp(1j * theta * unique_coeff), index_map, axis=0)


# ---------------------------------------------------------------------------
# Per-operation plans
# ---------------------------------------------------------------------------


def _as_inputs(inputs):
    return None if inputs is None else np.asarray(inputs, dtype=np.float64)


def _resolve(resolver, inputs, weights):
    """Concrete angle(s) for one op — mirrors ``QuantumCircuit.resolve_angle``."""
    kind, index, scale = resolver
    if kind == "weight":
        if weights is None:
            raise ValueError("circuit references weights but none were given")
        if weights.ndim == 2:
            return weights[:, index] * scale
        return float(weights[index]) * scale
    if inputs is None:
        raise ValueError("circuit references inputs but none were given")
    return inputs[:, index] * scale


class _OpPlan:
    """One pre-planned gate application (forward, inverse and generator).

    ``kind`` is one of ``"diag"``/``"gather"``/``"dense"`` (constant
    matrices, fully resolved at compile time) or ``"pdiag"``/``"prot"``/
    ``"pdense"`` (parameterised by an input feature or trainable weight,
    resolved per call through ``resolver``).  ``"prot"`` covers rotations
    whose generator squares to the identity or to a diagonal projector
    (every registry rotation): ``exp(-i*theta/2*G)`` is then applied as
    broadcast arithmetic over the compiled generator kernel —
    ``cos(theta/2) psi - i sin(theta/2) G psi`` — with no per-sample gate
    matrices at all, which is what makes batched-angle application and the
    stacked adjoint sweep cheap.
    """

    __slots__ = (
        "ops", "wires", "kind", "resolver", "phase", "inv_phase", "source",
        "inv_source", "coeff", "matrix", "inv_matrix", "matrix_fn", "dense",
        "gen_kind", "gen_data", "proj", "n_qubits",
    )

    def __init__(self, ops, wires, kind, n_qubits):
        self.ops = tuple(ops)
        self.wires = tuple(wires)
        self.kind = kind
        self.n_qubits = n_qubits
        self.resolver = None
        self.phase = self.inv_phase = None
        self.source = self.inv_source = None
        self.coeff = None
        self.matrix = self.inv_matrix = None
        self.matrix_fn = None
        self.dense = None
        self.gen_kind = self.gen_data = None
        self.proj = None

    @property
    def is_identity(self):
        """True for a no-op plan (identity gates, cancelled fusions)."""
        return self.kind == "diag" and self.phase is None

    # -- forward --------------------------------------------------------------

    def apply_forward(self, psi, theta=None, out=None):
        """Forward kernel; ``out`` is an optional scratch target for the
        diag/gather/pdiag kinds (never aliased with ``psi`` by the caller).
        Gather-with-phase multiplies in place on the freshly gathered rows,
        so even without scratch it allocates once instead of twice.
        """
        kind = self.kind
        if kind == "diag":
            if self.phase is None:
                return psi
            if out is not None:
                return np.multiply(psi, self.phase, out=out)
            return psi * self.phase
        if kind == "gather":
            if out is not None:
                # mode="clip" never clips (source is a compile-time
                # permutation) but skips the bounds-checked buffered path
                # numpy falls into when ``out`` is combined with "raise".
                taken = np.take(psi, self.source, axis=1, out=out, mode="clip")
            else:
                taken = psi[:, self.source]
            if self.phase is None:
                return taken
            return np.multiply(taken, self.phase, out=taken)
        if kind == "pdiag":
            unique_coeff, index_map = self.coeff
            phases = _diag_phases(theta, unique_coeff, index_map)
            if phases.ndim == 2:
                # The per-sample phase table is freshly built this call —
                # multiplying into it saves the product allocation.
                return np.multiply(psi, phases, out=phases)
            if out is not None:
                return np.multiply(psi, phases, out=out)
            return psi * phases
        if kind == "prot":
            return self._apply_rotation(psi, theta, 1.0)
        if kind == "pdense":
            return self._apply_dense(psi, self.matrix_fn(theta))
        return self._apply_dense(psi, self.matrix)

    # -- adjoint kernels ------------------------------------------------------

    def apply_inverse(self, psi, theta=None):
        kind = self.kind
        if kind == "diag":
            return psi if self.inv_phase is None else psi * self.inv_phase
        if kind == "gather":
            taken = psi[:, self.inv_source]
            if self.inv_phase is None:
                return taken
            return np.multiply(taken, self.inv_phase, out=taken)
        if kind == "pdiag":
            unique_coeff, index_map = self.coeff
            phases = _diag_phases(-np.asarray(theta), unique_coeff, index_map)
            if phases.ndim == 2:
                return np.multiply(psi, phases, out=phases)
            return psi * phases
        if kind == "prot":
            return self._apply_rotation(psi, theta, -1.0)
        if kind == "pdense":
            return self._apply_dense(psi, self.matrix_fn(-np.asarray(theta)))
        return self._apply_dense(psi, self.inv_matrix)

    def apply_generator(self, psi):
        if self.gen_kind == "diag":
            return psi * self.gen_data
        if self.gen_kind == "gather":
            source, phase = self.gen_data
            taken = psi[:, source]
            if phase is None:
                return taken
            return np.multiply(taken, phase, out=taken)
        return _sv.apply_matrix(psi, self.gen_data, self.wires, self.n_qubits)

    def _apply_rotation(self, psi, theta, sign):
        """``exp(-i*sign*theta/2*G) |psi>`` through the generator kernel."""
        half = 0.5 * np.asarray(theta)
        cos = np.cos(half)
        sin = np.sin(half) if sign > 0 else -np.sin(half)
        if cos.ndim == 1:
            cos = cos[:, None]
            sin = sin[:, None]
        # The generator kernel returns a fresh array: scale and add in place.
        g_psi = self.apply_generator(psi)
        g_psi *= -1j * sin
        if self.proj is None:
            out = psi * cos
        else:
            # G^2 = P (diagonal projector): rotate only the projected subspace.
            out = psi * (1.0 + (cos - 1.0) * self.proj)
        out += g_psi
        return out

    def _apply_dense(self, psi, matrix):
        if self.dense is not None:
            return self.dense.apply(psi, matrix)
        return _sv.apply_matrix(psi, matrix, self.wires, self.n_qubits)


def _fixed_plan(ops, matrix, wires, n_qubits):
    """Classify a constant matrix into a diag / gather / dense plan."""
    if _is_diagonal(matrix):
        plan = _OpPlan(ops, wires, "diag", n_qubits)
        phase = _full_diagonal(np.diag(matrix).copy(), wires, n_qubits)
        if np.all(phase == 1.0):
            return plan  # identity: phase stays None
        plan.phase = phase
        plan.inv_phase = phase.conj()
        return plan
    parts = _monomial_parts(matrix)
    if parts is not None and np.all((matrix != 0).sum(axis=0) == 1):
        source_sub, phase_sub = parts
        if np.all(phase_sub == 1.0):
            phase_sub = None
        plan = _OpPlan(ops, wires, "gather", n_qubits)
        plan.source, plan.phase = _full_gather(
            source_sub, phase_sub, wires, n_qubits
        )
        plan.inv_source = np.empty_like(plan.source)
        plan.inv_source[plan.source] = np.arange(plan.source.shape[0])
        if plan.phase is None:
            plan.inv_phase = None
        else:
            plan.inv_phase = np.empty_like(plan.phase)
            plan.inv_phase[plan.source] = plan.phase.conj()
        return plan
    plan = _OpPlan(ops, wires, "dense", n_qubits)
    plan.matrix = matrix
    plan.inv_matrix = matrix.conj().T
    if len(wires) <= 2:
        plan.dense = _DensePlan(wires, n_qubits)
    return plan


def _generator_plan(plan, generator, wires, n_qubits):
    """Attach the compiled ``G |psi>`` kernel for adjoint gradients."""
    if _is_diagonal(generator):
        plan.gen_kind = "diag"
        plan.gen_data = _full_diagonal(np.diag(generator).copy(), wires, n_qubits)
        return
    parts = _monomial_parts(generator)
    if parts is not None:
        source_sub, phase_sub = parts
        if np.all(phase_sub == 1.0):
            phase_sub = None
        plan.gen_kind = "gather"
        plan.gen_data = _full_gather(source_sub, phase_sub, wires, n_qubits)
        return
    plan.gen_kind = "dense"
    plan.gen_data = generator


def _rotation_projector(spec, wires, n_qubits):
    """Full-state ``G^2`` diagonal when the generator-rotation form applies.

    Returns ``(ok, proj)``: ``proj`` is ``None`` for involutory generators
    (``G^2 = I``), a full-state 0/1 diagonal for projector generators
    (controlled rotations), and ``ok`` is False when the gate is not of the
    form ``exp(-i*theta/2*G)`` over that structure (verified numerically at
    compile time against ``matrix_fn``).
    """
    generator = spec.generator
    g_squared = generator @ generator
    dim = generator.shape[0]
    eye = np.eye(dim)
    if np.allclose(g_squared, eye, atol=1e-12):
        projector = eye
        proj = None
    elif _is_diagonal(g_squared) and np.all(
        np.isin(np.round(np.diag(g_squared).real, 12), (0.0, 1.0))
    ):
        projector = np.diag(np.diag(g_squared))
        proj = _full_diagonal(np.diag(g_squared).real.copy(), wires, n_qubits)
    else:
        return False, None
    check = 0.737
    reconstructed = (
        eye
        - projector
        + np.cos(check / 2) * projector
        - 1j * np.sin(check / 2) * generator
    )
    if not np.allclose(spec.matrix_fn(check), reconstructed, atol=1e-12):
        return False, None
    return True, proj


def _compile_op(op, n_qubits):
    """Compile one circuit operation into its kernel plan."""
    spec = op.spec
    ref = op.param
    if spec.n_params == 0:
        return _fixed_plan((op,), spec.fixed_matrix, op.wires, n_qubits)
    if ref.kind == "fixed":
        matrix = spec.matrix_fn(ref.value * ref.scale)
        return _fixed_plan((op,), matrix, op.wires, n_qubits)
    resolver = (ref.kind, ref.index, ref.scale)
    coeff = _PARAM_DIAG_COEFFS.get(spec.name)
    if coeff is not None:
        plan = _OpPlan((op,), op.wires, "pdiag", n_qubits)
        full = _full_diagonal(coeff, op.wires, n_qubits)
        unique_coeff, index_map = np.unique(full, return_inverse=True)
        plan.coeff = (unique_coeff, index_map)
        plan.resolver = resolver
        _generator_plan(plan, spec.generator, op.wires, n_qubits)
        return plan
    is_rotation, proj = (
        _rotation_projector(spec, op.wires, n_qubits)
        if spec.generator is not None
        else (False, None)
    )
    if is_rotation:
        plan = _OpPlan((op,), op.wires, "prot", n_qubits)
        plan.proj = proj
    else:
        plan = _OpPlan((op,), op.wires, "pdense", n_qubits)
        if len(op.wires) <= 2:
            plan.dense = _DensePlan(op.wires, n_qubits)
    plan.matrix_fn = spec.matrix_fn
    plan.resolver = resolver
    _generator_plan(plan, spec.generator, op.wires, n_qubits)
    return plan


# ---------------------------------------------------------------------------
# First encoding layer: a product state on the fresh register
# ---------------------------------------------------------------------------


class _ProductLayer:
    """A leading run of input-encoded one-qubit rotations of one kind on
    wires ``0, 1, ..., k - 1``, in that order (every encoder's first layer).

    On ``|0...0>`` such a run prepares a product state, built here without
    touching the full register: the gate's own kernel, compiled on one
    qubit, turns ``(B * k, 2)`` zero states into every wire's column, and a
    Kronecker chain multiplies the columns in gate order.  On a fresh wire
    one term of each rotation is exactly zero, so every amplitude is the
    product the full-register kernels form, in the same order — only the
    sign of zero amplitudes can differ (``docs/quantum_kernels.md``, "First
    encoding layer").
    """

    __slots__ = ("n_gates", "_kernel", "_indices", "_scales", "_stride")

    def __init__(self, operations, n_qubits):
        self.n_gates = len(operations)
        self._kernel = _compile_op(
            dataclasses.replace(operations[0], wires=(0,)), 1
        )
        self._indices = np.array([op.param.index for op in operations])
        self._scales = np.array([op.param.scale for op in operations])
        # Wires past the run stay |0>: the product lands on every
        # ``stride``-th amplitude.
        self._stride = 2 ** (n_qubits - self.n_gates)

    @classmethod
    def detect(cls, operations, op_plans, n_qubits):
        """The layer leading ``operations``, or ``None`` when fewer than two
        gates qualify.  Gate order must be wire order: the chain multiplies
        in gate order and lays the columns out in wire order."""
        run = []
        for wire, (op, plan) in enumerate(zip(operations, op_plans)):
            if not (
                op.is_input
                and op.wires == (wire,)
                and op.spec is operations[0].spec
                and plan.kind == "prot"
            ):
                break
            run.append(op)
        return cls(run, n_qubits) if len(run) >= 2 else None

    def states(self, inputs, batch):
        """``(B, 2**n)`` states after the layer, from ``(B, n_inputs)``."""
        if inputs is None:
            raise ValueError("circuit references inputs but none were given")
        theta = (inputs[:, self._indices] * self._scales).T.ravel()
        columns = self._kernel.apply_forward(
            _sv.zero_state(1, theta.shape[0]), theta
        ).reshape(self.n_gates, batch, 2)
        psi = columns[0]
        for column in columns[1:]:
            psi = (psi[:, :, None] * column[:, None, :]).reshape(batch, -1)
        if self._stride == 1:
            return psi
        out = np.zeros((batch, psi.shape[1] * self._stride), np.complex128)
        out[:, ::self._stride] = psi
        return out


# ---------------------------------------------------------------------------
# Forward execution steps (fused)
# ---------------------------------------------------------------------------


class _PlanStep:
    """Forward step executing one (possibly fused-constant) op plan."""

    __slots__ = ("plan",)

    def __init__(self, plan):
        self.plan = plan

    @property
    def ops(self):
        return self.plan.ops

    @property
    def kind(self):
        return self.plan.kind

    def apply(self, psi, inputs, weights, key, out=None):
        plan = self.plan
        if plan.resolver is None:
            return plan.apply_forward(psi, out=out)
        return plan.apply_forward(
            psi, _resolve(plan.resolver, inputs, weights), out
        )


class _FusedWeightStep:
    """A run of adjacent weight/constant gates merged into one small unitary.

    The fused matrix is rebuilt only when the weight *content* changes
    (detected through the program-level weights key), so it stays cached
    across every call between optimiser updates.  With 2-D per-row
    weights, fusing would build a batched ``(B, d, d)`` matrix stack per
    weight change; the constituent per-op rotation kernels are cheaper
    there, so the step falls back to applying its ops individually.
    """

    __slots__ = ("ops", "wires", "kind", "_plan", "_parts", "_op_plans",
                 "_key", "_matrix")

    def __init__(self, ops, wires, n_qubits, op_plans):
        self.ops = tuple(ops)
        self.wires = tuple(wires)
        self.kind = "fused"
        self._plan = _DensePlan(self.wires, n_qubits)
        self._op_plans = list(op_plans)
        self._parts = []
        for op in self.ops:
            spec = op.spec
            ref = op.param
            if spec.n_params == 0:
                matrix = _embed_matrix(spec.fixed_matrix, op.wires, self.wires)
                self._parts.append(("const", matrix))
            elif ref.kind == "fixed":
                matrix = _embed_matrix(
                    spec.matrix_fn(ref.value * ref.scale), op.wires, self.wires
                )
                self._parts.append(("const", matrix))
            else:
                self._parts.append(
                    ("weight", spec.matrix_fn, ref.index, ref.scale, op.wires)
                )
        self._key = object()  # sentinel: never equal to a content key
        self._matrix = None

    def matrix(self, weights, key):
        """Fused unitary for a 1-D weight vector (2-D goes through apply)."""
        if key == self._key:
            if obs.enabled():
                obs.counter("program.fused_hit").inc()
            return self._matrix
        if obs.enabled():
            obs.counter("program.fused_build").inc()
        total = None
        for part in self._parts:
            if part[0] == "const":
                matrix = part[1]
            else:
                _, matrix_fn, index, scale, op_wires = part
                theta = float(weights[index]) * scale
                matrix = _embed_matrix(matrix_fn(theta), op_wires, self.wires)
            total = matrix if total is None else matrix @ total
        self._key = key
        self._matrix = total
        return total

    def apply(self, psi, inputs, weights, key, out=None):
        if weights is None:
            raise ValueError("circuit references weights but none were given")
        if weights.ndim == 2:
            # Per-sample weights: batched fused matrices cost more than the
            # constituent rotation kernels — run the ops individually.
            for plan in self._op_plans:
                if plan.resolver is None:
                    psi = plan.apply_forward(psi)
                else:
                    psi = plan.apply_forward(
                        psi, _resolve(plan.resolver, inputs, weights)
                    )
            return psi
        return self._plan.apply(psi, self.matrix(weights, key))


def _compose_monomial(first, second, n_qubits):
    """Merge two constant diag/gather plans (``first`` applied first)."""
    sa, pa = first.source, first.phase
    sb, pb = second.source, second.phase
    if sa is None and sb is None:
        source = None
    elif sb is None:
        source = sa
    elif sa is None:
        source = sb
    else:
        source = sa[sb]
    pa_moved = pa if (pa is None or sb is None) else pa[sb]
    if pa_moved is None:
        phase = pb
    elif pb is None:
        phase = pa_moved
    else:
        phase = pa_moved * pb
    if source is not None and np.array_equal(source, np.arange(source.shape[0])):
        source = None
    ops = first.ops + second.ops
    wires = tuple(sorted(set(first.wires) | set(second.wires)))
    if source is None:
        plan = _OpPlan(ops, wires, "diag", n_qubits)
        if phase is not None and not np.all(phase == 1.0):
            plan.phase = phase
            plan.inv_phase = phase.conj()
        return plan
    plan = _OpPlan(ops, wires, "gather", n_qubits)
    plan.source, plan.phase = source, phase
    plan.inv_source = np.empty_like(source)
    plan.inv_source[source] = np.arange(source.shape[0])
    if phase is None:
        plan.inv_phase = None
    else:
        plan.inv_phase = np.empty_like(phase)
        plan.inv_phase[source] = phase.conj()
    return plan


# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------


class CircuitProgram:
    """A circuit lowered to pre-planned, fused gate kernels.

    Args:
        n_qubits: Register width.
        operations: Ordered :class:`~repro.quantum.circuit.Operation` list
            (a whole circuit, or a slice of one).

    Two views of the same circuit are compiled:

    - :attr:`steps` — the fused forward plan used by :meth:`apply` /
      :meth:`evolve`, in two parts split at :attr:`split`: the encoding
      prefix and the input-free trailing block (fusion never crosses an
      input op, so the parts are exactly the steps of the whole);
    - :attr:`op_plans` — one un-fused plan per operation, exposing
      :meth:`apply_inverse` and :meth:`apply_generator` for the adjoint
      reverse sweep (which needs per-gate granularity).
    """

    # Scratch buffers are kept for at most this many distinct batch shapes.
    _SCRATCH_SHAPE_LIMIT = 8
    # Weight matrices whose trailing-block unitaries stay cached.
    _SUFFIX_CACHE_SIZE = 4

    def __init__(self, n_qubits, operations):
        self.n_qubits = int(n_qubits)
        self.dim = 2**self.n_qubits
        self.operations = tuple(operations)
        self.op_plans = [_compile_op(op, self.n_qubits) for op in self.operations]
        self.split = split_index(self)
        # Input features referenced (max index + 1), as QuantumCircuit's
        # n_inputs — cached so per-call input checks skip the op scan.
        self.n_inputs = 1 + max(
            (op.param.index for op in self.operations if op.is_input),
            default=-1,
        )
        # Input ops are never fused, so the layer's gates are exactly the
        # first prefix steps, which prefix_states skips.
        self._layer = _ProductLayer.detect(
            self.operations, self.op_plans, self.n_qubits
        )
        prefix, suffix = self.operations[:self.split], self.operations[self.split:]
        self._prefix_steps = self._build_steps(prefix, self.op_plans[:self.split])
        self._suffix_steps = self._build_steps(suffix, self.op_plans[self.split:])
        self.steps = self._prefix_steps + self._suffix_steps
        # Frozen at compile time so the telemetry publish per call is a
        # tuple walk, not a per-call histogram rebuild.
        self._kind_counts = tuple(sorted(self.kernel_counts().items()))
        self._grouped_kind_counts = tuple(sorted(Counter(
            [step.kind for step in self._prefix_steps] + ["suffix"]
        ).items()))
        self._fused_weights = any(
            isinstance(step, _FusedWeightStep) for step in self.steps
        )
        self.prefix_has_weights = any(op.is_trainable for op in prefix)
        self.suffix_has_weights = any(op.is_trainable for op in suffix)
        self._suffix_cache = []  # [(weights, unitary)], most recent last
        # Per-program ping-pong scratch: forward diag/gather/pdiag steps
        # write into preallocated buffers instead of allocating a fresh
        # state per step.  The final step always allocates, so returned
        # states never alias program-owned scratch.
        self._scratch = {}

    # -- compilation ----------------------------------------------------------

    def _build_steps(self, operations, op_plans):
        steps = []
        group = []  # (op, plan) pairs of the pending fusion run
        group_wires = set()

        def flush():
            if not group:
                return
            if len(group) == 1:
                steps.append(_PlanStep(group[0][1]))
            else:
                ops = [op for op, _ in group]
                union = tuple(sorted(group_wires))
                if any(op.is_trainable for op in ops):
                    steps.append(
                        _FusedWeightStep(
                            ops, union, self.n_qubits,
                            [plan for _, plan in group],
                        )
                    )
                else:
                    total = None
                    for op in ops:
                        spec = op.spec
                        if spec.n_params == 0:
                            matrix = spec.fixed_matrix
                        else:
                            ref = op.param
                            matrix = spec.matrix_fn(ref.value * ref.scale)
                        matrix = _embed_matrix(matrix, op.wires, union)
                        total = matrix if total is None else matrix @ total
                    steps.append(
                        _PlanStep(_fixed_plan(ops, total, union, self.n_qubits))
                    )
            group.clear()
            group_wires.clear()

        for op, plan in zip(operations, op_plans):
            fusable = not op.is_input and len(op.wires) <= 2
            if fusable and len(group_wires | set(op.wires)) <= 2:
                group.append((op, plan))
                group_wires.update(op.wires)
                continue
            flush()
            if fusable:
                group.append((op, plan))
                group_wires.update(op.wires)
            else:
                steps.append(_PlanStep(plan))
        flush()

        # Compose consecutive constant diagonal/monomial kernels into one
        # full-state gather — wire overlap is irrelevant at this level.
        merged = []
        for step in steps:
            if (
                merged
                and isinstance(step, _PlanStep)
                and isinstance(merged[-1], _PlanStep)
                and step.plan.resolver is None
                and merged[-1].plan.resolver is None
                and step.plan.kind in ("diag", "gather")
                and merged[-1].plan.kind in ("diag", "gather")
            ):
                merged[-1] = _PlanStep(
                    _compose_monomial(merged[-1].plan, step.plan, self.n_qubits)
                )
                continue
            merged.append(step)
        return [
            step
            for step in merged
            if not (isinstance(step, _PlanStep) and step.plan.is_identity)
        ]

    # -- execution ------------------------------------------------------------

    def zero_state(self, batch_size=1):
        """``|0...0>``, shape ``(B, 2**n)``."""
        return _sv.zero_state(self.n_qubits, batch_size)

    def _scratch_pair(self, shape):
        pair = self._scratch.get(shape)
        if pair is None:
            if len(self._scratch) >= self._SCRATCH_SHAPE_LIMIT:
                self._scratch.clear()
            pair = (
                np.empty(shape, np.complex128),
                np.empty(shape, np.complex128),
            )
            self._scratch[shape] = pair
        return pair

    def _publish(self, rows, kind_counts):
        if obs.enabled():
            obs.counter("program.evals").inc()
            obs.counter("program.rows").inc(rows)
            obs.counter("program.kernel_dispatches").inc(
                sum(count for _, count in kind_counts)
            )
            for kind, count in kind_counts:
                obs.counter(f"program.kernels.{kind}").inc(count)

    def _run(self, steps, psi, inputs, weights, key=None):
        """Apply ``steps`` to ``psi``; 2-D ``weights`` hold one row per state."""
        if len(steps) > 1 and psi.dtype == np.complex128:
            # Strict A/B alternation guarantees a step never writes the
            # buffer its input state may alias; the last step gets no
            # scratch so the returned state is always freshly owned.
            scratch = self._scratch_pair(psi.shape)
            last = len(steps) - 1
            for i, step in enumerate(steps):
                out = scratch[i & 1] if i != last else None
                psi = step.apply(psi, inputs, weights, key, out)
            return psi
        for step in steps:
            psi = step.apply(psi, inputs, weights, key)
        return psi

    def _step_weights(self, weights, batch, rows=None):
        """``(weights, key)`` as the step kernels take them: a grouped matrix
        expanded to one row per state (never hashed), a 1-D vector with the
        content key of the fused weight steps."""
        if weights is None:
            return None, None
        weights = np.asarray(weights)
        if weights.ndim == 2:
            if rows is None:
                return expand_weights(weights, batch), None
            return weights[rows], None
        return weights, weights_key(weights) if self._fused_weights else None

    def apply(self, psi, inputs=None, weights=None):
        """Run every step on an existing state batch ``(B, 2**n)``, row by row.

        2-D weights follow the grouped contract (:func:`expand_weights`).
        """
        has_weights = self.prefix_has_weights or self.suffix_has_weights
        weights, key = self._step_weights(
            weights if has_weights else None, psi.shape[0]
        )
        self._publish(psi.shape[0], self._kind_counts)
        return self._run(self.steps, psi, _as_inputs(inputs), weights, key)

    def evolve(self, inputs=None, weights=None, batch_size=1):
        """Run the program from ``|0...0>``, returning ``(B, 2**n)``.

        Grouped 2-D weights run the prefix per row and the trailing block
        as the cached unitaries of :meth:`suffix_unitary`.
        """
        if np.ndim(weights) == 2:
            weight_groups(weights, batch_size)
            return self._evolve_grouped(inputs, weights, batch_size, None)
        return self.apply(self.zero_state(batch_size), inputs, weights)

    def evolve_rows(self, inputs, weights, rows):
        """Final states where row ``b`` uses weight row ``rows[b]`` of the
        ``(G, n_weights)`` matrix — the ragged form of the grouped contract
        (serving micro-batches), sharing its cached unitaries."""
        weights = np.asarray(weights)
        rows = np.asarray(rows, dtype=np.intp)
        batch = rows.shape[0] if inputs is None else np.shape(inputs)[0]
        if rows.shape != (batch,):
            raise ValueError(f"rows must have shape ({batch},), got {rows.shape}")
        return self._evolve_grouped(inputs, weights, batch, rows)

    def _evolve_grouped(self, inputs, weights, batch, rows):
        self._publish(batch, self._grouped_kind_counts)
        phi = self.prefix_states(inputs, weights, batch, rows)
        return self.apply_suffix(phi, self.suffix_unitary(weights), rows)

    def prefix_states(self, inputs, weights, batch, rows=None):
        """Encoded states at :attr:`split`, ``(B, 2**n)``; row ``b`` uses
        weight row ``rows[b]`` (or ``b % G``) for any weight gate there.
        A leading first encoding layer is built as a product state
        (:class:`_ProductLayer`); the remaining steps run as compiled."""
        weights, key = self._step_weights(
            weights if self.prefix_has_weights else None, batch, rows
        )
        inputs = _as_inputs(inputs)
        if self._layer is None:
            return self._run(
                self._prefix_steps, self.zero_state(batch), inputs, weights,
                key,
            )
        return self._run(
            self._prefix_steps[self._layer.n_gates:],
            self._layer.states(inputs, batch), inputs, weights, key,
        )

    def suffix_unitary(self, weights):
        """``(G, 2**n, 2**n)`` trailing-block unitaries, one per weight row
        (a 1-D vector is one group), cached by weight content.  Built by
        per-row kernels, so each is bit-identical whatever the other rows.
        The cache is scanned newest first: a rollout round hits the entry
        built for the current weights, which sits last.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        cache = self._suffix_cache
        for i in reversed(range(len(cache))):
            cached, unitary = cache[i]
            if cached.shape == weights.shape and np.array_equal(cached, weights):
                if obs.enabled():
                    obs.counter("program.suffix_hit").inc()
                cache.append(cache.pop(i))
                return unitary
        if obs.enabled():
            obs.counter("program.suffix_build").inc()
        n_groups, dim = weights.shape[0], self.dim
        # Row l of group g evolves the basis state |l>, so each (dim, dim)
        # block of the result is U_g^T.
        basis = np.tile(np.eye(dim, dtype=np.complex128), (n_groups, 1))
        states = self._run(
            self._suffix_steps, basis, None, np.repeat(weights, dim, axis=0)
        )
        unitary = np.transpose(states.reshape(n_groups, dim, dim), (0, 2, 1))
        if len(cache) >= self._SUFFIX_CACHE_SIZE:
            cache.pop(0)
        cache.append((weights.copy(), unitary))
        return unitary

    def apply_suffix(self, phi, unitary, rows=None):
        """``U_g |phi_b>`` with ``g = b % G`` or ``rows[b]``: one ``(1, dim)
        @ (dim, dim)`` product per row, independent of the rest."""
        batch, dim = phi.shape[0], self.dim
        transposed = np.swapaxes(unitary, -1, -2)  # rows U_g|l>, contiguous
        if rows is not None:
            out = np.matmul(phi[:, None, :], transposed[rows])
        else:
            n_groups = unitary.shape[0]
            out = np.matmul(
                phi.reshape(batch // n_groups, n_groups, 1, dim), transposed
            )
        return out.reshape(batch, dim)

    # -- adjoint kernels ------------------------------------------------------

    def apply_inverse(self, index, psi, theta=None):
        """Apply the compiled inverse of operation ``index`` to ``psi``.

        ``psi`` may be any row-stacked state array — the adjoint sweep
        passes the concatenated ``(2B, dim)`` bra/ket block so each gate
        inversion is one kernel call (``theta`` must then be stacked to
        match when it is per-sample).
        """
        return self.op_plans[index].apply_inverse(psi, theta)

    def apply_generator(self, index, psi):
        """Apply operation ``index``'s generator to ``psi`` (``G |psi>``)."""
        return self.op_plans[index].apply_generator(psi)

    # -- introspection --------------------------------------------------------

    @property
    def n_steps(self):
        """Fused forward step count (``<= len(operations)``)."""
        return len(self.steps)

    def kernel_counts(self):
        """Histogram of forward kernel kinds, e.g. ``{"diag": 3, ...}``."""
        counts = {}
        for step in self.steps:
            counts[step.kind] = counts.get(step.kind, 0) + 1
        return counts

    def __repr__(self):
        return (
            f"CircuitProgram(n_qubits={self.n_qubits}, "
            f"ops={len(self.operations)}, split={self.split}, "
            f"steps={self.n_steps}, kernels={self.kernel_counts()})"
        )


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------

_PROGRAM_CACHE = {}
_CACHE_FALLBACK_LIMIT = 512


def compile_program(circuit):
    """Compile (and cache) the program for a symbolic circuit.

    The cache is keyed on circuit identity and validated against the
    operation list, so appending to a circuit after running it triggers a
    clean recompile instead of stale kernels.  Entries are evicted when the
    circuit is garbage collected.
    """
    key = id(circuit)
    entry = _PROGRAM_CACHE.get(key)
    if entry is not None:
        snapshot, program, _ref = entry
        ops = circuit.operations
        if len(snapshot) == len(ops) and all(
            a is b for a, b in zip(snapshot, ops)
        ):
            if obs.enabled():
                obs.counter("program.cache_hit").inc()
            return program
    if obs.enabled():
        obs.counter("program.compile").inc()
    program = CircuitProgram(circuit.n_qubits, circuit.operations)
    try:
        ref = weakref.ref(circuit, lambda _r, _k=key: _PROGRAM_CACHE.pop(_k, None))
    except TypeError:
        ref = None
        if len(_PROGRAM_CACHE) >= _CACHE_FALLBACK_LIMIT:
            _PROGRAM_CACHE.clear()
    _PROGRAM_CACHE[key] = (tuple(circuit.operations), program, ref)
    return program
