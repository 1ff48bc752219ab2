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

On top of the per-op plans the forward execution path *fuses* constant
gates (no input feature, no trainable weight) at compile time:

- runs of adjacent constant gates whose combined wire set stays within
  two qubits are pre-merged into single small unitaries;
- consecutive constant diagonal/monomial kernels are composed into one
  full-state gather (a CNOT ring collapses to a single index take).

Input and weight gates keep their own per-op plans, so fusion never
crosses them: per-sample encoding angles always see exactly the gates the
symbolic circuit specifies.

Weights follow one grouped contract: a ``(G, n_weights)`` matrix serves a
``k * G``-row batch (row ``b`` uses weight row ``b % G``,
:func:`expand_weights`), a 1-D vector is one weight row and ``None`` one
empty row.  Every forward runs the encoding prefix per row and the
input-free trailing block (from :func:`split_index` on) as ``G`` cached
``2**n x 2**n`` unitaries (:meth:`CircuitProgram.suffix_unitary`); a block
with no weight gate runs as its own compiled steps instead, and an empty
one not at all.  An update's forward keeps those states for the adjoint
(:meth:`CircuitProgram.evolve_states`, :class:`ForwardStates`).

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
import weakref
from collections import Counter, namedtuple
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.quantum import statevector as _sv

__all__ = [
    "CircuitProgram",
    "ForwardStates",
    "compile_program",
    "expand_weights",
    "program_enabled",
    "set_program_enabled",
    "split_index",
    "using_program",
    "weight_groups",
]

# ---------------------------------------------------------------------------
# Global tier switch
# ---------------------------------------------------------------------------

_ENABLED = True


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
# Weights: the grouped contract
# ---------------------------------------------------------------------------


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


def _weight_rows(weights):
    """``weights`` as a ``(G, n_weights)`` matrix: a 1-D vector is one
    weight row and ``None`` one empty row."""
    if weights is None:
        return np.empty((1, 0))
    return np.atleast_2d(np.asarray(weights, dtype=np.float64))


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
        return weights[:, index] * scale
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

    def apply_forward(self, psi, theta=None):
        """Forward kernel.  Gather-with-phase multiplies in place on the
        freshly gathered rows, so it allocates once instead of twice."""
        kind = self.kind
        if kind == "diag":
            return psi if self.phase is None else psi * self.phase
        if kind == "gather":
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
            return psi * phases
        if kind == "prot":
            return self._apply_rotation(psi, theta, 1.0)
        if kind == "pdense":
            return self._apply_dense(psi, self.matrix_fn(theta))
        return self._apply_dense(psi, self.matrix)

    # -- adjoint kernels ------------------------------------------------------

    def apply_inverse(self, psi, theta=None, generated=None):
        """Inverse kernel; ``generated`` is ``G |psi>`` when the caller has
        already built it (a ``"prot"`` rotation then reuses it, in place)."""
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
            return self._apply_rotation(psi, theta, -1.0, generated)
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

    def _apply_rotation(self, psi, theta, sign, g_psi=None):
        """``exp(-i*sign*theta/2*G) |psi>`` through the generator kernel
        (or a ``G |psi>`` the caller built, which is consumed)."""
        half = 0.5 * np.asarray(theta)
        cos = np.cos(half)
        sin = np.sin(half) if sign > 0 else -np.sin(half)
        if cos.ndim == 1:
            cos = cos[:, None]
            sin = sin[:, None]
        # The generator kernel returns a fresh array: scale and add in place.
        if g_psi is None:
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
    touching the full register.  Every wire's column is what the gate's
    rotation kernel makes of a fresh ``|0>``,
    ``|0> * cos + (G|0>) * (-1j * sin)``, with ``G|0>`` taken once from the
    gate's compiled one-qubit generator kernel: the same elementwise
    operations, so the same bits, zero signs included.  A Kronecker chain
    then multiplies the columns in gate order with the batch rows last, so
    numpy's inner loop runs over the rows.  On a fresh wire one term of
    each rotation is exactly zero, so every amplitude is the product the
    full-register kernels form, in the same order — only the sign of zero
    amplitudes can differ (``docs/quantum_kernels.md``, "First encoding
    layer").
    """

    __slots__ = ("n_gates", "_zero", "_g_zero", "_indices", "_scales",
                 "_stride")

    def __init__(self, operations, n_qubits):
        self.n_gates = len(operations)
        kernel = _compile_op(dataclasses.replace(operations[0], wires=(0,)), 1)
        zero = _sv.zero_state(1, 1)
        # ``(amplitude, 1)`` columns that broadcast over the batch rows.
        self._zero = zero.T
        self._g_zero = kernel.apply_generator(zero).T
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
        # Gate-major and contiguous, as the rotation kernel took the angles.
        half = 0.5 * (inputs[:, self._indices] * self._scales).T.ravel()
        half = half.reshape(self.n_gates, 1, batch)
        # ``(gate, amplitude, row)`` columns.
        columns = (
            self._zero * np.cos(half) + self._g_zero * (-1j * np.sin(half))
        )
        psi = columns[0]
        for column in columns[1:]:
            psi = (psi[:, None, :] * column[None, :, :]).reshape(-1, batch)
        if self._stride == 1:
            return psi.T.copy()
        out = np.zeros((batch, psi.shape[0] * self._stride), np.complex128)
        out[:, ::self._stride] = psi.T
        return out


# ---------------------------------------------------------------------------
# Forward execution steps
# ---------------------------------------------------------------------------


def _run(steps, psi, inputs, weights):
    """Apply the ``steps`` plans to ``psi``; ``weights`` hold one row per
    state."""
    for plan in steps:
        theta = None
        if plan.resolver is not None:
            theta = _resolve(plan.resolver, inputs, weights)
        psi = plan.apply_forward(psi, theta)
    return psi


def _fused_constant_plan(ops, wires, n_qubits):
    """One plan for a run of constant gates within the two ``wires``."""
    total = None
    for op in ops:
        spec = op.spec
        if spec.n_params == 0:
            matrix = spec.fixed_matrix
        else:
            matrix = spec.matrix_fn(op.param.value * op.param.scale)
        matrix = _embed_matrix(matrix, op.wires, wires)
        total = matrix if total is None else matrix @ total
    return _fixed_plan(tuple(ops), total, wires, n_qubits)


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


class ForwardStates(namedtuple("ForwardStates", "prefix final unitary")):
    """What a forward leaves for the adjoint
    (:meth:`CircuitProgram.evolve_states`): ``prefix`` the ``(B, 2**n)``
    encoded states at the split, ``final`` the ``(B, 2**n)`` final states
    and ``unitary`` the ``(G, 2**n, 2**n)`` trailing-block unitaries, or
    ``None`` when the block holds no weight gate; row ``b`` belongs to
    weight row ``b % G``."""

    __slots__ = ()

    def group(self, g, n_groups):
        """The rows of weight row ``g`` of ``n_groups`` alone, as a
        one-group record."""
        return ForwardStates(
            np.ascontiguousarray(self.prefix[g::n_groups]),
            np.ascontiguousarray(self.final[g::n_groups]),
            None if self.unitary is None else self.unitary[g:g + 1],
        )


class CircuitProgram:
    """A circuit lowered to pre-planned, fused gate kernels.

    Args:
        n_qubits: Register width.
        operations: Ordered :class:`~repro.quantum.circuit.Operation` list
            (a whole circuit, or a slice of one).

    Two views of the same circuit are compiled:

    - :attr:`steps` — the forward plans (constant runs fused), in two
      parts split at :attr:`split`: the encoding prefix run per row by
      :meth:`prefix_states` and the input-free trailing block built into
      unitaries by :meth:`suffix_unitary` (fusion never crosses an input
      op, so the parts are exactly the steps of the whole);
    - :attr:`op_plans` — one un-fused plan per operation, exposing
      :meth:`apply_inverse` and :meth:`apply_generator` for the adjoint
      reverse sweep (which needs per-gate granularity).
    """

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
        # The prefix steps that follow the layer (none in an actor circuit).
        self._after_layer = (
            None if self._layer is None
            else self._prefix_steps[self._layer.n_gates:]
        )
        self.steps = self._prefix_steps + self._suffix_steps
        self.prefix_has_weights = any(op.is_trainable for op in prefix)
        self.suffix_has_weights = any(op.is_trainable for op in suffix)
        # Frozen at compile time, so the telemetry publish per call is a
        # walk over counters resolved once: the prefix kernels, then the
        # block as one ``suffix`` or, when it holds no weight gate, as its
        # own steps.
        block = ["suffix"] if self.suffix_has_weights else [
            step.kind for step in self._suffix_steps
        ]
        forward_kinds = sorted(Counter(
            [step.kind for step in self._prefix_steps] + block
        ).items())
        self._published = (
            ("program.evals", 1),
            ("program.kernel_dispatches",
             sum(count for _, count in forward_kinds)),
            *((f"program.kernels.{kind}", count)
              for kind, count in forward_kinds),
        )
        self._counters = None  # (registry generation, rows, [(counter, n)])
        # Rows with repeated inputs share an encoding (evolve_states) only
        # where that is exact and pays: a weight-free prefix that runs
        # full-register steps.  A first layer alone is a product build that
        # costs little more per row than the share's compare and gather.
        self._shares_rows = not self.prefix_has_weights and (
            self._layer is None or bool(self._after_layer)
        )
        self._suffix_cache = []  # [(weights, unitary)], most recent last

    # -- compilation ----------------------------------------------------------

    def _build_steps(self, operations, op_plans):
        """The forward plans: runs of constant gates within two wires fused
        into one plan, consecutive constant diagonal/monomial plans composed
        into one gather, identities dropped; input and weight gates keep
        their own plans."""
        steps = []
        run, run_wires = [], set()  # (op, plan) pairs of the constant run

        def flush():
            if len(run) == 1:
                steps.append(run[0][1])
            elif run:
                steps.append(_fused_constant_plan(
                    [op for op, _ in run], tuple(sorted(run_wires)),
                    self.n_qubits,
                ))
            run.clear()
            run_wires.clear()

        for op, plan in zip(operations, op_plans):
            if plan.resolver is not None or len(op.wires) > 2:
                flush()
                steps.append(plan)
                continue
            if len(run_wires | set(op.wires)) > 2:
                flush()
            run.append((op, plan))
            run_wires.update(op.wires)
        flush()

        # Compose consecutive constant diagonal/monomial kernels into one
        # full-state gather — wire overlap is irrelevant at this level.
        merged = []
        for plan in steps:
            if (
                merged
                and plan.kind in ("diag", "gather")
                and merged[-1].kind in ("diag", "gather")
            ):
                merged[-1] = _compose_monomial(merged[-1], plan, self.n_qubits)
                continue
            merged.append(plan)
        return [plan for plan in merged if not plan.is_identity]

    # -- execution ------------------------------------------------------------

    def zero_state(self, batch_size=1):
        """``|0...0>``, shape ``(B, 2**n)``."""
        return _sv.zero_state(self.n_qubits, batch_size)

    def _publish(self, rows):
        if obs.enabled():
            registry = obs.global_registry()
            counters = self._counters
            if counters is None or counters[0] != registry.generation:
                counters = self._counters = (
                    registry.generation,
                    registry.counter("program.rows"),
                    [(registry.counter(name), count)
                     for name, count in self._published],
                )
            counters[1].inc(rows)
            for counter, count in counters[2]:
                counter.inc(count)

    def evolve(self, inputs=None, weights=None, batch_size=1):
        """Run the program from ``|0...0>``, returning ``(B, 2**n)``.

        ``weights`` is a ``(G, n_weights)`` matrix (row ``b`` uses weight
        row ``b % G``), a 1-D vector (one weight row) or ``None``.  The
        prefix runs per row and the trailing block as the cached unitaries
        of :meth:`suffix_unitary`, so ``w`` and ``w[None]`` give the same
        bits.
        """
        weight_groups(weights, batch_size)
        return self._forward(inputs, weights, batch_size, None)

    def evolve_rows(self, inputs, weights, rows):
        """Final states where row ``b`` uses weight row ``rows[b]`` of the
        ``(G, n_weights)`` matrix — the ragged form of the grouped contract
        (serving micro-batches), sharing its cached unitaries."""
        weights = np.asarray(weights)
        rows = np.asarray(rows, dtype=np.intp)
        batch = rows.shape[0] if inputs is None else np.shape(inputs)[0]
        if rows.shape != (batch,):
            raise ValueError(f"rows must have shape ({batch},), got {rows.shape}")
        return self._forward(inputs, weights, batch, rows)

    def _forward(self, inputs, weights, batch, rows):
        self._publish(batch)
        phi = self.prefix_states(inputs, weights, batch, rows)
        return self.apply_suffix(phi, self.suffix_unitary(weights), rows)

    def evolve_states(self, inputs, weights, batch):
        """:meth:`evolve`, keeping what the adjoint starts from
        (:class:`ForwardStates`).

        A row whose input bits repeat the row before it shares that row's
        encoded state when the prefix holds no weights and runs
        full-register steps past the first encoding layer (the critic's
        encoder; not the actor's single layer): every prefix kernel works
        row by row, so the shared state is the one the row would encode.
        Bits, not values, are compared (``-0.0 == 0.0``, but they are
        different inputs).  The final states equal :meth:`evolve`'s.
        """
        weight_groups(weights, batch)
        self._publish(batch)
        inputs = _as_inputs(inputs)
        fresh = None
        if inputs is not None and batch > 1 and self._shares_rows:
            bits = np.ascontiguousarray(inputs).view(np.uint64)
            fresh = np.empty(batch, bool)
            fresh[0] = True
            np.any(bits[1:] != bits[:-1], axis=1, out=fresh[1:])
        if fresh is None or fresh.all():
            phi = self.prefix_states(inputs, weights, batch)
        else:
            # Row b takes the encoding of the last fresh row at or before it.
            source = np.cumsum(fresh) - 1
            phi = self.prefix_states(
                inputs[fresh], weights, source[-1] + 1
            )[source]
        unitary = self.suffix_unitary(weights)
        return ForwardStates(phi, self.apply_suffix(phi, unitary), unitary)

    def prefix_states(self, inputs, weights, batch, rows=None):
        """Encoded states at :attr:`split`, ``(B, 2**n)``; row ``b`` uses
        weight row ``rows[b]`` (or ``b % G``) for any weight gate there.
        A leading first encoding layer is built as a product state
        (:class:`_ProductLayer`); the remaining steps run as compiled."""
        inputs = _as_inputs(inputs)
        if self._layer is None:
            psi, steps = self.zero_state(batch), self._prefix_steps
        else:
            psi, steps = self._layer.states(inputs, batch), self._after_layer
            if not steps:
                return psi
        if weights is None or not self.prefix_has_weights:
            weights = None
        elif rows is None:
            weights = expand_weights(_weight_rows(weights), batch)
        else:
            weights = _weight_rows(weights)[rows]
        return _run(steps, psi, inputs, weights)

    def suffix_unitary(self, weights):
        """``(G, 2**n, 2**n)`` trailing-block unitaries, one per weight row
        (a 1-D vector is one row, ``None`` one empty row), cached by weight
        content.  Built by per-row kernels, so each is bit-identical
        whatever the other rows.  The cache is scanned newest first: a
        rollout round hits the entry built for the current weights, which
        sits last.

        ``None`` when the block holds no weight gate: every weight row
        would get the same matrix, and :meth:`apply_suffix` runs such a
        block as its compiled steps (a composed gather, say), which costs
        less per row than a dense product, or skips it when it is empty.
        """
        if not self.suffix_has_weights:
            return None
        weights = _weight_rows(weights)
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
        # An empty row gives a weight gate nothing to read: _resolve raises.
        row_weights = np.repeat(weights, dim, axis=0) if weights.size else None
        states = _run(self._suffix_steps, basis, None, row_weights)
        unitary = np.transpose(states.reshape(n_groups, dim, dim), (0, 2, 1))
        if len(cache) >= self._SUFFIX_CACHE_SIZE:
            cache.pop(0)
        cache.append((weights.copy(), unitary))
        return unitary

    def apply_suffix(self, phi, unitary, rows=None):
        """``U_g |phi_b>`` with ``g = b % G`` or ``rows[b]``: one ``(1, dim)
        @ (dim, dim)`` product per row, independent of the rest.  With no
        unitary (a weight-free block) the block's steps run on every row."""
        if unitary is None:
            return _run(self._suffix_steps, phi, None, None)
        batch, dim = phi.shape[0], self.dim
        transposed = unitary.swapaxes(-1, -2)  # rows U_g|l>, contiguous
        if rows is not None:
            out = np.matmul(phi[:, None, :], transposed[rows])
        else:
            n_groups = unitary.shape[0]
            out = np.matmul(
                phi.reshape(batch // n_groups, n_groups, 1, dim), transposed
            )
        return out.reshape(batch, dim)

    # -- adjoint kernels ------------------------------------------------------

    def apply_inverse(self, index, psi, theta=None, generated=None):
        """Apply the compiled inverse of operation ``index`` to ``psi``.

        ``psi`` may be any row-stacked state array — the adjoint sweep
        passes the concatenated ``(2B, dim)`` bra/ket block so each gate
        inversion is one kernel call (``theta`` must then be stacked to
        match when it is per-sample).  ``generated``, when given, is
        :meth:`apply_generator` of the same ``psi``; a rotation kernel
        reuses it (and overwrites it) instead of applying the generator
        again.
        """
        return self.op_plans[index].apply_inverse(psi, theta, generated)

    def rotates(self, index):
        """Whether operation ``index``'s inverse goes through its generator
        kernel — :meth:`apply_inverse` then takes a prebuilt ``G |psi>``."""
        return self.op_plans[index].kind == "prot"

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
    operation list, so appending to a circuit after running it, or
    replacing one of its operations, triggers a clean recompile instead of
    stale kernels.  Entries are evicted when the circuit is garbage
    collected.
    """
    key = id(circuit)
    entry = _PROGRAM_CACHE.get(key)
    if entry is not None:
        snapshot, program, _ref = entry
        # List equality checks identity first per element, so a hit is a
        # pointer walk in C; an equal-valued replacement compiles the same.
        if snapshot == circuit.operations:
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
    _PROGRAM_CACHE[key] = (list(circuit.operations), program, ref)
    return program
