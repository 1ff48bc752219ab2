"""Quantum substrate: gates, simulators, circuits, gradients and analysis.

This package is a self-contained, numpy-only quantum circuit simulator
purpose-built for variational quantum circuits:

- :mod:`~repro.quantum.gates` — gate matrices, generators, registry;
- :mod:`~repro.quantum.statevector` — exact batched pure-state simulation;
- :mod:`~repro.quantum.density` / :mod:`~repro.quantum.channels` — noisy
  mixed-state simulation with Kraus channels;
- :mod:`~repro.quantum.circuit` — symbolic circuit IR with input / weight /
  fixed parameter references;
- :mod:`~repro.quantum.backends` — executors (exact, shot-based, noisy);
- :mod:`~repro.quantum.observables` — Pauli strings and Hamiltonians;
- :mod:`~repro.quantum.templates` / :mod:`~repro.quantum.encoding` — the
  paper's random variational layers and multi-layer angle state encoding;
- :mod:`~repro.quantum.gradients` — adjoint, parameter-shift and
  finite-difference differentiation;
- :mod:`~repro.quantum.vqc` — assembled encoder+ansatz+measurement bundles;
- :mod:`~repro.quantum.bloch` — partial traces, Bloch vectors, Fig.-4 grids.
"""

from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.channels import (
    KrausChannel,
    NoiseModel,
    amplitude_damping,
    bit_flip,
    depolarizing,
    phase_damping,
    phase_flip,
)
from repro.quantum.circuit import Operation, ParameterRef, QuantumCircuit
from repro.quantum.program import (
    CircuitProgram,
    compile_program,
    program_enabled,
    set_program_enabled,
    split_index,
    using_program,
)
from repro.quantum.encoding import (
    AngleEncoding,
    DataReuploadingEncoding,
    MultiLayerAngleEncoding,
)
from repro.quantum.gradients import backward
from repro.quantum.observables import Hamiltonian, PauliString, all_z_observables
from repro.quantum.statevector import Statevector
from repro.quantum.templates import (
    BasicEntanglerTemplate,
    RandomLayerTemplate,
    StronglyEntanglingTemplate,
)
from repro.quantum.vqc import VQC, build_vqc, make_template

__all__ = [
    "StatevectorBackend",
    "DensityMatrixBackend",
    "KrausChannel",
    "NoiseModel",
    "depolarizing",
    "bit_flip",
    "phase_flip",
    "amplitude_damping",
    "phase_damping",
    "QuantumCircuit",
    "Operation",
    "ParameterRef",
    "split_index",
    "CircuitProgram",
    "compile_program",
    "program_enabled",
    "set_program_enabled",
    "using_program",
    "AngleEncoding",
    "MultiLayerAngleEncoding",
    "DataReuploadingEncoding",
    "backward",
    "PauliString",
    "Hamiltonian",
    "all_z_observables",
    "Statevector",
    "RandomLayerTemplate",
    "BasicEntanglerTemplate",
    "StronglyEntanglingTemplate",
    "VQC",
    "build_vqc",
    "make_template",
]
