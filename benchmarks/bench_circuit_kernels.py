"""Gate-kernel throughput: interpreted vs. program-compiled execution.

Measures the three places the program tier (:mod:`repro.quantum.program`)
replaces the interpreted per-gate loop:

- **raw gate application** per gate class — a diagonal/permutation-heavy
  circuit (rz/cz/cnot/s: phase-vector multiplies and index gathers), a
  single-qubit dense circuit (rx/ry/h: rotation kernels) and a two-qubit
  dense circuit (crx/cry) — in circuit gate applications per second;
- **adjoint reverse sweep** — one batched vector-Jacobian product through
  the paper-scale VQC (4 qubits, 16 features, 50 weights), with shared and
  per-sample weights;
- **folded adjoint** — the row sweep against the folded sweep (rows
  sharing a weight row folded into one matrix at the trailing block) over
  batch sizes and weight groups around the ``B = G * 2**n`` crossover;
- **end-to-end training** — quantum-framework ``train_epoch`` env steps/s
  with the program tier off (interpreted) and on.

Run for a summary table plus the machine-readable
``BENCH_circuit_kernels.json`` (tracked across PRs; ``--runs N`` records
the median of N full measurements)::

    PYTHONPATH=src python benchmarks/bench_circuit_kernels.py [--smoke] [--runs 5]
"""

import argparse
import os
import time

import numpy as np

from benchio import write_bench_json

from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.frameworks import build_framework
from repro.quantum import gradients
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.gradients import adjoint_backward
from repro.quantum.program import compile_program, using_program
from repro.quantum.vqc import build_vqc

SEED = 7
GATE_BATCH = 256
GATE_QUBITS = 6
GATE_OPS = 60
ADJOINT_BATCH = 128
FOLD_BATCHES = (16, 128, 1600)
FOLD_GROUPS = (1, 4)
EPISODE_LIMIT = 25
EPISODES_PER_EPOCH = 8
ROLLOUT_ENVS = 8


def _diag_perm_circuit():
    """Diagonal/permutation-heavy: rz + cz + cnot + s."""
    circuit = QuantumCircuit(GATE_QUBITS)
    for i in range(GATE_OPS):
        wire = i % GATE_QUBITS
        kind = i % 4
        if kind == 0:
            circuit.add("rz", (wire,), ParameterRef.input(wire))
        elif kind == 1:
            circuit.add("cz", (wire, (wire + 1) % GATE_QUBITS))
        elif kind == 2:
            circuit.add("cnot", (wire, (wire + 1) % GATE_QUBITS))
        else:
            circuit.add("s", (wire,))
    return circuit


def _dense_1q_circuit():
    """Single-qubit dense rotations: rx + ry + h."""
    circuit = QuantumCircuit(GATE_QUBITS)
    for i in range(GATE_OPS):
        wire = i % GATE_QUBITS
        if i % 3 == 0:
            circuit.add("rx", (wire,), ParameterRef.input(wire))
        elif i % 3 == 1:
            circuit.add("ry", (wire,), ParameterRef.input(wire))
        else:
            circuit.add("h", (wire,))
    return circuit


def _dense_2q_circuit():
    """Two-qubit dense controlled rotations: crx + cry."""
    circuit = QuantumCircuit(GATE_QUBITS)
    for i in range(GATE_OPS):
        gate = ("crx", "cry")[i % 2]
        circuit.add(
            gate,
            (i % GATE_QUBITS, (i + 2) % GATE_QUBITS),
            ParameterRef.input(i % GATE_QUBITS),
        )
    return circuit


GATE_CLASSES = {
    "diag_perm": _diag_perm_circuit,
    "dense_1q": _dense_1q_circuit,
    "dense_2q": _dense_2q_circuit,
}


def _measure(fn, repeats):
    """Best-of-``repeats`` wall time for one call."""
    fn()  # warmup (program compile, caches, allocator)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _gate_class_rates(repeats):
    rng = np.random.default_rng(SEED)
    inputs = rng.uniform(size=(GATE_BATCH, GATE_QUBITS))
    interpreted = StatevectorBackend(program=False)
    results = {}
    for name, builder in GATE_CLASSES.items():
        circuit = builder()
        program = compile_program(circuit)
        t_interp = _measure(lambda: interpreted.evolve(circuit, inputs), repeats)
        t_prog = _measure(
            lambda: program.evolve(inputs, None, GATE_BATCH), repeats
        )
        results[name] = {
            "n_ops": circuit.n_operations,
            "batch": GATE_BATCH,
            "interpreted_gates_per_s": circuit.n_operations / t_interp,
            "program_gates_per_s": circuit.n_operations / t_prog,
            "speedup": t_interp / t_prog,
        }
    return results


def _adjoint_rates(repeats):
    rng = np.random.default_rng(SEED)
    vqc = build_vqc(4, 16, 50, seed=3)
    inputs = rng.uniform(size=(ADJOINT_BATCH, 16))
    upstream = rng.normal(size=(ADJOINT_BATCH, 4))
    shared = vqc.initial_weights(rng)
    per_sample = np.tile(
        np.stack([vqc.initial_weights(rng) for _ in range(4)]),
        (ADJOINT_BATCH // 4, 1),
    )
    results = {}
    for label, weights in (("shared", shared), ("per_sample", per_sample)):
        times = {}
        for tier, flag in (("interpreted", False), ("program", True)):
            def sweep():
                with using_program(flag):
                    adjoint_backward(
                        vqc.circuit, vqc.observables, inputs, weights, upstream
                    )
            times[tier] = _measure(sweep, repeats)
        results[label] = {
            "batch": ADJOINT_BATCH,
            "interpreted_sweeps_per_s": 1.0 / times["interpreted"],
            "program_sweeps_per_s": 1.0 / times["program"],
            "speedup": times["interpreted"] / times["program"],
        }
    return results


def _folded_adjoint_rates(repeats):
    """Row sweep vs folded sweep around the ``B = G * 2**n`` crossover.

    The paper-scale VQC (``2**n = 16``) with ``G`` weight groups (one
    shared vector for ``G = 1``) and no input gradients, as the actor-team
    and critic-pair updates call it.  Each path is forced in turn; ``auto``
    is the one the shape rule picks.  The trailing-block unitaries are
    cached, as the forward pass of an update leaves them.
    """
    rng = np.random.default_rng(SEED)
    vqc = build_vqc(4, 16, 50, seed=3)
    chooser = gradients._folds
    rows = []
    try:
        for n_groups in FOLD_GROUPS:
            weights = np.stack(
                [vqc.initial_weights(rng) for _ in range(n_groups)]
            )
            if n_groups == 1:
                weights = weights[0]
            for batch in FOLD_BATCHES:
                inputs = rng.uniform(size=(batch, 16))
                upstream = rng.normal(size=(batch, 4))
                times = {}
                for path in ("row", "folded"):
                    gradients._folds = lambda *_, fold=path == "folded": fold
                    times[path] = _measure(
                        lambda: adjoint_backward(
                            vqc.circuit, vqc.observables, inputs, weights,
                            upstream, input_grads=False,
                        ),
                        repeats,
                    )
                rows.append({
                    "batch": batch,
                    "groups": n_groups,
                    "crossover_batch": n_groups * 16,
                    "auto": "folded" if batch > n_groups * 16 else "row",
                    "row_sweeps_per_s": 1.0 / times["row"],
                    "folded_sweeps_per_s": 1.0 / times["folded"],
                    "fold_speedup": times["row"] / times["folded"],
                })
    finally:
        gradients._folds = chooser
    return rows


def _train_epoch_rate(program, n_epochs):
    with using_program(program):
        framework = build_framework(
            "proposed",
            seed=SEED,
            env_config=SingleHopConfig(episode_limit=EPISODE_LIMIT),
            train_config=TrainingConfig(
                episodes_per_epoch=EPISODES_PER_EPOCH,
                rollout_envs=ROLLOUT_ENVS,
            ),
        )
        framework.trainer.train_epoch()  # warmup
        start = time.perf_counter()
        for _ in range(n_epochs):
            framework.trainer.train_epoch()
        elapsed = (time.perf_counter() - start) / n_epochs
        framework.trainer.close()
    return EPISODES_PER_EPOCH * EPISODE_LIMIT / elapsed


def _train_epoch_rates(n_epochs):
    interpreted = _train_epoch_rate(False, n_epochs)
    program = _train_epoch_rate(True, n_epochs)
    return {
        "framework": "proposed",
        "episode_limit": EPISODE_LIMIT,
        "episodes_per_epoch": EPISODES_PER_EPOCH,
        "rollout_envs": ROLLOUT_ENVS,
        "interpreted_steps_per_s": interpreted,
        "program_steps_per_s": program,
        "speedup": program / interpreted,
    }


def _median_document(runs):
    """Per-leaf median of several runs' result documents."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: _median_document([run[key] for run in runs]) for key in first}
    if isinstance(first, list):
        return [_median_document(list(items)) for items in zip(*runs)]
    if all(run == first for run in runs):
        return first
    return float(np.median(runs))


def _measure_all(repeats, n_epochs):
    """One full measurement of every section."""
    return {
        "gate_classes": _gate_class_rates(repeats),
        "adjoint": _adjoint_rates(repeats),
        "adjoint_folded": _folded_adjoint_rates(repeats),
        "train_epoch": _train_epoch_rates(n_epochs),
    }


def _print_summary(document):
    print(f"{'gate class':>12}  {'interp gates/s':>15}  {'program gates/s':>16}  {'speedup':>8}")
    for name, row in document["gate_classes"].items():
        print(
            f"{name:>12}  {row['interpreted_gates_per_s']:>15.0f}  "
            f"{row['program_gates_per_s']:>16.0f}  {row['speedup']:>7.2f}x"
        )
    print(f"\n{'adjoint':>12}  {'interp sweeps/s':>15}  {'program sweeps/s':>16}  {'speedup':>8}")
    for name, row in document["adjoint"].items():
        print(
            f"{name:>12}  {row['interpreted_sweeps_per_s']:>15.1f}  "
            f"{row['program_sweeps_per_s']:>16.1f}  {row['speedup']:>7.2f}x"
        )
    print(f"\n{'folded':>12}  {'G':>3}  {'row sweeps/s':>13}  {'folded/s':>10}  {'fold':>7}  auto")
    for row in document["adjoint_folded"]:
        print(
            f"{'B=%d' % row['batch']:>12}  {row['groups']:>3}  "
            f"{row['row_sweeps_per_s']:>13.1f}  {row['folded_sweeps_per_s']:>10.1f}  "
            f"{row['fold_speedup']:>6.2f}x  {row['auto']}"
        )
    train = document["train_epoch"]
    print(
        f"\ntrain_epoch: {train['interpreted_steps_per_s']:.1f} -> "
        f"{train['program_steps_per_s']:.1f} env steps/s "
        f"({train['speedup']:.2f}x)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer repeats (CI smoke run; numbers are noisier)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="full measurements to take; the artifact records their median",
    )
    args = parser.parse_args()
    repeats = 2 if args.smoke else 5
    n_epochs = 1 if args.smoke else 4

    runs = [_measure_all(repeats, n_epochs) for _ in range(args.runs)]
    document = _median_document(runs)
    document.update(
        benchmark="circuit_kernels",
        cpu_count=os.cpu_count(),
        smoke=bool(args.smoke),
        runs=args.runs,
    )
    _print_summary(document)
    path = write_bench_json("BENCH_circuit_kernels.json", document, args.json_dir)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
