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
  with the program tier off (interpreted) and on;
- **seam overhead** (numpy only) — the compiled kernels, which now dispatch
  through the array-backend seam, against a twin executor running the same
  kernel algorithm through direct numpy calls (``--check`` gates this
  dispatch cost at ≤5% per gate class), plus the allocation churn of the
  pre-seam fresh-allocation idioms vs the scratch kernels, counted as
  deterministic freshly-mapped pages per evolve.

``--backend NAME`` runs the program tier on another array backend
(``mock`` in CPU-only CI; ``cupy``/``torch`` where installed) and stamps
the choice into the artifact.

Run under the benchmark harness::

    pytest benchmarks/bench_circuit_kernels.py --benchmark-only

or standalone for a summary table plus the machine-readable
``BENCH_circuit_kernels.json`` (tracked across PRs; ``--runs N`` records
the median of N full measurements)::

    PYTHONPATH=src python benchmarks/bench_circuit_kernels.py [--smoke] [--runs 5]
"""

import argparse
import os
import resource
import sys
import time

import numpy as np

from benchio import write_bench_json

from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.frameworks import build_framework
from repro.quantum import backend as qback
from repro.quantum import gradients
from repro.quantum.backends import StatevectorBackend
from repro.quantum.circuit import ParameterRef, QuantumCircuit
from repro.quantum.gradients import adjoint_backward
from repro.quantum.program import _resolve, compile_program, using_program
from repro.quantum.vqc import build_vqc

SEAM_OVERHEAD_BUDGET_PCT = 5.0

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


def _legacy_generator(plan, psi):
    """Pre-seam generator kernel: fancy-index gather + fresh multiply."""
    if plan.gen_kind == "diag":
        return psi * plan.gen_data
    if plan.gen_kind == "gather":
        source, phase = plan.gen_data
        taken = psi[:, source]
        return taken if phase is None else taken * phase
    return plan.apply_generator(psi)


def _legacy_step(plan, psi, theta):
    """One gate application written with the pre-seam idioms.

    Fresh allocation per gather/multiply, fancy indexing instead of
    ``take(out=)``, no in-place reuse of per-sample phase tables — exactly
    the numpy code the program tier ran before the backend seam landed.
    Dense kernels are unchanged on numpy and reuse the plan directly.
    """
    kind = plan.kind
    if kind == "diag":
        return psi if plan.phase is None else psi * plan.phase
    if kind == "gather":
        taken = psi[:, plan.source]
        return taken if plan.phase is None else taken * plan.phase
    if kind == "pdiag":
        unique_coeff, index_map = plan.coeff
        if np.ndim(theta) == 1:
            table = np.exp(1j * np.asarray(theta)[:, None] * unique_coeff)
            return psi * table[:, index_map]
        return psi * np.exp(1j * theta * unique_coeff)[index_map]
    if kind == "prot":
        half = 0.5 * np.asarray(theta)
        cos, sin = np.cos(half), np.sin(half)
        if cos.ndim == 1:
            cos, sin = cos[:, None], sin[:, None]
        g_psi = _legacy_generator(plan, psi)
        if plan.proj is None:
            return cos * psi + (-1j * sin) * g_psi
        return psi * (1.0 + (cos - 1.0) * plan.proj) + (-1j * sin) * g_psi
    return plan.apply_forward(psi, theta)


def _legacy_evolve(program, inputs, batch):
    """Run a compiled program through the pre-seam reference kernels."""
    psi = program.zero_state(batch)
    for step in program.steps:
        plan = getattr(step, "plan", None)
        if plan is None:
            # Fused weight steps run the same cached matmul either way.
            psi = step.apply(psi, inputs, None, None)
        elif plan.resolver is None:
            psi = _legacy_step(plan, psi, None)
        else:
            psi = _legacy_step(plan, psi, _resolve(plan.resolver, inputs, None))
    return psi


def _direct_generator(plan, psi):
    """Current generator kernel, direct numpy (no seam dispatch)."""
    if plan.gen_kind == "diag":
        return psi * plan.gen_data
    if plan.gen_kind == "gather":
        source, phase = plan.gen_data
        taken = psi[:, source]
        return taken if phase is None else np.multiply(taken, phase, out=taken)
    return plan.apply_generator(psi)


def _direct_step(plan, psi, theta, out):
    """One gate with the *current* kernel algorithm, but direct ``np.*``
    calls — the dispatch-free twin of ``apply_forward``.  Scratch reuse,
    ``take(out=, mode="clip")``, in-place phase multiplies: everything the
    seam path does, minus the backend indirection being measured.  Dense
    kinds fall through to the plan (their seam ops are the numpy functions
    themselves, so there is no indirection left to strip).
    """
    kind = plan.kind
    if kind == "diag":
        if plan.phase is None:
            return psi
        if out is not None:
            return np.multiply(psi, plan.phase, out=out)
        return psi * plan.phase
    if kind == "gather":
        if out is not None:
            taken = np.take(psi, plan.source, axis=1, out=out, mode="clip")
        else:
            taken = psi[:, plan.source]
        if plan.phase is None:
            return taken
        return np.multiply(taken, plan.phase, out=taken)
    if kind == "pdiag":
        unique_coeff, index_map = plan.coeff
        if np.ndim(theta) == 1:
            table = np.exp(1j * np.asarray(theta)[:, None] * unique_coeff)
            phases = np.take(table, index_map, axis=1)
            return np.multiply(psi, phases, out=phases)
        phases = np.take(np.exp(1j * theta * unique_coeff), index_map, axis=0)
        if out is not None:
            return np.multiply(psi, phases, out=out)
        return psi * phases
    if kind == "prot":
        half = 0.5 * np.asarray(theta)
        cos, sin = np.cos(half), np.sin(half)
        if cos.ndim == 1:
            cos, sin = cos[:, None], sin[:, None]
        g_psi = _direct_generator(plan, psi)
        g_psi *= -1j * sin
        if plan.proj is None:
            out = psi * cos
        else:
            out = psi * (1.0 + (cos - 1.0) * plan.proj)
        out += g_psi
        return out
    return plan.apply_forward(psi, theta)


def _direct_evolve(program, inputs, batch):
    """Run a compiled program through the dispatch-free twin kernels."""
    psi = program.zero_state(batch)
    steps = program.steps
    scratch = program._scratch_pair(psi.shape)
    last = len(steps) - 1
    for i, step in enumerate(steps):
        out = scratch[i & 1] if i != last else None
        plan = getattr(step, "plan", None)
        if plan is None:
            # Fused weight steps run the same cached matmul either way.
            psi = step.apply(psi, inputs, None, None)
            continue
        theta = (
            None
            if plan.resolver is None
            else _resolve(plan.resolver, inputs, None)
        )
        psi = _direct_step(plan, psi, theta, out)
    return psi


def _pin_allocator(threshold=8 << 20):
    """Pin glibc's mmap threshold (default: above the state-buffer size).

    glibc adapts the threshold dynamically, which makes any fresh-allocation
    path bimodal across processes: state-sized buffers either recycle
    through the heap or round-trip through mmap at ~200 minor page faults
    per evolve, a per-process coin flip that swamps a 5% overhead budget.
    Pinning removes the coin flip so the tables here are reproducible.
    No-op off glibc.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt(-3, threshold)  # M_MMAP_THRESHOLD = -3
    except Exception:
        pass


def _paired_overhead(run_base, run_seam, pairs):
    """Median per-pair time ratio between the two executors.

    This container's throughput drifts in multi-second bands (noisy
    neighbours, frequency scaling), so any estimator that times one
    executor for a stretch and then the other reads the band, not the
    code.  Instead each base/seam pair runs back to back inside the same
    ~ms window — a band perturbs both members alike — the order alternates
    to cancel ordering bias, and the median across pairs discards the
    stragglers a band boundary still splits.
    """
    samples = []
    order = (run_base, run_seam)
    for i in range(pairs):
        first, second = order if i % 2 == 0 else order[::-1]
        t0 = time.perf_counter()
        first()
        t1 = time.perf_counter()
        second()
        t2 = time.perf_counter()
        t_first, t_second = t1 - t0, t2 - t1
        samples.append(
            (t_first, t_second) if i % 2 == 0 else (t_second, t_first)
        )
    t_base = float(np.median([s[0] for s in samples]))
    t_seam = float(np.median([s[1] for s in samples]))
    ratio = float(np.median([s / b for b, s in samples]))
    return t_base, t_seam, ratio


def _trim_heap():
    """Release the allocator's free pages back to the OS (glibc only)."""
    try:
        import ctypes

        ctypes.CDLL(None).malloc_trim(0)
    except Exception:
        pass


def _fresh_pages(fn, iters):
    """Minor page faults per call — the transient pages each call touches.

    ``malloc_trim`` before every call hands all *freed* pages back to the
    OS, so each call re-faults exactly the pages of the buffers it
    allocates and drops; long-lived buffers (program constants, scratch)
    stay mapped and count nothing.  A deterministic measure of allocation
    churn — unlike wall clock, which depends on where the heap happens to
    recycle buffers.
    """
    fn()  # warmup (program compile, caches, scratch)
    total = 0
    for _ in range(iters):
        _trim_heap()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        total += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return total / iters


def _seam_overhead(repeats):
    """Seam cost on the numpy path per gate class, two ways.

    ``overhead_pct`` (the gated number) is pure dispatch cost: the seam
    path against a twin executor running the *same* kernel algorithm
    through direct ``np.*`` calls.  The allocation win of the scratch
    kernels over the pre-seam fresh-allocation idioms is reported as
    deterministic page counts (``preseam_pages_per_evolve`` vs
    ``seam_pages_per_evolve``) rather than wall clock, because a
    fresh-allocation baseline's speed is allocator-luck — it swings tens
    of percent either way with heap history.
    """
    rng = np.random.default_rng(SEED)
    inputs = rng.uniform(size=(GATE_BATCH, GATE_QUBITS))
    pairs = 30 * repeats
    fault_iters = 5 * repeats
    results = {}
    for name, builder in GATE_CLASSES.items():
        circuit = builder()
        program = compile_program(circuit)
        seam = program.evolve(inputs, None, GATE_BATCH)
        for reference in (
            _direct_evolve(program, inputs, GATE_BATCH),
            _legacy_evolve(program, inputs, GATE_BATCH),
        ):
            if not np.array_equal(seam, reference):
                raise AssertionError(
                    f"seam and reference kernels disagree on {name}"
                )
        t_direct, t_seam, ratio = _paired_overhead(
            lambda: _direct_evolve(program, inputs, GATE_BATCH),
            lambda: program.evolve(inputs, None, GATE_BATCH),
            pairs,
        )
        pages_legacy = _fresh_pages(
            lambda: _legacy_evolve(program, inputs, GATE_BATCH), fault_iters
        )
        pages_seam = _fresh_pages(
            lambda: program.evolve(inputs, None, GATE_BATCH), fault_iters
        )
        results[name] = {
            "direct_gates_per_s": circuit.n_operations / t_direct,
            "seam_gates_per_s": circuit.n_operations / t_seam,
            "overhead_pct": (ratio - 1.0) * 100.0,
            "preseam_pages_per_evolve": pages_legacy,
            "seam_pages_per_evolve": pages_seam,
        }
    results["budget_pct"] = SEAM_OVERHEAD_BUDGET_PCT
    results["max_overhead_pct"] = max(
        results[name]["overhead_pct"] for name in GATE_CLASSES
    )
    return results


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


# -- pytest-benchmark harness entry points ----------------------------------


def _bench_gate_class(benchmark, builder, program):
    rng = np.random.default_rng(SEED)
    inputs = rng.uniform(size=(GATE_BATCH, GATE_QUBITS))
    circuit = builder()
    if program:
        compiled = compile_program(circuit)
        run = lambda: compiled.evolve(inputs, None, GATE_BATCH)  # noqa: E731
    else:
        backend = StatevectorBackend(program=False)
        run = lambda: backend.evolve(circuit, inputs)  # noqa: E731
    benchmark.pedantic(run, rounds=3, iterations=2, warmup_rounds=1)
    benchmark.extra_info["gates_per_round"] = circuit.n_operations


def test_diag_perm_interpreted(benchmark):
    """Interpreted tier on the diagonal/permutation-heavy circuit."""
    _bench_gate_class(benchmark, _diag_perm_circuit, program=False)


def test_diag_perm_program(benchmark):
    """Program tier on the diagonal/permutation-heavy circuit."""
    _bench_gate_class(benchmark, _diag_perm_circuit, program=True)


def test_dense_1q_program(benchmark):
    """Program tier on the single-qubit dense circuit."""
    _bench_gate_class(benchmark, _dense_1q_circuit, program=True)


def test_dense_2q_program(benchmark):
    """Program tier on the two-qubit dense circuit."""
    _bench_gate_class(benchmark, _dense_2q_circuit, program=True)


def test_adjoint_program(benchmark):
    """Program-compiled adjoint sweep at the paper's circuit scale."""
    rng = np.random.default_rng(SEED)
    vqc = build_vqc(4, 16, 50, seed=3)
    inputs = rng.uniform(size=(ADJOINT_BATCH, 16))
    upstream = rng.normal(size=(ADJOINT_BATCH, 4))
    weights = vqc.initial_weights(rng)
    benchmark.pedantic(
        lambda: adjoint_backward(
            vqc.circuit, vqc.observables, inputs, weights, upstream
        ),
        rounds=3,
        iterations=2,
        warmup_rounds=1,
    )


def _measure_all(repeats, n_epochs, backend_name):
    """One full measurement of every section."""
    return {
        "gate_classes": _gate_class_rates(repeats),
        "adjoint": _adjoint_rates(repeats),
        "adjoint_folded": _folded_adjoint_rates(repeats),
        "train_epoch": _train_epoch_rates(n_epochs),
        "seam_overhead": (
            _seam_overhead(repeats) if backend_name == "numpy" else None
        ),
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
    seam = document["seam_overhead"]
    if seam is not None:
        print(
            f"\n{'seam overhead':>14}  {'direct gates/s':>14}  "
            f"{'seam gates/s':>13}  {'dispatch':>9}  {'pages/evolve pre->seam':>22}"
        )
        for name in GATE_CLASSES:
            row = seam[name]
            print(
                f"{name:>14}  {row['direct_gates_per_s']:>14.0f}  "
                f"{row['seam_gates_per_s']:>13.0f}  {row['overhead_pct']:>8.2f}%  "
                f"{row['preseam_pages_per_evolve']:>10.0f} -> "
                f"{row['seam_pages_per_evolve']:.0f}"
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
        "--backend",
        default=None,
        choices=qback.available_array_backends(),
        help="array backend the program tier runs on (default: process default)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="full measurements to take; the artifact records their median",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail if numpy seam overhead exceeds {SEAM_OVERHEAD_BUDGET_PCT}%% "
        "on any gate class",
    )
    args = parser.parse_args()
    _pin_allocator()
    if args.backend is not None:
        qback.set_default_array_backend(args.backend)
    backend_name = qback.default_array_backend().name
    repeats = 2 if args.smoke else 5
    n_epochs = 1 if args.smoke else 4

    runs = [
        _measure_all(repeats, n_epochs, backend_name) for _ in range(args.runs)
    ]
    document = _median_document(runs)
    document.update(
        benchmark="circuit_kernels",
        cpu_count=os.cpu_count(),
        smoke=bool(args.smoke),
        runs=args.runs,
        array_backend=backend_name,
    )
    _print_summary(document)
    path = write_bench_json("BENCH_circuit_kernels.json", document, args.json_dir)
    print(f"\nwrote {path}")

    seam = document["seam_overhead"]
    if args.check:
        if seam is None:
            print("seam-overhead check requires the numpy backend; skipped")
        elif seam["max_overhead_pct"] > SEAM_OVERHEAD_BUDGET_PCT:
            print(
                f"FAIL: seam overhead {seam['max_overhead_pct']:.2f}% exceeds "
                f"budget {SEAM_OVERHEAD_BUDGET_PCT}%"
            )
            sys.exit(1)
        else:
            print(
                f"seam overhead {seam['max_overhead_pct']:.2f}% within "
                f"{SEAM_OVERHEAD_BUDGET_PCT}% budget"
            )


if __name__ == "__main__":
    main()
