"""Shared helpers for the test suite: numeric oracles plus the unified
cross-engine rollout equivalence harness.

The repo's determinism contract spans three interchangeable collection
engines — the serial reference loop, the in-process vectorized engine, and
the process-sharded engine (its workers reply over pickle-pipes, hence the
``sharded-pipe`` label).  The harness here builds identically-seeded trainers
for any engine over either environment family and asserts bit-identical
episodes, train-epoch metrics, and post-run RNG stream positions, so every
suite pins the contract through one code path instead of hand-rolled
copies.

The **ES axis** extends the same harness to the gradient-free training
engine (:mod:`repro.marl.evolution`): one ES generation must be
bit-identical under the per-member reference loop ("serial"), the stacked
in-process evaluation ("stacked"), and the population-sharded worker pool
— including the updated base vector and the RNG stream positions.
"""


from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SingleHopConfig, TrainingConfig
from repro.envs.multi_hop import MultiHopOffloadEnv, layered_topology
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.marl.actors import ActorGroup, ClassicalActor
from repro.marl.buffer import EPISODE_COLUMNS
from repro.marl.critics import ClassicalCentralCritic
from repro.marl.evolution import ESTrainer
from repro.marl.frameworks import Framework
from repro.marl.trainer import CTDETrainer
from repro.quantum import statevector as sv


# -- cross-engine rollout equivalence harness ---------------------------------

#: Every interchangeable collection engine, in contract-chain order.
ROLLOUT_ENGINES = ("serial", "vector", "sharded-pipe")

#: Both environment families the contract must hold on.
OFFLOAD_ENV_KINDS = ("single_hop", "multi_hop")

#: The ragged (data-dependent termination) variants of both families:
#: ``terminate_on_overflow`` plus a queue preload high enough that early
#: overflow endings actually occur, so episode lengths genuinely vary
#: under the 5-step harness horizon.  (The multi-hop variant widens the
#: sink layer: the default ``(3, 2, 1)`` topology funnels constant inflow
#: into one sink, which would overflow deterministically on step 1.)
RAGGED_ENV_KINDS = ("single_hop_ragged", "multi_hop_ragged")

#: TrainingConfig fragments realising each engine (n_envs/n_workers filled
#: in by :func:`make_engine_trainer`).
_ENGINE_SETTINGS = {
    "serial": {"rollout_mode": "serial"},
    "vector": {"rollout_mode": "vector"},
    "sharded-pipe": {"rollout_mode": "sharded"},
}


def make_offload_env(env_kind, seed, episode_limit=5, **env_kwargs):
    """A deterministically seeded SingleHop or MultiHop environment.

    The ``*_ragged`` kinds are the same families with data-dependent
    termination switched on (see :data:`RAGGED_ENV_KINDS`); explicit
    ``env_kwargs`` still win over the ragged defaults.
    """
    if env_kind == "single_hop_ragged":
        env_kwargs.setdefault("terminate_on_overflow", True)
        env_kwargs.setdefault("initial_queue_level", 0.8)
        env_kind = "single_hop"
    elif env_kind == "multi_hop_ragged":
        env_kwargs.setdefault("terminate_on_overflow", True)
        env_kwargs.setdefault("initial_queue_level", 0.8)
        env_kwargs.setdefault("layers", (3, 2, 2))
        env_kind = "multi_hop"
    if env_kind == "single_hop":
        config = SingleHopConfig(episode_limit=episode_limit, **env_kwargs)
        return SingleHopOffloadEnv(config, rng=np.random.default_rng(seed))
    if env_kind == "multi_hop":
        return MultiHopOffloadEnv(
            layered_topology(env_kwargs.pop("layers", (3, 2, 1))),
            rng=np.random.default_rng(seed),
            episode_limit=episode_limit,
            **env_kwargs,
        )
    raise ValueError(f"unknown env kind {env_kind!r}")


def make_classical_team(env, seed, hidden=(5,)):
    """A tiny classical actor team sized to ``env`` (one weight stream)."""
    weight_rng = np.random.default_rng(seed)
    return ActorGroup(
        [
            ClassicalActor(
                env.observation_size, env.action_space.n, hidden, weight_rng
            )
            for _ in range(env.n_agents)
        ]
    )


def make_engine_trainer(env_kind, engine, seed=3, n_envs=4, n_workers=2,
                        episode_limit=5, env_kwargs=None, **train_overrides):
    """An identically-seeded :class:`CTDETrainer` for any collection engine.

    Two calls with the same ``(env_kind, seed, ...)`` but different
    ``engine`` build trainers whose only difference is the collection
    engine — the precondition for asserting bit-identical behaviour.
    """
    if engine not in _ENGINE_SETTINGS:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ROLLOUT_ENGINES}"
        )
    env = make_offload_env(
        env_kind, seed, episode_limit=episode_limit, **(env_kwargs or {})
    )
    actors = make_classical_team(env, seed + 1)
    critic = ClassicalCentralCritic(
        env.state_size, (4,), np.random.default_rng(seed + 7)
    )
    target = ClassicalCentralCritic(
        env.state_size, (4,), np.random.default_rng(seed + 8)
    )
    settings = {
        "n_epochs": 2,
        "episodes_per_epoch": 4,
        "actor_lr": 1e-2,
        "critic_lr": 1e-2,
        "rollout_envs": n_envs,
        "rollout_workers": n_workers,
    }
    settings.update(_ENGINE_SETTINGS[engine])
    settings.update(train_overrides)
    if settings["rollout_mode"] in ("serial", "vector"):
        settings["rollout_workers"] = 1
    config = TrainingConfig(**settings)
    return CTDETrainer(
        env, actors, critic, target, config, np.random.default_rng(seed)
    )


@dataclass
class EngineRun:
    """Everything one engine produced: the bit-identity comparison surface."""

    engine: str
    records: list  # train_epoch metric dicts, in order
    episode_batches: list  # per epoch: the collected Episode objects
    action_rng_state: dict  # trainer.rng position after the run
    env_rng_state: dict  # env.rng position after the run


def run_engine_epochs(env_kind, engine, n_epochs=2, **kwargs):
    """Run ``n_epochs`` train epochs under one engine; capture everything."""
    trainer = make_engine_trainer(env_kind, engine, **kwargs)
    try:
        records, episode_batches = [], []
        for _ in range(n_epochs):
            records.append(trainer.train_epoch())
            # The buffer holds exactly this epoch's episodes until the next
            # epoch clears it.
            episode_batches.append(list(trainer.buffer.episodes))
        return EngineRun(
            engine=engine,
            records=records,
            episode_batches=episode_batches,
            action_rng_state=trainer.rng.bit_generator.state,
            env_rng_state=trainer.env.rng.bit_generator.state,
        )
    finally:
        trainer.close()


def assert_episodes_equal(left, right):
    """Bit-exact equality over every column of two episode lists."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for column in EPISODE_COLUMNS:
            assert np.array_equal(
                getattr(a, column), getattr(b, column)
            ), column


def assert_engine_runs_equal(reference, other):
    """Bit-identical episodes, metrics, and RNG stream positions.

    The env stream is only comparable between engines with the same reset
    discipline: the batched engines auto-reset the moment an episode ends,
    pre-drawing the *next* episode's reset randomness that the serial loop
    would draw at its next ``env.reset()`` — mid-run the interleaving is
    bit-identical (that is what the episode/metric/action-stream asserts
    pin), but at run end the batched env stream sits exactly one pending
    reset draw ahead of serial whenever resets consume randomness.
    """
    label = f"{other.engine} vs {reference.engine}"
    assert len(reference.records) == len(other.records), label
    for record_ref, record_other in zip(reference.records, other.records):
        assert record_ref.keys() == record_other.keys(), label
        for key in record_ref:
            assert record_ref[key] == record_other[key], f"{label}: {key}"
    for batch_ref, batch_other in zip(
        reference.episode_batches, other.episode_batches
    ):
        assert_episodes_equal(batch_ref, batch_other)
    assert reference.action_rng_state == other.action_rng_state, label
    if "serial" not in (reference.engine, other.engine):
        assert reference.env_rng_state == other.env_rng_state, label


def assert_cross_engine_equivalence(env_kind, engines, n_epochs=2, **kwargs):
    """The harness: every engine's run is bit-identical to the first's.

    With ``n_envs=1`` the full chain serial == vector == sharded-pipe
    holds; with more lockstep copies the batched engines (vector and
    sharded) remain mutually bit-identical while serial legitimately
    consumes streams differently.
    """
    runs = [
        run_engine_epochs(env_kind, engine, n_epochs=n_epochs, **kwargs)
        for engine in engines
    ]
    for other in runs[1:]:
        assert_engine_runs_equal(runs[0], other)
    return runs


def make_harness_framework(env_kind="single_hop", engine="serial", seed=3,
                           **kwargs):
    """Wrap a harness trainer in a real :class:`Framework`.

    Gives checkpoint tests the framework-level save/load surface while
    reusing :func:`make_engine_trainer`'s identically-seeded construction,
    so resume runs are comparable through the equivalence harness.
    """
    trainer = make_engine_trainer(env_kind, engine, seed=seed, **kwargs)
    metadata = {
        "actor_parameters": int(
            sum(p.data.size for p in trainer.actors.actors[0].parameters())
        ),
        "critic_parameters": int(
            sum(p.data.size for p in trainer.critic.parameters())
        ),
    }
    return Framework(
        "harness", trainer.env, trainer.actors, trainer, metadata,
        np.random.default_rng(seed + 100),
    )


def run_framework_epochs(framework, n_epochs, engine="framework"):
    """Run train epochs on a built framework, captured as an EngineRun.

    The companion to :func:`run_engine_epochs` for resume tests: call it
    on a freshly built framework for the reference run and on a
    checkpoint-restored one for the candidate, then compare with
    :func:`assert_engine_runs_equal`.  (Pick an ``engine`` label without
    ``"serial"`` in it so the env-stream comparison applies.)
    """
    trainer = framework.trainer
    records, episode_batches = [], []
    for _ in range(n_epochs):
        records.append(trainer.train_epoch())
        episode_batches.append(list(trainer.buffer.episodes))
    return EngineRun(
        engine=engine,
        records=records,
        episode_batches=episode_batches,
        action_rng_state=trainer.rng.bit_generator.state,
        env_rng_state=trainer.env.rng.bit_generator.state,
    )


# -- ES cross-engine equivalence axis ------------------------------------------

#: Every interchangeable ES evaluation engine, in contract-chain order:
#: per-member reference loop, stacked in-process, sharded worker pool.
ES_ENGINES = ("serial", "stacked", "sharded-pipe")

_ES_ENGINE_SETTINGS = {
    "serial": {"rollout_mode": "serial"},
    "stacked": {"rollout_mode": "vector"},
    "sharded-pipe": {"rollout_mode": "sharded"},
}


def make_es_trainer(env_kind, engine, seed=3, population=4, n_envs=1,
                    n_workers=2, episode_limit=5, env_kwargs=None,
                    **train_overrides):
    """An identically-seeded :class:`ESTrainer` for any ES engine.

    Mirrors :func:`make_engine_trainer`: two calls differing only in
    ``engine`` build trainers whose sole difference is how the population
    is evaluated — the precondition for asserting bit-identity.
    """
    if engine not in _ES_ENGINE_SETTINGS:
        raise ValueError(
            f"unknown ES engine {engine!r}; choose from {ES_ENGINES}"
        )
    env = make_offload_env(
        env_kind, seed, episode_limit=episode_limit, **(env_kwargs or {})
    )
    actors = make_classical_team(env, seed + 1)
    settings = {
        "trainer": "es",
        "n_epochs": 2,
        "episodes_per_epoch": 2,
        "es_population": population,
        "es_sigma": 0.05,
        "es_lr": 0.1,
        "rollout_envs": n_envs,
        "rollout_workers": n_workers,
    }
    settings.update(_ES_ENGINE_SETTINGS[engine])
    settings.update(train_overrides)
    if settings["rollout_mode"] in ("serial", "vector"):
        settings["rollout_workers"] = 1
    config = TrainingConfig(**settings)
    return ESTrainer(env, actors, config, np.random.default_rng(seed))


@dataclass
class ESEngineRun:
    """Everything one ES engine produced: the bit-identity surface."""

    engine: str
    records: list  # train_epoch metric dicts, in order
    base_vector: np.ndarray  # theta after the run
    action_rng_state: dict  # trainer.rng position after the run
    env_rng_state: dict  # env.rng position after the run


def run_es_generations(env_kind, engine, n_generations=2, **kwargs):
    """Run ``n_generations`` ES generations under one engine; capture all."""
    trainer = make_es_trainer(env_kind, engine, **kwargs)
    try:
        records = [trainer.train_epoch() for _ in range(n_generations)]
        return ESEngineRun(
            engine=engine,
            records=records,
            base_vector=trainer.base_vector.copy(),
            action_rng_state=trainer.rng.bit_generator.state,
            env_rng_state=trainer.env.rng.bit_generator.state,
        )
    finally:
        trainer.close()


def assert_es_runs_equal(reference, other):
    """Bit-identical generation records, base vectors, and RNG positions."""
    label = f"{other.engine} vs {reference.engine}"
    assert len(reference.records) == len(other.records), label
    for record_ref, record_other in zip(reference.records, other.records):
        assert record_ref.keys() == record_other.keys(), label
        for key in record_ref:
            assert record_ref[key] == record_other[key], f"{label}: {key}"
    assert np.array_equal(reference.base_vector, other.base_vector), label
    assert reference.action_rng_state == other.action_rng_state, label
    assert reference.env_rng_state == other.env_rng_state, label


def assert_es_cross_engine_equivalence(env_kind, engines, n_generations=2,
                                       **kwargs):
    """The ES harness: every engine's run is bit-identical to the first's.

    Unlike the MAPG chain, the full three-way equality holds at *any* env
    copy count: every ES engine shares the same lockstep vector env layout
    (the per-member loop only changes how probabilities are computed), so
    nothing about stream consumption differs between engines.
    """
    runs = [
        run_es_generations(env_kind, engine, n_generations=n_generations,
                           **kwargs)
        for engine in engines
    ]
    for other in runs[1:]:
        assert_es_runs_equal(runs[0], other)
    return runs


def random_state(rng, n_qubits, batch=1):
    """A normalised random pure-state batch."""
    dim = 2**n_qubits
    psi = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    return sv.normalize(psi)


def numeric_gradient(fn, array, epsilon=1e-6):
    """Central-difference gradient of scalar ``fn`` w.r.t. every entry."""
    array = np.asarray(array, dtype=np.float64)
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = fn(array)
        flat[i] = original - epsilon
        minus = fn(array)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * epsilon)
    return grad


def full_gate_matrix(gate_matrix, wires, n_qubits):
    """Embed a gate matrix into the full Hilbert space by kron products.

    Only supports wires in ascending adjacent-free order via permutations —
    used as an independent oracle against the simulator's axis shuffling.
    """
    dim = 2**n_qubits
    k = len(wires)
    other = [w for w in range(n_qubits) if w not in wires]
    perm_qubits = list(wires) + other

    big = np.kron(gate_matrix, np.eye(2 ** len(other), dtype=np.complex128))

    # Basis permutation matrix mapping natural order -> (wires, other).
    perm = np.zeros((dim, dim), dtype=np.complex128)
    for index in range(dim):
        bits = [(index >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        permuted_bits = [bits[q] for q in perm_qubits]
        new_index = 0
        for bit in permuted_bits:
            new_index = (new_index << 1) | bit
        perm[new_index, index] = 1.0
    return perm.conj().T @ big @ perm
