"""Tests for the evolutionary-strategies training subsystem.

Covers the ES math against closed forms, the population-to-row multiplexing
(stacked per-sample-weight path vs the per-member reference loop), the
single-circuit-call-per-step contract, the ``population=1, sigma=0``
unperturbed-evaluation mode, the cross-engine bit-identity chain
(per-member loop / stacked / sharded-pipe) on both environment families
including crash-restart mid-generation, and a learning smoke run.
"""

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig, VQCConfig
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.envs.vector import make_vector_env
from repro.marl.evolution import (
    ESTrainer,
    PopulationActorGroup,
    PopulationRolloutCollector,
    flat_team_vector,
    load_team_vector,
)
from repro.marl.evolution import es
from repro.marl.frameworks import _quantum_actor_group, build_framework
from repro.marl.rollout import VectorRolloutCollector
from repro.quantum.backends import StatevectorBackend
from repro.seeding import SeedSequenceFactory

from helpers import (
    ES_ENGINES,
    OFFLOAD_ENV_KINDS,
    assert_es_cross_engine_equivalence,
    assert_es_runs_equal,
    make_classical_team,
    make_es_trainer,
    make_offload_env,
    run_es_generations,
)


# -- small quantum fixtures ----------------------------------------------------

SMALL_ENV = SingleHopConfig(episode_limit=4, n_clouds=1, n_agents=2)
SMALL_VQC = VQCConfig(n_qubits=2, n_variational_gates=8)


def quantum_team(seed=5):
    """A tiny 2-qubit quantum actor team for the stacked-path tests."""
    return _quantum_actor_group(
        SMALL_ENV, SMALL_VQC, SeedSequenceFactory(seed), StatevectorBackend
    )


def quantum_es_trainer(seed=3, stacked=True, **overrides):
    """A tiny quantum ES trainer; ``stacked=False`` switches its population
    group to the per-member reference loop."""
    env = SingleHopOffloadEnv(SMALL_ENV, rng=np.random.default_rng(seed))
    actors = quantum_team(seed + 2)
    settings = {
        "trainer": "es",
        "es_population": 4,
        "es_sigma": 0.1,
        "es_lr": 0.1,
        "episodes_per_epoch": 2,
    }
    settings.update(overrides)
    config = TrainingConfig(**settings)
    trainer = ESTrainer(env, actors, config, np.random.default_rng(seed))
    trainer._population_group.stacked = stacked
    return trainer


# -- ES math -------------------------------------------------------------------

class TestESMath:
    def test_centered_ranks_known_values(self):
        shaped = es.centered_ranks([3.0, -1.0, 10.0])
        assert np.allclose(shaped, [0.0, -0.5, 0.5])
        assert shaped.sum() == 0.0

    def test_centered_ranks_range_and_single_member(self):
        shaped = es.centered_ranks(np.arange(7.0))
        assert shaped.min() == -0.5 and shaped.max() == 0.5
        assert np.array_equal(es.centered_ranks([42.0]), [0.0])

    def test_population_noise_is_antithetic(self):
        noise = es.population_noise((11, 22), population=4, dim=6)
        assert noise.shape == (4, 6)
        assert np.array_equal(noise[1], -noise[0])
        assert np.array_equal(noise[3], -noise[2])
        assert not np.array_equal(noise[0], noise[2])

    def test_odd_population_keeps_unpaired_positive_member(self):
        noise = es.population_noise((11, 22), population=3, dim=6)
        assert np.array_equal(noise[2], es.pair_noise(22, 6))

    def test_noise_is_seed_deterministic(self):
        assert np.array_equal(es.pair_noise(99, 8), es.pair_noise(99, 8))
        a = es.perturb_population(np.zeros(5), (7, 8), 0.3, 4)
        b = es.perturb_population(np.zeros(5), (7, 8), 0.3, 4)
        assert np.array_equal(a, b)

    def test_pair_seed_count(self):
        assert es.n_pairs(1) == 1
        assert es.n_pairs(4) == 2
        assert es.n_pairs(5) == 3
        rng = np.random.default_rng(0)
        assert len(es.draw_generation_seeds(rng, 5)) == 3

    def test_sigma_zero_population_is_exact_copies(self):
        base = np.random.default_rng(0).normal(size=9)
        members = es.perturb_population(base, (), 0.0, 3)
        assert members.shape == (3, 9)
        assert all(np.array_equal(m, base) for m in members)

    def test_es_gradient_closed_form(self):
        # One pair, population 2: g = (u0 - u1) * eps / (2 sigma).
        seeds = (5,)
        eps = es.pair_noise(5, 4)
        shaped = np.array([0.5, -0.5])
        grad = es.es_gradient(shaped, seeds, sigma=0.2, population=2, dim=4)
        assert np.allclose(grad, (0.5 - (-0.5)) * eps / (2 * 0.2))

    def test_optimizer_step_matches_manual_update(self):
        base = np.random.default_rng(1).normal(size=4)
        opt = es.ESOptimizer(lr=0.5, sigma=0.2, weight_decay=0.1)
        fitness = np.array([1.0, 3.0])
        seeds = (5,)
        new_base, info = opt.step(base, fitness, seeds)
        shaped = es.centered_ranks(fitness)
        grad = es.es_gradient(shaped, seeds, 0.2, 2, 4)
        assert np.allclose(new_base, base + 0.5 * (grad - 0.1 * base))
        assert info["grad_norm"] == pytest.approx(np.linalg.norm(grad))
        assert opt.generation == 1

    def test_optimizer_degenerate_generations_leave_base_untouched(self):
        base = np.random.default_rng(2).normal(size=4)
        # Single member: rank shaping is all-zero, no update (and no decay).
        new_base, info = es.ESOptimizer(lr=0.5, sigma=0.2).step(
            base, np.array([1.0]), (3,)
        )
        assert np.array_equal(new_base, base)
        assert info["grad_norm"] == 0.0
        # sigma == 0: evaluation mode.
        new_base, _ = es.ESOptimizer(lr=0.5, sigma=0.0).step(
            base, np.array([1.0, 2.0]), ()
        )
        assert np.array_equal(new_base, base)

    def test_validation(self):
        with pytest.raises(ValueError):
            es.n_pairs(0)
        with pytest.raises(ValueError):
            es.population_noise((1,), population=4, dim=3)  # needs 2 seeds
        with pytest.raises(ValueError):
            es.es_gradient([0.0, 0.0], (1,), sigma=0.0, population=2, dim=3)
        with pytest.raises(ValueError):
            es.ESOptimizer(lr=0.0, sigma=0.1)


# -- flat team vectors and the population group --------------------------------

class TestPopulationActorGroup:
    def test_flat_vector_round_trip(self):
        env = make_offload_env("single_hop", 0)
        team = make_classical_team(env, 1)
        vector = flat_team_vector(team)
        assert vector.ndim == 1 and vector.size == team.n_parameters()
        perturbed = vector + 0.25
        load_team_vector(team, perturbed)
        assert np.array_equal(flat_team_vector(team), perturbed)
        with pytest.raises(ValueError):
            load_team_vector(team, perturbed[:-1])

    def test_row_to_member_mapping(self):
        team = quantum_team()
        vectors = np.tile(flat_team_vector(team), (3, 1))
        group = PopulationActorGroup(team, vectors)
        assert np.array_equal(group.members_for_rows(6), [0, 1, 2, 0, 1, 2])
        group.set_row_offset(4)
        assert np.array_equal(group.members_for_rows(3), [1, 2, 0])

    def test_act_is_rejected(self):
        group = PopulationActorGroup(quantum_team())
        with pytest.raises(RuntimeError, match="act_batch"):
            group.act([np.zeros(3)], np.random.default_rng(0))

    def test_stacked_matches_member_loop_on_quantum_team(self):
        """The one-circuit-call path equals the per-member oracle loop."""
        team = quantum_team()
        rng = np.random.default_rng(7)
        base = flat_team_vector(team)
        vectors = base[None, :] + 0.1 * rng.normal(size=(3, base.size))
        observations = rng.uniform(0.0, 1.0, size=(6, team.n_agents, 3))

        stacked = PopulationActorGroup(team, vectors, stacked=True)
        loop = PopulationActorGroup(team, vectors, stacked=False)
        probs_stacked = stacked.batch_probabilities(observations)
        probs_loop = loop.batch_probabilities(observations)
        assert probs_stacked.shape == (6, team.n_agents, SMALL_ENV.n_actions)
        assert np.array_equal(probs_stacked, probs_loop)
        # The loop restores the template's weights.
        assert np.array_equal(flat_team_vector(team), base)

    @pytest.mark.parametrize("stacked", [True, False],
                             ids=["stacked", "member_loop"])
    @pytest.mark.parametrize("extra", [1, -1, 2])
    def test_member_vectors_of_the_wrong_width_are_rejected(self, stacked,
                                                            extra):
        """Every agent would read a shifted window of a wider vector on the
        stacked path; both paths reject it, with the member loop's message,
        at construction and at every new generation."""
        team = quantum_team()
        base = flat_team_vector(team)
        observations = np.random.default_rng(11).uniform(
            0.0, 1.0, size=(2, team.n_agents, 3)
        )
        wrong = np.zeros((2, base.size + extra * team.n_agents))
        message = (f"vector of size {wrong.shape[1]} does not match team "
                   f"parameter count {base.size}")
        with pytest.raises(ValueError, match=message):
            PopulationActorGroup(team, wrong, stacked=stacked)
        group = PopulationActorGroup(team, np.tile(base, (2, 1)),
                                     stacked=stacked)
        with pytest.raises(ValueError, match=message):
            group.set_members(wrong)
        # The generation in place still serves.
        assert group.batch_probabilities(observations).shape == (
            2, team.n_agents, SMALL_ENV.n_actions
        )

    def test_shard_offset_slices_the_global_evaluation(self):
        """A shard's probabilities equal its rows of the full evaluation."""
        team = quantum_team()
        rng = np.random.default_rng(8)
        base = flat_team_vector(team)
        vectors = base[None, :] + 0.1 * rng.normal(size=(4, base.size))
        observations = rng.uniform(0.0, 1.0, size=(8, team.n_agents, 3))

        full = PopulationActorGroup(team, vectors)
        reference = full.batch_probabilities(observations)
        for lo, hi in ((0, 3), (3, 6), (6, 8)):
            shard = PopulationActorGroup(team, vectors, row_offset=lo)
            probs = shard.batch_probabilities(observations[lo:hi])
            assert np.array_equal(probs, reference[lo:hi])

    @pytest.mark.parametrize("row_offset", [0, 16])
    def test_consecutive_shard_rows_view_the_member_matrix(self, row_offset):
        """A shard whose rows are consecutive members without wrapping
        (P = 32 split over two 16-row workers) reads its weight rows as a
        view of ``member_vectors`` instead of gathering them."""
        team = quantum_team()
        base = flat_team_vector(team)
        vectors = base[None, :] + 0.1 * np.random.default_rng(9).normal(
            size=(32, base.size)
        )
        group = PopulationActorGroup(team, vectors, row_offset=row_offset)
        rows = group._member_row_weights(16)
        assert np.shares_memory(rows, group.member_vectors)
        members = vectors.reshape(32, team.n_agents, -1)
        assert np.array_equal(
            rows,
            members[row_offset:row_offset + 16].reshape(16 * team.n_agents, -1),
        )

    @pytest.mark.parametrize(
        "population, row_offset, n_rows", [(5, 3, 4), (3, 2, 7)]
    )
    def test_wrapping_shard_rows_are_gathered(self, population, row_offset,
                                              n_rows):
        team = quantum_team()
        rng = np.random.default_rng(10)
        base = flat_team_vector(team)
        vectors = base[None, :] + 0.1 * rng.normal(size=(population, base.size))
        stacked = PopulationActorGroup(team, vectors, row_offset=row_offset)
        members = (row_offset + np.arange(n_rows)) % population
        assert np.array_equal(
            stacked._member_row_weights(n_rows),
            vectors.reshape(population, team.n_agents, -1)[members].reshape(
                n_rows * team.n_agents, -1
            ),
        )
        loop = PopulationActorGroup(
            team, vectors, row_offset=row_offset, stacked=False
        )
        observations = rng.uniform(0.0, 1.0, size=(n_rows, team.n_agents, 3))
        assert np.array_equal(
            stacked.batch_probabilities(observations),
            loop.batch_probabilities(observations),
        )

    def test_load_broadcast_reconstructs_the_generation(self):
        team = quantum_team()
        base = flat_team_vector(team)
        seeds = (13, 14)
        group = PopulationActorGroup(team)
        group.load_broadcast(
            {"base": base, "seeds": seeds, "sigma": 0.2, "population": 4}
        )
        assert np.array_equal(
            group.member_vectors, es.perturb_population(base, seeds, 0.2, 4)
        )

    def test_classical_team_uses_member_loop(self):
        env = make_offload_env("single_hop", 0)
        team = make_classical_team(env, 1)
        base = flat_team_vector(team)
        vectors = np.stack([base, base + 0.5])
        group = PopulationActorGroup(team, vectors)
        assert not group._quantum_stackable
        observations = np.random.default_rng(2).uniform(
            0.0, 1.0, size=(4, team.n_agents, env.observation_size)
        )
        probs = group.batch_probabilities(observations)
        # Rows of member 0 match the template's own evaluation.
        expected = team.batch_probabilities(observations[0::2])
        assert np.array_equal(probs[0::2], expected)


def count_circuit_runs(trainer, monkeypatch):
    """Record every batched circuit evaluation of the team's backend."""
    backend = trainer.actors._fast_backend
    calls = []
    original = backend.run

    def counting_run(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(backend, "run", counting_run)
    return calls


class TestSingleCircuitCallPerStep:
    def test_one_stacked_evaluation_per_env_step(self, monkeypatch):
        """A whole generation runs one circuit evaluation per env step —
        no per-member python loop over circuit calls."""
        trainer = quantum_es_trainer()
        calls = count_circuit_runs(trainer, monkeypatch)
        trainer.train_epoch()
        # episodes_per_epoch=2 per member over 1 env row per member
        # -> 2 lockstep rounds of episode_limit steps each.
        expected_steps = 2 * SMALL_ENV.episode_limit
        assert len(calls) == expected_steps

    def test_member_loop_pays_one_call_per_member_per_step(self, monkeypatch):
        trainer = quantum_es_trainer(stacked=False)
        calls = count_circuit_runs(trainer, monkeypatch)
        trainer.train_epoch()
        expected_steps = 2 * SMALL_ENV.episode_limit
        assert len(calls) == expected_steps * trainer.population


# -- the unperturbed evaluation mode -------------------------------------------

class TestEvaluationMode:
    def test_population_one_sigma_zero_reproduces_plain_evaluation(self):
        """population=1, sigma=0 is bit-identical to plain unperturbed
        vectorized collection of the same team — episodes, stats, and both
        RNG streams."""
        seed = 3
        trainer = quantum_es_trainer(
            seed=seed, es_population=1, es_sigma=0.0,
            episodes_per_epoch=4, rollout_envs=2,
        )
        theta0 = trainer.base_vector.copy()
        records = [trainer.train_epoch() for _ in range(2)]
        assert np.array_equal(trainer.base_vector, theta0)

        env = SingleHopOffloadEnv(SMALL_ENV, rng=np.random.default_rng(seed))
        team = quantum_team(seed + 2)
        rng = np.random.default_rng(seed)
        collector = VectorRolloutCollector(make_vector_env(env, 2), team)
        for record in records:
            _, stats = collector.collect(4, rng)
            assert record["total_reward"] == float(
                np.mean([s["total_reward"] for s in stats])
            )
            assert record["mean_queue"] == float(
                np.mean([s["mean_queue"] for s in stats])
            )
            assert record["grad_norm"] == 0.0
        assert trainer.rng.bit_generator.state == rng.bit_generator.state
        assert (
            trainer.env.rng.bit_generator.state == env.rng.bit_generator.state
        )


# -- cross-engine bit-identity (the ES axis of the unified harness) ------------

class TestESCrossEngineEquivalence:
    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    def test_engine_chain(self, env_kind):
        """serial-loop == stacked == sharded-pipe, on both environment
        families, including RNG stream positions."""
        assert_es_cross_engine_equivalence(env_kind, ES_ENGINES)

    def test_odd_population_and_worker_count(self):
        assert_es_cross_engine_equivalence(
            "single_hop", ("stacked", "sharded-pipe"),
            population=5, n_workers=3,
        )

    def test_multiple_env_copies_per_member(self):
        assert_es_cross_engine_equivalence(
            "single_hop", ES_ENGINES, population=2, n_envs=2,
        )

    def test_quantum_chain(self):
        """The stacked weight math against the per-member oracle on a real
        quantum team, in-process and sharded."""

        def run(stacked, workers=1):
            trainer = quantum_es_trainer(
                stacked=stacked, rollout_workers=workers,
            )
            try:
                records = [trainer.train_epoch() for _ in range(2)]
                return (
                    records,
                    trainer.base_vector.copy(),
                    trainer.rng.bit_generator.state,
                )
            finally:
                trainer.close()

        reference = run(False)
        for args in ((True,), (True, 2)):
            other = run(*args)
            assert reference[0] == other[0]
            assert np.array_equal(reference[1], other[1])
            assert reference[2] == other[2]


class TestESCrashRecovery:
    def test_worker_crash_mid_generation_is_bit_identical(self):
        """Killing a worker mid-generation (command received, then death)
        restarts it from its checkpoint and replays the generation
        broadcast — the run stays bit-identical to an undisturbed one."""
        reference = run_es_generations(
            "single_hop", "sharded-pipe", n_generations=3
        )

        trainer = make_es_trainer("single_hop", "sharded-pipe")
        try:
            records = [trainer.train_epoch()]
            collector = trainer.sharded_collector()
            collector.debug_crash_worker(0, during_next_collect=True)
            records.append(trainer.train_epoch())
            assert collector.total_restarts == 1
            records.append(trainer.train_epoch())
            from helpers import ESEngineRun

            crashed = ESEngineRun(
                engine="sharded-pipe-crashed",
                records=records,
                base_vector=trainer.base_vector.copy(),
                action_rng_state=trainer.rng.bit_generator.state,
                env_rng_state=trainer.env.rng.bit_generator.state,
            )
        finally:
            trainer.close()
        assert_es_runs_equal(reference, crashed)

    def test_worker_killed_between_generations(self):
        reference = run_es_generations(
            "single_hop", "sharded-pipe", n_generations=2
        )
        trainer = make_es_trainer("single_hop", "sharded-pipe")
        try:
            records = [trainer.train_epoch()]
            trainer.sharded_collector().debug_crash_worker(0)
            records.append(trainer.train_epoch())
            assert trainer.sharded_collector().total_restarts == 1
            assert records == reference.records
            assert np.array_equal(reference.base_vector, trainer.base_vector)
        finally:
            trainer.close()


def test_sharded_generations_ship_no_transitions(monkeypatch):
    """Fitness needs returns alone: every reply a sharded generation sends
    the parent lacks an ``episodes`` key."""
    from repro.marl.parallel import PipeChannel

    replies = []
    recv = PipeChannel.recv

    def spy(channel):
        reply = recv(channel)
        replies.append(reply)
        return reply

    monkeypatch.setattr(PipeChannel, "recv", spy)
    trainer = make_es_trainer("single_hop", "sharded-pipe", population=4)
    try:
        for _ in range(2):
            trainer.train_epoch()
        commits = [r for r in replies if isinstance(r, dict) and "stats" in r]
    finally:
        trainer.close()
    assert len(commits) == 4  # 2 generations x 2 workers
    assert all("episodes" not in r for r in commits)


def test_sharded_replies_stay_small(monkeypatch):
    """At the benchmark's ES shape (P=32, T=350, two workers) each reply a
    stats-only collect sends is small: no ``episodes`` key, and no
    arrival block in the vector env its crash checkpoint carries (every
    row ends a collect at an episode boundary, its block used up)."""
    from multiprocessing.reduction import ForkingPickler

    from repro.marl.parallel import PipeChannel

    replies = []
    recv = PipeChannel.recv

    def spy(channel):
        reply = recv(channel)
        replies.append(reply)
        return reply

    monkeypatch.setattr(PipeChannel, "recv", spy)
    framework = build_framework(
        "proposed", seed=1, env_config=SingleHopConfig(episode_limit=350),
        train_config=TrainingConfig(
            trainer="es", es_population=32, episodes_per_epoch=1,
            rollout_envs=1, rollout_workers=2,
        ),
    )
    try:
        for _ in range(2):
            framework.trainer.train_epoch()
    finally:
        framework.close()
    commits = [r for r in replies if isinstance(r, dict) and "stats" in r]
    assert len(commits) == 4  # 2 generations x 2 workers
    for reply in commits:
        assert "episodes" not in reply
        vector_env = reply["checkpoint"]["vector_env"]
        assert getattr(vector_env, "_arrival_block", None) is None
        assert len(ForkingPickler.dumps(reply)) <= 16 * 1024


# -- trainer API ---------------------------------------------------------------

class TestESTrainer:
    def test_rejects_mapg_config(self):
        env = make_offload_env("single_hop", 0)
        team = make_classical_team(env, 1)
        with pytest.raises(ValueError, match="trainer='es'"):
            ESTrainer(env, team, TrainingConfig(), np.random.default_rng(0))

    def test_member_fitness_mapping(self):
        trainer = make_es_trainer("single_hop", "stacked", population=2)
        stats = [{"total_reward": r} for r in (1.0, 2.0, 3.0, 4.0)]
        fitness = trainer.member_fitness(stats)
        # 2 rows (one per member), episodes round-robin rows: member 0 got
        # rewards 1 and 3, member 1 got 2 and 4.
        assert np.array_equal(fitness, [2.0, 3.0])
        trainer.close()

    def test_history_and_callback(self):
        trainer = make_es_trainer("single_hop", "stacked")
        seen = []

        def callback(record):
            seen.append(record["epoch"])
            if len(seen) == 2:
                raise StopIteration

        history = trainer.train(n_epochs=5, callback=callback)
        assert seen == [1, 2]
        assert history.n_epochs == 2
        assert set(history.keys()) >= {
            "epoch", "total_reward", "fitness_mean", "fitness_max",
            "fitness_std", "grad_norm",
        }
        trainer.close()

    def test_nan_episode_return_stops_before_ranking(self, monkeypatch,
                                                     tmp_path):
        """``centered_ranks`` sorts NaN last, so one NaN return would rank
        its member best and steer the update towards it: the generation
        stops before ranking, with the base vector unchanged."""
        from repro.marl.trainer import NonFiniteUpdateError
        from repro.obs import flight

        trainer = make_es_trainer("single_hop", "stacked", population=4)
        trainer.train_epoch()
        collect = trainer.collect_generation

        def one_nan(seeds):
            episodes, stats = collect(seeds)
            stats[2]["total_reward"] = float("nan")
            return episodes, stats

        monkeypatch.setattr(trainer, "collect_generation", one_nan)
        base = trainer.base_vector.copy()
        prior = flight.set_dump_dir(str(tmp_path))
        try:
            with pytest.raises(NonFiniteUpdateError,
                               match="^epoch 2: fitness of member 2 is nan"):
                trainer.train_epoch()
        finally:
            flight.set_dump_dir(prior)
            trainer.close()
        assert np.array_equal(trainer.base_vector, base)
        assert np.array_equal(flat_team_vector(trainer.actors), base)
        assert trainer.epoch == 1 and trainer.history.n_epochs == 1
        assert len(list(tmp_path.glob("flight-non-finite-update-*"))) == 1

    def test_update_is_applied_to_live_actors(self):
        trainer = make_es_trainer("single_hop", "stacked")
        before = flat_team_vector(trainer.actors).copy()
        trainer.train_epoch()
        after = flat_team_vector(trainer.actors)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, trainer.base_vector)
        trainer.close()

    def test_close_idempotent(self):
        trainer = make_es_trainer("single_hop", "sharded-pipe")
        trainer.train_epoch()
        assert trainer._collector is None
        trainer.close()
        assert trainer._sharded_collector is None
        trainer.close()

    def test_collector_validation(self):
        trainer = quantum_es_trainer()
        group = trainer._population_group
        env = SingleHopOffloadEnv(SMALL_ENV, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="multiple"):
            PopulationRolloutCollector(env, group, n_envs=3, n_workers=1)
        with pytest.raises(TypeError, match="PopulationActorGroup"):
            PopulationRolloutCollector(
                env, trainer.actors, n_envs=4, n_workers=1
            )
        collector = PopulationRolloutCollector(
            env, group, n_envs=4, n_workers=2
        )
        with pytest.raises(RuntimeError, match="set_generation"):
            collector.collect(4, np.random.default_rng(0))
        collector.close()


class TestFrameworkIntegration:
    def test_build_framework_es_quantum(self):
        framework = build_framework(
            "proposed",
            seed=5,
            env_config=SingleHopConfig(episode_limit=4),
            vqc_config=VQCConfig(n_variational_gates=10),
            train_config=TrainingConfig(
                trainer="es", es_population=2, episodes_per_epoch=1,
            ),
        )
        with framework:
            assert isinstance(framework.trainer, ESTrainer)
            assert framework.metadata["critic_parameters"] == 0
            assert framework.metadata["actor_parameters"] == 10
            record = framework.trainer.train_epoch()
            assert "fitness_mean" in record
            stats = framework.evaluate(n_episodes=1)
            assert "total_reward" in stats

    def test_build_framework_es_overrides(self):
        framework = build_framework(
            "comp2",
            seed=5,
            env_config=SingleHopConfig(episode_limit=4),
            train_config=TrainingConfig(
                trainer="es", es_population=3, es_sigma=0.2, es_lr=0.3,
            ),
        )
        with framework:
            trainer = framework.trainer
            assert isinstance(trainer, ESTrainer)
            assert trainer.population == 3
            assert trainer.sigma == 0.2
            assert trainer.optimizer.lr == 0.3
            trainer.train_epoch()

    def test_random_framework_ignores_trainer_knob(self):
        framework = build_framework(
            "random",
            train_config=TrainingConfig(trainer="es", es_population=2),
        )
        assert framework.trainer is None


class TestESLearning:
    @pytest.mark.slow
    def test_mean_return_improves_on_single_hop(self):
        """The acceptance smoke: ES mean return improves across
        generations on SingleHop (quantum team, stacked evaluation)."""
        framework = build_framework(
            "proposed",
            seed=7,
            env_config=SingleHopConfig(episode_limit=30),
            vqc_config=VQCConfig(critic_value_scale=10.0),
            train_config=TrainingConfig(
                trainer="es",
                episodes_per_epoch=2,
                es_population=8,
                es_sigma=0.15,
                es_lr=0.12,
            ),
        )
        with framework:
            history = framework.train(n_epochs=6)
        rewards = history.series("total_reward")
        assert np.mean(rewards[-2:]) > np.mean(rewards[:2])


class TestRaggedRejection:
    """ES fitness attribution is positional — ragged envs are rejected."""

    def test_ragged_env_rejected_up_front(self):
        env = make_offload_env("single_hop_ragged", 0)
        team = make_classical_team(env, 1)
        config = TrainingConfig(trainer="es")
        with pytest.raises(ValueError, match="fixed-length"):
            ESTrainer(env, team, config, np.random.default_rng(0))

    def test_fixed_env_still_accepted(self):
        env = make_offload_env("single_hop", 0)
        team = make_classical_team(env, 1)
        config = TrainingConfig(trainer="es")
        trainer = ESTrainer(env, team, config, np.random.default_rng(0))
        trainer.close()
