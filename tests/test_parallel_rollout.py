"""Determinism, crash-recovery, and lifecycle tests for the process-sharded
rollout subsystem (``repro.marl.parallel``)."""

import contextlib
import copy

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig
from repro.envs.vector import make_vector_env
from repro.marl.actors import ActorGroup, ClassicalActor
from repro.marl.evolution import (
    PopulationActorGroup,
    PopulationRolloutCollector,
    flat_team_vector,
)
from repro.marl.frameworks import build_framework
from repro.marl.parallel import PipeChannel, ShardedRolloutCollector
from repro.marl.parallel.collector import _WorkerHandle
from repro.marl.parallel.worker import ShardActionAdapter
from repro.marl.rollout import VectorRolloutCollector
from repro.marl.trainer import rollout_episode

from tests.helpers import (
    EPISODE_COLUMNS,
    OFFLOAD_ENV_KINDS,
    RAGGED_ENV_KINDS,
    ROLLOUT_ENGINES,
    assert_cross_engine_equivalence,
    assert_episodes_equal,
    collect_on_pool,
    make_classical_team,
    make_engine_trainer,
    make_offload_env,
)

EPISODE_LIMIT = 5


def engine_setup(env_kind, seed=3):
    """A serial env + tiny classical team, deterministically seeded."""
    env = make_offload_env(env_kind, seed, episode_limit=EPISODE_LIMIT)
    return env, make_classical_team(env, seed + 1)


def single_hop_setup(seed=3):
    return engine_setup("single_hop", seed)


def sharded(env, actors, n_envs, n_workers, **kwargs):
    return ShardedRolloutCollector(
        env, actors, n_envs=n_envs, n_workers=n_workers, **kwargs
    )


def forbid_worker_start(monkeypatch):
    """Make starting any worker process fail the test."""

    def start(handle):
        raise AssertionError(f"worker {handle.name} was started")

    monkeypatch.setattr(_WorkerHandle, "start", start)


def collect_rounds(collector, env, n_episodes, n_rounds, seed=11, greedy=False):
    """Run ``n_rounds`` collects; returns (episodes, stats, rng/env states)."""
    rng = np.random.default_rng(seed)
    episodes, stats = [], []
    for _ in range(n_rounds):
        batch, batch_stats = collector.collect(n_episodes, rng, greedy=greedy)
        episodes.extend(batch)
        stats.extend(batch_stats)
    return episodes, stats, rng.bit_generator.state, env.rng.bit_generator.state


class TestCrossEngineEquivalence:
    """The unified harness: one ``train_epoch`` contract for all engines."""

    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    def test_engine_chain_at_n1(self, env_kind):
        """serial == vector == sharded-pipe at one env copy: bit-identical
        episodes, metrics, and RNG stream positions."""
        assert_cross_engine_equivalence(
            env_kind, ROLLOUT_ENGINES, n_envs=1, n_workers=1
        )

    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    def test_batched_engines_at_n4(self, env_kind):
        """vector(4) == sharded-pipe(4, W=2)."""
        assert_cross_engine_equivalence(
            env_kind,
            ("vector", "sharded-pipe"),
            n_envs=4,
            n_workers=2,
        )

    def test_uneven_shards(self):
        """Worker counts that split N unevenly keep the chain intact."""
        assert_cross_engine_equivalence(
            "single_hop",
            ("vector", "sharded-pipe"),
            n_envs=4,
            n_workers=3,
        )


class TestShardedDeterminism:
    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_bit_identical_to_vector_engine(self, env_kind, n_workers):
        """W workers over N=4 == in-process VectorEnv(4), episode for
        episode."""
        env_v, actors_v = engine_setup(env_kind)
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        expected = collect_rounds(reference, env_v, 4, 2)

        env_s, actors_s = engine_setup(env_kind)
        with sharded(env_s, actors_s, 4, n_workers) as pool:
            got = collect_rounds(pool, env_s, 4, 2)

        assert_episodes_equal(expected[0], got[0])
        assert expected[1] == got[1]  # per-episode Fig. 3 stats
        assert expected[2] == got[2]  # shared action stream position
        assert expected[3] == got[3]  # serial env's row-0 stream position

    def test_bit_identical_to_serial_at_n1(self):
        """Transitivity anchor: one row, one worker == the serial oracle."""
        from repro.marl.trainer import rollout_episode

        env_ref, actors_ref = single_hop_setup()
        rng_ref = np.random.default_rng(11)
        expected = [
            rollout_episode(env_ref, actors_ref, rng_ref) for _ in range(3)
        ]

        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 1, 1) as pool:
            rng_s = np.random.default_rng(11)
            episodes, stats = pool.collect(3, rng_s)
        assert_episodes_equal([e for e, _ in expected], episodes)
        assert [s for _, s in expected] == stats
        assert rng_ref.bit_generator.state == rng_s.bit_generator.state

    def test_quota_below_copy_count_discards_surplus_identically(self):
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 4, 2) as pool:
            expected = collect_rounds(reference, env_v, 3, 2)
            got = collect_rounds(pool, env_s, 3, 2)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    @pytest.mark.parametrize("n_episodes", [5, 7, 9])
    def test_blocks_reassemble_over_uneven_shards(self, n_episodes):
        """N=4 over W=3 (shards of 2, 1 and 1 rows): quotas spanning two
        and three blocks, with a surplus to discard, == vector(4)."""
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        expected = collect_rounds(reference, env_v, n_episodes, 2)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 4, 3) as pool:
            got = collect_rounds(pool, env_s, n_episodes, 2)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    def test_greedy_collection_matches_vector(self):
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 4, 2) as pool:
            expected = collect_rounds(reference, env_v, 4, 1, greedy=True)
            got = collect_rounds(pool, env_s, 4, 1, greedy=True)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    def test_weight_updates_reach_workers(self):
        """Mutating parent actor weights changes the next sharded collect."""
        env_s, actors_s = engine_setup("single_hop")
        with sharded(env_s, actors_s, 2, 2) as pool:
            first, _ = pool.collect(2, np.random.default_rng(0))
            for p in actors_s.parameters():
                p.data += np.random.default_rng(1).normal(
                    scale=0.5, size=p.data.shape
                )
            second, _ = pool.collect(2, np.random.default_rng(0))
        same_weights_same_stream = np.array_equal(
            first[0].actions, second[0].actions
        )
        assert not same_weights_same_stream


class TestCrashRecovery:
    @pytest.mark.parametrize("during_next_collect", [False, True])
    def test_crash_restart_loses_no_episodes(self, during_next_collect):
        """A killed worker is restarted and its block replayed bit-exactly —
        no episode lost or duplicated."""
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 4, 2) as pool:
            rng_v = np.random.default_rng(11)
            rng_s = np.random.default_rng(11)
            expected_1 = reference.collect(4, rng_v)
            got_1 = pool.collect(4, rng_s)
            pool.debug_crash_worker(
                0, during_next_collect=during_next_collect
            )
            expected_2 = reference.collect(4, rng_v)
            got_2 = pool.collect(4, rng_s)
            assert pool.total_restarts == 1
        assert_episodes_equal(expected_1[0] + expected_2[0], got_1[0] + got_2[0])
        assert expected_1[1] + expected_2[1] == got_1[1] + got_2[1]
        assert rng_v.bit_generator.state == rng_s.bit_generator.state

    def test_worker_task_error_poisons_pool(self):
        """A deterministic in-worker error propagates and closes the pool:
        replaying it cannot help, and leaving the pool open could pair the
        next command with a stale queued reply."""
        from repro.marl.actors import RandomActor
        from repro.marl.parallel import WorkerTaskError

        env, _ = single_hop_setup()
        group = ActorGroup([RandomActor(4) for _ in range(4)])
        pool = sharded(env, group, 2, 2)
        processes = [w.process for w in pool._workers]
        with pytest.raises(WorkerTaskError, match="greedy"):
            # RandomActor has no greedy mode; the worker raises inside
            # act_batch, exactly as the in-process engine would in-line.
            pool.collect(2, np.random.default_rng(0), greedy=True)
        assert pool._closed
        assert all(p is None or not p.is_alive() for p in processes)
        with pytest.raises(RuntimeError, match="closed"):
            pool.collect(2, np.random.default_rng(0))

    def test_crash_before_first_collect(self):
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 2), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 2, 2) as pool:
            pool.debug_crash_worker(1)
            expected = reference.collect(2, np.random.default_rng(5))
            got = pool.collect(2, np.random.default_rng(5))
            assert pool.total_restarts == 1
        assert_episodes_equal(expected[0], got[0])
        assert expected[1] == got[1]


class TestLifecycle:
    def test_close_leaves_no_processes(self):
        env, actors = single_hop_setup()
        pool = sharded(env, actors, 2, 2)
        processes = [w.process for w in pool._workers]
        assert all(p.is_alive() for p in processes)
        pool.close()
        assert all(p is None or not p.is_alive() for p in processes)
        assert all(w.process is None for w in pool._workers)
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.collect(1, np.random.default_rng(0))

    def test_ping(self):
        env, actors = single_hop_setup()
        with sharded(env, actors, 3, 2) as pool:
            assert pool.ping() == 2

    def test_workers_clamped_to_envs(self):
        env, actors = single_hop_setup()
        with sharded(env, actors, 2, 8) as pool:
            assert pool.n_workers == 2

    def test_invalid_arguments(self):
        env, actors = single_hop_setup()
        with pytest.raises(ValueError):
            ShardedRolloutCollector(env, actors, n_envs=0, n_workers=1)
        with pytest.raises(ValueError):
            ShardedRolloutCollector(env, actors, n_envs=2, n_workers=0)
        group = ActorGroup([ClassicalActor(4, 4, (), np.random.default_rng(0))])
        with pytest.raises(ValueError):
            ShardedRolloutCollector(env, group, n_envs=2, n_workers=1)


class TestTrainerIntegration:
    def trainer_setup(self, seed=5, **train_overrides):
        from repro.marl.critics import ClassicalCentralCritic
        from repro.marl.trainer import CTDETrainer

        env, actors = single_hop_setup(seed)
        critic_rng = np.random.default_rng(seed + 7)
        critic = ClassicalCentralCritic(env.config.state_size, (4,), critic_rng)
        target = ClassicalCentralCritic(
            env.config.state_size, (4,), np.random.default_rng(seed + 8)
        )
        defaults = {
            "n_epochs": 2,
            "episodes_per_epoch": 4,
            "actor_lr": 1e-2,
            "critic_lr": 1e-2,
            "rollout_envs": 4,
        }
        defaults.update(train_overrides)
        config = TrainingConfig(**defaults)
        return CTDETrainer(
            env, actors, critic, target, config, np.random.default_rng(seed)
        )

    def test_rollout_workers_engage_sharded_engine(self):
        """Workers > 1 collect on the worker pool, one worker in-process,
        and the two stay bit-identical."""
        vector = self.trainer_setup()
        pooled = self.trainer_setup(rollout_workers=2)
        try:
            assert vector.train_epoch() == pooled.train_epoch()
            assert isinstance(vector._collector, VectorRolloutCollector)
            assert vector._sharded_collector is None
            assert isinstance(pooled._sharded_collector,
                              ShardedRolloutCollector)
            assert pooled._collector is None
        finally:
            pooled.close()

    def test_forced_sharded_mode_single_worker(self):
        vector = self.trainer_setup()
        sharded_trainer = collect_on_pool(
            self.trainer_setup(rollout_workers=1)
        )
        try:
            assert vector.train_epoch() == sharded_trainer.train_epoch()
            assert sharded_trainer._sharded_collector.n_workers == 1
            assert sharded_trainer._collector is None
        finally:
            sharded_trainer.close()

    def test_workers_clamped_to_rollout_envs(self):
        trainer = self.trainer_setup(
            episodes_per_epoch=2, rollout_envs=2, rollout_workers=16
        )
        assert trainer.rollout_workers == 2
        trainer.close()  # no pool was ever started; must still be safe

    def test_close_shuts_down_pool_and_allows_rebuild(self):
        trainer = self.trainer_setup(rollout_workers=2)
        trainer.train_epoch()
        pool = trainer._sharded_collector
        assert pool is not None
        trainer.close()
        assert trainer._sharded_collector is None
        assert all(w.process is None for w in pool._workers)
        # A later epoch lazily rebuilds a fresh pool.  Documented caveat:
        # the rebuilt pool is seed-deterministic but not bit-continuous
        # with the uninterrupted run (close is end-of-collection, not a
        # pause) — here we only assert the rebuild itself works.
        trainer.train_epoch()
        assert trainer._sharded_collector is not pool
        trainer.close()

    def test_quantum_framework_sharded_matches_vector(self):
        env_config = SingleHopConfig(episode_limit=4)

        def run(workers):
            train = TrainingConfig(
                episodes_per_epoch=2,
                actor_lr=1e-3,
                critic_lr=1e-3,
                rollout_envs=2,
                rollout_workers=workers,
            )
            framework = build_framework(
                "proposed", seed=7, env_config=env_config, train_config=train
            )
            with framework:
                records = [framework.trainer.train_epoch() for _ in range(2)]
                evaluation = framework.evaluate(n_episodes=2)
            return records, evaluation

        assert run(1) == run(2)


class TestEpisodeLimitResolution:
    """A horizon of one step is degenerate but legal."""

    def test_limit_one_is_a_valid_cap(self):
        """An episode_limit of 1 collects one episode per row per round,
        sharded == vector."""
        env_v = make_offload_env("single_hop", 3, episode_limit=1)
        actors_v = make_classical_team(env_v, 4)
        reference = VectorRolloutCollector(make_vector_env(env_v, 2), actors_v)
        env_s = make_offload_env("single_hop", 3, episode_limit=1)
        actors_s = make_classical_team(env_s, 4)
        with sharded(env_s, actors_s, 2, 2) as pool:
            expected = collect_rounds(reference, env_v, 2, 1)
            got = collect_rounds(pool, env_s, 2, 1)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]


class TestRaggedEpisodes:
    """Ragged episodes (data-dependent termination) collect in-process,
    serial == vector bit-identically; the sharded engines reject them
    before any worker starts."""

    @pytest.mark.parametrize("env_kind", RAGGED_ENV_KINDS)
    def test_engine_chain_ragged_at_n1(self, env_kind):
        """serial == vector on the ragged env family, one copy: episodes,
        metrics, RNG positions."""
        assert_cross_engine_equivalence(
            env_kind, ("serial", "vector"), n_envs=1, n_workers=1
        )

    @pytest.mark.parametrize("n_episodes", [3, 4, 7])
    @pytest.mark.parametrize("env_kind", RAGGED_ENV_KINDS)
    def test_completion_order_matches_per_row_serial_runs(self, env_kind,
                                                          n_episodes):
        """Greedy vector(4) == every row's serial greedy episodes, each row
        on a copy of its generator, merged by (end step, row).

        A horizon of 20 with a 0.7 preload makes greedy lengths vary
        within every quota, so the merge is not plain row order."""

        def make_env():
            return make_offload_env(
                env_kind, 0, episode_limit=20, initial_queue_level=0.7
            )

        env = make_env()
        actors = make_classical_team(env, 1)
        vector_env = make_vector_env(env, 4)
        row_rngs = [copy.deepcopy(rng) for rng in vector_env.rngs]
        episodes, stats = VectorRolloutCollector(vector_env, actors).collect(
            n_episodes, np.random.default_rng(0), greedy=True
        )

        finished = []
        for row, row_rng in enumerate(row_rngs):
            row_env = make_env()
            row_env.rng = row_rng
            end = 0
            # A row contributes at most n_episodes to the merged prefix.
            for _ in range(n_episodes):
                episode, episode_stats = rollout_episode(
                    row_env, actors, np.random.default_rng(0), greedy=True
                )
                end += episode_stats["length"]
                finished.append((end, row, episode, episode_stats))
        finished.sort(key=lambda item: item[:2])
        expected = finished[:n_episodes]
        assert_episodes_equal([item[2] for item in expected], episodes)
        assert [item[3] for item in expected] == stats
        assert len({s["length"] for s in stats}) > 1

    @pytest.mark.parametrize("env_kind", RAGGED_ENV_KINDS)
    @pytest.mark.parametrize("collector", ["sharded", "population"])
    def test_sharded_collectors_reject_ragged_envs(self, collector, env_kind,
                                                   monkeypatch):
        """Rejected at construction, naming the fix, before any row stream
        is spawned or worker process started."""
        forbid_worker_start(monkeypatch)
        env, actors = engine_setup(env_kind)
        cls = ShardedRolloutCollector
        if collector == "population":
            members = np.tile(flat_team_vector(actors), (2, 1))
            actors = PopulationActorGroup(actors, member_vectors=members)
            cls = PopulationRolloutCollector
        seed_seq = env.rng.bit_generator.seed_seq
        spawned = seed_seq.n_children_spawned
        with pytest.raises(ValueError, match="rollout_workers=1"):
            cls(env, actors, n_envs=4, n_workers=2)
        assert seed_seq.n_children_spawned == spawned

    @pytest.mark.parametrize("env_kind", RAGGED_ENV_KINDS)
    @pytest.mark.parametrize("n_workers", [2, 1])
    def test_sharded_trainer_rejects_ragged_envs(self, n_workers, env_kind,
                                                 monkeypatch):
        """A MAPG trainer set to shard a ragged env (by its worker count,
        or by the pool forced at one worker) raises on its first epoch,
        before any worker starts, before any update, and without falling
        back to in-process collection."""
        forbid_worker_start(monkeypatch)
        trainer = make_engine_trainer(
            env_kind, "sharded-pipe", n_workers=n_workers
        )
        modules = (trainer.actors, trainer.critic, trainer.target_critic)
        before = [p.data.copy() for m in modules for p in m.parameters()]
        try:
            with pytest.raises(ValueError, match="rollout_workers=1"):
                trainer.train_epoch()
            after = [p.data for m in modules for p in m.parameters()]
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            assert trainer.epoch == 0
            assert trainer._collector is None
        finally:
            trainer.close()


class TestStagedEpisodes:
    """Rounds are staged in shared per-row buffers whose rows restart with
    every finished episode; returned episodes must own their arrays."""

    @pytest.mark.parametrize("env_kind", ["single_hop", "single_hop_ragged"])
    def test_episodes_own_their_arrays(self, env_kind):
        env, actors = engine_setup(env_kind)
        collector = VectorRolloutCollector(make_vector_env(env, 2), actors)
        rng = np.random.default_rng(5)
        first, _ = collector.collect(5, rng)
        kept = copy.deepcopy(first)
        second, _ = collector.collect(5, rng)
        assert_episodes_equal(first, kept)
        arrays = [
            getattr(episode, column)
            for episode in first + second
            for column in EPISODE_COLUMNS
        ]
        for i, array in enumerate(arrays):
            for other in arrays[i + 1:]:
                assert not np.shares_memory(array, other)


class TestStatsOnlyCollection:
    """``collect(..., transitions=False)`` returns the same stats with no
    episodes, and leaves every stream and the carry-over exactly where a
    full collect would."""

    STATS_ENGINES = ("vector", "sharded-pipe")

    @staticmethod
    def _collector(engine, env_kind, stack):
        env, actors = engine_setup(env_kind)
        if engine == "vector":
            return env, VectorRolloutCollector(make_vector_env(env, 4), actors)
        return env, stack.enter_context(sharded(env, actors, 4, 2))

    @staticmethod
    def _row_rng_states(collector):
        if isinstance(collector, VectorRolloutCollector):
            envs = [collector.vector_env]
        else:
            envs = [w.checkpoint["vector_env"] for w in collector._workers]
        return [r.bit_generator.state for env in envs for r in env.rngs]

    @pytest.mark.parametrize("engine, env_kind", [
        (engine, env_kind)
        for engine in STATS_ENGINES
        for env_kind in OFFLOAD_ENV_KINDS + RAGGED_ENV_KINDS
        # The sharded engine serves fixed-length envs only.
        if engine == "vector" or env_kind in OFFLOAD_ENV_KINDS
    ])
    def test_stats_match_a_full_collect(self, engine, env_kind):
        with contextlib.ExitStack() as stack:
            env_full, full = self._collector(engine, env_kind, stack)
            env_stats, stats_only = self._collector(engine, env_kind, stack)
            rng_full = np.random.default_rng(11)
            rng_stats = np.random.default_rng(11)
            # A quota that is not a multiple of N discards surplus episodes.
            episodes, expected = full.collect(6, rng_full)
            none, got = stats_only.collect(6, rng_stats, transitions=False)
            assert none is None
            assert len(episodes) == 6
            assert got == expected
            assert (rng_stats.bit_generator.state
                    == rng_full.bit_generator.state)
            assert (env_stats.rng.bit_generator.state
                    == env_full.rng.bit_generator.state)
            assert (self._row_rng_states(stats_only)
                    == self._row_rng_states(full))
            # The carry-over is intact: the next full collect agrees.
            episodes_full, stats_full = full.collect(5, rng_full)
            episodes_after, stats_after = stats_only.collect(5, rng_stats)
        assert_episodes_equal(episodes_full, episodes_after)
        assert stats_full == stats_after

    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    def test_stats_only_replies_ship_no_transitions(self, env_kind,
                                                    monkeypatch):
        """What the parent receives: a stats-only collect reply has no
        ``episodes`` key at all, where a full collect's has one per shard."""
        replies = []
        recv = PipeChannel.recv

        def spy(channel):
            reply = recv(channel)
            replies.append(reply)
            return reply

        monkeypatch.setattr(PipeChannel, "recv", spy)
        env, actors = engine_setup(env_kind)
        with sharded(env, actors, 4, 2) as pool:
            rng = np.random.default_rng(0)
            del replies[:]  # the init and clock handshakes
            pool.collect(6, rng, transitions=False)
            stats_only = replies[:]
            del replies[:]
            pool.collect(6, rng)
            full = [r for r in replies if "stats" in r]
        commits = [r for r in stats_only if "stats" in r]
        assert len(commits) == 2
        assert sum(len(r["stats"]) for r in commits) >= 6
        assert all("episodes" not in r for r in stats_only)
        assert [len(r["episodes"]) for r in full] == [
            len(r["stats"]) for r in full
        ]

    def test_vectorized_evaluate_matches_full_collect_stats(self):
        framework = build_framework("comp2", seed=5)
        got = framework.evaluate(n_episodes=4, greedy=False, vectorized=True)
        twin = build_framework("comp2", seed=5)
        collector = VectorRolloutCollector(
            make_vector_env(twin.env, 4), twin.actors
        )
        _, stats = collector.collect(4, twin._eval_rng, greedy=False)
        assert got == {
            key: float(np.mean([s[key] for s in stats])) for key in stats[0]
        }


class TestNonFinitePolicy:
    """A policy that is not a distribution stops collection, as the serial
    loop's ``Generator.choice`` does, instead of acting 0 on every row."""

    @staticmethod
    def _poisoned(engine):
        trainer = make_engine_trainer("single_hop", engine)
        for param in trainer.actors.parameters():
            param.data[...] = np.nan
        return trainer

    def test_vector_engine_raises(self):
        trainer = self._poisoned("vector")
        try:
            with pytest.raises(ValueError, match="env row 0, agent 0"):
                trainer.train_epoch()
        finally:
            trainer.close()

    def test_greedy_batch_raises(self):
        trainer = self._poisoned("vector")
        observations = np.zeros((2, trainer.env.n_agents,
                                 trainer.env.observation_size))
        try:
            with pytest.raises(ValueError, match="not finite"):
                trainer.actors.act_batch(
                    observations, np.random.default_rng(0), greedy=True
                )
        finally:
            trainer.close()

    def test_sharded_pipe_engine_raises_worker_task_error(self):
        from repro.marl.parallel import WorkerTaskError

        trainer = self._poisoned("sharded-pipe")
        try:
            with pytest.raises(WorkerTaskError) as info:
                trainer.train_epoch()
            assert "ValueError: policy probabilities" in str(info.value)
        finally:
            trainer.close()

    @pytest.mark.parametrize("greedy", [False, True])
    def test_shard_adapter_names_the_global_row(self, greedy):
        """A worker's shard starting at global row 2 reports its first bad
        row as env row 2 on the sampled and the greedy path alike."""
        env, actors = single_hop_setup()
        for param in actors.parameters():
            param.data[...] = np.nan
        adapter = ShardActionAdapter(actors, first_row=2, n_envs_total=4)
        observations = np.zeros((2, env.n_agents, env.observation_size))
        with pytest.raises(ValueError, match="env row 2, agent 0"):
            adapter.act_batch(
                observations, np.random.default_rng(0), greedy=greedy
            )
