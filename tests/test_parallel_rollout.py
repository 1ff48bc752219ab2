"""Determinism, crash-recovery, and lifecycle tests for the process-sharded
rollout subsystem (``repro.marl.parallel``), over both transition
transports (pickle-pipe and shared-memory ring)."""

import copy
import os

import numpy as np
import pytest

from repro.config import SingleHopConfig, TrainingConfig
from repro.envs.vector import make_vector_env
from repro.marl.actors import ActorGroup, ClassicalActor
from repro.marl.frameworks import build_framework
from repro.marl.parallel import ShardedRolloutCollector
from repro.marl.rollout import VectorRolloutCollector

from tests.helpers import (
    EPISODE_COLUMNS,
    OFFLOAD_ENV_KINDS,
    RAGGED_ENV_KINDS,
    ROLLOUT_ENGINES,
    assert_cross_engine_equivalence,
    assert_episodes_equal,
    make_classical_team,
    make_engine_trainer,
    make_offload_env,
)

EPISODE_LIMIT = 5
TRANSPORTS = ("pipe", "shm")
# Tiny rings so even these toy episodes exercise multi-slot frames, wraps,
# and the backpressure path rather than fitting the whole collect at once.
SMALL_RING = {"shm_slot_bytes": 256, "shm_slots": 8}


def engine_setup(env_kind, seed=3):
    """A serial env + tiny classical team, deterministically seeded."""
    env = make_offload_env(env_kind, seed, episode_limit=EPISODE_LIMIT)
    return env, make_classical_team(env, seed + 1)


def single_hop_setup(seed=3):
    return engine_setup("single_hop", seed)


def sharded(env, actors, n_envs, n_workers, transport="pipe", **kwargs):
    if transport == "shm":
        kwargs = {**SMALL_RING, **kwargs}
    return ShardedRolloutCollector(
        env, actors, n_envs=n_envs, n_workers=n_workers,
        transport=transport, **kwargs,
    )


def collect_rounds(collector, env, n_episodes, n_rounds, seed=11, greedy=False):
    """Run ``n_rounds`` collects; returns (episodes, stats, rng/env states)."""
    rng = np.random.default_rng(seed)
    episodes, stats = [], []
    for _ in range(n_rounds):
        batch, batch_stats = collector.collect(n_episodes, rng, greedy=greedy)
        episodes.extend(batch)
        stats.extend(batch_stats)
    return episodes, stats, rng.bit_generator.state, env.rng.bit_generator.state


def assert_segments_released(names):
    """Every shm segment named must be gone from the system after close."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        return
    leaked = [name for name in names if os.path.exists(f"/dev/shm/{name}")]
    assert not leaked, f"orphaned shared-memory segments: {leaked}"


class TestCrossEngineEquivalence:
    """The unified harness: one ``train_epoch`` contract for all engines."""

    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    def test_four_way_chain_at_n1(self, env_kind):
        """serial == vector == sharded-pipe == sharded-shm at one env copy:
        bit-identical episodes, metrics, and RNG stream positions."""
        assert_cross_engine_equivalence(
            env_kind, ROLLOUT_ENGINES, n_envs=1, n_workers=1
        )

    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    def test_batched_engines_at_n4(self, env_kind):
        """vector(4) == sharded-pipe(4, W=2) == sharded-shm(4, W=2)."""
        assert_cross_engine_equivalence(
            env_kind,
            ("vector", "sharded-pipe", "sharded-shm"),
            n_envs=4,
            n_workers=2,
        )

    def test_uneven_shards(self):
        """Worker counts that split N unevenly keep the chain intact."""
        assert_cross_engine_equivalence(
            "single_hop",
            ("vector", "sharded-pipe", "sharded-shm"),
            n_envs=4,
            n_workers=3,
        )


class TestShardedDeterminism:
    @pytest.mark.parametrize("env_kind", OFFLOAD_ENV_KINDS)
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_bit_identical_to_vector_engine(self, env_kind, transport,
                                            n_workers):
        """W workers over N=4 == in-process VectorEnv(4), episode for
        episode, over either transport."""
        env_v, actors_v = engine_setup(env_kind)
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        expected = collect_rounds(reference, env_v, 4, 2)

        env_s, actors_s = engine_setup(env_kind)
        with sharded(env_s, actors_s, 4, n_workers, transport) as pool:
            got = collect_rounds(pool, env_s, 4, 2)

        assert_episodes_equal(expected[0], got[0])
        assert expected[1] == got[1]  # per-episode Fig. 3 stats
        assert expected[2] == got[2]  # shared action stream position
        assert expected[3] == got[3]  # serial env's row-0 stream position

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_bit_identical_to_serial_at_n1(self, transport):
        """Transitivity anchor: one row, one worker == the serial oracle."""
        from repro.marl.trainer import rollout_episode

        env_ref, actors_ref = single_hop_setup()
        rng_ref = np.random.default_rng(11)
        expected = [
            rollout_episode(env_ref, actors_ref, rng_ref) for _ in range(3)
        ]

        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 1, 1, transport) as pool:
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

    def test_greedy_collection_matches_vector(self):
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 4, 2) as pool:
            expected = collect_rounds(reference, env_v, 4, 1, greedy=True)
            got = collect_rounds(pool, env_s, 4, 1, greedy=True)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_weight_updates_reach_workers(self, transport):
        """Mutating parent actor weights changes the next sharded collect."""
        env_s, actors_s = engine_setup("single_hop")
        with sharded(env_s, actors_s, 2, 2, transport) as pool:
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


class TestTransportSelection:
    def test_auto_picks_pipe_for_tiny_blocks(self):
        env, actors = single_hop_setup()
        with ShardedRolloutCollector(
            env, actors, n_envs=2, n_workers=2, transport="auto"
        ) as pool:
            # 5-step toy episodes are far below the shm crossover.
            assert pool.transport == "pipe"
            assert pool.shm_segment_names() == []

    def test_auto_picks_shm_for_large_blocks(self):
        from repro.marl.parallel import (
            AUTO_SHM_MIN_BLOCK_BYTES,
            estimate_episode_block_bytes,
        )

        env = make_offload_env("single_hop", 3, episode_limit=200)
        actors = make_classical_team(env, 4)
        assert (
            estimate_episode_block_bytes(env, 200)
            >= AUTO_SHM_MIN_BLOCK_BYTES
        )
        with ShardedRolloutCollector(
            env, actors, n_envs=2, n_workers=2, transport="auto"
        ) as pool:
            assert pool.transport == "shm"
            assert len(pool.shm_segment_names()) == 2

    def test_unknown_transport_rejected(self):
        env, actors = single_hop_setup()
        with pytest.raises(ValueError, match="transport"):
            ShardedRolloutCollector(
                env, actors, n_envs=2, n_workers=2, transport="tcp"
            )

    def test_blocks_larger_than_ring_stream_through(self):
        """A ring far smaller than one episode block still round-trips
        bit-exactly via chunk frames (the backpressure path)."""
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 2), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(
            env_s, actors_s, 2, 2, "shm",
            shm_slot_bytes=64, shm_slots=2,
        ) as pool:
            expected = collect_rounds(reference, env_v, 2, 2)
            got = collect_rounds(pool, env_s, 2, 2)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]


class TestCrashRecovery:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("during_next_collect", [False, True])
    def test_crash_restart_loses_no_episodes(self, transport,
                                             during_next_collect):
        """A killed worker is restarted and its block replayed bit-exactly —
        no episode lost or duplicated — and (for shm) its segments are
        reclaimed by the replacement, then released on close."""
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 4, 2, transport) as pool:
            segment_names = pool.shm_segment_names()
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
            # The restarted worker reuses its predecessor's segments; no new
            # allocation, nothing orphaned by the dead process.
            assert pool.shm_segment_names() == segment_names
        assert_episodes_equal(expected_1[0] + expected_2[0], got_1[0] + got_2[0])
        assert expected_1[1] + expected_2[1] == got_1[1] + got_2[1]
        assert rng_v.bit_generator.state == rng_s.bit_generator.state
        assert_segments_released(segment_names)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_worker_task_error_poisons_pool(self, transport):
        """A deterministic in-worker error propagates and closes the pool:
        replaying it cannot help, and leaving the pool open could pair the
        next command with a stale queued reply."""
        from repro.marl.actors import RandomActor
        from repro.marl.parallel import WorkerTaskError

        env, _ = single_hop_setup()
        group = ActorGroup([RandomActor(4) for _ in range(4)])
        pool = sharded(env, group, 2, 2, transport)
        segment_names = pool.shm_segment_names()
        processes = [w.process for w in pool._workers]
        with pytest.raises(WorkerTaskError, match="greedy"):
            # RandomActor has no greedy mode; the worker raises inside
            # act_batch, exactly as the in-process engine would in-line.
            pool.collect(2, np.random.default_rng(0), greedy=True)
        assert pool._closed
        assert all(p is None or not p.is_alive() for p in processes)
        with pytest.raises(RuntimeError, match="closed"):
            pool.collect(2, np.random.default_rng(0))
        assert_segments_released(segment_names)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_crash_before_first_collect(self, transport):
        env_v, actors_v = single_hop_setup()
        reference = VectorRolloutCollector(make_vector_env(env_v, 2), actors_v)
        env_s, actors_s = single_hop_setup()
        with sharded(env_s, actors_s, 2, 2, transport) as pool:
            pool.debug_crash_worker(1)
            expected = reference.collect(2, np.random.default_rng(5))
            got = pool.collect(2, np.random.default_rng(5))
            assert pool.total_restarts == 1
        assert_episodes_equal(expected[0], got[0])
        assert expected[1] == got[1]


class TestLifecycle:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_close_leaves_no_processes_or_segments(self, transport):
        env, actors = single_hop_setup()
        pool = sharded(env, actors, 2, 2, transport)
        segment_names = pool.shm_segment_names()
        if transport == "shm":
            assert len(segment_names) == 2
            if os.path.isdir("/dev/shm"):
                assert all(
                    os.path.exists(f"/dev/shm/{name}")
                    for name in segment_names
                )
        processes = [w.process for w in pool._workers]
        assert all(p.is_alive() for p in processes)
        pool.close()
        assert all(p is None or not p.is_alive() for p in processes)
        assert all(w.process is None for w in pool._workers)
        assert_segments_released(segment_names)
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

    def test_auto_mode_engages_sharded_engine(self):
        """rollout_mode='auto' with workers > 1 dispatches to the worker
        pool (and stays bit-identical to the vector engine)."""
        vector = self.trainer_setup(rollout_mode="vector")
        auto = self.trainer_setup(rollout_mode="auto", rollout_workers=2)
        assert auto.sharded_rollouts and not vector.sharded_rollouts
        try:
            assert vector.train_epoch() == auto.train_epoch()
        finally:
            auto.close()

    def test_forced_sharded_mode_single_worker(self):
        vector = self.trainer_setup(rollout_mode="vector")
        sharded_trainer = self.trainer_setup(
            rollout_mode="sharded", rollout_workers=1
        )
        assert sharded_trainer.sharded_rollouts
        try:
            assert vector.train_epoch() == sharded_trainer.train_epoch()
        finally:
            sharded_trainer.close()

    def test_trainer_respects_transport_config(self):
        trainer = self.trainer_setup(
            rollout_mode="sharded", rollout_workers=2, rollout_transport="shm"
        )
        try:
            trainer.train_epoch()
            assert trainer._sharded_collector.transport == "shm"
        finally:
            trainer.close()

    def test_workers_clamped_to_rollout_envs(self):
        trainer = self.trainer_setup(
            episodes_per_epoch=2, rollout_envs=2, rollout_workers=16
        )
        assert trainer.rollout_workers == 2
        trainer.close()  # no pool was ever started; must still be safe

    def test_close_shuts_down_pool_and_allows_rebuild(self):
        trainer = self.trainer_setup(rollout_mode="sharded", rollout_workers=2)
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

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_quantum_framework_sharded_matches_vector(self, transport):
        env_config = SingleHopConfig(episode_limit=4)

        def run(mode, workers, rollout_transport):
            train = TrainingConfig(
                episodes_per_epoch=2,
                actor_lr=1e-3,
                critic_lr=1e-3,
                rollout_envs=2,
                rollout_workers=workers,
                rollout_mode=mode,
                rollout_transport=rollout_transport,
            )
            framework = build_framework(
                "proposed", seed=7, env_config=env_config, train_config=train
            )
            with framework:
                records = [framework.trainer.train_epoch() for _ in range(2)]
                evaluation = framework.evaluate(n_episodes=2)
            return records, evaluation

        assert run("vector", 1, "auto") == run("sharded", 2, transport)


class TestEpisodeLimitResolution:
    """The collector resolves the horizon cap explicitly (regression:
    ``int(limit or 0)`` used to conflate an absent limit with zero)."""

    class _NoLimitEnv:
        n_agents = 2
        observation_size = 3
        state_size = 6

    def test_missing_limit_everywhere_rejected(self):
        actors = ActorGroup(
            [ClassicalActor(3, 4, (), np.random.default_rng(0))
             for _ in range(2)]
        )
        with pytest.raises(ValueError, match="horizon cap"):
            ShardedRolloutCollector(
                self._NoLimitEnv(), actors, n_envs=2, n_workers=1
            )

    def test_env_attribute_wins_over_config(self):
        env, actors = single_hop_setup()
        # MultiHop-style: the limit lives on the env itself; a conflicting
        # config value must not shadow it.
        env.episode_limit = EPISODE_LIMIT
        with sharded(env, actors, 2, 1) as pool:
            assert pool.episode_limit == EPISODE_LIMIT

    def test_limit_one_is_a_valid_cap(self):
        """An episode_limit of 1 is a degenerate but legal horizon — it
        must not be mistaken for 'absent'."""
        env_v = make_offload_env("single_hop", 3, episode_limit=1)
        actors_v = make_classical_team(env_v, 4)
        reference = VectorRolloutCollector(make_vector_env(env_v, 2), actors_v)
        env_s = make_offload_env("single_hop", 3, episode_limit=1)
        actors_s = make_classical_team(env_s, 4)
        with sharded(env_s, actors_s, 2, 2) as pool:
            assert pool.episode_limit == 1
            expected = collect_rounds(reference, env_v, 2, 1)
            got = collect_rounds(pool, env_s, 2, 1)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]


class TestRaggedEpisodes:
    """The ragged round protocol: data-dependent termination across the
    full engine chain, bit-identical to the in-process reference."""

    @pytest.mark.parametrize("env_kind", RAGGED_ENV_KINDS)
    def test_four_way_chain_ragged_at_n1(self, env_kind):
        """serial == vector == sharded-pipe == sharded-shm on the ragged
        env family, one copy: episodes, metrics, RNG positions."""
        assert_cross_engine_equivalence(
            env_kind, ROLLOUT_ENGINES, n_envs=1, n_workers=1
        )

    @pytest.mark.parametrize("env_kind", RAGGED_ENV_KINDS)
    def test_batched_engines_ragged_at_n4(self, env_kind):
        assert_cross_engine_equivalence(
            env_kind,
            ("vector", "sharded-pipe", "sharded-shm"),
            n_envs=4,
            n_workers=2,
        )

    def test_uneven_shards_ragged(self):
        assert_cross_engine_equivalence(
            "single_hop_ragged",
            ("vector", "sharded-pipe", "sharded-shm"),
            n_envs=4,
            n_workers=3,
        )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_ragged_bit_identical_to_vector_engine(self, transport,
                                                   n_workers):
        env_v, actors_v = engine_setup("single_hop_ragged")
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        expected = collect_rounds(reference, env_v, 4, 2)

        env_s, actors_s = engine_setup("single_hop_ragged")
        with sharded(env_s, actors_s, 4, n_workers, transport) as pool:
            assert pool.ragged
            got = collect_rounds(pool, env_s, 4, 2)

        assert_episodes_equal(expected[0], got[0])
        assert expected[1] == got[1]
        assert expected[2] == got[2]
        assert expected[3] == got[3]
        # The family must genuinely vary in length, or this pins nothing.
        assert len({s["length"] for s in expected[1]}) > 1

    def test_ragged_quota_below_copy_count(self):
        """Surplus episodes from the final ragged round are discarded
        identically by both engines."""
        env_v, actors_v = engine_setup("single_hop_ragged")
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = engine_setup("single_hop_ragged")
        with sharded(env_s, actors_s, 4, 2) as pool:
            expected = collect_rounds(reference, env_v, 3, 2)
            got = collect_rounds(pool, env_s, 3, 2)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    def test_ragged_quota_above_copy_count(self):
        """Quotas needing several probe extensions stay bit-identical (the
        negotiation path: first bound ceil(n/N) is far too short when many
        episodes run to the horizon)."""
        env_v, actors_v = engine_setup("single_hop_ragged")
        reference = VectorRolloutCollector(make_vector_env(env_v, 2), actors_v)
        env_s, actors_s = engine_setup("single_hop_ragged")
        with sharded(env_s, actors_s, 2, 2) as pool:
            expected = collect_rounds(reference, env_v, 7, 2)
            got = collect_rounds(pool, env_s, 7, 2)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("during_next_collect", [False, True])
    def test_ragged_crash_restart_loses_no_episodes(self, transport,
                                                    during_next_collect):
        """A worker killed mid-ragged-collect is replayed bit-exactly —
        multi-exchange probing included — and shm segments survive the
        restart and are released on close."""
        env_v, actors_v = engine_setup("single_hop_ragged")
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = engine_setup("single_hop_ragged")
        with sharded(env_s, actors_s, 4, 2, transport) as pool:
            segment_names = pool.shm_segment_names()
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
            assert pool.shm_segment_names() == segment_names
        assert_episodes_equal(
            expected_1[0] + expected_2[0], got_1[0] + got_2[0]
        )
        assert expected_1[1] + expected_2[1] == got_1[1] + got_2[1]
        assert rng_v.bit_generator.state == rng_s.bit_generator.state
        assert_segments_released(segment_names)

    def test_ragged_greedy_collection_matches_vector(self):
        env_v, actors_v = engine_setup("single_hop_ragged")
        reference = VectorRolloutCollector(make_vector_env(env_v, 4), actors_v)
        env_s, actors_s = engine_setup("single_hop_ragged")
        with sharded(env_s, actors_s, 4, 2) as pool:
            expected = collect_rounds(reference, env_v, 4, 1, greedy=True)
            got = collect_rounds(pool, env_s, 4, 1, greedy=True)
        assert_episodes_equal(expected[0], got[0])
        assert expected[1:] == got[1:]

    def test_fixed_envs_keep_the_fast_path(self):
        """Non-ragged envs must not pay the probe protocol: the collector
        stays on the one-command fast path."""
        env, actors = single_hop_setup()
        with sharded(env, actors, 4, 2) as pool:
            assert not pool.ragged


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
