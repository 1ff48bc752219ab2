"""Equivalence property tests: vector envs vs. N independent serial envs.

The serial environments are ground truth.  For seeded RNG streams, a
``VectorEnv(N)`` must match ``N`` independent serial environments
step-for-step — observations, global state, rewards, ``info`` dicts and
done flags — and ``act_batch`` must agree with per-observation ``act``
under greedy decoding.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.config import SingleHopConfig
from repro.envs.arrivals import BernoulliBurstArrivals, TruncatedPoissonArrivals
from repro.envs.multi_hop import MultiHopOffloadEnv, layered_topology
from repro.envs.queues import QueueBank
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.envs.vector import (
    MultiHopVectorEnv,
    SingleHopVectorEnv,
    VectorEnv,
    make_vector_env,
)
from repro.marl.actors import ActorGroup, ClassicalActor, RandomActor
from repro.marl.frameworks import build_framework


def serial_single_hop(n_envs, cfg, base_seed=100):
    return [
        SingleHopOffloadEnv(cfg, rng=np.random.default_rng(base_seed + i))
        for i in range(n_envs)
    ]


def vector_single_hop(n_envs, cfg, base_seed=100, **kwargs):
    rngs = [np.random.default_rng(base_seed + i) for i in range(n_envs)]
    return SingleHopVectorEnv(n_envs, config=cfg, rngs=rngs, **kwargs)


def assert_info_equal(serial_info, vector_info):
    assert serial_info.keys() == vector_info.keys()
    for key, value in serial_info.items():
        assert np.array_equal(
            np.asarray(value), np.asarray(vector_info[key])
        ), f"info[{key!r}] diverged"


class TestSingleHopEquivalence:
    @pytest.mark.parametrize("initial_level", [0.5, "uniform"])
    def test_step_for_step_vs_serial(self, initial_level):
        cfg = SingleHopConfig(episode_limit=6, initial_queue_level=initial_level)
        n_envs = 5
        serial = serial_single_hop(n_envs, cfg)
        vector = vector_single_hop(n_envs, cfg)

        obs_v, state_v = vector.reset()
        for i, env in enumerate(serial):
            obs_s, state_s = env.reset()
            assert np.array_equal(np.stack(obs_s), obs_v[i])
            assert np.array_equal(state_s, state_v[i])

        action_rng = np.random.default_rng(0)
        for _ in range(2 * cfg.episode_limit + 3):
            actions = action_rng.integers(
                0, cfg.n_actions, size=(n_envs, cfg.n_agents)
            )
            result = vector.step(actions)
            for i, env in enumerate(serial):
                serial_result = env.step(list(actions[i]))
                assert np.array_equal(
                    np.stack(serial_result.observations),
                    result.final_observations[i],
                )
                assert np.array_equal(
                    serial_result.state, result.final_states[i]
                )
                assert serial_result.reward == result.rewards[i]
                assert serial_result.done == bool(result.dones[i])
                assert_info_equal(serial_result.info, result.infos[i])
                if serial_result.done:
                    # Auto-reset must draw exactly what a serial reset draws.
                    obs_s, state_s = env.reset()
                    assert np.array_equal(np.stack(obs_s), result.observations[i])
                    assert np.array_equal(state_s, result.states[i])

    def test_vectorized_stats_match_info_dicts(self):
        """The hot-path stat arrays equal the lazily built info values."""
        cfg = SingleHopConfig(episode_limit=5)
        vector = vector_single_hop(4, cfg)
        vector.reset()
        action_rng = np.random.default_rng(3)
        for _ in range(5):
            actions = action_rng.integers(0, cfg.n_actions, size=(4, cfg.n_agents))
            result = vector.step(actions)
            infos = result.infos
            for i in range(4):
                assert result.mean_queues[i] == infos[i]["mean_queue"]
                assert result.empty_ratios[i] == infos[i]["empty_ratio"]
                assert result.overflow_ratios[i] == infos[i]["overflow_ratio"]

    def test_conserve_packets_mode(self):
        cfg = SingleHopConfig(episode_limit=4, conserve_packets=True)
        serial = serial_single_hop(3, cfg)
        vector = vector_single_hop(3, cfg)
        vector.reset()
        [env.reset() for env in serial]
        action_rng = np.random.default_rng(1)
        for _ in range(4):
            actions = action_rng.integers(0, cfg.n_actions, size=(3, cfg.n_agents))
            result = vector.step(actions)
            for i, env in enumerate(serial):
                serial_result = env.step(list(actions[i]))
                assert serial_result.reward == result.rewards[i]
                assert np.array_equal(
                    serial_result.info["sent"], result.infos[i]["sent"]
                )

    def test_make_vector_env_row0_shares_serial_stream(self):
        cfg = SingleHopConfig(episode_limit=4, initial_queue_level="uniform")
        reference = SingleHopOffloadEnv(cfg, rng=np.random.default_rng(9))
        source = SingleHopOffloadEnv(cfg, rng=np.random.default_rng(9))
        vector = make_vector_env(source, 3)
        assert vector.rngs[0] is source.rng

        obs_v, _ = vector.reset()
        obs_s, _ = reference.reset()
        assert np.array_equal(np.stack(obs_s), obs_v[0])
        actions = np.zeros((3, cfg.n_agents), dtype=np.int64)
        result = vector.step(actions)
        serial_result = reference.step([0] * cfg.n_agents)
        assert serial_result.reward == result.rewards[0]
        assert np.array_equal(
            np.stack(serial_result.observations), result.final_observations[0]
        )

    def test_auto_reset_disabled_keeps_terminal_state(self):
        cfg = SingleHopConfig(episode_limit=2)
        vector = vector_single_hop(2, cfg, auto_reset=False)
        vector.reset()
        actions = np.zeros((2, cfg.n_agents), dtype=np.int64)
        vector.step(actions)
        result = vector.step(actions)
        assert result.dones.all()
        assert np.array_equal(result.observations, result.final_observations)

    def test_action_validation(self):
        cfg = SingleHopConfig(episode_limit=3)
        vector = vector_single_hop(2, cfg)
        vector.reset()
        with pytest.raises(ValueError, match="shape"):
            vector.step(np.zeros((3, cfg.n_agents), dtype=np.int64))
        with pytest.raises(ValueError, match="action indices"):
            vector.step(np.full((2, cfg.n_agents), cfg.n_actions))

    def test_rng_count_validation(self):
        cfg = SingleHopConfig(episode_limit=3)
        with pytest.raises(ValueError, match="generators"):
            SingleHopVectorEnv(3, config=cfg, rngs=[np.random.default_rng(0)])
        with pytest.raises(ValueError, match="n_envs"):
            SingleHopVectorEnv(0, config=cfg)


class TestMultiHopEquivalence:
    @pytest.mark.parametrize("full_mesh", [True, False])
    def test_step_for_step_vs_serial(self, full_mesh):
        topology = layered_topology((3, 2, 2), full_mesh=full_mesh)
        n_envs = 4
        serial = [
            MultiHopOffloadEnv(
                topology, episode_limit=5, rng=np.random.default_rng(40 + i)
            )
            for i in range(n_envs)
        ]
        vector = MultiHopVectorEnv(
            n_envs,
            topology,
            episode_limit=5,
            rngs=[np.random.default_rng(40 + i) for i in range(n_envs)],
        )

        obs_v, state_v = vector.reset()
        for i, env in enumerate(serial):
            obs_s, state_s = env.reset()
            assert np.array_equal(np.stack(obs_s), obs_v[i])
            assert np.array_equal(state_s, state_v[i])

        action_rng = np.random.default_rng(2)
        for _ in range(11):
            actions = action_rng.integers(
                0, vector.n_actions, size=(n_envs, vector.n_agents)
            )
            result = vector.step(actions)
            for i, env in enumerate(serial):
                serial_result = env.step(list(actions[i]))
                assert np.array_equal(
                    np.stack(serial_result.observations),
                    result.final_observations[i],
                )
                assert serial_result.reward == result.rewards[i]
                assert serial_result.done == bool(result.dones[i])
                assert_info_equal(serial_result.info, result.infos[i])
                if serial_result.done:
                    env.reset()

    def test_make_vector_env_dispatch(self):
        topology = layered_topology((2, 2))
        env = MultiHopOffloadEnv(
            topology, episode_limit=4, rng=np.random.default_rng(3)
        )
        vector = make_vector_env(env, 2)
        assert isinstance(vector, MultiHopVectorEnv)
        assert vector.n_agents == env.n_agents
        assert vector.episode_limit == env.episode_limit

    def test_make_vector_env_rejects_unknown(self):
        with pytest.raises(TypeError):
            make_vector_env(object(), 2)

    def test_multi_hop_trainer_vectorized(self):
        """The vector path also drives CTDE training on multi-hop envs."""
        from repro.config import TrainingConfig
        from repro.marl.critics import ClassicalCentralCritic
        from repro.marl.trainer import CTDETrainer

        topology = layered_topology((2, 2))
        env = MultiHopOffloadEnv(
            topology, episode_limit=4, rng=np.random.default_rng(6)
        )
        rng = np.random.default_rng(0)
        actors = ActorGroup(
            [
                ClassicalActor(
                    env.observation_size, env.n_actions, (4,), rng
                )
                for _ in range(env.n_agents)
            ]
        )
        critic = ClassicalCentralCritic(env.state_size, (4,), rng)
        target = ClassicalCentralCritic(
            env.state_size, (4,), np.random.default_rng(1)
        )
        config = TrainingConfig(
            episodes_per_epoch=4, actor_lr=1e-2, critic_lr=1e-2,
            rollout_envs=4,
        )
        trainer = CTDETrainer(env, actors, critic, target, config, rng)
        record = trainer.train_epoch()
        assert np.isfinite(record["total_reward"])
        assert trainer.buffer.n_episodes == 4
        assert isinstance(trainer._collector.vector_env, MultiHopVectorEnv)
        assert trainer._collector.vector_env.n_envs == 4


def classical_group(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return ActorGroup(
        [
            ClassicalActor(cfg.observation_size, cfg.n_actions, (5,), rng)
            for _ in range(cfg.n_agents)
        ]
    )


class TestJointQueueBank:
    """Each vector env keeps one QueueBank over its joint queue columns
    (``[edge | cloud]``, ``[agent | network]``) and updates it once per env
    step, through the fused step's ``QueueBank.advance``; the step-for-step
    tests above pin the values."""

    @staticmethod
    def _single_hop():
        return vector_single_hop(
            3, SingleHopConfig(episode_limit=2, initial_queue_level="uniform")
        )

    @staticmethod
    def _multi_hop():
        return MultiHopVectorEnv(
            3, layered_topology((3, 2, 2)), episode_limit=2,
            initial_queue_level="uniform",
            rngs=[np.random.default_rng(40 + i) for i in range(3)],
        )

    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_one_bank_step_per_env_step(self, monkeypatch, family):
        vector = getattr(self, f"_{family}")()
        vector.reset()
        calls = []
        advance = QueueBank.advance

        def counting(bank, raw):
            calls.append(bank.n_queues)
            return advance(bank, raw)

        monkeypatch.setattr(QueueBank, "advance", counting)
        action_rng = np.random.default_rng(5)
        for _ in range(5):  # crosses two auto-resets
            vector.step(action_rng.integers(
                0, vector.n_actions, size=(vector.n_envs, vector.n_agents)
            ))
        assert calls == [vector._queues.n_queues] * 5
        assert vector._queues.n_queues == vector.n_agents + (
            2 if family == "single_hop" else 4
        )


class TestActBatch:
    def test_greedy_agrees_with_serial_act_classical(self):
        cfg = SingleHopConfig()
        group = classical_group(cfg)
        rng = np.random.default_rng(4)
        observations = rng.uniform(size=(6, cfg.n_agents, cfg.observation_size))
        batch = group.act_batch(observations, rng, greedy=True)
        for i in range(observations.shape[0]):
            serial = group.act(list(observations[i]), rng, greedy=True)
            assert list(batch[i]) == serial

    def test_greedy_agrees_with_serial_act_quantum(self):
        cfg = SingleHopConfig(episode_limit=5)
        framework = build_framework("proposed", seed=2, env_config=cfg)
        group = framework.actors
        rng = np.random.default_rng(5)
        observations = rng.uniform(size=(4, cfg.n_agents, cfg.observation_size))
        batch = group.act_batch(observations, rng, greedy=True)
        for i in range(observations.shape[0]):
            serial = group.act(list(observations[i]), rng, greedy=True)
            assert list(batch[i]) == serial

    def test_batch_probabilities_match_per_observation(self):
        cfg = SingleHopConfig(episode_limit=5)
        framework = build_framework("proposed", seed=3, env_config=cfg)
        group = framework.actors
        rng = np.random.default_rng(6)
        observations = rng.uniform(size=(3, cfg.n_agents, cfg.observation_size))
        probs = group.batch_probabilities(observations)
        for i in range(3):
            for n, actor in enumerate(group.actors):
                expected = actor.probabilities(observations[i, n])[0]
                assert np.allclose(probs[i, n], expected, atol=1e-12)

    def test_sampling_stream_matches_serial_act(self):
        """A one-copy act_batch consumes rng exactly like serial act."""
        cfg = SingleHopConfig()
        group = classical_group(cfg)
        observations = np.random.default_rng(7).uniform(
            size=(1, cfg.n_agents, cfg.observation_size)
        )
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        batch = group.act_batch(observations, rng_a)
        serial = group.act(list(observations[0]), rng_b)
        assert list(batch[0]) == serial
        assert rng_a.random() == rng_b.random()  # identical stream position

    def test_random_actor_batch(self):
        group = ActorGroup([RandomActor(4) for _ in range(3)])
        rng = np.random.default_rng(8)
        observations = np.zeros((5, 3, 2))
        actions = group.act_batch(observations, rng)
        assert actions.shape == (5, 3)
        assert actions.min() >= 0 and actions.max() < 4
        with pytest.raises(RuntimeError, match="greedy"):
            group.act_batch(observations, rng, greedy=True)


class TestRaggedTermination:
    """Per-row data-dependent termination: serial stays ground truth."""

    def test_single_hop_ragged_step_for_step_vs_serial(self):
        cfg = SingleHopConfig(
            episode_limit=5, terminate_on_overflow=True,
            initial_queue_level=0.8,
        )
        n_envs = 4
        serial = serial_single_hop(n_envs, cfg)
        vector = vector_single_hop(n_envs, cfg)
        assert vector.has_data_dependent_termination
        vector.reset()
        [env.reset() for env in serial]

        action_rng = np.random.default_rng(5)
        done_rounds = []
        for round_index in range(3 * cfg.episode_limit):
            actions = action_rng.integers(
                0, cfg.n_actions, size=(n_envs, cfg.n_agents)
            )
            result = vector.step(actions)
            for i, env in enumerate(serial):
                serial_result = env.step(list(actions[i]))
                assert serial_result.done == bool(result.dones[i])
                assert serial_result.reward == result.rewards[i]
                assert np.array_equal(
                    np.stack(serial_result.observations),
                    result.final_observations[i],
                )
                if serial_result.done:
                    done_rounds.append(round_index)
                    obs_s, state_s = env.reset()
                    assert np.array_equal(
                        np.stack(obs_s), result.observations[i]
                    )
                    assert np.array_equal(state_s, result.states[i])
        # The preloaded queues must actually cut episodes short somewhere,
        # otherwise this test degenerates into the fixed-horizon one.
        assert len(done_rounds) > (3 * cfg.episode_limit * n_envs
                                   // cfg.episode_limit) // n_envs

    def test_single_hop_ragged_ends_before_horizon(self):
        cfg = SingleHopConfig(
            episode_limit=50, terminate_on_overflow=True,
            initial_queue_level=0.95,
        )
        env = SingleHopOffloadEnv(cfg, rng=np.random.default_rng(0))
        assert env.has_data_dependent_termination
        env.reset()
        action_rng = np.random.default_rng(1)
        steps = 0
        done = False
        while not done and steps < cfg.episode_limit:
            result = env.step(
                list(action_rng.integers(0, cfg.n_actions, cfg.n_agents))
            )
            done = result.done
            steps += 1
        assert done and steps < cfg.episode_limit

    def test_multi_hop_ragged_step_for_step_vs_serial(self):
        topology = layered_topology((3, 2, 2))
        n_envs = 3
        serial = [
            MultiHopOffloadEnv(
                topology, episode_limit=5, initial_queue_level=0.8,
                terminate_on_overflow=True,
                rng=np.random.default_rng(60 + i),
            )
            for i in range(n_envs)
        ]
        vector = MultiHopVectorEnv(
            n_envs, topology, episode_limit=5, initial_queue_level=0.8,
            terminate_on_overflow=True,
            rngs=[np.random.default_rng(60 + i) for i in range(n_envs)],
        )
        assert vector.has_data_dependent_termination
        vector.reset()
        [env.reset() for env in serial]
        action_rng = np.random.default_rng(7)
        early = 0
        for _ in range(12):
            actions = action_rng.integers(
                0, vector.n_actions, size=(n_envs, vector.n_agents)
            )
            result = vector.step(actions)
            for i, env in enumerate(serial):
                serial_result = env.step(list(actions[i]))
                assert serial_result.done == bool(result.dones[i])
                assert serial_result.reward == result.rewards[i]
                if serial_result.done:
                    if env._t < env.episode_limit:
                        early += 1
                    env.reset()
        assert early > 0  # raggedness actually exercised

    def test_fixed_envs_unaffected_by_hook(self):
        """terminate_on_overflow off => flag off and horizon-only dones."""
        cfg = SingleHopConfig(episode_limit=2, initial_queue_level=0.95)
        env = SingleHopOffloadEnv(cfg, rng=np.random.default_rng(0))
        assert not env.has_data_dependent_termination
        vector = vector_single_hop(2, cfg)
        assert not vector.has_data_dependent_termination
        vector.reset()
        actions = np.zeros((2, cfg.n_agents), dtype=np.int64)
        assert not vector.step(actions).dones.any()
        assert vector.step(actions).dones.all()

    def test_make_vector_env_propagates_ragged_flags(self):
        cfg = SingleHopConfig(episode_limit=5, terminate_on_overflow=True)
        env = SingleHopOffloadEnv(cfg, rng=np.random.default_rng(3))
        assert make_vector_env(env, 2).has_data_dependent_termination
        topology = layered_topology((2, 2))
        env = MultiHopOffloadEnv(
            topology, episode_limit=5, terminate_on_overflow=True,
            rng=np.random.default_rng(3),
        )
        assert make_vector_env(env, 2).has_data_dependent_termination


class TestInfoSnapshot:
    """The lazy ``infos`` must reflect the step they came from, not the
    env's state at read time (regression: stale-builder hazard)."""

    def test_infos_read_after_later_steps(self):
        cfg = SingleHopConfig(episode_limit=2)
        n_envs = 3
        serial = serial_single_hop(n_envs, cfg)
        vector = vector_single_hop(n_envs, cfg)
        vector.reset()
        [env.reset() for env in serial]
        action_rng = np.random.default_rng(2)

        results, serial_infos = [], []
        # Two steps: the second crosses the horizon, so reading the first
        # result afterwards also spans an auto-reset.
        for _ in range(2):
            actions = action_rng.integers(
                0, cfg.n_actions, size=(n_envs, cfg.n_agents)
            )
            results.append(vector.step(actions))
            step_infos = []
            for i, env in enumerate(serial):
                serial_result = env.step(list(actions[i]))
                step_infos.append(serial_result.info)
                if serial_result.done:
                    env.reset()
            serial_infos.append(step_infos)

        # Only now materialise the infos — in reverse, for good measure.
        for result, step_infos in zip(reversed(results),
                                      reversed(serial_infos)):
            for i in range(n_envs):
                assert_info_equal(step_infos[i], result.infos[i])


class _LiveViewEnv(VectorEnv):
    """Minimal vector env whose observation hook returns a *live* view into
    a persistent buffer — the aliasing hazard ``step`` must guard against."""

    n_agents = 1
    n_actions = 2
    observation_size = 1
    state_size = 1
    episode_limit = 2

    def __init__(self, n_envs):
        super().__init__(
            n_envs,
            rngs=[np.random.default_rng(i) for i in range(n_envs)],
        )
        self._buffer = np.zeros((n_envs, self.n_agents,
                                 self.observation_size))

    def _reset_rows(self, rows):
        self._buffer[rows] = 0.0

    def _apply_actions(self, actions):
        self._buffer += 1.0
        zeros = np.zeros(self.n_envs)
        return (
            zeros,
            (zeros, zeros, zeros),
            lambda: [{} for _ in range(self.n_envs)],
        )

    def _observations(self):
        return self._buffer


class TestTerminalViewAliasing:
    """Auto-reset must not clobber the terminal views (regression)."""

    def test_final_views_survive_auto_reset(self):
        env = _LiveViewEnv(3)
        env.reset()
        actions = np.zeros((3, 1), dtype=np.int64)
        env.step(actions)
        result = env.step(actions)  # hits the horizon -> auto-reset
        assert result.dones.all()
        # The live buffer was zeroed by the reset, but the terminal views
        # must still hold the pre-reset values.
        assert np.all(result.final_observations == 2.0)
        assert np.all(result.final_states == 2.0)
        assert np.all(result.observations == 0.0)
        assert np.all(result.states == 0.0)

    def test_non_terminal_views_stay_zero_copy(self):
        env = _LiveViewEnv(2)
        env.reset()
        actions = np.zeros((2, 1), dtype=np.int64)
        result = env.step(actions)  # no row done -> no defensive copy
        assert not result.dones.any()
        assert result.final_observations is result.observations


class TestSurplusDiscard:
    """collect()'s (step, copy) completion order is a prefix contract:
    a smaller quota returns exactly the head of a larger one."""

    @staticmethod
    def _collect(cfg, quota, n_envs=4, seed=17):
        from repro.marl.rollout import VectorRolloutCollector

        env = SingleHopOffloadEnv(cfg, rng=np.random.default_rng(seed))
        vector = make_vector_env(env, n_envs)
        actors = classical_group(cfg, seed=seed + 1)
        collector = VectorRolloutCollector(vector, actors)
        return collector.collect(quota, np.random.default_rng(seed + 2))

    def _assert_prefix(self, cfg):
        episodes_small, stats_small = self._collect(cfg, 3)
        episodes_large, stats_large = self._collect(cfg, 9)
        assert len(episodes_small) == 3 and len(episodes_large) == 9
        for small, large in zip(episodes_small, episodes_large):
            for column in ("states", "observations", "actions", "rewards",
                           "next_states", "next_observations", "dones"):
                assert np.array_equal(
                    getattr(small, column), getattr(large, column)
                ), column
        assert stats_small == stats_large[:3]
        return stats_large

    def test_fixed_env_prefix(self):
        cfg = SingleHopConfig(episode_limit=3)
        stats = self._assert_prefix(cfg)
        assert {s["length"] for s in stats} == {3}

    def test_ragged_env_prefix(self):
        cfg = SingleHopConfig(
            episode_limit=5, terminate_on_overflow=True,
            initial_queue_level=0.8,
        )
        stats = self._assert_prefix(cfg)
        assert len({s["length"] for s in stats}) > 1  # genuinely ragged


def _multi_hop_pair(n_envs, level, limit, seed=70, **kwargs):
    """Serial multi-hop envs and the vector env over the same streams."""
    topology = layered_topology((3, 2, 2))
    serial = [
        MultiHopOffloadEnv(
            topology, episode_limit=limit, initial_queue_level=level,
            rng=np.random.default_rng(seed + i), **kwargs,
        )
        for i in range(n_envs)
    ]
    vector = MultiHopVectorEnv(
        n_envs, topology, episode_limit=limit, initial_queue_level=level,
        rngs=[np.random.default_rng(seed + i) for i in range(n_envs)],
        **kwargs,
    )
    return serial, vector


_PROCESSES = {
    "uniform": None,
    "bernoulli": BernoulliBurstArrivals(0.4, 0.25),
    "poisson": TruncatedPoissonArrivals(1.5, 0.1, 0.35),
}


def _single_hop_pair(n_envs, level, limit, process="uniform", **kwargs):
    cfg = SingleHopConfig(
        episode_limit=limit, initial_queue_level=level, **kwargs
    )
    arrivals = _PROCESSES[process]
    serial = [
        SingleHopOffloadEnv(cfg, rng=np.random.default_rng(100 + i),
                            arrivals=arrivals)
        for i in range(n_envs)
    ]
    return serial, vector_single_hop(n_envs, cfg, arrivals=arrivals)


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def _lockstep(serial, vector, n_steps, seed=4, on_step=None):
    """Step both sides with the same random actions, asserting equal
    transitions; returns the serial envs' generator states taken at each
    episode boundary, next to the vector rows' at the same moment."""
    action_rng = np.random.default_rng(seed)
    boundaries = []
    for _ in range(n_steps):
        actions = action_rng.integers(
            0, vector.n_actions, size=(vector.n_envs, vector.n_agents)
        )
        result = vector.step(actions)
        for i, env in enumerate(serial):
            serial_result = env.step(list(actions[i]))
            assert np.array_equal(
                np.stack(serial_result.observations),
                result.final_observations[i],
            )
            assert serial_result.reward == result.rewards[i]
            assert serial_result.done == bool(result.dones[i])
            if serial_result.done:
                obs_s, _ = env.reset()
                assert np.array_equal(np.stack(obs_s), result.observations[i])
        if on_step is not None:
            on_step(result)
        if result.dones.any():
            rows = np.flatnonzero(result.dones)
            boundaries.append((
                [serial[i].rng.bit_generator.state for i in rows],
                [vector.rngs[i].bit_generator.state for i in rows],
            ))
    return boundaries


class TestArrivalBlocks:
    """Fixed-length vector envs draw each row's arrivals in blocks of up to
    64 steps; the doubles are the serial env's, and at every episode
    boundary each row's generator sits exactly where its serial env's
    does (a block drawn at a reset, or across an episode's end, would not).
    """

    @pytest.mark.parametrize("limit", [5, 64, 150])
    @pytest.mark.parametrize("n_envs", [1, 5])
    @pytest.mark.parametrize("level", [0.5, "uniform"])
    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_generators_meet_serial_at_every_boundary(
            self, family, level, n_envs, limit):
        pair = _single_hop_pair if family == "single_hop" else _multi_hop_pair
        serial, vector = pair(n_envs, level, limit)
        obs_v, _ = vector.reset()
        for i, env in enumerate(serial):
            assert np.array_equal(np.stack(env.reset()[0]), obs_v[i])
        assert _states(vector.rngs) == [env.rng.bit_generator.state
                                        for env in serial]
        # Two whole episodes, then a few steps into the third.
        boundaries = _lockstep(serial, vector, 2 * limit + 3)
        assert len(boundaries) == 2
        for serial_states, vector_states in boundaries:
            assert serial_states == vector_states

    @pytest.mark.parametrize("limit", [5, 64, 150])
    @pytest.mark.parametrize("process", ["uniform", "bernoulli", "poisson"])
    def test_arrival_processes(self, process, limit):
        serial, vector = _single_hop_pair(3, "uniform", limit, process)
        vector.reset()
        [env.reset() for env in serial]
        boundaries = _lockstep(serial, vector, 2 * limit)
        assert len(boundaries) == 2
        for serial_states, vector_states in boundaries:
            assert serial_states == vector_states

    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_row_zero_carries_the_serial_env_stream(self, family):
        """make_vector_env's row 0 is the serial env's own generator: after
        each episode ``env.rng`` stands where a reference serial env's does,
        and the spawned rows where their spawned references do."""
        limit, n_envs, seed = 70, 4, 9
        if family == "single_hop":
            cfg = SingleHopConfig(episode_limit=limit,
                                  initial_queue_level="uniform")

            def make(rng):
                return SingleHopOffloadEnv(cfg, rng=rng)
        else:
            topology = layered_topology((3, 2, 2))

            def make(rng):
                return MultiHopOffloadEnv(
                    topology, episode_limit=limit,
                    initial_queue_level="uniform", rng=rng,
                )
        source = make(np.random.default_rng(seed))
        vector = make_vector_env(source, n_envs)
        reference_rng = np.random.default_rng(seed)
        serial = [make(reference_rng)] + [
            make(rng) for rng in reference_rng.spawn(n_envs - 1)
        ]
        vector.reset()
        [env.reset() for env in serial]
        boundaries = _lockstep(serial, vector, 2 * limit)
        assert [vector_states for _, vector_states in boundaries] == [
            serial_states for serial_states, _ in boundaries
        ]
        assert (source.rng.bit_generator.state
                == serial[0].rng.bit_generator.state)

    def test_ragged_rows_draw_step_by_step(self):
        """A ragged env cannot know where an episode ends, so its rows draw
        one step at a time: their generators match the serial envs' after
        every step, not only at boundaries."""
        serial, vector = _single_hop_pair(
            4, 0.8, 80, terminate_on_overflow=True
        )
        vector.reset()
        [env.reset() for env in serial]

        def same_position(_result):
            assert _states(vector.rngs) == [env.rng.bit_generator.state
                                            for env in serial]

        boundaries = _lockstep(serial, vector, 40, on_step=same_position)
        assert boundaries  # overflow cut some episodes short

    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_reset_mid_block_rewinds_to_the_serial_position(self, family):
        """A reset before an episode's end discards the rest of the block:
        the row's generator goes back to where the serial env's stands."""
        pair = _single_hop_pair if family == "single_hop" else _multi_hop_pair
        serial, vector = pair(3, "uniform", 100)
        vector.reset()
        [env.reset() for env in serial]
        _lockstep(serial, vector, 70)  # a block drawn at step 64, 6 used
        vector.reset_rows([1])
        serial[1].reset()
        assert _states(vector.rngs)[1] == serial[1].rng.bit_generator.state
        obs_v, _ = vector.reset()
        for i, env in enumerate(serial):
            assert np.array_equal(np.stack(env.reset()[0]), obs_v[i])
        assert _states(vector.rngs) == [env.rng.bit_generator.state
                                        for env in serial]
        _lockstep(serial, vector, 30)

    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_rows_out_of_step_after_a_partial_reset(self, family):
        """A partial reset parts the rows: each then draws its blocks at
        its own steps and still meets its serial env at every boundary,
        until a reset of every row brings them back in step."""
        pair = _single_hop_pair if family == "single_hop" else _multi_hop_pair
        serial, vector = pair(3, "uniform", 70)
        vector.reset()
        [env.reset() for env in serial]
        _lockstep(serial, vector, 30)
        vector.reset_rows([1])
        serial[1].reset()
        assert not vector._aligned
        # Rows 0 and 2 end after 40 and 110 more steps, row 1 after 70
        # and 140: four boundaries, with the rows never in step.
        boundaries = _lockstep(serial, vector, 150)
        assert len(boundaries) == 4
        for serial_states, vector_states in boundaries:
            assert serial_states == vector_states
        assert not vector._aligned
        obs_v, _ = vector.reset()
        for i, env in enumerate(serial):
            assert np.array_equal(np.stack(env.reset()[0]), obs_v[i])
        assert vector._aligned
        assert len(_lockstep(serial, vector, 70)) == 1

    def test_pickle_carries_only_a_live_block(self):
        serial, vector = _single_hop_pair(2, 0.5, 10)
        vector.reset()
        [env.reset() for env in serial]
        _lockstep(serial, vector, 3)
        resumed = pickle.loads(pickle.dumps(vector))
        assert resumed._arrival_block is not None
        actions = np.zeros((2, vector.n_agents), dtype=np.int64)
        for _ in range(7):  # to the episode's end
            a, b = vector.step(actions), resumed.step(actions)
            assert np.array_equal(a.rewards, b.rewards)
            assert np.array_equal(a.observations, b.observations)
        assert a.dones.all()
        assert pickle.loads(pickle.dumps(vector))._arrival_block is None


class TestActionDtype:
    """The vector envs take integer action indices only, as the serial
    envs' ``Discrete.contains`` does: a float is rejected, not truncated
    (``1.7`` used to step as action 1, NaN after a cast warning)."""

    @staticmethod
    def _vector(family):
        if family == "single_hop":
            return vector_single_hop(2, SingleHopConfig(episode_limit=3))
        return _multi_hop_pair(2, 0.5, 3)[1]

    @pytest.mark.parametrize("bad", [1.7, 1.0, np.nan])
    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_float_actions_raise(self, family, bad):
        vector = self._vector(family)
        vector.reset()
        actions = np.zeros((2, vector.n_agents))
        actions[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integer indices"):
                vector.step(actions)
            with pytest.raises(ValueError, match="integer indices"):
                vector.step(actions.tolist())

    @pytest.mark.parametrize("family", ["single_hop", "multi_hop"])
    def test_bool_and_unsigned_actions_step(self, family):
        vector = self._vector(family)
        vector.reset()
        reference = self._vector(family)
        reference.reset()
        ones = np.ones((2, vector.n_agents), dtype=np.int64)
        flags = vector.step(ones.astype(bool))
        assert np.array_equal(flags.rewards, reference.step(ones).rewards)
        unsigned = vector.step(ones.astype(np.uint8))
        assert np.array_equal(unsigned.rewards, reference.step(ones).rewards)
        with pytest.raises(ValueError, match="action indices"):
            vector.step(np.full((2, vector.n_agents), -1))
