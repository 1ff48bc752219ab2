"""Unit tests for the multi-hop offloading extension."""

import networkx as nx
import numpy as np
import pytest

from repro.envs.multi_hop import MultiHopOffloadEnv, layered_topology


class TestLayeredTopology:
    def test_full_mesh_edge_count(self):
        graph = layered_topology((4, 3, 2))
        assert graph.number_of_nodes() == 9
        assert graph.number_of_edges() == 4 * 3 + 3 * 2

    def test_thin_chain(self):
        graph = layered_topology((4, 2), full_mesh=False)
        assert graph.number_of_edges() == 4
        assert set(graph.successors("L0/0")) == {"L1/0"}
        assert set(graph.successors("L0/1")) == {"L1/1"}

    def test_layer_attributes(self):
        graph = layered_topology((2, 2))
        layers = nx.get_node_attributes(graph, "layer")
        assert layers["L0/0"] == 0
        assert layers["L1/1"] == 1

    def test_is_dag(self):
        assert nx.is_directed_acyclic_graph(layered_topology((3, 2, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            layered_topology((4,))
        with pytest.raises(ValueError):
            layered_topology((4, 0))


def make_env(layer_sizes=(4, 2), seed=0, **kwargs):
    return MultiHopOffloadEnv(
        layered_topology(layer_sizes),
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestSingleHopSpecialCase:
    """With layers (N, K) the multi-hop env reduces to the paper's setting."""

    def test_spaces_match_single_hop(self):
        env = make_env((4, 2))
        assert env.n_agents == 4
        assert env.action_space.n == 4  # 2 successors x 2 amounts
        assert env.observation_space.size == 4
        assert env.state_size == 16

    def test_reward_nonpositive(self):
        env = make_env((4, 2))
        rng = np.random.default_rng(1)
        env.reset()
        for _ in range(30):
            result = env.step([env.action_space.sample(rng) for _ in range(4)])
            assert result.reward <= 0.0
            if result.done:
                env.reset()


class TestThreeLayer:
    def test_relay_topology_runs(self):
        env = make_env((4, 3, 2), episode_limit=10)
        observations, state = env.reset()
        assert len(observations) == 4
        assert observations[0].shape == (2 + 3,)  # own x2 + 3 relays
        done = False
        rng = np.random.default_rng(2)
        steps = 0
        while not done:
            result = env.step(
                [env.action_space.sample(rng) for _ in range(4)]
            )
            done = result.done
            steps += 1
        assert steps == 10

    def test_queue_levels_bounded(self):
        env = make_env((3, 2, 2), episode_limit=40)
        rng = np.random.default_rng(3)
        env.reset()
        for _ in range(40):
            result = env.step([env.action_space.sample(rng) for _ in range(3)])
            assert np.all(result.info["agent_levels"] >= 0)
            assert np.all(result.info["agent_levels"] <= 1.0)
            assert np.all(result.info["network_levels"] >= 0)
            assert np.all(result.info["network_levels"] <= 1.0)

    def test_relays_forward_packets(self):
        """With no agent traffic, relays still drain into sinks."""
        env = make_env((2, 2, 1), episode_limit=5, w_p=0.0)
        env.reset()
        sink_before = env._network_queues.levels[env._network_index["L2/0"]]
        # Send minimal packets to relay 0 only.
        result = env.step([0, 0])
        # The sink received forwarded volume from both relays (0.3 each),
        # minus its own service 0.3: net +0.3 from 0.5 -> 0.8.
        sink_after = result.info["network_levels"][env._network_index["L2/0"]]
        assert sink_after == pytest.approx(sink_before + 0.3)

    def test_state_is_concatenation(self):
        env = make_env((3, 2, 2))
        observations, state = env.reset()
        assert np.allclose(state, np.concatenate(observations))


class TestValidation:
    def test_rejects_cycle(self):
        graph = layered_topology((2, 2))
        graph.add_edge("L1/0", "L0/0")
        with pytest.raises(ValueError, match="DAG"):
            MultiHopOffloadEnv(graph)

    def test_rejects_missing_layers(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b")
        with pytest.raises(ValueError, match="layer"):
            MultiHopOffloadEnv(graph)

    def test_rejects_mixed_out_degree(self):
        graph = layered_topology((2, 2))
        graph.remove_edge("L0/0", "L1/1")
        with pytest.raises(ValueError, match="out-degree"):
            MultiHopOffloadEnv(graph)

    def test_rejects_isolated_agent(self):
        graph = layered_topology((2, 2))
        graph.remove_edge("L0/0", "L1/0")
        graph.remove_edge("L0/0", "L1/1")
        with pytest.raises(ValueError):
            MultiHopOffloadEnv(graph)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("packet_amounts", (np.nan, 0.2)),
            ("packet_amounts", (0.1, -0.2)),
            ("packet_amounts", (0.1, np.inf)),
            ("service_rate", np.nan),
            ("service_rate", np.inf),
            ("service_rate", -0.3),
            ("w_r", np.nan),
            ("w_r", np.inf),
            ("w_r", -4.0),
            ("queue_capacity", np.nan),
            ("queue_capacity", np.inf),
            ("queue_capacity", 0.0),
        ],
    )
    def test_bad_quantities_raise_at_construction(self, field, value):
        """A NaN service rate used to score -0.0 rewards, a NaN w_r NaN
        rewards, and a negative rate or amount raised only at the first
        step; each now fails at construction, naming its field."""
        with pytest.raises(ValueError, match=field):
            MultiHopOffloadEnv(layered_topology((2, 2)), **{field: value})

    def test_zero_quantities_stay_legal(self):
        env = MultiHopOffloadEnv(
            layered_topology((2, 2)), packet_amounts=(0.0, 0.2),
            service_rate=0.0, w_r=0.0,
        )
        env.reset()
        assert env.step([0, 1]).reward <= 0.0

    def test_action_validation(self):
        env = make_env((2, 2))
        env.reset()
        with pytest.raises(ValueError):
            env.step([0])
        with pytest.raises(ValueError):
            env.step([0, 99])

    def test_repr(self):
        assert "layers=4-2" in repr(make_env((4, 2)))


class TestTrainingIntegration:
    def test_quantum_actors_train_on_multi_hop(self):
        """The CTDE stack is environment-agnostic: train on a 3-layer net."""
        from repro.config import TrainingConfig
        from repro.marl.actors import QuantumActor, QuantumActorGroup
        from repro.marl.critics import QuantumCentralCritic
        from repro.marl.trainer import CTDETrainer
        from repro.quantum.vqc import build_vqc

        env = make_env((2, 2, 2), episode_limit=6)
        rng = np.random.default_rng(5)
        actor_vqc = build_vqc(
            4, env.observation_space.size, 12, seed=1
        )
        actors = QuantumActorGroup(
            [
                QuantumActor(actor_vqc, np.random.default_rng(i))
                for i in range(env.n_agents)
            ]
        )
        critic_vqc = build_vqc(4, env.state_size, 12, seed=2)
        critic = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(8), value_scale=10.0
        )
        target = QuantumCentralCritic(
            critic_vqc, np.random.default_rng(9), value_scale=10.0
        )
        trainer = CTDETrainer(
            env,
            actors,
            critic,
            target,
            TrainingConfig(episodes_per_epoch=1, actor_lr=1e-3, critic_lr=1e-3),
            rng,
        )
        record = trainer.train_epoch()
        assert np.isfinite(record["critic_loss"])
        assert np.isfinite(record["actor_loss"])


class TestOverflowTermination:
    def test_overflow_ends_episode_early(self):
        # A heavily preloaded narrow sink layer overflows well before a
        # generous horizon under random traffic.
        env = make_env(
            (3, 2, 1), seed=5, episode_limit=50,
            initial_queue_level=0.95, terminate_on_overflow=True,
        )
        assert env.has_data_dependent_termination
        env.reset()
        rng = np.random.default_rng(6)
        steps = 0
        done = False
        while not done:
            result = env.step(
                [env.action_space.sample(rng) for _ in range(3)]
            )
            done = result.done
            steps += 1
            assert steps <= 50
        assert steps < 50
        assert result.info["overflow_ratio"] > 0.0

    def test_flag_off_keeps_fixed_horizon(self):
        env = make_env((3, 2, 1), seed=5, episode_limit=6,
                       initial_queue_level=0.95)
        assert not env.has_data_dependent_termination
        env.reset()
        rng = np.random.default_rng(6)
        for step in range(1, 7):
            result = env.step(
                [env.action_space.sample(rng) for _ in range(3)]
            )
            assert result.done == (step == 6)


class TestMalformedTopologies:
    """Each topology below used to fail late or run wrong: a successor
    without a layer and an agent-to-agent edge constructed and then
    failed ``reset()`` with a ``KeyError``, a 1.5 layer raised a
    ``TypeError`` and a sink-to-relay edge made a sink forward traffic.
    Each now fails at construction with a ``ValueError`` naming the node
    or the edge."""

    def test_rejects_successor_without_layer(self):
        graph = layered_topology((2, 2), full_mesh=False)
        graph.remove_edge("L0/1", "L1/1")
        graph.add_edge("L0/1", "orphan")
        with pytest.raises(ValueError, match="node 'orphan' has none"):
            MultiHopOffloadEnv(graph)

    def test_rejects_agent_to_agent_edge(self):
        graph = layered_topology((2, 2), full_mesh=False)
        graph.remove_edge("L0/0", "L1/0")
        graph.add_edge("L0/0", "L0/1")
        with pytest.raises(ValueError, match="'L0/0' -> 'L0/1'"):
            MultiHopOffloadEnv(graph)

    def test_rejects_non_integer_layer(self):
        graph = layered_topology((2, 2))
        graph.nodes["L1/0"]["layer"] = 1.5
        with pytest.raises(ValueError, match="layer of node 'L1/0'"):
            MultiHopOffloadEnv(graph)

    def test_rejects_edge_into_shallower_layer(self):
        graph = layered_topology((2, 2, 2), full_mesh=False)
        graph.add_edge("L2/0", "L1/1")  # a sink feeding a relay
        with pytest.raises(ValueError, match="'L2/0' -> 'L1/1'"):
            MultiHopOffloadEnv(graph)

    def test_accepts_numpy_integer_layers(self):
        graph = layered_topology((2, 2))
        for node, layer in graph.nodes(data="layer"):
            graph.nodes[node]["layer"] = np.int64(layer)
        assert MultiHopOffloadEnv(graph).n_layers == 2


class TestEpisodeLimitValidation:
    @pytest.mark.parametrize("limit", [0, -3, 2.7, True])
    def test_rejects_limits_that_are_not_integers_from_one(self, limit):
        """0 used to construct and fail in the vector collector, -3 to
        raise "negative dimensions", 2.7 to truncate to 2 silently."""
        with pytest.raises(ValueError, match="episode_limit"):
            MultiHopOffloadEnv(layered_topology((2, 2)), episode_limit=limit)

    def test_accepts_numpy_integer(self):
        env = MultiHopOffloadEnv(
            layered_topology((2, 2)), episode_limit=np.int64(3)
        )
        assert env.episode_limit == 3
