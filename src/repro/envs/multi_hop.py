"""Multi-hop offloading: the natural extension of the paper's environment.

The paper evaluates a *single-hop* topology (edges -> clouds) and motivates
the setting with general edge computing.  This module generalises the queue
network to an arbitrary layered DAG — e.g. edges -> relays -> clouds —
while preserving the paper's mechanics exactly in the single-hop special
case:

- every node owns a clipped queue ``q_{t+1} = clip(q - u + b, 0, q_max)``;
- *agent* nodes (the first layer) pick ``(next-hop, packet amount)``
  actions from their learned policies;
- *relay* nodes forward a fixed service volume along their out-edges
  (split equally);
- *sink* nodes (clouds) transmit a fixed volume out of the network, and
  contribute the Eq. (1)-style underflow/overflow penalties;
- the team reward is the sum of penalty terms over every non-agent queue
  (for the single-hop topology this reduces to the paper's reward).

Topologies are ``networkx.DiGraph`` objects; :func:`layered_topology`
builds the standard layered graphs.  networkx loads on the first topology
build (or env construction), not when :mod:`repro` is imported, so
single-hop processes never pay for it.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_env_quantity, check_integer
from repro.envs.arrivals import UniformArrivals
from repro.envs.base import Discrete, FeatureSpace, MultiAgentEnv, StepResult
from repro.envs.queues import QueueBank

__all__ = ["layered_topology", "MultiHopOffloadEnv"]


def layered_topology(layer_sizes, full_mesh=True):
    """A layered DAG: ``layer_sizes = (n_agents, n_relays, ..., n_sinks)``.

    Nodes are named ``"L{layer}/{index}"``.  With ``full_mesh`` every node
    connects to every node of the next layer; otherwise node ``i`` connects
    to node ``i % next_size`` (a thin chain).
    """
    import networkx as nx

    if len(layer_sizes) < 2:
        raise ValueError("need at least an agent layer and a sink layer")
    if any(s < 1 for s in layer_sizes):
        raise ValueError("every layer needs at least one node")
    graph = nx.DiGraph()
    for layer, size in enumerate(layer_sizes):
        for i in range(size):
            graph.add_node(f"L{layer}/{i}", layer=layer)
    for layer in range(len(layer_sizes) - 1):
        for i in range(layer_sizes[layer]):
            if full_mesh:
                targets = range(layer_sizes[layer + 1])
            else:
                targets = [i % layer_sizes[layer + 1]]
            for j in targets:
                graph.add_edge(f"L{layer}/{i}", f"L{layer + 1}/{j}")
    return graph


class MultiHopOffloadEnv(MultiAgentEnv):
    """Cooperative offloading over a layered queue network.

    Args:
        topology: A layered DAG from :func:`layered_topology` (or any
            DiGraph whose nodes all carry an integer ``layer`` attribute
            ``>= 0``, where layer 0 nodes are the agents and the deepest
            layer the sinks, and every edge leads to a deeper layer).
        packet_amounts: The agents' packet-amount space ``P``.
        w_p: Edge arrival parameter (arrivals ~ ``U(0, w_p * q_max)``).
        w_r: Overflow penalty weight (Eq. 1).
        service_rate: Outflow volume per step for relays and sinks.
        queue_capacity: ``q_max`` shared by every node.
        episode_limit: Steps per episode, an integer ``>= 1`` (a hard cap
            when ``terminate_on_overflow`` is set).
        initial_queue_level: Starting level (fraction of capacity).
        rng: Arrival generator.
        terminate_on_overflow: End the episode the moment any non-agent
            (relay or sink) queue overflows, making episode length
            data-dependent instead of fixed at ``episode_limit``.

    Observations: each agent sees its own queue level (now and previous)
    plus the queue levels of its direct successors — the multi-hop
    analogue of Table I's observation.
    """

    def __init__(
        self,
        topology,
        packet_amounts=(0.1, 0.2),
        w_p=0.3,
        w_r=4.0,
        service_rate=0.3,
        queue_capacity=1.0,
        episode_limit=50,
        initial_queue_level=0.5,
        rng=None,
        terminate_on_overflow=False,
    ):
        import networkx as nx

        if not nx.is_directed_acyclic_graph(topology):
            raise ValueError("topology must be a DAG")
        self.topology = topology
        layers = dict(topology.nodes(data="layer"))
        if not layers:
            raise ValueError("topology has no nodes")
        for node, layer in layers.items():
            if layer is None:
                raise ValueError(
                    f"topology nodes need a 'layer' attribute; node {node!r} "
                    "has none"
                )
            check_integer(f"layer of node {node!r}", layer, 0)
        # Traffic flows strictly deeper: an edge within a layer or back
        # towards the agents would make an agent feed an agent, or a sink
        # forward what it should transmit out of the network.
        for source, target in topology.edges:
            if layers[target] <= layers[source]:
                raise ValueError(
                    f"edge {source!r} -> {target!r} runs from layer "
                    f"{layers[source]} to layer {layers[target]}; every edge "
                    "must lead to a deeper layer"
                )
        self.n_layers = max(layers.values()) + 1
        if self.n_layers < 2:
            raise ValueError("need at least two layers")

        self._nodes_by_layer = [
            sorted(n for n, l in layers.items() if l == layer)
            for layer in range(self.n_layers)
        ]
        self.agent_nodes = self._nodes_by_layer[0]
        self.sink_nodes = self._nodes_by_layer[-1]
        self._non_agent_nodes = [
            node
            for layer_nodes in self._nodes_by_layer[1:]
            for node in layer_nodes
        ]
        self._successors = {
            node: sorted(topology.successors(node)) for node in topology.nodes
        }
        for node in self.agent_nodes:
            if not self._successors[node]:
                raise ValueError(f"agent node {node} has no successors")
        out_degrees = {len(self._successors[n]) for n in self.agent_nodes}
        if len(out_degrees) != 1:
            raise ValueError(
                "all agents must share one out-degree so they share an "
                f"action space; got degrees {sorted(out_degrees)}"
            )
        self._agent_out_degree = out_degrees.pop()

        self.packet_amounts = tuple(float(p) for p in packet_amounts)
        self.w_p = float(w_p)
        self.w_r = float(w_r)
        self.service_rate = float(service_rate)
        self.queue_capacity = float(queue_capacity)
        for amount in self.packet_amounts:
            check_env_quantity("packet_amounts", amount)
        check_env_quantity("service_rate", self.service_rate)
        check_env_quantity("w_r", self.w_r)
        check_env_quantity("queue_capacity", self.queue_capacity, positive=True)
        check_integer("episode_limit", episode_limit, 1)
        self.episode_limit = int(episode_limit)
        self.terminate_on_overflow = bool(terminate_on_overflow)
        self.has_data_dependent_termination = self.terminate_on_overflow
        self.rng = rng if rng is not None else np.random.default_rng()
        self.arrivals = UniformArrivals(self.w_p, self.queue_capacity)

        self.n_agents = len(self.agent_nodes)
        self.action_space = Discrete(
            self._agent_out_degree * len(self.packet_amounts)
        )
        obs_size = 2 + self._agent_out_degree
        self.observation_space = FeatureSpace(0.0, self.queue_capacity, obs_size)
        self.state_size = self.n_agents * obs_size

        self._agent_queues = QueueBank(
            self.n_agents, self.queue_capacity, initial_queue_level
        )
        self._network_queues = QueueBank(
            len(self._non_agent_nodes), self.queue_capacity, initial_queue_level
        )
        self._network_index = {
            node: i for i, node in enumerate(self._non_agent_nodes)
        }
        self._prev_agent_levels = None
        self._t = 0

    # -- action coding --------------------------------------------------------

    def decode_action(self, action):
        """Map an action index to ``(successor_index, packet_amount)``."""
        if not self.action_space.contains(action):
            raise ValueError(f"invalid action {action!r}")
        action = int(action)
        n_amounts = len(self.packet_amounts)
        return action // n_amounts, self.packet_amounts[action % n_amounts]

    # -- observations -----------------------------------------------------------

    def _observations(self):
        q_max = self.queue_capacity
        network = self._network_queues.levels
        observations = []
        for i, node in enumerate(self.agent_nodes):
            successor_levels = [
                network[self._network_index[s]] / q_max
                for s in self._successors[node]
            ]
            observations.append(
                np.concatenate(
                    (
                        [
                            self._agent_queues.levels[i] / q_max,
                            self._prev_agent_levels[i] / q_max,
                        ],
                        successor_levels,
                    )
                )
            )
        return observations

    def _state(self, observations):
        return np.concatenate(observations)

    # -- dynamics -----------------------------------------------------------------

    def reset(self):
        """Start a new episode; returns ``(observations, state)``."""
        self._t = 0
        self._agent_queues.reset(self.rng)
        self._network_queues.reset(self.rng)
        self._prev_agent_levels = self._agent_queues.levels.copy()
        observations = self._observations()
        return observations, self._state(observations)

    def step(self, actions):
        """Advance one step given one action index per agent."""
        self.validate_actions(actions)

        inflow = np.zeros(len(self._non_agent_nodes))
        scheduled = np.empty(self.n_agents)
        for i, (node, action) in enumerate(zip(self.agent_nodes, actions)):
            successor_index, amount = self.decode_action(action)
            target = self._successors[node][successor_index]
            inflow[self._network_index[target]] += amount
            scheduled[i] = amount

        # Relays forward their service volume split over out-edges; sinks
        # transmit it out of the network.
        outflow = np.full(len(self._non_agent_nodes), self.service_rate)
        for node in self._non_agent_nodes:
            forwarded = self.service_rate
            successors = self._successors[node]
            if successors:
                per_edge = forwarded / len(successors)
                for target in successors:
                    inflow[self._network_index[target]] += per_edge

        prev_agent_levels = self._agent_queues.levels.copy()
        network_update = self._network_queues.step(outflow=outflow, inflow=inflow)
        agent_update = self._agent_queues.step(
            outflow=scheduled,
            inflow=self.arrivals.sample(self.rng, self.n_agents),
        )
        self._prev_agent_levels = prev_agent_levels

        empty_penalty = np.where(
            network_update.empty, network_update.q_tilde, 0.0
        )
        overflow_penalty = np.where(
            network_update.overflow, network_update.q_hat * self.w_r, 0.0
        )
        reward = -float(np.sum(empty_penalty + overflow_penalty))

        self._t += 1
        done = self._t >= self.episode_limit
        if self.terminate_on_overflow and bool(network_update.overflow.any()):
            done = True
        observations = self._observations()

        all_levels = np.concatenate(
            [agent_update.levels, network_update.levels]
        )
        n_slots = all_levels.size
        info = {
            "t": self._t,
            "agent_levels": agent_update.levels.copy(),
            "network_levels": network_update.levels.copy(),
            "mean_queue": float(all_levels.mean()),
            "empty_ratio": float(
                (agent_update.empty.sum() + network_update.empty.sum()) / n_slots
            ),
            "overflow_ratio": float(
                (agent_update.overflow.sum() + network_update.overflow.sum())
                / n_slots
            ),
            "overflow_amount": agent_update.overflow_amount
            + network_update.overflow_amount,
        }
        return StepResult(
            observations, self._state(observations), reward, done, info
        )

    def __repr__(self):
        sizes = "-".join(str(len(nodes)) for nodes in self._nodes_by_layer)
        return (
            f"MultiHopOffloadEnv(layers={sizes}, |A|={self.action_space.n}, "
            f"T={self.episode_limit})"
        )
