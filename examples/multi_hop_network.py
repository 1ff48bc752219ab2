"""Beyond the paper: quantum MARL on a multi-hop queue network.

The paper evaluates a single-hop topology (4 edges -> 2 clouds).  This
example builds a three-layer network (edges -> relays -> clouds) with the
same queue mechanics, wires the paper's quantum actors and centralised
quantum critic to it unchanged (the CTDE stack is environment-agnostic),
and trains for a while — demonstrating that the library generalises past
the paper's scenario.

Run:  python examples/multi_hop_network.py [--epochs 40]
"""

import argparse

import numpy as np

from repro.envs import MultiHopOffloadEnv, layered_topology
from repro.experiments.settings import arm_configs
from repro.marl.actors import QuantumActor, QuantumActorGroup
from repro.marl.critics import QuantumCentralCritic
from repro.marl.trainer import CTDETrainer, rollout_episode
from repro.quantum.vqc import build_vqc
from repro.seeding import SeedSequenceFactory
from repro.viz.ascii_plots import sparkline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--episode-limit", type=int, default=30)
    parser.add_argument("--layers", type=int, nargs="+", default=[4, 3, 2],
                        help="layer sizes, e.g. --layers 4 3 2")
    parser.add_argument("--seed", type=int, default=19)
    args = parser.parse_args()

    seeds = SeedSequenceFactory(args.seed)
    topology = layered_topology(tuple(args.layers))
    env = MultiHopOffloadEnv(
        topology, episode_limit=args.episode_limit, rng=seeds.rng("env")
    )
    print(f"environment: {env!r}")
    print(f"  {env.n_agents} agents, |A|={env.action_space.n}, "
          f"|o|={env.observation_space.size}, |s|={env.state_size}")

    # The action count must fit on the measured qubits; widen if needed.
    from repro.quantum.observables import all_z_observables

    n_qubits = max(4, env.action_space.n)
    actor_vqc = build_vqc(
        n_qubits,
        env.observation_space.size,
        50,
        seed=1001,
        observables=all_z_observables(n_qubits)[: env.action_space.n],
    )

    actors = QuantumActorGroup(
        [
            QuantumActor(actor_vqc, seeds.rng(f"actor/{i}"))
            for i in range(env.n_agents)
        ]
    )
    # The calibrated MAPG settings every single-hop experiment trains under.
    vqc_config, train_config = arm_configs(n_epochs=args.epochs)
    critic_vqc = build_vqc(4, env.state_size, 50, seed=2002)
    scale = vqc_config.critic_value_scale
    critic = QuantumCentralCritic(
        critic_vqc, seeds.rng("critic"), value_scale=scale
    )
    target = QuantumCentralCritic(
        critic_vqc, seeds.rng("target"), value_scale=scale
    )
    trainer = CTDETrainer(
        env, actors, critic, target, train_config, seeds.rng("rollouts")
    )
    print(f"  quantum actors: {actors.n_parameters()} weights total; "
          f"critic: {critic.n_parameters()}")

    print(f"\ntraining for {args.epochs} epochs ...")
    history = trainer.train(callback=lambda rec: (
        print(f"  epoch {rec['epoch']:>4}  reward {rec['total_reward']:>8.2f}")
        if rec["epoch"] % max(1, args.epochs // 8) == 0 else None
    ))
    rewards = history.series("total_reward")
    print(f"reward curve: {sparkline(rewards)}")

    greedy = []
    rng = seeds.rng("evaluation")
    for _ in range(8):
        _, stats = rollout_episode(env, actors, rng, greedy=True)
        greedy.append(stats["total_reward"])
    print(f"\ngreedy evaluation over 8 episodes: {np.mean(greedy):.2f}")

    print("\nfinal queue snapshot after one greedy episode:")
    _, stats = rollout_episode(env, actors, rng, greedy=True)
    print(f"  mean queue {stats['mean_queue']:.3f}, "
          f"empty ratio {stats['empty_ratio']:.3f}, "
          f"overflow ratio {stats['overflow_ratio']:.3f}")


if __name__ == "__main__":
    main()
