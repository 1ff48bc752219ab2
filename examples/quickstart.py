"""Quickstart: the library in five minutes.

Walks through the paper's building blocks bottom-up:

1. build the 4-qubit VQC of Fig. 1 (state encoder + random layers + Z's),
2. run and differentiate it on the exact statevector backend,
3. assemble the single-hop offloading environment of Tables I & II,
4. train the proposed QMARL framework for a few epochs,
5. evaluate greedily and compare against the random-walk reference.

Run:  python examples/quickstart.py [--epochs N]
"""

import argparse

import numpy as np

from repro import (
    SingleHopConfig,
    StatevectorBackend,
    build_vqc,
    evaluate_random_walk,
)
from repro.experiments.settings import build_arm
from repro.marl.metrics import progress_printer
from repro.quantum.gradients import backward
from repro.viz.ascii_plots import sparkline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    # Choosing rollout_envs / rollout_workers (full guide:
    # docs/parallel_rollouts.md):
    #   - rollout_envs=N batches N lockstep env copies into one circuit
    #     evaluation per step; nearly free, so raise it first and keep it a
    #     divisor of episodes_per_epoch (non-divisors are clamped down).
    #     Changing N changes which RNG streams feed which episodes, so pick
    #     it once per study (runs stay seed-deterministic either way).
    #   - rollout_workers=W shards those copies across W worker processes,
    #     each evaluating its shard's circuits locally.  W is result-neutral:
    #     any worker count reproduces the in-process N-copy run bit for bit.
    #     Worth it only with idle cores: try W = cores - 1 with at least ~4
    #     env rows per worker; on a single-core machine leave it at 1.
    parser.add_argument("--rollout-envs", type=int, default=4)
    parser.add_argument("--rollout-workers", type=int, default=1)
    #   - trainer picks the training engine: "mapg" is the paper's
    #     gradient-based CTDE actor-critic; "es" is the gradient-free
    #     evolutionary-strategies engine (docs/evolutionary_training.md) —
    #     a population of perturbed actor teams evaluated through one
    #     stacked circuit call per env step, no critic, no backprop.
    parser.add_argument("--trainer", default="mapg", choices=("mapg", "es"))
    parser.add_argument("--es-population", type=int, default=None,
                        help="ES population size (only with --trainer es; "
                             "default 8)")
    args = parser.parse_args()
    if args.es_population is not None and args.trainer != "es":
        parser.error("--es-population only affects --trainer es")

    # -- 1. the VQC of Fig. 1 ------------------------------------------------
    print("=" * 72)
    print("1. A 4-qubit VQC: multi-layer state encoding + 50 random gates")
    print("=" * 72)
    vqc = build_vqc(n_qubits=4, n_features=16, n_weights=50, seed=args.seed)
    print(vqc)
    print(vqc.circuit.draw(max_ops=8))
    print(f"gate histogram: {vqc.circuit.gate_counts()}")

    # -- 2. run + differentiate ----------------------------------------------
    print()
    print("=" * 72)
    print("2. Forward evaluation and adjoint gradients")
    print("=" * 72)
    rng = np.random.default_rng(args.seed)
    weights = vqc.initial_weights(rng)
    states = rng.uniform(0.0, 1.0, size=(3, 16))
    expectations = vqc.run(StatevectorBackend(), states, weights)
    print(f"<Z_j> for 3 random states:\n{np.round(expectations, 4)}")
    upstream = np.ones_like(expectations)
    _, weight_grads = backward(
        vqc.circuit, vqc.observables, states, weights, upstream
    )
    print(f"adjoint dL/dw: |g| = {np.linalg.norm(weight_grads):.4f} "
          f"({weight_grads.shape[0]} trainable angles)")

    # -- 3. the environment ----------------------------------------------------
    print()
    print("=" * 72)
    print("3. Single-hop offloading environment (Tables I & II)")
    print("=" * 72)
    env_config = SingleHopConfig(episode_limit=30)
    print(f"K={env_config.n_clouds} clouds, N={env_config.n_agents} edges, "
          f"|A|={env_config.n_actions} (= destination x packet amount), "
          f"|o|={env_config.observation_size}, |s|={env_config.state_size}")
    print(f"arrivals ~ U(0, {env_config.w_p} * {env_config.queue_capacity}), "
          f"cloud service {env_config.cloud_service_rate}/step, "
          f"w_R={env_config.w_r}")

    # -- 4. train the proposed QMARL framework --------------------------------
    # At the calibrated settings every experiment trains under.  Under ES a
    # generation scores a population of perturbed actor teams through one
    # stacked circuit call per env step (members ride the per-sample-weight
    # axis), and episodes_per_epoch counts episodes per member.
    per_member = {"episodes_per_epoch": 2} if args.trainer == "es" else {}
    framework = build_arm(
        "proposed",
        args.seed,
        env_config,
        trainer=args.trainer,
        n_epochs=args.epochs,
        rollout_envs=args.rollout_envs,
        rollout_workers=args.rollout_workers,
        es_population=args.es_population,
        **per_member,
    )
    print()
    print("=" * 72)
    if args.trainer == "es":
        print(f"4. Training the proposed framework with ES ({args.epochs} "
              f"generations, population {framework.trainer.population}, "
              f"{framework.trainer.n_envs} lockstep rollout envs, "
              f"{framework.trainer.rollout_workers} worker process(es))")
    else:
        print(f"4. Training the proposed framework ({args.epochs} epochs, "
              f"{framework.trainer.rollout_envs} lockstep rollout envs, "
              f"{framework.trainer.rollout_workers} worker process(es))")
    print("=" * 72)
    print(f"parameter budget: actor {framework.metadata['actor_parameters']} "
          f"x {env_config.n_agents} agents, "
          f"critic {framework.metadata['critic_parameters']}")

    # One uniform progress line per engine (losses + entropy for MAPG,
    # fitness dispersion for ES) — the same schema telemetry publishes.
    progress = progress_printer(every=max(1, args.epochs // 10))
    history = framework.train(callback=progress)
    rewards = history.series("total_reward")
    print(f"reward curve: {sparkline(rewards)}")

    # -- 5. evaluate -------------------------------------------------------------
    print()
    print("=" * 72)
    print("5. Greedy evaluation vs the random walk")
    print("=" * 72)
    greedy = framework.evaluate(n_episodes=10)
    random_walk = evaluate_random_walk(
        seed=args.seed + 1, env_config=env_config, n_episodes=20
    )
    achievability = (greedy["total_reward"] - random_walk) / (0.0 - random_walk)
    print(f"greedy total reward : {greedy['total_reward']:.2f}")
    print(f"random-walk return  : {random_walk:.2f}")
    print(f"achievability       : {achievability:.1%} "
          f"(paper reports 90.9% after 1000 epochs)")

    # Releases the sharded rollout worker pool, if one was started
    # (rollout_workers > 1); harmless otherwise.
    framework.close()


if __name__ == "__main__":
    main()
