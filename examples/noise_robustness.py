"""NISQ robustness study: gate noise and finite measurement shots.

The paper's future-work axis (Section V): how does the trained QMARL policy
behave on noisy hardware?  This example trains the proposed framework
noiselessly (the paper's regime), then re-executes the *same trained
weights* on

- the density-matrix backend with per-gate depolarising error, and
- the shot-sampled statevector backend with finite measurement budgets,

reporting greedy total reward at each noise/shot level.

Run:  python examples/noise_robustness.py [--epochs 40]
"""

import argparse

from repro.config import SingleHopConfig
from repro.experiments.ablations import run_noise_robustness, run_shot_budget
from repro.experiments.settings import build_arm
from repro.viz.ascii_plots import sparkline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--episodes", type=int, default=6,
                        help="evaluation episodes per level")
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    print(f"training the proposed framework ({args.epochs} epochs) ...")
    framework = build_arm(
        "proposed", args.seed, SingleHopConfig(episode_limit=30),
        n_epochs=args.epochs,
    )
    framework.train()

    print("\nevaluating under depolarising gate error ...")
    noise = run_noise_robustness(
        noise_levels=(0.0, 0.005, 0.01, 0.02, 0.05, 0.1),
        n_episodes=args.episodes,
        seed=args.seed,
        framework=framework,
    )
    print(f"\n{'gate error p':>13} {'greedy reward':>14}")
    for level, reward in zip(noise["noise_levels"], noise["greedy_rewards"]):
        print(f"{level:>13.3f} {reward:>14.3f}")
    print(f"trend: {sparkline(noise['greedy_rewards'])} "
          "(reward degrades as gate error grows)")

    print("\nevaluating under finite measurement shots ...")
    shots = run_shot_budget(
        shot_counts=(8, 32, 128, 512, None),
        n_episodes=args.episodes,
        seed=args.seed,
        framework=framework,
    )
    print(f"\n{'shots':>8} {'greedy reward':>14}")
    for count, reward in zip(shots["shot_counts"], shots["greedy_rewards"]):
        print(f"{str(count):>8} {reward:>14.3f}")
    print(f"trend: {sparkline(shots['greedy_rewards'])} "
          "(more shots -> closer to the exact-expectation policy)")


if __name__ == "__main__":
    main()
