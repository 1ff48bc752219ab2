"""Figure 3: training curves of the four frameworks on four metrics.

Reproduces the evaluation of Section IV-D — total reward (a), average
queue (b), queue-empty ratio (c) and queue-overflow ratio (d) as a function
of training epoch — for Proposed, Comp1, Comp2 and Comp3, plus the
random-walk reference used for achievability normalisation.

The presets (:data:`repro.experiments.settings.FIG3_PRESETS`) scale the
run down; the longest, ``full``, trains 400 epochs against the paper's 1000.
"""

from __future__ import annotations

from repro.config import SingleHopConfig
from repro.experiments.settings import FIG3_PRESETS as PRESETS
from repro.experiments.settings import build_arm, preset_row
from repro.marl.frameworks import evaluate_random_walk
from repro.marl.metrics import achievability

__all__ = ["FIG3_METRICS", "PRESETS", "run_fig3"]

FIG3_METRICS = ("total_reward", "mean_queue", "empty_ratio", "overflow_ratio")


def run_fig3(preset="quick", seed=7, frameworks=("proposed", "comp1", "comp2", "comp3"),
             callback=None, rollout_envs=1):
    """Train every framework and collect the Fig. 3 series.

    Args:
        preset: One of :data:`PRESETS`.
        seed: Root seed shared across frameworks (each also derives
            framework-specific child seeds via its name).
        frameworks: Which arms to run.
        callback: Optional ``fn(framework_name, epoch_record)`` progress hook.
        rollout_envs: Lockstep env copies for episode collection (1 =
            the serial reference loop's RNG stream layout; >1 trades that
            layout for wall-clock via batched rollouts — per-seed curves
            differ but the statistics reproduce the same figure).

    Returns:
        A result document (dict) with per-framework series for every metric,
        final (last-20-epoch) summaries, the random-walk reference and
        achievability scores — the full content of Fig. 3 plus the
        Section IV-D(1) numbers.
    """
    n_epochs, episode_limit, rw_episodes = preset_row(PRESETS, preset)
    env_config = SingleHopConfig(episode_limit=episode_limit)
    random_walk = evaluate_random_walk(
        seed=seed + 1000, env_config=env_config, n_episodes=rw_episodes
    )

    series = {}
    summaries = {}
    parameters = {}
    window = max(1, min(20, n_epochs // 5))
    for name in frameworks:
        framework = build_arm(
            name, seed, env_config, n_epochs=n_epochs,
            rollout_envs=rollout_envs,
        )
        hook = (lambda rec, _n=name: callback(_n, rec)) if callback else None
        history = framework.train(n_epochs=n_epochs, callback=hook)
        series[name] = {m: history.series(m).tolist() for m in FIG3_METRICS}
        summaries[name] = {
            m: float(history.last(m, window=window)) for m in FIG3_METRICS
        }
        summaries[name]["achievability"] = achievability(
            summaries[name]["total_reward"], random_walk
        )
        parameters[name] = framework.metadata

    return {
        "experiment": "fig3",
        "preset": preset,
        "seed": seed,
        "n_epochs": n_epochs,
        "episode_limit": env_config.episode_limit,
        "random_walk_return": random_walk,
        "series": series,
        "summaries": summaries,
        "parameters": parameters,
    }


def format_fig3_report(result):
    """Human-readable summary table of a :func:`run_fig3` result."""
    lines = [
        f"Fig. 3 reproduction — preset={result['preset']}, "
        f"epochs={result['n_epochs']}, T={result['episode_limit']}",
        f"random-walk reference return: {result['random_walk_return']:.2f}",
        "",
        f"{'framework':<10} {'reward':>9} {'achiev.':>8} {'queue':>7} "
        f"{'empty':>7} {'overflow':>9} {'params':>8}",
    ]
    for name, summary in result["summaries"].items():
        params = result["parameters"][name]["total_parameters"]
        lines.append(
            f"{name:<10} {summary['total_reward']:>9.2f} "
            f"{summary['achievability']:>7.1%} {summary['mean_queue']:>7.3f} "
            f"{summary['empty_ratio']:>7.3f} {summary['overflow_ratio']:>9.3f} "
            f"{params:>8d}"
        )
    return "\n".join(lines)
