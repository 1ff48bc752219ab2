"""Evolutionary-strategies training experiment: gradient-free vs gradient.

Trains the proposed quantum framework with the ES engine
(:class:`~repro.marl.evolution.ESTrainer`) — the extension motivated by the
quantum-MARL ES line (Kölle et al. 2023, "Multi-Agent Quantum Reinforcement
Learning using Evolutionary Optimization"; Kölle et al. 2024 on
architectural influence under ES), which found population search matches or
beats analytic gradients on VQC multi-agent policies while sidestepping
barren plateaus.  Optionally trains the gradient (MAPG) arm, at the
calibrated settings every Fig. 3 arm trains under, with a matched episode
budget for a side-by-side curve.

Registered as ``es-train`` in the experiment registry.
"""

from __future__ import annotations

from repro.config import SingleHopConfig
from repro.experiments.settings import ES_PRESETS, build_arm, preset_row
from repro.marl.frameworks import evaluate_random_walk
from repro.marl.metrics import achievability

__all__ = ["run_es_training"]

ES_METRICS = ("total_reward", "fitness_mean", "fitness_max", "grad_norm")


def run_es_training(preset="quick", seed=11, framework="proposed",
                    compare_mapg=False, callback=None):
    """Train a framework with ES; returns the result document.

    Args:
        preset: One of :data:`repro.experiments.settings.ES_PRESETS`.
        seed: Root seed.
        framework: Which arm to train (any trainable framework; the
            quantum arms exercise the stacked per-sample-weight circuit
            path, the classical arms the per-member loop).
        compare_mapg: Also train the gradient engine, at the calibrated
            MAPG settings, for the same number of epochs and episode
            budget, for a side-by-side series.
        callback: Optional ``fn(engine_name, epoch_record)`` hook.

    Returns:
        A dict with the ES generation series (mean/max fitness, returns,
        gradient norms), greedy evaluation, achievability vs the random
        walk, and — with ``compare_mapg`` — the gradient arm's series.
    """
    generations, episode_limit, episodes = preset_row(ES_PRESETS, preset)
    env_config = SingleHopConfig(episode_limit=episode_limit)
    random_walk = evaluate_random_walk(
        seed=seed + 1000, env_config=env_config, n_episodes=20
    )

    def train_engine(trainer, episodes_per_epoch):
        fw = build_arm(
            framework, seed, env_config, trainer=trainer,
            n_epochs=generations, episodes_per_epoch=episodes_per_epoch,
        )
        with fw:
            hook = (
                (lambda rec: callback(trainer, rec)) if callback else None
            )
            history = fw.train(callback=hook)
            series = {
                m: history.series(m).tolist()
                for m in ES_METRICS
                if m in history.records[0]
            }
            evaluation = fw.evaluate(n_episodes=8)
        return fw, series, evaluation

    es_framework, es_series, es_eval = train_engine("es", episodes)
    es_config = es_framework.trainer.config
    document = {
        "experiment": "es-train",
        "preset": preset,
        "seed": seed,
        "framework": framework,
        "generations": generations,
        "population": es_config.effective_es_population,
        "sigma": es_config.effective_es_sigma,
        "lr": es_config.effective_es_lr,
        "episode_limit": env_config.episode_limit,
        "random_walk_return": random_walk,
        "series": {"es": es_series},
        "evaluation": {"es": es_eval},
        "achievability": {
            "es": achievability(es_eval["total_reward"], random_walk)
        },
        "parameters": es_framework.metadata,
    }
    if compare_mapg:
        _, mapg_series, mapg_eval = train_engine(
            "mapg", episodes * es_config.effective_es_population
        )
        document["series"]["mapg"] = mapg_series
        document["evaluation"]["mapg"] = mapg_eval
        document["achievability"]["mapg"] = achievability(
            mapg_eval["total_reward"], random_walk
        )
    return document
