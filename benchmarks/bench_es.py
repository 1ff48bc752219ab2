"""ES training throughput: serial member loop vs stacked vs sharded.

Measures the evolutionary-strategies engine
(:class:`repro.marl.evolution.ESTrainer`) on the quantum "proposed"
framework across its three interchangeable evaluation engines:

- **serial** — the per-member reference loop (one circuit evaluation per
  member per env step; the semantic oracle), built as the stacked
  trainer with its population group switched to ``stacked = False``,
- **stacked** — the in-process single-circuit-call path (all population
  members ride the per-sample-weight axis: one evaluation per env step for
  every ``P * k * n_agents`` observation),
- **sharded** — the population split across worker processes (rows keep
  the ``_pipe`` suffix of the committed ``BENCH_es.json``).

Reported per engine: generations/s, candidate evaluations/s (population
members scored per second — the ES scaling axis), and env steps/s.  The
engines are built once and take turns generation by generation, in
forward then reverse order, as ``bench_obs_overhead.py`` does: a rate is
read at the engine's median generation, and a ratio between two engines
is the median over rounds of their paired ratio, which repeats across
runs where the absolute rates do not.  The standalone entry point writes
``BENCH_es.json`` so the perf trajectory is tracked across PRs; like the
rollout benches, the sharded engines need real cores to win (read
``cpu_count`` next to the ratios).

Run::

    PYTHONPATH=src python benchmarks/bench_es.py [--smoke]
"""

import argparse
import os
import time

import numpy as np

from benchio import write_bench_json

from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.frameworks import build_framework

SEED = 3
EPISODE_LIMIT = 25
POPULATION = 8
EPISODES_PER_MEMBER = 1
WORKER_COUNTS = (2, 4)
ROUNDS = 20
JSON_NAME = "BENCH_es.json"


def _build_trainer(population, episode_limit, rollout_workers,
                   stacked=True):
    framework = build_framework(
        "proposed",
        seed=SEED,
        env_config=SingleHopConfig(episode_limit=episode_limit),
        train_config=TrainingConfig(
            trainer="es",
            episodes_per_epoch=EPISODES_PER_MEMBER,
            es_population=population,
            rollout_workers=rollout_workers,
        ),
    )
    framework.trainer._population_group.stacked = stacked
    return framework.trainer


def _generation_times(trainers, rounds):
    """Seconds per generation of each ``name -> trainer``, over ``rounds``
    interleaved rounds (forward, then reverse order) after one warmup."""
    for trainer in trainers.values():
        trainer.train_epoch()  # warmup (pool startup, compiled caches)
    times = {name: [] for name in trainers}
    order = list(trainers)
    for _ in range(rounds):
        for name in order:
            start = time.perf_counter()
            trainers[name].train_epoch()
            times[name].append(time.perf_counter() - start)
        order.reverse()
    return {name: np.array(seconds) for name, seconds in times.items()}


def run_benchmark(population=POPULATION, episode_limit=EPISODE_LIMIT,
                  worker_counts=WORKER_COUNTS, rounds=ROUNDS):
    """Measure every ES engine, interleaved; returns the result document."""
    settings = {"serial_loop": (1, False), "stacked": (1, True)}
    for workers in worker_counts:
        settings[f"sharded_w{workers}_pipe"] = (workers, True)
    trainers = {}
    try:
        for name, (workers, stacked) in settings.items():
            trainers[name] = _build_trainer(
                population=population, episode_limit=episode_limit,
                rollout_workers=workers, stacked=stacked,
            )
        times = _generation_times(trainers, rounds)
    finally:
        for trainer in trainers.values():
            trainer.close()

    def speedup(name, reference):
        # Every engine scores the same population per generation.
        return float(np.median(times[reference] / times[name]))

    env_steps = population * EPISODES_PER_MEMBER * episode_limit
    engines = {}
    for name, seconds in times.items():
        seconds = float(np.median(seconds))
        entry = {
            "seconds_per_generation": seconds,
            "generations_per_s": 1.0 / seconds,
            "candidates_per_s": population / seconds,
            "env_steps_per_s": env_steps / seconds,
            "population": population,
        }
        if name != "serial_loop":
            entry["speedup_vs_serial"] = speedup(name, "serial_loop")
        if name.startswith("sharded"):
            entry["n_workers"] = settings[name][0]
            entry["speedup_vs_stacked"] = speedup(name, "stacked")
        engines[name] = entry
    return {
        "benchmark": "es",
        "framework": "proposed",
        "population": population,
        "episodes_per_member": EPISODES_PER_MEMBER,
        "episode_limit": episode_limit,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "engines": engines,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI (still exercises every engine)",
    )
    parser.add_argument("--json-dir", default=None)
    args = parser.parse_args()
    if args.smoke:
        document = run_benchmark(
            population=4, episode_limit=5, worker_counts=(2,), rounds=2,
        )
    else:
        document = run_benchmark()

    print(f"{'engine':>20}  {'candidates/s':>13}  {'generations/s':>14}  "
          f"{'vs serial':>10}")
    for name, record in document["engines"].items():
        print(f"{name:>20}  {record['candidates_per_s']:>13.2f}  "
              f"{record['generations_per_s']:>14.3f}  "
              f"{record.get('speedup_vs_serial', 1.0):>9.2f}x")
    path = write_bench_json(JSON_NAME, document, args.json_dir)
    print(f"\nwrote {path} (cpu_count={document['cpu_count']})")


if __name__ == "__main__":
    main()
