"""ES training throughput: serial member loop vs stacked vs sharded.

Measures the evolutionary-strategies engine
(:class:`repro.marl.evolution.ESTrainer`) on the quantum "proposed"
framework across its three interchangeable evaluation engines:

- **serial** — the per-member reference loop (one circuit evaluation per
  member per env step; the semantic oracle),
- **stacked** — the in-process single-circuit-call path (all population
  members ride the per-sample-weight axis: one evaluation per env step for
  every ``P * k * n_agents`` observation),
- **sharded** — the population split across worker processes (rows keep
  the ``_pipe`` suffix of the committed ``BENCH_es.json``).

Reported per engine: generations/s, candidate evaluations/s (population
members scored per second — the ES scaling axis), and env steps/s.  The
standalone entry point writes ``BENCH_es.json`` so the perf trajectory is
tracked across PRs; like the rollout benches, the sharded engines need
real cores to win (read ``cpu_count`` next to the ratios).

Run under the benchmark harness::

    pytest benchmarks/bench_es.py --benchmark-only

or standalone::

    PYTHONPATH=src python benchmarks/bench_es.py [--smoke]
"""

import argparse
import os
import time

from benchio import write_bench_json

from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.frameworks import build_framework

SEED = 3
EPISODE_LIMIT = 25
POPULATION = 8
EPISODES_PER_MEMBER = 1
WORKER_COUNTS = (2, 4)
JSON_NAME = "BENCH_es.json"


def _build_trainer(population=POPULATION, episode_limit=EPISODE_LIMIT,
                   rollout_mode="vector", rollout_workers=1):
    framework = build_framework(
        "proposed",
        seed=SEED,
        env_config=SingleHopConfig(episode_limit=episode_limit),
        train_config=TrainingConfig(
            trainer="es",
            episodes_per_epoch=EPISODES_PER_MEMBER,
            es_population=population,
            rollout_mode=rollout_mode,
            rollout_workers=rollout_workers,
        ),
    )
    return framework.trainer


# -- pytest-benchmark harness -------------------------------------------------

def test_es_serial_member_loop(benchmark):
    """Reference: one generation with per-member circuit evaluation."""
    trainer = _build_trainer(rollout_mode="serial")
    benchmark.pedantic(
        trainer.train_epoch, rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["candidates_per_round"] = trainer.population


def test_es_stacked(benchmark):
    """One stacked per-sample-weight circuit call per env step."""
    trainer = _build_trainer(rollout_mode="vector")
    benchmark.pedantic(
        trainer.train_epoch, rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["candidates_per_round"] = trainer.population


def test_es_sharded_w2(benchmark):
    """Population sharded over 2 worker processes."""
    trainer = _build_trainer(rollout_mode="sharded", rollout_workers=2)
    try:
        benchmark.pedantic(
            trainer.train_epoch, rounds=3, iterations=1, warmup_rounds=1
        )
        benchmark.extra_info["candidates_per_round"] = trainer.population
    finally:
        trainer.close()


# -- standalone table + JSON artifact -----------------------------------------

def _measure_generation(trainer, repeats=3):
    """Best-of-``repeats`` seconds per ES generation."""
    trainer.train_epoch()  # warmup (pool startup, compiled caches)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(population=POPULATION, episode_limit=EPISODE_LIMIT,
                  worker_counts=WORKER_COUNTS, repeats=3):
    """Measure every ES engine; returns the result document."""
    engines = {}

    def record_engine(name, rollout_mode, workers=1, extra=None):
        trainer = _build_trainer(
            population=population, episode_limit=episode_limit,
            rollout_mode=rollout_mode, rollout_workers=workers,
        )
        try:
            seconds = _measure_generation(trainer, repeats)
        finally:
            trainer.close()
        env_steps = population * EPISODES_PER_MEMBER * episode_limit
        entry = {
            "seconds_per_generation": seconds,
            "generations_per_s": 1.0 / seconds,
            "candidates_per_s": population / seconds,
            "env_steps_per_s": env_steps / seconds,
            "population": population,
        }
        if extra:
            entry.update(extra)
        engines[name] = entry
        return entry

    serial = record_engine("serial_loop", "serial")
    stacked = record_engine("stacked", "vector")
    stacked["speedup_vs_serial"] = (
        serial["seconds_per_generation"] / stacked["seconds_per_generation"]
    )
    for workers in worker_counts:
        entry = record_engine(
            f"sharded_w{workers}_pipe", "sharded", workers=workers,
            extra={"n_workers": workers},
        )
        entry["speedup_vs_serial"] = (
            serial["seconds_per_generation"] / entry["seconds_per_generation"]
        )
        entry["speedup_vs_stacked"] = (
            stacked["seconds_per_generation"]
            / entry["seconds_per_generation"]
        )
    return {
        "benchmark": "es",
        "framework": "proposed",
        "population": population,
        "episodes_per_member": EPISODES_PER_MEMBER,
        "episode_limit": episode_limit,
        "repeats": repeats,
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
            population=4, episode_limit=5, worker_counts=(2,), repeats=2,
        )
    else:
        document = run_benchmark()

    print(f"{'engine':>20}  {'candidates/s':>13}  {'generations/s':>14}  "
          f"{'vs serial':>10}")
    serial_rate = document["engines"]["serial_loop"]["candidates_per_s"]
    for name, record in document["engines"].items():
        print(f"{name:>20}  {record['candidates_per_s']:>13.2f}  "
              f"{record['generations_per_s']:>14.3f}  "
              f"{record['candidates_per_s'] / serial_rate:>9.2f}x")
    path = write_bench_json(JSON_NAME, document, args.json_dir)
    print(f"\nwrote {path} (cpu_count={document['cpu_count']})")


if __name__ == "__main__":
    main()
