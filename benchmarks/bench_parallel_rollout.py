"""Rollout collection throughput: serial vs. vectorized vs. process-sharded.

Measures environment steps per second of episode collection on the quantum
actor framework ("proposed") for the three interchangeable engines:

- the serial reference loop (:func:`repro.marl.trainer.rollout_episode`),
- the in-process vectorized engine
  (:class:`repro.marl.rollout.VectorRolloutCollector`) at ``N`` lockstep
  copies, and
- the process-sharded worker pool
  (:class:`repro.marl.parallel.ShardedRolloutCollector`) at the same ``N``
  split across ``W`` worker processes, each evaluating its shard's circuits
  locally and replying over its pickle-pipe (rows keep the ``_pipe``
  suffix of the committed ``BENCH_parallel_rollout.json``).

A **ragged axis** measures the vector engine on the overflow-terminating
env family (``terminate_on_overflow=True``); the sharded engine serves
fixed-length envs only and rejects it.  Ragged episode lengths vary, so
that record reports completed episodes per second and a
``ragged_vs_fixed`` ratio against the engine's fixed-length episode rate.

The standalone entry point prints a summary table and writes the
machine-readable ``BENCH_parallel_rollout.json`` (steps/s per engine plus
speedup ratios and host info) so the performance trajectory is tracked
across PRs.  The sharded engine pays per-epoch serialization and process
scheduling overhead, so its win over the single-process vector engine
requires real cores: on a single-CPU container expect parity at best, and
read ``cpu_count`` in the JSON alongside the ratios.

Run under the benchmark harness::

    pytest benchmarks/bench_parallel_rollout.py --benchmark-only

or standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_rollout.py [--smoke]
"""

import argparse
import os
import time

import numpy as np

from benchio import write_bench_json

from repro.config import SingleHopConfig
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.envs.vector import make_vector_env
from repro.marl.frameworks import build_framework
from repro.marl.parallel import ShardedRolloutCollector
from repro.marl.rollout import VectorRolloutCollector
from repro.marl.trainer import rollout_episode

SEED = 3
EPISODE_LIMIT = 25
N_ENVS = 8
WORKER_COUNTS = (2, 4)
JSON_NAME = "BENCH_parallel_rollout.json"


def _build_actors(episode_limit=EPISODE_LIMIT):
    framework = build_framework(
        "proposed", seed=SEED,
        env_config=SingleHopConfig(episode_limit=episode_limit),
    )
    return framework.actors


def _make_env(episode_limit=EPISODE_LIMIT, ragged=False):
    # The ragged variant is the overflow-terminating env family:
    # episode_limit becomes a horizon cap and the queue preload makes early
    # endings common (see tests/helpers.py).
    config = SingleHopConfig(
        episode_limit=episode_limit,
        terminate_on_overflow=ragged,
        initial_queue_level=0.8 if ragged else 0.5,
    )
    return SingleHopOffloadEnv(config, rng=np.random.default_rng(SEED))


def _make_vector_collector(n_envs, actors=None, episode_limit=EPISODE_LIMIT,
                           ragged=False):
    actors = actors if actors is not None else _build_actors(episode_limit)
    return VectorRolloutCollector(
        make_vector_env(_make_env(episode_limit, ragged=ragged), n_envs),
        actors,
    )


def _make_sharded_collector(n_envs, n_workers, actors=None,
                            episode_limit=EPISODE_LIMIT):
    actors = actors if actors is not None else _build_actors(episode_limit)
    return ShardedRolloutCollector(
        _make_env(episode_limit), actors, n_envs=n_envs, n_workers=n_workers,
    )


# -- pytest-benchmark harness -------------------------------------------------

def test_serial_rollout(benchmark):
    """Reference: one serial episode (env steps = EPISODE_LIMIT)."""
    actors = _build_actors()
    env = _make_env()
    rng = np.random.default_rng(SEED + 1)
    benchmark.pedantic(
        lambda: rollout_episode(env, actors, rng),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["env_steps_per_round"] = EPISODE_LIMIT


def test_vector_rollout(benchmark):
    """In-process vectorized engine at N lockstep copies."""
    collector = _make_vector_collector(N_ENVS)
    rng = np.random.default_rng(SEED + 1)
    benchmark.pedantic(
        lambda: collector.collect(N_ENVS, rng),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["env_steps_per_round"] = N_ENVS * EPISODE_LIMIT


def _bench_sharded(benchmark, n_workers):
    collector = _make_sharded_collector(N_ENVS, n_workers)
    rng = np.random.default_rng(SEED + 1)
    try:
        benchmark.pedantic(
            lambda: collector.collect(N_ENVS, rng),
            rounds=3, iterations=1, warmup_rounds=1,
        )
        benchmark.extra_info["env_steps_per_round"] = N_ENVS * EPISODE_LIMIT
    finally:
        collector.close()


def test_sharded_rollout_w2(benchmark):
    """Worker-pool engine: N copies over 2 processes."""
    _bench_sharded(benchmark, 2)


def test_sharded_rollout_w4(benchmark):
    """Worker-pool engine: N copies over 4 processes."""
    _bench_sharded(benchmark, 4)


# -- standalone steps/s table + JSON artifact ---------------------------------

def _measure(fn, env_steps, repeats=3):
    """Best-of-``repeats`` steps/sec for a collection round."""
    fn()  # warmup (worker startup, compiled-unitary caches, allocator)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return env_steps / best


def run_benchmark(n_envs=N_ENVS, worker_counts=WORKER_COUNTS,
                  episode_limit=EPISODE_LIMIT, repeats=3):
    """Measure all engines; returns the result document."""
    engines = {}
    rng = np.random.default_rng(SEED + 1)

    actors = _build_actors(episode_limit)
    env = _make_env(episode_limit)
    serial_rate = _measure(
        lambda: rollout_episode(env, actors, rng), episode_limit, repeats
    )
    engines["serial"] = {"env_steps_per_s": serial_rate, "n_envs": 1}

    vector = _make_vector_collector(n_envs, episode_limit=episode_limit)
    vector_rate = _measure(
        lambda: vector.collect(n_envs, rng), n_envs * episode_limit, repeats
    )
    engines[f"vector_n{n_envs}"] = {
        "env_steps_per_s": vector_rate, "n_envs": n_envs,
    }

    for n_workers in worker_counts:
        sharded = _make_sharded_collector(
            n_envs, n_workers, episode_limit=episode_limit
        )
        try:
            rate = _measure(
                lambda: sharded.collect(n_envs, rng),
                n_envs * episode_limit, repeats,
            )
        finally:
            sharded.close()
        engines[f"sharded_n{n_envs}_w{n_workers}_pipe"] = {
            "env_steps_per_s": rate,
            "n_envs": n_envs,
            "n_workers": n_workers,
            "speedup_vs_vector": rate / vector_rate,
            "speedup_vs_serial": rate / serial_rate,
        }

    # Ragged axis: the vector engine on the overflow-terminating env family
    # (the sharded engine rejects it).  Episode lengths vary under
    # data-dependent termination, so the honest unit here is completed
    # episodes per second; ``ragged_vs_fixed`` compares against the same
    # engine's fixed-length episode rate.
    ragged_vector = _make_vector_collector(
        n_envs, episode_limit=episode_limit, ragged=True
    )
    ragged_vector_rate = _measure(
        lambda: ragged_vector.collect(n_envs, rng), n_envs, repeats
    )
    engines[f"vector_n{n_envs}_ragged"] = {
        "episodes_per_s": ragged_vector_rate,
        "n_envs": n_envs,
        "ragged": True,
        "ragged_vs_fixed": (
            ragged_vector_rate / (vector_rate / episode_limit)
        ),
    }

    for record in engines.values():
        if "env_steps_per_s" in record:
            record.setdefault("speedup_vs_serial",
                              record["env_steps_per_s"] / serial_rate)
    return {
        "benchmark": "parallel_rollout",
        "framework": "proposed",
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
            n_envs=4, worker_counts=(2,), episode_limit=5, repeats=2,
        )
    else:
        document = run_benchmark()

    serial_rate = document["engines"]["serial"]["env_steps_per_s"]
    print(f"{'engine':>34}  {'rate':>12}  {'relative':>10}")
    for name, record in document["engines"].items():
        if "env_steps_per_s" in record:
            rate = record["env_steps_per_s"]
            relative = rate / serial_rate
            unit = "steps/s"
        else:  # ragged axis: completed episodes per second
            rate = record["episodes_per_s"]
            relative = record["ragged_vs_fixed"]
            unit = "eps/s"
        print(f"{name:>34}  {rate:>10.1f} {unit:<7}  {relative:>9.2f}x")
    path = write_bench_json(JSON_NAME, document, args.json_dir)
    print(f"\nwrote {path} (cpu_count={document['cpu_count']})")


if __name__ == "__main__":
    main()
