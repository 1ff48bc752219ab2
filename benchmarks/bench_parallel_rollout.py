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

The engines are built once and take turns round by round, in forward then
reverse order, as ``bench_obs_overhead.py`` does, so a host that drifts
slows every engine alike.  A rate is the work over the engine's median
round; a ratio between two engines is the median over rounds of their
paired ratio, which repeats across runs where the absolute rates do not.

The standalone entry point prints a summary table and writes the
machine-readable ``BENCH_parallel_rollout.json`` (steps/s per engine plus
speedup ratios and host info) so the performance trajectory is tracked
across PRs.  The sharded engine pays per-epoch serialization and process
scheduling overhead, so its win over the single-process vector engine
requires real cores: on a single-CPU container expect parity at best, and
read ``cpu_count`` in the JSON alongside the ratios.

Run::

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
ROUNDS = 60
JSON_NAME = "BENCH_parallel_rollout.json"


def _build_actors(episode_limit):
    framework = build_framework(
        "proposed", seed=SEED,
        env_config=SingleHopConfig(episode_limit=episode_limit),
    )
    return framework.actors


def _make_env(episode_limit, ragged=False):
    # The ragged variant is the overflow-terminating env family:
    # episode_limit becomes a horizon cap and the queue preload makes early
    # endings common (see tests/helpers.py).
    config = SingleHopConfig(
        episode_limit=episode_limit,
        terminate_on_overflow=ragged,
        initial_queue_level=0.8 if ragged else 0.5,
    )
    return SingleHopOffloadEnv(config, rng=np.random.default_rng(SEED))


def _make_vector_collector(n_envs, episode_limit, ragged=False):
    return VectorRolloutCollector(
        make_vector_env(_make_env(episode_limit, ragged=ragged), n_envs),
        _build_actors(episode_limit),
    )


def _make_sharded_collector(n_envs, n_workers, episode_limit):
    return ShardedRolloutCollector(
        _make_env(episode_limit), _build_actors(episode_limit),
        n_envs=n_envs, n_workers=n_workers,
    )


def _round_times(engines, rounds):
    """Seconds per round of each ``name -> fn`` engine, over ``rounds``
    interleaved rounds (forward, then reverse order) after one warmup."""
    for fn in engines.values():
        fn()  # warmup (worker startup, compiled-unitary caches, allocator)
    times = {name: [] for name in engines}
    order = list(engines)
    for _ in range(rounds):
        for name in order:
            start = time.perf_counter()
            engines[name]()
            times[name].append(time.perf_counter() - start)
        order.reverse()
    return {name: np.array(seconds) for name, seconds in times.items()}


def _paired(times, work, name, reference):
    """Median over rounds of ``name``'s rate over ``reference``'s."""
    return float(np.median(
        (work[name] / times[name]) / (work[reference] / times[reference])
    ))


def run_benchmark(n_envs=N_ENVS, worker_counts=WORKER_COUNTS,
                  episode_limit=EPISODE_LIMIT, rounds=ROUNDS):
    """Measure all engines, interleaved; returns the result document."""
    rng = np.random.default_rng(SEED + 1)
    actors = _build_actors(episode_limit)
    env = _make_env(episode_limit)
    vector = _make_vector_collector(n_envs, episode_limit)
    # Ragged axis: the vector engine on the overflow-terminating env family
    # (the sharded engine rejects it).  Episode lengths vary under
    # data-dependent termination, so the honest unit here is completed
    # episodes per second; ``ragged_vs_fixed`` compares against the same
    # engine's fixed-length episode rate.
    ragged = _make_vector_collector(n_envs, episode_limit, ragged=True)
    vector_name = f"vector_n{n_envs}"
    ragged_name = f"{vector_name}_ragged"
    calls = {
        "serial": lambda: rollout_episode(env, actors, rng),
        vector_name: lambda: vector.collect(n_envs, rng),
        ragged_name: lambda: ragged.collect(n_envs, rng),
    }
    # Work per round: env steps, or episodes on the ragged axis.
    work = {"serial": episode_limit, vector_name: n_envs * episode_limit,
            ragged_name: n_envs}
    pools = []
    try:
        for n_workers in worker_counts:
            sharded = _make_sharded_collector(n_envs, n_workers, episode_limit)
            pools.append(sharded)
            name = f"sharded_n{n_envs}_w{n_workers}_pipe"
            calls[name] = (
                lambda sharded=sharded: sharded.collect(n_envs, rng)
            )
            work[name] = n_envs * episode_limit
        times = _round_times(calls, rounds)
    finally:
        for sharded in pools:
            sharded.close()

    engines = {}
    for name, seconds in times.items():
        rate = work[name] / float(np.median(seconds))
        if name == ragged_name:
            engines[name] = {
                "episodes_per_s": rate,
                "n_envs": n_envs,
                "ragged": True,
                # Episodes per second against the fixed-length engine's.
                "ragged_vs_fixed": _paired(
                    times, work, name, vector_name
                ) * episode_limit,
            }
            continue
        record = {"env_steps_per_s": rate,
                  "n_envs": 1 if name == "serial" else n_envs,
                  "speedup_vs_serial": _paired(times, work, name, "serial")}
        if name.startswith("sharded"):
            record["n_workers"] = int(name.split("_w")[1].split("_")[0])
            record["speedup_vs_vector"] = _paired(
                times, work, name, vector_name
            )
        engines[name] = record
    return {
        "benchmark": "parallel_rollout",
        "framework": "proposed",
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
            n_envs=4, worker_counts=(2,), episode_limit=5, rounds=4,
        )
    else:
        document = run_benchmark()

    print(f"{'engine':>34}  {'rate':>12}  {'relative':>10}")
    for name, record in document["engines"].items():
        if "env_steps_per_s" in record:
            rate = record["env_steps_per_s"]
            relative = record["speedup_vs_serial"]
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
