"""Telemetry overhead gate: vector-rollout throughput with obs off vs on.

The ``repro.obs`` contract is *near-zero overhead while disabled* — every
instrumented hot path pays one module-global flag check and nothing else.
This bench measures env steps/sec of the N-copy vectorized collection round
(the hottest instrumented loop in the repo) under four conditions:

- **baseline** — telemetry disabled, registry emptied before the round
  (as if never touched);
- **disabled** — telemetry disabled with the registry holding whatever the
  enabled rounds left behind, flight recording off — the floor every
  other condition is judged against;
- **flight** — telemetry still disabled but the flight recorder on (the
  shipped always-on default): isolates the ring's cost in the hot path;
- **enabled** — telemetry on: counters, histograms, spans, and the
  span→ring flight events all live.

The modes share one collector and take turns round by round, in forward
then reverse order, so a host that drifts slows every mode alike instead
of reading as one mode's overhead.  A mode's overhead is the median over
rounds of its slowdown against its reference mode's turn in the same
round.  The bench writes ``BENCH_obs_overhead.json`` with the overhead
ratios against the budgets the observability PRs promise: disabled within
2 % of baseline, flight-on within 3 % of disabled, enabled within 10 % of
baseline.  ``--check`` exits nonzero when a budget is blown (the CI
observability job runs ``--smoke --check``).

Run::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke] [--check]
"""

import argparse
import sys
import time

import numpy as np

from benchio import write_bench_json

from repro import obs
from repro.obs import flight as obs_flight
from repro.config import SingleHopConfig
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.envs.vector import make_vector_env
from repro.marl.frameworks import build_framework
from repro.marl.rollout import VectorRolloutCollector

SEED = 3
EPISODE_LIMIT = 25
N_ENVS = 8
ROUNDS = 150

# mode -> (telemetry on, flight recorder on)
MODES = {
    "baseline": (False, False),
    "disabled": (False, False),
    "flight": (False, True),
    "enabled": (True, True),
}
# mode -> (the mode it is judged against, overhead budget)
BUDGETS = {
    "disabled": ("baseline", 0.02),
    "flight": ("disabled", 0.03),
    "enabled": ("baseline", 0.10),
}


def _make_collector(n_envs, episode_limit):
    framework = build_framework(
        "proposed", seed=SEED,
        env_config=SingleHopConfig(episode_limit=episode_limit),
    )
    env = SingleHopOffloadEnv(
        SingleHopConfig(episode_limit=episode_limit),
        rng=np.random.default_rng(SEED),
    )
    return VectorRolloutCollector(
        make_vector_env(env, n_envs), framework.actors
    )


def _round_times(n_envs, episode_limit, rounds):
    """Per-mode wall times of ``rounds`` interleaved collection rounds."""
    collector = _make_collector(n_envs, episode_limit)
    rng = np.random.default_rng(SEED + 1)
    collector.collect(n_envs, rng)  # warmup: compiled-program + suffix caches
    times = {mode: [] for mode in MODES}
    order = list(MODES)
    for _ in range(rounds):
        for mode in order:
            telemetry, flight = MODES[mode]
            if mode == "baseline":
                obs.reset()
            obs.set_enabled(telemetry)
            obs_flight.set_enabled(flight)
            start = time.perf_counter()
            collector.collect(n_envs, rng)
            times[mode].append(time.perf_counter() - start)
        order.reverse()
    return {mode: np.array(seconds) for mode, seconds in times.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workload for the CI gate")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when an overhead budget is blown")
    args = parser.parse_args(argv)
    episode_limit = 10 if args.smoke else EPISODE_LIMIT

    previous = obs.set_enabled(False)
    previous_flight = obs_flight.set_enabled(False)
    try:
        times = _round_times(N_ENVS, episode_limit, ROUNDS)
    finally:
        obs.set_enabled(previous)
        obs_flight.set_enabled(previous_flight)
        obs.reset()
        obs_flight.reset()

    # Rates at each mode's median round.  A shared host can run some rounds
    # up to 2x faster than others, so a mode's best round says more about
    # its luck than its code; an overhead is the median over rounds of the
    # mode's slowdown against its reference's turn in the same round.
    env_steps = N_ENVS * episode_limit
    results = {
        mode: {"env_steps_per_s": env_steps / float(np.median(seconds))}
        for mode, seconds in times.items()
    }
    for mode, (reference, budget) in BUDGETS.items():
        overhead = max(
            0.0, 1.0 - float(np.median(times[reference] / times[mode]))
        )
        results[mode].update(
            overhead=overhead,
            reference=reference,
            budget=budget,
            within_budget=overhead <= budget,
        )
    print(f"{'mode':>10}  {'env steps/s':>12}  {'overhead':>9}  budget")
    print(f"{'baseline':>10}  {results['baseline']['env_steps_per_s']:>12.1f}"
          f"  {'-':>9}  -")
    for mode in BUDGETS:
        entry = results[mode]
        flag = "ok" if entry["within_budget"] else "OVER"
        print(
            f"{mode:>10}  {entry['env_steps_per_s']:>12.1f}  "
            f"{entry['overhead']:>8.1%}  <={entry['budget']:.0%} of "
            f"{entry['reference']} [{flag}]"
        )
    path = write_bench_json(
        "BENCH_obs_overhead.json",
        {
            "benchmark": "obs_overhead",
            "framework": "proposed",
            "n_envs": N_ENVS,
            "episode_limit": episode_limit,
            "rounds": ROUNDS,
            "smoke": args.smoke,
            "results": results,
        },
        args.json_dir,
    )
    print(f"\nwrote {path}")
    if args.check and not all(
        results[mode]["within_budget"] for mode in BUDGETS
    ):
        print("telemetry overhead budget exceeded", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
