"""Full Fig. 3 reproduction: train all four frameworks and plot the curves.

Reproduces the paper's evaluation (Section IV-D): Proposed (fully quantum),
Comp1 (hybrid), Comp2 (equal-budget classical) and Comp3 (40k-parameter
classical) trained with CTDE MAPG, reported on four metrics with ASCII
training curves and the achievability table.

Run:  python examples/train_offloading.py --preset quick
      python examples/train_offloading.py --preset medium --out results/
(presets: smoke ~1 min, quick ~5 min, medium ~25 min, full: hours)
"""

import argparse
import os
import time

from repro.experiments.fig3 import (
    FIG3_METRICS,
    PRESETS,
    format_fig3_report,
    run_fig3,
)
from repro.experiments.io import results_dir, save_json
from repro.marl.metrics import progress_printer
from repro.experiments.section4d import format_section4d_report, run_section4d
from repro.viz.ascii_plots import line_plot

_TITLES = {
    "total_reward": "Fig. 3(a) total reward",
    "mean_queue": "Fig. 3(b) average queue",
    "empty_ratio": "Fig. 3(c) queue-empty ratio",
    "overflow_ratio": "Fig. 3(d) queue-overflow ratio",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="save JSON results here")
    parser.add_argument(
        "--rollout-envs", type=int, default=1,
        help="lockstep env copies for episode collection (1 = the "
             "serial reference's streams; 4 = one copy per episode of the "
             "presets' 4-episode epochs, cutting collection wall-clock "
             "several-fold; values above episodes_per_epoch are clamped)",
    )
    args = parser.parse_args()

    start = time.time()
    last_banner = [None]
    print_epoch = progress_printer(every=10, print_fn=lambda line: print(f"  {line}"))

    def progress(name, record):
        if last_banner[0] != name:
            print(f"\n--- training {name} ---")
            last_banner[0] = name
        print_epoch(record)

    result = run_fig3(
        preset=args.preset, seed=args.seed, callback=progress,
        rollout_envs=args.rollout_envs,
    )
    print(f"\ntotal training time: {time.time() - start:.0f}s\n")

    for metric in FIG3_METRICS:
        series = {
            name: result["series"][name][metric] for name in result["series"]
        }
        print(line_plot(series, title=_TITLES[metric]))
        print()

    print(format_fig3_report(result))
    print()
    print(format_section4d_report(run_section4d(fig3_result=result)))

    if args.out is not None:
        path = os.path.join(results_dir(args.out), "fig3_result.json")
        save_json(result, path)
        print(f"\nresults written to {path}")


if __name__ == "__main__":
    main()
