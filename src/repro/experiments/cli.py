"""Command-line entry point: ``repro-experiment <id> [options]``.

Examples::

    repro-experiment list
    repro-experiment fig3 --preset quick --seed 7 --out results/
    repro-experiment fig4 --ansi
    repro-experiment ablation-noise
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from repro.experiments import io as _io
from repro.experiments.fig3 import format_fig3_report
from repro.experiments.fig4 import format_fig4_report
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.section4d import format_section4d_report

__all__ = ["main", "build_parser"]

_FORMATTERS = {
    "fig3": format_fig3_report,
    "fig4": format_fig4_report,
    "section4d": format_section4d_report,
}


def _takes(spec, name):
    """Whether the experiment's runner has a ``name`` parameter."""
    return name in inspect.signature(spec.runner).parameters


def build_parser():
    """The argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce tables/figures of the QMARL paper (ICDCS 2022)",
    )
    parser.add_argument(
        "experiment",
        help="experiment id, or 'list' to enumerate available experiments",
    )
    with_presets = sorted(
        experiment_id for experiment_id, spec in EXPERIMENTS.items()
        if _takes(spec, "preset")
    )
    parser.add_argument(
        "--preset", default=None,
        help=f"preset name (experiments {', '.join(with_presets)})",
    )
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument(
        "--out", default=None, help="directory to write the JSON result into"
    )
    parser.add_argument(
        "--ansi", action="store_true", help="colour output for fig4"
    )
    return parser


def _experiment_kwargs(args):
    kwargs = {}
    if args.preset is not None:
        kwargs["preset"] = args.preset
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return kwargs


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        for experiment_id, spec in sorted(EXPERIMENTS.items()):
            print(f"{experiment_id:<22} {spec.paper_ref:<38} {spec.description}")
        return 0

    try:
        spec = get_experiment(args.experiment)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2

    kwargs = _experiment_kwargs(args)
    for name in kwargs:
        if not _takes(spec, name):
            print(f"experiment {args.experiment!r} takes no --{name}",
                  file=sys.stderr)
            return 2
    result = spec.run(**kwargs)

    formatter = _FORMATTERS.get(args.experiment)
    if formatter is not None:
        if args.experiment == "fig4":
            print(formatter(result, ansi=args.ansi))
        else:
            print(formatter(result))
    else:
        import json

        print(json.dumps(_io._sanitise(result), indent=2))

    if args.out is not None:
        path = os.path.join(
            _io.results_dir(args.out),
            f"{args.experiment.replace('-', '_')}_{_io.timestamp()}.json",
        )
        _io.save_json(result, path)
        print(f"\nresult written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
