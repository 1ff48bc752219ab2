"""The repository benchmark: seeded workloads, end-to-end and per-layer.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload mapg_train --seed 1 --seconds 10 \
        --trace 0 [--out results.jsonl]

With ``--trace 0`` the run reports every end-to-end metric listed in
``BENCHMARK.json``; with ``--trace 1`` it times the calls into each layer
and reports every per-layer metric instead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when an output check
failed.  ``--out`` appends the full result (metrics, host stamp, digests)
to a JSON-lines file, and ``--compare A B`` summarises two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_spec():
    """``BENCHMARK.json`` plus the program sources it measures."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"error: no program sources under {src}")
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path[:0] = [src, os.path.join(ROOT, "benchmarks")]
    return spec


def _host_stamp():
    import numpy as np
    from benchio import host_metadata

    host = host_metadata()
    host["numpy"] = np.__version__
    return host


def _print_report(name, result, wanted):
    print(f"workload {name}: {result.info.get('samples', 0)} samples")
    for metric in wanted:
        value, unit = result.metrics[metric]
        print(f"  {metric:<28} {value:>14.6g} {unit}")
    if result.breakdown:
        per = result.info.get("per_layer_unit", "op")
        print(f"  per {per}: layer, calls, ms, self ms, share of p50 {per}")
        for row in result.breakdown:
            print(
                f"    {row['layer']:<26} {row['calls']:>9.1f} "
                f"{row['ms']:>9.3f} {row['self_ms']:>9.3f} "
                f"{row['share']:>7.1%}"
            )
    for key in ("epoch_coverage", "backward_share"):
        if key in result.info:
            print(f"  {key}: {result.info[key]:.1%}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="summarise two result files instead of running")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    from workloads import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    missing = [m for m in wanted if m not in result.metrics]
    if missing:
        result.problem(f"metrics not measured: {missing}")
        wanted = [m for m in wanted if m in result.metrics]
    _print_report(args.workload, result, wanted)
    metrics = {
        m: {"value": result.metrics[m][0], "unit": result.metrics[m][1]}
        for m in wanted
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": _host_stamp(),
            "correct": result.correct,
            "metrics": metrics,
            "problems": result.problems,
            **result.info,
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
