"""Compare two result files written by ``run.py --out``.

Per workload it prints each end-to-end metric's median and quartiles over
the untraced runs of each file, and each per-layer metric's median and
delta over the traced runs — the "adjoint -80 %, epoch -55 %" view — plus
the median host factor of each side (a factor that moves with the code,
not the host, means the change disturbs the host probe; see
``hostspeed.py``).  It refuses files measured on hosts with different CPU
counts, and fails when two runs of one file at the same workload and seed
disagree on their reward-trajectory digest.

    python3 perfbench/run.py --compare base.jsonl new.jsonl
"""

from __future__ import annotations

import json
import statistics

__all__ = ["compare_files"]


def _load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _metric_values(records, workload, trace):
    values = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == trace:
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def _delta(base, new):
    if base == 0:
        return "      —" if new == 0 else "    new"
    return f"{(new - base) / abs(base):+7.1%}"


def _digest_conflicts(records, label):
    seen, conflicts = {}, []
    for record in records:
        if record["trace"] or "digest" not in record:
            continue
        key = (record["workload"], record["seed"])
        first = seen.setdefault(key, record["digest"])
        if first != record["digest"]:
            conflicts.append(
                f"{label}: {key[0]} seed {key[1]} digests differ "
                f"({first} vs {record['digest']})"
            )
    return conflicts


def compare_files(base_path, new_path):
    """Print the comparison; returns a process exit code."""
    base, new = _load(base_path), _load(new_path)
    cpus = {r["host"]["cpu_count"] for r in base + new}
    if len(cpus) > 1:
        print(f"error: results come from hosts with cpu_count {sorted(cpus)}; "
              "measure both sides on one host")
        return 2
    conflicts = (_digest_conflicts(base, base_path)
                 + _digest_conflicts(new, new_path))
    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        factors = [
            statistics.median(
                [r["host_factor"] for r in records
                 if r["workload"] == workload and "host_factor" in r]
                or [float("nan")]
            )
            for records in (base, new)
        ]
        print(f"== {workload}  (host factor {factors[0]:.3f} -> "
              f"{factors[1]:.3f})")
        b, n = (_metric_values(base, workload, 0),
                _metric_values(new, workload, 0))
        if b or n:
            print(f"  {'end-to-end':<26} {'base q1/median/q3':>32} "
                  f"{'new q1/median/q3':>32} {'delta':>7}")
        for name in sorted(set(b) & set(n)):
            bq, nq = _quartiles(b[name]), _quartiles(n[name])
            print(
                f"  {name:<26} "
                + " ".join(f"{v:>10.4g}" for v in bq) + " "
                + " ".join(f"{v:>10.4g}" for v in nq) + " "
                + _delta(bq[1], nq[1])
                + f"   (runs {len(b[name])}/{len(n[name])})"
            )
        b, n = (_metric_values(base, workload, 1),
                _metric_values(new, workload, 1))
        if b or n:
            print(f"  {'per-layer (median)':<26} {'base':>10} {'new':>10} "
                  f"{'delta':>7}")
        for name in sorted(set(b) & set(n)):
            bm, nm = statistics.median(b[name]), statistics.median(n[name])
            print(f"  {name:<26} {bm:>10.4g} {nm:>10.4g} {_delta(bm, nm)}")
    for conflict in conflicts:
        print(f"CHECK FAILED: {conflict}")
    return 1 if conflicts else 0
