"""Shared helpers for machine-readable benchmark artifacts.

Every throughput benchmark writes its results as a ``BENCH_<name>.json``
document through :func:`write_bench_json` so the format (directory
resolution, indentation, trailing newline) stays uniform across benches and
the perf trajectory can be diffed across PRs.  Every artifact is stamped
with a ``host`` block (cpu count, platform, python version) so numbers from
different machines are never compared blind.  Not a ``bench_*`` module on
purpose — the pytest-benchmark harness only collects explicitly named bench
files, and this one holds no benchmarks.
"""

from __future__ import annotations

import json
import os
import platform

__all__ = ["host_metadata", "write_bench_json"]


def host_metadata():
    """The machine identity block stamped into every bench artifact."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def write_bench_json(name, document, directory=None):
    """Write one benchmark's JSON artifact; returns its path.

    Args:
        name: Artifact file name (``BENCH_<bench>.json``).
        document: JSON-serialisable result document.  A ``host`` metadata
            block is added unless the document already carries one.
        directory: Target directory; defaults to ``$REPRO_BENCH_DIR`` or the
            current working directory.
    """
    directory = (
        directory
        if directory is not None
        else os.environ.get("REPRO_BENCH_DIR", ".")
    )
    document = dict(document)
    document.setdefault("host", host_metadata())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
