"""Shared helpers for machine-readable benchmark artifacts.

Every bench script writes its results as a ``BENCH_<name>.json`` document
through :func:`write_bench_json` so the format (indentation, key order,
trailing newline) stays uniform across benches and the perf trajectory can
be diffed across PRs.  Every artifact is stamped with a ``host`` block (cpu
count, platform, python version) so numbers from different machines are
never compared blind; ``perfbench/run.py`` stamps its results with the same
block.
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
        directory: Target directory (a bench's ``--json-dir``); defaults to
            the current working directory.
    """
    directory = "." if directory is None else directory
    document = dict(document)
    document.setdefault("host", host_metadata())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
