"""Every bench script is one CI-run standalone program.

``benchmarks/`` holds plain scripts that CI runs and that write committed
``BENCH_*.json`` files; no test harness collects them.  These tests read
``.github/workflows/ci.yml`` as text (CI installs no YAML parser) and fail
when a bench stops being run by some workflow step or grows a
``test_*`` entry point again.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmarks")
CI_PATH = os.path.join(ROOT, ".github", "workflows", "ci.yml")
BENCH_SCRIPTS = sorted(
    name for name in os.listdir(BENCH_DIR)
    if name.startswith("bench_") and name.endswith(".py")
)


def run_commands(text):
    """The command text of every ``run:`` step in a workflow file.

    A step's command is the ``run:`` line's own value plus every following
    line indented deeper than the ``run:`` key (a ``>`` or ``|`` block).
    """
    commands = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run:(.*)$", line)
        if not match:
            continue
        indent = len(match.group(1))
        body = [match.group(2)]
        for follow in lines[i + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow)
        commands.append(" ".join(part.strip() for part in body))
    return commands


def test_run_commands_reads_folded_blocks():
    text = (
        "    steps:\n"
        "      - name: a\n"
        "        run: >\n"
        "          PYTHONPATH=src python benchmarks/bench_x.py\n"
        "          --smoke\n"
        "      - name: b\n"
        "        run: echo done\n"
    )
    assert run_commands(text) == [
        "> PYTHONPATH=src python benchmarks/bench_x.py --smoke",
        "echo done",
    ]


def test_every_bench_is_run_by_a_ci_step():
    with open(CI_PATH) as f:
        ci_commands = run_commands(f.read())
    assert BENCH_SCRIPTS
    unrun = [
        script for script in BENCH_SCRIPTS
        if not any(
            re.search(rf"\bpython3? benchmarks/{re.escape(script)}\b", command)
            for command in ci_commands
        )
    ]
    assert not unrun, (
        f"no step of {os.path.relpath(CI_PATH, ROOT)} runs {unrun}; "
        f"run each in CI or delete it"
    )


def test_no_bench_defines_a_test_entry_point():
    offenders = []
    for script in BENCH_SCRIPTS:
        with open(os.path.join(BENCH_DIR, script)) as f:
            tree = ast.parse(f.read(), filename=script)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name.startswith("test_")
                or "benchmark" in [arg.arg for arg in node.args.args]
            ):
                offenders.append(f"{script}::{node.name}")
    assert not offenders, (
        f"benches are standalone scripts, not test modules: {offenders} "
        f"define test_* functions or take a pytest-benchmark fixture"
    )

