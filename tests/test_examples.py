"""Every example runs to completion at its smallest arguments.

Each runs in a fresh interpreter, started as a reader of ``examples/``
would start it.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")

CASES = [
    pytest.param("quickstart.py", ["--epochs", "1"], id="quickstart-mapg"),
    pytest.param(
        "quickstart.py", ["--epochs", "1", "--trainer", "es"],
        id="quickstart-es",
    ),
    pytest.param(
        "multi_hop_network.py", ["--epochs", "1", "--episode-limit", "5"],
        id="multi_hop_network",
    ),
    pytest.param(
        "parameter_budget_sweep.py", ["--epochs", "1", "--episode-limit", "5"],
        id="parameter_budget_sweep",
    ),
    pytest.param(
        "qubit_state_visualization.py",
        ["--epochs", "1", "--steps", "1", "--no-color"],
        id="qubit_state_visualization",
    ),
    pytest.param(
        "train_offloading.py", ["--preset", "smoke"], id="train_offloading"
    ),
    pytest.param(
        "noise_robustness.py", ["--epochs", "1", "--episodes", "1"],
        id="noise_robustness", marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize("script, args", CASES)
def test_example_runs(tmp_path, script, args):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert result.returncode == 0, result.stderr


def test_every_example_has_a_case():
    covered = {case.values[0] for case in CASES}
    assert covered == {
        name for name in os.listdir(EXAMPLES) if name.endswith(".py")
    }
