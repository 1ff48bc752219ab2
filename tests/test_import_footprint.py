"""What a single-hop process loads: networkx belongs to the multi-hop
extension alone, so importing :mod:`repro`, training on the paper's
single-hop env and serving a policy must never load it.

Each case runs in a fresh interpreter, since this suite's own process has
long since imported networkx (``tests/test_multi_hop.py`` does at module
level).
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SINGLE_HOP_STACK = """
import numpy as np
import repro
import repro.marl.frameworks
import repro.serving.server
from repro.config import SingleHopConfig, TrainingConfig

framework = repro.build_framework(
    "proposed", seed=1, env_config=SingleHopConfig(episode_limit=5),
    train_config=TrainingConfig(episodes_per_epoch=2, rollout_envs=2),
)
framework.trainer.train_epoch()
observations, _ = framework.env.reset()
probs = framework.actors.rows_probabilities(
    np.stack(observations), np.arange(framework.env.n_agents)
)
assert np.allclose(probs.sum(axis=1), 1.0)
"""


def run_fresh(script):
    """Run ``script`` in a fresh interpreter; returns its stdout lines."""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_single_hop_never_loads_networkx():
    script = SINGLE_HOP_STACK + """
import sys
print("networkx" in sys.modules)
from repro.envs import MultiHopOffloadEnv, layered_topology
print("networkx" in sys.modules)
MultiHopOffloadEnv(layered_topology((2, 2)))
print("networkx" in sys.modules)
"""
    assert run_fresh(script) == ["False", "False", "True"]


def test_single_hop_stack_runs_without_networkx():
    script = """
import sys
sys.modules["networkx"] = None
""" + SINGLE_HOP_STACK + """
from repro.envs import layered_topology
try:
    layered_topology((2, 2))
except ImportError as error:
    print("ImportError", error)
"""
    lines = run_fresh(script)
    assert len(lines) == 1
    assert lines[0].startswith("ImportError")
    assert "networkx" in lines[0]


def test_single_hop_stack_never_loads_experiments():
    """The experiment harness and its settings serve runners and examples;
    the library, training and serving stack never imports them."""
    script = SINGLE_HOP_STACK + """
import sys
import repro.marl.checkpoint
import repro.serving.client
print(sorted(name for name in sys.modules
             if name.startswith("repro.experiments")))
"""
    assert run_fresh(script) == ["[]"]
