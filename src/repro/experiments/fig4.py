"""Figure 4: the QMARL workflow demonstration.

Rolls a trained Proposed policy for 12 unit-steps (as in the paper's
demonstration), recording at every step

- the queue levels of every edge and cloud (the stacked time series of
  Fig. 4's left panel), and
- the first edge agent's 4-qubit actor state, rendered as the 4x4
  magnitude/phase heatmap in the HLS colour system (the right panels).
"""

from __future__ import annotations

import numpy as np

from repro.config import SingleHopConfig
from repro.experiments.settings import build_arm
from repro.quantum.backends import StatevectorBackend
from repro.viz.qubit_heatmap import QubitStateHeatmap, render_ansi, render_text

__all__ = ["run_fig4", "format_fig4_report"]


def _actor_statevector(actor, observation):
    """Final pure state of a quantum actor's circuit for one observation."""
    vqc = actor.layer.vqc
    backend = StatevectorBackend()
    psi = backend.evolve(
        vqc.circuit,
        np.asarray(observation, dtype=np.float64)[None, :],
        actor.layer.weights.data,
    )
    return psi[0]


def run_fig4(train_epochs=60, n_steps=12, seed=11, episode_limit=50,
             framework=None):
    """Train (or reuse) a Proposed framework and record the demonstration.

    Args:
        train_epochs: Epochs of pre-training when no framework is supplied.
        n_steps: Demonstration length (the paper shows 12 unit-steps).
        seed: Root seed.
        episode_limit: Episode length for both training and demonstration.
        framework: Optionally, an already-trained ``"proposed"`` framework.

    Returns:
        A result document with per-step queue levels, actions, and the first
        agent's amplitude heatmap (magnitude + phase grids).
    """
    if framework is None:
        framework = build_arm(
            "proposed", seed,
            SingleHopConfig(episode_limit=max(episode_limit, n_steps)),
            n_epochs=train_epochs,
        )
        framework.train()
    elif framework.name != "proposed":
        raise ValueError("Fig. 4 demonstrates the proposed QMARL framework")

    env = framework.env
    rng = np.random.default_rng(seed + 17)
    observations, _state = env.reset()
    first_actor = framework.actors.actors[0]

    steps = []
    for t in range(n_steps):
        psi = _actor_statevector(first_actor, observations[0])
        heatmap = QubitStateHeatmap(psi)
        actions = framework.actors.act(observations, rng, greedy=True)
        result = env.step(actions)
        decoded = [env.decode_action(a) for a in actions]
        steps.append(
            {
                "t": t + 1,
                "edge_levels": result.info["edge_levels"].tolist(),
                "cloud_levels": result.info["cloud_levels"].tolist(),
                "actions": list(map(int, actions)),
                "destinations": [int(d) for d, _ in decoded],
                "amounts": [float(p) for _, p in decoded],
                "reward": result.reward,
                "heatmap_magnitude": heatmap.magnitude.tolist(),
                "heatmap_phase": heatmap.phase.tolist(),
            }
        )
        observations = result.observations
        if result.done:
            break

    return {
        "experiment": "fig4",
        "seed": seed,
        "n_steps": len(steps),
        "train_epochs": train_epochs,
        "steps": steps,
    }


def format_fig4_report(result, ansi=False):
    """Readable per-step report: queue levels + the agent-1 qubit heatmap."""
    lines = [f"Fig. 4 demonstration ({result['n_steps']} unit-steps)"]
    for step in result["steps"]:
        edges = " ".join(f"{q:.2f}" for q in step["edge_levels"])
        clouds = " ".join(f"{q:.2f}" for q in step["cloud_levels"])
        lines.append(
            f"t={step['t']:>2}  edges=[{edges}]  clouds=[{clouds}]  "
            f"reward={step['reward']:+.3f}  "
            f"actions={step['actions']}"
        )
        magnitude = np.asarray(step["heatmap_magnitude"])
        phase = np.asarray(step["heatmap_phase"])
        grid = magnitude * np.exp(1j * phase)
        heatmap = QubitStateHeatmap(grid.reshape(-1))
        renderer = render_ansi if ansi else render_text
        body = renderer(heatmap)
        lines.extend("    " + ln for ln in body.splitlines())
    return "\n".join(lines)
