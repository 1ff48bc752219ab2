"""Ablation studies backing the paper's design choices.

- ``encoding_attenuation`` — the NISQ-scalability motivation (Section I):
  a critic whose qubit count grows with the number of agents loses output
  signal under per-gate noise faster than the paper's compact multi-layer
  encoding at matched feature count and gate budget.
- ``gradient_methods`` — adjoint vs parameter-shift vs finite differences:
  numerical agreement and wall-clock cost.
- ``noise_robustness`` — a noiselessly-trained Proposed policy evaluated
  under increasing depolarising gate error (the paper's future-work axis).
- ``shot_budget`` — the same policy under finite measurement shots.
- ``parameter_budget`` — final reward vs trainable-parameter budget for
  quantum and classical actors (the paper's central constraint).
- ``template_comparison`` — the paper's random ansatz vs structured
  entangler templates at the same weight budget.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import SingleHopConfig
from repro.experiments.settings import build_arm
from repro.marl.frameworks import evaluate_random_walk
from repro.marl.trainer import rollout_episode
from repro.quantum.backends import DensityMatrixBackend, StatevectorBackend
from repro.quantum.channels import NoiseModel
from repro.quantum.gradients import backward
from repro.quantum.vqc import build_vqc

__all__ = [
    "run_encoding_attenuation",
    "run_gradient_methods",
    "run_noise_robustness",
    "run_shot_budget",
    "run_parameter_budget",
    "run_template_comparison",
    "run_barren_plateau",
]


# ---------------------------------------------------------------------------
# ABL-ENC: compact multi-layer encoding vs naive one-qubit-per-feature
# ---------------------------------------------------------------------------


def run_encoding_attenuation(
    n_features=8,
    n_weights=30,
    noise_levels=(0.0, 0.002, 0.005, 0.01, 0.02, 0.05),
    n_states=24,
    seed=5,
):
    """Output-signal attenuation under gate noise, compact vs naive encoding.

    Both circuits consume the same ``n_features`` (the joint state of a
    2-agent system by default) with the same variational gate budget; the
    compact circuit folds features onto ``n_features // 2`` qubits via the
    paper's multi-layer encoder, the naive circuit uses one qubit per
    feature (the qubit count that grows with the number of agents).

    Signal is the standard deviation of the first observable across random
    input states — when noise wipes it out, the critic can no longer
    distinguish states and training stalls, which is precisely the paper's
    argument for compact state encoding.
    """
    rng = np.random.default_rng(seed)
    compact_qubits = max(2, n_features // 2)
    arms = {
        "compact": build_vqc(
            compact_qubits, n_features, n_weights, seed=seed
        ),
        "naive": build_vqc(n_features, n_features, n_weights, seed=seed),
    }
    states = rng.uniform(0.0, 1.0, size=(n_states, n_features))
    weights = {name: vqc.initial_weights(rng) for name, vqc in arms.items()}

    signal = {name: [] for name in arms}
    for level in noise_levels:
        for name, vqc in arms.items():
            if level == 0.0:
                backend = StatevectorBackend()
            else:
                backend = DensityMatrixBackend(NoiseModel(level))
            outputs = vqc.run(backend, states, weights[name])
            signal[name].append(float(outputs[:, 0].std()))

    return {
        "experiment": "ablation_encoding_attenuation",
        "n_features": n_features,
        "qubits": {"compact": compact_qubits, "naive": n_features},
        "n_weights": n_weights,
        "noise_levels": list(noise_levels),
        "signal_std": signal,
        "relative_signal": {
            name: [v / max(values[0], 1e-12) for v in values]
            for name, values in signal.items()
        },
    }


# ---------------------------------------------------------------------------
# ABL-GRAD: differentiation methods
# ---------------------------------------------------------------------------


def run_gradient_methods(n_qubits=4, n_features=16, n_weights=50, batch=16,
                         seed=3, repeats=3):
    """Agreement and timing of the three gradient methods on one circuit."""
    rng = np.random.default_rng(seed)
    vqc = build_vqc(n_qubits, n_features, n_weights, seed=seed)
    inputs = rng.uniform(0.0, 1.0, size=(batch, n_features))
    weights = vqc.initial_weights(rng)
    upstream = rng.normal(size=(batch, vqc.n_outputs))

    grads = {}
    timings = {}
    for method in ("adjoint", "parameter_shift", "finite_diff"):
        start = time.perf_counter()
        for _ in range(repeats):
            gi, gw = backward(
                vqc.circuit, vqc.observables, inputs, weights, upstream,
                method=method,
            )
        timings[method] = (time.perf_counter() - start) / repeats
        grads[method] = (gi, gw)

    reference = grads["adjoint"][1]
    deviations = {
        method: float(np.max(np.abs(grads[method][1] - reference)))
        for method in grads
    }
    return {
        "experiment": "ablation_gradient_methods",
        "n_weights": n_weights,
        "batch": batch,
        "seconds_per_backward": timings,
        "max_weight_grad_deviation_vs_adjoint": deviations,
        "speedup_adjoint_over_shift": timings["parameter_shift"]
        / max(timings["adjoint"], 1e-12),
    }


# ---------------------------------------------------------------------------
# ABL-NOISE / ABL-SHOTS: robustness of a trained policy
# ---------------------------------------------------------------------------


def _train_proposed(train_epochs, episode_limit, seed):
    framework = build_arm(
        "proposed", seed, SingleHopConfig(episode_limit=episode_limit),
        n_epochs=train_epochs,
    )
    framework.train()
    return framework


def _evaluate_with_backend(framework, backend_factory, n_episodes, seed):
    """Evaluate the trained actors with a swapped-in execution backend."""
    from repro.marl.actors import QuantumActorGroup

    rebuilt = [
        actor.with_backend(backend_factory())
        for actor in framework.actors.actors
    ]
    group = QuantumActorGroup(rebuilt)
    rng = np.random.default_rng(seed)
    rewards = []
    for _ in range(n_episodes):
        _, stats = rollout_episode(framework.env, group, rng, greedy=True)
        rewards.append(stats["total_reward"])
    return float(np.mean(rewards))


def run_noise_robustness(
    noise_levels=(0.0, 0.005, 0.01, 0.02, 0.05, 0.1),
    train_epochs=40,
    episode_limit=30,
    n_episodes=6,
    seed=13,
    framework=None,
):
    """Evaluate a noiselessly-trained Proposed policy under gate noise."""
    if framework is None:
        framework = _train_proposed(train_epochs, episode_limit, seed)
    rewards = []
    for level in noise_levels:
        if level == 0.0:
            factory = StatevectorBackend
        else:
            def factory(_level=level):
                return DensityMatrixBackend(NoiseModel(_level))
        rewards.append(
            _evaluate_with_backend(framework, factory, n_episodes, seed + 1)
        )
    return {
        "experiment": "ablation_noise_robustness",
        "noise_levels": list(noise_levels),
        "greedy_rewards": rewards,
        "train_epochs": train_epochs,
    }


def run_shot_budget(
    shot_counts=(8, 32, 128, 512, None),
    train_epochs=40,
    episode_limit=30,
    n_episodes=6,
    seed=13,
    framework=None,
):
    """Evaluate the trained policy with finite measurement shots.

    ``None`` denotes exact expectations (infinite shots).
    """
    if framework is None:
        framework = _train_proposed(train_epochs, episode_limit, seed)
    rewards = []
    for shots in shot_counts:
        def factory(_shots=shots):
            return StatevectorBackend(
                shots=_shots, rng=np.random.default_rng(seed + 23)
            )
        rewards.append(
            _evaluate_with_backend(framework, factory, n_episodes, seed + 1)
        )
    return {
        "experiment": "ablation_shot_budget",
        "shot_counts": [s if s is not None else "exact" for s in shot_counts],
        "greedy_rewards": rewards,
        "train_epochs": train_epochs,
    }


# ---------------------------------------------------------------------------
# ABL-BUDGET: reward vs parameter budget
# ---------------------------------------------------------------------------


def run_parameter_budget(
    budgets=(10, 25, 50, 100),
    train_epochs=30,
    episode_limit=25,
    seed=17,
):
    """Final reward vs trainable-gate budget for the quantum framework."""
    env_config = SingleHopConfig(episode_limit=episode_limit)
    random_walk = evaluate_random_walk(
        seed=seed + 1, env_config=env_config, n_episodes=20
    )
    rewards = []
    for budget in budgets:
        framework = build_arm(
            "proposed", seed, env_config,
            vqc={"n_variational_gates": budget}, n_epochs=train_epochs,
        )
        history = framework.train()
        window = max(1, train_epochs // 5)
        rewards.append(float(history.last("total_reward", window=window)))
    return {
        "experiment": "ablation_parameter_budget",
        "budgets": list(budgets),
        "final_rewards": rewards,
        "random_walk_return": random_walk,
        "train_epochs": train_epochs,
    }


# ---------------------------------------------------------------------------
# ABL-TEMPLATE: ansatz families
# ---------------------------------------------------------------------------


def run_template_comparison(
    templates=("random", "basic_entangler", "strongly_entangling"),
    train_epochs=30,
    episode_limit=25,
    seed=19,
):
    """Final reward per ansatz family at the same ~50-weight budget."""
    env_config = SingleHopConfig(episode_limit=episode_limit)
    rewards = {}
    weights_used = {}
    for template in templates:
        framework = build_arm(
            "proposed", seed, env_config,
            vqc={"template": template}, n_epochs=train_epochs,
        )
        history = framework.train()
        window = max(1, train_epochs // 5)
        rewards[template] = float(history.last("total_reward", window=window))
        weights_used[template] = framework.metadata["actor_parameters"]
    return {
        "experiment": "ablation_template_comparison",
        "templates": list(templates),
        "final_rewards": rewards,
        "actor_parameters": weights_used,
        "train_epochs": train_epochs,
    }


# ---------------------------------------------------------------------------
# ABL-PLATEAU: gradient variance vs register width (trainability)
# ---------------------------------------------------------------------------


def run_barren_plateau(
    qubit_counts=(2, 4, 6, 8),
    n_gates=40,
    n_samples=24,
    seed=23,
):
    """Gradient variance of random circuits as the register widens.

    Barren plateaus (McClean et al. 2018): for random parameterised
    circuits, the variance of any single parameter's gradient decays
    exponentially with qubit count, making wide registers untrainable.
    Together with gate-error accumulation (ABL-ENC) this is the paper's
    second reason to keep the critic on a *fixed, small* register and
    compress the joint state into it rather than widening with the number
    of agents.

    For each register width, ``n_samples`` random weight draws of a fixed
    random ansatz are differentiated (adjoint) with respect to the first
    variational angle, measuring ``Var[dE/dw_0]`` of ``E = <Z_0>``.
    """
    from repro.quantum.gradients import adjoint_backward
    from repro.quantum.observables import PauliString

    rng = np.random.default_rng(seed)
    variances = []
    mean_abs = []
    for n_qubits in qubit_counts:
        vqc = build_vqc(
            n_qubits,
            n_qubits,
            n_gates,
            seed=seed + n_qubits,
            observables=[PauliString.z(0)],
        )
        inputs = rng.uniform(0.0, 1.0, size=(1, n_qubits))
        grads = []
        for _ in range(n_samples):
            weights = rng.uniform(0.0, 2.0 * np.pi, size=vqc.n_weights)
            _, gw = adjoint_backward(
                vqc.circuit, vqc.observables, inputs, weights,
                np.ones((1, 1)),
            )
            grads.append(gw[0])
        grads = np.asarray(grads)
        variances.append(float(grads.var()))
        mean_abs.append(float(np.abs(grads).mean()))
    return {
        "experiment": "ablation_barren_plateau",
        "qubit_counts": list(qubit_counts),
        "n_gates": n_gates,
        "n_samples": n_samples,
        "gradient_variance": variances,
        "gradient_mean_abs": mean_abs,
    }
