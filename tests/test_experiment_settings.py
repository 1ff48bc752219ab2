"""What each experiment trains under.

Pins, for every experiment that trains an arm, the ``(arm, seed, env, vqc,
train)`` configs it hands :func:`~repro.marl.frameworks.build_framework` at
its smoke arguments.  The expected configs are literal values, so a
calibration that drifts in one experiment fails here by name.
"""

import dataclasses
import sys

import pytest

from repro.config import SingleHopConfig, TrainingConfig, VQCConfig
from repro.experiments import ablations
from repro.experiments.evolution import run_es_training
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.marl import frameworks

CASES = {
    "fig3": lambda: run_fig3(preset="smoke"),
    "fig4": lambda: run_fig4(
        train_epochs=1, n_steps=3, seed=2, episode_limit=6
    ),
    "es-train": lambda: run_es_training(preset="smoke", compare_mapg=True),
    "ablation-noise": lambda: ablations.run_noise_robustness(
        noise_levels=(0.0,), train_epochs=1, episode_limit=4, n_episodes=1,
        seed=3,
    ),
    "ablation-shots": lambda: ablations.run_shot_budget(
        shot_counts=(None,), train_epochs=1, episode_limit=4, n_episodes=1,
        seed=3,
    ),
    "ablation-budget": lambda: ablations.run_parameter_budget(
        budgets=(5, 10), train_epochs=1, episode_limit=4, seed=3
    ),
    "ablation-template": lambda: ablations.run_template_comparison(
        templates=("random", "basic_entangler"), train_epochs=1,
        episode_limit=4, seed=3,
    ),
}

ARMS = ("proposed", "comp1", "comp2", "comp3")
CALIBRATED_VQC = VQCConfig(critic_value_scale=10.0)


def mapg(n_epochs, **fields):
    """A MAPG config at the calibrated settings."""
    return TrainingConfig(
        n_epochs=n_epochs, actor_lr=2e-3, critic_lr=1e-3, entropy_coef=0.01,
        **fields,
    )


EXPECTED = {
    "fig3": [
        (arm, 7, SingleHopConfig(episode_limit=15), CALIBRATED_VQC,
         mapg(8))
        for arm in ARMS
    ],
    "fig4": [
        ("proposed", 2, SingleHopConfig(episode_limit=6), CALIBRATED_VQC,
         mapg(1))
    ],
    "es-train": [
        (
            "proposed", 11, SingleHopConfig(episode_limit=10), VQCConfig(),
            TrainingConfig(
                trainer="es", n_epochs=4, episodes_per_epoch=1,
                es_sigma=0.15, es_lr=0.12,
            ),
        ),
        (
            "proposed", 11, SingleHopConfig(episode_limit=10), CALIBRATED_VQC,
            mapg(4, episodes_per_epoch=8),
        ),
    ],
    "ablation-noise": [
        ("proposed", 3, SingleHopConfig(episode_limit=4), CALIBRATED_VQC,
         mapg(1))
    ],
    "ablation-shots": [
        ("proposed", 3, SingleHopConfig(episode_limit=4), CALIBRATED_VQC,
         mapg(1))
    ],
    "ablation-budget": [
        (
            "proposed", 3, SingleHopConfig(episode_limit=4),
            VQCConfig(n_variational_gates=budget, critic_value_scale=10.0),
            mapg(1),
        )
        for budget in (5, 10)
    ],
    "ablation-template": [
        (
            "proposed", 3, SingleHopConfig(episode_limit=4),
            VQCConfig(template=template, critic_value_scale=10.0),
            mapg(1),
        )
        for template in ("random", "basic_entangler")
    ],
}


def _resolved(train):
    """``train`` with its ES knobs as the ES trainer reads them, so an unset
    knob and its documented default compare equal."""
    if train.trainer != "es":
        return train
    return dataclasses.replace(train, **{
        knob: getattr(train, f"effective_{knob}")
        for knob in ("es_population", "es_sigma", "es_lr", "es_weight_decay")
    })


@pytest.fixture(scope="module")
def built():
    """Each case's ``build_framework`` calls, as ``(arm, seed, env, vqc,
    train)`` with the defaults ``build_framework`` applies filled in."""
    real = frameworks.build_framework
    calls = {}

    def spy(name, seed=0, env_config=None, vqc_config=None,
            train_config=None, **rest):
        calls[case].append((
            name,
            seed,
            env_config if env_config is not None else SingleHopConfig(),
            vqc_config if vqc_config is not None else VQCConfig(),
            _resolved(
                train_config if train_config is not None else TrainingConfig()
            ),
        ))
        return real(name, seed=seed, env_config=env_config,
                    vqc_config=vqc_config, train_config=train_config, **rest)

    with pytest.MonkeyPatch.context() as patch:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.experiments")
                    and getattr(module, "build_framework", None) is real):
                patch.setattr(module, "build_framework", spy)
        for case, run in CASES.items():
            calls[case] = []
            run()
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_settings_pinned(built, case):
    expected = [(*head, _resolved(train)) for *head, train in EXPECTED[case]]
    assert built[case] == expected


def test_es_train_mapg_arm_trains_at_fig3_settings(built):
    """es-train's MAPG comparison arm trains under fig3's calibration."""
    _, _, _, fig3_vqc, fig3_train = built["fig3"][0]
    (_, _, _, _, es_train), (_, _, _, vqc, train) = built["es-train"]
    assert es_train.trainer == "es" and train.trainer == "mapg"
    assert vqc == fig3_vqc
    calibrated = ("gamma", "actor_lr", "critic_lr", "target_update_period",
                  "grad_clip", "entropy_coef")
    assert ({f: getattr(train, f) for f in calibrated}
            == {f: getattr(fig3_train, f) for f in calibrated})
