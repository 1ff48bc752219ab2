"""The calibrated settings every experiment and example trains under.

The paper leaves gamma, the batch and the episode length unspecified, and
the runs here are far shorter than its 1000 epochs, so they train at the
calibrated values below rather than at Table II's learning rates.  Each
value is written once; every field not named keeps its :mod:`repro.config`
default.  The Section IV-D comparison means something only if every arm
trains under the same settings, so the experiments and the examples build
their arms with :func:`build_arm` (or, for an environment
``build_framework`` does not build, take the configs from
:func:`arm_configs`).
"""

from __future__ import annotations

from repro.config import TrainingConfig, VQCConfig
from repro.marl.frameworks import build_framework

__all__ = [
    "MAPG",
    "CRITIC",
    "ES",
    "FIG3_PRESETS",
    "ES_PRESETS",
    "preset_row",
    "arm_configs",
    "build_arm",
]

# The paper's CTDE actor-critic (TrainingConfig fields), and the output
# scale of the quantum centralised critic (a VQCConfig field, read by the
# proposed arm only).
MAPG = {"actor_lr": 2e-3, "critic_lr": 1e-3, "entropy_coef": 0.01}
CRITIC = {"critic_value_scale": 10.0}

# Evolutionary strategies: roughly the Kölle et al. small-population regime
# scaled to this environment, at the default population.  ES builds no
# critic, so CRITIC does not apply.
ES = {"es_sigma": 0.15, "es_lr": 0.12}

FIG3_PRESETS = {
    # name: (n_epochs, episode_limit, random-walk episodes)
    "smoke": (8, 15, 10),
    "quick": (60, 30, 30),
    "medium": (150, 50, 50),
    "full": (400, 50, 100),
}

ES_PRESETS = {
    # name: (generations, episode_limit, episodes per member per generation)
    "smoke": (4, 10, 1),
    "quick": (30, 25, 2),
    "medium": (120, 40, 4),
    "full": (400, 50, 4),
}

_CALIBRATED = {"mapg": (CRITIC, MAPG), "es": ({}, ES)}


def preset_row(table, name):
    """The row of a preset table, or ``ValueError`` naming the choices."""
    if name not in table:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(table)}"
        )
    return table[name]


def arm_configs(trainer="mapg", vqc=None, **train):
    """``(vqc_config, train_config)`` at the calibrated settings of
    ``trainer`` (``"mapg"`` or ``"es"``).

    ``vqc`` (a dict of :class:`VQCConfig` fields) and ``train``
    (:class:`TrainingConfig` fields) are set on top of the calibration.
    """
    vqc_fields, train_fields = _CALIBRATED[trainer]
    return (
        VQCConfig(**{**vqc_fields, **(vqc or {})}),
        TrainingConfig(trainer=trainer, **{**train_fields, **train}),
    )


def build_arm(name, seed, env_config, trainer="mapg", vqc=None, **train):
    """:func:`~repro.marl.frameworks.build_framework` for arm ``name`` at
    the calibrated settings (see :func:`arm_configs`)."""
    vqc_config, train_config = arm_configs(trainer, vqc, **train)
    return build_framework(
        name,
        seed=seed,
        env_config=env_config,
        vqc_config=vqc_config,
        train_config=train_config,
    )
