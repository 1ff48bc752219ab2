"""Multi-agent RL: CTDE actor-critic, framework presets, metrics."""

from repro.marl.actors import (
    ActorGroup,
    ClassicalActor,
    QuantumActor,
    QuantumActorGroup,
    RandomActor,
)
from repro.marl.buffer import Episode, RolloutBuffer, TransitionBatch
from repro.marl.checkpoint import checkpoint_info, load_checkpoint, save_checkpoint
from repro.marl.critics import ClassicalCentralCritic, QuantumCentralCritic
from repro.marl.frameworks import (
    FRAMEWORK_NAMES,
    Framework,
    build_framework,
    evaluate_random_walk,
)
from repro.marl.evolution import (
    ESTrainer,
    PopulationActorGroup,
    PopulationRolloutCollector,
)
from repro.marl.parallel import ShardedRolloutCollector
from repro.marl.metrics import (
    MetricsHistory,
    achievability,
    exponential_moving_average,
    rolling_mean,
)
from repro.marl.trainer import (
    CTDETrainer,
    NonFiniteUpdateError,
    rollout_episode,
)

__all__ = [
    "ActorGroup",
    "QuantumActor",
    "QuantumActorGroup",
    "ClassicalActor",
    "RandomActor",
    "Episode",
    "TransitionBatch",
    "RolloutBuffer",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_info",
    "QuantumCentralCritic",
    "ClassicalCentralCritic",
    "Framework",
    "FRAMEWORK_NAMES",
    "build_framework",
    "evaluate_random_walk",
    "MetricsHistory",
    "achievability",
    "exponential_moving_average",
    "rolling_mean",
    "CTDETrainer",
    "ESTrainer",
    "NonFiniteUpdateError",
    "rollout_episode",
    "ShardedRolloutCollector",
    "PopulationActorGroup",
    "PopulationRolloutCollector",
]
