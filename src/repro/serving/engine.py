"""The in-process policy engine: a warm framework behind a generation counter.

The engine owns everything the serving tier needs to turn a micro-batch of
(agent, observation) rows into actions with ONE stacked circuit call:

- a built :class:`~repro.marl.frameworks.Framework` whose compiled circuit
  programs are pre-warmed (the first real request never pays compile cost);
- the checkpoint *generation* counter — it increments exactly when a new
  checkpoint is swapped in, so every response can state which weights
  produced it;
- the action-sampling stream.  Every row's uniform is drawn from this one
  seeded stream, in batch order, so responses are reproducible under a
  fixed ``sample_seed``.

Hot reload goes through :meth:`PolicyEngine.load_shadow` (build + load +
warm a second framework, off the event loop) followed by
:meth:`PolicyEngine.swap` (a pointer flip the server schedules between
batches).  In-flight batches keep evaluating on the old framework object;
nothing is ever mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.marl.actors import categorical_from_cdf, policy_cdf
from repro.marl.checkpoint import load_checkpoint
from repro.marl.frameworks import build_framework

__all__ = [
    "FrameworkSpec",
    "build_inference_framework",
    "select_actions",
    "PolicyEngine",
]


@dataclass(frozen=True)
class FrameworkSpec:
    """Recipe for building identical inference frameworks.

    The engine keeps it so a hot reload can build a shadow framework with
    the same circuit structure and load the new checkpoint into it.

    Args:
        name: Framework arm (``"proposed"``, ``"comp1"``, ...).
        seed: Root seed for the built framework.  Irrelevant once a
            checkpoint is loaded, but kept explicit for reproducibility of
            un-checkpointed smoke setups.
        env_config: :class:`~repro.config.SingleHopConfig` or None (defaults).
        vqc_config: :class:`~repro.config.VQCConfig` or None (defaults).
    """

    name: str = "proposed"
    seed: int = 0
    env_config: object = None
    vqc_config: object = None


def build_inference_framework(spec):
    """Build a framework from a spec (policy structure is all serving needs)."""
    return build_framework(
        spec.name,
        seed=spec.seed,
        env_config=spec.env_config,
        vqc_config=spec.vqc_config,
    )


def select_actions(probs, greedy_mask, draws):
    """``(R,)`` actions from ``(R, A)`` probabilities.

    Every row inverts its pre-drawn uniform through the categorical CDF
    (:func:`categorical_from_cdf`), whose cumulative sums also carry the
    policy-row check for every row; greedy rows then take their argmax
    instead.  ``draws`` must hold one uniform per row — greedy rows' draws
    are simply unused, which keeps the draw layout independent of the
    greedy pattern.  The inversion works row by row, so a sampled row gets
    the action it would get alone.  A row that is not a distribution
    (non-finite, or no positive mass) raises ``ValueError`` instead of
    silently becoming action 0.
    """
    actions = categorical_from_cdf(
        policy_cdf(probs), np.asarray(draws, dtype=np.float64)
    )
    if any(greedy_mask):
        greedy_mask = np.asarray(greedy_mask, dtype=bool)
        actions[greedy_mask] = np.argmax(
            np.asarray(probs)[greedy_mask], axis=1
        )
    return actions


class PolicyEngine:
    """Evaluate ragged micro-batches on a warm framework.

    Args:
        spec: :class:`FrameworkSpec` for the policy structure.
        checkpoint_path: Optional checkpoint to load at startup
            (``weights_only`` — serving never touches trainer state).
        sample_seed: Seed for the engine-owned action-sampling stream.
    """

    def __init__(self, spec, checkpoint_path=None, sample_seed=0):
        self.spec = spec
        self._framework = build_inference_framework(spec)
        self.generation = 0
        self.checkpoint_path = None
        self._sample_rng = np.random.default_rng(sample_seed)
        if checkpoint_path is not None:
            self.load(checkpoint_path)
        _warm(self._framework)

    @property
    def framework(self):
        """The currently serving framework (swapped atomically on reload)."""
        return self._framework

    @property
    def n_agents(self):
        return self._framework.env.n_agents

    @property
    def n_actions(self):
        return self._framework.actors.actors[0].n_actions

    @property
    def observation_size(self):
        return self._framework.env.observation_size

    def load(self, path):
        """Load a checkpoint into the live framework (startup only —
        while serving, go through :meth:`load_shadow` + :meth:`swap`)."""
        load_checkpoint(self._framework, path, weights_only=True)
        self.checkpoint_path = path
        self.generation += 1

    def load_shadow(self, path):
        """Build, load, and warm a fresh framework without touching the
        serving one.  Runs on the watcher thread; the returned framework is
        ready to :meth:`swap` in with zero on-loop work beyond the flip."""
        shadow = build_inference_framework(self.spec)
        load_checkpoint(shadow, path, weights_only=True)
        _warm(shadow)
        return shadow

    def swap(self, framework, checkpoint_path=None):
        """Point serving at a shadow-loaded framework; bumps the generation.

        The old framework object is untouched, so a batch that captured it
        before the swap finishes on the old weights — the generation in its
        responses says so.
        """
        old = self._framework
        self._framework = framework
        self.checkpoint_path = checkpoint_path
        self.generation += 1
        old.close()

    def infer(self, observations, agents):
        """``(R, A)`` probabilities + the generation that produced them."""
        framework = self._framework
        probs = framework.actors.rows_probabilities(observations, agents)
        return probs, self.generation

    def act(self, observations, agents, greedy_mask):
        """``(actions, probs, generation)`` for one micro-batch."""
        probs, generation = self.infer(observations, agents)
        draws = self._sample_rng.random(probs.shape[0])
        return select_actions(probs, greedy_mask, draws), probs, generation

    def close(self):
        self._framework.close()


def _warm(framework):
    """Run one dummy micro-batch so compiled programs and suffix-unitary
    caches exist before the first real request."""
    env = framework.env
    obs = np.zeros((env.n_agents, env.observation_size))
    framework.actors.rows_probabilities(obs, np.arange(env.n_agents))
