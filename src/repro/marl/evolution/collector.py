"""Sharded population rollouts: ES generations over the worker pool.

:class:`PopulationRolloutCollector` is the process-sharded engine of the ES
trainer — a thin specialisation of
:class:`~repro.marl.parallel.ShardedRolloutCollector` where the lockstep
rows multiplex population members instead of replicating one team:

- the ``actors`` handed to the base class (and therefore mirrored into
  every worker) is a :class:`~repro.marl.evolution.population.\
PopulationActorGroup`, whose row-to-member mapping each worker applies to
  its own shard via the ``row_offset`` the worker loop sets from the
  shard's first global row;
- the per-collect weight broadcast is replaced by the ES generation
  broadcast: only the **base** flat team vector, ``sigma``, the population
  size and the per-pair noise seeds travel to the workers (a few hundred
  bytes regardless of population size), and every worker reconstructs the
  identical perturbed population locally
  (:func:`~repro.marl.evolution.es.perturb_population`).

Everything else — shard layout, per-row env streams, the global
action-sampling stream replay, crash restart-and-requeue from checkpoints,
the block-by-block ``(round, row)`` reassembly — is inherited unchanged,
which is exactly why sharded ES is bit-identical to in-process ES for any
worker count (pinned by the ES axis of the unified cross-engine harness).
So is the rejection of ragged envs at construction; the ES *trainer*
rejects them anyway, since its fitness attribution maps episodes to
population members by position, which only holds under lockstep
completion (see :class:`~repro.marl.evolution.trainer.ESTrainer`).  The
trainer collects generations stats-only (``transitions=False``), so no
transition block crosses the worker pipes.
"""

from __future__ import annotations

from repro.marl.evolution.population import PopulationActorGroup
from repro.marl.parallel.collector import ShardedRolloutCollector

__all__ = ["PopulationRolloutCollector"]


class PopulationRolloutCollector(ShardedRolloutCollector):
    """Collect a population's episodes across worker processes.

    Args:
        env: The serial reference environment (row 0 shares its stream, as
            in the base class).
        population_group: The parent-side :class:`PopulationActorGroup`
            (its template is mirrored into the workers at pool start).
        n_envs: Total lockstep rows ``k * P`` (``k`` copies per member).
        n_workers: Worker process count (clamped to ``n_envs``).
        **kwargs: ``start_method`` of the base class.
    """

    def __init__(self, env, population_group, n_envs, n_workers, **kwargs):
        if not isinstance(population_group, PopulationActorGroup):
            raise TypeError(
                "PopulationRolloutCollector needs a PopulationActorGroup, "
                f"got {type(population_group).__name__}"
            )
        if n_envs % population_group.population:
            raise ValueError(
                f"n_envs={n_envs} must be a multiple of the population "
                f"size {population_group.population} (every member owns "
                f"the same number of rows)"
            )
        self._generation = None
        super().__init__(env, population_group, n_envs, n_workers, **kwargs)

    def set_generation(self, base, seeds, sigma):
        """Stage the next collect's generation broadcast.

        Must be called before every :meth:`collect`; the broadcast replaces
        the base class's per-actor weight states, and a crash-restarted
        worker replays it bit-exactly (the seeds regenerate the noise).
        """
        self._generation = {
            "kind": "es-generation",
            "base": base,
            "seeds": tuple(seeds),
            "sigma": float(sigma),
            "population": self.actors.population,
        }
        # Keep the parent-side group on the same generation, so anything
        # inspecting it (tests, repr) matches what the workers evaluate.
        self.actors.load_broadcast(self._generation)

    def _actor_weight_states(self):
        """The per-collect broadcast: the ES generation, not weight dicts."""
        if self._generation is None:
            raise RuntimeError(
                "call set_generation(base, seeds, sigma) before collect()"
            )
        return self._generation
