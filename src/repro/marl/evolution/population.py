"""A population of candidate actor teams behind one ActorGroup interface.

:class:`PopulationActorGroup` lets ``P`` perturbed copies of an actor team
ride the existing rollout engines unchanged: it *is* an
:class:`~repro.marl.actors.ActorGroup` as far as
:class:`~repro.marl.rollout.VectorRolloutCollector` and the process-sharded
worker loop are concerned, but its ``batch_probabilities`` routes each env
row to its owning population member's weights.

Row-to-member mapping
---------------------

Lockstep env row ``e`` (global index) belongs to member ``e % P``: members
are interleaved round-robin, so with ``k`` copies per member the global
layout is ``k`` repeats of the population.  The interleaving is what makes
the stacked quantum path line up with the grouped-weight contract of the
circuit backends (batch row ``b`` uses weight row ``b % G``): flattening
observations copy-major gives row ``b = e * n_agents + a``, whose weight
row is ``member(e) * n_agents + a`` — exactly the ``b``-th row of the
``(n_rows * n_agents, n_weights)`` weight matrix this class builds.  A
worker that owns rows ``[first_row, first_row + n)`` sets ``row_offset``
and the same expansion yields its shard's slice of that matrix, so the
whole generation is **one** circuit evaluation per env step on every
process, with the trailing-block unitaries cached for the generation
(weights only change between generations).

Two evaluation paths, one semantic contract:

- **stacked** (default on exact quantum teams): all members' weights enter
  a single per-sample-weight circuit call.
- **member loop** (reference, and the fallback for classical teams or
  shot/noise backends): members are evaluated one at a time by loading
  each candidate vector into the template team.  The ES equivalence suite
  pins the two paths bit-identical; the loop is the semantic oracle,
  exactly as the serial rollout loop is for the vectorized engines.
"""

from __future__ import annotations

import numpy as np

from repro.marl.actors import ActorGroup, QuantumActorGroup
from repro.marl.evolution import es as _es

__all__ = [
    "flat_team_vector",
    "load_team_vector",
    "PopulationActorGroup",
]


def flat_team_vector(actors):
    """The team's trainable parameters as one flat float64 vector.

    Concatenates ``actors.parameters()`` in order (agent-major) — the
    vector ES perturbs and updates.
    """
    params = actors.parameters()
    if not params:
        raise ValueError(
            "actor team has no trainable parameters; ES cannot train it"
        )
    return np.concatenate([np.asarray(p.data, dtype=np.float64).ravel()
                           for p in params])


def load_team_vector(actors, vector):
    """Write a flat vector back into the team's parameters (in order)."""
    vector = np.asarray(vector, dtype=np.float64)
    cursor = 0
    for param in actors.parameters():
        chunk = vector[cursor:cursor + param.data.size]
        if chunk.size != param.data.size:
            raise ValueError(
                f"vector of size {vector.size} too short for team "
                f"parameters"
            )
        param.data[...] = chunk.reshape(param.data.shape)
        cursor += param.data.size
    if cursor != vector.size:
        raise ValueError(
            f"vector of size {vector.size} does not match team parameter "
            f"count {cursor}"
        )


class PopulationActorGroup(ActorGroup):
    """``P`` candidate teams multiplexed over the lockstep env rows.

    Args:
        template: The live actor team (quantum or classical) whose
            *structure* every member shares.  Quantum teams with an exact
            statevector backend get the stacked single-circuit-call path;
            anything else falls back to the per-member reference loop.
        member_vectors: ``(P, D)`` candidate flat team vectors (see
            :func:`flat_team_vector`); defaults to one member holding the
            template's current weights.
        row_offset: Global index of this process's first env row (0 in the
            parent; a worker's shard start inside the sharded engine) —
            the row-to-member mapping is ``(row_offset + e) % P``.
        stacked: Force the per-member reference loop with ``False`` (the
            ES equivalence suite's oracle mode).
    """

    def __init__(self, template, member_vectors=None, row_offset=0,
                 stacked=True):
        super().__init__(template.actors)
        self.template = template
        team_vector = flat_team_vector(template)
        self._n_parameters = team_vector.size
        if member_vectors is None:
            member_vectors = team_vector[None, :]
        self.set_members(member_vectors)
        self.row_offset = int(row_offset)
        self.stacked = bool(stacked)
        # The stacked path needs every actor's trainable state to be the
        # single per-agent weight vector the shared circuit consumes (true
        # for QuantumActorGroup teams; MLP teams have per-layer matrices).
        self._quantum_stackable = (
            isinstance(template, QuantumActorGroup)
            and template._fast_backend is not None
            and all(
                len(actor.parameters()) == 1
                and actor.parameters()[0].data.ndim == 1
                for actor in template.actors
            )
        )

    # -- population bookkeeping ----------------------------------------------

    @property
    def population(self):
        """Population size ``P``."""
        return self.member_vectors.shape[0]

    def set_members(self, member_vectors):
        """Adopt a new generation's candidate vectors ``(P, D)``; ``D`` must
        be the team's parameter count, as the member loop requires."""
        member_vectors = np.asarray(member_vectors, dtype=np.float64)
        if member_vectors.ndim != 2:
            raise ValueError("member_vectors must have shape (P, D)")
        if member_vectors.shape[1] != self._n_parameters:
            raise ValueError(
                f"vector of size {member_vectors.shape[1]} does not match "
                f"team parameter count {self._n_parameters}"
            )
        self.member_vectors = member_vectors

    def set_row_offset(self, row_offset):
        """Adopt this process's global first-row index (worker shards)."""
        self.row_offset = int(row_offset)

    def load_broadcast(self, payload):
        """Rebuild the generation from a ``(base, sigma, seeds)`` broadcast.

        The sharded engine ships only the base vector plus the pair seeds
        (see :mod:`repro.marl.evolution.es`); every worker reconstructs the
        identical perturbed population locally.
        """
        self.set_members(
            _es.perturb_population(
                payload["base"],
                payload["seeds"],
                payload["sigma"],
                payload["population"],
            )
        )

    def members_for_rows(self, n_rows):
        """Owning member index for each of this process's ``n_rows`` rows."""
        return (self.row_offset + np.arange(int(n_rows))) % self.population

    # -- evaluation -----------------------------------------------------------

    def act(self, observations, rng, greedy=False):
        """Unsupported: population evaluation is batched-only by design."""
        raise RuntimeError(
            "PopulationActorGroup routes env rows to population members; "
            "use act_batch over the lockstep rows, not the serial act()"
        )

    def batch_probabilities(self, observations):
        """``(n_rows, n_agents, A)`` — each row under its member's weights."""
        observations = np.asarray(observations, dtype=np.float64)
        if self.stacked and self._quantum_stackable:
            return self._stacked_probabilities(observations)
        return self._member_loop_probabilities(observations)

    def _member_row_weights(self, n_rows):
        """The per-sample weight matrix for ``n_rows`` rows of observations.

        Row ``e * n_agents + a`` of the (conceptual) full matrix holds
        member ``(row_offset + e) % P``'s weight vector for agent ``a``.
        When this process's rows cover whole population periods
        (``row_offset`` and ``n_rows`` both multiples of ``P`` — the
        in-process engines always do) only the one-period
        ``(P * n_agents, n_weights)`` matrix is returned and the circuit
        batch cycles it group-major (row ``b`` uses weight row ``b % G``),
        so the program tier caches exactly the ``P * n_agents`` distinct
        trailing-block unitaries however many env copies each member owns.
        A shard whose rows are consecutive members without wrapping (every
        worker of a population split evenly) gets a slice of the member
        matrix, a view; other misaligned shards fall back to the fully
        expanded per-row matrix.
        """
        n_rows = int(n_rows)
        population = self.population
        team_weights = self.member_vectors.reshape(population, self.n_agents, -1)
        first = self.row_offset % population
        if first == 0 and n_rows % population == 0:
            return team_weights.reshape(population * self.n_agents, -1)
        if first + n_rows <= population:
            return team_weights[first:first + n_rows].reshape(
                n_rows * self.n_agents, -1
            )
        return team_weights[self.members_for_rows(n_rows)].reshape(
            n_rows * self.n_agents, -1
        )

    def _stacked_probabilities(self, observations):
        """One per-sample-weight circuit evaluation for every row and agent."""
        template = self.template
        n_rows, n_agents = observations.shape[0], observations.shape[1]
        flat_obs = observations.reshape(n_rows * n_agents, -1)
        outputs = template._fast_backend.run(
            template._circuit, template._observables, flat_obs,
            self._member_row_weights(n_rows),
        )
        return template._head_actor._probs_np(outputs).reshape(
            n_rows, n_agents, -1
        )

    def _member_loop_probabilities(self, observations):
        """Reference path: load each member into the template and evaluate.

        Restores the template's original weights afterwards so the loop
        leaves no trace on the live team (the trainer's base vector stays
        authoritative either way).
        """
        n_rows = observations.shape[0]
        members = self.members_for_rows(n_rows)
        out = None
        saved = flat_team_vector(self.template)
        try:
            for member in np.unique(members):
                rows = np.flatnonzero(members == member)
                load_team_vector(self.template, self.member_vectors[member])
                probs = self.template.batch_probabilities(observations[rows])
                if out is None:
                    out = np.empty((n_rows,) + probs.shape[1:])
                out[rows] = probs
        finally:
            load_team_vector(self.template, saved)
        return out

    def __repr__(self):
        return (
            f"PopulationActorGroup(population={self.population}, "
            f"n_agents={self.n_agents}, row_offset={self.row_offset}, "
            f"stacked={self.stacked and self._quantum_stackable})"
        )
