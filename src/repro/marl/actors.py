"""Actors: decentralised policies over local observations.

Three families, matching the paper's comparison:

- :class:`QuantumActor` — the paper's VQC policy
  ``pi(u|o) = softmax(f(o; theta))`` (Proposed and Comp1);
- :class:`ClassicalActor` — an MLP policy under the same parameter budget
  (Comp2) or a much larger one (Comp3);
- :class:`RandomActor` — the uniform random-walk reference used for the
  achievability normalisation.

:class:`QuantumActorGroup` exploits that all agents' actors share one
circuit *structure* (they differ only in weights): during rollouts the whole
team's action distributions are computed with a single batched circuit
evaluation using per-sample weights.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Module, mlp
from repro.nn.quantum_layer import QuantumLayer
from repro.nn.tensor import Tensor, as_tensor
from repro.quantum.backends import StatevectorBackend
from repro.quantum.gradients import backward as _qbackward

__all__ = [
    "QuantumActor",
    "ClassicalActor",
    "RandomActor",
    "ActorGroup",
    "QuantumActorGroup",
    "categorical_from_draws",
    "check_policy_rows",
]


def _stable_softmax_np(logits):
    # Exponentiate and normalise in the freshly shifted array.
    exps = logits - logits.max(axis=-1, keepdims=True)
    np.exp(exps, out=exps)
    exps /= exps.sum(axis=-1, keepdims=True)
    return exps


def categorical_from_draws(probs, draws):
    """One categorical sample per row of ``(R, A)`` probabilities, from the
    given uniform draws.

    Replicates ``numpy.random.Generator.choice(A, p=row)`` exactly — the
    same normalised-cumsum inversion, one draw per row in row order.  Split
    from the draw step so process-sharded rollouts can consume a slice of a
    globally drawn block (each worker draws the full block from its stream
    replica and inverts only its shard's rows, keeping the stream bit-aligned
    with the in-process engine regardless of shard assignment).
    """
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    draws = np.asarray(draws, dtype=np.float64)
    actions = (cdf <= draws[:, None]).sum(axis=1)
    return np.minimum(actions, probs.shape[1] - 1)


def check_policy_rows(probs, first_row=0):
    """Raise ``ValueError`` unless every policy row — the last axis of
    ``(N, n_agents, A)`` or ``(R, A)`` probabilities — is finite and sums to
    a positive value.

    The batched engines' counterpart of ``Generator.choice`` rejecting a bad
    distribution in the serial loop: categorical inversion and ``argmax``
    would otherwise turn such a row into action 0.  One reduction per round;
    the message names the first bad row (env rows offset by ``first_row``).
    """
    sums = probs.sum(axis=-1)
    if not sums.size or (sums.min() > 0.0 and np.isfinite(sums.max())):
        return
    bad = ~(np.isfinite(sums) & (sums > 0.0))
    index = tuple(np.argwhere(bad)[0])
    where = f"row {first_row + index[0]}"
    if len(index) == 2:
        where = f"env {where}, agent {index[1]}"
    raise ValueError(
        f"policy probabilities of {where} are not finite or do not sum to "
        f"a positive value: {probs[index]}"
    )


def _sample_categorical_rows(probs, rng):
    """One categorical sample per row of a ``(R, A)`` probability matrix.

    Same semantics as per-observation serial ``choice`` sampling (see
    :func:`categorical_from_draws`), while avoiding ``R`` python-level
    ``choice`` calls per step.
    """
    probs = np.asarray(probs, dtype=np.float64)
    return categorical_from_draws(probs, rng.random(probs.shape[0]))


def born_observables(n_action_qubits):
    """The Pauli-Z correlation basis measured by the Born policy head.

    For ``k`` action qubits, the measurement probabilities of the ``2**k``
    outcomes are an exact linear function of the ``2**k - 1`` expectation
    values ``<Z_S> = <prod_{i in S} Z_i>`` over non-empty subsets ``S``:

        P(o) = 2**-k * (1 + sum_S (-1)**parity(o, S) <Z_S>)

    Returns ``(observables, sign_matrix)`` with ``sign_matrix`` of shape
    ``(2**k, 2**k - 1)``.
    """
    from repro.quantum.observables import PauliString

    if n_action_qubits < 1:
        raise ValueError("need at least one action qubit")
    subsets = [
        s for s in range(1, 2**n_action_qubits)
    ]  # bitmask over qubits, non-empty
    observables = [
        PauliString(
            {q: "Z" for q in range(n_action_qubits) if s >> q & 1}
        )
        for s in subsets
    ]
    n_outcomes = 2**n_action_qubits
    signs = np.empty((n_outcomes, len(subsets)))
    for outcome in range(n_outcomes):
        # Outcome bit for qubit q, matching the simulator's convention of
        # qubit 0 as the most-significant bit of the basis index.
        bits = [
            (outcome >> (n_action_qubits - 1 - q)) & 1
            for q in range(n_action_qubits)
        ]
        for j, s in enumerate(subsets):
            parity = sum(bits[q] for q in range(n_action_qubits) if s >> q & 1)
            signs[outcome, j] = (-1.0) ** parity
    return observables, signs


class QuantumActor(Module):
    """VQC policy: the paper's ``softmax(f(o))`` or a Born-measurement head.

    Two heads, both using the same circuit and weight budget:

    - ``policy_head="softmax"`` — the paper's Eq. in Section III-A1:
      ``pi = softmax(logit_scale * <Z_j>)``.  Note the expectations are
      bounded in [-1, 1], so with ``logit_scale=1`` the policy can never
      exceed ``e^2``:1 odds (max prob ~0.71 for 4 actions) — a built-in
      stochasticity floor.
    - ``policy_head="born"`` — reads Fig. 2's ``P(a_i)`` annotation
      literally: the policy *is* the measurement distribution of the first
      ``log2(A)`` qubits.  Computed exactly (and differentiably) from the
      Z-correlation expectations; this head can become deterministic.

    Args:
        vqc: Circuit bundle whose output count equals the action count
            (softmax head) — for the born head the observables are replaced
            by the correlation basis automatically.
        rng: Generator for weight initialisation.
        backend: Execution backend (exact statevector by default).
        gradient_method: Differentiation method for training.
        logit_scale: Softmax-head multiplier (1.0 = the paper's formula).
        policy_head: ``"softmax"`` (paper formula, default) or ``"born"``.
    """

    def __init__(self, vqc, rng, backend=None, gradient_method="adjoint",
                 logit_scale=1.0, policy_head="softmax"):
        if policy_head not in ("softmax", "born"):
            raise ValueError(f"unknown policy head {policy_head!r}")
        self.policy_head = policy_head
        self.n_actions = vqc.n_outputs
        self._born_signs = None
        if policy_head == "born":
            n_action_qubits = int(np.log2(self.n_actions))
            if 2**n_action_qubits != self.n_actions:
                raise ValueError(
                    "born head needs a power-of-two action count, got "
                    f"{self.n_actions}"
                )
            observables, signs = born_observables(n_action_qubits)
            from repro.quantum.vqc import VQC

            vqc = VQC(vqc.circuit, observables, vqc.template)
            self._born_signs = signs
        self.layer = QuantumLayer(
            vqc, rng, backend=backend, gradient_method=gradient_method
        )
        self.logit_scale = float(logit_scale)

    _BORN_EPSILON = 1e-8

    def _born_probs_np(self, expectations):
        n_outcomes = self._born_signs.shape[0]
        probs = (1.0 + expectations @ self._born_signs.T) / n_outcomes
        probs = np.clip(probs, self._BORN_EPSILON, None)
        return probs / probs.sum(axis=1, keepdims=True)

    def _born_probs(self, outputs):
        """Differentiable born probabilities from Z-correlation expectations.

        Shared by the per-actor forward and the group's stacked update path
        so the head's smoothing can never drift between them.  Clamps the
        (nonneg-by-construction) probabilities away from 0 so log-policy
        gradients stay finite under float round-off.
        """
        n_outcomes = self._born_signs.shape[0]
        probs = (outputs @ self._born_signs.T + 1.0) * (1.0 / n_outcomes)
        return (probs + self._BORN_EPSILON) * (
            1.0 / (1.0 + self.n_actions * self._BORN_EPSILON)
        )

    def forward(self, observations):
        """Action probabilities as a differentiable ``(B, A)`` tensor."""
        outputs = self.layer(as_tensor(observations))
        if self.policy_head == "born":
            return self._born_probs(outputs)
        return F.softmax(outputs * self.logit_scale, axis=-1)

    def log_policy(self, observations):
        """Log action probabilities, differentiable ``(B, A)``."""
        if self.policy_head == "born":
            return F.log(self.forward(observations))
        logits = self.layer(as_tensor(observations)) * self.logit_scale
        return F.log_softmax(logits, axis=-1)

    def probabilities(self, observations):
        """Non-differentiable fast path: numpy ``(B, A)`` probabilities."""
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim == 1:
            observations = observations[None, :]
        vqc = self.layer.vqc
        outputs = self.layer.backend.run(
            vqc.circuit, vqc.observables, observations, self.layer.weights.data
        )
        return self._probs_np(outputs)

    def _probs_np(self, outputs):
        """Numpy ``(B, A)`` action probabilities from circuit expectations."""
        if self.policy_head == "born":
            return self._born_probs_np(outputs)
        return _stable_softmax_np(outputs * self.logit_scale)

    def sample_action(self, observation, rng):
        """Sample one action from the policy for a single observation."""
        probs = self.probabilities(observation)[0]
        return int(rng.choice(len(probs), p=probs))

    def greedy_action(self, observation):
        """Arg-max action (decentralised execution, Section III-A1)."""
        return int(np.argmax(self.probabilities(observation)[0]))

    def with_backend(self, backend, gradient_method="parameter_shift"):
        """A clone sharing this actor's circuit and weights on another backend.

        Used to evaluate a trained policy under noise or finite shots
        without retraining (the weights tensor is shared, not copied).
        """
        clone = QuantumActor.__new__(QuantumActor)
        layer = QuantumLayer.__new__(QuantumLayer)
        layer.vqc = self.layer.vqc
        layer.backend = backend
        layer.gradient_method = gradient_method
        layer.weights = self.layer.weights
        clone.layer = layer
        clone.logit_scale = self.logit_scale
        clone.n_actions = self.n_actions
        clone.policy_head = self.policy_head
        clone._born_signs = self._born_signs
        return clone


class ClassicalActor(Module):
    """MLP policy under a configurable parameter budget (Comp2 / Comp3)."""

    def __init__(self, obs_size, n_actions, hidden, rng, activation="tanh"):
        sizes = (obs_size, *hidden, n_actions)
        self.net = mlp(sizes, rng, activation=activation)
        self.n_actions = int(n_actions)

    def forward(self, observations):
        """Action probabilities as a differentiable ``(B, A)`` tensor."""
        return F.softmax(self.net(as_tensor(observations)), axis=-1)

    def log_policy(self, observations):
        """Log action probabilities, differentiable ``(B, A)``."""
        return F.log_softmax(self.net(as_tensor(observations)), axis=-1)

    def probabilities(self, observations):
        """Numpy probabilities without touching gradients."""
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim == 1:
            observations = observations[None, :]
        return self.forward(observations).data

    def sample_action(self, observation, rng):
        """Sample one action from the policy for a single observation."""
        probs = self.probabilities(observation)[0]
        return int(rng.choice(len(probs), p=probs))

    def greedy_action(self, observation):
        """Arg-max action."""
        return int(np.argmax(self.probabilities(observation)[0]))


class RandomActor:
    """Uniform policy — the paper's random-walk reference."""

    supports_greedy = False

    def __init__(self, n_actions):
        self.n_actions = int(n_actions)

    def probabilities(self, observations):
        """Uniform ``(B, A)`` probabilities."""
        observations = np.asarray(observations)
        batch = observations.shape[0] if observations.ndim > 1 else 1
        return np.full((batch, self.n_actions), 1.0 / self.n_actions)

    def sample_action(self, observation, rng):
        """Uniformly random action."""
        return int(rng.integers(self.n_actions))

    def greedy_action(self, observation):
        """Random actors have no greedy mode; still random by design."""
        raise RuntimeError(
            "RandomActor has no greedy action; evaluate it stochastically"
        )

    def parameters(self):
        """Random actors are parameterless."""
        return []

    def n_parameters(self):
        """Zero trainable parameters."""
        return 0


class ActorGroup:
    """A team of per-agent actors with a uniform act() interface."""

    def __init__(self, actors):
        self.actors = list(actors)
        if not self.actors:
            raise ValueError("need at least one actor")

    @property
    def n_agents(self):
        """Team size."""
        return len(self.actors)

    def act(self, observations, rng, greedy=False):
        """One action per agent given the per-agent observation list."""
        actions = []
        for actor, obs in zip(self.actors, observations):
            if greedy:
                actions.append(actor.greedy_action(obs))
            else:
                actions.append(actor.sample_action(obs, rng))
        return actions

    def check_greedy_support(self):
        """Raise ``RuntimeError`` if some actor has no greedy action."""
        for actor in self.actors:
            if not getattr(actor, "supports_greedy", True):
                raise RuntimeError(
                    f"{type(actor).__name__} has no greedy action; "
                    "evaluate it stochastically"
                )

    # -- vectorized inference -------------------------------------------------

    def batch_probabilities(self, observations):
        """``(N, n_agents, A)`` probabilities for stacked observations.

        ``observations`` is ``(N, n_agents, obs_size)`` — one row per
        lockstep environment copy.  The base implementation runs one batched
        forward per agent; :class:`QuantumActorGroup` overrides it with a
        single circuit evaluation over all ``N * n_agents`` rows.
        """
        observations = np.asarray(observations, dtype=np.float64)
        return np.stack(
            [
                actor.probabilities(observations[:, n, :])
                for n, actor in enumerate(self.actors)
            ],
            axis=1,
        )

    def _check_rows(self, observations, agent_indices):
        """Validate and normalise ragged-row inputs for rows_probabilities."""
        observations = np.asarray(observations, dtype=np.float64)
        agent_indices = np.asarray(agent_indices, dtype=np.int64)
        if observations.ndim != 2:
            raise ValueError(
                f"observations must be (R, obs_size), got {observations.shape}"
            )
        if agent_indices.shape != (observations.shape[0],):
            raise ValueError(
                f"{observations.shape[0]} observation rows but "
                f"{agent_indices.shape} agent indices"
            )
        if agent_indices.size and (
            agent_indices.min() < 0 or agent_indices.max() >= self.n_agents
        ):
            raise ValueError(
                f"agent indices must be in [0, {self.n_agents}), got "
                f"range [{agent_indices.min()}, {agent_indices.max()}]"
            )
        return observations, agent_indices

    def rows_probabilities(self, observations, agent_indices):
        """``(R, A)`` probabilities for ragged rows of (agent, observation).

        Row ``r`` is agent ``agent_indices[r]`` evaluated on
        ``observations[r]`` — the serving tier's shape, where one
        micro-batch mixes arbitrary agents in arbitrary order (unlike
        :meth:`batch_probabilities`, which wants every agent once per env
        copy).  The base implementation runs one batched forward per
        *distinct* agent; :class:`QuantumActorGroup` overrides it with a
        single stacked circuit evaluation.
        """
        observations, agent_indices = self._check_rows(
            observations, agent_indices
        )
        n_actions = self.actors[0].n_actions
        probs = np.empty((observations.shape[0], n_actions))
        for agent in np.unique(agent_indices):
            mask = agent_indices == agent
            probs[mask] = self.actors[int(agent)].probabilities(
                observations[mask]
            )
        return probs

    def act_batch(self, observations, rng, greedy=False):
        """``(N, n_agents)`` actions for ``(N, n_agents, obs_size)`` inputs.

        The batched counterpart of :meth:`act`: all environment copies'
        observations go through each policy in one forward pass.  For
        policy actors (quantum/classical), action sampling consumes ``rng``
        bit-identically to ``N`` successive serial :meth:`act` calls
        (row-major: copy 0's agents first).  :class:`RandomActor` is the
        exception: serial sampling draws bounded integers while this path
        samples its uniform distribution, so the random arm's streams
        differ between serial and batched rollouts (it is untrained, so
        only stream layout — not statistics — changes).
        """
        if greedy:
            self.check_greedy_support()
        probs = self.batch_probabilities(observations)
        check_policy_rows(probs)
        n_envs, n_agents, n_actions = probs.shape
        if greedy:
            return np.argmax(probs, axis=2)
        flat = _sample_categorical_rows(
            probs.reshape(n_envs * n_agents, n_actions), rng
        )
        return flat.reshape(n_envs, n_agents)

    # -- vectorized training --------------------------------------------------

    def stacked_log_policies(self, observations):
        """Differentiable ``(B, n_agents, A)`` log-policies for an update batch.

        ``observations`` is the transition batch's ``(B, n_agents, obs_size)``
        array.  The base implementation runs one forward per agent and stacks
        the results (gradients still flow into every actor);
        :class:`QuantumActorGroup` overrides it with a *single* batched
        circuit evaluation over all ``B * n_agents`` rows using per-sample
        weights — the update-path counterpart of :meth:`batch_probabilities`.
        """
        observations = np.asarray(observations, dtype=np.float64)
        return F.stack(
            [
                actor.log_policy(observations[:, n, :])
                for n, actor in enumerate(self.actors)
            ],
            axis=1,
        )

    def parameters(self):
        """All trainable parameters across the team."""
        params = []
        for actor in self.actors:
            params.extend(actor.parameters())
        return params

    def n_parameters(self):
        """Total trainable parameter count across the team."""
        return sum(actor.n_parameters() for actor in self.actors)

    def zero_grad(self):
        """Clear gradients on every actor."""
        for actor in self.actors:
            if hasattr(actor, "zero_grad"):
                actor.zero_grad()


class QuantumActorGroup(ActorGroup):
    """Quantum team with single-circuit batched rollouts and updates.

    All actors must share one circuit structure (same ansatz seed); each
    keeps its own weight vector.  ``act`` stacks the team's observations
    ``(N, obs)`` and weights ``(N, n_weights)`` and evaluates the shared
    circuit once with grouped weights — one simulator call per environment
    step instead of N.  On the program tier the frozen variational block
    runs as per-agent unitaries cached between weight updates (see
    :meth:`~repro.quantum.program.CircuitProgram.suffix_unitary`), so a
    rollout step costs one encoding pass plus one small matmul.
    """

    def __init__(self, actors):
        super().__init__(actors)
        first = self.actors[0]
        if not all(
            a.layer.vqc.circuit is first.layer.vqc.circuit for a in self.actors
        ):
            raise ValueError(
                "QuantumActorGroup requires actors sharing one circuit object"
            )
        self._circuit = first.layer.vqc.circuit
        self._observables = first.layer.vqc.observables
        self._logit_scale = first.logit_scale
        self._head_actor = first
        if not all(a.policy_head == first.policy_head for a in self.actors):
            raise ValueError("all actors must share one policy head")
        # Batched evaluation is only exact when measurements are exact; with
        # shots or noise, fall back to per-actor calls.
        backend = first.layer.backend
        self._fast_backend = (
            backend
            if isinstance(backend, StatevectorBackend) and backend.shots is None
            else None
        )

    def team_probabilities(self, observations):
        """``(n_agents, A)`` action probabilities for the whole team at once.

        The one-copy case of :meth:`batch_probabilities` (same arrays, same
        floats) — kept as the serial rollout's entry point.
        """
        stacked_obs = np.stack(
            [np.asarray(o, dtype=np.float64) for o in observations]
        )
        return self.batch_probabilities(stacked_obs[None])[0]

    def act(self, observations, rng, greedy=False):
        """One action per agent, computed with one batched circuit call."""
        probs = self.team_probabilities(observations)
        if greedy:
            return [int(a) for a in np.argmax(probs, axis=1)]
        actions = []
        for row in probs:
            actions.append(int(rng.choice(len(row), p=row)))
        return actions

    def batch_probabilities(self, observations):
        """``(N, n_agents, A)`` probabilities via one circuit evaluation.

        Stacks all copies' observations into ``(N * n_agents)`` rows
        (copy-major) with the agents' weight rows cycled over the batch, so
        the whole fleet of policies is one batched simulator call.  Only
        the ``n_agents`` distinct trailing-block unitaries are built, cached
        between weight updates independently of ``N`` — a rollout step
        costs one encoding pass plus one batched matmul.  For ``N = 1`` this
        is exactly :meth:`team_probabilities` — same arrays, same floats.
        """
        observations = np.asarray(observations, dtype=np.float64)
        if self._fast_backend is None:
            # Shot/noise backends sample per actor; fall back to the
            # per-agent batched path (still one backend call per agent).
            return super().batch_probabilities(observations)
        n_envs, n_agents = observations.shape[0], observations.shape[1]
        flat_obs = observations.reshape(n_envs * n_agents, -1)
        outputs = self._fast_backend.run(
            self._circuit, self._observables, flat_obs, self._team_weights()
        )
        return self._head_actor._probs_np(outputs).reshape(n_envs, n_agents, -1)

    def rows_probabilities(self, observations, agent_indices):
        """``(R, A)`` ragged-row probabilities via one circuit evaluation.

        Runs the whole micro-batch as a single stacked simulator call in
        which row ``r`` uses agent ``agent_indices[r]``'s weights.  Only the
        ``n_agents`` distinct trailing-block unitaries are built — the same
        cache entry the rollout paths use, so serving and training never
        rebuild each other's work.
        """
        observations, agent_indices = self._check_rows(
            observations, agent_indices
        )
        if self._fast_backend is None or observations.shape[0] == 0:
            return super().rows_probabilities(observations, agent_indices)
        outputs = self._fast_backend.run_rows(
            self._circuit, self._observables, observations,
            self._team_weights(), agent_indices,
        )
        return self._head_actor._probs_np(outputs)

    def _team_weights(self):
        """The agents' weight vectors as one ``(n_agents, n_weights)`` matrix."""
        return np.stack([a.layer.weights.data for a in self.actors])

    def _stacked_expectations(self, observations):
        """Differentiable ``(B * n_agents, n_obs)`` team expectations.

        One batched circuit evaluation with the agents' weight rows cycled
        over the batch, whose backward pass runs one adjoint sweep for the
        whole team and routes each agent's weight-gradient row back into
        that agent's own ``Parameter``.
        """
        b, n_agents = observations.shape[0], observations.shape[1]
        flat_obs = observations.reshape(b * n_agents, -1)
        weight_params = [actor.layer.weights for actor in self.actors]
        weights = self._team_weights()
        circuit, observables = self._circuit, self._observables

        out_data = self._fast_backend.run(circuit, observables, flat_obs, weights)

        def backward_fn(grad):
            _, weight_grads = _qbackward(
                circuit, observables, flat_obs, weights, grad,
                method="adjoint", input_grads=False,
            )
            for param, row in zip(weight_params, weight_grads):
                param._accumulate(row)

        return Tensor._from_op(out_data, tuple(weight_params), backward_fn)

    def stacked_log_policies(self, observations):
        """``(B, n_agents, A)`` log-policies from one circuit evaluation.

        Replaces the per-agent training forwards with a single batched call
        (and a single adjoint reverse sweep on backward).  Falls back to the
        per-agent path for inexact backends or non-adjoint gradient methods,
        where per-sample-weight batching is not available.
        """
        observations = np.asarray(observations, dtype=np.float64)
        if self._fast_backend is None or any(
            actor.layer.gradient_method != "adjoint" for actor in self.actors
        ):
            return super().stacked_log_policies(observations)
        b, n_agents = observations.shape[0], observations.shape[1]
        outputs = self._stacked_expectations(observations)
        if self._head_actor.policy_head == "born":
            log_flat = F.log(self._head_actor._born_probs(outputs))
        else:
            log_flat = F.log_softmax(outputs * self._logit_scale, axis=-1)
        return log_flat.reshape(b, n_agents, -1)
