"""Experiment configuration dataclasses.

Defaults reproduce Table II of the paper.  Quantities the paper leaves
unspecified are marked "(unspecified; ...)" in the field docstrings below,
with the documented, overridable default each uses.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "SingleHopConfig",
    "VQCConfig",
    "ClassicalNetConfig",
    "TrainingConfig",
    "ServingConfig",
    "replace",
]


def check_env_quantity(name, value, positive=False):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and
    ``>= 0`` (``> 0`` with ``positive``).  NaN fails both comparisons, so
    it cannot slip through as a sign check alone would let it."""
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def check_integer(name, value, minimum):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    ``>= minimum``.  numpy integers pass; a bool or a float does not, so
    ``True`` cannot stand in for 1 nor 2.7 truncate to 2."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class SingleHopConfig:
    """Single-hop offloading environment (Tables I & II).

    Attributes:
        n_clouds: ``K`` — number of cloud queues (Table II: 2).
        n_agents: ``N`` — number of edge agents (Table II: 4).
        packet_amounts: The action's packet-amount space ``P``
            (Table II: {0.1, 0.2}).
        w_p: Edge arrival hyper-parameter; arrivals are
            ``U(0, w_p * q_max)`` (Table II: 0.3).
        w_r: Overflow penalty weight in Eq. (1) (Table II: 4).
        cloud_service_rate: Per-step packet volume each cloud transmits
            onward (Table II: 0.3).
        queue_capacity: ``q_max`` (Table II: 1).
        episode_limit: Steps per episode, an integer ``>= 1``
            (unspecified; default 100).  Total
            reward scales linearly with this: with T=100 a random walk
            averages about -9.4 here versus the paper's -33.2 (matching
            would need T around 350); the scale-free *achievability*
            comparison is unaffected.
        initial_queue_level: Starting level of every queue as a fraction of
            capacity, or ``"uniform"`` (unspecified; default 0.5).
        conserve_packets: Paper-literal mode when False (an edge may
            schedule more outflow than it holds, and the cloud receives the
            scheduled amount); physically-conservative extension when True.
        terminate_on_overflow: When True the episode also ends the moment
            any *cloud* queue overflows (a lost-packet event), making
            episode length data-dependent: ``episode_limit`` becomes a
            horizon *cap* instead of the exact length.  Off by default —
            the paper's MDP terminates on the fixed horizon only.
    """

    n_clouds: int = 2
    n_agents: int = 4
    packet_amounts: tuple = (0.1, 0.2)
    w_p: float = 0.3
    w_r: float = 4.0
    cloud_service_rate: float = 0.3
    queue_capacity: float = 1.0
    episode_limit: int = 100
    initial_queue_level: object = 0.5
    conserve_packets: bool = False
    terminate_on_overflow: bool = False

    def __post_init__(self):
        check_integer("n_clouds", self.n_clouds, 1)
        check_integer("n_agents", self.n_agents, 1)
        if not self.packet_amounts:
            raise ValueError("packet_amounts must be non-empty")
        for amount in self.packet_amounts:
            check_env_quantity("packet_amounts", amount)
        check_env_quantity("cloud_service_rate", self.cloud_service_rate)
        check_env_quantity("w_r", self.w_r)
        check_env_quantity("queue_capacity", self.queue_capacity, positive=True)
        check_integer("episode_limit", self.episode_limit, 1)

    @property
    def n_actions(self):
        """``|A| = |I| * |P|`` — destination cloud x packet amount."""
        return self.n_clouds * len(self.packet_amounts)

    @property
    def observation_size(self):
        """Per Table I: own queue now & previous, plus every cloud queue."""
        return 2 + self.n_clouds

    @property
    def state_size(self):
        """Global state: the union of all agent observations."""
        return self.n_agents * self.observation_size


@dataclass(frozen=True)
class VQCConfig:
    """Variational-quantum-circuit hyper-parameters (Table II).

    Attributes:
        n_qubits: Register width for actors and critic (Table II: 4).
        n_variational_gates: Gates in ``U_var`` = trainable parameters
            (Table II: 50).
        template: Ansatz family (paper: torchquantum-style ``"random"``).
        encoding_scale: Feature-to-angle multiplier (unspecified; pi).
        two_qubit_ratio: Fraction of entangling gates the random template
            samples (unspecified; 0.25).
        critic_value_scale: Fixed output scale mapping the critic's mean
            ``<Z>`` in [-1, 1] onto the return range (unspecified; 30.0,
            roughly the magnitude of the worst observed returns).
        actor_logit_scale: Fixed multiplier on the actor's measured
            expectations before the softmax (1.0 = the paper's plain
            softmax; swept in ablations).
        actor_policy_head: ``"softmax"`` — the paper's Section III-A1
            equation ``pi = softmax(f(o))`` (bounded logits; the policy
            retains a stochasticity floor) — or ``"born"`` — Fig. 2's
            ``P(a_i)`` reading, where the policy is the measurement
            distribution of the action qubits and can become deterministic.
        gradient_method: ``"adjoint"`` (simulator-exact default) or
            ``"parameter_shift"`` (hardware-faithful, required with noise).
        actor_ansatz_seed / critic_ansatz_seed: Seeds fixing the *structure*
            of the random ansatz.  These are architecture choices (part of
            the configuration), deliberately independent of the framework's
            run seed so that differently-seeded runs — and checkpoints —
            share one circuit design, as the paper's fixed VQC does.
    """

    n_qubits: int = 4
    n_variational_gates: int = 50
    template: str = "random"
    encoding_scale: float = float(np.pi)
    two_qubit_ratio: float = 0.25
    critic_value_scale: float = 30.0
    actor_logit_scale: float = 1.0
    actor_policy_head: str = "softmax"
    gradient_method: str = "adjoint"
    actor_ansatz_seed: int = 1001
    critic_ansatz_seed: int = 2002

    _POLICY_HEADS = ("softmax", "born")

    def __post_init__(self):
        # Imported here: repro.quantum imports check_integer from this module.
        from repro.quantum.gradients import GRADIENT_METHODS

        check_integer("n_qubits", self.n_qubits, 1)
        check_integer("n_variational_gates", self.n_variational_gates, 1)
        check_integer("actor_ansatz_seed", self.actor_ansatz_seed, 0)
        check_integer("critic_ansatz_seed", self.critic_ansatz_seed, 0)
        for name in ("encoding_scale", "critic_value_scale",
                     "actor_logit_scale"):
            # Otherwise a non-finite scale shows only mid-rollout (NaN
            # probabilities) or after a full one (a non-finite update).
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(
                f"gradient_method must be one of {GRADIENT_METHODS}, "
                f"got {self.gradient_method!r}"
            )
        if self.actor_policy_head not in self._POLICY_HEADS:
            raise ValueError(
                f"actor_policy_head must be one of {self._POLICY_HEADS}, "
                f"got {self.actor_policy_head!r}"
            )


@dataclass(frozen=True)
class ClassicalNetConfig:
    """Classical MLP shapes for the baselines.

    ``Comp2`` mirrors the quantum models' ~50-parameter budget; ``Comp3``
    is the >40k-parameter reference (Section IV-C).
    """

    actor_hidden: tuple = ()
    critic_hidden: tuple = ()
    activation: str = "tanh"


@dataclass(frozen=True)
class TrainingConfig:
    """CTDE training loop hyper-parameters (Algorithm 1 + Table II).

    Attributes:
        n_epochs: Training epochs (paper: 1000).
        episodes_per_epoch: Episodes collected per epoch before one update
            (unspecified; 4).
        gamma: Discount factor (unspecified; 0.95).
        actor_lr: Actor learning rate (Table II: 1e-4).
        critic_lr: Critic learning rate (Table II: 1e-5).
        target_update_period: Epochs between target-critic syncs
            (unspecified; 10).
        grad_clip: Optional global-norm gradient clip (unspecified; 10.0).
            ``None`` or a finite bound ``> 0``.
        entropy_coef: Optional entropy bonus on the actor loss (0 = paper's
            plain MAPG); finite and ``>= 0``.
        rollout_envs: Lockstep environment copies every epoch's episodes
            are collected on (clamped to ``episodes_per_epoch``).  With 1
            copy collection consumes RNG streams bit-identically to the
            serial reference loop ``rollout_episode``.
        rollout_workers: Worker processes the sharded engine splits the
            lockstep copies across (clamped to the effective copy count);
            1 keeps collection in-process.  Fixed-length envs only: the
            sharded engine rejects an env with data-dependent termination,
            so keep 1 for ragged envs.  Any worker count is bit-identical
            to in-process collection under a fixed seed.
        rollout_transport: Only ``"auto"`` is legal: sharded workers
            always reply over their pickle-pipe.  The shared-memory
            transport the other values chose was removed; they raise.
        trainer: ``"mapg"`` — the paper's gradient-based CTDE actor-critic
            (:class:`~repro.marl.trainer.CTDETrainer`) — or ``"es"`` — the
            gradient-free evolutionary-strategies engine
            (:class:`~repro.marl.evolution.ESTrainer`), which trains the
            actor team by population search and uses no critic at all.
            Under ES, ``episodes_per_epoch`` means episodes *per population
            member* per generation and ``rollout_envs`` means lockstep env
            copies per member.
        es_population: ES population size ``P`` (candidate teams evaluated
            per generation; antithetic pairs, so even values waste
            nothing).  Only valid with ``trainer="es"``; ``None`` resolves
            to 8.
        es_sigma: Gaussian perturbation scale applied to the flat team
            weight vector.  Must be positive, except that ``0.0`` is
            allowed together with ``es_population=1`` — the documented
            evaluation-only mode that reproduces plain unperturbed
            collection bit-for-bit.  ``None`` resolves to 0.1.
        es_lr: ES learning rate (step size on the rank-shaped gradient
            estimate).  ``None`` resolves to 0.05.
        es_weight_decay: Weight decay applied inside the ES update
            (OpenAI-ES style).  ``None`` resolves to 0.0.
    """

    n_epochs: int = 1000
    episodes_per_epoch: int = 4
    gamma: float = 0.95
    actor_lr: float = 1e-4
    critic_lr: float = 1e-5
    target_update_period: int = 10
    grad_clip: float = 10.0
    entropy_coef: float = 0.0
    rollout_envs: int = 1
    rollout_workers: int = 1
    rollout_transport: str = "auto"
    trainer: str = "mapg"
    es_population: int = None
    es_sigma: float = None
    es_lr: float = None
    es_weight_decay: float = None

    _TRAINERS = ("mapg", "es")

    # Documented defaults the None-valued es_* knobs resolve to under
    # trainer="es" (kept as sentinels so trainer="mapg" can reject any
    # explicitly set — and therefore inert — ES knob).
    _ES_DEFAULTS = {
        "es_population": 8,
        "es_sigma": 0.1,
        "es_lr": 0.05,
        "es_weight_decay": 0.0,
    }

    def __post_init__(self):
        for name in ("n_epochs", "episodes_per_epoch", "target_update_period",
                     "rollout_envs", "rollout_workers"):
            check_integer(name, getattr(self, name), 1)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        check_env_quantity("actor_lr", self.actor_lr, positive=True)
        check_env_quantity("critic_lr", self.critic_lr, positive=True)
        check_env_quantity("entropy_coef", self.entropy_coef)
        if self.grad_clip is not None:
            # A negative bound flips every gradient's sign and 0 zeroes
            # them (see repro.nn.optim.clip_grad_norm).
            check_env_quantity("grad_clip", self.grad_clip, positive=True)
        if self.rollout_transport != "auto":
            raise ValueError(
                f"rollout_transport={self.rollout_transport!r}: the "
                f"shared-memory transport was removed and sharded workers "
                f"always use the pickle pipe; leave rollout_transport='auto'"
            )
        if self.trainer not in self._TRAINERS:
            raise ValueError(
                f"trainer must be one of {self._TRAINERS}, "
                f"got {self.trainer!r}"
            )
        if self.trainer == "mapg":
            # Any explicitly set ES knob is inert under the gradient
            # trainer; silently ignoring it would hide a misconfiguration.
            for knob in self._ES_DEFAULTS:
                if getattr(self, knob) is not None:
                    raise ValueError(
                        f"{knob}={getattr(self, knob)!r} only affects the "
                        f"evolutionary-strategies engine, but trainer="
                        f"'mapg' never reads it; set trainer='es' or leave "
                        f"{knob}=None"
                    )
        else:  # trainer == "es"
            if self.entropy_coef != 0.0:
                raise ValueError(
                    f"entropy_coef={self.entropy_coef!r} is a MAPG-only "
                    f"knob (the ES update has no policy-gradient loss to "
                    f"add an entropy bonus to); leave it at 0.0 with "
                    f"trainer='es'"
                )
            population = self.effective_es_population
            check_integer("es_population", population, 1)
            sigma = self.effective_es_sigma
            check_env_quantity("es_sigma", sigma)
            if sigma == 0 and population != 1:
                raise ValueError(
                    f"es_sigma must be positive (es_sigma=0 is only valid "
                    f"with es_population=1, the unperturbed evaluation "
                    f"mode), got es_sigma={self.es_sigma!r} with "
                    f"es_population={population}"
                )
            if population == 1 and sigma != 0:
                # The mirror inert combination: a lone member gives rank
                # shaping nothing to compare, so no update ever happens —
                # yet every generation would evaluate a *perturbed* policy.
                raise ValueError(
                    f"es_population=1 with es_sigma={sigma!r} trains "
                    f"nothing (a single member cannot be rank-shaped); "
                    f"use es_population>=2 to search, or es_sigma=0.0 for "
                    f"the unperturbed evaluation mode"
                )
            check_env_quantity("es_lr", self.effective_es_lr, positive=True)
            check_env_quantity(
                "es_weight_decay", self.effective_es_weight_decay
            )

    @property
    def effective_rollout_envs(self):
        """Lockstep env copies epoch collection actually uses.

        Clamped to the largest divisor of ``episodes_per_epoch`` not above
        the configured count: with fixed-length episodes all copies finish
        in lockstep, so a non-divisor count would fully collect — then
        silently discard — up to ``n_envs - 1`` surplus episodes every
        epoch.  A divisor wastes nothing.  For ragged envs
        (data-dependent termination) completion is no longer lockstep and
        some discard is unavoidable in the final round; the divisor clamp
        stays because it is still the right choice for the fixed-length
        family and harmless for the ragged one.
        """
        configured = min(self.rollout_envs, self.episodes_per_epoch)
        while self.episodes_per_epoch % configured:
            configured -= 1
        return configured

    @property
    def effective_rollout_workers(self):
        """Effective worker process count for sharded collection.

        Clamped to the total lockstep row count — a worker without at least
        one env row would idle while still costing a process.  Under the
        gradient trainer that is the effective env copy count; under ES the
        population multiplies it (each member owns its own rows, so a
        population of P over k copies per member gives ``k * P`` shardable
        rows).
        """
        return min(self.rollout_workers, self.total_rollout_rows)

    @property
    def total_rollout_rows(self):
        """Total lockstep env rows epoch collection steps at once.

        ``effective_rollout_envs`` for the gradient trainer;
        ``effective_rollout_envs * es_population`` for ES, where every
        population member owns ``effective_rollout_envs`` rows.
        """
        if self.trainer == "es":
            return self.effective_rollout_envs * self.effective_es_population
        return self.effective_rollout_envs

    # -- ES knob resolution ---------------------------------------------------

    def _effective_es(self, knob):
        """A None-defaulted ES knob with its documented default applied."""
        value = getattr(self, knob)
        return self._ES_DEFAULTS[knob] if value is None else value

    @property
    def effective_es_population(self):
        """ES population size with the documented default applied."""
        return self._effective_es("es_population")

    @property
    def effective_es_sigma(self):
        """ES perturbation scale with the documented default applied."""
        return self._effective_es("es_sigma")

    @property
    def effective_es_lr(self):
        """ES learning rate with the documented default applied."""
        return self._effective_es("es_lr")

    @property
    def effective_es_weight_decay(self):
        """ES weight decay with the documented default applied."""
        return self._effective_es("es_weight_decay")


@dataclass(frozen=True)
class ServingConfig:
    """Policy-serving tier knobs (see ``docs/serving.md``).

    Args:
        max_batch: Most decision rows coalesced into one stacked circuit
            call.  Raising it trades per-request latency for throughput;
            the frontier is measured by ``benchmarks/bench_serving.py``.
        max_wait_us: Adaptive batching window in microseconds — how long
            the oldest queued request may wait for companions before the
            batch is flushed regardless of size.  0 flushes immediately
            (batch size is then whatever arrived during the previous
            evaluation).
        max_pending: Upper bound on queued decision rows before new
            requests are rejected with an overload error (HTTP 503).
            0 means unbounded.
        reload_poll_ms: Hot-reload watcher poll interval in milliseconds;
            0 disables checkpoint watching.
        sample_seed: Seed for the engine-owned action-sampling stream
            (every sampled row draws its uniform from it, so responses
            are reproducible under a fixed seed).
        host: Bind address for the HTTP server.
        port: Bind port (0 picks an ephemeral port; useful for tests).
        log_requests: Emit one structured JSON access-log line per request
            at flush time (request id, batch id, queue wait, flush reason).
            Off by default — the log writes from the event loop, so leave
            it off when benchmarking latency.
    """

    max_batch: int = 32
    max_wait_us: int = 2000
    max_pending: int = 0
    reload_poll_ms: int = 200
    sample_seed: int = 0
    host: str = "127.0.0.1"
    port: int = 8123
    log_requests: bool = False

    def __post_init__(self):
        # Integers only: a NaN or infinite max_wait_us would never flush a
        # partial batch, a NaN reload_poll_ms would silently disable hot
        # reload and an infinite one would kill the watcher thread.
        check_integer("max_batch", self.max_batch, 1)
        for name in ("max_wait_us", "max_pending", "reload_poll_ms",
                     "sample_seed", "port"):
            check_integer(name, getattr(self, name), 0)
        if self.port > 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port!r}")


# Classical baseline shapes used by the paper's comparison (Section IV-C).
# Comp2: ~50 trainable parameters per network (actor 4-5-4 = 49,
# critic 16-3-1 = 55, bracketing the quantum models' exact 50);
# Comp3: > 40k parameters overall (4x actor 4-64-64-4 plus critic
# 16-160-160-1 = 47,601 total).
COMP2_NET = ClassicalNetConfig(actor_hidden=(5,), critic_hidden=(3,))
COMP3_NET = ClassicalNetConfig(actor_hidden=(64, 64), critic_hidden=(160, 160))
