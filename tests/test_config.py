"""Unit tests for configuration dataclasses (Table II conformance)."""

import numpy as np
import pytest

from repro.config import (
    COMP2_NET,
    COMP3_NET,
    ServingConfig,
    SingleHopConfig,
    TrainingConfig,
    VQCConfig,
    replace,
)
from repro.nn.layers import count_parameters


class TestSingleHopConfig:
    def test_table2_defaults(self):
        cfg = SingleHopConfig()
        assert cfg.n_clouds == 2
        assert cfg.n_agents == 4
        assert cfg.packet_amounts == (0.1, 0.2)
        assert cfg.w_p == 0.3
        assert cfg.w_r == 4.0
        assert cfg.cloud_service_rate == 0.3
        assert cfg.queue_capacity == 1.0

    def test_table1_derived_sizes(self):
        cfg = SingleHopConfig()
        assert cfg.n_actions == 4          # |I| * |P| = 2 * 2
        assert cfg.observation_size == 4   # own q, own q(t-1), 2 clouds
        assert cfg.state_size == 16        # 4 agents x 4 features

    def test_terminate_on_overflow_defaults_off(self):
        # Default-off keeps the paper's fixed-length episodes; opting in
        # makes episode_limit a horizon *cap* (the ragged env family).
        assert SingleHopConfig().terminate_on_overflow is False
        cfg = SingleHopConfig(terminate_on_overflow=True)
        assert cfg.terminate_on_overflow is True

    def test_replace(self):
        cfg = replace(SingleHopConfig(), episode_limit=10)
        assert cfg.episode_limit == 10

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SingleHopConfig().n_clouds = 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clouds": 0},
            {"n_agents": 0},
            {"packet_amounts": ()},
            {"packet_amounts": (-0.1,)},
            {"queue_capacity": 0.0},
            {"episode_limit": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SingleHopConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("packet_amounts", (0.1, np.nan)),
            ("packet_amounts", (np.inf, 0.2)),
            ("cloud_service_rate", np.nan),
            ("cloud_service_rate", np.inf),
            ("cloud_service_rate", -0.1),
            ("w_r", np.nan),
            ("w_r", np.inf),
            ("w_r", -1.0),
            ("queue_capacity", np.nan),
            ("queue_capacity", np.inf),
        ],
    )
    def test_bad_quantities_raise_at_construction(self, field, value):
        """NaN rates used to score the best reward (-0.0), infinite ones
        -inf, and a negative w_r turned the overflow penalty into a bonus;
        each now fails at construction, naming its field."""
        with pytest.raises(ValueError, match=field):
            SingleHopConfig(**{field: value})

    @pytest.mark.parametrize("limit", [2.7, True, np.bool_(True)])
    def test_episode_limit_must_be_an_integer_from_one(self, limit):
        """2.7 and True used to construct and fail in training with a
        ``TypeError``; each now fails at construction, naming the field."""
        with pytest.raises(ValueError, match="episode_limit"):
            SingleHopConfig(episode_limit=limit)

    def test_episode_limit_accepts_numpy_integers(self):
        assert SingleHopConfig(episode_limit=np.int32(7)).episode_limit == 7

    @pytest.mark.parametrize(
        "field, value", [("n_agents", 2.5), ("n_agents", True), ("n_clouds", 2.5)]
    )
    def test_counts_must_be_integers(self, field, value):
        """Each used to construct: 2.5 agents then failed in the env with a
        ``TypeError``, 2.5 clouds ran, and True stood in for 1."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SingleHopConfig(**{field: value})

    def test_zero_quantities_stay_legal(self):
        cfg = SingleHopConfig(
            packet_amounts=(0.0, 0.2), cloud_service_rate=0.0, w_r=0.0
        )
        assert cfg.w_r == 0.0


class TestVQCConfig:
    def test_table2_defaults(self):
        cfg = VQCConfig()
        assert cfg.n_qubits == 4
        assert cfg.n_variational_gates == 50
        assert cfg.template == "random"
        assert cfg.encoding_scale == pytest.approx(np.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            VQCConfig(n_qubits=0)
        with pytest.raises(ValueError):
            VQCConfig(n_variational_gates=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n_qubits", 2.5), ("n_qubits", True), ("n_variational_gates", 2.5),
         ("actor_ansatz_seed", 2.5), ("actor_ansatz_seed", -1),
         ("critic_ansatz_seed", 2.5)],
    )
    def test_counts_and_seeds_must_be_integers(self, field, value):
        """2.5 qubits or gates and True qubits used to construct and fail
        at build with unrelated messages."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            VQCConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("encoding_scale", float("nan")),
         ("critic_value_scale", float("nan")),
         ("actor_logit_scale", float("inf"))],
    )
    def test_scales_must_be_finite(self, field, value):
        """Each used to build a framework and fail only in ``train_epoch``:
        NaN probabilities mid-rollout, or a non-finite update after a full
        rollout."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            VQCConfig(**{field: value})

    @pytest.mark.parametrize("field", ["gradient_method", "actor_policy_head"])
    def test_unknown_choice_raises_at_construction(self, field):
        """An unknown gradient method used to fail in the update, after a
        full rollout; an unknown policy head at framework build."""
        with pytest.raises(ValueError, match=f"^{field} must be one of"):
            VQCConfig(**{field: "bogus"})


class TestTrainingConfig:
    def test_table2_learning_rates(self):
        cfg = TrainingConfig()
        assert cfg.actor_lr == 1e-4
        assert cfg.critic_lr == 1e-5
        assert cfg.n_epochs == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_epochs": 0},
            {"episodes_per_epoch": 0},
            {"gamma": 1.0},
            {"gamma": -0.1},
            {"actor_lr": 0.0},
            {"critic_lr": -1.0},
            {"target_update_period": 0},
            {"rollout_envs": 0},
            {"rollout_envs": -4},
            {"rollout_envs": 2.5},
            {"rollout_workers": 0},
            {"rollout_workers": -2},
            {"rollout_workers": 1.5},
            {"rollout_transport": "tcp"},
            {"rollout_transport": "Shm"},
            # Non-finite training knobs fail at construction, not as NaN
            # weights epochs later.
            {"actor_lr": float("nan")},
            {"actor_lr": float("inf")},
            {"critic_lr": float("nan")},
            {"critic_lr": float("inf")},
            {"entropy_coef": float("nan")},
            {"entropy_coef": float("inf")},
            {"entropy_coef": -0.1},
            {"grad_clip": float("nan")},
            {"grad_clip": float("inf")},
            # A negative bound flips every gradient; 0 zeroes them.
            {"grad_clip": -1.0},
            {"grad_clip": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_epochs", 2.5),
            ("episodes_per_epoch", 2.5),
            ("target_update_period", 1.5),
            ("rollout_envs", True),
            ("rollout_workers", True),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        """Each used to construct and fail late (a float modulo in
        ``train_epoch``), run with a fractional period, or take True as
        1."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TrainingConfig(**{field: value})

    def test_count_fields_accept_numpy_integers(self):
        cfg = TrainingConfig(
            n_epochs=np.int64(3), rollout_envs=np.int32(2),
            rollout_workers=np.int16(1),
        )
        assert (cfg.n_epochs, cfg.rollout_envs, cfg.rollout_workers) == (
            3, 2, 1
        )

    def test_rollout_validation_messages_name_the_field(self):
        """Bad rollout settings fail at construction with a clear message,
        not deep inside the trainer."""
        with pytest.raises(ValueError, match="rollout_envs"):
            TrainingConfig(rollout_envs=0)
        with pytest.raises(ValueError, match="rollout_workers"):
            TrainingConfig(rollout_workers=0)

    @pytest.mark.parametrize(
        "field, trainer",
        [
            ("actor_lr", "mapg"),
            ("critic_lr", "mapg"),
            ("entropy_coef", "mapg"),
            ("grad_clip", "mapg"),
            ("es_sigma", "es"),
            ("es_lr", "es"),
            ("es_weight_decay", "es"),
        ],
    )
    def test_non_finite_knob_names_the_field(self, field, trainer):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainingConfig(trainer=trainer, **{field: float("nan")})

    def test_rollout_workers_accepted(self):
        assert TrainingConfig(rollout_envs=8, rollout_workers=4).rollout_workers == 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rollout_mode", "auto"),
            ("rollout_mode", "serial"),
            ("rollout_mode", "vector"),
            ("rollout_mode", "sharded"),
            ("evaluation_episodes", 8),
        ],
    )
    def test_removed_fields_are_unknown(self, field, value):
        """One collection engine needs no mode, and ``Framework.evaluate``
        takes its episode count as an argument."""
        with pytest.raises(TypeError, match=field):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Every value but "auto" chose a transport that no longer
            # exists; each raises, whatever the rollout settings.
            {"rollout_transport": "shm"},
            {"rollout_transport": "pipe"},
            {"rollout_transport": "shm", "rollout_workers": 1},
            {"rollout_transport": "shm", "rollout_envs": 8},
            {"rollout_transport": "pipe", "rollout_envs": 8,
             "rollout_workers": 4},
            {"rollout_transport": "shm", "rollout_workers": 4},
            {"rollout_transport": "shm", "rollout_workers": 2,
             "rollout_envs": 4, "episodes_per_epoch": 1},
            {"rollout_transport": "shm", "trainer": "es"},
            {"rollout_transport": "pipe", "rollout_workers": 2,
             "rollout_envs": 2},
            {"rollout_transport": "shm", "rollout_workers": 2,
             "rollout_envs": 2},
            {"rollout_transport": "pipe", "trainer": "es",
             "es_population": 4, "rollout_workers": 2},
            {"rollout_transport": "Auto"},
            {"rollout_transport": None},
        ],
    )
    def test_non_auto_transport_names_the_removal(self, kwargs):
        with pytest.raises(ValueError, match="shared-memory transport "
                                             "was removed"):
            TrainingConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"rollout_envs": 4, "episodes_per_epoch": 4},
            {"rollout_workers": 2, "rollout_envs": 2},
            {"trainer": "es", "es_population": 4, "rollout_workers": 2},
        ],
    )
    def test_auto_transport_accepted_everywhere(self, kwargs):
        config = TrainingConfig(rollout_transport="auto", **kwargs)
        assert config.rollout_transport == "auto"

    def test_effective_rollout_clamps(self):
        """The divisor/worker clamps are visible on the config itself."""
        config = TrainingConfig(episodes_per_epoch=6, rollout_envs=4,
                                rollout_workers=16)
        assert config.effective_rollout_envs == 3
        assert config.effective_rollout_workers == 3
        assert TrainingConfig(episodes_per_epoch=7,
                              rollout_envs=4).effective_rollout_envs == 1


class TestServingConfig:
    def test_defaults_valid(self):
        cfg = ServingConfig()
        assert cfg.max_batch == 32
        assert cfg.max_wait_us == 2000

    @pytest.mark.parametrize("overrides", [
        {"max_batch": 0},
        {"max_batch": 1.5},
        {"max_wait_us": -1},
        {"max_pending": -1},
        {"reload_poll_ms": -5},
        {"port": 70000},
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServingConfig(**overrides)

    @pytest.mark.parametrize(
        "knob, value",
        [("transport", "auto"), ("transport", "pipe"), ("transport", "shm"),
         ("workers", 2)],
        ids=["auto", "pipe", "shm", "workers"],
    )
    def test_transport_knob_removed(self, knob, value):
        """Serving evaluates every batch in-process: the worker count and
        the transport between workers are gone."""
        with pytest.raises(TypeError, match=knob):
            ServingConfig(**{knob: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServingConfig().max_batch = 64

    def test_max_batch_must_be_an_integer(self):
        """True used to pass ``isinstance(..., int)`` as a batch of one."""
        with pytest.raises(ValueError, match="^max_batch must be an integer"):
            ServingConfig(max_batch=True)

    @pytest.mark.parametrize(
        "field, value",
        [("max_wait_us", float("nan")), ("max_wait_us", float("inf")),
         ("max_pending", 2.5), ("reload_poll_ms", float("nan")),
         ("reload_poll_ms", float("inf")), ("sample_seed", 2.5),
         ("port", True)],
    )
    def test_integer_fields_reject_non_integers(self, field, value):
        """Each used to construct: a NaN or infinite batching window never
        answered a partial batch, a NaN poll interval turned hot reload off
        and an infinite one killed the watcher thread, 2.5 pending rows
        truncated to 2, a 2.5 seed failed at engine build and True stood
        in for port 1."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ServingConfig(**{field: value})


class TestTrainerSelection:
    def test_defaults_to_mapg_with_unset_es_knobs(self):
        config = TrainingConfig()
        assert config.trainer == "mapg"
        assert config.es_population is None
        assert config.es_sigma is None

    def test_es_defaults_resolve(self):
        config = TrainingConfig(trainer="es")
        assert config.effective_es_population == 8
        assert config.effective_es_sigma == 0.1
        assert config.effective_es_lr == 0.05
        assert config.effective_es_weight_decay == 0.0

    def test_unknown_trainer_rejected(self):
        with pytest.raises(ValueError, match="trainer"):
            TrainingConfig(trainer="evolution")

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Non-positive / malformed ES knobs.
            {"trainer": "es", "es_population": 0},
            {"trainer": "es", "es_population": -2},
            {"trainer": "es", "es_population": 2.5},
            {"trainer": "es", "es_sigma": -0.1},
            {"trainer": "es", "es_lr": 0.0},
            {"trainer": "es", "es_lr": -1.0},
            {"trainer": "es", "es_weight_decay": -0.5},
            # sigma=0 is only the evaluation mode with a single member.
            {"trainer": "es", "es_sigma": 0.0},
            {"trainer": "es", "es_population": 4, "es_sigma": 0.0},
            # ... and a single member with sigma>0 can never update.
            {"trainer": "es", "es_population": 1},
            {"trainer": "es", "es_population": 1, "es_sigma": 0.2},
            # Non-finite ES knobs.
            {"trainer": "es", "es_sigma": float("nan")},
            {"trainer": "es", "es_sigma": float("inf")},
            {"trainer": "es", "es_lr": float("nan")},
            {"trainer": "es", "es_lr": float("inf")},
            {"trainer": "es", "es_weight_decay": float("nan")},
            {"trainer": "es", "es_weight_decay": float("inf")},
        ],
    )
    def test_bad_es_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # ES knobs are inert under the gradient trainer — reject, do
            # not silently ignore.
            {"es_population": 4},
            {"es_sigma": 0.2},
            {"es_lr": 0.1},
            {"es_weight_decay": 0.01},
            {"trainer": "mapg", "es_population": 8},
        ],
    )
    def test_inert_es_knobs_rejected_under_mapg(self, kwargs):
        with pytest.raises(ValueError, match="es_"):
            TrainingConfig(**kwargs)

    def test_mapg_only_knobs_rejected_under_es(self):
        with pytest.raises(ValueError, match="entropy_coef"):
            TrainingConfig(trainer="es", entropy_coef=0.01)

    def test_evaluation_mode_accepted(self):
        config = TrainingConfig(trainer="es", es_population=1, es_sigma=0.0)
        assert config.effective_es_sigma == 0.0
        assert config.effective_es_population == 1

    def test_es_population_multiplies_shardable_rows(self):
        """Workers shard population * envs-per-member rows under ES."""
        config = TrainingConfig(
            trainer="es", es_population=8, rollout_workers=6
        )
        assert config.total_rollout_rows == 8
        assert config.effective_rollout_workers == 6
        config = TrainingConfig(
            trainer="es", es_population=4, rollout_envs=2,
            episodes_per_epoch=4, rollout_workers=16,
        )
        assert config.total_rollout_rows == 8
        assert config.effective_rollout_workers == 8


class TestBaselineShapes:
    def test_comp2_near_50_parameters(self):
        cfg = SingleHopConfig()
        actor = count_parameters(
            (cfg.observation_size, *COMP2_NET.actor_hidden, cfg.n_actions)
        )
        critic = count_parameters((cfg.state_size, *COMP2_NET.critic_hidden, 1))
        assert 40 <= actor <= 60
        assert 40 <= critic <= 60

    def test_comp3_over_40k(self):
        cfg = SingleHopConfig()
        actor = count_parameters(
            (cfg.observation_size, *COMP3_NET.actor_hidden, cfg.n_actions)
        )
        critic = count_parameters((cfg.state_size, *COMP3_NET.critic_hidden, 1))
        assert cfg.n_agents * actor + critic > 40_000
