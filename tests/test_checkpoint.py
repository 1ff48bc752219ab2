"""Unit tests for framework checkpointing."""

import json
import os

import numpy as np
import pytest

from helpers import (
    assert_engine_runs_equal,
    make_harness_framework,
    run_framework_epochs,
)
from repro.config import SingleHopConfig, TrainingConfig
from repro.marl.checkpoint import (
    checkpoint_info,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from repro.marl.frameworks import build_framework

ENV = SingleHopConfig(episode_limit=5)
TRAIN = TrainingConfig(episodes_per_epoch=1, actor_lr=1e-3, critic_lr=1e-3)
ES_TRAIN = TrainingConfig(
    trainer="es", episodes_per_epoch=1, es_population=2, es_sigma=0.05,
    es_lr=0.1,
)


def build(name="proposed", seed=0):
    return build_framework(name, seed=seed, env_config=ENV, train_config=TRAIN)


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["proposed", "comp1", "comp2", "comp3"])
    def test_policy_identical_after_restore(self, name, tmp_path, rng):
        source = build(name, seed=1)
        source.train(n_epochs=2)
        path = save_checkpoint(source, str(tmp_path / "ckpt"))

        target = build(name, seed=99)  # different init
        observations = rng.uniform(size=(3, ENV.observation_size))
        before = source.actors.actors[0].probabilities(observations)
        assert not np.allclose(
            before, target.actors.actors[0].probabilities(observations)
        )

        load_checkpoint(target, path)
        after = target.actors.actors[0].probabilities(observations)
        assert np.allclose(before, after, atol=1e-12)

    def test_critic_restored(self, tmp_path, rng):
        source = build("proposed", seed=1)
        source.train(n_epochs=2)
        path = save_checkpoint(source, str(tmp_path / "ckpt"))
        target = build("proposed", seed=7)
        load_checkpoint(target, path)
        states = rng.uniform(size=(3, ENV.state_size))
        assert np.allclose(
            source.trainer.critic.values(states),
            target.trainer.critic.values(states),
            atol=1e-12,
        )
        assert np.allclose(
            source.trainer.target_critic.values(states),
            target.trainer.target_critic.values(states),
            atol=1e-12,
        )

    def test_epoch_restored(self, tmp_path):
        source = build("comp2", seed=1)
        source.train(n_epochs=3)
        path = save_checkpoint(source, str(tmp_path / "ckpt"))
        target = build("comp2", seed=2)
        load_checkpoint(target, path)
        assert target.trainer.epoch == 3

    def test_npz_suffix_added(self, tmp_path):
        source = build("comp2", seed=1)
        path = save_checkpoint(source, str(tmp_path / "model"))
        assert path.endswith(".npz")
        load_checkpoint(build("comp2", seed=2), str(tmp_path / "model"))


class TestVectorizedTrainerRoundtrip:
    """Checkpoint round-trip through a trainer using vectorized collection."""

    VECTOR_TRAIN = TrainingConfig(
        episodes_per_epoch=4, actor_lr=1e-3, critic_lr=1e-3, rollout_envs=4
    )

    def build_vectorized(self, seed):
        return build_framework(
            "proposed", seed=seed, env_config=ENV,
            train_config=self.VECTOR_TRAIN,
        )

    def test_save_restore_continue(self, tmp_path, rng):
        source = self.build_vectorized(seed=1)
        source.train(n_epochs=2)  # "mid-run": more epochs follow below
        assert source.trainer._collector.vector_env.n_envs == 4
        path = save_checkpoint(source, str(tmp_path / "vec"))

        target = self.build_vectorized(seed=42)
        load_checkpoint(target, path)
        assert target.trainer.epoch == 2

        # Restored parameters drive identical policies through the
        # vectorized inference path...
        observations = rng.uniform(size=(3, ENV.n_agents, ENV.observation_size))
        assert np.allclose(
            source.actors.batch_probabilities(observations),
            target.actors.batch_probabilities(observations),
            atol=1e-12,
        )
        # ...and identical greedy vectorized rollouts under matched env
        # streams (metric continuity across the save/restore boundary).
        from repro.envs.vector import SingleHopVectorEnv
        from repro.marl.rollout import VectorRolloutCollector

        stats = {}
        for name, framework in (("source", source), ("target", target)):
            vector_env = SingleHopVectorEnv(
                4, config=ENV,
                rngs=[np.random.default_rng(100 + i) for i in range(4)],
            )
            collector = VectorRolloutCollector(vector_env, framework.actors)
            _, stats[name] = collector.collect(4, np.random.default_rng(0),
                                               greedy=True)
        assert stats["source"] == stats["target"]

        # Training continues from the restored epoch and keeps recording.
        record = target.trainer.train_epoch()
        assert record["epoch"] == 3
        assert np.isfinite(record["total_reward"])
        assert target.trainer.history.n_epochs == 1

    def test_restore_into_one_copy_trainer_is_compatible(self, tmp_path):
        """The copy count is runtime configuration, not checkpoint state."""
        source = self.build_vectorized(seed=1)
        source.train(n_epochs=1)
        path = save_checkpoint(source, str(tmp_path / "vec"))
        target = build_framework(
            "proposed", seed=5, env_config=ENV, train_config=TRAIN
        )
        load_checkpoint(target, path)
        assert target.trainer.epoch == 1
        record = target.trainer.train_epoch()
        assert record["epoch"] == 2


class TestHeader:
    def test_info(self, tmp_path):
        source = build("proposed", seed=1)
        source.train(n_epochs=1)
        path = save_checkpoint(source, str(tmp_path / "ckpt"))
        info = checkpoint_info(path)
        assert info["framework"] == "proposed"
        assert info["epoch"] == 1
        assert info["metadata"]["actor_parameters"] == 50
        assert any(key.startswith("actor.0.") for key in info["arrays"])


class TestValidation:
    def test_wrong_framework_rejected(self, tmp_path):
        path = save_checkpoint(build("proposed", seed=1), str(tmp_path / "a"))
        with pytest.raises(ValueError, match="checkpoint is for"):
            load_checkpoint(build("comp2", seed=1), path)

    def test_non_strict_allows_compatible_shapes(self, tmp_path):
        """comp1 and proposed share actor shapes but differ in critics."""
        path = save_checkpoint(build("proposed", seed=1), str(tmp_path / "a"))
        with pytest.raises(KeyError):
            load_checkpoint(build("comp1", seed=1), path, strict=False)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = save_checkpoint(build("comp2", seed=1), str(tmp_path / "a"))
        bigger = build_framework(
            "comp2",
            seed=1,
            env_config=SingleHopConfig(n_agents=2, episode_limit=5),
            train_config=TRAIN,
        )
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(bigger, path)


class TestAtomicSave:
    """Crash-mid-save simulations: the old pair survives or the tear shows."""

    def test_crash_before_replace_preserves_old_pair(self, tmp_path,
                                                     monkeypatch):
        source = build("comp2", seed=1)
        source.train(n_epochs=1)
        path = save_checkpoint(source, str(tmp_path / "ck"))
        before = checkpoint_info(path)

        source.train(n_epochs=1)
        with monkeypatch.context() as m:
            def crash(src, dst):
                raise RuntimeError("killed mid-save")
            m.setattr(os, "replace", crash)
            with pytest.raises(RuntimeError, match="killed mid-save"):
                save_checkpoint(source, str(tmp_path / "ck"))

        # Old pair untouched and loadable; no temp-file litter left behind.
        assert checkpoint_info(path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ck.json", "ck.npz",
        ]
        target = build("comp2", seed=9)
        load_checkpoint(target, path)
        assert target.trainer.epoch == 1

    def test_crash_between_renames_is_detectable(self, tmp_path, monkeypatch):
        source = build("comp2", seed=1)
        source.train(n_epochs=1)
        path = save_checkpoint(source, str(tmp_path / "ck"))

        source.train(n_epochs=1)
        real_replace = os.replace
        replaced = []
        with monkeypatch.context() as m:
            def crash_after_first(src, dst):
                if replaced:
                    raise RuntimeError("killed between renames")
                replaced.append(dst)
                real_replace(src, dst)
            m.setattr(os, "replace", crash_after_first)
            with pytest.raises(RuntimeError, match="between renames"):
                save_checkpoint(source, str(tmp_path / "ck"))

        # New archive behind the old header: the checksum exposes the tear,
        # and loading refuses rather than mixing generations.
        assert replaced == [path]
        with pytest.raises(ValueError, match="torn checkpoint"):
            verify_checkpoint(path)
        with pytest.raises(ValueError, match="torn checkpoint"):
            load_checkpoint(build("comp2", seed=9), path)

    def test_tampered_archive_rejected(self, tmp_path):
        source = build("comp2", seed=1)
        path = save_checkpoint(source, str(tmp_path / "ck"))
        with open(path, "ab") as f:
            f.write(b"\x00garbage")
        with pytest.raises(ValueError, match="torn checkpoint"):
            verify_checkpoint(path)

    def test_checkpoint_inside_npz_named_directory(self, tmp_path):
        """Header derivation must only touch the trailing suffix.

        A ``str.replace('.npz', '.json')`` would also rewrite the parent
        directory name and scatter the header into a nonexistent path.
        """
        directory = tmp_path / "runs" / "v1.npz.backup"
        directory.mkdir(parents=True)
        source = build("comp2", seed=1)
        path = save_checkpoint(source, str(directory / "model"))
        assert path == str(directory / "model.npz")
        assert (directory / "model.json").exists()
        assert checkpoint_info(path)["framework"] == "comp2"
        load_checkpoint(build("comp2", seed=4), path)


class TestResumeState:
    """Format v2: optimizer moments, counters and RNG streams round-trip."""

    def test_optimizer_and_counters_roundtrip(self, tmp_path):
        source = build("comp2", seed=1)
        source.train(n_epochs=3)
        path = save_checkpoint(source, str(tmp_path / "ck"))
        target = build("comp2", seed=2)
        load_checkpoint(target, path)

        for attr in ("actor_optimizer", "critic_optimizer"):
            src_state = getattr(source.trainer, attr).state_dict()
            dst_state = getattr(target.trainer, attr).state_dict()
            assert src_state.keys() == dst_state.keys(), attr
            for key in src_state:
                assert np.array_equal(src_state[key], dst_state[key]), (
                    f"{attr}: {key}"
                )
        assert target.trainer.target_syncs == source.trainer.target_syncs
        assert (
            target.trainer.rng.bit_generator.state
            == source.trainer.rng.bit_generator.state
        )
        assert (
            target.trainer.env.rng.bit_generator.state
            == source.trainer.env.rng.bit_generator.state
        )

    def test_resume_bit_identity(self, tmp_path):
        """Save mid-run, restore into a differently-seeded framework,
        continue: the tail is bit-identical to a run that never stopped.

        The contract of the trainer's own engine at one lockstep copy,
        with the default reset, which draws nothing."""
        reference = make_harness_framework(seed=3, n_envs=1)
        run_framework_epochs(reference, 2)  # epochs 1-2, discarded
        reference_tail = run_framework_epochs(
            reference, 2, engine="uninterrupted"
        )

        interrupted = make_harness_framework(seed=3, n_envs=1)
        run_framework_epochs(interrupted, 2)
        path = save_checkpoint(interrupted, str(tmp_path / "mid"))

        # Every stream and weight differs until the load.
        restored = make_harness_framework(seed=99, n_envs=1)
        load_checkpoint(restored, path)
        assert restored.trainer.epoch == 2
        resumed_tail = run_framework_epochs(restored, 2, engine="resumed")

        assert_engine_runs_equal(reference_tail, resumed_tail)

    def test_v1_checkpoint_loads_weights_and_epoch(self, tmp_path):
        """Hand-built version-1 pair: inference-grade load still works."""
        from repro.marl.checkpoint import _framework_state

        source = build("comp2", seed=1)
        source.train(n_epochs=1)
        state = _framework_state(source)
        archive = str(tmp_path / "old.npz")
        np.savez(archive, **state)
        with open(str(tmp_path / "old.json"), "w") as f:
            json.dump({
                "format_version": 1,
                "framework": "comp2",
                "epoch": 1,
                "metadata": source.metadata,
                "arrays": sorted(state),
            }, f)

        target = build("comp2", seed=5)
        load_checkpoint(target, archive)
        assert target.trainer.epoch == 1
        observations = np.random.default_rng(0).uniform(
            size=(3, ENV.observation_size)
        )
        assert np.allclose(
            source.actors.actors[0].probabilities(observations),
            target.actors.actors[0].probabilities(observations),
            atol=1e-12,
        )
        # v1 carries no optimizer state: the target's stays untouched.
        assert int(
            target.trainer.critic_optimizer.state_dict()["step_count"]
        ) == 0


class TestESCheckpoint:
    """The gradient-free trainer checkpoints too (regression: the saver
    used to assume every trainer had a critic)."""

    def build_es(self, seed):
        return build_framework(
            "comp2", seed=seed, env_config=ENV, train_config=ES_TRAIN
        )

    def test_roundtrip(self, tmp_path):
        source = self.build_es(seed=1)
        source.train(n_epochs=2)
        path = save_checkpoint(source, str(tmp_path / "es"))
        target = self.build_es(seed=8)
        load_checkpoint(target, path)
        assert target.trainer.epoch == 2
        assert np.array_equal(
            target.trainer.base_vector, source.trainer.base_vector
        )
        assert (
            target.trainer.optimizer.generation
            == source.trainer.optimizer.generation
        )
        assert (
            target.trainer.rng.bit_generator.state
            == source.trainer.rng.bit_generator.state
        )

    def test_weights_only_crosses_trainer_kinds(self, tmp_path):
        """An ES checkpoint serves through a critic-bearing framework."""
        source = self.build_es(seed=1)
        source.train(n_epochs=1)
        path = save_checkpoint(source, str(tmp_path / "es"))

        serving = build("comp2", seed=3)  # MAPG-built, has critics
        load_checkpoint(serving, path, weights_only=True)
        observations = np.random.default_rng(0).uniform(
            size=(3, ENV.observation_size)
        )
        assert np.allclose(
            source.actors.actors[0].probabilities(observations),
            serving.actors.actors[0].probabilities(observations),
            atol=1e-12,
        )
        # A full (resume) load across trainer kinds must refuse instead.
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(build("comp2", seed=3), path)
