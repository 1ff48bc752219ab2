"""Framework checkpointing: save and restore trained policies.

A checkpoint captures every trainable parameter of a framework (all actor
weights and both critics), its metadata, the training epoch, and — since
format version 2 — the trainer's resume state (optimizer moments, the
target-sync counter, and the action/env RNG stream positions), as a single
``.npz`` file plus a JSON header.  Restoring into a freshly built framework
with the same configuration reproduces the policy exactly.  Training on one
lockstep copy (``rollout_envs=1``) of an env whose reset draws nothing (the
default ``initial_queue_level``) continues bit-identically to a run that
never stopped.  Otherwise the resumed run is seed-deterministic but not
bit-identical: the in-process engine's auto-reset draws the next episode's
levels before the checkpoint is written, and with more copies the streams
of rows 1 and up are not part of the checkpoint.

Writes are atomic and tear-proof: both files are written to temp paths and
``os.replace``d into place, archive first and header last, so a reader that
sees a new header sees a fully written archive.  The header carries a CRC-32
checksum and array count of the archive; :func:`load_checkpoint` verifies
them and rejects torn or mismatched pairs instead of silently loading stale
arrays.  This is the contract the serving tier's hot-reload watcher relies
on (see :mod:`repro.serving.reload`).

Version-1 checkpoints (no checksum, no trainer state) still load for
inference-only use: weights and epoch are restored, resume state is not.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_info",
    "verify_checkpoint",
]

_FORMAT_VERSION = 2

# Namespace separating trainer resume arrays from policy weights inside the
# archive; weights_only loads skip everything under it.
_TRAINER_PREFIX = "trainer/"

_OPTIMIZER_LABELS = (
    ("actor_optimizer", "trainer/actor_opt/"),
    ("critic_optimizer", "trainer/critic_opt/"),
)


def _archive_path(path):
    return path if path.endswith(".npz") else path + ".npz"


def _header_path(archive_path):
    """Derive the JSON header path by slicing off only the trailing ``.npz``.

    A ``str.replace`` would also rewrite ``.npz`` occurrences in parent
    directory names (``runs/v1.npz.backup/model.npz``).
    """
    return archive_path[: -len(".npz")] + ".json"


def _file_crc32(path):
    crc = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def _jsonable(value):
    """Recursively convert an RNG ``bit_generator.state`` dict to JSON types."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": value.dtype.str}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _from_jsonable(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return {key: _from_jsonable(item) for key, item in value.items()}
    return value


def _trainer_kind(trainer):
    if trainer is None:
        return None
    if hasattr(trainer, "critic"):
        return "mapg"
    if hasattr(trainer, "base_vector"):
        return "es"
    return None


def _framework_state(framework):
    """Flatten a framework's parameters into one dict of arrays."""
    state = {}
    for i, actor in enumerate(framework.actors.actors):
        if hasattr(actor, "state_dict"):
            for key, value in actor.state_dict().items():
                state[f"actor.{i}.{key}"] = value
    trainer = framework.trainer
    if trainer is not None and hasattr(trainer, "critic"):
        for key, value in trainer.critic.state_dict().items():
            state[f"critic.{key}"] = value
        for key, value in trainer.target_critic.state_dict().items():
            state[f"target_critic.{key}"] = value
    return state


def _trainer_arrays(framework):
    """Optimizer slot arrays under the ``trainer/`` namespace."""
    arrays = {}
    trainer = framework.trainer
    if trainer is None:
        return arrays
    for attr, prefix in _OPTIMIZER_LABELS:
        optimizer = getattr(trainer, attr, None)
        if optimizer is not None and hasattr(optimizer, "state_dict"):
            for key, value in optimizer.state_dict().items():
                arrays[prefix + key] = np.asarray(value)
    return arrays


def _trainer_header(framework):
    """JSON-serializable trainer resume state (RNG streams + counters)."""
    trainer = framework.trainer
    kind = _trainer_kind(trainer)
    if kind is None:
        return None
    doc = {"kind": kind}
    if hasattr(trainer, "target_syncs"):
        doc["target_syncs"] = int(trainer.target_syncs)
    if kind == "es":
        doc["es_generation"] = int(trainer.optimizer.generation)
    if getattr(trainer, "rng", None) is not None:
        doc["action_rng"] = _jsonable(trainer.rng.bit_generator.state)
    env_rng = getattr(getattr(trainer, "env", None), "rng", None)
    if env_rng is not None:
        doc["env_rng"] = _jsonable(env_rng.bit_generator.state)
    return doc


def save_checkpoint(framework, path):
    """Write a framework checkpoint atomically; returns the archive path.

    Args:
        framework: A built (optionally trained) framework.
        path: Target ``.npz`` path (a ``.json`` header is written alongside).

    Both files go to temp paths first and are ``os.replace``d into place —
    archive before header — so a crash at any point leaves either the old
    pair intact or a detectable (checksum-mismatched) pair, never a torn
    archive behind a matching header.
    """
    archive = _archive_path(path)
    header_path = _header_path(archive)
    os.makedirs(os.path.dirname(archive) or ".", exist_ok=True)

    state = _framework_state(framework)
    state.update(_trainer_arrays(framework))

    tag = f".tmp-{os.getpid()}"
    tmp_archive = archive + tag + ".npz"  # np.savez keeps names ending in .npz
    tmp_header = header_path + tag
    try:
        np.savez(tmp_archive, **state)
        header = {
            "format_version": _FORMAT_VERSION,
            "framework": framework.name,
            "epoch": framework.trainer.epoch if framework.trainer else 0,
            "metadata": framework.metadata,
            "arrays": sorted(state),
            "array_count": len(state),
            "checksum": _file_crc32(tmp_archive),
            "trainer": _trainer_header(framework),
        }
        with open(tmp_header, "w") as f:
            json.dump(header, f, indent=2)
        os.replace(tmp_archive, archive)
        os.replace(tmp_header, header_path)
    finally:
        for tmp in (tmp_archive, tmp_header):
            try:
                os.remove(tmp)
            except OSError:
                pass
    return archive


def checkpoint_info(path):
    """Read a checkpoint's JSON header without loading arrays."""
    with open(_header_path(_archive_path(path))) as f:
        return json.load(f)


def verify_checkpoint(path):
    """Validate a checkpoint pair on disk; returns the header.

    Checks that both files exist, the format version is supported, and —
    for version >= 2 — that the archive's CRC-32 checksum matches the
    header.  Raises ``ValueError`` on a torn or unsupported pair and
    ``FileNotFoundError`` on missing files.  The hot-reload watcher calls
    this before ever loading a candidate checkpoint.
    """
    archive = _archive_path(path)
    header = checkpoint_info(archive)
    version = int(header.get("format_version", 1))
    if version > _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format_version {version} is newer than "
            f"supported version {_FORMAT_VERSION}"
        )
    if version >= 2:
        checksum = _file_crc32(archive)
        if checksum != header.get("checksum"):
            raise ValueError(
                f"torn checkpoint: archive checksum {checksum:#010x} does "
                f"not match header {header.get('checksum'):#010x} "
                f"({archive!r})"
            )
    return header


def _restore_weights(framework, state, header, weights_only):
    """Restore actor and critic parameters; returns leftover trainer arrays."""
    weight_state = {
        key: value
        for key, value in state.items()
        if not key.startswith(_TRAINER_PREFIX)
    }
    expected = _framework_state(framework)
    if weights_only:
        # Actors must be fully restorable; critics are restored only when
        # both sides have them (an ES-trained checkpoint can serve through
        # a critic-bearing inference framework, and vice versa).
        expected_actors = {k for k in expected if k.startswith("actor.")}
        missing = expected_actors - set(weight_state)
        if missing:
            raise KeyError(f"checkpoint mismatch; missing={sorted(missing)}")
        expected_critics = {k for k in expected if not k.startswith("actor.")}
        restore_critics = expected_critics <= set(weight_state)
    else:
        missing = set(expected) - set(weight_state)
        unexpected = set(weight_state) - set(expected)
        if missing or unexpected:
            raise KeyError(
                f"checkpoint mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        restore_critics = True

    for i, actor in enumerate(framework.actors.actors):
        if hasattr(actor, "load_state_dict"):
            prefix = f"actor.{i}."
            actor.load_state_dict(
                {
                    key[len(prefix):]: value
                    for key, value in weight_state.items()
                    if key.startswith(prefix)
                }
            )
    trainer = framework.trainer
    if trainer is not None and hasattr(trainer, "critic") and restore_critics:
        trainer.critic.load_state_dict(
            {
                key[len("critic."):]: value
                for key, value in weight_state.items()
                if key.startswith("critic.")
            }
        )
        trainer.target_critic.load_state_dict(
            {
                key[len("target_critic."):]: value
                for key, value in weight_state.items()
                if key.startswith("target_critic.")
            }
        )
    return {
        key: value
        for key, value in state.items()
        if key.startswith(_TRAINER_PREFIX)
    }


def _restore_trainer(framework, trainer_arrays, header):
    """Restore optimizer moments, sync counter and RNG streams (v2)."""
    trainer = framework.trainer
    if trainer is None:
        return
    trainer.epoch = int(header.get("epoch", 0))
    doc = header.get("trainer") or {}
    saved_kind = doc.get("kind")
    kind = _trainer_kind(trainer)
    if saved_kind is None:
        return
    if saved_kind != kind:
        raise ValueError(
            f"checkpoint trainer kind {saved_kind!r} does not match the "
            f"framework's {kind!r} trainer; load with weights_only=True "
            f"for inference"
        )
    for attr, prefix in _OPTIMIZER_LABELS:
        optimizer = getattr(trainer, attr, None)
        sub = {
            key[len(prefix):]: value
            for key, value in trainer_arrays.items()
            if key.startswith(prefix)
        }
        if optimizer is not None and sub:
            optimizer.load_state_dict(sub)
    if hasattr(trainer, "target_syncs") and "target_syncs" in doc:
        trainer.target_syncs = int(doc["target_syncs"])
    if kind == "es":
        from repro.marl.evolution.population import flat_team_vector

        trainer.base_vector = flat_team_vector(trainer.actors)
        if "es_generation" in doc:
            trainer.optimizer.generation = int(doc["es_generation"])
    if "action_rng" in doc and getattr(trainer, "rng", None) is not None:
        trainer.rng.bit_generator.state = _from_jsonable(doc["action_rng"])
    env_rng = getattr(getattr(trainer, "env", None), "rng", None)
    if "env_rng" in doc and env_rng is not None:
        env_rng.bit_generator.state = _from_jsonable(doc["env_rng"])


def load_checkpoint(framework, path, strict=True, weights_only=False):
    """Restore a checkpoint into a compatible framework; returns ``framework``.

    Args:
        framework: A framework built with the *same configuration* (name,
            env sizes, budgets) as the one that was saved.
        path: Checkpoint path written by :func:`save_checkpoint`.
        strict: When True, the checkpoint's framework name must match.
        weights_only: Restore policy parameters only — no epoch, optimizer,
            counter, or RNG state.  This is the serving path: it tolerates
            trainer mismatches (e.g. an ES-trained checkpoint loaded into a
            MAPG-built inference framework) as long as the actor arrays
            line up.

    Version-2 checkpoints are checksum-verified first and fully restore the
    trainer's resume state; version-1 checkpoints restore weights and epoch
    only (inference-grade).
    """
    archive = _archive_path(path)
    header = verify_checkpoint(archive)
    version = int(header.get("format_version", 1))
    if strict and header["framework"] != framework.name:
        raise ValueError(
            f"checkpoint is for {header['framework']!r}, "
            f"got a {framework.name!r} framework"
        )
    with np.load(archive) as arch:
        state = {key: arch[key] for key in arch.files}
    if version >= 2 and len(state) != int(header.get("array_count", len(state))):
        raise ValueError(
            f"torn checkpoint: archive holds {len(state)} arrays, header "
            f"promises {header.get('array_count')} ({archive!r})"
        )

    trainer_arrays = _restore_weights(framework, state, header, weights_only)
    if weights_only:
        return framework
    if version >= 2:
        _restore_trainer(framework, trainer_arrays, header)
    elif framework.trainer is not None:
        framework.trainer.epoch = int(header.get("epoch", 0))
    return framework
