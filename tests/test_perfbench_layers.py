"""The benchmark's per-layer bindings (``perfbench/layers.py``).

A traced benchmark run wraps every :data:`LAYER_TARGETS` binding — module
attributes and class methods across the package — and raises at install
when one was renamed or deleted.  These tests catch that in the tier-1
suite: every target resolves, installing wraps each one once, uninstalling
restores every original, and the receive-wait layer counts each worker
reply once.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from repro import obs
from repro.marl.parallel import ShardedRolloutCollector

from tests.helpers import make_classical_team, make_offload_env

LAYERS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "layers.py",
)


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", LAYERS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TARGET_PATHS = [path for _, path, _ in layers.LAYER_TARGETS]


def resolve(path):
    """``(owner, attribute)`` of a ``"module:Class.attr"`` target."""
    module_name, attr_path = path.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


@pytest.mark.parametrize("path", TARGET_PATHS)
def test_target_resolves(path):
    owner, attr = resolve(path)
    assert callable(owner.__dict__[attr])


def test_install_then_uninstall_restores_every_binding():
    bindings = [resolve(path) for path in TARGET_PATHS]
    originals = [owner.__dict__[attr] for owner, attr in bindings]
    timer = layers.LayerTimer().install()
    try:
        for (owner, attr), original in zip(bindings, originals):
            assert owner.__dict__[attr].__wrapped__ is original, attr
    finally:
        timer.uninstall()
    for (owner, attr), original in zip(bindings, originals):
        assert owner.__dict__[attr] is original, attr


def test_recv_wait_counts_each_reply_once():
    """One fixed-length collect over 2 workers receives 2 commit replies;
    the layer must read 2, not 4 (a target wrapped twice)."""
    env = make_offload_env("single_hop", 3, episode_limit=5)
    actors = make_classical_team(env, 4)
    timer = layers.LayerTimer().install()
    try:
        with obs.telemetry(), ShardedRolloutCollector(
            env, actors, n_envs=2, n_workers=2
        ) as pool:
            rng = np.random.default_rng(0)
            # Workers forked with whatever the parent had counted; their
            # first reply ships it back, so count from the second collect.
            pool.collect(2, rng)
            obs.reset()
            pool.collect(2, rng)
            totals = layers.layer_totals(obs.snapshot()["counters"])
    finally:
        timer.uninstall()
    assert totals["parallel.collect"]["calls"] == 1
    assert totals["parallel.recv_wait"]["calls"] == 2
