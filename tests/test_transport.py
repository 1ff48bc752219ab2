"""Tests for the parent-worker pipe protocol
(``repro.marl.parallel.transport``).

Arbitrary replies — finished episodes and array blocks of any dtype and
shape, 0-d, empty and non-contiguous included — cross a real worker
process bit-exactly; a worker's exception and a worker's death surface as
the two distinct error types; RNG stream snapshots resume exactly; and the
sharded pool runs without shared memory.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marl.buffer import EPISODE_COLUMNS, Episode
from repro.marl.parallel.transport import (
    PipeChannel,
    ShmRingChannel,
    WorkerCrashError,
    WorkerEndpoint,
    WorkerTaskError,
    get_rng_state,
    rng_from_state,
)

BLOCK_DTYPES = (
    np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_,
    np.complex128,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _echo_worker(connection):
    """Answer ``("echo", x)`` with ``x``, ``("raise", msg)`` with an error
    reply, ``("die",)`` by exiting without a reply."""
    endpoint = WorkerEndpoint(connection)
    while True:
        try:
            message = endpoint.recv()
        except (EOFError, OSError):
            break
        if message[0] == "close":
            endpoint.send_ok(None)
            break
        if message[0] == "die":
            os._exit(3)
        if message[0] == "raise":
            endpoint.send_error(f"Traceback ...\nValueError: {message[1]}")
            continue
        endpoint.send_ok(message[1])
    endpoint.close()


def start_echo_worker():
    """A forked echo worker; returns the parent's channel to it."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_echo_worker, args=(child_end,), daemon=True
    )
    process.start()
    child_end.close()
    return PipeChannel(process, parent_end)


@pytest.fixture(scope="module")
def echo():
    channel = start_echo_worker()
    yield channel
    channel.send(("close",))
    channel.recv()
    channel.close()
    channel.process.join(timeout=10.0)


def roundtrip(channel, payload):
    channel.send(("echo", payload))
    return channel.recv()


@st.composite
def arrays(draw, max_dim=4, max_side=6):
    """One array of any block dtype and shape — 0-d and zero-size
    included — drawn contiguous or as a strided view."""
    dtype = np.dtype(draw(st.sampled_from(BLOCK_DTYPES)))
    ndim = draw(st.integers(0, max_dim))
    shape = tuple(draw(st.integers(0, max_side)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    array = (rng.normal(size=shape) * 50).astype(dtype)
    if array.ndim and draw(st.booleans()):
        array = array[..., ::2]  # non-contiguous
    if array.ndim > 1 and draw(st.booleans()):
        array = array.T
    return array


@st.composite
def episodes(draw, max_steps=4):
    """A finished episode of random size whose columns may be strided
    views (``from_arrays`` keeps views of matching dtype)."""
    n_steps = draw(st.integers(1, max_steps))
    n_agents = draw(st.integers(1, 3))
    obs_size = draw(st.integers(1, 5))
    state_size = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    states = rng.normal(size=(n_steps, 2 * state_size))[:, ::2]
    observations = rng.normal(size=(n_steps, n_agents, obs_size))
    next_observations = np.swapaxes(
        rng.normal(size=(n_steps, obs_size, n_agents)), 1, 2
    )
    return Episode.from_arrays(
        states, observations,
        rng.integers(0, 4, size=(n_steps, n_agents)),
        rng.normal(size=n_steps),
        rng.normal(size=(n_steps, state_size)),
        next_observations,
        np.arange(n_steps) == n_steps - 1,
    )


def assert_arrays_identical(sent, got):
    assert got.dtype == sent.dtype
    assert got.shape == sent.shape
    assert got.tobytes() == np.ascontiguousarray(sent).tobytes()


class TestWorkerPipeRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(episodes(), min_size=1, max_size=3))
    def test_collect_reply_roundtrip(self, echo, batch):
        """A collect-shaped reply (episodes + stats + control payload)
        crosses a real worker process bit-exactly."""
        payload = {
            "episodes": batch,
            "stats": [{"total_reward": e.total_reward} for e in batch],
            "marker": 123,
        }
        result = roundtrip(echo, payload)
        assert result["marker"] == 123
        assert result["stats"] == payload["stats"]
        assert len(result["episodes"]) == len(batch)
        for sent, got in zip(batch, result["episodes"]):
            assert got.length == sent.length
            for column in EPISODE_COLUMNS:
                assert_arrays_identical(
                    getattr(sent, column), getattr(got, column)
                )

    @settings(max_examples=40, deadline=None)
    @given(blocks=st.lists(arrays(), max_size=5))
    def test_array_blocks_roundtrip(self, echo, blocks):
        """Array blocks of any dtype and shape come back with the same
        dtype, shape and bytes (the serving tier's probability blocks)."""
        got = roundtrip(echo, blocks)
        assert len(got) == len(blocks)
        for sent, received in zip(blocks, got):
            assert_arrays_identical(sent, received)

    @pytest.mark.parametrize(
        "array",
        [np.asarray(7.5), np.zeros((0, 4), dtype=np.int64),
         np.arange(24.0).reshape(4, 6)[::2, 1::2]],
        ids=["scalar", "empty", "strided"],
    )
    def test_edge_shapes(self, echo, array):
        assert_arrays_identical(array, roundtrip(echo, array))


class TestPipeChannel:
    def test_error_reply_is_a_task_error(self, echo):
        """A worker's exception arrives as WorkerTaskError carrying its
        traceback, and the channel keeps serving the next request."""
        echo.send(("raise", "bad shard"))
        with pytest.raises(WorkerTaskError, match="ValueError: bad shard"):
            echo.recv()
        assert roundtrip(echo, "still here") == "still here"

    def test_death_before_reply_is_a_crash(self):
        channel = start_echo_worker()
        try:
            channel.send(("die",))
            with pytest.raises(WorkerCrashError, match="died before replying"):
                channel.recv()
        finally:
            channel.close()
            channel.process.join(timeout=10.0)

    def test_send_to_dead_worker_is_a_crash(self):
        channel = start_echo_worker()
        try:
            channel.process.kill()
            channel.process.join(timeout=10.0)
            with pytest.raises(WorkerCrashError, match="is dead"):
                channel.send(("echo", 1))
        finally:
            channel.close()

    def test_close_is_idempotent(self):
        parent_end, child_end = multiprocessing.Pipe()
        endpoint = WorkerEndpoint(child_end)
        channel = PipeChannel(None, parent_end)
        for _ in range(2):
            endpoint.close()
            channel.close()

    def test_shm_ring_channel_is_a_distinct_recv_binding(self):
        """The kept stub owns a ``recv`` binding of its own (an alias of
        PipeChannel would let a per-class timer wrap one method twice)."""
        assert ShmRingChannel is not PipeChannel
        assert issubclass(ShmRingChannel, PipeChannel)
        assert ShmRingChannel.__dict__["recv"] is PipeChannel.__dict__["recv"]


class TestRngStates:
    def test_state_resumes_the_stream(self):
        rng = np.random.default_rng(17)
        rng.random(5)
        rebuilt = rng_from_state(get_rng_state(rng))
        assert np.array_equal(rebuilt.random(8), rng.random(8))

    def test_snapshot_does_not_follow_the_stream(self):
        rng = np.random.default_rng(17)
        snapshot = get_rng_state(rng)
        first = rng.random(3)
        rng.random(100)
        assert np.array_equal(rng_from_state(snapshot).random(3), first)


def test_sharded_pool_uses_no_shared_memory():
    """A sharded collect and a sharded serving batch, in a fresh
    interpreter, never import ``multiprocessing.shared_memory`` and never
    start multiprocessing's resource-tracker process."""
    script = """
import sys
import numpy as np
from multiprocessing import resource_tracker
from repro.config import SingleHopConfig
from repro.marl.actors import ActorGroup, ClassicalActor
from repro.marl.parallel import ShardedRolloutCollector
from repro.envs.single_hop import SingleHopOffloadEnv
from repro.serving import ShardedPolicyEngine
from repro.serving.engine import FrameworkSpec

env = SingleHopOffloadEnv(SingleHopConfig(episode_limit=3),
                          rng=np.random.default_rng(0))
actors = ActorGroup([ClassicalActor(4, 4, (), np.random.default_rng(i))
                     for i in range(4)])
with ShardedRolloutCollector(env, actors, n_envs=2, n_workers=2) as pool:
    pool.collect(2, np.random.default_rng(1))
spec = FrameworkSpec("comp2", env_config=SingleHopConfig(episode_limit=3))
with ShardedPolicyEngine(spec, n_workers=2) as engine:
    engine.infer(np.zeros((3, 4)), [0, 1, 2])
print("multiprocessing.shared_memory" in sys.modules,
      resource_tracker._resource_tracker._pid)
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "None"]
