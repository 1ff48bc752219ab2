"""Tests for the policy-serving tier: batcher, engine, reload, HTTP, CLI.

The serving contract under test:

- the micro-batcher coalesces concurrent requests into single stacked
  evaluations, never splits a request group, and sheds load at the bound;
- the engine's answers are bit-for-bit the framework's own
  (``rows_probabilities`` / ``actors.act``) — batching changes latency,
  never results;
- hot reload swaps verified checkpoints between batches, drops zero
  requests under sustained load, and never serves a torn pair;
- a malformed request (bad observation, agent that is not an integer in
  range) answers 400 alone and keeps its connection open;
- a policy that is not a distribution, or any fault while a batch is
  evaluated, answers 500 naming the cause — never 200 or a dropped socket;
- the CLI announces its bound port on a pipe at once and exits cleanly
  on SIGINT.
"""

import asyncio
import http.client
import io
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.config import ServingConfig, SingleHopConfig, TrainingConfig
from repro.marl.actors import categorical_from_cdf, policy_cdf
from repro.marl.checkpoint import checkpoint_info, save_checkpoint
from repro.marl.frameworks import build_framework
from repro.serving import (
    AsyncServingClient,
    CheckpointWatcher,
    MicroBatcher,
    OverloadedError,
    PolicyEngine,
    PolicyServer,
    ServerError,
    select_actions,
)
from repro.serving.engine import FrameworkSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
ENV = SingleHopConfig(episode_limit=5)
TRAIN = TrainingConfig(episodes_per_epoch=1, actor_lr=1e-3, critic_lr=1e-3)
SPEC = FrameworkSpec(name="proposed", env_config=ENV)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Two differently-trained checkpoints plus their live frameworks."""
    base = tmp_path_factory.mktemp("serving-ckpts")
    frameworks = {}
    paths = {}
    for label, seed in (("a", 7), ("b", 21)):
        framework = build_framework(
            "proposed", seed=seed, env_config=ENV, train_config=TRAIN
        )
        framework.train(n_epochs=1)
        frameworks[label] = framework
        paths[label] = save_checkpoint(framework, str(base / label))
    yield {"paths": paths, "frameworks": frameworks}
    for framework in frameworks.values():
        framework.close()


class TestSelectActions:
    def test_greedy_rows_take_argmax(self, rng):
        probs = rng.uniform(size=(6, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        actions = select_actions(probs, [True] * 6, rng.random(6))
        assert np.array_equal(actions, np.argmax(probs, axis=1))

    def test_mixed_mask_layout_independent(self, rng):
        """Greedy rows ignore their draws: one draw per row regardless."""
        probs = rng.uniform(size=(5, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        mask = [True, False, True, False, False]
        draws = rng.random(5)
        actions = select_actions(probs, mask, draws)
        tampered = draws.copy()
        tampered[0] = 1.0 - tampered[0]  # greedy row's draw is unused
        assert np.array_equal(actions, select_actions(probs, mask, tampered))
        # Sampled rows invert the same uniforms as the rollout sampler.
        from repro.marl.actors import categorical_from_draws

        sampled = ~np.asarray(mask)
        assert np.array_equal(
            actions[sampled],
            categorical_from_draws(probs[sampled], draws[sampled]),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0],
                             ids=["nan", "infinity", "no_mass"])
    @pytest.mark.parametrize("greedy", [True, False])
    def test_non_distribution_row_raises(self, rng, bad, greedy):
        """argmax and the CDF inversion would both make such a row
        action 0; the row is named instead."""
        probs = np.full((3, 4), 0.25)
        probs[2] = bad
        with pytest.raises(ValueError, match="row 2 are not finite"):
            select_actions(probs, [greedy] * 3, rng.random(3))


class FakeEngine:
    """Engine double recording batch sizes; action := agent index."""

    def __init__(self, fail=False):
        self.calls = []
        self.generation = 1
        self.fail = fail

    def act(self, observations, agents, greedy):
        if self.fail:
            raise RuntimeError("engine exploded")
        self.calls.append(len(observations))
        probs = np.full((len(observations), 4), 0.25)
        return np.asarray(agents), probs, self.generation


class TestMicroBatcher:
    def test_concurrent_requests_coalesce_into_one_flush(self):
        async def scenario():
            engine = FakeEngine()
            batcher = MicroBatcher(engine, max_batch=8, max_wait_us=200000)
            results = await asyncio.gather(*(
                batcher.submit(np.zeros((1, 4)), [i % 3], [True])
                for i in range(8)
            ))
            return engine, results

        engine, results = run(scenario())
        assert engine.calls == [8]  # one stacked call, not eight
        for i, (actions, probs, generation) in enumerate(results):
            assert actions.tolist() == [i % 3]
            assert probs.shape == (1, 4)
            assert generation == 1

    def test_timer_flushes_partial_batch(self):
        async def scenario():
            engine = FakeEngine()
            batcher = MicroBatcher(engine, max_batch=64, max_wait_us=2000)
            await asyncio.gather(*(
                batcher.submit(np.zeros((1, 4)), [0], [True])
                for _ in range(3)
            ))
            return engine, batcher

        engine, batcher = run(scenario())
        assert engine.calls == [3]
        assert batcher.stats["flush_time"] == 1
        assert batcher.stats["flush_size"] == 0
        assert batcher.pending_rows == 0

    def test_request_groups_are_never_split(self):
        async def scenario():
            engine = FakeEngine()
            batcher = MicroBatcher(engine, max_batch=4, max_wait_us=2000)
            results = await asyncio.gather(
                batcher.submit(np.zeros((3, 4)), [0, 1, 2], [True] * 3),
                batcher.submit(np.zeros((3, 4)), [2, 1, 0], [True] * 3),
            )
            return engine, results

        engine, results = run(scenario())
        # 3 + 3 rows with max_batch=4: two whole-group flushes, no split.
        assert engine.calls == [3, 3]
        assert results[0][0].tolist() == [0, 1, 2]
        assert results[1][0].tolist() == [2, 1, 0]

    def test_oversized_group_flushes_alone(self):
        async def scenario():
            engine = FakeEngine()
            batcher = MicroBatcher(engine, max_batch=2, max_wait_us=2000)
            return engine, await batcher.submit(
                np.zeros((5, 4)), list(range(5)), [True] * 5
            )

        engine, (actions, _, _) = run(scenario())
        assert engine.calls == [5]
        assert actions.tolist() == [0, 1, 2, 3, 4]

    def test_overload_sheds_at_the_bound(self):
        async def scenario():
            engine = FakeEngine()
            batcher = MicroBatcher(
                engine, max_batch=64, max_wait_us=1000, max_pending=2
            )
            results = await asyncio.gather(
                *(batcher.submit(np.zeros((1, 4)), [0], [False])
                  for _ in range(3)),
                return_exceptions=True,
            )
            return batcher, results

        batcher, results = run(scenario())
        overloaded = [r for r in results if isinstance(r, OverloadedError)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(overloaded) == 1 and len(served) == 2
        assert batcher.stats["rejected"] == 1

    def test_engine_failure_fails_the_waiters(self):
        async def scenario():
            batcher = MicroBatcher(FakeEngine(fail=True), max_batch=2,
                                   max_wait_us=1000)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await batcher.submit(np.zeros((2, 4)), [0, 1], [True, True])

        run(scenario())


class TestPolicyEngine:
    def test_probabilities_match_the_framework(self, checkpoints, rng):
        engine = PolicyEngine(SPEC, checkpoint_path=checkpoints["paths"]["a"])
        try:
            source = checkpoints["frameworks"]["a"]
            observations = rng.uniform(size=(6, ENV.observation_size))
            agents = rng.integers(0, ENV.n_agents, size=6)
            probs, generation = engine.infer(observations, agents)
            assert generation == 1
            for r in range(6):
                direct = source.actors.actors[agents[r]].probabilities(
                    observations[r][None]
                )[0]
                assert np.allclose(probs[r], direct, atol=1e-12)
        finally:
            engine.close()

    def test_greedy_act_matches_direct_actors_act(self, checkpoints, rng):
        """The serving answer is the framework's own answer."""
        engine = PolicyEngine(SPEC, checkpoint_path=checkpoints["paths"]["a"])
        try:
            source = checkpoints["frameworks"]["a"]
            observations = rng.uniform(
                size=(ENV.n_agents, ENV.observation_size)
            )
            actions, _, _ = engine.act(
                observations, np.arange(ENV.n_agents), [True] * ENV.n_agents
            )
            direct = source.actors.act(
                observations, np.random.default_rng(0), greedy=True
            )
            assert actions.tolist() == list(direct)
        finally:
            engine.close()

    def test_shadow_swap_bumps_generation_and_weights(self, checkpoints, rng):
        engine = PolicyEngine(SPEC, checkpoint_path=checkpoints["paths"]["a"])
        try:
            observations = rng.uniform(size=(3, ENV.observation_size))
            agents = [0, 1, 0]
            before, _ = engine.infer(observations, agents)
            shadow = engine.load_shadow(checkpoints["paths"]["b"])
            engine.swap(shadow, checkpoints["paths"]["b"])
            after, generation = engine.infer(observations, agents)
            assert generation == 2
            assert not np.allclose(before, after)
            expected = checkpoints["frameworks"]["b"].actors.rows_probabilities(
                observations, agents
            )
            assert np.allclose(after, expected, atol=1e-12)
        finally:
            engine.close()


def _masked_select_actions(probs, greedy_mask, draws):
    """The mask-based sampler: argmax on the greedy rows, the categorical
    inversion on the rest only."""
    cdf = policy_cdf(probs)
    greedy_mask = np.asarray(greedy_mask, dtype=bool)
    actions = np.empty(cdf.shape[0], dtype=np.int64)
    if greedy_mask.any():
        actions[greedy_mask] = np.argmax(probs[greedy_mask], axis=1)
    sampled = ~greedy_mask
    if sampled.any():
        actions[sampled] = categorical_from_cdf(cdf[sampled], draws[sampled])
    return actions


class TestServedDecisionsAreBitIdentical:
    """A fixed request sequence — mixed greedy masks, agent orders and
    ``return_probs`` — served through ``PolicyEngine.act``, a coalescing
    micro-batcher and HTTP gives exactly the reference bits: each
    request's probabilities from ``rows_probabilities`` on its rows alone,
    and actions from the mask-based sampler fed those probabilities and
    the engine stream's draws in request order."""

    SAMPLE_SEED = 5
    SHAPES = [  # (agents, greedy mask, return_probs)
        ([0, 1, 2, 3], [False] * 4, True),
        ([3, 1], [True, False], False),
        ([2], [False], True),
        ([1, 1, 0, 2, 3], [False, True, False, True, False], True),
        ([0, 3, 2, 1], [True] * 4, False),
        ([2, 0], [False, False], False),
        ([3], [True], True),
    ]

    def _requests(self):
        rng = np.random.default_rng(42)
        return [
            (rng.uniform(size=(len(agents), ENV.observation_size)), agents,
             greedy, return_probs)
            for agents, greedy, return_probs in self.SHAPES
        ]

    def _reference(self, framework, requests):
        draws = np.random.default_rng(self.SAMPLE_SEED)
        expected = []
        for observations, agents, greedy, _ in requests:
            probs = framework.actors.rows_probabilities(observations, agents)
            actions = _masked_select_actions(
                probs, greedy, draws.random(len(agents))
            )
            expected.append((actions, probs))
        return expected

    def _engine(self, checkpoints):
        return PolicyEngine(SPEC, checkpoint_path=checkpoints["paths"]["a"],
                            sample_seed=self.SAMPLE_SEED)

    @staticmethod
    def _assert_same(served, expected):
        for (actions, probs, generation), (want_actions, want_probs) in zip(
                served, expected, strict=True):
            assert actions.dtype == want_actions.dtype
            assert actions.tolist() == want_actions.tolist()
            assert probs.tobytes() == want_probs.tobytes()
            assert generation == 1

    def test_engine_act(self, checkpoints):
        requests = self._requests()
        expected = self._reference(checkpoints["frameworks"]["a"], requests)
        engine = self._engine(checkpoints)
        try:
            served = [engine.act(observations, agents, greedy)
                      for observations, agents, greedy, _ in requests]
        finally:
            engine.close()
        self._assert_same(served, expected)

    def test_one_coalesced_micro_batch(self, checkpoints):
        # Rows of a batch of two or more are evaluated independently of
        # each other; a lone row's measurement takes another matmul kernel
        # and can differ in the last bit, so one-row requests are left out.
        requests = [r for r in self._requests() if len(r[1]) > 1]
        expected = self._reference(checkpoints["frameworks"]["a"], requests)
        engine = self._engine(checkpoints)

        async def scenario():
            batcher = MicroBatcher(engine, max_batch=64, max_wait_us=200000)
            served = await asyncio.gather(*(
                batcher.submit(observations, agents, greedy)
                for observations, agents, greedy, _ in requests
            ))
            return served, batcher.stats["batches"]

        try:
            served, batches = run(scenario())
        finally:
            engine.close()
        assert batches == 1
        self._assert_same(served, expected)

    def test_http_responses(self, checkpoints):
        requests = self._requests()
        expected = self._reference(checkpoints["frameworks"]["a"], requests)

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0, max_wait_us=0,
                                   sample_seed=self.SAMPLE_SEED)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            documents = []
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    for observations, agents, greedy, with_probs in requests:
                        if len(agents) == 1:
                            documents.append(await client.act(
                                observations[0], agents[0], greedy[0]
                            ))
                        else:
                            documents.append(await client.act_batch(
                                observations, agents, greedy=greedy,
                                return_probs=with_probs,
                            ))
            finally:
                await server.stop()
            return documents

        documents = run(scenario())
        for document, (_, agents, _, with_probs), (actions, probs) in zip(
                documents, requests, expected, strict=True):
            assert document["generation"] == 1
            if len(agents) == 1:
                assert document["action"] == actions[0]
                assert document["probs"] == probs[0].tolist()
                continue
            assert document["actions"] == actions.tolist()
            if with_probs:
                assert document["probs"] == probs.tolist()
            else:
                assert "probs" not in document


class TestCheckpointWatcher:
    """Deterministic poll_once semantics (no thread, no server)."""

    def make_watcher(self, path, applied):
        info = checkpoint_info(path)
        return CheckpointWatcher(
            path,
            lambda p, header: applied.append(header["checksum"]),
            initial_checksum=info["checksum"],
        )

    def test_reload_rejects_torn_then_applies_fixed(self, checkpoints,
                                                    tmp_path):
        source = checkpoints["frameworks"]["a"]
        path = str(tmp_path / "live.npz")
        save_checkpoint(source, path)
        applied = []
        watcher = self.make_watcher(path, applied)

        assert watcher.poll_once() is False  # nothing changed

        # Same checksum, new mtime: recognised as unchanged, no reload.
        import os
        os.utime(path)
        assert watcher.poll_once() is False
        assert watcher.stats["unchanged"] == 1

        # A genuinely new checkpoint applies.
        save_checkpoint(checkpoints["frameworks"]["b"], path)
        assert watcher.poll_once() is True
        assert applied == [checkpoint_info(path)["checksum"]]

        # A torn pair is rejected — and, because its signature is NOT
        # recorded, the next poll retries instead of wedging.
        with open(path, "ab") as f:
            f.write(b"torn")
        assert watcher.poll_once() is False
        assert watcher.stats["rejected"] == 1
        save_checkpoint(source, path)  # repaired with different weights
        assert watcher.poll_once() is True
        assert len(applied) == 2
        assert watcher.stats["reloads"] == 2


def _copy_checkpoint(src_archive, dst_archive):
    shutil.copy(src_archive, dst_archive)
    shutil.copy(
        src_archive[: -len(".npz")] + ".json",
        dst_archive[: -len(".npz")] + ".json",
    )


class TestHotReloadUnderLoad:
    def test_zero_drops_and_no_torn_serve(self, checkpoints, tmp_path):
        """Sustained load across a hot reload: every request answers, the
        generation advances exactly once, and a torn overwrite is never
        served."""
        path = str(tmp_path / "live.npz")
        _copy_checkpoint(checkpoints["paths"]["a"], path)
        framework_b = checkpoints["frameworks"]["b"]
        probe = np.linspace(0.1, 0.9, ENV.observation_size)
        expected_after = int(np.argmax(
            framework_b.actors.actors[0].probabilities(probe[None])[0]
        ))

        async def scenario():
            config = ServingConfig(
                port=0, reload_poll_ms=25, max_batch=8, max_wait_us=500
            )
            server = PolicyServer(SPEC, config, checkpoint_path=path)
            await server.start()
            loop = asyncio.get_running_loop()
            done = asyncio.Event()
            responses = []

            async def pound():
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    while not done.is_set():
                        responses.append(
                            await client.act(probe, 0, greedy=True)
                        )

            workers = [asyncio.create_task(pound()) for _ in range(4)]
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as control:
                    base = (await control.health())["generation"]
                    await asyncio.sleep(0.1)  # load before the reload

                    save_checkpoint(framework_b, path)
                    deadline = loop.time() + 15.0
                    while (await control.health())["generation"] == base:
                        assert loop.time() < deadline, "reload never landed"
                        await asyncio.sleep(0.02)
                    swapped = (await control.health())["generation"]
                    assert swapped == base + 1

                    # Torn overwrite: rejected, generation stays, serving
                    # continues.
                    with open(path, "ab") as f:
                        f.write(b"torn")
                    await asyncio.sleep(0.2)  # several poll intervals
                    stats = await control.stats()
                    assert stats["generation"] == swapped
                    assert stats["reload"]["rejected"] >= 1
                    await asyncio.sleep(0.05)
            finally:
                done.set()
                await asyncio.gather(*workers)  # raises on any dropped request
                final_stats = await asyncio.wait_for(
                    AsyncServingClient("127.0.0.1", server.port).stats(), 5
                )
                await server.stop()
            return responses, final_stats

        responses, stats = run(scenario())
        assert stats["errors"] == 0  # zero drops, zero non-200s
        assert len(responses) > 20
        generations = {r["generation"] for r in responses}
        assert len(generations) == 2  # old and new, nothing else
        # Every post-swap response came from the new weights.
        post_swap = [r for r in responses
                     if r["generation"] == max(generations)]
        assert post_swap, "no request observed the new generation"
        assert all(r["action"] == expected_after for r in post_swap)


class TestServerHTTP:
    def test_end_to_end_routes(self, checkpoints, rng):
        source = checkpoints["frameworks"]["a"]
        observations = rng.uniform(size=(3, ENV.observation_size))
        expected = source.actors.rows_probabilities(observations, [0, 1, 0])

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0, max_batch=8,
                                   max_wait_us=500)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            out = {}
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    out["health"] = await client.health()
                    out["act"] = await client.act(
                        observations[0], 0, greedy=True
                    )
                    out["batch"] = await client.act_batch(
                        observations, [0, 1, 0], greedy=True,
                        return_probs=True,
                    )
                    for status, call in (
                        (404, client.request("GET", "/nope")),
                        (400, client.request(
                            "POST", "/v1/act", {"agent": 0}
                        )),
                        (400, client.request(
                            "POST", "/v1/act-batch",
                            {"observations": [[0.0]], "agents": [0, 1],
                             "greedy": True},
                        )),
                    ):
                        with pytest.raises(ServerError) as excinfo:
                            await call
                        assert excinfo.value.status == status
                    out["stats"] = await client.stats()
            finally:
                await server.stop()
            return out

        out = run(scenario())
        assert out["health"]["status"] == "ok"
        assert out["health"]["generation"] == 1
        assert out["act"]["action"] == int(np.argmax(expected[0]))
        assert np.allclose(out["act"]["probs"], expected[0], atol=1e-9)
        assert out["batch"]["actions"] == [
            int(a) for a in np.argmax(expected, axis=1)
        ]
        assert np.allclose(out["batch"]["probs"], expected, atol=1e-9)
        assert out["stats"]["requests"] >= 3
        assert out["stats"]["errors"] >= 3  # the provoked 404/400s
        assert out["stats"]["batcher"]["rows"] >= 4


class TestHTTPFraming:
    """Raw bytes at the server: the head forms it answers, heads split
    over writes, pipelining, ``Connection: close``, and the requests that
    close their connection unanswered."""

    @staticmethod
    def _serve(checkpoints, scenario):
        async def main():
            config = ServingConfig(port=0, reload_poll_ms=0, max_wait_us=500)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            try:
                return await scenario(server.port)
            finally:
                await server.stop()

        return run(main())

    @staticmethod
    def _act_request(eol=b"\r\n", connection=b"keep-alive"):
        body = json.dumps({"observation": [0.5] * ENV.observation_size,
                           "agent": 1, "greedy": True}).encode()
        lines = [b"POST /v1/act HTTP/1.1", b"Host: 127.0.0.1",
                 b"Content-Type: application/json",
                 b"Content-Length: %d" % len(body),
                 b"Connection: " + connection]
        return eol.join(lines) + eol + eol + body

    HEALTH = b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"

    @staticmethod
    async def _send(port, *chunks):
        """Open a connection and write ``chunks`` with a pause between
        them, so each reaches the server as its own segment."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for i, chunk in enumerate(chunks):
            if i:
                await asyncio.sleep(0.02)
            writer.write(chunk)
            await writer.drain()
        return reader, writer

    @staticmethod
    async def _response(reader):
        """``(status, headers, document)`` of the next response, or None
        when the server closed the connection without one."""
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
        except asyncio.IncompleteReadError as exc:
            assert exc.partial == b""
            return None
        except ConnectionResetError:
            return None
        lines = head.decode("latin1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = dict(line.split(": ", 1) for line in lines[1:] if line)
        body = await reader.readexactly(int(headers["Content-Length"]))
        return status, headers, json.loads(body)

    @staticmethod
    async def _close(writer):
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass

    @pytest.mark.parametrize("eol", [b"\r\n", b"\n"], ids=["crlf", "lf"])
    def test_crlf_and_bare_lf_heads_are_answered(self, checkpoints, eol):
        async def scenario(port):
            reader, writer = await self._send(port, self._act_request(eol))
            try:
                return await self._response(reader)
            finally:
                await self._close(writer)

        status, headers, document = self._serve(checkpoints, scenario)
        assert status == 200
        assert headers["Connection"] == "keep-alive"
        assert document["generation"] == 1
        assert 0 <= document["action"] < len(document["probs"])

    def test_head_split_over_three_writes_is_answered(self, checkpoints):
        request = self._act_request()
        head_end = request.index(b"\r\n\r\n")
        # Mid-line, then mid-terminator: neither piece ends a head.
        cuts = (20, head_end + 3)

        async def scenario(port):
            reader, writer = await self._send(
                port, request[:cuts[0]], request[cuts[0]:cuts[1]],
                request[cuts[1]:],
            )
            try:
                return await self._response(reader)
            finally:
                await self._close(writer)

        status, _, document = self._serve(checkpoints, scenario)
        assert status == 200
        assert "action" in document

    def test_pipelined_requests_are_answered_in_order(self, checkpoints):
        async def scenario(port):
            reader, writer = await self._send(
                port, self._act_request() + self.HEALTH
            )
            try:
                return [await self._response(reader) for _ in range(2)]
            finally:
                await self._close(writer)

        (status_a, _, act), (status_b, _, health) = self._serve(
            checkpoints, scenario
        )
        assert (status_a, status_b) == (200, 200)
        assert "action" in act
        assert health["status"] == "ok"

    def test_connection_close_gets_one_response(self, checkpoints):
        async def scenario(port):
            # A second request queued behind the closing one is not served.
            reader, writer = await self._send(
                port, self._act_request(connection=b"close") + self.HEALTH
            )
            try:
                return [await self._response(reader) for _ in range(2)]
            finally:
                await self._close(writer)

        first, second = self._serve(checkpoints, scenario)
        status, headers, document = first
        assert status == 200
        assert headers["Connection"] == "close"
        assert "action" in document
        assert second is None

    @pytest.mark.parametrize(
        "request_bytes",
        [b"GARBAGE\r\n\r\n",
         b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"],
        ids=["malformed_request_line", "70kb_header_line"],
    )
    def test_unreadable_head_closes_only_its_connection(self, checkpoints,
                                                        request_bytes):
        async def scenario(port):
            # A bystander connection, open before the bad head arrives.
            other_reader, other_writer = await self._send(port)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(request_bytes)
                await writer.drain()
            except ConnectionError:
                pass  # the server may close before the write completes
            try:
                bad = await self._response(reader)
            finally:
                await self._close(writer)
            try:
                other_writer.write(self.HEALTH)
                await other_writer.drain()
                bystander = await self._response(other_reader)
            finally:
                await self._close(other_writer)
            fresh_reader, fresh_writer = await self._send(port, self.HEALTH)
            try:
                fresh = await self._response(fresh_reader)
            finally:
                await self._close(fresh_writer)
            return bad, bystander, fresh

        bad, bystander, fresh = self._serve(checkpoints, scenario)
        assert bad is None
        for status, _, document in (bystander, fresh):
            assert status == 200
            assert document["status"] == "ok"


class TestRequestValidation:
    """Each request is checked against the served policy before it joins
    a micro-batch: a malformed one answers 400 alone and never fails the
    requests flushed with it."""

    @staticmethod
    def _serve(checkpoints, scenario, max_wait_us):
        async def main():
            config = ServingConfig(port=0, reload_poll_ms=0, max_batch=8,
                                   max_wait_us=max_wait_us)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            try:
                return await scenario(server.port)
            finally:
                await server.stop()

        return run(main())

    @pytest.mark.parametrize(
        "malformed",
        [
            {"observation": [0.1, 0.2, 0.3], "agent": 0},
            {"observation": [0.1, 0.2, 0.3, 0.4], "agent": 4},
        ],
        ids=["short_observation", "agent_out_of_range"],
    )
    def test_malformed_request_fails_alone(self, checkpoints, rng,
                                           malformed):
        observation = rng.uniform(size=ENV.observation_size)
        expected = checkpoints["frameworks"]["a"].actors.rows_probabilities(
            observation[None], [1]
        )

        async def scenario(port):
            # A 50 ms window: both requests arrive while it is open.
            async with AsyncServingClient("127.0.0.1", port) as good, \
                    AsyncServingClient("127.0.0.1", port) as bad:
                return await asyncio.gather(
                    good.act(observation, 1, greedy=True),
                    bad.request("POST", "/v1/act",
                                dict(malformed, greedy=True)),
                    return_exceptions=True,
                )

        good_reply, bad_reply = self._serve(checkpoints, scenario, 50000)
        assert not isinstance(good_reply, BaseException), good_reply
        assert good_reply["action"] == int(np.argmax(expected[0]))
        assert isinstance(bad_reply, ServerError)
        assert bad_reply.status == 400

    @pytest.mark.parametrize(
        "observation",
        [[0.1, float("nan"), 0.3, 0.4], [0.1, 0.2, float("inf"), 0.4],
         [0.1] * 9],
        ids=["nan", "infinity", "over_wide"],
    )
    def test_bad_observation_answers_400(self, checkpoints, observation):
        async def scenario(port):
            statuses = []
            async with AsyncServingClient("127.0.0.1", port) as client:
                for call in (
                    client.act(observation, 0),
                    client.act_batch([observation, observation], [0, 1]),
                ):
                    with pytest.raises(ServerError) as excinfo:
                        await call
                    statuses.append(excinfo.value.status)
                # The connection keeps serving well-formed requests.
                reply = await client.act([0.5] * ENV.observation_size, 0)
            return statuses, reply

        statuses, reply = self._serve(checkpoints, scenario, 500)
        assert statuses == [400, 400]
        assert 0 <= reply["action"] < ENV.n_clouds * len(ENV.packet_amounts)

    @pytest.mark.parametrize("flag", ["false", 0, 1, None, [False]],
                             ids=["string", "zero", "one", "null", "list"])
    def test_greedy_must_be_a_json_boolean(self, checkpoints, flag):
        """Read by truthiness, ``"greedy": "false"`` served the argmax: a
        flag that is not a JSON boolean (a list of them for a batch)
        answers 400 naming it, and the connection keeps answering."""
        observation = [0.5] * ENV.observation_size
        bodies = [
            ("/v1/act", {"observation": observation, "agent": 0,
                         "greedy": flag}),
            ("/v1/act-batch", {"observations": [observation] * 2,
                               "agents": [0, 1], "greedy": [flag, flag]}),
        ]
        if not isinstance(flag, list):
            bodies.append(("/v1/act-batch",
                           {"observations": [observation] * 2,
                            "agents": [0, 1], "greedy": flag}))

        async def scenario(port):
            failures = []
            async with AsyncServingClient("127.0.0.1", port) as client:
                for path, body in bodies:
                    with pytest.raises(ServerError) as excinfo:
                        await client.request("POST", path, body)
                    failures.append(excinfo.value)
                served = await client.act_batch(
                    [observation] * 2, [0, 1], greedy=[True, False]
                )
            return failures, served

        failures, served = self._serve(checkpoints, scenario, 500)
        for failure in failures:
            assert failure.status == 400
            assert "greedy must be a boolean, got " in str(failure)
        assert len(served["actions"]) == 2

    def test_agent_must_be_a_finite_integer(self, checkpoints):
        """``json.loads`` reads ``Infinity`` and ``1e999`` as infinite
        floats, which ``int()`` cannot convert, and ``int(1.5)`` would
        serve agent 1: each answers 400 naming the agent, and the
        connection keeps answering."""
        observation = json.dumps([0.5] * ENV.observation_size)
        bodies = [
            ("/v1/act", f'{{"observation": {observation}, '
                        f'"agent": Infinity}}', "inf"),
            ("/v1/act", f'{{"observation": {observation}, '
                        f'"agent": 1e999}}', "inf"),
            ("/v1/act-batch", f'{{"observations": [{observation}], '
                              f'"agents": [-Infinity]}}', "-inf"),
            ("/v1/act", f'{{"observation": {observation}, '
                        f'"agent": 1.5}}', "1.5"),
        ]

        def exchange(port):
            # Raw bodies: the client would encode infinity as "Infinity".
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            try:
                replies = []
                for path, body, _ in bodies:
                    connection.request("POST", path, body=body.encode())
                    response = connection.getresponse()
                    replies.append(
                        (response.status, json.loads(response.read()))
                    )
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                return replies, response.status, json.loads(response.read())
            finally:
                connection.close()

        async def main():
            config = ServingConfig(port=0, reload_poll_ms=0, max_wait_us=500)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            try:
                out = await asyncio.to_thread(exchange, server.port)
            finally:
                await server.stop()
            return out, server.error_count

        (replies, health_status, health), errors = run(main())
        for (status, document), (_, _, shown) in zip(replies, bodies):
            assert status == 400
            assert document["error"] == (
                f"agent must be a finite integer, got {shown}"
            )
        assert health_status == 200 and health["status"] == "ok"
        assert errors == 4


class TestEvaluationFailures:
    """A failure while a batch is evaluated is the server's, not the
    request's: it answers 500 naming the cause, counts as an error, and
    the server keeps answering on the same connection."""

    OBSERVATION = [0.5] * ENV.observation_size

    @staticmethod
    def _serve(engine, scenario):
        async def main():
            config = ServingConfig(port=0, reload_poll_ms=0, max_wait_us=500)
            server = PolicyServer(config=config, engine=engine)
            await server.start()
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    result = await scenario(client)
                    health = await client.health()
            finally:
                await server.stop()
            return result, health, server.error_count

        return run(main())

    def test_nan_weight_checkpoint_answers_500(self, tmp_path):
        framework = build_framework(
            "proposed", seed=7, env_config=ENV, train_config=TRAIN
        )
        try:
            for param in framework.actors.parameters():
                param.data[...] = np.nan
            path = save_checkpoint(framework, str(tmp_path / "nan"))
        finally:
            framework.close()

        async def scenario(client):
            failures = []
            for call in (
                client.act(self.OBSERVATION, 0),
                client.act_batch([self.OBSERVATION] * 2, [0, 1],
                                 greedy=True),
            ):
                with pytest.raises(ServerError) as excinfo:
                    await call
                failures.append(excinfo.value)
            return failures

        failures, health, errors = self._serve(
            PolicyEngine(SPEC, checkpoint_path=path), scenario
        )
        assert [f.status for f in failures] == [500, 500]
        assert all("are not finite" in str(f) for f in failures)
        assert health["status"] == "ok"
        assert errors == 2

    @pytest.mark.parametrize("error", [ValueError, KeyError, RuntimeError])
    def test_engine_fault_answers_500(self, checkpoints, error):
        engine = PolicyEngine(SPEC, checkpoint_path=checkpoints["paths"]["a"])

        def infer(observations, agents):
            raise error("engine exploded")

        engine.infer = infer

        async def scenario(client):
            with pytest.raises(ServerError) as excinfo:
                await client.act(self.OBSERVATION, 0)
            return excinfo.value

        failure, health, errors = self._serve(engine, scenario)
        assert failure.status == 500
        assert f"{error.__name__}: " in str(failure)
        assert "engine exploded" in str(failure)
        assert health["status"] == "ok"
        assert errors == 1


class TestMetricsEndpoint:
    def test_metrics_under_load(self, checkpoints, rng):
        """GET /metrics surfaces the telemetry registry: batch-occupancy
        histogram, queue-wait percentiles, flush-reason counters, reloads."""
        obs.reset()  # don't inherit another test's registry contents
        observations = rng.uniform(size=(4, ENV.observation_size))

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=50, max_batch=4,
                                   max_wait_us=500)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            try:
                async def single(i):
                    # One connection per task: the client doesn't pipeline.
                    async with AsyncServingClient("127.0.0.1",
                                                  server.port) as c:
                        return await c.act(
                            observations[i % 4], i % 2, greedy=True
                        )

                # Concurrent singles (time or size flushes) plus a
                # full-width batch (guaranteed size flush).
                await asyncio.gather(*(single(i) for i in range(8)))
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    await client.act_batch(
                        observations, [0, 1, 0, 1], greedy=True
                    )
                    metrics = await client.metrics()
                assert obs.enabled()  # server holds telemetry on
                return metrics, server
            finally:
                await server.stop()

        metrics, server = run(scenario())
        assert metrics["telemetry_enabled"] is True
        assert metrics["requests"] >= 9
        occupancy = metrics["batch_occupancy"]
        assert occupancy["count"] >= 1
        assert occupancy["max"] >= 4  # the act-batch flush
        assert sum(occupancy["counts"]) == occupancy["count"]
        wait = metrics["queue_wait_us"]
        assert wait["count"] >= 9
        assert 0.0 <= wait["p50"] <= wait["p99"]
        reasons = metrics["flush_reasons"]
        assert set(reasons) == {"size", "time"}
        assert all(isinstance(v, int) for v in reasons.values())
        assert reasons["size"] + reasons["time"] == occupancy["count"]
        assert isinstance(metrics["reloads"], int)
        assert metrics["reloads"] == 0
        # stop() restored the disabled default.
        assert not obs.enabled()

    def test_metrics_route_exists_without_traffic(self, checkpoints):
        obs.reset()

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    return await client.metrics()
            finally:
                await server.stop()

        metrics = run(scenario())
        assert metrics["batch_occupancy"] == {"count": 0}
        assert metrics["queue_wait_us"] == {"count": 0}


class TestAccessLog:
    def test_structured_lines_per_request(self, checkpoints, rng):
        observations = rng.uniform(size=(3, ENV.observation_size))
        sink = io.StringIO()

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0, max_batch=8,
                                   max_wait_us=500, log_requests=True)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            server.access_log_stream = sink
            await server.start()
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    await client.act(observations[0], 0, greedy=True)
                    await client.act_batch(
                        observations, [0, 1, 0], greedy=True
                    )
            finally:
                await server.stop()

        run(scenario())
        lines = [json.loads(line)
                 for line in sink.getvalue().splitlines()]
        assert len(lines) == 2
        for line in lines:
            assert line["event"] == "request"
            assert line["flush"] in ("size", "time")
            assert line["queue_wait_us"] >= 0.0
            assert line["generation"] == 1
            assert isinstance(line["batch_id"], int)
        assert [line["request_id"] for line in lines] == [1, 2]
        assert lines[1]["rows"] == 3

    def test_log_disabled_by_default(self, checkpoints, rng):
        sink = io.StringIO()
        observation = rng.uniform(size=ENV.observation_size)

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0, max_wait_us=500)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            server.access_log_stream = sink
            await server.start()
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    await client.act(observation, 0, greedy=True)
            finally:
                await server.stop()

        run(scenario())
        assert sink.getvalue() == ""


class TestRequestTracing:
    """The server's causal-trace surface: response request ids, trace-tagged
    access logs, and one trace tree per server lifetime."""

    def test_responses_and_log_lines_carry_trace_ids(self, checkpoints, rng):
        observations = rng.uniform(size=(3, ENV.observation_size))
        sink = io.StringIO()

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0, max_batch=8,
                                   max_wait_us=500, log_requests=True)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            server.access_log_stream = sink
            await server.start()
            out = {"trace": obs.trace_id()}
            try:
                async with AsyncServingClient("127.0.0.1",
                                              server.port) as client:
                    out["act"] = await client.act(
                        observations[0], 0, greedy=True
                    )
                    out["batch"] = await client.act_batch(
                        observations, [0, 1, 0], greedy=True
                    )
            finally:
                await server.stop()
            return out

        out = run(scenario())
        # Responses carry a ``trace_id:span_id`` token (the X-Request-Id
        # analogue) that resolves straight into the exported timeline.
        tokens = {}
        for key in ("act", "batch"):
            trace, _, span = out[key]["request_id"].partition(":")
            assert trace == out["trace"]
            assert span
            tokens[key] = span
        assert tokens["act"] != tokens["batch"]
        # The access log names the same spans, alongside the stable
        # numeric per-server request ids.
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [line["request_id"] for line in lines] == [1, 2]
        assert {line["trace_id"] for line in lines} == {out["trace"]}
        assert {line["span_id"] for line in lines} == set(tokens.values())

    def test_concurrent_serving_forms_one_trace_tree(
            self, checkpoints, rng, tmp_path):
        from repro.obs import spans as obs_spans
        from repro.obs import trace as obs_trace

        path = tmp_path / "serve.jsonl"
        observations = rng.uniform(size=(6, ENV.observation_size))

        async def scenario():
            config = ServingConfig(port=0, reload_poll_ms=0, max_batch=4,
                                   max_wait_us=2000)
            server = PolicyServer(SPEC, config,
                                  checkpoint_path=checkpoints["paths"]["a"])
            await server.start()
            try:
                async def single(i):
                    # One connection per task: the client doesn't pipeline.
                    async with AsyncServingClient("127.0.0.1",
                                                  server.port) as c:
                        return await c.act(
                            observations[i], i % 2, greedy=True
                        )

                await asyncio.gather(*(single(i) for i in range(6)))
            finally:
                await server.stop()

        obs.set_export_path(str(path))
        try:
            run(scenario())
            obs_spans.close_export()
            events = obs_trace.load_events([str(path)])
        finally:
            obs.set_export_path(None)

        spans = [e for e in events
                 if e.get("kind") == "span" and e.get("span_id")]
        names = {e["name"] for e in spans}
        assert {"serving.server", "serving.request", "serving.batch",
                "serving.queue_wait"} <= names
        assert "serving.shard_eval" not in names
        assert sum(e["name"] == "serving.request" for e in spans) == 6
        assert sum(e["name"] == "serving.queue_wait" for e in spans) == 6
        # One trace, one root (the server's lifetime span), and every
        # batch evaluated in the server's own process.
        assert len({e["trace_id"] for e in spans}) == 1
        (root,) = [e for e in spans if e["name"] == "serving.server"]
        assert obs_trace.connected_roots(events) == [root["span_id"]]
        assert {e["pid"] for e in spans} == {os.getpid()}
        doc = obs_trace.to_chrome_trace(events)
        assert obs_trace.validate_chrome_trace(doc) == []


class TestCommandLine:
    """``python -m repro.serving.server`` as a supervisor runs it: stdout
    is a pipe and ``PYTHONUNBUFFERED`` is unset."""

    @staticmethod
    def _child_env():
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def test_startup_line_reaches_a_pipe_and_sigint_exits_cleanly(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.server", "--port", "0",
             "--reload-poll-ms", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self._child_env(),
        )
        try:
            # Wait for the line without a blocking read: a buffered line
            # only shows up at exit, and that must fail, not hang.
            with selectors.DefaultSelector() as selector:
                selector.register(process.stdout, selectors.EVENT_READ)
                ready = selector.select(timeout=60)
            assert ready, "no startup line within 60 s"
            line = process.stdout.readline()
            assert line.startswith("serving proposed on 127.0.0.1:"), line
            port = int(line.rsplit(":", 1)[1])
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                health = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 200
            assert health["status"] == "ok"
            assert "workers" not in health
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0, process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()

    def test_workers_flag_is_gone(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.serving.server", "--workers", "2"],
            capture_output=True, text=True, env=self._child_env(),
            timeout=60,
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --workers 2" in result.stderr
