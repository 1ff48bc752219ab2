"""Tests for the crash flight recorder (``repro.obs.flight``).

The contracts under test:

- both ring backends (GIL-atomic memory deque, mmap fixed-slot file)
  drop the oldest events beyond capacity and replay in order;
- file-ring recovery survives torn and oversized slots, dropping only
  the damaged events — the torn-write protection a SIGKILL relies on;
- dumping is gated on a configured directory and the enable flag, so
  crash-heavy suites don't litter postmortems;
- a worker killed mid-collect leaves a postmortem carrying its recovered
  file ring (the commands it was serving when it died), for both the
  rollout pool and the serving shards;
- the excepthook dumps once, installs idempotently, and defers to the
  prior hook.
"""

import json
import sys

import numpy as np
import pytest

from repro import obs
from repro.config import SingleHopConfig
from repro.marl.parallel import ShardedRolloutCollector
from repro.obs import flight
from repro.obs import trace as obs_trace
from repro.serving import ShardedPolicyEngine
from repro.serving.engine import FrameworkSpec

from tests.helpers import make_classical_team, make_offload_env


@pytest.fixture(autouse=True)
def clean_flight_state():
    """Pristine recorder/trace/registry state and the original excepthook."""
    previous = obs.set_enabled(False)
    prior_hook = sys.excepthook
    prior_dir = flight.set_dump_dir(None)
    obs.reset()
    obs.set_export_path(None)
    obs_trace.reset()
    flight.reset()
    yield
    sys.excepthook = prior_hook
    obs.set_enabled(previous)
    obs.reset()
    obs.set_export_path(None)
    obs_trace.reset()
    flight.reset()
    flight.set_dump_dir(prior_dir)


# -- ring semantics -----------------------------------------------------------


class TestRingSemantics:
    def test_memory_ring_drops_oldest(self):
        ring = flight.FlightRecorder(capacity=4)
        for i in range(10):
            ring.record({"i": i})
        assert [e["i"] for e in ring.events()] == [6, 7, 8, 9]

    def test_file_ring_drops_oldest_and_recovers(self, tmp_path):
        path = str(tmp_path / "w0.ring")
        ring = flight.FlightRecorder(capacity=4, path=path)
        for i in range(11):
            ring.record({"i": i})
        assert [e["i"] for e in ring.events()] == [7, 8, 9, 10]
        # Cold recovery — what the parent does after SIGKILLing the owner.
        assert [e["i"] for e in flight.read_file(path)] == [7, 8, 9, 10]
        ring.close()

    def test_file_ring_recovery_drops_torn_slot_only(self, tmp_path):
        path = str(tmp_path / "torn.ring")
        ring = flight.FlightRecorder(capacity=4, path=path,
                                     slot_bytes=128)
        for i in range(4):
            ring.record({"i": i})
        ring.close()
        # Corrupt the JSON payload of slot 1 (event i=1) while leaving its
        # live sequence number intact — a mid-write kill frozen on disk.
        offset = (flight._HEADER.size + 1 * 128
                  + flight._SLOT_HEADER.size)
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(b"\xff\xfe garbage")
        assert [e["i"] for e in flight.read_file(path)] == [0, 2, 3]

    def test_file_ring_truncated_oversized_payload_is_dropped(self, tmp_path):
        path = str(tmp_path / "fat.ring")
        ring = flight.FlightRecorder(capacity=4, path=path, slot_bytes=64)
        ring.record({"i": 0})
        ring.record({"i": 1, "blob": "x" * 500})  # exceeds the slot
        ring.record({"i": 2})
        got = [e["i"] for e in ring.events()]
        assert got == [0, 2]  # truncated JSON recovered as torn, not wrong
        ring.close()

    def test_read_file_rejects_missing_or_foreign_files(self, tmp_path):
        assert flight.read_file(str(tmp_path / "absent.ring")) == []
        junk = tmp_path / "junk.ring"
        junk.write_bytes(b"not a ring")
        assert flight.read_file(str(junk)) == []
        bad_magic = tmp_path / "bad.ring"
        bad_magic.write_bytes(
            flight._HEADER.pack(b"NOPE", 1, 1, 64) + b"\x00" * 64
        )
        assert flight.read_file(str(bad_magic)) == []

    def test_attach_file_carries_memory_events_over(self, tmp_path):
        flight.record("early", note="before the ring path was known")
        ring_path = str(tmp_path / "late.ring")
        flight.attach_file(ring_path)
        flight.record("late")
        kinds = [e["kind"] for e in flight.recorder().events()]
        assert kinds == ["early", "late"]
        # And the carried event is already on disk for a recoverer.
        assert [e["kind"] for e in flight.read_file(ring_path)] == \
            ["early", "late"]


# -- module API ---------------------------------------------------------------


class TestModuleApi:
    def test_record_stamps_time_pid_tid(self):
        flight.record("probe", detail=7)
        (event,) = flight.recorder().events()
        assert event["kind"] == "probe"
        assert event["detail"] == 7
        import os
        import threading
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_native_id()
        assert isinstance(event["t_us"], int)

    def test_record_disabled_is_a_no_op(self):
        flight.set_enabled(False)
        flight.record("dropped")
        flight.set_enabled(True)
        assert flight.recorder().events() == []

    def test_span_events_reach_the_ring(self):
        obs.set_enabled(True)
        with obs.span("ringed"):
            pass
        kinds = [(e["kind"], e.get("name"))
                 for e in flight.recorder().events()]
        assert ("span_begin", "ringed") in kinds
        assert ("span_end", "ringed") in kinds

    def test_dump_gated_without_directory(self):
        flight.record("evidence")
        assert flight.dump_dir() is None
        assert flight.dump("no-dir") is None

    def test_dump_gated_while_disabled(self, tmp_path):
        flight.set_dump_dir(str(tmp_path))
        flight.set_enabled(False)
        assert flight.dump("disabled") is None
        assert list(tmp_path.iterdir()) == []

    def test_dump_writes_postmortem_document(self, tmp_path):
        flight.set_dump_dir(str(tmp_path))
        obs_trace.begin_trace()
        flight.record("step", n=1)
        flight.record("step", n=2)
        path = flight.dump(
            "why not?", extra={"who": "test"},
            worker_events=[{"kind": "command", "command": "collect"}],
        )
        assert path is not None
        document = json.loads(open(path).read())
        assert document["reason"] == "why not?"
        assert document["trace_id"] == obs_trace.trace_id()
        assert [e["n"] for e in document["events"]] == [1, 2]
        assert document["worker_events"][0]["command"] == "collect"
        assert document["extra"] == {"who": "test"}
        # The reason is sanitised in the filename, not the document.
        assert "why_not_" in path

    def test_excepthook_dumps_then_defers(self, tmp_path, capsys):
        flight.set_dump_dir(str(tmp_path))
        hook = flight.install_excepthook()
        assert flight.install_excepthook() is hook  # idempotent
        try:
            raise ValueError("boom for the recorder")
        except ValueError:
            hook(*sys.exc_info())
        dumps = list(tmp_path.glob("flight-unhandled-exception-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text())
        assert "boom for the recorder" in document["extra"]["exception"]
        kinds = [e["kind"] for e in document["events"]]
        assert "unhandled_exception" in kinds
        # The prior hook still ran (default hook prints the traceback).
        assert "boom for the recorder" in capsys.readouterr().err


# -- crash postmortems through the real restart paths -------------------------


def rollout_pool():
    env = make_offload_env("single_hop", 3, episode_limit=5)
    actors = make_classical_team(env, 4)
    return env, ShardedRolloutCollector(env, actors, n_envs=4, n_workers=2)


class TestCrashPostmortem:
    def test_killed_rollout_worker_leaves_a_postmortem(self, tmp_path):
        flight.set_dump_dir(str(tmp_path))
        _, pool = rollout_pool()
        with pool:
            # Workers were told to keep file rings in the dump directory.
            rings = sorted(p.name for p in tmp_path.glob("*.ring"))
            assert len(rings) == 2
            rng = np.random.default_rng(11)
            pool.collect(4, rng)
            pool.debug_crash_worker(0)
            pool.collect(4, rng)  # restart-and-replay fires the dump
            assert pool.total_restarts == 1
            dumps = list(tmp_path.glob("flight-worker-crash-*.json"))
            assert len(dumps) == 1
            document = json.loads(dumps[0].read_text())
            assert document["extra"]["restarts"] == 1
            # The dead worker's recovered ring shows what it was doing:
            # its init and the collects it served before the kill.
            commands = [e["command"] for e in document["worker_events"]
                        if e["kind"] == "command"]
            assert "collect" in commands
            # The parent's own ring recorded the restart decision.
            assert any(e["kind"] == "worker_restart"
                       for e in document["events"])
        # Ring files are postmortem scaffolding, removed on clean close.
        assert list(tmp_path.glob("*.ring")) == []

    def test_no_dump_dir_means_no_ring_files_or_dumps(self, tmp_path):
        assert flight.dump_dir() is None
        _, pool = rollout_pool()
        with pool:
            rng = np.random.default_rng(11)
            pool.collect(4, rng)
            pool.debug_crash_worker(0)
            pool.collect(4, rng)
            assert pool.total_restarts == 1
        assert list(tmp_path.iterdir()) == []

    def test_killed_serving_shard_leaves_a_postmortem(self, tmp_path):
        flight.set_dump_dir(str(tmp_path))
        spec = FrameworkSpec(
            name="proposed", env_config=SingleHopConfig(episode_limit=5)
        )
        engine = ShardedPolicyEngine(spec, n_workers=2)
        try:
            rng = np.random.default_rng(5)
            observations = rng.uniform(
                size=(4, spec.env_config.observation_size)
            )
            agents = [0, 1, 0, 1]
            engine.infer(observations, agents)
            engine._workers[0].process.kill()
            engine._workers[0].process.join(timeout=5.0)
            engine.infer(observations, agents)
            assert engine.total_restarts >= 1
        finally:
            engine.close()
        dumps = list(tmp_path.glob("flight-serving-worker-restart-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text())
        assert document["extra"]["worker"] == "repro-serving-0"
        commands = [e["command"] for e in document["worker_events"]
                    if e["kind"] == "command"]
        assert "init" in commands and "infer" in commands
        assert list(tmp_path.glob("*.ring")) == []
