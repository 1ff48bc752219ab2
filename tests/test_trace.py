"""Tests for causal distributed tracing (``repro.obs.trace``).

The contracts under test:

- completed spans carry ``trace_id`` / ``span_id`` / ``parent_id`` links
  resolved explicit > enclosing > process default, and the JSONL export
  stamps aligned start times and thread ids;
- the export sink creates parent directories, is line-buffered (events
  are readable without closing), and survives concurrent writers racing
  ``set_export_path`` / ``close_export``;
- clock negotiation (RTT midpoint) puts worker timestamps on the
  parent's timeline;
- a sharded ``train_epoch`` (gradient and ES) produces one *connected*
  parent→child tree spanning parent and worker processes — and tracing
  never perturbs bit-exact determinism;
- the Chrome-trace converter emits schema-valid documents with process
  lanes and paired flow arrows, and the CLIs fail loudly on missing or
  empty traces.
"""

import json
import os
import threading

import pytest

from repro import obs
from repro.obs import flight as obs_flight
from repro.obs import report as obs_report
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace

from tests.helpers import (
    ROLLOUT_ENGINES,
    assert_cross_engine_equivalence,
    make_engine_trainer,
    make_es_trainer,
)


@pytest.fixture(autouse=True)
def clean_trace_state():
    """Pristine registry, export sink, trace, and flight state per test."""
    previous = obs.set_enabled(False)
    obs.reset()
    obs.set_export_path(None)
    obs_trace.reset()
    obs_flight.reset()
    yield
    obs.set_enabled(previous)
    obs.reset()
    obs.set_export_path(None)
    obs_trace.reset()
    obs_flight.reset()


def traced_run(tmp_path, name="trace.jsonl"):
    """Enable telemetry with a JSONL sink; returns the sink path."""
    path = tmp_path / name
    obs.set_enabled(True)
    obs.set_export_path(str(path))
    return path


def span_events(events):
    return [e for e in events if e.get("kind") == "span"]


# -- trace context ------------------------------------------------------------


class TestTraceContext:
    def test_nested_spans_link_parent_to_child(self, tmp_path):
        path = traced_run(tmp_path)
        obs.begin_trace(label="test")
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("second"):
                pass
        obs_spans.close_export()

        events = span_events(obs_trace.load_events([str(path)]))
        by_name = {e["name"]: e for e in events}
        assert set(by_name) == {"outer", "inner", "second"}
        outer = by_name["outer"]
        assert "parent_id" not in outer  # root
        assert by_name["inner"]["parent_id"] == outer["span_id"]
        assert by_name["second"]["parent_id"] == outer["span_id"]
        trace_ids = {e["trace_id"] for e in events}
        assert trace_ids == {obs.trace_id()}
        span_ids = [e["span_id"] for e in events]
        assert len(set(span_ids)) == 3
        for event in events:
            assert isinstance(event["t_us"], float)
            assert event["pid"] == os.getpid()
            assert event["tid"] == threading.get_native_id()

    def test_parent_resolution_explicit_beats_context_beats_default(self):
        obs_trace.begin_trace()
        obs_trace.set_default_parent("root-0")
        assert obs_trace.effective_parent() == "root-0"
        token = obs_trace._push_current("ctx-1")
        try:
            assert obs_trace.effective_parent() == "ctx-1"
            assert obs_trace.effective_parent("explicit-2") == "explicit-2"
        finally:
            obs_trace._pop_current(token)
        assert obs_trace.effective_parent() == "root-0"

    def test_spans_without_trace_carry_no_ids(self, tmp_path):
        path = traced_run(tmp_path)
        with obs.span("untraced"):
            pass
        obs_spans.close_export()
        (event,) = span_events(obs_trace.load_events([str(path)]))
        assert "trace_id" not in event
        assert "span_id" not in event
        # But t_us/pid/tid timeline fields are still stamped.
        assert {"t_us", "dur_us", "pid", "tid"} <= set(event)

    def test_begin_trace_idempotent_end_clears(self):
        first = obs.begin_trace()
        assert obs.begin_trace() == first
        assert obs_trace.active()
        obs.end_trace()
        assert not obs_trace.active()
        assert obs.trace_id() is None
        assert obs_trace.default_parent() is None

    def test_manual_span_never_self_parents(self, tmp_path):
        path = traced_run(tmp_path)
        obs_trace.begin_trace()
        root = obs_trace.new_span_id()
        obs_trace.set_default_parent(root)
        # The root span is emitted while it is itself the default parent —
        # the guard must keep it a root rather than a self-loop.
        obs_trace.emit_manual_span("root", t_us=0.0, dur_us=5.0, span_id=root)
        child = obs_trace.emit_manual_span("child", t_us=1.0, dur_us=1.0)
        obs_spans.close_export()

        events = {e["name"]: e for e in
                  span_events(obs_trace.load_events([str(path)]))}
        assert "parent_id" not in events["root"]
        assert events["child"]["parent_id"] == root
        assert child == events["child"]["span_id"]
        assert obs_trace.connected_roots(list(events.values())) == [root]

    def test_propagation_context_adopt_round_trip(self, tmp_path):
        base = traced_run(tmp_path)
        trace = obs.begin_trace(label="parent")
        with obs.span("parent.op"):
            ctx = obs_trace.propagation_context()
            assert ctx["trace_id"] == trace
            assert ctx["parent_span_id"] == obs_trace.current_span_id()
            assert ctx["export"] == str(base)
        obs_spans.close_export()

        # Simulate the far side of a worker pipe: fresh trace state
        # in this process, then adopt.
        obs_trace.reset()
        obs.set_export_path(None)
        obs_trace.adopt(ctx, label="worker-0")
        assert obs.trace_id() == trace
        assert obs_trace.default_parent() == ctx["parent_span_id"]
        assert obs_trace.process_label() == "worker-0"
        assert obs_spans.export_path() == f"{base}.{os.getpid()}"
        with obs.span("worker.op"):
            pass
        obs_spans.close_export()

        # load_events picks up the <base>.<pid> sibling automatically and
        # the adopted span parents to the sender's span: one connected tree.
        events = obs_trace.load_events([str(base)])
        by_name = {e["name"]: e for e in span_events(events)}
        assert by_name["worker.op"]["parent_id"] == \
            by_name["parent.op"]["span_id"]
        assert obs_trace.connected_roots(events) == \
            [by_name["parent.op"]["span_id"]]
        labels = {e["label"] for e in events if e.get("kind") == "process"}
        assert {"parent", "worker-0"} <= labels

    def test_adopt_none_is_a_no_op(self):
        obs_trace.adopt(None)
        assert not obs_trace.active()
        assert obs_spans.export_path() is None


# -- clock alignment ----------------------------------------------------------


class TestClockAlignment:
    def test_compute_clock_offset_recovers_skew(self):
        # Remote clock runs 1_000_000 us behind the parent's; a zero-RTT
        # probe recovers the skew exactly.
        assert obs_trace.compute_clock_offset(5_000_000, 5_000_000,
                                              4_000_000) == 1_000_000
        # Midpoint rule: offset is measured at the middle of the round trip.
        assert obs_trace.compute_clock_offset(1000, 2000, 500) == 1000

    def test_align_applies_installed_offset(self):
        obs_trace.set_clock_offset_us(123_456)
        assert obs_trace.clock_offset_us() == 123_456
        assert obs_trace.align_us(1000) == 124_456
        raw = obs_trace.raw_now_us()
        assert obs_trace.now_us() >= raw + 123_456

    def test_round_trip_negotiation_between_two_clocks(self):
        # Simulate parent and worker clocks skewed by a known amount and
        # run the handshake arithmetic both sides perform.
        skew = -777_000  # worker's raw clock ahead of the parent's
        t0 = obs_trace.raw_now_us()
        worker_raw = obs_trace.raw_now_us() - skew
        t1 = obs_trace.raw_now_us()
        offset = obs_trace.compute_clock_offset(t0, t1, worker_raw)
        # Aligned worker time lands inside the probe window.
        aligned = worker_raw + offset
        assert t0 <= aligned <= t1


# -- export sink --------------------------------------------------------------


class TestExportSink:
    def test_set_export_path_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "runs" / "deep" / "trace.jsonl"
        obs.set_export_path(str(path))
        assert path.parent.is_dir()
        obs_spans.export_event({"kind": "span", "name": "x"})
        obs_spans.close_export()
        assert path.exists()

    def test_line_buffered_events_visible_without_close(self, tmp_path):
        path = traced_run(tmp_path)
        with obs.span("live"):
            pass
        # No close_export: the line-buffered sink must already have
        # flushed the completed span.
        lines = path.read_text().splitlines()
        assert any(json.loads(line)["name"] == "live" for line in lines)

    def test_concurrent_export_and_reconfiguration_races(self, tmp_path):
        """Writers racing set_export_path/close_export never tear a line."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        obs.set_export_path(str(paths[0]))
        errors = []
        stop = threading.Event()

        def writer(worker):
            try:
                for i in range(300):
                    obs_spans.export_event(
                        {"kind": "span", "name": f"w{worker}", "i": i}
                    )
            except Exception as exc:  # noqa: BLE001 — fail the test below
                errors.append(exc)

        def churner():
            try:
                flip = 0
                while not stop.is_set():
                    obs.set_export_path(str(paths[flip % 2]))
                    if flip % 3 == 0:
                        obs_spans.close_export()
                    flip += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        churn = threading.Thread(target=churner)
        churn.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        churn.join()
        obs_spans.close_export()

        assert errors == []
        written = 0
        for path in paths:
            if not path.exists():
                continue
            for line in path.read_text().splitlines():
                event = json.loads(line)  # any torn line raises here
                assert event["kind"] == "span"
                written += 1
        assert written > 0


# -- cross-process tree reassembly --------------------------------------------


def load_tree(path):
    events = obs_trace.load_events([str(path)])
    spans = span_events(events)
    traced = [e for e in spans if e.get("span_id")]
    return events, traced


class TestCrossProcessTree:
    def test_sharded_epoch_is_one_connected_tree(self, tmp_path):
        """Parent + 2 workers merge into a single-root tree with aligned
        clocks, deterministically."""
        path = traced_run(tmp_path)
        trainer = make_engine_trainer("single_hop", "sharded-pipe",
                                      n_envs=2, n_workers=2)
        try:
            trainer.train_epoch()
        finally:
            trainer.close()
        obs_spans.close_export()

        events, traced = load_tree(path)
        names = [e["name"] for e in traced]
        assert names.count("worker.collect") == 2
        for expected in ("trainer.epoch", "trainer.rollout",
                         "trainer.update"):
            assert expected in names
        # Exactly one trace, one root (the epoch span), three processes.
        assert len({e["trace_id"] for e in traced}) == 1
        by_name = {e["name"]: e for e in traced}
        assert obs_trace.connected_roots(events) == \
            [by_name["trainer.epoch"]["span_id"]]
        assert len({e["pid"] for e in traced}) == 3

        # Clock alignment: each worker's collect span must land inside
        # the parent's epoch span on the merged timeline (the negotiation
        # error is tens of µs; allow 5 ms of slack).
        epoch = by_name["trainer.epoch"]
        slack = 5000.0
        for event in traced:
            if event["name"] != "worker.collect":
                continue
            assert event["t_us"] >= epoch["t_us"] - slack
            assert (event["t_us"] + event["dur_us"]
                    <= epoch["t_us"] + epoch["dur_us"] + slack)
            assert event["parent_id"] == by_name["trainer.rollout"]["span_id"]

        # And the whole thing converts to schema-clean Chrome JSON with a
        # lane per process.
        doc = obs_trace.to_chrome_trace(events)
        assert obs_trace.validate_chrome_trace(doc) == []
        lanes = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(lanes) == 3
        flows = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        assert len(flows) >= 2  # one arrow per worker lane at minimum

    def test_es_sharded_generation_joins_the_tree(self, tmp_path):
        path = traced_run(tmp_path)
        trainer = make_es_trainer("single_hop", "sharded-pipe", n_workers=2)
        try:
            trainer.train_epoch()
        finally:
            trainer.close()
        obs_spans.close_export()

        events, traced = load_tree(path)
        by_name = {e["name"]: e for e in traced}
        assert obs_trace.connected_roots(events) == \
            [by_name["trainer.epoch"]["span_id"]]
        assert len({e["pid"] for e in traced}) >= 2

    def test_tracing_preserves_bit_exact_determinism(self, tmp_path):
        """The paper's numbers with the flight recorder on and a full
        trace exporting: episodes, metrics, and RNG positions identical
        across every engine."""
        traced_run(tmp_path)
        assert obs_flight.enabled()
        assert_cross_engine_equivalence(
            "single_hop", ROLLOUT_ENGINES, n_envs=1, n_workers=1
        )
        assert_cross_engine_equivalence(
            "single_hop", ("vector", "sharded-pipe"),
            n_envs=2, n_workers=2,
        )


# -- Chrome conversion --------------------------------------------------------


def synthetic_events():
    return [
        {"kind": "process", "pid": 1, "label": "parent"},
        {"kind": "process", "pid": 2, "label": "worker-0"},
        {"kind": "span", "name": "root", "t_us": 0.0, "dur_us": 100.0,
         "pid": 1, "tid": 1, "trace_id": "t", "span_id": "a"},
        {"kind": "span", "name": "local-child", "t_us": 10.0, "dur_us": 20.0,
         "pid": 1, "tid": 1, "trace_id": "t", "span_id": "b",
         "parent_id": "a"},
        {"kind": "span", "name": "remote-child", "t_us": 40.0, "dur_us": 30.0,
         "pid": 2, "tid": 9, "trace_id": "t", "span_id": "c",
         "parent_id": "a"},
    ]


class TestChromeConversion:
    def test_lanes_flows_and_metadata(self):
        doc = obs_trace.to_chrome_trace(synthetic_events())
        assert obs_trace.validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        meta = {e["pid"]: e["args"]["name"]
                for e in events if e["ph"] == "M"}
        assert meta == {1: "parent", 2: "worker-0"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        # Only the cross-process link grows a flow arrow; the same-lane
        # parent/child relies on slice nesting.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["pid"] == 1 and finishes[0]["pid"] == 2
        # The arrow tail is clamped inside the parent slice.
        assert 0.0 <= starts[0]["ts"] <= 100.0
        assert finishes[0]["ts"] == 40.0

    def test_validator_flags_broken_documents(self):
        bad = {"traceEvents": [
            {"ph": "X", "name": "n", "ts": 0, "dur": -1, "pid": 1, "tid": 1},
            {"ph": "s", "id": 7, "ts": 0, "pid": 1, "tid": 1},
            {"ph": "Q", "name": "junk"},
            {"ph": "X", "name": "m", "ts": "soon", "dur": 1, "pid": 1,
             "tid": 1},
        ]}
        problems = obs_trace.validate_chrome_trace(bad)
        assert any("negative dur" in p for p in problems)
        assert any("unpaired" in p for p in problems)
        assert any("unknown ph" in p for p in problems)
        assert any("ts not numeric" in p for p in problems)
        assert obs_trace.validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]

    def test_connected_roots_detects_orphans(self):
        events = synthetic_events()
        assert obs_trace.connected_roots(events) == ["a"]
        events.append({"kind": "span", "name": "orphan", "t_us": 0.0,
                       "dur_us": 1.0, "pid": 3, "tid": 3, "trace_id": "t",
                       "span_id": "z", "parent_id": "missing"})
        assert obs_trace.connected_roots(events) == ["a", "z"]


# -- CLIs ---------------------------------------------------------------------


class TestTraceCLI:
    def test_convert_merge_and_check(self, tmp_path, capsys):
        base = tmp_path / "run.jsonl"
        with open(base, "w") as f:
            for event in synthetic_events()[:4]:
                f.write(json.dumps(event) + "\n")
        # A worker sibling file is merged without being named.
        with open(f"{base}.4242", "w") as f:
            f.write(json.dumps(synthetic_events()[4]) + "\n")
        out = tmp_path / "chrome" / "trace.json"

        assert obs_trace.main([str(base), "-o", str(out), "--check"]) == 0
        captured = capsys.readouterr()
        assert "3 spans" in captured.out
        doc = json.loads(out.read_text())
        assert obs_trace.validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "remote-child" in names  # proof the sibling merged

    def test_stdout_mode_emits_json(self, tmp_path, capsys):
        base = tmp_path / "run.jsonl"
        base.write_text(json.dumps(synthetic_events()[2]) + "\n")
        assert obs_trace.main([str(base)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]

    def test_missing_or_empty_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert obs_trace.main([str(missing)]) == 2
        assert "no trace events" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_trace.main([str(empty)]) == 2


class TestReportCLI:
    def make_trace(self, tmp_path, n_names=6):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as f:
            for i in range(n_names):
                f.write(json.dumps({
                    "kind": "span", "name": f"phase.{i}",
                    "dur_us": float(100 * (i + 1)),
                }) + "\n")
        return path

    def test_top_truncates_span_table(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert obs_report.main([str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase.5" in out and "phase.4" in out  # largest two
        assert "phase.0" not in out
        assert "(4 more spans; widen with --top)" in out

    def test_top_larger_than_table_shows_everything(self, tmp_path, capsys):
        path = self.make_trace(tmp_path, n_names=2)
        assert obs_report.main([str(path), "--top", "10"]) == 0
        out = capsys.readouterr().out
        assert "more spans" not in out

    def test_top_must_be_positive(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert obs_report.main([str(path), "--top", "0"]) == 2
        assert "--top must be at least 1" in capsys.readouterr().err

    def test_missing_file_exits_2_with_message(self, tmp_path, capsys):
        assert obs_report.main([str(tmp_path / "gone.jsonl")]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    def test_empty_trace_exits_1_with_hint(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert obs_report.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "contains no telemetry events" in err
        assert "REPRO_OBS_EXPORT" in err
