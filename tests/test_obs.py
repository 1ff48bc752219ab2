"""Tests for the unified telemetry subsystem (``repro.obs``).

Covers the registry (thread safety, histogram bucket semantics, disabled
no-op), span tracing with JSONL export and the report CLI, cross-process
snapshot merging through the sharded rollout engines, and — the contract
that matters most — that enabling telemetry never perturbs the bit-exact
cross-engine determinism harness.
"""

import io
import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.marl.metrics import (
    format_epoch_summary,
    population_fitness_summary,
    progress_printer,
    publish_epoch_record,
)
from repro.obs import report as obs_report

from tests.helpers import (
    ES_ENGINES,
    ROLLOUT_ENGINES,
    assert_cross_engine_equivalence,
    assert_es_cross_engine_equivalence,
    make_engine_trainer,
    make_es_trainer,
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with a pristine, disabled registry —
    including the causal-trace and flight-recorder globals layered on it."""
    from repro.obs import flight as obs_flight
    from repro.obs import trace as obs_trace

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


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        registry = obs.MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("g").set(2.5)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 2.5

    def test_kind_mismatch_rejected(self):
        registry = obs.MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_counter_thread_safety(self):
        registry = obs.MetricsRegistry()
        n_threads, n_incs = 8, 2000

        def work():
            counter = registry.counter("hits")
            for _ in range(n_incs):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("hits").value == n_threads * n_incs

    def test_creation_race_yields_one_metric(self):
        registry = obs.MetricsRegistry()
        results = []
        barrier = threading.Barrier(4)

        def create():
            barrier.wait()
            results.append(registry.counter("raced"))

        threads = [threading.Thread(target=create) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(metric is results[0] for metric in results)
        assert len(registry) == 1

    def test_snapshot_reset_empties_registry(self):
        registry = obs.MetricsRegistry()
        registry.counter("once").inc()
        first = registry.snapshot(reset=True)
        assert first["counters"]["once"] == 1
        assert len(registry) == 0
        assert registry.snapshot()["counters"] == {}


class TestHistogram:
    def test_bucket_edges(self):
        h = obs.Histogram("h", min_edge=1.0, n_buckets=4, base=2.0)
        assert h.edges == [1.0, 2.0, 4.0, 8.0]
        # Value v lands in the first bucket with v <= edge; beyond the last
        # edge goes to the overflow bucket.
        for value, bucket in [(0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1),
                              (8.0, 3), (9.0, 4)]:
            h2 = obs.Histogram("h2", min_edge=1.0, n_buckets=4, base=2.0)
            h2.observe(value)
            assert h2.state()["counts"][bucket] == 1, value

    def test_state_tracks_exact_extremes(self):
        h = obs.Histogram("h", min_edge=1.0, n_buckets=4)
        for value in (0.25, 3.0, 100.0):
            h.observe(value)
        state = h.state()
        assert state["count"] == 3
        assert state["sum"] == pytest.approx(103.25)
        assert state["min"] == 0.25
        assert state["max"] == 100.0

    def test_quantiles_clamped_to_observed_range(self):
        h = obs.Histogram("h", min_edge=1.0, n_buckets=8)
        for value in (2.0, 3.0, 3.5, 50.0):
            h.observe(value)
        state = h.state()
        assert state["min"] <= obs.histogram_quantile(state, 0.5) <= 4.0
        assert obs.histogram_quantile(state, 1.0) == 50.0
        assert obs.histogram_quantile(state, 0.0) >= state["min"]

    def test_empty_quantile_is_zero(self):
        h = obs.Histogram("h")
        assert obs.histogram_quantile(h.state(), 0.5) == 0.0

    def test_merge_requires_matching_edges(self):
        a = obs.Histogram("h", min_edge=1.0, n_buckets=4)
        b = obs.Histogram("h", min_edge=1.0, n_buckets=8)
        with pytest.raises(ValueError, match="mismatched bucket"):
            a.merge_state(b.state())


# -- disabled mode ------------------------------------------------------------


class TestDisabledMode:
    def test_accessors_return_null_singleton(self):
        assert not obs.enabled()
        assert obs.counter("x") is obs.NULL_METRIC
        assert obs.gauge("x") is obs.NULL_METRIC
        assert obs.histogram("x") is obs.NULL_METRIC

    def test_null_metric_absorbs_everything(self):
        obs.counter("x").inc()
        obs.gauge("x").set(1.0)
        obs.histogram("x").observe(3.0)
        snap = obs.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_span_is_noop_while_disabled(self):
        with obs.span("work"):
            pass
        assert obs.snapshot()["counters"] == {}

    def test_telemetry_scope_restores_flag(self):
        with obs.telemetry():
            assert obs.enabled()
            obs.counter("scoped").inc()
        assert not obs.enabled()
        assert obs.snapshot()["counters"]["scoped"] == 1


# -- spans, export, report ----------------------------------------------------


class TestSpans:
    def test_span_records_calls_and_duration(self):
        obs.set_enabled(True)
        with obs.span("step"):
            pass
        snap = obs.snapshot()
        assert snap["counters"]["span.step.calls"] == 1
        assert snap["counters"]["span.step.total_ns"] >= 0
        assert snap["histograms"]["span.step.us"]["count"] == 1

    def test_jsonl_export_and_report(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.set_enabled(True)
        obs.set_export_path(str(path))
        with obs.span("outer"):
            obs.counter("work.items").inc(7)
        obs.export_snapshot()
        obs.set_export_path(None)

        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [event["kind"] for event in events]
        assert "span" in kinds and "snapshot" in kinds

        summary = obs_report.summarize(str(path))
        assert summary["spans"]["outer"]["count"] == 1
        assert summary["counters"]["work.items"] == 7
        text = obs_report.format_report(summary)
        assert "outer" in text and "work.items" in text

    def test_report_cli_json_mode(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        obs.set_enabled(True)
        obs.set_export_path(str(path))
        with obs.span("cli"):
            pass
        obs.set_export_path(None)
        assert obs_report.main([str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spans"]["cli"]["count"] == 1


# -- snapshot merge determinism ----------------------------------------------


class TestSnapshotMerge:
    def test_merge_is_deterministic(self):
        def worker_snap(seed):
            registry = obs.MetricsRegistry()
            registry.counter("rollout.env_steps").inc(10 + seed)
            registry.histogram("wait", min_edge=1.0, n_buckets=4).observe(
                2.0 * (seed + 1)
            )
            return registry.snapshot()

        def merged():
            parent = obs.MetricsRegistry()
            for seed in range(3):
                parent.merge(worker_snap(seed))
            return parent.snapshot()

        assert merged() == merged()
        snap = merged()
        assert snap["counters"]["rollout.env_steps"] == 33
        assert snap["histograms"]["wait"]["count"] == 3

    def test_sharded_collect_merges_worker_telemetry(self):
        obs.set_enabled(True)
        trainer = make_engine_trainer("single_hop", "sharded-pipe",
                                      n_envs=2, n_workers=2)
        try:
            trainer.train_epoch()
        finally:
            trainer.close()
        snap = obs.snapshot()
        # Worker-side counters (recorded inside the worker processes' own
        # registries) made it back through the control channel and merged.
        assert snap["counters"]["rollout.env_steps"] > 0
        assert snap["counters"]["rollout.episodes"] >= 4
        # Parent-side instrumentation rode along too.
        assert snap["counters"]["train.epochs"] == 1
        assert "span.trainer.rollout.calls" in snap["counters"]

    def test_sharded_telemetry_counts_match_vector(self):
        def epoch_counts(engine):
            obs.reset()
            obs.set_enabled(True)
            trainer = make_engine_trainer("single_hop", engine, n_envs=2,
                                          n_workers=2)
            try:
                trainer.train_epoch()
            finally:
                trainer.close()
            counters = obs.snapshot()["counters"]
            # env_steps (lockstep rounds) is per-collector, so shards with
            # fewer rows legitimately count more rounds; the cross-engine
            # invariants are total row-steps and episodes.
            return {
                name: counters[name]
                for name in ("rollout.env_rows", "rollout.episodes")
            }

        assert epoch_counts("vector") == epoch_counts("sharded-pipe")


# -- trainer integration ------------------------------------------------------


class TestTrainerTelemetry:
    def test_ctde_record_gains_diagnostics(self):
        trainer = make_engine_trainer("single_hop", "serial")
        try:
            record = trainer.train_epoch()
        finally:
            trainer.close()
        for key in ("critic_grad_norm", "actor_grad_norm", "policy_entropy"):
            assert key in record
            assert np.isfinite(record[key])
        assert record["policy_entropy"] >= 0.0

    def test_es_record_gains_fitness_min(self):
        trainer = make_es_trainer("single_hop", "stacked")
        try:
            record = trainer.train_epoch()
        finally:
            trainer.close()
        assert record["fitness_min"] <= record["fitness_mean"]
        assert record["fitness_mean"] <= record["fitness_max"]

    def test_publish_epoch_record_mirrors_gauges(self):
        obs.set_enabled(True)
        publish_epoch_record({"epoch": 3, "total_reward": -1.5,
                              "note": "skip-me"})
        snap = obs.snapshot()
        assert snap["counters"]["train.epochs"] == 1
        assert snap["gauges"]["train.total_reward"] == -1.5
        assert "train.note" not in snap["gauges"]

    def test_format_epoch_summary_covers_both_engines(self):
        mapg = format_epoch_summary({
            "epoch": 1, "total_reward": -2.0, "overflow_ratio": 0.1,
            "critic_loss": 0.5, "actor_loss": 0.2, "policy_entropy": 1.1,
            "actor_grad_norm": 0.3,
        })
        assert "critic" in mapg and "entropy" in mapg and "|g|" in mapg
        es = format_epoch_summary({
            "epoch": 2, "total_reward": -1.0, "overflow_ratio": 0.0,
            "grad_norm": 0.1, **population_fitness_summary([1.0, 2.0]),
        })
        assert "fitness" in es and "|g|" in es

    def test_progress_printer_cadence(self):
        lines = []
        callback = progress_printer(every=2, print_fn=lines.append)
        for epoch in range(1, 6):
            callback({"epoch": epoch, "total_reward": 0.0,
                      "overflow_ratio": 0.0})
        assert len(lines) == 3  # epochs 1, 2, 4


# -- the contract: telemetry never perturbs determinism -----------------------


@pytest.mark.slow
def test_equivalence_harness_with_telemetry_enabled():
    obs.set_enabled(True)
    assert_cross_engine_equivalence(
        "single_hop", ROLLOUT_ENGINES, n_epochs=2, n_envs=1
    )


@pytest.mark.slow
def test_es_equivalence_harness_with_telemetry_enabled():
    obs.set_enabled(True)
    assert_es_cross_engine_equivalence(
        "single_hop", ES_ENGINES, n_generations=2
    )


def test_telemetry_toggle_does_not_change_records():
    def run(enable):
        obs.reset()
        obs.set_enabled(enable)
        trainer = make_engine_trainer("single_hop", "vector", n_envs=2)
        try:
            return [trainer.train_epoch() for _ in range(2)]
        finally:
            trainer.close()

    assert run(False) == run(True)
