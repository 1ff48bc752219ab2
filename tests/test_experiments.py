"""Unit tests for the experiment harness (smoke-scale configurations)."""

import json
import os

import numpy as np
import pytest

from repro.experiments import io as xio
from repro.experiments.ablations import (
    run_encoding_attenuation,
    run_gradient_methods,
)
from repro.experiments import cli
from repro.experiments.cli import build_parser, main
from repro.experiments.evolution import run_es_training
from repro.experiments.fig3 import (
    FIG3_METRICS,
    PRESETS,
    format_fig3_report,
    run_fig3,
)
from repro.experiments.fig4 import format_fig4_report, run_fig4
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.section4d import (
    PAPER_REFERENCE,
    format_section4d_report,
    run_section4d,
)
from repro.experiments.settings import ES_PRESETS


@pytest.fixture(scope="module")
def fig3_result():
    """One shared smoke-scale Fig. 3 run for the module's tests."""
    return run_fig3(preset="smoke", seed=5)


class TestIo:
    def test_json_roundtrip(self, tmp_path):
        doc = {"a": np.float64(1.5), "b": np.arange(3), "c": {"d": np.int64(2)}}
        path = xio.save_json(doc, str(tmp_path / "x.json"))
        loaded = xio.load_json(path)
        assert loaded == {"a": 1.5, "b": [0, 1, 2], "c": {"d": 2}}

    def test_save_csv(self, tmp_path):
        path = xio.save_csv(
            {"epoch": [1, 2], "reward": [-1.0, -2.0]}, str(tmp_path / "x.csv")
        )
        lines = open(path).read().strip().splitlines()
        assert lines == ["epoch,reward", "1,-1.0", "2,-2.0"]

    def test_save_csv_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError):
            xio.save_csv({"a": [1], "b": [1, 2]}, str(tmp_path / "x.csv"))

    def test_results_dir_creates(self, tmp_path):
        target = str(tmp_path / "nested" / "results")
        assert xio.results_dir(target) == target
        assert os.path.isdir(target)

    def test_timestamp_format(self):
        stamp = xio.timestamp()
        assert len(stamp) == 16 and stamp.endswith("Z")


class TestFig3:
    def test_presets_exist(self):
        assert {"smoke", "quick", "medium", "full"} <= set(PRESETS)

    def test_result_document(self, fig3_result):
        assert fig3_result["experiment"] == "fig3"
        assert set(fig3_result["series"]) == {
            "proposed", "comp1", "comp2", "comp3",
        }
        for name, series in fig3_result["series"].items():
            for metric in FIG3_METRICS:
                assert len(series[metric]) == fig3_result["n_epochs"]

    def test_random_walk_negative(self, fig3_result):
        assert fig3_result["random_walk_return"] < 0.0

    def test_summaries_have_achievability(self, fig3_result):
        for summary in fig3_result["summaries"].values():
            assert "achievability" in summary

    def test_parameter_budgets_in_result(self, fig3_result):
        assert fig3_result["parameters"]["proposed"]["actor_parameters"] == 50
        assert fig3_result["parameters"]["comp3"]["total_parameters"] > 40_000

    def test_report_formatting(self, fig3_result):
        report = format_fig3_report(fig3_result)
        assert "proposed" in report
        assert "random-walk" in report

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            run_fig3(preset="gigantic")

    def test_callback_invoked(self):
        seen = []
        run_fig3(
            preset="smoke",
            seed=3,
            frameworks=("comp2",),
            callback=lambda name, rec: seen.append((name, rec["epoch"])),
        )
        assert len(seen) == PRESETS["smoke"][0]


class TestSection4d:
    def test_reuses_fig3_result(self, fig3_result):
        result = run_section4d(fig3_result=fig3_result)
        assert result["summaries"] is fig3_result["summaries"]
        assert set(result["orders"]) == {
            "empty_ratio_order_high_to_low",
            "overflow_order_low_to_high",
            "achievability_order_high_to_low",
        }

    def test_paper_reference_structure(self):
        assert PAPER_REFERENCE["total_reward"]["random"] == -33.2
        assert PAPER_REFERENCE["achievability"]["proposed"] == 0.909

    def test_report(self, fig3_result):
        report = format_section4d_report(run_section4d(fig3_result=fig3_result))
        assert "paper vs measured" in report
        assert "proposed" in report


class TestFig4:
    def test_smoke_run(self):
        result = run_fig4(train_epochs=1, n_steps=3, seed=2, episode_limit=6)
        assert result["n_steps"] == 3
        step = result["steps"][0]
        assert len(step["edge_levels"]) == 4
        assert len(step["cloud_levels"]) == 2
        assert np.asarray(step["heatmap_magnitude"]).shape == (4, 4)
        # Demonstrated actions decode to (destination, amount).
        assert all(0 <= d < 2 for d in step["destinations"])
        assert all(p in (0.1, 0.2) for p in step["amounts"])

    def test_report_text(self):
        result = run_fig4(train_epochs=1, n_steps=2, seed=2, episode_limit=6)
        report = format_fig4_report(result)
        assert "t= 1" in report
        assert "magnitude:" in report

    def test_report_ansi(self):
        result = run_fig4(train_epochs=1, n_steps=1, seed=2, episode_limit=6)
        assert "\x1b[48;2;" in format_fig4_report(result, ansi=True)


class TestEsTrain:
    def test_structure(self):
        result = run_es_training(preset="smoke", compare_mapg=True)
        generations = ES_PRESETS["smoke"][0]
        assert result["experiment"] == "es-train"
        assert result["generations"] == generations
        assert (result["population"], result["sigma"], result["lr"]) == (
            8, 0.15, 0.12,
        )
        for part in ("series", "evaluation", "achievability"):
            assert set(result[part]) == {"es", "mapg"}
        assert set(result["series"]["es"]) == {
            "total_reward", "fitness_mean", "fitness_max", "grad_norm",
        }
        assert set(result["series"]["mapg"]) == {"total_reward"}
        for series in result["series"].values():
            assert all(len(v) == generations for v in series.values())
        assert "mean_queue" in result["evaluation"]["mapg"]
        assert result["parameters"]["critic_parameters"] == 0
        assert result["random_walk_return"] < 0.0


class TestAblations:
    def test_encoding_attenuation_smoke(self):
        result = run_encoding_attenuation(
            n_features=4, n_weights=8, noise_levels=(0.0, 0.05), n_states=8
        )
        assert set(result["signal_std"]) == {"compact", "naive"}
        assert result["qubits"] == {"compact": 2, "naive": 4}
        for values in result["signal_std"].values():
            assert len(values) == 2
            assert values[1] < values[0]  # noise attenuates signal

    def test_gradient_methods_smoke(self):
        result = run_gradient_methods(
            n_qubits=2, n_features=2, n_weights=6, batch=2, repeats=1
        )
        deviations = result["max_weight_grad_deviation_vs_adjoint"]
        assert deviations["parameter_shift"] < 1e-8
        assert deviations["finite_diff"] < 1e-4


class TestRegistry:
    def test_all_experiments_registered(self):
        assert {
            "fig3", "fig4", "section4d", "es-train", "serving-load",
            "ablation-encoding", "ablation-gradients", "ablation-noise",
            "ablation-shots", "ablation-budget", "ablation-template",
            "ablation-plateau",
        } == set(EXPERIMENTS)

    def test_get_experiment(self):
        spec = get_experiment("fig3")
        assert spec.paper_ref.startswith("Fig. 3")

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig9")

    def test_run_experiment_dispatch(self):
        result = run_experiment(
            "ablation-gradients", n_qubits=2, n_features=2, n_weights=4,
            batch=1, repeats=1,
        )
        assert result["experiment"] == "ablation_gradient_methods"


class TestCli:
    def test_parser(self):
        args = build_parser().parse_args(["fig3", "--preset", "smoke"])
        assert args.experiment == "fig3"
        assert args.preset == "smoke"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig4" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2

    def test_smoke_run_with_output(self, tmp_path, capsys):
        code = main(["fig3", "--preset", "smoke", "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 3 reproduction" in out
        written = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(written) == 1
        doc = json.load(open(os.path.join(tmp_path, written[0])))
        assert doc["experiment"] == "fig3"

    # The runner flags each experiment takes; every experiment not listed
    # takes --seed only.
    FLAGS_TAKEN = {
        "fig3": {"preset", "seed"},
        "section4d": {"preset", "seed"},
        "es-train": {"preset", "seed"},
        "serving-load": set(),
    }

    @pytest.mark.parametrize(
        "flag, value, passed", [("preset", "smoke", "smoke"), ("seed", "3", 3)]
    )
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_flag_reaches_runner_or_exits_2(self, experiment_id, flag, value,
                                            passed, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(
            EXPERIMENTS[experiment_id], "run",
            lambda **kwargs: seen.append(kwargs) or {},
        )
        monkeypatch.setattr(cli, "_FORMATTERS", {})
        code = main([experiment_id, f"--{flag}", value])
        err = capsys.readouterr().err
        if flag in self.FLAGS_TAKEN.get(experiment_id, {"seed"}):
            assert code == 0
            assert seen == [{flag: passed}]
        else:
            assert code == 2
            assert seen == []
            assert len(err.splitlines()) == 1
            assert f"--{flag}" in err and experiment_id in err
