"""Experiment harness: runners for every paper table/figure + ablations.

Every runner, and every example that trains, builds its arms from
:mod:`repro.experiments.settings`, the one module holding the calibrated
MAPG, ES and critic settings and the preset tables.
"""

from repro.experiments.fig3 import FIG3_METRICS, format_fig3_report, run_fig3
from repro.experiments.fig4 import format_fig4_report, run_fig4
from repro.experiments.io import load_json, results_dir, save_csv, save_json
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.section4d import (
    PAPER_REFERENCE,
    format_section4d_report,
    run_section4d,
)

__all__ = [
    "FIG3_METRICS",
    "run_fig3",
    "format_fig3_report",
    "run_fig4",
    "format_fig4_report",
    "run_section4d",
    "format_section4d_report",
    "PAPER_REFERENCE",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "save_json",
    "load_json",
    "save_csv",
    "results_dir",
]
