"""Experiment registry: one named entry per paper table/figure + ablations.

Maps experiment identifiers (as listed by ``repro-experiment list``)
to runner callables, so the CLI, the benchmarks and the tests all launch
experiments through one front door.
"""

from __future__ import annotations

from repro.experiments import ablations
from repro.experiments.evolution import run_es_training
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.section4d import run_section4d
from repro.experiments.serving import run_serving_benchmark

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]


class ExperimentSpec:
    """A registered experiment: id, description, and runner."""

    def __init__(self, experiment_id, description, runner, paper_ref):
        self.experiment_id = experiment_id
        self.description = description
        self.runner = runner
        self.paper_ref = paper_ref

    def run(self, **kwargs):
        """Execute the experiment; returns its result document."""
        return self.runner(**kwargs)

    def __repr__(self):
        return f"ExperimentSpec({self.experiment_id!r}: {self.paper_ref})"


EXPERIMENTS = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig3",
            "Training curves for Proposed/Comp1/Comp2/Comp3 on four metrics",
            run_fig3,
            "Fig. 3(a-d)",
        ),
        ExperimentSpec(
            "fig4",
            "12-step demonstration with HLS qubit-state heatmaps",
            run_fig4,
            "Fig. 4",
        ),
        ExperimentSpec(
            "section4d",
            "Achievability and metric-ordering comparison vs the paper",
            run_section4d,
            "Section IV-D",
        ),
        ExperimentSpec(
            "es-train",
            "Gradient-free ES training of a framework (optionally vs MAPG)",
            run_es_training,
            "Extension: Kölle et al. 2023/2024 ES for quantum MARL",
        ),
        ExperimentSpec(
            "serving-load",
            "Policy-serving latency/throughput: micro-batching frontier",
            run_serving_benchmark,
            "Extension: ROADMAP serving tier (online offloading decisions)",
        ),
        ExperimentSpec(
            "ablation-encoding",
            "Signal attenuation: compact vs naive state encoding under noise",
            ablations.run_encoding_attenuation,
            "Section I motivation (NISQ scalability)",
        ),
        ExperimentSpec(
            "ablation-gradients",
            "Adjoint vs parameter-shift vs finite differences",
            ablations.run_gradient_methods,
            "Methodology (VQCConfig.gradient_method)",
        ),
        ExperimentSpec(
            "ablation-noise",
            "Trained-policy robustness to depolarising gate noise",
            ablations.run_noise_robustness,
            "Section V future work",
        ),
        ExperimentSpec(
            "ablation-shots",
            "Trained-policy robustness to finite measurement shots",
            ablations.run_shot_budget,
            "Section V future work",
        ),
        ExperimentSpec(
            "ablation-budget",
            "Reward vs trainable-parameter budget",
            ablations.run_parameter_budget,
            "Section IV-C parameter constraint",
        ),
        ExperimentSpec(
            "ablation-template",
            "Ansatz families at a fixed weight budget",
            ablations.run_template_comparison,
            "Fig. 1 ansatz choice",
        ),
        ExperimentSpec(
            "ablation-plateau",
            "Barren-plateau gradient variance vs register width",
            ablations.run_barren_plateau,
            "Section I motivation (NISQ trainability)",
        ),
    )
}


def get_experiment(experiment_id):
    """Look up a registered experiment."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(experiment_id, **kwargs):
    """Run a registered experiment by id."""
    return get_experiment(experiment_id).run(**kwargs)
