"""Paper Fig. 6: the threshold fine-tuning algorithm iterating on CONV-4.

The paper illustrates Algorithm 1's interval search over four iterations:
each panel shows the current search interval split into three equal
sub-intervals, the AUC at the four boundaries, and the selected region.
We regenerate the same trace (on the scaled AlexNet) and check the
algorithm's contract: intervals nest and shrink, and the returned
threshold is the best boundary evaluated.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.core.campaign import CampaignConfig
from repro.core.finetune import FineTuneConfig, LayerAUCEvaluator, fine_tune_threshold
from repro.core.swap import swap_activations
from repro.experiments import clone_model
from repro.hw.memory import WeightMemory

LAYER = "CONV-4"
ITERATIONS = 4  # the paper's Fig. 6 shows four


def test_fig6_interval_search_trace(
    benchmark, alexnet_bundle, alexnet_hardened, alexnet_eval, record_result
):
    images, labels = alexnet_eval
    images, labels = images[:128], labels[:128]
    _, _, act_max = alexnet_hardened

    model = clone_model(alexnet_bundle)
    swap_activations(model, act_max)
    memory = WeightMemory.from_model(model, layers=[LAYER])
    config = CampaignConfig(
        fault_rates=tuple(np.logspace(-5, -3, 4)), trials=3, seed=6
    )
    evaluator = LayerAUCEvaluator(model, LAYER, memory, images, labels, config)

    result = run_once(
        benchmark,
        lambda: fine_tune_threshold(
            evaluator,
            act_max=act_max[LAYER],
            config=FineTuneConfig(
                max_iterations=ITERATIONS, min_iterations=ITERATIONS, tolerance=0.0
            ),
            layer_name=LAYER,
        ),
    )

    rows = []
    for step in result.trace:
        rows.append(
            [
                step.iteration,
                "[" + ", ".join(f"{b:.3f}" for b in step.boundaries) + "]",
                "[" + ", ".join(f"{a:.4f}" for a in step.auc_values) + "]",
                f"T{step.best_index + 1}",
                f"[{step.interval[0]:.3f}, {step.interval[1]:.3f}]",
            ]
        )
    footer = (
        f"\nfinal threshold T = {result.threshold:.4f} "
        f"(ACT_max {result.act_max:.4f}), AUC = {result.auc:.4f}, "
        f"{result.evaluations} AUC evaluations"
    )
    record_result(
        "fig6_finetune_trace",
        format_table(
            ["iter", "boundaries T1..T4", "AUC(T1..T4)", "best", "next interval"],
            rows,
            title=f"Fig. 6 — Algorithm 1 interval search on {LAYER}",
        )
        + footer,
    )

    # Contract checks.
    assert result.iterations == ITERATIONS
    widths = [t.interval[1] - t.interval[0] for t in result.trace]
    assert all(b <= a * (2 / 3) + 1e-9 for a, b in zip(widths, widths[1:]))
    assert 0.0 < result.threshold <= result.act_max
    best_eval = max(max(t.auc_values) for t in result.trace)
    assert result.auc == best_eval
