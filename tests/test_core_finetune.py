"""Tests for threshold fine-tuning (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import CampaignConfig
from repro.core.finetune import (
    FineTuneConfig,
    LayerAUCEvaluator,
    ThresholdFineTuner,
    fine_tune_threshold,
)
from repro.core.swap import get_thresholds, swap_activations
from repro.hw.memory import WeightMemory


def bell(peak: float, width: float = 1.0):
    """A synthetic bell-shaped AUC-vs-T curve with a known peak."""

    def evaluator(threshold: float) -> float:
        return float(np.exp(-(((threshold - peak) / width) ** 2)))

    return evaluator


class TestFineTuneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FineTuneConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FineTuneConfig(min_iterations=5, max_iterations=3)
        with pytest.raises(ValueError):
            FineTuneConfig(tolerance=-0.1)


class TestIntervalSearch:
    def test_finds_bell_peak(self):
        config = FineTuneConfig(max_iterations=8, min_iterations=2, tolerance=0.0)
        result = fine_tune_threshold(bell(3.0), act_max=10.0, config=config)
        assert result.threshold == pytest.approx(3.0, abs=0.5)

    @settings(max_examples=25, deadline=None)
    @given(peak=st.floats(0.5, 9.5))
    def test_property_converges_to_peak(self, peak):
        config = FineTuneConfig(max_iterations=10, min_iterations=2, tolerance=0.0)
        result = fine_tune_threshold(bell(peak, width=2.0), act_max=10.0, config=config)
        # Interval shrinks by >= 1/3 each iteration; peak found within the
        # final interval's width.
        assert abs(result.threshold - peak) < 10.0 * (2.0 / 3.0) ** 8

    def test_peak_at_low_end(self):
        result = fine_tune_threshold(
            bell(0.5, width=0.5), act_max=10.0,
            config=FineTuneConfig(max_iterations=8, tolerance=0.0),
        )
        assert result.threshold == pytest.approx(0.5, abs=0.5)

    def test_monotone_increasing_picks_act_max(self):
        result = fine_tune_threshold(
            lambda t: t / 10.0, act_max=10.0,
            config=FineTuneConfig(max_iterations=4, tolerance=0.0),
        )
        assert result.threshold == pytest.approx(10.0, abs=1.0)

    def test_trace_structure(self):
        config = FineTuneConfig(max_iterations=3, min_iterations=3, tolerance=0.0)
        result = fine_tune_threshold(bell(5.0), act_max=10.0, config=config)
        assert result.iterations == 3
        first = result.trace[0]
        assert first.boundaries == (0.0, pytest.approx(10 / 3), pytest.approx(20 / 3), 10.0)
        assert 0 <= first.best_index < 4
        # Each iteration's search interval nests inside the previous one.
        for earlier, later in zip(result.trace, result.trace[1:]):
            assert later.interval[0] >= earlier.interval[0] - 1e-9
            assert later.interval[1] <= earlier.interval[1] + 1e-9

    def test_early_convergence_flag(self):
        # A flat evaluator converges immediately after min_iterations.
        config = FineTuneConfig(max_iterations=10, min_iterations=2, tolerance=0.01)
        result = fine_tune_threshold(lambda t: 0.5, act_max=10.0, config=config)
        assert result.converged_early
        assert result.iterations == 2

    def test_memoisation_reduces_evaluations(self):
        calls = []

        def counting(threshold):
            calls.append(threshold)
            return bell(5.0)(threshold)

        config = FineTuneConfig(max_iterations=4, min_iterations=4, tolerance=0.0)
        result = fine_tune_threshold(counting, act_max=10.0, config=config)
        # 4 iterations x 4 boundaries = 16 raw, but interval ends repeat.
        assert result.evaluations == len(calls)
        assert len(calls) < 16

    def test_invalid_act_max(self):
        with pytest.raises(ValueError):
            fine_tune_threshold(bell(1.0), act_max=0.0)

    def test_auc_value_reported(self):
        result = fine_tune_threshold(
            bell(5.0), act_max=10.0,
            config=FineTuneConfig(max_iterations=6, tolerance=0.0),
        )
        assert result.auc == pytest.approx(1.0, abs=0.1)


def _clone_mlp(trained_mlp):
    """A fresh MLP with the trained fixture's weights (safe to mutate)."""
    from repro.models import MLP

    clone = MLP(3 * 8 * 8, 10, hidden=(64, 32), seed=0)
    clone.load_state_dict(trained_mlp.state_dict())
    clone.eval()
    return clone


class TestLayerEvaluator:
    def test_evaluator_runs_and_sets_threshold(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        model = _clone_mlp(trained_mlp)
        swap_activations(model, 100.0)
        memory = WeightMemory.from_model(model, layers=["FC-1"])
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=0)
        evaluator = LayerAUCEvaluator(
            model, "FC-1", memory, images, labels, config
        )
        auc_tight = evaluator(20.0)
        assert 0.0 <= auc_tight <= 1.0
        # The evaluator leaves the threshold at its last setting.
        assert get_thresholds(model)["FC-1"] == 20.0

    def test_evaluate_many_matches_sequential_calls(
        self, trained_mlp, mlp_eval_arrays
    ):
        """Algorithm 1's pooled boundary evaluations must be bit-identical
        to calling the evaluator once per threshold."""
        images, labels = mlp_eval_arrays
        thresholds = [5.0, 15.0, 40.0]
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=0)

        model = _clone_mlp(trained_mlp)
        swap_activations(model, 100.0)
        memory = WeightMemory.from_model(model, layers=["FC-1"])
        sequential = [
            LayerAUCEvaluator(model, "FC-1", memory, images, labels, config)(t)
            for t in thresholds
        ]

        model = _clone_mlp(trained_mlp)
        swap_activations(model, 100.0)
        memory = WeightMemory.from_model(model, layers=["FC-1"])
        batch_evaluator = LayerAUCEvaluator(
            model, "FC-1", memory, images, labels, config, workers=2
        )
        initial = get_thresholds(model)["FC-1"]
        try:
            pooled = batch_evaluator.evaluate_many(thresholds)
        finally:
            batch_evaluator.close()
        assert pooled == sequential
        # The batch path snapshots per threshold and restores afterwards.
        assert get_thresholds(model)["FC-1"] == initial

    def test_fine_tune_trajectory_identical_at_any_worker_count(
        self, trained_mlp, mlp_eval_arrays
    ):
        """The whole Algorithm 1 search — thresholds, AUCs, traces — is
        the same whether boundaries evaluate serially or in one pool."""
        images, labels = mlp_eval_arrays
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=3)
        finetune_config = FineTuneConfig(
            max_iterations=2, min_iterations=1, tolerance=0.0
        )

        def tune(workers):
            model = _clone_mlp(trained_mlp)
            swap_activations(model, 100.0)
            memory = WeightMemory.from_model(model, layers=["FC-1"])
            evaluator = LayerAUCEvaluator(
                model, "FC-1", memory, images, labels, config, workers=workers
            )
            return fine_tune_threshold(
                evaluator, act_max=50.0, config=finetune_config
            )

        serial, pooled = tune(1), tune(2)
        assert serial.threshold == pooled.threshold
        assert serial.auc == pooled.auc
        assert serial.evaluations == pooled.evaluations
        assert [t.auc_values for t in serial.trace] == [
            t.auc_values for t in pooled.trace
        ]

    def test_algorithm1_reuses_one_warm_pool(
        self, trained_mlp, mlp_eval_arrays, monkeypatch
    ):
        """Every iteration's boundary batch shares one warm pool: a whole
        Algorithm-1 run constructs exactly one ProcessPoolExecutor, and
        fine_tune_threshold shuts it down when the search ends."""
        import repro.core.executor as executor_module

        created = []
        real_pool = executor_module.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            created.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", counting_pool)

        images, labels = mlp_eval_arrays
        model = _clone_mlp(trained_mlp)
        swap_activations(model, 100.0)
        memory = WeightMemory.from_model(model, layers=["FC-1"])
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=3)
        evaluator = LayerAUCEvaluator(
            model, "FC-1", memory, images, labels, config, workers=2
        )
        result = fine_tune_threshold(
            evaluator,
            act_max=50.0,
            config=FineTuneConfig(max_iterations=2, min_iterations=2, tolerance=0.0),
        )
        assert result.iterations == 2  # at least two boundary batches ran
        assert len(created) == 1
        assert evaluator._executor is None  # closed by fine_tune_threshold

    def test_evaluate_many_serializes_each_snapshot_once(
        self, trained_mlp, mlp_eval_arrays, monkeypatch
    ):
        """Each threshold's model snapshot is packed exactly once: the
        same unit materializes the parent-side copy and ships to the
        workers (run_tasks never re-serializes a pre-packed task)."""
        import repro.core.executor as executor_module
        import repro.core.finetune as finetune_module
        from repro.core.executor import WeightFaultCellTask
        from repro.utils.shm import pack_object as real_pack_object

        task_dumps = []

        def counting_pack(obj, *args, **kwargs):
            if isinstance(obj, WeightFaultCellTask):
                task_dumps.append(1)
            return real_pack_object(obj, *args, **kwargs)

        monkeypatch.setattr(finetune_module, "pack_object", counting_pack)
        monkeypatch.setattr(
            executor_module,
            "_pack_task",
            lambda task: pytest.fail(
                "executor re-packed a task evaluate_many already serialized"
            ),
        )

        images, labels = mlp_eval_arrays
        model = _clone_mlp(trained_mlp)
        swap_activations(model, 100.0)
        memory = WeightMemory.from_model(model, layers=["FC-1"])
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=0)
        evaluator = LayerAUCEvaluator(
            model, "FC-1", memory, images, labels, config, workers=2
        )
        thresholds = [5.0, 15.0, 40.0]
        try:
            pooled = evaluator.evaluate_many(thresholds)
        finally:
            evaluator.close()
        assert len(task_dumps) == len(thresholds)
        assert len(pooled) == len(thresholds)
        assert all(0.0 <= auc <= 1.0 for auc in pooled)

    def test_clipping_beats_unbounded_auc(self, trained_mlp, mlp_eval_arrays):
        """Fig. 5b's red-line comparison: the clipped network's AUC beats the
        truly unbounded (plain ReLU) network at damaging fault rates.

        Note a ClippedReLU with a huge threshold is *not* an unbounded
        baseline: faulty activations reach ~1e37, far above any practical
        threshold, so they are squashed regardless — which is exactly the
        paper's point.  The unbounded baseline must use plain ReLU.
        """
        from repro.core.campaign import run_campaign

        images, labels = mlp_eval_arrays
        config = CampaignConfig(fault_rates=(3e-5, 1e-4, 3e-4), trials=4, seed=1)

        plain = _clone_mlp(trained_mlp)
        plain_curve = run_campaign(
            plain, WeightMemory.from_model(plain), images, labels, config
        )

        clipped = _clone_mlp(trained_mlp)
        swap_activations(clipped, 30.0)
        clipped_curve = run_campaign(
            clipped, WeightMemory.from_model(clipped), images, labels, config
        )
        assert clipped_curve.auc() > plain_curve.auc()

    def test_tuner_tunes_all_layers(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        model = _clone_mlp(trained_mlp)
        swap_activations(model, 50.0)
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=0)
        tuner = ThresholdFineTuner(
            model,
            memory_factory=lambda layer: WeightMemory.from_model(model, layers=[layer]),
            images=images,
            labels=labels,
            campaign_config=config,
            finetune_config=FineTuneConfig(
                max_iterations=2, min_iterations=1, tolerance=0.0
            ),
        )
        act_max = {"FC-1": 50.0, "FC-2": 50.0}
        results = tuner.tune_all(act_max)
        assert set(results) == {"FC-1", "FC-2"}
        thresholds = get_thresholds(model)
        for layer, result in results.items():
            assert thresholds[layer] == pytest.approx(result.threshold)
            assert result.threshold <= 50.0

    def test_tune_layer_restores_initial_threshold(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        model = _clone_mlp(trained_mlp)
        swap_activations(model, 50.0)
        config = CampaignConfig(fault_rates=(1e-4,), trials=1, seed=0)
        tuner = ThresholdFineTuner(
            model,
            memory_factory=lambda layer: WeightMemory.from_model(model, layers=[layer]),
            images=images,
            labels=labels,
            campaign_config=config,
            finetune_config=FineTuneConfig(
                max_iterations=1, min_iterations=1, tolerance=0.0
            ),
        )
        tuner.tune_layer("FC-1", 50.0)
        assert get_thresholds(model)["FC-1"] == 50.0
