"""Tests for accuracy, the AUC metric and ResilienceCurve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import (
    BoxStats,
    ResilienceCurve,
    auc_resilience,
    evaluate_accuracy_arrays,
    predict_labels,
)
from repro.models import LeNet5


class TestAccuracy:
    def test_matches_manual(self, trained_lenet, eval_arrays):
        images, labels = eval_arrays
        accuracy = evaluate_accuracy_arrays(trained_lenet, images, labels)
        predictions = predict_labels(trained_lenet, images)
        assert accuracy == pytest.approx(float((predictions == labels).mean()))

    def test_batching_invariant(self, trained_lenet, eval_arrays):
        images, labels = eval_arrays
        a = evaluate_accuracy_arrays(trained_lenet, images, labels, batch_size=7)
        b = evaluate_accuracy_arrays(trained_lenet, images, labels, batch_size=128)
        assert a == b

    def test_empty_rejected(self, trained_lenet):
        with pytest.raises(ValueError):
            evaluate_accuracy_arrays(
                trained_lenet,
                np.zeros((0, 3, 32, 32), dtype=np.float32),
                np.zeros(0, dtype=np.int64),
            )

    def test_count_mismatch_rejected(self, trained_lenet):
        with pytest.raises(ValueError):
            evaluate_accuracy_arrays(
                trained_lenet,
                np.zeros((2, 3, 32, 32), dtype=np.float32),
                np.zeros(3, dtype=np.int64),
            )

    def test_mode_restored(self, eval_arrays):
        model = LeNet5(seed=0)
        model.train()
        images, labels = eval_arrays
        evaluate_accuracy_arrays(model, images[:8], labels[:8])
        assert model.training


class TestAUC:
    def test_ideal_network_scores_one(self):
        rates = np.asarray([1e-8, 1e-7, 1e-6, 1e-5])
        accs = np.ones(4)
        assert auc_resilience(rates, accs) == pytest.approx(1.0)
        # Linear mode integrates from the smallest sampled rate, so the
        # ideal value is 1 minus the (tiny) missing left sliver.
        assert auc_resilience(rates, accs, x_mode="linear") == pytest.approx(1.0, abs=1e-2)

    def test_zero_accuracy_scores_zero(self):
        rates = np.asarray([1e-8, 1e-5])
        assert auc_resilience(rates, np.zeros(2)) == 0.0

    def test_trapezoid_known_value(self):
        rates = np.asarray([1e-7, 1e-6, 1e-5])
        accs = np.asarray([1.0, 0.5, 0.0])
        # index mode: x = [0, .5, 1]; trapezoid = .5*(1+.5)/2 + .5*(.5+0)/2
        assert auc_resilience(rates, accs) == pytest.approx(0.5)

    def test_monotone_in_accuracy(self):
        rates = np.asarray([1e-7, 1e-6, 1e-5])
        low = auc_resilience(rates, np.asarray([0.9, 0.5, 0.1]))
        high = auc_resilience(rates, np.asarray([0.95, 0.6, 0.2]))
        assert high > low

    def test_linear_mode_weights_tail(self):
        rates = np.asarray([1e-7, 1e-5])
        accs = np.asarray([1.0, 0.0])
        linear = auc_resilience(rates, accs, x_mode="linear")
        index = auc_resilience(rates, accs, x_mode="index")
        # Linear mode squeezes the first point near x=0.
        assert linear == pytest.approx(0.5 * (1.0 - 0.01), rel=1e-3)
        assert index == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_resilience(np.asarray([1e-6]), np.asarray([1.0]))
        with pytest.raises(ValueError):
            auc_resilience(np.asarray([1e-6, 1e-7]), np.asarray([1.0, 1.0]))
        with pytest.raises(ValueError):
            auc_resilience(np.asarray([1e-7, 1e-6]), np.asarray([1.0, 1.5]))
        with pytest.raises(ValueError):
            auc_resilience(np.asarray([1e-7, 1e-6]), np.asarray([1.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10),
    )
    def test_bounded_zero_one(self, accs):
        rates = np.logspace(-8, -4, len(accs))
        value = auc_resilience(rates, np.asarray(accs))
        assert 0.0 <= value <= 1.0


class TestBoxStats:
    def test_five_number_summary(self):
        samples = np.asarray([0.1, 0.2, 0.3, 0.4, 0.5])
        box = BoxStats.from_samples(samples)
        assert box.minimum == 0.1
        assert box.median == 0.3
        assert box.maximum == 0.5
        assert box.mean == pytest.approx(0.3)
        assert box.q1 == pytest.approx(0.2)
        assert box.q3 == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_samples(np.asarray([]))


class TestResilienceCurve:
    def _curve(self):
        rates = np.asarray([1e-7, 1e-6, 1e-5])
        accs = np.asarray(
            [[0.9, 0.95, 0.85], [0.7, 0.6, 0.8], [0.2, 0.1, 0.3]]
        )
        return ResilienceCurve(rates, accs, clean_accuracy=0.97, label="test")

    def test_mean_and_worst(self):
        curve = self._curve()
        np.testing.assert_allclose(curve.mean_accuracies(), [0.9, 0.7, 0.2])
        np.testing.assert_allclose(curve.worst_case(), [0.85, 0.6, 0.1])
        assert curve.n_trials == 3

    def test_auc_includes_clean_anchor(self):
        curve = self._curve()
        with_zero = curve.auc(include_zero_rate=True)
        without = curve.auc(include_zero_rate=False)
        assert with_zero != without
        # Anchoring at a high clean accuracy raises the AUC here.
        assert with_zero > without

    def test_box_stats_per_rate(self):
        boxes = self._curve().box_stats()
        assert len(boxes) == 3
        assert boxes[0].maximum == 0.95

    def test_summary_rows(self):
        rows = self._curve().summary_rows()
        assert len(rows) == 3
        assert rows[0]["fault_rate"] == 1e-7
        assert rows[2]["mean"] == pytest.approx(0.2)

    def test_single_trial_curve(self):
        curve = ResilienceCurve(
            np.asarray([1e-7, 1e-6]), np.asarray([[0.9], [0.5]]), clean_accuracy=1.0
        )
        assert curve.n_trials == 1
        np.testing.assert_allclose(curve.mean_accuracies(), [0.9, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceCurve(np.asarray([1e-6, 1e-7]), np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError):
            ResilienceCurve(np.asarray([1e-7, 1e-6]), np.zeros((3, 2)), 1.0)
