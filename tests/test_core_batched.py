"""Tests for adaptive early stopping and exact-sweep bit-identity.

The load-bearing guarantees:

* **Registry-wide exact bit-identity** — every cell-task kind (weight /
  quantized / activation / outcome / per-class) produces results
  bit-identical to the serial full-forward reference (``REPRO_NO_SUFFIX=1``)
  at workers {1, 2}, suffix on and off, over the shared-memory and the
  inline transport.
* **Adaptive determinism** — executed trials equal the exact sweep's
  prefix bit for bit, float32 and int8 alike, and the stopping decision
  is invariant to worker count, suffix caching, and checkpoint-resume
  after a mid-run kill.
"""

import math

import numpy as np
import pytest

from repro.analysis.outcomes import OutcomeCellTask
from repro.analysis.perclass import PerClassCellTask
from repro.core.batched import (
    DEFAULT_BATCH_K,
    SKIP_SENTINEL,
    AdaptiveCampaignTask,
    AdaptiveResult,
    ImportanceBitflipSampler,
    family_interval,
    wilson_interval,
)
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.executor import CampaignExecutor, WeightFaultCellTask
from repro.core.quantized import QuantizedCellTask
from repro.hw.actfaults import ActivationFaultCellTask
from repro.hw.memory import WeightMemory
from tests.conftest import journal_cells
from tests.helpers import shrunk

RATES = (1e-4, 1e-3)
TRIALS = 4


@pytest.fixture
def parts(trained_mlp, mlp_eval_arrays):
    images, labels = mlp_eval_arrays
    images, labels = images[:48], labels[:48]
    memory = WeightMemory.from_model(trained_mlp)
    # batch_size 24 -> two evaluation batches per forward, so the suffix
    # engine serves more than one offset.
    config = CampaignConfig(
        fault_rates=RATES, trials=TRIALS, seed=11, batch_size=24
    )
    return trained_mlp, memory, images, labels, config


KINDS = ("weight", "quantized", "activation", "outcome", "perclass")


def _make_task(kind, parts):
    model, memory, images, labels, config = parts
    if kind == "weight":
        return WeightFaultCellTask(model, memory, images, labels, config=config)
    if kind == "quantized":
        return QuantizedCellTask(model, memory, images, labels, config)
    if kind == "activation":
        return ActivationFaultCellTask(model, images, labels, config=config)
    if kind == "outcome":
        return OutcomeCellTask(model, memory, images, labels, config=config)
    return PerClassCellTask(model, memory, images, labels, config=config)


def _comparable(kind, result) -> np.ndarray:
    """One array capturing everything the result asserts scientifically."""
    if kind in ("weight", "quantized", "activation"):
        return result.accuracies
    if kind == "outcome":
        return np.asarray(
            [[c.masked, c.benign, c.sdc, c.due] for c in result.counts]
        )
    return np.concatenate([result.recall, result.prediction_share], axis=1)


class TestRegistryBitIdentity:
    """Every task kind matches the full-forward reference, everywhere."""

    def _run_all(self, parts, workers=1):
        tasks = [_make_task(kind, parts) for kind in KINDS]
        results = CampaignExecutor(workers=workers).run_tasks(tasks)
        return {
            kind: _comparable(kind, result)
            for kind, result in zip(KINDS, results)
        }

    @pytest.fixture
    def reference(self, parts, monkeypatch):
        """Serial full forwards: no suffix re-execution anywhere."""
        with monkeypatch.context() as env:
            env.setenv("REPRO_NO_SUFFIX", "1")
            return self._run_all(parts)

    def _assert_matches(self, reference, observed):
        for kind in KINDS:
            np.testing.assert_array_equal(
                reference[kind], observed[kind], err_msg=f"kind={kind}"
            )

    def test_serial_suffix_on(self, parts, reference):
        self._assert_matches(reference, self._run_all(parts))

    def test_two_workers_zero_copy_on(self, parts, reference):
        self._assert_matches(reference, self._run_all(parts, workers=2))

    def test_two_workers_zero_copy_off(self, parts, reference, monkeypatch):
        """Without shared memory the plane travels inline: one private
        copy per worker instead of mapped views."""
        import repro.utils.shm as shm_module

        monkeypatch.setattr(shm_module, "_shared_memory", None)
        self._assert_matches(reference, self._run_all(parts, workers=2))

    def test_two_workers_suffix_off_everywhere(
        self, parts, reference, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_SUFFIX", "1")
        self._assert_matches(reference, self._run_all(parts, workers=2))

    def test_wide_batch_k_exceeding_family(self, parts, reference):
        """An adaptive chunk wider than the trial family is harmless: the
        whole family runs as one chunk, and every executed trial equals
        the exact sweep's bit for bit."""
        model, memory, images, labels, config = parts
        base = WeightFaultCellTask(model, memory, images, labels, config=config)
        task = AdaptiveCampaignTask(base, ci_halfwidth=0.001, batch_k=64)
        result = CampaignExecutor().run_tasks([task])[0]
        np.testing.assert_array_equal(result.executed, [TRIALS] * len(RATES))
        np.testing.assert_array_equal(result.accuracies, reference["weight"])


class TestIntervalValidation:
    """Argument contracts; statistical behavior lives in the stats tier."""

    def test_wilson_basics(self):
        low, high = wilson_interval(50, 100)
        assert 0.0 <= low < 0.5 < high <= 1.0
        # Exact at the boundaries, whichever way the float rounding goes.
        for n in (10, 96, 640, 1280):
            assert wilson_interval(0, n)[0] == 0.0
            assert wilson_interval(n, n)[1] == 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_family_interval_pools_counts(self):
        estimate, halfwidth = family_interval([0.5, 1.0], 10)
        assert estimate == pytest.approx(0.75)
        assert 0.0 < halfwidth < 0.5

    def test_family_interval_contracts(self):
        with pytest.raises(ValueError):
            family_interval([], 10)
        # A weighted family must never stop on a single trial.
        estimate, halfwidth = family_interval([0.5], 10, weights=[2.0])
        assert estimate == pytest.approx(1.0)
        assert math.isinf(halfwidth)
        # Weights must parallel the accuracies exactly, longer or shorter.
        with pytest.raises(ValueError, match="3 weights for 2 accuracies"):
            family_interval([0.5, 0.6], 10, weights=[1.0, 1.0, 5.0])
        with pytest.raises(ValueError, match="1 weights for 2 accuracies"):
            family_interval([0.5, 0.6], 10, weights=[1.0])


@pytest.fixture
def adaptive_parts(trained_mlp, mlp_eval_arrays):
    images, labels = mlp_eval_arrays
    memory = WeightMemory.from_model(trained_mlp)
    config = CampaignConfig(
        fault_rates=(1e-5, 1e-4, 1e-3), trials=6, seed=7, batch_size=96
    )
    return trained_mlp, memory, images, labels, config


def _adaptive_task(adaptive_parts, **kwargs):
    model, memory, images, labels, config = adaptive_parts
    base = WeightFaultCellTask(model, memory, images, labels, config=config)
    kwargs.setdefault("ci_halfwidth", 0.08)
    kwargs.setdefault("batch_k", 2)
    return AdaptiveCampaignTask(base, **kwargs)


def _run_adaptive(task, workers=1, checkpoint=None, progress=None):
    executor = CampaignExecutor(
        workers=workers, checkpoint=checkpoint, progress=progress
    )
    return executor.run_tasks([task])[0]


def _assert_same_result(a: AdaptiveResult, b: AdaptiveResult) -> None:
    np.testing.assert_array_equal(a.executed, b.executed)
    np.testing.assert_array_equal(a.accuracies, b.accuracies)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.halfwidths, b.halfwidths)
    assert a.to_dict() == b.to_dict()


class TestAdaptiveStopping:
    def test_prefix_is_exact_sweep_bitwise(self, adaptive_parts):
        """Common random numbers survive the stopping layer: executed
        trials equal the exact sweep's first n trials bit for bit."""
        model, memory, images, labels, config = adaptive_parts
        exact = run_campaign(model, memory, images, labels, config)
        result = _run_adaptive(_adaptive_task(adaptive_parts))
        assert isinstance(result, AdaptiveResult)
        assert result.cells_executed < result.cells_total  # something saved
        for i in range(len(config.fault_rates)):
            n = int(result.executed[i])
            assert 2 <= n <= config.trials
            np.testing.assert_array_equal(
                result.accuracies[i, :n], exact.accuracies[i, :n]
            )
            # Unexecuted trials carry the sentinel, not stale data.
            assert np.all(result.accuracies[i, n:] == SKIP_SENTINEL)
            # Every family either met tolerance or exhausted its budget.
            assert (
                result.halfwidths[i] <= result.tolerance
                or n == config.trials
            )

    def test_quantized_prefix_is_exact_int8_sweep_bitwise(
        self, adaptive_parts
    ):
        """The int8 runner under adaptive stopping: executed trials equal
        the exact int8 sweep's first n trials bit for bit, at workers 1
        and 2."""
        model, memory, images, labels, config = adaptive_parts
        exact = CampaignExecutor().run_tasks(
            [QuantizedCellTask(model, memory, images, labels, config)]
        )[0]
        for workers in (1, 2):
            base = QuantizedCellTask(model, memory, images, labels, config)
            result = _run_adaptive(
                AdaptiveCampaignTask(base, ci_halfwidth=0.08, batch_k=2),
                workers=workers,
            )
            assert result.cells_executed < result.cells_total
            for i in range(len(config.fault_rates)):
                n = int(result.executed[i])
                assert 2 <= n <= config.trials
                np.testing.assert_array_equal(
                    result.accuracies[i, :n], exact.accuracies[i, :n],
                    err_msg=f"workers={workers} rate={i}",
                )

    def test_stopping_invariant_to_execution_details(
        self, adaptive_parts, monkeypatch
    ):
        """Workers and suffix caching change how cells are evaluated,
        never which cells run or what they produce."""
        reference = _run_adaptive(_adaptive_task(adaptive_parts))
        _assert_same_result(
            reference, _run_adaptive(_adaptive_task(adaptive_parts), workers=2)
        )
        monkeypatch.setenv("REPRO_NO_SUFFIX", "1")
        _assert_same_result(
            reference, _run_adaptive(_adaptive_task(adaptive_parts))
        )

    def test_huge_tolerance_stops_at_min_trials(self, adaptive_parts):
        result = _run_adaptive(
            _adaptive_task(adaptive_parts, ci_halfwidth=0.5, batch_k=1)
        )
        np.testing.assert_array_equal(
            result.executed, np.full(3, 2, dtype=np.int64)
        )

    def test_tiny_tolerance_runs_everything(self, adaptive_parts):
        model, memory, images, labels, config = adaptive_parts
        exact = run_campaign(model, memory, images, labels, config)
        result = _run_adaptive(
            _adaptive_task(adaptive_parts, ci_halfwidth=0.001)
        )
        assert result.cells_skipped == 0
        np.testing.assert_array_equal(result.accuracies, exact.accuracies)

    def test_curve_fills_skips_with_estimate(self, adaptive_parts):
        result = _run_adaptive(_adaptive_task(adaptive_parts))
        curve = result.curve
        assert curve.accuracies.shape == result.accuracies.shape
        for i in range(result.fault_rates.size):
            n = int(result.executed[i])
            np.testing.assert_array_equal(
                curve.accuracies[i, :n], result.accuracies[i, :n]
            )
            fill = min(1.0, max(0.0, float(result.estimates[i])))
            assert np.all(curve.accuracies[i, n:] == fill)
        assert curve.clean_accuracy == result.clean_accuracy

    def test_to_dict_reports_savings(self, adaptive_parts):
        result = _run_adaptive(_adaptive_task(adaptive_parts))
        payload = result.to_dict()
        assert payload["cells_executed"] == result.cells_executed
        assert payload["cells_skipped"] == result.cells_skipped
        assert payload["max_trials"] == 6
        assert payload["level"] == 0.95
        assert payload["method"] == "wilson"
        assert len(payload["ci_halfwidths"]) == 3
        assert "importance_weights" not in payload

    def test_batch_k_zero_resolves_to_default(self, adaptive_parts):
        task = _adaptive_task(adaptive_parts, batch_k=0)
        assert task.batch_k == DEFAULT_BATCH_K

    def test_validation_errors(self, adaptive_parts):
        model, memory, images, labels, config = adaptive_parts
        base = WeightFaultCellTask(model, memory, images, labels, config=config)
        with pytest.raises(ValueError, match="cell_width"):
            AdaptiveCampaignTask(
                OutcomeCellTask(model, memory, images, labels, config=config)
            )
        with pytest.raises(ValueError, match="ci_halfwidth"):
            AdaptiveCampaignTask(base, ci_halfwidth=0.0)
        with pytest.raises(ValueError, match="max_trials"):
            AdaptiveCampaignTask(base, max_trials=0)
        # A negative chunk width is an error, not the default chunk.
        with pytest.raises(ValueError, match="batch_k .*got -3"):
            AdaptiveCampaignTask(base, batch_k=-3)
        with pytest.raises(ValueError, match="memory"):
            AdaptiveCampaignTask(
                ActivationFaultCellTask(model, images, labels, config=config),
                importance=4.0,
            )


class TestAdaptiveCheckpointResume:
    """Kill an adaptive sweep mid-run; resume must reproduce the
    uninterrupted run exactly — stopping decisions included."""

    class _Kill(RuntimeError):
        pass

    def _killer(self, at):
        def progress(cell):
            if cell.completed == at and not cell.from_checkpoint:
                raise self._Kill("simulated crash")

        return progress

    def test_kill_then_serial_resume(self, adaptive_parts, tmp_path):
        full = _run_adaptive(_adaptive_task(adaptive_parts))
        path = tmp_path / "adaptive.jsonl"
        with pytest.raises(self._Kill):
            _run_adaptive(
                _adaptive_task(adaptive_parts),
                checkpoint=str(path),
                progress=self._killer(2),
            )
        # Families are recorded before the progress callback fires, so
        # the one the killer was notified about is already saved.
        saved = len(journal_cells(path))
        assert saved == 2  # killed mid-run, one family still pending
        recomputed = []
        resumed = _run_adaptive(
            _adaptive_task(adaptive_parts),
            checkpoint=str(path),
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint
            else None,
        )
        assert len(recomputed) == 3 - saved
        _assert_same_result(full, resumed)

    def test_kill_then_parallel_resume(self, adaptive_parts, tmp_path):
        full = _run_adaptive(_adaptive_task(adaptive_parts))
        path = tmp_path / "adaptive.jsonl"
        with pytest.raises(self._Kill):
            _run_adaptive(
                _adaptive_task(adaptive_parts),
                checkpoint=str(path),
                progress=self._killer(2),
            )
        resumed = _run_adaptive(
            _adaptive_task(adaptive_parts), workers=2, checkpoint=str(path)
        )
        _assert_same_result(full, resumed)


class TestImportanceSampling:
    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            ImportanceBitflipSampler(boost=0.0)
        with pytest.raises(ValueError):
            ImportanceBitflipSampler(hot_positions=(31, 31))
        with pytest.raises(ValueError):
            ImportanceBitflipSampler(hot_positions=(-1,))

    def test_place_maps_cells_to_bits(self):
        bits = ImportanceBitflipSampler._place(
            np.asarray([0, 1, 2, 3], dtype=np.int64), [31, 23], 32
        )
        np.testing.assert_array_equal(bits, [31, 23, 63, 55])

    def test_zero_rate_draw_is_empty_with_unit_weight(self, adaptive_parts):
        _, memory, _, _, _ = adaptive_parts
        sampler = ImportanceBitflipSampler()
        faults, weight = sampler.sample_with_weight(
            memory, 0.0, np.random.default_rng(0)
        )
        assert weight == 1.0 and len(faults) == 0

    def test_draw_is_deterministic_and_valid(self, adaptive_parts):
        _, memory, _, _, _ = adaptive_parts
        sampler = ImportanceBitflipSampler(boost=6.0)
        a_faults, a_weight = sampler.sample_with_weight(
            memory, 1e-4, np.random.default_rng(42)
        )
        b_faults, b_weight = sampler.sample_with_weight(
            memory, 1e-4, np.random.default_rng(42)
        )
        assert a_weight == b_weight > 0.0
        np.testing.assert_array_equal(a_faults.bit_indices, b_faults.bit_indices)
        bits = np.asarray(a_faults.bit_indices)
        assert bits.size == np.unique(bits).size
        assert np.all(bits >= 0) and np.all(bits < memory.total_bits)

    def test_adaptive_with_importance_records_weights(self, adaptive_parts):
        result = _run_adaptive(
            _adaptive_task(adaptive_parts, importance=4.0, ci_halfwidth=0.3)
        )
        assert result.weights is not None
        for i in range(result.fault_rates.size):
            n = int(result.executed[i])
            weights = result.weights[i, :n]
            assert np.all(weights > 0.0)
            assert np.all(result.weights[i, n:] == SKIP_SENTINEL)
            # The family estimate is the weighted mean of executed trials.
            expected = float(
                np.mean(weights * result.accuracies[i, :n])
            )
            assert result.estimates[i] == pytest.approx(expected)
        payload = result.to_dict()
        assert "importance_weights" in payload

    def test_importance_runs_are_deterministic(self, adaptive_parts):
        first = _run_adaptive(
            _adaptive_task(adaptive_parts, importance=4.0, ci_halfwidth=0.3)
        )
        second = _run_adaptive(
            _adaptive_task(adaptive_parts, importance=4.0, ci_halfwidth=0.3),
            workers=2,
        )
        np.testing.assert_array_equal(first.weights, second.weights)
        _assert_same_result(first, second)


class TestAdaptiveThroughScenarios:
    """The spec/compile integration (mode/ci_halfwidth/batch_k fields)."""

    def test_compile_wraps_adaptive(self):
        from repro.scenarios import CampaignSpec

        spec = CampaignSpec(
            name="a", mode="adaptive", ci_halfwidth=0.1, batch_k=2
        )
        assert spec.to_dict()["mode"] == "adaptive"
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        small = shrunk(spec)
        assert small.mode == "adaptive"
        assert small.ci_halfwidth == 0.1
        assert small.batch_k == 2

    def test_spec_cross_field_rules(self):
        from repro.scenarios import CampaignSpec

        with pytest.raises(ValueError, match="mode"):
            CampaignSpec(name="x", mode="turbo")
        with pytest.raises(ValueError, match="adaptive"):
            CampaignSpec(name="x", mode="adaptive", campaign="activation")
        with pytest.raises(ValueError, match="importance"):
            CampaignSpec(name="x", importance=2.0)  # exact mode
        with pytest.raises(ValueError, match="importance"):
            CampaignSpec(
                name="x", mode="adaptive", campaign="quantized", importance=2.0
            )
        with pytest.raises(ValueError, match="ci_halfwidth"):
            CampaignSpec(name="x", ci_halfwidth=0.9)
        with pytest.raises(ValueError, match="batch_k"):
            CampaignSpec(name="x", batch_k=-2)
