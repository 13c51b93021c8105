"""Tests for the int8 campaign on the unified executor substrate.

`run_quantized_campaign` shares :class:`~repro.core.executor.CampaignExecutor`
with the float32 campaigns, so it inherits the bit-identical-parallelism
contract, progress streaming and checkpoint resume — all guarded here.
"""

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.executor import CellResult
from repro.core.quantized import QuantizedCellTask, run_quantized_campaign
from repro.hw.memory import WeightMemory
from tests.conftest import journal_cells, keep_journal_cells

RATES = (1e-4, 1e-3)


@pytest.fixture
def quant_parts(trained_mlp, mlp_eval_arrays):
    images, labels = mlp_eval_arrays
    memory = WeightMemory.from_model(trained_mlp)
    config = CampaignConfig(fault_rates=RATES, trials=4, seed=21, batch_size=96)
    return trained_mlp, memory, images, labels, config


class TestQuantizedParallelDeterminism:
    def test_two_workers_bit_identical_to_serial(self, quant_parts):
        """The ISSUE's acceptance criterion for the int8 path."""
        model, memory, images, labels, config = quant_parts
        serial = run_quantized_campaign(model, memory, images, labels, config)
        parallel = run_quantized_campaign(
            model, memory, images, labels, config, workers=2
        )
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)
        assert serial.clean_accuracy == parallel.clean_accuracy
        np.testing.assert_array_equal(serial.fault_rates, parallel.fault_rates)

    def test_weights_restored_after_parallel_run(self, quant_parts):
        """Deployment happens in workers (and briefly for the clean
        accuracy); the parent's float weights must come back exactly."""
        model, memory, images, labels, config = quant_parts
        before = memory.snapshot()
        run_quantized_campaign(model, memory, images, labels, config, workers=2)
        for old, new in zip(before, memory.snapshot()):
            np.testing.assert_array_equal(old, new)

    def test_matches_pre_executor_serial_loop(self, quant_parts):
        """The historical hand-rolled loop, inlined: same seeds, same
        deployment, cell by cell — the port must not change a bit."""
        from repro.core.metrics import evaluate_accuracy_arrays
        from repro.hw.quant import QuantizedWeightMemory
        from repro.utils.rng import SeedTree

        model, memory, images, labels, config = quant_parts
        quantized = QuantizedWeightMemory(memory)
        tree = SeedTree(config.seed)
        rates = np.asarray(config.fault_rates, dtype=np.float64)
        expected = np.empty((rates.size, config.trials))
        with quantized.deployed():
            clean = evaluate_accuracy_arrays(
                model, images, labels, config.batch_size
            )
            for rate_index, rate in enumerate(rates):
                for trial in range(config.trials):
                    rng = tree.generator(f"rate/{rate_index}/trial/{trial}")
                    with quantized.session(float(rate), rng):
                        expected[rate_index, trial] = evaluate_accuracy_arrays(
                            model, images, labels, config.batch_size
                        )
        curve = run_quantized_campaign(model, memory, images, labels, config)
        np.testing.assert_array_equal(curve.accuracies, expected)
        assert curve.clean_accuracy == clean


class TestQuantizedProgressAndCheckpoint:
    def test_progress_covers_grid(self, quant_parts):
        model, memory, images, labels, config = quant_parts
        seen: list[CellResult] = []
        curve = run_quantized_campaign(
            model, memory, images, labels, config, progress=seen.append
        )
        total = len(RATES) * config.trials
        assert len(seen) == total
        assert sorted((c.rate_index, c.trial) for c in seen) == [
            (i, j) for i in range(len(RATES)) for j in range(config.trials)
        ]
        for cell in seen:
            assert curve.accuracies[cell.rate_index, cell.trial] == cell.accuracy

    def test_resume_after_mid_grid_kill(self, quant_parts, tmp_path):
        """A sweep killed mid-grid resumes from its checkpoint, recomputes
        only the missing cells, and still restores the float weights."""
        model, memory, images, labels, config = quant_parts
        full = run_quantized_campaign(model, memory, images, labels, config)
        path = tmp_path / "int8.jsonl"
        before = memory.snapshot()

        class _Kill(RuntimeError):
            pass

        def killer(cell):
            if cell.completed == 3:
                raise _Kill("simulated crash")

        with pytest.raises(_Kill):
            run_quantized_campaign(
                model, memory, images, labels, config,
                progress=killer, checkpoint=str(path),
            )
        # The kill happened inside the cell loop; the runner's close()
        # must still have restored the parent's float weights.
        for old, new in zip(before, memory.snapshot()):
            np.testing.assert_array_equal(old, new)
        # The cell is recorded before the progress callback fires, so a
        # crashing callback never loses the work it was notified about.
        saved = len(journal_cells(path))
        assert saved == 3

        recomputed = []
        resumed = run_quantized_campaign(
            model, memory, images, labels, config, checkpoint=str(path),
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint else None,
        )
        assert len(recomputed) == len(RATES) * config.trials - saved
        np.testing.assert_array_equal(full.accuracies, resumed.accuracies)

    def test_checkpoint_rejects_weight_fault_campaign(self, quant_parts, tmp_path):
        """Campaign *type* is part of the fingerprint: an int8 checkpoint
        must never resume a float32 weight-fault sweep, even with an
        identical config grid."""
        model, memory, images, labels, config = quant_parts
        path = tmp_path / "sweep.jsonl"
        run_quantized_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(model, memory, images, labels, config, checkpoint=str(path))

    def test_checkpoint_rejects_quantized_resume_of_weight_fault(
        self, quant_parts, tmp_path
    ):
        model, memory, images, labels, config = quant_parts
        path = tmp_path / "sweep.jsonl"
        run_campaign(model, memory, images, labels, config, checkpoint=str(path))
        with pytest.raises(ValueError, match="different campaign"):
            run_quantized_campaign(
                model, memory, images, labels, config, checkpoint=str(path)
            )

    def test_parallel_resume_of_serial_checkpoint(self, quant_parts, tmp_path):
        model, memory, images, labels, config = quant_parts
        serial = run_quantized_campaign(model, memory, images, labels, config)
        path = tmp_path / "int8.jsonl"
        run_quantized_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        keep_journal_cells(path, lambda key: key == (0, 0, 0))
        resumed = run_quantized_campaign(
            model, memory, images, labels, config, workers=2, checkpoint=str(path)
        )
        np.testing.assert_array_equal(serial.accuracies, resumed.accuracies)


class TestQuantizedCellTask:
    def test_task_is_picklable_and_label_free(self, quant_parts):
        import pickle

        model, memory, images, labels, config = quant_parts
        task = QuantizedCellTask(
            model, memory, images, labels, config, label="int8"
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.kind == "quantized"
        assert clone.label == ""  # labels stay parent-side
        runner = clone.make_runner()
        try:
            value = runner.run_cell(0, 0)
        finally:
            runner.close()
        assert 0.0 <= value <= 1.0
