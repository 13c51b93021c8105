"""Tests for the parallel campaign executor.

The load-bearing guarantee is *bit-identical* results at any worker
count: per-cell seeds depend only on (campaign seed, rate index, trial
index), worker models are exact copies of the parent's weights, and the
accuracy grid is assembled by cell index, never by completion order.
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignConfig,
    FaultInjectionCampaign,
    RandomBitFlipSampler,
    run_campaign,
)
from repro.core.chaos import CHAOS_ENV_VAR, ChaosError
from repro.core.executor import (
    CampaignExecutor,
    CellResult,
    SupervisionPolicy,
    WeightFaultCellTask,
    cell_seed_path,
    resolve_workers,
)
from repro.hw.faultmodels import FaultSet
from repro.hw.memory import WeightMemory
from repro.utils.blas import blas_threads, set_blas_threads
from tests.conftest import journal_cells, keep_journal_cells

RATES = (1e-5, 1e-4, 1e-3)


@pytest.fixture
def campaign_parts(trained_mlp, mlp_eval_arrays):
    images, labels = mlp_eval_arrays
    memory = WeightMemory.from_model(trained_mlp)
    config = CampaignConfig(fault_rates=RATES, trials=4, seed=11, batch_size=96)
    return trained_mlp, memory, images, labels, config


class TestResolveWorkers:
    def test_positive_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            resolve_workers(2.5)


class TestSeedPathContract:
    def test_matches_campaign_derivation(self):
        """The documented common-random-numbers path must never change:
        existing curves and checkpoints depend on it."""
        assert cell_seed_path(0, 0) == "rate/0/trial/0"
        assert cell_seed_path(3, 17) == "rate/3/trial/17"


class TestParallelDeterminism:
    def test_two_workers_bit_identical_to_serial(self, campaign_parts):
        """The ISSUE's acceptance criterion: workers=2 == workers=1, bitwise."""
        model, memory, images, labels, config = campaign_parts
        serial = run_campaign(model, memory, images, labels, config)
        parallel = run_campaign(model, memory, images, labels, config, workers=2)
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)
        assert serial.clean_accuracy == parallel.clean_accuracy
        np.testing.assert_array_equal(serial.fault_rates, parallel.fault_rates)

    def test_three_workers_and_chunk_size_one(self, campaign_parts):
        """Extreme chunking (one cell per task) must not change anything."""
        model, memory, images, labels, config = campaign_parts
        campaign = FaultInjectionCampaign(model, memory, images, labels, config)
        serial = campaign.run()
        executor = CampaignExecutor(workers=3, chunk_size=1)
        parallel = executor.run(campaign)
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)

    def test_parallel_leaves_parent_weights_untouched(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        before = memory.snapshot()
        run_campaign(model, memory, images, labels, config, workers=2)
        for old, new in zip(before, memory.snapshot()):
            np.testing.assert_array_equal(old, new)

    def test_picklable_protection_sampler(self, campaign_parts):
        """Baseline samplers (ECC here) must survive the worker round-trip."""
        from repro.core.baselines import ecc_sampler

        model, memory, images, labels, _ = campaign_parts
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=3, seed=5)
        serial = run_campaign(
            model, memory, images, labels, config, sampler=ecc_sampler()
        )
        parallel = run_campaign(
            model, memory, images, labels, config, sampler=ecc_sampler(), workers=2
        )
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)

    def test_unpicklable_sampler_reports_clearly(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        local_state = []

        def closure_sampler(mem, rate, rng):  # closures cannot pickle
            local_state.append(rate)
            return FaultSet.empty()

        with pytest.raises(ValueError, match="picklable"):
            run_campaign(
                model, memory, images, labels, config,
                sampler=closure_sampler, workers=2,
            )

    def test_workers_zero_resolves_and_runs(self, campaign_parts):
        model, memory, images, labels, _ = campaign_parts
        config = CampaignConfig(fault_rates=(1e-4,), trials=2, seed=1)
        serial = run_campaign(model, memory, images, labels, config)
        auto = run_campaign(model, memory, images, labels, config, workers=0)
        np.testing.assert_array_equal(serial.accuracies, auto.accuracies)


class TestProgressStreaming:
    def test_serial_progress_covers_grid_in_order(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        seen: list[CellResult] = []
        run_campaign(
            model, memory, images, labels, config, progress=seen.append
        )
        total = len(RATES) * config.trials
        assert len(seen) == total
        assert [c.completed for c in seen] == list(range(1, total + 1))
        assert all(c.total == total for c in seen)
        # Serial order is rate-major, matching the historical loop.
        assert [(c.rate_index, c.trial) for c in seen] == [
            (i, j) for i in range(len(RATES)) for j in range(config.trials)
        ]
        assert not any(c.from_checkpoint for c in seen)

    def test_parallel_progress_covers_grid(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        seen: list[CellResult] = []
        curve = run_campaign(
            model, memory, images, labels, config, workers=2, progress=seen.append
        )
        total = len(RATES) * config.trials
        assert len(seen) == total
        assert sorted((c.rate_index, c.trial) for c in seen) == [
            (i, j) for i in range(len(RATES)) for j in range(config.trials)
        ]
        # Streamed accuracies agree with the assembled grid.
        for cell in seen:
            assert curve.accuracies[cell.rate_index, cell.trial] == cell.accuracy


class TestCheckpointResume:
    def test_checkpoint_written_and_complete(self, campaign_parts, tmp_path):
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        curve = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header["version"] == 4
        assert header["campaigns"][0]["seed"] == config.seed
        cells = journal_cells(path)
        assert len(cells) == len(RATES) * config.trials
        for (task_index, rate_index, trial), accuracy in cells.items():
            assert task_index == 0
            assert curve.accuracies[rate_index, trial] == accuracy

    def test_resume_skips_completed_cells(self, campaign_parts, tmp_path):
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        full = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        # Drop some cells from the checkpoint to simulate an interrupt.
        removed = sorted(journal_cells(path))[::3]
        keep_journal_cells(path, lambda key: key not in removed)

        recomputed: list[CellResult] = []

        def progress(cell):
            if not cell.from_checkpoint:
                recomputed.append(cell)

        resumed = run_campaign(
            model, memory, images, labels, config,
            checkpoint=str(path), progress=progress,
        )
        assert {(c.rate_index, c.trial) for c in recomputed} == {
            key[1:] for key in removed
        }
        np.testing.assert_array_equal(full.accuracies, resumed.accuracies)

    def test_fully_checkpointed_run_recomputes_nothing(
        self, campaign_parts, tmp_path
    ):
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        first = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        recomputed = []
        second = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path),
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint else None,
        )
        assert recomputed == []
        np.testing.assert_array_equal(first.accuracies, second.accuracies)

    def test_parallel_resume_of_serial_checkpoint(self, campaign_parts, tmp_path):
        """A sweep checkpointed serially can be finished by a worker pool."""
        model, memory, images, labels, config = campaign_parts
        serial = run_campaign(model, memory, images, labels, config)
        path = tmp_path / "sweep.jsonl"
        run_campaign(model, memory, images, labels, config, checkpoint=str(path))
        # Prune the checkpoint down to one completed cell.
        keep_journal_cells(path, lambda key: key == (0, 0, 0))
        resumed = run_campaign(
            model, memory, images, labels, config,
            workers=2, checkpoint=str(path),
        )
        np.testing.assert_array_equal(serial.accuracies, resumed.accuracies)

    def test_mismatched_checkpoint_rejected(self, campaign_parts, tmp_path):
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        run_campaign(model, memory, images, labels, config, checkpoint=str(path))
        other = CampaignConfig(
            fault_rates=RATES, trials=config.trials, seed=config.seed + 1
        )
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(model, memory, images, labels, other, checkpoint=str(path))

    def test_checkpoint_rejects_different_model_same_config(
        self, campaign_parts, tmp_path
    ):
        """The fingerprint covers campaign *content*, not just the grid:
        the same config on different weights must not resume."""
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        run_campaign(model, memory, images, labels, config, checkpoint=str(path))

        from repro.models import MLP

        other_model = MLP(3 * 8 * 8, 10, hidden=(64, 32), seed=99)
        other_model.eval()
        other_memory = WeightMemory.from_model(other_model)
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(
                other_model, other_memory, images, labels, config,
                checkpoint=str(path),
            )

    def test_checkpoint_rejects_different_sampler_same_config(
        self, campaign_parts, tmp_path
    ):
        from repro.core.baselines import ecc_sampler

        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        run_campaign(model, memory, images, labels, config, checkpoint=str(path))
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(
                model, memory, images, labels, config,
                sampler=ecc_sampler(), checkpoint=str(path),
            )


class TestMidGridKillResume:
    def test_serial_kill_then_serial_resume(self, campaign_parts, tmp_path):
        """An exception mid-grid leaves a valid checkpoint; resuming
        recomputes only the missing cells and matches the full run."""
        model, memory, images, labels, config = campaign_parts
        full = run_campaign(model, memory, images, labels, config)
        path = tmp_path / "sweep.jsonl"
        kill_at = 5

        class _Kill(RuntimeError):
            pass

        def killer(cell):
            if cell.completed == kill_at:
                raise _Kill("simulated crash")

        with pytest.raises(_Kill):
            run_campaign(
                model, memory, images, labels, config,
                progress=killer, checkpoint=str(path),
            )
        saved = len(journal_cells(path))
        assert 0 < saved < len(RATES) * config.trials

        recomputed = []
        resumed = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path),
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint else None,
        )
        assert len(recomputed) == len(RATES) * config.trials - saved
        np.testing.assert_array_equal(full.accuracies, resumed.accuracies)

    def test_serial_kill_then_parallel_resume(self, campaign_parts, tmp_path):
        model, memory, images, labels, config = campaign_parts
        full = run_campaign(model, memory, images, labels, config)
        path = tmp_path / "sweep.jsonl"

        class _Kill(RuntimeError):
            pass

        def killer(cell):
            if cell.completed == 4:
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign(
                model, memory, images, labels, config,
                progress=killer, checkpoint=str(path),
            )
        resumed = run_campaign(
            model, memory, images, labels, config,
            workers=2, checkpoint=str(path),
        )
        np.testing.assert_array_equal(full.accuracies, resumed.accuracies)

    def test_weights_intact_after_kill(self, campaign_parts, tmp_path):
        model, memory, images, labels, config = campaign_parts
        before = memory.snapshot()

        class _Kill(RuntimeError):
            pass

        def killer(cell):
            raise _Kill

        with pytest.raises(_Kill):
            run_campaign(
                model, memory, images, labels, config,
                progress=killer, checkpoint=str(tmp_path / "s.jsonl"),
            )
        for old, new in zip(before, memory.snapshot()):
            np.testing.assert_array_equal(old, new)


class TestCrossCampaignScheduling:
    """run_tasks: cells from several campaigns through one scheduling pass."""

    def _tasks(self, campaign_parts):
        """Two campaigns over the same model: full memory and a layer slice."""
        from repro.core.baselines import ecc_sampler

        model, memory, images, labels, config = campaign_parts
        scoped = WeightMemory.from_model(model, layers=["FC-1"])
        return [
            WeightFaultCellTask(
                model, memory, images, labels, config=config, label="full"
            ),
            WeightFaultCellTask(
                model, scoped, images, labels, config=config,
                sampler=ecc_sampler(), label="fc1-ecc",
            ),
        ]

    def test_serial_matches_back_to_back_campaigns(self, campaign_parts):
        """run_tasks with workers=1 is exactly the historical sequential
        per-campaign loops."""
        from repro.core.baselines import ecc_sampler

        model, memory, images, labels, config = campaign_parts
        scoped = WeightMemory.from_model(model, layers=["FC-1"])
        baseline_full = run_campaign(model, memory, images, labels, config)
        baseline_scoped = run_campaign(
            model, scoped, images, labels, config, sampler=ecc_sampler()
        )

        curves = CampaignExecutor(workers=1).run_tasks(self._tasks(campaign_parts))
        np.testing.assert_array_equal(curves[0].accuracies, baseline_full.accuracies)
        np.testing.assert_array_equal(
            curves[1].accuracies, baseline_scoped.accuracies
        )
        assert curves[0].label == "full" and curves[1].label == "fc1-ecc"

    def test_shared_pool_bit_identical_to_serial(self, campaign_parts):
        serial = CampaignExecutor(workers=1).run_tasks(self._tasks(campaign_parts))
        pooled = CampaignExecutor(workers=2, chunk_size=2).run_tasks(
            self._tasks(campaign_parts)
        )
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.accuracies, b.accuracies)
            assert a.clean_accuracy == b.clean_accuracy

    def test_mixed_campaign_kinds_share_one_sweep(self, campaign_parts):
        """Weight-fault and quantized tasks can interleave in one pool."""
        from repro.core.quantized import QuantizedCellTask, run_quantized_campaign

        model, memory, images, labels, config = campaign_parts
        tasks = [
            WeightFaultCellTask(
                model, memory, images, labels, config=config, label="float32"
            ),
            QuantizedCellTask(model, memory, images, labels, config, label="int8"),
        ]
        float_baseline = run_campaign(model, memory, images, labels, config)
        int8_baseline = run_quantized_campaign(model, memory, images, labels, config)
        curves = CampaignExecutor(workers=2).run_tasks(tasks)
        np.testing.assert_array_equal(
            curves[0].accuracies, float_baseline.accuracies
        )
        np.testing.assert_array_equal(curves[1].accuracies, int8_baseline.accuracies)

    def test_single_pool_for_all_tasks(self, campaign_parts, monkeypatch):
        """The whole point of run_tasks: one pool, not one per campaign."""
        import repro.core.executor as executor_module

        created = []
        real_pool = executor_module.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            created.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", counting_pool)
        CampaignExecutor(workers=2).run_tasks(self._tasks(campaign_parts))
        assert len(created) == 1

    def test_progress_labels_cells_by_campaign(self, campaign_parts):
        seen: list[CellResult] = []
        CampaignExecutor(workers=1, progress=seen.append).run_tasks(
            self._tasks(campaign_parts)
        )
        per_task = len(RATES) * campaign_parts[4].trials
        assert len(seen) == 2 * per_task
        assert all(c.total == 2 * per_task for c in seen)
        assert [c.completed for c in seen] == list(range(1, 2 * per_task + 1))
        assert {c.campaign_label for c in seen} == {"full", "fc1-ecc"}
        assert {c.campaign_index for c in seen} == {0, 1}

    def test_cross_campaign_checkpoint_resume(self, campaign_parts, tmp_path):
        """Kill a multi-campaign sweep mid-way through the *second*
        campaign; the resume recomputes only what is missing."""
        full = CampaignExecutor(workers=1).run_tasks(self._tasks(campaign_parts))
        path = tmp_path / "multi.jsonl"
        per_task = len(RATES) * campaign_parts[4].trials

        class _Kill(RuntimeError):
            pass

        def killer(cell):
            if cell.completed == per_task + 3:  # inside campaign #2
                raise _Kill

        with pytest.raises(_Kill):
            CampaignExecutor(
                workers=1, progress=killer, checkpoint=str(path)
            ).run_tasks(self._tasks(campaign_parts))
        saved = len(journal_cells(path))
        assert per_task < saved < 2 * per_task

        recomputed = []
        resumed = CampaignExecutor(
            workers=1, checkpoint=str(path),
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint else None,
        ).run_tasks(self._tasks(campaign_parts))
        assert len(recomputed) == 2 * per_task - saved
        # Everything recomputed belongs to the killed second campaign.
        assert {c.campaign_index for c in recomputed} == {1}
        for a, b in zip(full, resumed):
            np.testing.assert_array_equal(a.accuracies, b.accuracies)

    def test_cross_campaign_checkpoint_resumes_in_parallel(
        self, campaign_parts, tmp_path
    ):
        full = CampaignExecutor(workers=1).run_tasks(self._tasks(campaign_parts))
        path = tmp_path / "multi.jsonl"

        class _Kill(RuntimeError):
            pass

        def killer(cell):
            if cell.completed == 3:
                raise _Kill

        with pytest.raises(_Kill):
            CampaignExecutor(
                workers=1, progress=killer, checkpoint=str(path)
            ).run_tasks(self._tasks(campaign_parts))
        resumed = CampaignExecutor(workers=2, checkpoint=str(path)).run_tasks(
            self._tasks(campaign_parts)
        )
        for a, b in zip(full, resumed):
            np.testing.assert_array_equal(a.accuracies, b.accuracies)

    def test_multi_checkpoint_rejects_single_campaign(
        self, campaign_parts, tmp_path
    ):
        """A cross-campaign checkpoint can't resume a single-campaign
        sweep (and vice versa): the fingerprint layouts differ."""
        path = tmp_path / "multi.jsonl"
        CampaignExecutor(workers=1, checkpoint=str(path)).run_tasks(
            self._tasks(campaign_parts)
        )
        model, memory, images, labels, config = campaign_parts
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(model, memory, images, labels, config, checkpoint=str(path))

    def test_multi_checkpoint_rejects_reordered_tasks(
        self, campaign_parts, tmp_path
    ):
        path = tmp_path / "multi.jsonl"
        CampaignExecutor(workers=1, checkpoint=str(path)).run_tasks(
            self._tasks(campaign_parts)
        )
        reordered = list(reversed(self._tasks(campaign_parts)))
        with pytest.raises(ValueError, match="different campaign"):
            CampaignExecutor(workers=1, checkpoint=str(path)).run_tasks(reordered)

    def test_empty_task_list(self):
        assert CampaignExecutor(workers=2).run_tasks([]) == []


class TestWarmPool:
    def test_persistent_executor_reuses_one_pool(self, campaign_parts, monkeypatch):
        """Back-to-back run_tasks calls on a persistent executor share one
        warm pool; results stay bit-identical to one-shot executors."""
        import repro.core.executor as executor_module

        created = []
        real_pool = executor_module.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            created.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", counting_pool)
        model, memory, images, labels, config = campaign_parts
        baseline = run_campaign(model, memory, images, labels, config)
        with CampaignExecutor(workers=2, persistent=True) as executor:
            for _ in range(3):
                curve = executor.run(
                    FaultInjectionCampaign(model, memory, images, labels, config)
                )
                np.testing.assert_array_equal(curve.accuracies, baseline.accuracies)
        assert len(created) == 1

    def test_close_is_idempotent_and_allows_reuse(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        executor = CampaignExecutor(workers=2, persistent=True)
        first = executor.run(
            FaultInjectionCampaign(model, memory, images, labels, config)
        )
        executor.close()
        executor.close()
        # A fresh pool is built transparently after close.
        second = executor.run(
            FaultInjectionCampaign(model, memory, images, labels, config)
        )
        executor.close()
        np.testing.assert_array_equal(first.accuracies, second.accuracies)

    def test_prepickled_payloads_skip_reserialization(
        self, campaign_parts, monkeypatch
    ):
        """run_tasks(payloads=...) must use the given packed units
        verbatim, and refuses anything that is not a PackedUnit."""
        import pickle

        import repro.core.executor as executor_module
        from repro.utils.shm import pack_object

        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        unit = pack_object(task)
        monkeypatch.setattr(
            executor_module,
            "_pack_task",
            lambda task: pytest.fail("pre-packed task was re-serialized"),
        )
        baseline = run_campaign(model, memory, images, labels, config)
        curve = CampaignExecutor(workers=2).run_tasks([task], payloads=[unit])[0]
        np.testing.assert_array_equal(curve.accuracies, baseline.accuracies)
        with pytest.raises(TypeError, match="PackedUnit"):
            CampaignExecutor(workers=2).run_tasks(
                [task], payloads=[pickle.dumps(task)]
            )

    def test_payloads_length_mismatch_rejected(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        with pytest.raises(ValueError, match="payloads"):
            CampaignExecutor(workers=2).run_tasks([task], payloads=[])


class TestExecutorValidation:
    def test_negative_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            CampaignExecutor(chunk_size=-1)

    def test_sampler_classes_are_picklable(self):
        import pickle

        from repro.core.baselines import dmr_sampler, ecc_sampler, tmr_sampler
        from repro.core.campaign import fault_model_sampler, random_bitflip_sampler
        from repro.hw.faultmodels import RandomBitFlip

        for sampler in (
            random_bitflip_sampler(),
            fault_model_sampler(RandomBitFlip),
            ecc_sampler(),
            tmr_sampler(),
            dmr_sampler(),
        ):
            assert isinstance(pickle.loads(pickle.dumps(sampler)), type(sampler))

    def test_default_sampler_is_random_bitflip(self):
        from repro.core.campaign import random_bitflip_sampler

        assert isinstance(random_bitflip_sampler(), RandomBitFlipSampler)


class _ExplodingSampler:
    """Picklable sampler that blows up inside a worker's run_cell."""

    def __call__(self, memory, rate, rng):
        raise RuntimeError("boom in worker")


def _tracking_shm(monkeypatch):
    """Wrap SharedMemory so every create/unlink is recorded parent-side."""
    import repro.utils.shm as shm_module

    real = shm_module._shared_memory
    created, unlinked = [], []

    class TrackingSharedMemory(real.SharedMemory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self.name)

        def unlink(self):
            unlinked.append(self.name)
            super().unlink()

    class TrackingModule:
        SharedMemory = TrackingSharedMemory

    monkeypatch.setattr(shm_module, "_shared_memory", TrackingModule)
    return created, unlinked


class TestSegmentCleanup:
    """Shm segments must be unlinked no matter how the sweep ends."""

    def test_normal_run_releases_every_segment(self, campaign_parts, monkeypatch):
        from repro.utils.shm import shared_memory_available

        if not shared_memory_available():  # pragma: no cover
            pytest.skip("platform without shared memory")
        created, unlinked = _tracking_shm(monkeypatch)
        model, memory, images, labels, config = campaign_parts
        run_campaign(model, memory, images, labels, config, workers=2)
        assert created, "parallel run did not use shared memory"
        assert sorted(created) == sorted(unlinked)

    def test_worker_exception_still_unlinks(self, campaign_parts, monkeypatch):
        created, unlinked = _tracking_shm(monkeypatch)
        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(
            model, memory, images, labels, config=config,
            sampler=_ExplodingSampler(),
        )
        with pytest.raises(RuntimeError, match="boom in worker"):
            CampaignExecutor(workers=2).run_tasks([task])
        assert created, "parallel run did not use shared memory"
        assert sorted(created) == sorted(unlinked)

    def test_parent_interrupt_still_unlinks(self, campaign_parts, monkeypatch):
        """A KeyboardInterrupt mid-sweep must not leak the segment."""
        created, unlinked = _tracking_shm(monkeypatch)
        model, memory, images, labels, config = campaign_parts

        def interrupt(result):
            raise KeyboardInterrupt

        executor = CampaignExecutor(workers=2, progress=interrupt)
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        with pytest.raises(KeyboardInterrupt):
            executor.run_tasks([task])
        assert created, "parallel run did not use shared memory"
        assert sorted(created) == sorted(unlinked)


class TestZeroCopyFallbackMatrix:
    """Shared memory unavailable and the suffix budget exceeded must both
    be bit-identical to the mapped path."""

    def _parallel(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        return run_campaign(model, memory, images, labels, config, workers=2)

    @pytest.fixture
    def baseline(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        return run_campaign(model, memory, images, labels, config)

    def test_zero_copy_views_bit_identical(self, campaign_parts, baseline):
        curve = self._parallel(campaign_parts)
        np.testing.assert_array_equal(curve.accuracies, baseline.accuracies)

    def test_shm_unavailable_bit_identical(self, campaign_parts, baseline, monkeypatch):
        import repro.utils.shm as shm_module

        monkeypatch.setattr(shm_module, "_shared_memory", None)
        curve = self._parallel(campaign_parts)
        np.testing.assert_array_equal(curve.accuracies, baseline.accuracies)

    def test_suffix_budget_exhausted_bit_identical(
        self, campaign_parts, baseline, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SUFFIX_BUDGET_MB", "0")
        curve = self._parallel(campaign_parts)
        np.testing.assert_array_equal(curve.accuracies, baseline.accuracies)


class TestWorkerPlaneWiring:
    """In-process exercise of the worker-side plane machinery."""

    def test_worker_runner_maps_views_and_shared_cache(self, campaign_parts):
        import repro.core.executor as executor_module
        from repro.core.executor import (
            _export_suffix_caches,
            _init_worker,
            _run_task_cells,
        )
        from repro.utils.shm import pack_object, ship_units, shared_memory_available

        if not shared_memory_available():  # pragma: no cover
            pytest.skip("platform without shared memory")
        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        unit = pack_object(task)
        pending = [[(0, 0)]]
        caches = _export_suffix_caches([task], pending)
        shipment = ship_units(
            [("task/0", unit)]
            + [(f"suffix/{i}", u) for i, u in caches.items()]
        )
        baseline = task.make_runner()
        try:
            expected = baseline.run_cell(0, 0)
        finally:
            baseline.close()
        saved_state = executor_module._WORKER_STATE
        # _init_worker caps BLAS threads; this process is not a worker,
        # so its count is restored below.
        saved_threads = blas_threads()
        try:
            _init_worker(1)
            results = _run_task_cells(shipment.ref, (0, 1), 0, [(0, 0, 0)])
            assert results == [(0, 0, 0, expected)]
            state = executor_module._WORKER_STATE
            runner = state["runner"]
            # The worker's engine attached the published clean pass...
            assert runner.engine is not None
            assert runner.engine.stats["from_shared_cache"] is True
            # ...and its model is mapped, not copied: exactly the
            # regions the cell's fault set wrote were privatized.
            from repro.hw.injector import FaultInjector
            from repro.utils.rng import SeedTree

            rng = SeedTree(config.seed).generator(cell_seed_path(0, 0))
            fault_set = task.sampler(memory, float(config.fault_rates[0]), rng)
            affected = set(FaultInjector(memory).affected_layers(fault_set))
            writable = {
                r.layer_name
                for r in runner.task.memory.regions
                if r.parameter.data.flags.writeable
            }
            assert writable == affected
            assert not runner.task.images.flags.writeable
            runner.close()
            state["runner"] = None
            # Drop every view-holding reference before the detach, as
            # the worker loop does (runner first, then the old plane).
            del runner
            state["view"].close()
        finally:
            executor_module._WORKER_STATE = saved_state
            if saved_threads is not None:
                set_blas_threads(saved_threads)
            shipment.release()

class TestSupervisionPolicy:
    def test_defaults(self):
        policy = SupervisionPolicy()
        assert policy.max_retries == 2
        assert policy.cell_timeout is None
        assert policy.on_cell_error == "abort"

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="cell_timeout"):
            SupervisionPolicy(cell_timeout=0)
        with pytest.raises(ValueError, match="on_cell_error"):
            SupervisionPolicy(on_cell_error="explode")
        with pytest.raises(ValueError, match="retry_backoff"):
            SupervisionPolicy(retry_backoff=-0.1)
        with pytest.raises(ValueError, match="max_pool_rebuilds"):
            SupervisionPolicy(max_pool_rebuilds=-1)

    def test_from_env_and_explicit_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_ON_CELL_ERROR", "quarantine")
        policy = SupervisionPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.cell_timeout == 1.5
        assert policy.on_cell_error == "quarantine"
        # Explicit arguments beat the environment, knob by knob.
        mixed = SupervisionPolicy.from_env(max_retries=1, on_cell_error="retry")
        assert mixed.max_retries == 1
        assert mixed.cell_timeout == 1.5
        assert mixed.on_cell_error == "retry"

    @pytest.mark.parametrize(
        "name, value",
        [("REPRO_MAX_RETRIES", "two"), ("REPRO_CELL_TIMEOUT", "5s")],
    )
    def test_env_misparse_names_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name} must be .*'{value}'"):
            SupervisionPolicy.from_env()

    def test_backoff_is_deterministic_and_capped(self):
        policy = SupervisionPolicy(retry_backoff=0.1)
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.4)
        assert policy.backoff_seconds(7) == policy.backoff_seconds(50)
        assert SupervisionPolicy(retry_backoff=0.0).backoff_seconds(3) == 0.0

    def test_policy_and_shorthand_knobs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            CampaignExecutor(supervision=SupervisionPolicy(), max_retries=1)

    def test_executor_shorthand_resolves_policy(self):
        executor = CampaignExecutor(
            max_retries=7, cell_timeout=2.0, on_cell_error="quarantine"
        )
        assert executor.supervision.max_retries == 7
        assert executor.supervision.cell_timeout == 2.0
        assert executor.supervision.on_cell_error == "quarantine"


class TestChaosSupervision:
    """The tentpole guarantee under deterministic fault injection:
    disturbed runs either *recover bit-identically* (retry succeeds) or
    *quarantine* the failing cell as a ``failed`` outcome — never hang,
    never silently corrupt the grid."""

    @pytest.fixture
    def baseline(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        return run_campaign(model, memory, images, labels, config)

    def _run(self, campaign_parts, workers, **executor_kwargs):
        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        executor = CampaignExecutor(workers=workers, **executor_kwargs)
        result = executor.run_tasks([task])[0]
        return result, executor

    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_exceptions_retry_bit_identical(
        self, campaign_parts, baseline, monkeypatch, workers
    ):
        """Every cell's first dispatch raises; the retry succeeds and the
        recovered grid is bit-identical to the undisturbed run."""
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=1")
        result, executor = self._run(
            campaign_parts, workers, on_cell_error="retry"
        )
        np.testing.assert_array_equal(result.accuracies, baseline.accuracies)
        assert executor.quarantined == []

    def test_worker_kill_recovers_bit_identical_without_leaks(
        self, campaign_parts, baseline, monkeypatch
    ):
        """Satellite 2: a worker SIGKILLed mid-cell breaks the whole pool;
        the executor rebuilds it, re-dispatches only the in-flight cells,
        reproduces the exact grid, and unlinks every shm segment."""
        from repro.utils.shm import shared_memory_available

        if not shared_memory_available():  # pragma: no cover
            pytest.skip("platform without shared memory")
        created, unlinked = _tracking_shm(monkeypatch)
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill=1,attempts=1,cell=0:1")
        result, executor = self._run(
            campaign_parts, 2, on_cell_error="retry"
        )
        np.testing.assert_array_equal(result.accuracies, baseline.accuracies)
        assert executor.quarantined == []
        assert created, "parallel run did not use shared memory"
        assert sorted(created) == sorted(unlinked)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_policy_aborts_on_injected_exception(
        self, campaign_parts, monkeypatch, workers
    ):
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=99,cell=0:1")
        with pytest.raises(ChaosError, match="injected failure"):
            self._run(campaign_parts, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_persistent_exception_quarantines_cell(
        self, campaign_parts, baseline, monkeypatch, workers
    ):
        """A cell that fails on every attempt is quarantined as a
        ``failed`` outcome after max_retries; the rest of the grid
        completes bit-identically."""
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=99,cell=0:1")
        result, executor = self._run(
            campaign_parts, workers, on_cell_error="retry", max_retries=1
        )
        assert len(executor.quarantined) == 1
        record = executor.quarantined[0]
        assert record["reason"] == "exception"
        assert (record["rate_index"], record["trial"]) == (0, 1)
        assert record["attempts"] == 2  # initial dispatch + one retry
        assert "injected failure" in record["error"]
        assert np.isnan(result.accuracies[0, 1])
        mask = np.ones_like(result.accuracies, dtype=bool)
        mask[0, 1] = False
        np.testing.assert_array_equal(
            result.accuracies[mask], baseline.accuracies[mask]
        )

    def test_timeout_quarantines_stalled_cell(
        self, campaign_parts, baseline, monkeypatch
    ):
        """A cell exceeding --cell-timeout is quarantined as a failed
        outcome instead of hanging or crashing the campaign."""
        monkeypatch.setenv(
            CHAOS_ENV_VAR, "delay=1,delay_seconds=30,attempts=99,cell=0:1"
        )
        result, executor = self._run(
            campaign_parts, 2,
            supervision=SupervisionPolicy(
                max_retries=0, cell_timeout=0.75, on_cell_error="retry"
            ),
        )
        assert [
            (r["reason"], r["rate_index"], r["trial"])
            for r in executor.quarantined
        ] == [("timeout", 0, 1)]
        assert np.isnan(result.accuracies[0, 1])
        mask = np.ones_like(result.accuracies, dtype=bool)
        mask[0, 1] = False
        np.testing.assert_array_equal(
            result.accuracies[mask], baseline.accuracies[mask]
        )

    def test_repeated_pool_loss_degrades_to_serial(
        self, campaign_parts, baseline, monkeypatch
    ):
        """Past max_pool_rebuilds the executor stops thrashing and runs
        the remaining cells serially in-process — still bit-identical."""
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill=1,attempts=1")
        policy = SupervisionPolicy(max_pool_rebuilds=0, on_cell_error="retry")
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            result, executor = self._run(
                campaign_parts, 2, supervision=policy
            )
        np.testing.assert_array_equal(result.accuracies, baseline.accuracies)
        assert executor.quarantined == []

    def test_in_process_lane_enforces_no_timeout(
        self, campaign_parts, baseline, monkeypatch
    ):
        """An in-process cell cannot be preempted: a stall longer than
        cell_timeout completes instead of being quarantined."""
        monkeypatch.setenv(
            CHAOS_ENV_VAR, "delay=1,delay_seconds=0.2,attempts=99,cell=0:1"
        )
        result, executor = self._run(
            campaign_parts, 1,
            supervision=SupervisionPolicy(
                max_retries=0, cell_timeout=0.01, on_cell_error="retry"
            ),
        )
        np.testing.assert_array_equal(result.accuracies, baseline.accuracies)
        assert executor.quarantined == []

    def test_serial_run_builds_each_runner_once(
        self, campaign_parts, monkeypatch
    ):
        """The in-process lane keeps one runner per task for the whole
        pass: a fault-free serial sweep calls make_runner once per task."""
        built = []
        real = WeightFaultCellTask.make_runner

        def counting(task):
            built.append(task.label)
            return real(task)

        monkeypatch.setattr(WeightFaultCellTask, "make_runner", counting)
        model, memory, images, labels, config = campaign_parts
        tasks = [
            WeightFaultCellTask(
                model, memory, images, labels, config=config, label=name
            )
            for name in ("first", "second")
        ]
        CampaignExecutor(workers=1).run_tasks(tasks)
        assert built == ["first", "second"]


class TestInterruptFlush:
    """Ctrl-C mid-run loses nothing: every cell recorded before the
    KeyboardInterrupt is already in the journal, so every completed
    cell survives into the resume."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keyboard_interrupt_flushes_checkpoint(
        self, campaign_parts, tmp_path, workers
    ):
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"
        stop_at = 3

        def interrupt(cell):
            if cell.completed >= stop_at and not cell.from_checkpoint:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                model, memory, images, labels, config,
                workers=workers, progress=interrupt, checkpoint=str(path),
            )
        saved = journal_cells(path)
        assert len(saved) >= stop_at
        full = run_campaign(model, memory, images, labels, config)
        resumed = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        np.testing.assert_array_equal(full.accuracies, resumed.accuracies)


class TestChaosCheckpointResume:
    """Satellite 3: interrupt a chaos-disturbed, checkpointed run, then
    resume it (chaos still active) — the final grid and the adaptive
    stopping decisions are identical to an undisturbed run."""

    def test_exact_grid_resumes_bit_identical(
        self, campaign_parts, tmp_path, monkeypatch
    ):
        model, memory, images, labels, config = campaign_parts
        undisturbed = run_campaign(model, memory, images, labels, config)
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=1")
        task = WeightFaultCellTask(model, memory, images, labels, config=config)

        def interrupt(cell):
            if cell.completed == 5 and not cell.from_checkpoint:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            CampaignExecutor(
                workers=2, progress=interrupt, checkpoint=str(path),
                on_cell_error="retry",
            ).run_tasks([task])
        assert journal_cells(path)
        resumed = CampaignExecutor(
            workers=2, checkpoint=str(path), on_cell_error="retry"
        ).run_tasks([task])[0]
        np.testing.assert_array_equal(
            resumed.accuracies, undisturbed.accuracies
        )

    def test_adaptive_stopping_decisions_survive_chaos_resume(
        self, campaign_parts, tmp_path, monkeypatch
    ):
        from repro.core.batched import AdaptiveCampaignTask

        model, memory, images, labels, config = campaign_parts

        def adaptive_task():
            base = WeightFaultCellTask(
                model, memory, images, labels, config=config
            )
            return AdaptiveCampaignTask(base, ci_halfwidth=0.08, batch_k=2)

        undisturbed = CampaignExecutor().run_tasks([adaptive_task()])[0]
        path = tmp_path / "adaptive.jsonl"
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=1")

        def interrupt(cell):
            if cell.completed == 1 and not cell.from_checkpoint:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            CampaignExecutor(
                workers=2, progress=interrupt, checkpoint=str(path),
                on_cell_error="retry",
            ).run_tasks([adaptive_task()])
        assert journal_cells(path)
        resumed = CampaignExecutor(
            workers=2, checkpoint=str(path), on_cell_error="retry"
        ).run_tasks([adaptive_task()])[0]
        np.testing.assert_array_equal(resumed.executed, undisturbed.executed)
        np.testing.assert_array_equal(
            resumed.accuracies, undisturbed.accuracies
        )
        np.testing.assert_array_equal(
            resumed.estimates, undisturbed.estimates
        )


class _ConstantTask:
    """A picklable task whose cells cost nothing: journal cost alone."""

    kind = "constant"
    label = ""
    cell_width = 1

    def __init__(self, n_rates: int, trials: int):
        rates = [10.0 ** (-8 + 4 * i / n_rates) for i in range(n_rates)]
        self.config = CampaignConfig(fault_rates=rates, trials=trials)

    def make_runner(self):
        return _ConstantRunner()

    def build_result(self, rates, values):
        return values


class _ConstantRunner:
    def run_cell(self, rate_index: int, trial: int) -> float:
        return rate_index + trial / 1024.0

    def close(self) -> None:
        pass


class TestCheckpointJournal:
    """The checkpoint is an append-only JSONL journal: constant cost per
    cell, torn-tail tolerant, and it refuses the old JSON format."""

    def _run(self, campaign_parts, path, progress=None, **kwargs):
        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        executor = CampaignExecutor(checkpoint=path, progress=progress, **kwargs)
        return executor.run_tasks([task])[0]

    def test_five_thousand_cells_write_and_resume_under_a_second(
        self, tmp_path
    ):
        import time

        task = _ConstantTask(n_rates=50, trials=100)
        path = tmp_path / "big.jsonl"
        replayed: list[CellResult] = []
        start = time.perf_counter()
        written = CampaignExecutor(checkpoint=path).run_tasks([task])[0]
        resumed = CampaignExecutor(
            checkpoint=path, progress=replayed.append
        ).run_tasks([task])[0]
        elapsed = time.perf_counter() - start
        assert len(journal_cells(path)) == 5000
        assert len(replayed) == 5000
        assert all(cell.from_checkpoint for cell in replayed)
        np.testing.assert_array_equal(written, resumed)
        assert elapsed < 1.0, f"5,000-cell journal took {elapsed:.2f}s"

    def test_torn_last_line_is_recomputed_byte_identically(
        self, campaign_parts, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        full = self._run(campaign_parts, path)
        complete = path.read_bytes()
        last = complete.rstrip(b"\n").rsplit(b"\n", 1)[1]
        path.write_bytes(complete[: -len(last) // 2])  # died mid-append
        recomputed: list[CellResult] = []
        resumed = self._run(
            campaign_parts, path,
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint else None,
        )
        torn = tuple(json.loads(last)[1:3])
        assert [(c.rate_index, c.trial) for c in recomputed] == [torn]
        np.testing.assert_array_equal(full.accuracies, resumed.accuracies)
        assert path.read_bytes() == complete

    def test_version_3_json_checkpoint_refused(self, campaign_parts, tmp_path):
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.json"
        legacy = {
            "version": 3,
            "kind": "weight-fault",
            "seed": config.seed,
            "cells": {"0/0": 0.5},
        }
        path.write_text(json.dumps(legacy, indent=1))
        with pytest.raises(ValueError, match="version 3"):
            self._run(campaign_parts, path)
        assert json.loads(path.read_text()) == legacy  # left untouched

    def test_quarantined_cells_stay_out_and_resume_retries_them(
        self, campaign_parts, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=99,cell=0:1")
        self._run(campaign_parts, path, on_cell_error="quarantine")
        assert (0, 0, 1) not in journal_cells(path)
        monkeypatch.delenv(CHAOS_ENV_VAR)
        recomputed: list[CellResult] = []
        resumed = self._run(
            campaign_parts, path,
            progress=lambda cell: recomputed.append(cell)
            if not cell.from_checkpoint else None,
        )
        assert [(c.rate_index, c.trial) for c in recomputed] == [(0, 1)]
        model, memory, images, labels, config = campaign_parts
        baseline = run_campaign(model, memory, images, labels, config)
        np.testing.assert_array_equal(resumed.accuracies, baseline.accuracies)


class _BlasProbeTask(_ConstantTask):
    """Each cell reports the BLAS threads and pid of the process running it."""

    kind = "blas-probe"
    cell_width = 2

    def make_runner(self):
        return _BlasProbeRunner()


class _BlasProbeRunner(_ConstantRunner):
    def run_cell(self, rate_index: int, trial: int) -> "list[float]":
        threads = blas_threads()
        return [-1.0 if threads is None else float(threads), float(os.getpid())]


def _probe_pool(mp_context: "str | None" = None) -> "tuple[set[float], set[float]]":
    """(BLAS thread counts, pids) the cells of a 2-worker pooled probe saw."""
    grid = CampaignExecutor(workers=2, mp_context=mp_context).run_tasks(
        [_BlasProbeTask(n_rates=2, trials=4)]
    )[0]
    return set(grid[..., 0].ravel()), set(grid[..., 1].ravel())


class TestBlasBudget:
    """Each pool worker runs max(1, cpus // workers) BLAS threads, never
    more than it inherited; the parent keeps its own count."""

    @pytest.fixture
    def parent_threads(self):
        threads = blas_threads()
        if threads is None:  # pragma: no cover - numpy without OpenBLAS
            pytest.skip("no controllable OpenBLAS mapped")
        yield threads
        set_blas_threads(threads)

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_workers_run_their_share_of_the_cpus(self, parent_threads, mp_context):
        threads, pids = _probe_pool(mp_context)
        budget = max(1, resolve_workers(0) // 2)
        assert float(os.getpid()) not in pids
        assert threads == {float(min(parent_threads, budget))}

    def test_parent_count_unchanged_after_pooled_run(self, parent_threads):
        _probe_pool()
        assert blas_threads() == parent_threads

    def test_budget_never_raises_the_inherited_count(
        self, parent_threads, monkeypatch
    ):
        """A budget above the inherited count (as under a launch-time
        OPENBLAS_NUM_THREADS=1) leaves workers at the inherited count."""
        import repro.core.executor as executor_module

        monkeypatch.setattr(executor_module, "_blas_budget", lambda workers: 64)
        set_blas_threads(1)
        threads, _pids = _probe_pool("fork")
        assert threads == {1.0}

    @pytest.mark.parametrize("mapped", ["no-library", "no-known-setter"])
    def test_unknown_blas_keeps_the_pool_and_the_bytes(
        self, campaign_parts, monkeypatch, mapped
    ):
        """Where the helper finds nothing to set, workers start anyway:
        the run completes in the pool, bit-identical, without degrading."""
        import _ctypes

        import repro.utils.blas as blas_module

        # _ctypes is mapped in every process and exports no BLAS symbol;
        # forked workers inherit the patched lookup.
        paths = [] if mapped == "no-library" else [_ctypes.__file__]
        monkeypatch.setattr(blas_module, "_mapped_openblas", lambda: list(paths))
        threads, pids = _probe_pool("fork")
        assert threads == {-1.0}
        assert float(os.getpid()) not in pids
        model, memory, images, labels, config = campaign_parts
        serial = run_campaign(model, memory, images, labels, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled = run_campaign(model, memory, images, labels, config, workers=2)
        assert not [w for w in caught if "degrading" in str(w.message)]
        np.testing.assert_array_equal(serial.accuracies, pooled.accuracies)
