"""Tests for the parallel campaign executor.

The load-bearing guarantee is *bit-identical* results at any worker
count: per-cell seeds depend only on (campaign seed, rate index, trial
index), worker models are exact copies of the parent's weights, and the
accuracy grid is assembled by cell index, never by completion order.
"""

import json
import os
import re
import warnings

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignConfig,
    RandomBitFlipSampler,
    run_campaign,
)
from repro.core.chaos import CHAOS_ENV_VAR, ChaosError
from repro.core.executor import (
    CampaignExecutor,
    CellResult,
    SupervisionPolicy,
    WeightFaultCellTask,
    backoff_seconds,
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
        """Extreme chunking (one cell per task) must not change anything:
        12 cells over 3 workers make one-cell chunks."""
        model, memory, images, labels, config = campaign_parts
        serial = run_campaign(model, memory, images, labels, config)
        executor = CampaignExecutor(workers=3)
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        parallel = executor.run_tasks([task])[0]
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
        assert header["version"] == 5
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

    def test_unpicklable_task_refuses_to_checkpoint(
        self, campaign_parts, tmp_path
    ):
        """A journal fingerprints the campaign's pickled content; a task
        that cannot pickle has none, so checkpointing it is an error.
        Otherwise a no-fault closure campaign would replay the cells of a
        bit-flip closure campaign's journal."""
        model, memory, images, labels, config = campaign_parts
        path = tmp_path / "sweep.jsonl"

        def bit_flips(mem, rate, rng):  # closures cannot pickle
            return RandomBitFlipSampler()(mem, rate, rng)

        def no_faults(mem, rate, rng):
            return FaultSet.empty()

        for sampler in (bit_flips, no_faults):
            with pytest.raises(ValueError, match="must be picklable"):
                run_campaign(
                    model, memory, images, labels, config,
                    sampler=sampler, checkpoint=str(path),
                )
        assert not path.exists()


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
        pooled = CampaignExecutor(workers=2).run_tasks(
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

    def test_refusal_names_the_campaign_and_field_that_differ(
        self, campaign_parts, tmp_path
    ):
        """A refused journal names the first differing campaign and
        field, not every campaign's header."""
        import dataclasses

        from repro.core.baselines import ecc_sampler

        model, memory, images, labels, config = campaign_parts

        def tasks(middle_sampler=None):
            return [
                WeightFaultCellTask(
                    model, memory, images, labels,
                    config=dataclasses.replace(config, seed=seed),
                    sampler=sampler, label=label,
                )
                for seed, label, sampler in (
                    (1, "a", None), (2, "b", middle_sampler), (3, "c", None)
                )
            ]

        path = tmp_path / "multi.jsonl"
        CampaignExecutor(workers=1, checkpoint=str(path)).run_tasks(tasks())
        stored = json.loads(path.read_text().splitlines()[0])["campaigns"]
        assert len({campaign["campaign_crc"] for campaign in stored}) == 3
        with pytest.raises(ValueError, match="different campaign") as refused:
            CampaignExecutor(workers=1, checkpoint=str(path)).run_tasks(
                tasks(middle_sampler=ecc_sampler())
            )
        message = str(refused.value)
        assert "campaign 1 ('b')" in message
        assert "campaign_crc" in message
        assert stored[1]["campaign_crc"] in message
        for other in (stored[0], stored[2]):
            assert other["campaign_crc"] not in message
        assert "fault_rates" not in message

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
                task = WeightFaultCellTask(
                    model, memory, images, labels, config=config
                )
                curve = executor.run_tasks([task])[0]
                np.testing.assert_array_equal(curve.accuracies, baseline.accuracies)
        assert len(created) == 1

    def test_close_is_idempotent_and_allows_reuse(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        executor = CampaignExecutor(workers=2, persistent=True)
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        first = executor.run_tasks([task])[0]
        executor.close()
        executor.close()
        # A fresh pool is built transparently after close.
        second = executor.run_tasks([task])[0]
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
    def test_sampler_classes_are_picklable(self):
        import pickle

        from repro.core.baselines import dmr_sampler, ecc_sampler, tmr_sampler
        from repro.core.campaign import random_bitflip_sampler

        for sampler in (
            random_bitflip_sampler(),
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
    """An exceeded suffix budget is bit-identical to the cached path (the
    mapped and shared-memory-off paths are tests/test_conformance.py cases)."""

    def test_suffix_budget_exhausted_bit_identical(
        self, campaign_parts, monkeypatch
    ):
        model, memory, images, labels, config = campaign_parts
        baseline = run_campaign(model, memory, images, labels, config)
        monkeypatch.setenv("REPRO_SUFFIX_BUDGET_MB", "0")
        curve = run_campaign(model, memory, images, labels, config, workers=2)
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

    def test_backoff_is_deterministic_and_capped(self):
        assert backoff_seconds(0) == 0.0
        assert backoff_seconds(1) == pytest.approx(0.05)
        assert backoff_seconds(2) == pytest.approx(0.1)
        assert backoff_seconds(3) == pytest.approx(0.2)
        assert backoff_seconds(7) == backoff_seconds(50)


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
            campaign_parts, workers,
            supervision=SupervisionPolicy(on_cell_error="retry"),
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
            campaign_parts, 2,
            supervision=SupervisionPolicy(on_cell_error="retry"),
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
            campaign_parts, workers,
            supervision=SupervisionPolicy(on_cell_error="retry", max_retries=1),
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
        """Past MAX_POOL_REBUILDS the executor stops thrashing and runs
        the remaining cells serially in-process — still bit-identical."""
        import repro.core.executor as executor_module

        monkeypatch.setenv(CHAOS_ENV_VAR, "kill=1,attempts=1")
        monkeypatch.setattr(executor_module, "MAX_POOL_REBUILDS", 0)
        policy = SupervisionPolicy(on_cell_error="retry")
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
                supervision=SupervisionPolicy(on_cell_error="retry"),
            ).run_tasks([task])
        assert journal_cells(path)
        resumed = CampaignExecutor(
            workers=2, checkpoint=str(path),
            supervision=SupervisionPolicy(on_cell_error="retry"),
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
                supervision=SupervisionPolicy(on_cell_error="retry"),
            ).run_tasks([adaptive_task()])
        assert journal_cells(path)
        resumed = CampaignExecutor(
            workers=2, checkpoint=str(path),
            supervision=SupervisionPolicy(on_cell_error="retry"),
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


class _VectorTask(_ConstantTask):
    """A constant task whose cells hold ``width`` scalars."""

    def __init__(self, n_rates: int, trials: int, width: int):
        super().__init__(n_rates, trials)
        self.cell_width = width

    def make_runner(self):
        return _VectorRunner(self.cell_width)


class _VectorRunner(_ConstantRunner):
    def __init__(self, width: int):
        self.width = width

    def run_cell(self, rate_index: int, trial: int):
        value = super().run_cell(rate_index, trial)
        return value if self.width == 1 else [value] * self.width


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

    def test_refused_journal_keeps_its_torn_tail(self, tmp_path):
        """Only a journal whose header matches is trimmed: another
        sweep's journal is refused byte for byte as it was found."""
        path = tmp_path / "sweep.jsonl"
        CampaignExecutor(checkpoint=path).run_tasks(
            [_ConstantTask(n_rates=2, trials=2)]
        )
        with path.open("ab") as journal:
            journal.write(b"[0, 1")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="different campaign"):
            CampaignExecutor(checkpoint=path).run_tasks(
                [_ConstantTask(n_rates=2, trials=3)]
            )
        assert path.read_bytes() == before

    def test_quarantined_cells_stay_out_and_resume_retries_them(
        self, campaign_parts, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise=1,attempts=99,cell=0:1")
        self._run(
            campaign_parts, path,
            supervision=SupervisionPolicy(on_cell_error="quarantine"),
        )
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

    @pytest.mark.parametrize(
        "line",
        [b"[0, 0, 0.5", b"[0, 0, 0.5]", b'{"cell": [0, 0, 0, 0.5]}'],
        ids=["bad-json", "three-fields", "not-a-list"],
    )
    def test_malformed_line_before_the_torn_tail_names_file_and_line(
        self, tmp_path, line
    ):
        task = _ConstantTask(n_rates=2, trials=2)
        path = tmp_path / "sweep.jsonl"
        CampaignExecutor(checkpoint=path).run_tasks([task])
        header, first, *rest = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + first + line + b"\n" + b"".join(rest) + b"[0, 1")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            CampaignExecutor(checkpoint=path).run_tasks([task])

    @pytest.mark.parametrize(
        "task_width, value",
        [(3, [0.5]), (3, [0.1, 0.2, 0.3, 0.4, 0.5]), (3, 0.5), (1, [0.5])],
        ids=["short-list", "long-list", "number-for-width-3", "list-for-width-1"],
    )
    def test_value_of_the_wrong_width_is_refused(
        self, tmp_path, task_width, value
    ):
        """A line ``[0, 1, 0, 0.5]`` of a width-3 task used to resume as
        the finished cell ``[0.5, 0.5, 0.5]`` (an adaptive family with
        estimate 0.5 and no executed trials), and a five-number list
        raised a bare numpy broadcast error naming neither file nor line."""
        task = _VectorTask(n_rates=2, trials=2, width=task_width)
        path = tmp_path / "sweep.jsonl"
        CampaignExecutor(checkpoint=path).run_tasks([task])
        keep_journal_cells(path, lambda key: key[1:] != (1, 0))
        with path.open("a") as journal:
            journal.write(json.dumps([0, 1, 0, value]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: ")):
            CampaignExecutor(checkpoint=path).run_tasks([task])

    @pytest.mark.parametrize(
        "cell",
        [[-1, 0, 0, 0.123], [2, 0, 0, 0.123], [1, 2, 0, 0.123],
         [1, 0, -1, 0.123], [1, 0, 1.0, 0.123], [1, True, 0, 0.123],
         [1, 0, 0, "0.123"], [1, 0, 0, []]],
        ids=["task-1", "task2", "rate2", "trial-1", "float-trial", "bool-rate",
             "string-value", "empty-value"],
    )
    def test_cell_outside_the_header_grid_is_refused(self, tmp_path, cell):
        """A line ``[-1, 0, 0, v]`` used to resume as the last task's
        cell (0, 0), which was then never recomputed."""
        tasks = [_ConstantTask(n_rates=2, trials=2) for _ in range(2)]
        path = tmp_path / "sweep.jsonl"
        CampaignExecutor(checkpoint=path).run_tasks(tasks)
        keep_journal_cells(path, lambda key: key[0] == 0)
        with path.open("a") as journal:
            journal.write(json.dumps(cell) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:6: ")):
            CampaignExecutor(checkpoint=path).run_tasks(tasks)


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


def _probe_pool() -> "tuple[set[float], set[float]]":
    """(BLAS thread counts, pids) the cells of a 2-worker pooled probe saw."""
    grid = CampaignExecutor(workers=2).run_tasks(
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

    def test_workers_run_their_share_of_the_cpus(self, parent_threads):
        threads, pids = _probe_pool()
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
        threads, _pids = _probe_pool()
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
        threads, pids = _probe_pool()
        assert threads == {-1.0}
        assert float(os.getpid()) not in pids
        model, memory, images, labels, config = campaign_parts
        serial = run_campaign(model, memory, images, labels, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled = run_campaign(model, memory, images, labels, config, workers=2)
        assert not [w for w in caught if "degrading" in str(w.message)]
        np.testing.assert_array_equal(serial.accuracies, pooled.accuracies)


class TestCleanAccuracyFromCleanPass:
    """A task's clean accuracy comes from the clean pass its runner's
    suffix engine already ran, so the parent runs no further full
    forward (``nn.Sequential.forward``) for ``build_result``."""

    @pytest.fixture
    def forwards(self, monkeypatch):
        from repro import nn

        calls = []
        forward = nn.Sequential.forward

        def counting(module, x):
            calls.append(x.shape[0])
            return forward(module, x)

        monkeypatch.setattr(nn.Sequential, "forward", counting)
        return calls

    def test_serial_run_absorbs_the_lane_runners_clean_pass(
        self, campaign_parts, forwards
    ):
        from repro.core.metrics import evaluate_accuracy_arrays

        model, memory, images, labels, config = campaign_parts
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        curve = CampaignExecutor(workers=1).run_tasks([task])[0]
        assert forwards == []
        assert curve.clean_accuracy == evaluate_accuracy_arrays(
            model, images, labels, config.batch_size
        )

    def test_run_campaign_runs_no_extra_clean_forward(
        self, campaign_parts, forwards, monkeypatch
    ):
        """The campaign's clean accuracy is the engine's clean pass too:
        the parent commit ran one more full forward over the eval set
        before the sweep started."""
        from repro import nn
        from repro.core.metrics import evaluate_accuracy_arrays

        model, memory, images, labels, _ = campaign_parts
        images, labels = images[:64], labels[:64]
        config = CampaignConfig(fault_rates=RATES, trials=2, seed=11, batch_size=32)
        collected = []
        collect = nn.Sequential.forward_collect

        def counting(module, x, *args, **kwargs):
            collected.append(x.shape[0])
            return collect(module, x, *args, **kwargs)

        monkeypatch.setattr(nn.Sequential, "forward_collect", counting)
        curve = run_campaign(model, memory, images, labels, config)
        assert (forwards, collected) == ([], [32, 32])
        assert curve.clean_accuracy == evaluate_accuracy_arrays(
            model, images, labels, config.batch_size
        )

    def test_pooled_adaptive_run_absorbs_the_exported_clean_pass(
        self, campaign_parts, forwards
    ):
        from repro.core.batched import AdaptiveCampaignTask
        from repro.core.metrics import evaluate_accuracy_arrays

        model, memory, images, labels, config = campaign_parts
        base = WeightFaultCellTask(model, memory, images, labels, config=config)
        task = AdaptiveCampaignTask(base, ci_halfwidth=0.08, batch_k=2)
        result = CampaignExecutor(workers=2).run_tasks([task])[0]
        assert forwards == []
        assert result.clean_accuracy == evaluate_accuracy_arrays(
            model, images, labels, config.batch_size
        )


class TestOneCleanPassPerDistinctForward:
    """Pooled tasks with the same clean forward share one parent-side
    clean pass and one set of plane buffers; the bytes do not move."""

    BATCHES = 2  # eval_images 32 at batch_size 16

    @pytest.fixture(scope="class")
    def ctx(self):
        from repro.scenarios import smoke_context

        return smoke_context()

    @staticmethod
    def _specs(*extra):
        from repro.scenarios import CampaignSpec

        common = dict(
            model="lenet5", rates=(1e-4, 1e-3), trials=2, eval_images=32,
            batch_size=16,
        )
        return [
            CampaignSpec(name="unprotected", seed=1, **common),
            CampaignSpec(name="ecc", variant="ecc", seed=2, **common),
            CampaignSpec(name="tmr", variant="tmr", seed=3, **common),
            CampaignSpec(
                name="burst", seed=4,
                fault_model={"name": "burst", "burst_length": 8}, **common,
            ),
            CampaignSpec(name="int8", campaign="quantized", seed=5, **common),
            CampaignSpec(name="relu6", variant="relu6", seed=6, **common),
            *(CampaignSpec(seed=7, **common, **fields) for fields in extra),
        ]

    @staticmethod
    def _count(monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counting(self, *args, **kwargs):
            calls.append(args[0].shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
        return calls

    def test_shared_forwards_run_once_and_store_bytes_match(
        self, ctx, tmp_path, monkeypatch
    ):
        from repro import nn
        from repro.scenarios import run_scenarios

        specs = self._specs()
        run_scenarios(specs, workers=1, out_dir=tmp_path / "serial", context=ctx)
        passes = self._count(monkeypatch, nn.Sequential, "forward_collect")
        run_scenarios(specs, workers=2, out_dir=tmp_path / "pool", context=ctx)
        # unprotected, ecc, tmr and burst share one forward; int8 and
        # relu6 each run their own (the parent commit ran all six).
        assert len(passes) == 3 * self.BATCHES
        store = "store/cells.rcs"
        assert (tmp_path / "pool" / store).read_bytes() == (
            tmp_path / "serial" / store
        ).read_bytes()

    def test_serial_tasks_on_one_clone_run_one_clean_pass(self, ctx, monkeypatch):
        """The in-process lane attaches the first runner's clean pass to
        later runners with the same key (the parent commit ran three)."""
        from repro import nn
        from repro.scenarios import run_scenarios

        specs = self._specs()[:3]  # unprotected, ecc and tmr
        alone = [run_scenarios([spec], workers=1, context=ctx)[0] for spec in specs]
        passes = self._count(monkeypatch, nn.Sequential, "forward_collect")
        shared = run_scenarios(specs, workers=1, context=ctx)
        assert len(passes) == self.BATCHES
        for left, right in zip(alone, shared):
            assert left.curve.clean_accuracy == right.curve.clean_accuracy
            np.testing.assert_array_equal(
                left.curve.accuracies, right.curve.accuracies
            )

    def test_a_cache_is_kept_only_for_unbuilt_queued_tasks(self, ctx):
        """A same-key cache is dropped once every queued task with the
        key is built: a task rebuilt later (a retried cell) or a lane
        that resumes after the pool finished the others keeps none."""
        from repro.core.executor import _CleanPasses
        from repro.scenarios.compile import compile_spec

        tasks = [compile_spec(spec, ctx) for spec in self._specs()[:3]]
        assert len({task.clean_pass_key() for task in tasks}) == 1

        def build(passes, index):
            passes.make_runner(index).close()
            return passes._kept

        passes = _CleanPasses(tasks, [0, 1, 2])
        assert build(passes, 0)
        assert build(passes, 1)
        assert not build(passes, 2)
        assert not build(passes, 0)  # a retried cell of task 0
        # Degraded after the pool ran tasks 1 and 2: nothing waits.
        assert not build(_CleanPasses(tasks, [0]), 0)

    def test_activation_task_takes_the_float_tasks_clean_logits(
        self, ctx, tmp_path, monkeypatch
    ):
        """LeNet-5's activation runner builds no engine (its first hooked
        layer is CONV-1), so its clean accuracy used to cost one more
        parent-side forward after the pool finished."""
        from repro import nn
        from repro.scenarios import run_scenarios

        specs = self._specs({"name": "activation", "campaign": "activation"})
        serial = run_scenarios(specs, workers=1, context=ctx)
        forwards = self._count(monkeypatch, nn.Sequential, "forward")
        at_dispatch_end = []
        dispatch = CampaignExecutor._dispatch

        def dispatching(self, *args):
            dispatch(self, *args)
            at_dispatch_end.append(len(forwards))

        monkeypatch.setattr(CampaignExecutor, "_dispatch", dispatching)
        pooled = run_scenarios(specs, workers=2, context=ctx)
        assert len(at_dispatch_end) == 1
        assert len(forwards) == at_dispatch_end[0]
        for left, right in zip(serial, pooled):
            assert left.curve.clean_accuracy == right.curve.clean_accuracy
            np.testing.assert_array_equal(
                left.curve.accuracies, right.curve.accuracies
            )
