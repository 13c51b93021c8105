"""Multi-host sharding: segmented runs, merge bit-identity, resume guards.

The tentpole contract under test: ``ShardPlan.split`` partitions a
suite's cell matrix into N self-contained shards, each executed into a
segmented run directory by :func:`run_scenario_shard`, and
:func:`merge_run` reassembles outputs **byte-identical** to the
unsharded :func:`run_scenarios` run — for any N, any shard completion
order, exact and adaptive mode, serial and 2-worker execution (per-cell
seeds depend only on ``(seed, rate, trial)``).

Also here: the result-writing bugfix sweep — duplicate-name rejection on
both ``run_scenarios`` input shapes, atomic ``write_results``, and
deterministic disambiguation of colliding file stems.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.executor import SupervisionPolicy
from repro.scenarios import (
    CampaignSpec,
    ScenarioContext,
    ScenarioResult,
    ScenarioSuite,
    ShardPlan,
    ShardSpec,
    assemble_scenario_result,
    merge_run,
    run_scenario_shard,
    run_scenarios,
    scenario_file_stems,
    suite_fingerprint,
    write_results,
)


# ------------------------------------------------------------------ #
# shared artifacts: one tiny trained model, one exact + adaptive suite
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def ctx():
    """One shared context so the tiny lenet5 trains once per module."""
    return ScenarioContext(
        bundle_overrides={
            "n_train": 96, "n_val": 48, "n_test": 64, "epochs": 1
        }
    )


@pytest.fixture(scope="module")
def suite():
    """Exact, adaptive, and importance-weighted adaptive scenarios."""
    return ScenarioSuite(
        name="shard-mini",
        specs=(
            CampaignSpec(
                name="exact", model="lenet5", rates=(1e-6, 1e-5, 1e-4),
                trials=2, eval_images=16, batch_size=16, seed=11,
            ),
            CampaignSpec(
                name="adaptive", model="lenet5", rates=(1e-6, 1e-4),
                trials=3, eval_images=16, batch_size=16, seed=12,
                mode="adaptive", ci_halfwidth=0.2,
            ),
            CampaignSpec(
                name="weighted", model="lenet5", rates=(1e-5, 1e-4),
                trials=2, eval_images=16, batch_size=16, seed=13,
                mode="adaptive", ci_halfwidth=0.2, importance=4.0,
            ),
        ),
    )


@pytest.fixture(scope="module")
def unsharded(suite, ctx, tmp_path_factory):
    """Byte-for-byte reference outputs of the single-host serial run."""
    out = tmp_path_factory.mktemp("unsharded")
    run_scenarios(suite, workers=1, out_dir=out, context=ctx)
    return {path.name: path.read_bytes() for path in out.glob("*.json")}


def _run_all_shards(suite, count, run_dir, ctx, order, workers=1):
    indices = range(1, count + 1)
    if order == "reverse":
        indices = reversed(list(indices))
    for index in indices:
        run_scenario_shard(
            suite, f"{index}/{count}", run_dir, workers=workers, context=ctx
        )


def _assert_merged_matches(run_dir, unsharded):
    merged = {path.name: path.read_bytes() for path in run_dir.glob("*.json")}
    assert merged == unsharded


# ------------------------------------------------------------------ #
# shard arithmetic
# ------------------------------------------------------------------ #



def _total_cells(plan: ShardPlan) -> int:
    """Executor cells across the whole suite."""
    return sum(rates * trials for rates, trials in map(plan.grid_shape, plan.specs))

class TestShardPlan:
    def test_partition_is_disjoint_and_complete(self, suite):
        for count in (1, 2, 3, 5, 50):
            plan = ShardPlan.split(suite, count)
            seen: set = set()
            for index in range(1, count + 1):
                for spec_index, cells in enumerate(
                    plan.cells_for(f"{index}/{count}")
                ):
                    for cell in cells:
                        key = (spec_index, cell)
                        assert key not in seen
                        seen.add(key)
            assert len(seen) == _total_cells(plan)

    def test_round_robin_is_balanced(self, suite):
        plan = ShardPlan.split(suite, 3)
        loads = [
            sum(len(cells) for cells in plan.cells_for(f"{i}/3"))
            for i in (1, 2, 3)
        ]
        assert max(loads) - min(loads) <= 1

    def test_adaptive_families_shard_as_whole_units(self, suite):
        plan = ShardPlan.split(suite, 2)
        for spec in suite.specs:
            n_rates, n_trials = plan.grid_shape(spec)
            assert n_rates == len(spec.rates)
            # One executor cell per rate: the whole trial family moves
            # together, so stopping decisions cannot straddle shards.
            assert n_trials == (1 if spec.mode == "adaptive" else spec.trials)

    def test_parse_rejects_bad_shard_strings(self):
        for bad in ("0/3", "4/3", "1/0", "a/b", "1-3", "", "1/"):
            with pytest.raises(ValueError):
                ShardSpec.parse(bad)
        assert ShardSpec.parse("2/3") == ShardSpec(2, 3)
        assert ShardSpec(2, 3).dirname == "2-of-3"

    def test_split_rejects_duplicates_and_empty(self, suite):
        spec = suite.specs[0]
        with pytest.raises(ValueError, match="unique"):
            ShardPlan.split([spec, spec], 2)
        with pytest.raises(ValueError, match="empty"):
            ShardPlan.split([], 2)

    def test_fingerprint_tracks_content(self, suite):
        base = suite_fingerprint(suite.name, suite.specs)
        assert base == suite_fingerprint(suite.name, suite.specs)
        assert base != suite_fingerprint("other", suite.specs)
        assert base != suite_fingerprint(suite.name, suite.specs[:2])

    def test_more_shards_than_cells_is_fine(self, suite):
        plan = ShardPlan.split(suite, 50)
        total = sum(
            len(cells)
            for i in range(1, 51)
            for cells in plan.cells_for(f"{i}/50")
        )
        assert total == _total_cells(plan)


# ------------------------------------------------------------------ #
# the acceptance matrix: merged == unsharded, byte for byte
# ------------------------------------------------------------------ #


class TestMergedBitIdentity:
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_serial_shards(self, suite, ctx, unsharded, tmp_path, count, order):
        run_dir = tmp_path / "run"
        _run_all_shards(suite, count, run_dir, ctx, order)
        results = merge_run(run_dir)
        assert [r.name for r in results] == [s.name for s in suite.specs]
        _assert_merged_matches(run_dir, unsharded)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_two_worker_shards(self, suite, ctx, unsharded, tmp_path, count):
        run_dir = tmp_path / "run"
        _run_all_shards(suite, count, run_dir, ctx, "reverse", workers=2)
        merge_run(run_dir)
        _assert_merged_matches(run_dir, unsharded)

    def test_merge_is_idempotent(self, suite, ctx, unsharded, tmp_path):
        run_dir = tmp_path / "run"
        _run_all_shards(suite, 2, run_dir, ctx, "forward")
        merge_run(run_dir)
        merge_run(run_dir)
        _assert_merged_matches(run_dir, unsharded)


# ------------------------------------------------------------------ #
# segmented-run lifecycle: resume, append, reject
# ------------------------------------------------------------------ #


class TestShardLifecycle:
    def test_rerun_resumes_from_checkpoint(self, suite, ctx, tmp_path):
        run_dir = tmp_path / "run"
        run_scenario_shard(suite, "1/2", run_dir, context=ctx)
        replayed: list = []
        run_scenario_shard(
            suite, "1/2", run_dir, context=ctx, progress=replayed.append
        )
        assert replayed, "second run emitted no cells"
        assert all(cell.from_checkpoint for cell in replayed)

    def test_checkpoint_refuses_other_shard_index(self, suite, ctx, tmp_path):
        run_dir = tmp_path / "run"
        run_scenario_shard(suite, "1/2", run_dir, context=ctx)
        foreign = run_dir / "shards" / "2-of-2"
        foreign.mkdir(parents=True)
        shutil.copy(
            run_dir / "shards" / "1-of-2" / "checkpoint.jsonl",
            foreign / "checkpoint.jsonl",
        )
        with pytest.raises(ValueError, match="different campaign"):
            run_scenario_shard(suite, "2/2", run_dir, context=ctx)

    def test_checkpoint_refuses_other_shard_count(self, suite, ctx, tmp_path):
        source = tmp_path / "source"
        run_scenario_shard(suite, "1/2", source, context=ctx)
        other = tmp_path / "other"
        target = other / "shards" / "1-of-3"
        target.mkdir(parents=True)
        shutil.copy(
            source / "shards" / "1-of-2" / "checkpoint.jsonl",
            target / "checkpoint.jsonl",
        )
        with pytest.raises(ValueError, match="different campaign"):
            run_scenario_shard(suite, "1/3", other, context=ctx)

    def test_shard_dir_refuses_a_different_suite(self, suite, ctx, tmp_path):
        run_dir = tmp_path / "run"
        run_scenario_shard(suite, "1/2", run_dir, context=ctx)
        other = ScenarioSuite(name="other-suite", specs=suite.specs)
        with pytest.raises(ValueError, match="manifest"):
            run_scenario_shard(other, "1/2", run_dir, context=ctx)

    def test_merge_lists_missing_shards_then_appends(
        self, suite, ctx, unsharded, tmp_path
    ):
        run_dir = tmp_path / "run"
        run_scenario_shard(suite, "1/3", run_dir, context=ctx)
        run_scenario_shard(suite, "3/3", run_dir, context=ctx)
        with pytest.raises(ValueError, match=r"missing shard\(s\) 2/3"):
            merge_run(run_dir)
        # A late shard appends into the existing run directory.
        run_scenario_shard(suite, "2/3", run_dir, context=ctx)
        merge_run(run_dir)
        _assert_merged_matches(run_dir, unsharded)

    def test_merge_rejects_foreign_suite_hash(self, suite, ctx, tmp_path):
        run_dir = tmp_path / "run"
        _run_all_shards(suite, 2, run_dir, ctx, "forward")
        manifest_path = run_dir / "shards" / "2-of-2" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["suite_hash"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="different suite"):
            merge_run(run_dir)

    def test_merge_rejects_edited_spec_list(self, suite, ctx, tmp_path):
        run_dir = tmp_path / "run"
        _run_all_shards(suite, 2, run_dir, ctx, "forward")
        manifest_path = run_dir / "shards" / "1-of-2" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["specs"][0]["seed"] += 1  # forge content, keep the hash
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not match its own spec"):
            merge_run(run_dir)

    def test_merge_rejects_incomplete_shard_partials(
        self, suite, ctx, tmp_path
    ):
        run_dir = tmp_path / "run"
        _run_all_shards(suite, 2, run_dir, ctx, "forward")
        partial_dir = run_dir / "shards" / "1-of-2" / "partial"
        removed = next(iter(sorted(partial_dir.glob("*.json"))))
        removed.unlink()
        with pytest.raises(ValueError, match="no partial result"):
            merge_run(run_dir)

    def test_merge_without_shards_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="shards"):
            merge_run(tmp_path)


# ------------------------------------------------------------------ #
# executor cell subsets (the substrate sharding rides on)
# ------------------------------------------------------------------ #


class TestExecutorCellSubsets:
    def _task(self, trained_mlp, mlp_eval_arrays):
        from repro.core.campaign import CampaignConfig
        from repro.core.executor import WeightFaultCellTask
        from repro.hw.memory import WeightMemory

        images, labels = mlp_eval_arrays
        return WeightFaultCellTask(
            trained_mlp,
            WeightMemory.from_model(trained_mlp),
            images[:16],
            labels[:16],
            config=CampaignConfig(
                fault_rates=(1e-5, 1e-4), trials=2, seed=5, batch_size=16
            ),
        )

    def test_subset_runs_only_requested_cells(
        self, trained_mlp, mlp_eval_arrays
    ):
        from repro.core.executor import CampaignExecutor

        task = self._task(trained_mlp, mlp_eval_arrays)
        _, grids = CampaignExecutor().run_grids(
            [task], cells=[[(1, 0), (0, 1)]]
        )
        finite = np.isfinite(grids[0])
        assert finite[1, 0] and finite[0, 1]
        assert not finite[0, 0] and not finite[1, 1]

    def test_subset_cells_match_full_run(self, trained_mlp, mlp_eval_arrays):
        from repro.core.executor import CampaignExecutor

        task = self._task(trained_mlp, mlp_eval_arrays)
        _, full = CampaignExecutor().run_grids([task])
        _, part = CampaignExecutor().run_grids([task], cells=[[(1, 1)]])
        assert part[0][1, 1] == full[0][1, 1]

    def test_subset_validation(self, trained_mlp, mlp_eval_arrays):
        from repro.core.executor import CampaignExecutor

        task = self._task(trained_mlp, mlp_eval_arrays)
        with pytest.raises(ValueError, match="outside"):
            CampaignExecutor().run_grids([task], cells=[[(2, 0)]])
        with pytest.raises(ValueError, match="duplicate"):
            CampaignExecutor().run_grids([task], cells=[[(0, 0), (0, 0)]])
        with pytest.raises(ValueError, match="parallel"):
            CampaignExecutor().run_grids([task], cells=[])


# ------------------------------------------------------------------ #
# the result-writing bugfix sweep
# ------------------------------------------------------------------ #


def _fake_result(name: str) -> ScenarioResult:
    spec = CampaignSpec(name=name, rates=(1e-5,), trials=1)
    return assemble_scenario_result(spec, spec.rates, [[0.5]], 0.75)


class TestResultWritingFixes:
    def test_run_scenarios_rejects_duplicates_in_suite_shape(self):
        # A suite arriving via unpickling bypasses __post_init__'s own
        # duplicate check; run_scenarios must still fail fast.
        spec = CampaignSpec(name="dup", rates=(1e-5,), trials=1)
        suite = object.__new__(ScenarioSuite)
        object.__setattr__(suite, "name", "forged")
        object.__setattr__(suite, "specs", (spec, spec))
        object.__setattr__(suite, "workers", None)
        with pytest.raises(ValueError, match="unique"):
            run_scenarios(suite)

    def test_run_scenarios_rejects_duplicates_in_sequence_shape(self):
        spec = CampaignSpec(name="dup", rates=(1e-5,), trials=1)
        with pytest.raises(ValueError, match="unique"):
            run_scenarios([spec, spec])

    def test_colliding_stems_are_deterministically_disambiguated(self):
        names = ["a/b", "a-b", "clean"]  # both sanitize to "a-b"
        stems = scenario_file_stems(names)
        assert stems == scenario_file_stems(names), "stems must be stable"
        assert len(set(stems)) == 3
        assert stems[2] == "clean"
        assert stems[0] != stems[1]
        assert all(stem.startswith("a-b-") for stem in stems[:2])

    def test_write_results_separates_colliding_scenarios(self, tmp_path):
        results = [_fake_result("a/b"), _fake_result("a-b")]
        summary_path = write_results(results, tmp_path)
        summary = json.loads(summary_path.read_text())
        files = [row["file"] for row in summary["scenarios"]]
        assert len(set(files)) == 2
        for row in summary["scenarios"]:
            payload = json.loads((tmp_path / row["file"]).read_text())
            assert payload["spec"]["name"] == row["name"]

    def test_write_results_is_atomic(self, tmp_path):
        class ExplodingResult(ScenarioResult):
            def to_dict(self):
                raise RuntimeError("killed mid-write")

        good = _fake_result("good")
        write_results([good], tmp_path)
        before = (tmp_path / "summary.json").read_bytes()

        bad = ExplodingResult(
            spec=CampaignSpec(name="bad", rates=(1e-5,), trials=1),
            curve=good.curve,
            values=good.values,
        )
        with pytest.raises(RuntimeError, match="killed"):
            write_results([good, bad], tmp_path)
        # The old summary survives intact and no temp files leak.
        assert (tmp_path / "summary.json").read_bytes() == before
        assert json.loads((tmp_path / "good.json").read_text())
        assert not list(tmp_path.glob("*.tmp"))


# ------------------------------------------------------------------ #
# quarantined (failed) cells flow through partials and merge
# ------------------------------------------------------------------ #


class TestQuarantineSurfacing:
    """A quarantined cell is a *result* (a ``failed`` outcome), not a
    coverage hole: shard partials record it, ``merge_run`` accepts the
    shard as complete, and the merged JSON surfaces ``failed_cells``."""

    CHAOS = "raise=1,attempts=99,cell=0:1"  # only exact's (0, 1) matches

    def test_run_scenarios_records_failed_cells(
        self, suite, ctx, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", self.CHAOS)
        out = tmp_path / "out"
        results = run_scenarios(
            suite, workers=1, out_dir=out, context=ctx,
            supervision=SupervisionPolicy(on_cell_error="quarantine"),
        )
        by_name = {r.name: r for r in results}
        assert len(by_name["exact"].failed) == 1
        record = by_name["exact"].failed[0]
        assert (record["rate_index"], record["trial"]) == (0, 1)
        assert record["reason"] == "exception"
        assert "injected failure" in record["error"]
        # Adaptive families live at trial 0, so the chaos target misses.
        assert not by_name["adaptive"].failed
        assert not by_name["weighted"].failed
        payload = json.loads((out / "exact.json").read_text())
        assert payload["failed_cells"] == [dict(record)]
        summary = json.loads((out / "summary.json").read_text())
        rows = {row["name"]: row for row in summary["scenarios"]}
        assert rows["exact"]["failed_cells"] == [dict(record)]
        assert "failed_cells" not in rows["adaptive"]

    def test_shard_partials_and_merge_surface_failed_cells(
        self, suite, ctx, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", self.CHAOS)
        run_dir = tmp_path / "run"
        for index in (1, 2):
            run_scenario_shard(
                suite, f"{index}/2", run_dir, context=ctx,
                supervision=SupervisionPolicy(on_cell_error="quarantine"),
            )
        partials = [
            json.loads(path.read_text())
            for path in run_dir.glob("shards/*/partial/*.json")
        ]
        failed = [p for p in partials if p.get("failed")]
        assert len(failed) == 1
        (record,) = failed[0]["failed"]
        assert (record["rate_index"], record["trial"]) == (0, 1)
        assert record["reason"] == "exception"
        # The failed cell is excluded from the partial's computed cells.
        assert "0/1" not in failed[0]["cells"]
        # Merge treats quarantined cells as covered, not missing.
        results = merge_run(run_dir)
        by_name = {r.name: r for r in results}
        assert [
            (r["rate_index"], r["trial"]) for r in by_name["exact"].failed
        ] == [(0, 1)]
        assert not by_name["adaptive"].failed
        payload = json.loads((run_dir / "exact.json").read_text())
        assert len(payload["failed_cells"]) == 1
