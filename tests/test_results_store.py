"""The per-cell result store: schema, container, segments, identity.

Three layers of proof for ``repro.results.store``:

* **Property tests** (hypothesis): every record round-trips through the
  JSONL segment encoding and the columnar container across all dtypes
  and outcome classes; canonicalization is invariant to append order;
  and the store derived from assembled scenario results reproduces the
  scenario grids bit for bit (aggregates recomputed from cells match
  the scenario JSON exactly).
* **Unit tests**: the dedupe rules (executed beats failed, conflicting
  executed duplicates raise, newest failure wins), container
  corruption/validation errors, and the live :class:`SegmentRecorder`
  fed synthetic executor cells.
* **Live identity**: an unsharded :func:`run_scenarios` run and N-way
  sharded ``run_scenario_shard`` + ``merge_run`` runs (N ∈ {1, 2, 3},
  exact and adaptive modes) produce byte-identical ``store/cells.rcs``
  files, and the incrementally appended segments reassemble to the
  same canonical store.
"""

from __future__ import annotations

import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.results import (
    CELL_COLUMNS,
    OUTCOME_CLASSES,
    CellRecord,
    CellStore,
    SegmentRecorder,
    read_segment,
    read_segments,
    read_store,
    records_from_failure,
    records_from_value,
    store_from_results,
    store_path,
    write_store,
)
from repro.results.store import SHARD_SEGMENT_FILENAME, _MAGIC
from repro.scenarios import (
    CampaignSpec,
    ScenarioContext,
    ScenarioSuite,
    ShardSpec,
    assemble_scenario_result,
    merge_run,
    run_scenario_shard,
    run_scenarios,
)
from repro.scenarios.shard import PARTIAL_DIRNAME, RUN_LAYOUT, ShardPlan


# ------------------------------------------------------------------ #
# strategies
# ------------------------------------------------------------------ #

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def cell_records(draw) -> CellRecord:
    return CellRecord(
        scenario=draw(_text),
        campaign=draw(st.sampled_from(["weight", "quantized", "activation"])),
        variant=draw(_text),
        fault_model=draw(_text),
        mode=draw(st.sampled_from(["exact", "adaptive"])),
        rate_index=draw(st.integers(min_value=0, max_value=50)),
        fault_rate=draw(_floats),
        trial=draw(st.integers(min_value=0, max_value=50)),
        seed=draw(st.integers(min_value=-(2**62), max_value=2**62)),
        batch_k=draw(st.integers(min_value=-8, max_value=64)),
        outcome=draw(st.sampled_from(OUTCOME_CLASSES)),
        accuracy=draw(_floats),
        weight=draw(_floats),
        reason=draw(_text),
        attempts=draw(st.integers(min_value=0, max_value=9)),
        error=draw(_text),
    )


@st.composite
def record_batches(draw) -> "list[CellRecord]":
    """Records with unique (scenario, rate_index, trial) coordinates."""
    records = draw(st.lists(cell_records(), max_size=12))
    unique: "dict[tuple, CellRecord]" = {}
    for record in records:
        unique.setdefault(record.sort_key(), record)
    return list(unique.values())


# ------------------------------------------------------------------ #
# property tests: round trips and order invariance
# ------------------------------------------------------------------ #


class TestRecordRoundTrip:
    @given(record=cell_records())
    @settings(max_examples=150, deadline=None)
    def test_segment_json_round_trip(self, record):
        line = json.dumps(record.to_dict(), sort_keys=True)
        assert CellRecord.from_dict(json.loads(line)) == record

    @given(records=st.lists(cell_records(), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_container_round_trip(self, records):
        store = CellStore(records)
        assert CellStore.from_bytes(store.to_bytes()) == store

    @given(records=st.lists(cell_records(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_container_bytes_are_deterministic(self, records):
        assert CellStore(records).to_bytes() == CellStore(records).to_bytes()

    def test_nan_is_canonicalized_for_equality(self):
        negative_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]
        assert math.isnan(negative_nan)
        one = _record(accuracy=float("nan"))
        two = _record(accuracy=negative_nan)
        assert one == two
        assert hash(one) == hash(two)

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        payload = _record().to_dict()
        with pytest.raises(ValueError, match="unknown cell-record field"):
            CellRecord.from_dict({**payload, "extra": 1})
        del payload["accuracy"]
        with pytest.raises(ValueError, match="missing field"):
            CellRecord.from_dict(payload)

    def test_record_validates_outcome_and_coordinates(self):
        with pytest.raises(ValueError, match="outcome must be one of"):
            _record(outcome="exploded")
        with pytest.raises(ValueError, match="non-negative"):
            _record(rate_index=-1)


class TestCanonicalization:
    @given(records=record_batches(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_append_order_invariance(self, records, data):
        shuffled = data.draw(st.permutations(records))
        # Duplicate an arbitrary prefix (identical content), as a resumed
        # run re-recording checkpointed cells would.
        replay = shuffled + shuffled[: len(shuffled) // 2]
        assert CellStore(replay).canonical() == CellStore(records).canonical()

    @given(records=record_batches())
    @settings(max_examples=50, deadline=None)
    def test_canonical_is_sorted_and_idempotent(self, records):
        canonical = CellStore(records).canonical()
        keys = [record.sort_key() for record in canonical]
        assert keys == sorted(keys)
        assert canonical.canonical() == canonical

    def test_executed_beats_failed_either_order(self):
        ok = _record(outcome="ok", accuracy=0.5)
        failed = _record(outcome="failed", accuracy=float("nan"), reason="timeout")
        for order in ([ok, failed], [failed, ok]):
            assert CellStore(order).canonical().records == [ok]

    def test_newest_failure_wins(self):
        first = _record(outcome="failed", reason="timeout", attempts=1)
        second = _record(outcome="failed", reason="exception", attempts=3)
        assert CellStore([first, second]).canonical().records == [second]

    def test_conflicting_executed_duplicates_raise(self):
        with pytest.raises(ValueError, match="determinism contract"):
            CellStore(
                [_record(accuracy=0.5), _record(accuracy=0.25)]
            ).canonical()


# ------------------------------------------------------------------ #
# property tests: store vs assembled scenario results
# ------------------------------------------------------------------ #


def _spec(name="s", mode="exact", rates=(1e-6, 1e-5), trials=3, **kw):
    return CampaignSpec(
        name=name, model="lenet5", rates=rates, trials=trials,
        eval_images=16, batch_size=16, seed=7, mode=mode, **kw,
    )


def _record(**overrides):
    base = dict(
        scenario="s", campaign="weight", variant="unprotected",
        fault_model="random_bitflip", mode="exact", rate_index=0,
        fault_rate=1e-6, trial=0, seed=7, batch_k=0, outcome="ok",
        accuracy=0.75, weight=1.0,
    )
    base.update(overrides)
    return CellRecord(**base)


@st.composite
def exact_results(draw):
    n_rates = draw(st.integers(min_value=1, max_value=4))
    trials = draw(st.integers(min_value=1, max_value=4))
    rates = [10.0 ** -(6 - i) for i in range(n_rates)]
    grid = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0, width=64),
                    min_size=trials, max_size=trials,
                ),
                min_size=n_rates, max_size=n_rates,
            )
        ),
        dtype=np.float64,
    )
    spec = _spec(rates=tuple(rates), trials=trials)
    return assemble_scenario_result(spec, rates, grid, clean_accuracy=0.9)


@st.composite
def adaptive_results(draw):
    n_rates = draw(st.integers(min_value=1, max_value=3))
    trials = draw(st.integers(min_value=1, max_value=4))
    weighted = draw(st.booleans())
    rates = [10.0 ** -(6 - i) for i in range(n_rates)]
    width = 2 + trials * (2 if weighted else 1)
    grid = np.full((n_rates, width), np.nan)
    for index in range(n_rates):
        executed = draw(st.integers(min_value=1, max_value=trials))
        accs = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, width=64),
                min_size=executed, max_size=executed,
            )
        )
        grid[index, 0] = float(np.mean(accs))
        grid[index, 1] = float(executed)
        grid[index, 2 : 2 + executed] = accs
        if weighted:
            weights = draw(
                st.lists(
                    st.floats(min_value=0.1, max_value=4.0, width=64),
                    min_size=executed, max_size=executed,
                )
            )
            grid[index, 2 + trials : 2 + trials + executed] = weights
    spec = _spec(
        mode="adaptive", rates=tuple(rates), trials=trials,
        ci_halfwidth=0.2, importance=4.0 if weighted else None,
    )
    return assemble_scenario_result(spec, rates, grid, clean_accuracy=0.9)


class TestStoreVsResults:
    @given(result=exact_results())
    @settings(max_examples=60, deadline=None)
    def test_exact_grid_reassembles_bitwise_from_cells(self, result):
        store = store_from_results([result])
        spec = result.spec
        assert len(store) == len(spec.rates) * spec.trials
        grid = np.full((len(spec.rates), spec.trials), np.nan)
        for record in store:
            assert record.outcome == "ok"
            assert record.weight == 1.0
            assert record.seed == spec.seed
            assert record.fault_rate == float(spec.rates[record.rate_index])
            grid[record.rate_index, record.trial] = record.accuracy
        assert np.array_equal(grid, result.curve.accuracies)
        # Aggregates recomputed from the cells match the scenario JSON
        # payload exactly (same bits in, same reductions).
        rebuilt = assemble_scenario_result(
            spec, spec.rates, grid, float(result.curve.clean_accuracy)
        )
        assert rebuilt.to_dict() == result.to_dict()

    @given(result=adaptive_results())
    @settings(max_examples=60, deadline=None)
    def test_adaptive_cells_match_result_fields(self, result):
        store = store_from_results([result])
        spec = result.spec
        adaptive = result.adaptive
        assert len(store) == len(spec.rates) * spec.trials
        counts = store.outcome_counts()
        assert counts["ok"] == adaptive.cells_executed
        assert counts["skipped"] == adaptive.cells_skipped
        assert counts["failed"] == 0
        for record in store:
            executed = int(adaptive.executed[record.rate_index])
            if record.trial < executed:
                assert record.outcome == "ok"
                assert record.accuracy == float(
                    adaptive.accuracies[record.rate_index, record.trial]
                )
                if adaptive.weights is not None:
                    assert record.weight == float(
                        adaptive.weights[record.rate_index, record.trial]
                    )
                else:
                    assert record.weight == 1.0
            else:
                assert record.outcome == "skipped"
                assert math.isnan(record.accuracy)
                assert math.isnan(record.weight)

    def test_failed_cells_carry_reason_no_side_channel(self):
        spec = _spec(rates=(1e-6, 1e-5), trials=2)
        grid = np.array([[0.5, np.nan], [0.25, 0.75]])
        failure = {
            "rate_index": 0, "trial": 1, "reason": "timeout",
            "attempts": 3, "error": "TimeoutError: cell overran 1.0s",
        }
        result = assemble_scenario_result(
            spec, spec.rates, grid, 0.9, failed=[failure]
        )
        store = store_from_results([result])
        failed = store.select(outcome="failed")
        assert len(failed) == 1
        record = failed.records[0]
        assert record.reason == "timeout"
        assert record.attempts == 3
        assert record.error == failure["error"]
        assert math.isnan(record.accuracy)

    def test_adaptive_failed_family_expands_every_trial(self):
        spec = _spec(mode="adaptive", trials=3, ci_halfwidth=0.2)
        records = records_from_failure(
            spec, {"rate_index": 1, "trial": 0, "reason": "worker-death",
                   "attempts": 2, "error": ""},
        )
        assert [r.trial for r in records] == [0, 1, 2]
        assert {r.outcome for r in records} == {"failed"}
        assert {r.reason for r in records} == {"worker-death"}


# ------------------------------------------------------------------ #
# unit tests: container validation, selection, recorder
# ------------------------------------------------------------------ #


class TestContainerValidation:
    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError, match="bad magic"):
            CellStore.from_bytes(b"NOTASTORE" + b"\x00" * 16)

    def test_rejects_future_format(self):
        blob = CellStore([_record()]).to_bytes()
        header_len = struct.unpack_from("<q", blob, len(_MAGIC))[0]
        start = len(_MAGIC) + 8
        header = json.loads(blob[start : start + header_len])
        header["format"] = 999
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        doctored = (
            _MAGIC + struct.pack("<q", len(raw)) + raw
            + blob[start + header_len :]
        )
        with pytest.raises(ValueError, match="format 999"):
            CellStore.from_bytes(doctored)

    def test_rejects_trailing_bytes(self):
        blob = CellStore([_record()]).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            CellStore.from_bytes(blob + b"\x00")

    def test_write_read_round_trip(self, tmp_path):
        store = CellStore([_record(), _record(trial=1, accuracy=0.25)])
        write_store(store, tmp_path)
        assert read_store(tmp_path) == store.canonical()
        assert store_path(tmp_path).is_file()


class TestSelection:
    def test_select_column_and_counts(self):
        store = CellStore(
            [
                _record(scenario="a", outcome="ok"),
                _record(scenario="b", outcome="failed",
                        accuracy=float("nan"), reason="exception"),
                _record(scenario="b", trial=1, outcome="skipped",
                        accuracy=float("nan"), weight=float("nan")),
            ]
        )
        assert store.scenarios() == ["a", "b"]
        assert len(store.select(scenario="b")) == 2
        assert store.outcome_counts() == {"ok": 1, "failed": 1, "skipped": 1}
        with pytest.raises(ValueError, match="unknown column"):
            store.select(nope=1)


class TestSegmentRecorder:
    def _cell(self, **kw):
        base = dict(
            rate_index=0, trial=0, fault_rate=1e-6, accuracy=0.5,
            completed=1, total=4, from_checkpoint=False,
            campaign_index=0, campaign_label="s", values=None, failed=False,
        )
        base.update(kw)
        return SimpleNamespace(**base)

    def test_streams_cells_and_failures(self, tmp_path):
        spec = _spec(trials=2)
        path = tmp_path / "segment.jsonl"
        with SegmentRecorder(path, [spec]) as recorder:
            recorder.cell(self._cell(accuracy=0.5))
            recorder.cell(self._cell(trial=1, accuracy=0.75))
            # A failed cell's CellResult is skipped; failure() carries it.
            recorder.cell(
                self._cell(rate_index=1, accuracy=float("nan"), failed=True)
            )
            recorder.failure(
                {
                    "task": "s", "task_index": 0, "rate_index": 1,
                    "trial": 0, "reason": "exception", "attempts": 2,
                    "error": "boom",
                }
            )
        store = read_segment(path)
        assert store.outcome_counts() == {"ok": 2, "failed": 1, "skipped": 0}
        assert store.select(outcome="failed").records[0].reason == "exception"

    def test_adaptive_family_vector_expands(self, tmp_path):
        spec = _spec(mode="adaptive", trials=3, ci_halfwidth=0.2)
        path = tmp_path / "segment.jsonl"
        vector = (0.6, 2.0, 0.5, 0.7, -1.0)  # SKIP_SENTINEL padding
        with SegmentRecorder(path, [spec]) as recorder:
            recorder.cell(self._cell(accuracy=0.6, values=vector))
        store = read_segment(path)
        assert [r.outcome for r in store] == ["ok", "ok", "skipped"]
        assert [r.accuracy for r in store][:2] == [0.5, 0.7]

    def test_appends_across_reopen(self, tmp_path):
        spec = _spec(trials=2)
        path = tmp_path / "segment.jsonl"
        with SegmentRecorder(path, [spec]) as recorder:
            recorder.cell(self._cell())
        with SegmentRecorder(path, [spec]) as recorder:
            recorder.cell(self._cell(trial=1, accuracy=0.75))
        assert len(read_segment(path)) == 2

    def test_reopen_trims_a_torn_last_line(self, tmp_path):
        """A writer that died mid-flush leaves a torn last line; appending
        onto it used to make the segment unreadable (``:2: bad cell
        record``), so every merge of that run failed."""
        spec = _spec(trials=4)
        path = tmp_path / "segment.jsonl"
        with SegmentRecorder(path, [spec]) as recorder:
            recorder.cell(self._cell())
            recorder.cell(self._cell(trial=1, accuracy=0.75))
        path.write_bytes(path.read_bytes()[:-40])
        with SegmentRecorder(path, [spec]) as recorder:
            recorder.cell(self._cell(trial=2, accuracy=0.25))
            recorder.cell(self._cell(trial=3, accuracy=0.125))
        assert [r.trial for r in read_segment(path)] == [0, 2, 3]

    def test_bad_segment_line_reports_location(self, tmp_path):
        path = tmp_path / "segment.jsonl"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(ValueError, match="segment.jsonl:1"):
            read_segment(path)


# ------------------------------------------------------------------ #
# live identity: unsharded vs N-way sharded runs, exact + adaptive
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
    return ScenarioSuite(
        name="store-mini",
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
        ),
    )


@pytest.fixture(scope="module")
def unsharded(suite, ctx, tmp_path_factory):
    out = tmp_path_factory.mktemp("unsharded")
    results = run_scenarios(suite, workers=1, out_dir=out, context=ctx)
    return out, results


class TestLiveStoreIdentity:
    def test_unsharded_run_writes_exactly_the_run_layout(self, suite, unsharded):
        """The unsharded outputs are the run layout's entries outside
        ``shards/``: the summary, one JSON per scenario and the store."""
        out, results = unsharded
        assert {"summary.json", "<scenario>.json", "store/cells.rcs"} == {
            pattern for pattern in RUN_LAYOUT if not pattern.startswith("shards/")
        }
        written = {
            path.relative_to(out).as_posix()
            for path in out.rglob("*")
            if path.is_file()
        }
        scenarios = {f"{spec.name}.json" for spec in suite.specs}
        assert written == {"summary.json", "store/cells.rcs"} | scenarios
        assert read_store(out) == store_from_results(results)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_sharded_store_bytes_match_unsharded(
        self, suite, ctx, unsharded, tmp_path, count
    ):
        out, _ = unsharded
        run_dir = tmp_path / "run"
        for index in reversed(range(1, count + 1)):
            run_scenario_shard(
                suite, ShardSpec.parse(f"{index}/{count}"), run_dir,
                context=ctx,
            )
            shard_segment = (
                run_dir / "shards" / f"{index}-of-{count}"
                / PARTIAL_DIRNAME / SHARD_SEGMENT_FILENAME
            )
            assert shard_segment.is_file()
        merge_run(run_dir)
        assert (
            store_path(run_dir).read_bytes() == store_path(out).read_bytes()
        )

    def test_sharded_segments_reassemble_to_canonical(
        self, suite, ctx, unsharded, tmp_path
    ):
        out, _ = unsharded
        run_dir = tmp_path / "run"
        for index in (1, 2):
            run_scenario_shard(
                suite, ShardSpec.parse(f"{index}/2"), run_dir, context=ctx
            )
        merge_run(run_dir)
        segments = [
            run_dir / "shards" / f"{index}-of-2"
            / PARTIAL_DIRNAME / SHARD_SEGMENT_FILENAME
            for index in (1, 2)
        ]
        assert read_segments(segments).canonical() == read_store(out)

    def test_shard_resumed_after_a_torn_segment_merges(
        self, suite, ctx, unsharded, tmp_path
    ):
        """A shard killed mid-flush, then rerun, still merges to the
        unsharded store."""
        out, _ = unsharded
        run_dir = tmp_path / "run"
        for index in (1, 2):
            run_scenario_shard(
                suite, ShardSpec.parse(f"{index}/2"), run_dir, context=ctx
            )
        segment = (
            run_dir / "shards" / "1-of-2"
            / PARTIAL_DIRNAME / SHARD_SEGMENT_FILENAME
        )
        segment.write_bytes(segment.read_bytes()[:-40])
        run_scenario_shard(suite, ShardSpec.parse("1/2"), run_dir, context=ctx)
        merge_run(run_dir)
        assert (
            store_path(run_dir).read_bytes() == store_path(out).read_bytes()
        )

    @staticmethod
    def _merge_with_a_doctored_segment(suite, ctx, run_dir, count):
        for index in range(1, count + 1):
            run_scenario_shard(
                suite, ShardSpec.parse(f"{index}/{count}"), run_dir,
                context=ctx,
            )
        segment = (
            run_dir / "shards" / f"1-of-{count}"
            / PARTIAL_DIRNAME / SHARD_SEGMENT_FILENAME
        )
        lines = segment.read_text().splitlines()
        doctored = json.loads(lines[0])
        doctored["accuracy"] = 0.123456789
        lines[0] = json.dumps(doctored, sort_keys=True)
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="segment"):
            merge_run(run_dir)
        assert not (run_dir / "summary.json").exists()

    def test_merge_detects_corrupt_segment(self, suite, ctx, tmp_path):
        self._merge_with_a_doctored_segment(suite, ctx, tmp_path / "run", 2)

    def test_a_shard_without_cells_keeps_the_cross_check(
        self, suite, ctx, tmp_path
    ):
        """At 9 shards the suite's 8 cells leave shard 9 with no cells and
        no segment; the other shards' segments are still checked."""
        assert not any(ShardPlan.split(suite, 9).cells_for("9/9"))
        self._merge_with_a_doctored_segment(suite, ctx, tmp_path / "run", 9)

    def test_merge_refuses_a_missing_segment_until_the_shard_reruns(
        self, suite, ctx, unsharded, tmp_path
    ):
        out, _ = unsharded
        run_dir = tmp_path / "run"
        for index in (1, 2):
            run_scenario_shard(
                suite, ShardSpec.parse(f"{index}/2"), run_dir, context=ctx
            )
        segment = (
            run_dir / "shards" / "2-of-2"
            / PARTIAL_DIRNAME / SHARD_SEGMENT_FILENAME
        )
        segment.unlink()
        with pytest.raises(ValueError, match="shard 2/2 owns cells but has no"):
            merge_run(run_dir)
        assert not (run_dir / "summary.json").exists()
        run_scenario_shard(suite, ShardSpec.parse("2/2"), run_dir, context=ctx)
        merge_run(run_dir)
        assert (
            store_path(run_dir).read_bytes() == store_path(out).read_bytes()
        )


class TestColumnSchema:
    def test_cell_columns_cover_record_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(CellRecord)] == list(CELL_COLUMNS)

    def test_kinds_are_known(self):
        assert set(kind for kind, _ in CELL_COLUMNS.values()) <= {
            "str", "int", "float"
        }
