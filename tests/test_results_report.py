"""``repro report``: golden-byte determinism and content checks.

The report is a pure function of the run directory's bytes, so two
kinds of identity are asserted:

* **Golden bytes.**  A synthetic run directory built from fixed
  constants (exact + adaptive + quarantined scenarios, plus BENCH
  histories) renders byte-identical to the committed
  ``tests/golden/report_golden.html``.  Regenerate after an intentional
  template change with ``REPRO_REGEN_GOLDEN=1 python -m pytest
  tests/test_results_report.py -k golden``.
* **Live determinism.**  Rendering the same run twice, and rendering
  runs executed with 1 vs 2 workers, produces byte-identical HTML
  (worker count never leaks into results, so it must not leak into
  reports).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.results import (
    REPORT_FILENAME,
    REPORT_SECTIONS,
    load_run,
    render_report,
    store_path,
    write_report,
)
from repro.scenarios import (
    CampaignSpec,
    ScenarioContext,
    ScenarioSuite,
    assemble_scenario_result,
    run_scenarios,
    write_results,
)

GOLDEN = Path(__file__).parent / "golden" / "report_golden.html"


# ------------------------------------------------------------------ #
# the synthetic golden run (fixed constants, no training)
# ------------------------------------------------------------------ #


def _golden_results():
    exact = CampaignSpec(
        name="exact/unprotected", model="lenet5",
        rates=(1e-6, 1e-5, 1e-4), trials=3,
        eval_images=32, batch_size=16, seed=11,
    )
    exact_grid = np.array(
        [
            [0.9375, 0.90625, 0.9375],
            [0.875, np.nan, 0.84375],
            [0.5, 0.46875, 0.53125],
        ]
    )
    failed = [
        {
            "rate_index": 1, "trial": 1, "reason": "timeout",
            "attempts": 3, "error": "TimeoutError: cell overran 0.5s",
        }
    ]
    adaptive = CampaignSpec(
        name="adaptive/ftclipact", model="lenet5", rates=(1e-6, 1e-4),
        trials=3, eval_images=32, batch_size=16, seed=12,
        mode="adaptive", ci_halfwidth=0.1, variant="ftclipact",
        importance=4.0,
    )
    adaptive_grid = np.array(
        [
            [0.9375, 1.0, 0.9375, np.nan, np.nan, 1.25, np.nan, np.nan],
            [0.625, 3.0, 0.59375, 0.65625, 0.625, 0.8, 1.2, 1.1],
        ]
    )
    return [
        assemble_scenario_result(
            exact, exact.rates, exact_grid, 0.96875, failed=failed
        ),
        assemble_scenario_result(adaptive, adaptive.rates, adaptive_grid, 0.96875),
    ]


@pytest.fixture()
def golden_run(tmp_path):
    run_dir = tmp_path / "run"
    write_results(_golden_results(), run_dir, suite="golden-suite")
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "BENCH_campaign.json").write_text(
        json.dumps(
            {
                "benchmark": "campaign",
                "history": [
                    {"sha": "aaaa111122223333", "cpus": 8, "workers": 4,
                     "wall_seconds": 12.5, "dirty": False},
                    {"sha": "bbbb444455556666", "cpus": 8, "workers": 4,
                     "wall_seconds": 10.0, "dirty": False},
                ],
            },
            indent=1, sort_keys=True,
        )
    )
    (bench_dir / "BENCH_forward.json").write_text(
        json.dumps({"benchmark": "forward", "history": []})
    )
    return run_dir, bench_dir


class TestGoldenBytes:
    def test_report_matches_golden_fixture(self, golden_run):
        run_dir, bench_dir = golden_run
        html = render_report(run_dir, bench_dir=bench_dir)
        if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(html)
        assert GOLDEN.is_file(), (
            "golden fixture missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert html == GOLDEN.read_text(), (
            "report bytes drifted from tests/golden/report_golden.html; "
            "if the change is intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )

    def test_render_is_repeatable(self, golden_run):
        run_dir, bench_dir = golden_run
        assert render_report(run_dir, bench_dir=bench_dir) == render_report(
            run_dir, bench_dir=bench_dir
        )

    def test_write_report_default_path(self, golden_run):
        run_dir, _ = golden_run
        target = write_report(run_dir)
        assert target == run_dir / REPORT_FILENAME
        assert target.read_text() == render_report(run_dir)


class TestReportContent:
    def test_every_section_is_rendered(self, golden_run):
        run_dir, bench_dir = golden_run
        html = render_report(run_dir, bench_dir=bench_dir)
        for section in REPORT_SECTIONS:
            assert f'<section id="{section}">' in html

    def test_quarantine_table_comes_from_store(self, golden_run):
        run_dir, _ = golden_run
        html = render_report(run_dir)
        assert "timeout" in html
        assert "TimeoutError: cell overran 0.5s" in html

    def test_quarantine_falls_back_to_json_without_store(self, tmp_path):
        run_dir = tmp_path / "run"
        write_results(_golden_results(), run_dir, suite="golden-suite")
        # A run directory written before every run kept a store.
        store_path(run_dir).unlink()
        run = load_run(run_dir)
        assert run.store is None
        html = render_report(run_dir)
        assert "No per-cell store" in html
        assert "timeout" in html  # still sourced from failed_cells JSON

    def test_bench_section_reports_missing_dir_contents(self, golden_run):
        run_dir, _ = golden_run
        html = render_report(run_dir, bench_dir=run_dir)  # no BENCH_*.json
        assert "No BENCH_*.json histories" in html

    def test_markup_is_escaped(self, tmp_path):
        spec = CampaignSpec(
            name="xss<script>&co", model="lenet5", rates=(1e-6,),
            trials=1, eval_images=16, batch_size=16, seed=1,
        )
        result = assemble_scenario_result(
            spec, spec.rates, np.array([[0.5]]), 0.9
        )
        run_dir = tmp_path / "run"
        write_results([result], run_dir)
        html = render_report(run_dir)
        assert "<script>" not in html
        assert "xss&lt;script&gt;&amp;co" in html

    def test_many_scenarios_fold_combined_figure(self, tmp_path):
        results = []
        for index in range(9):
            spec = CampaignSpec(
                name=f"s{index}", model="lenet5", rates=(1e-6, 1e-5),
                trials=1, eval_images=16, batch_size=16, seed=index + 1,
            )
            results.append(
                assemble_scenario_result(
                    spec, spec.rates, np.array([[0.5], [0.25]]), 0.9
                )
            )
        run_dir = tmp_path / "run"
        write_results(results, run_dir)
        html = render_report(run_dir)
        assert "exceed the 8-series limit" in html

    def test_missing_summary_is_a_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="summary.json"):
            render_report(tmp_path)


# ------------------------------------------------------------------ #
# live determinism: worker count never reaches the report bytes
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def live_ctx():
    return ScenarioContext(
        bundle_overrides={
            "n_train": 96, "n_val": 48, "n_test": 64, "epochs": 1
        }
    )


@pytest.fixture(scope="module")
def live_suite():
    return ScenarioSuite(
        name="report-mini",
        specs=(
            CampaignSpec(
                name="exact", model="lenet5", rates=(1e-6, 1e-4),
                trials=2, eval_images=16, batch_size=16, seed=21,
            ),
            CampaignSpec(
                name="adaptive", model="lenet5", rates=(1e-6, 1e-4),
                trials=3, eval_images=16, batch_size=16, seed=22,
                mode="adaptive", ci_halfwidth=0.2,
            ),
        ),
    )


class TestLiveDeterminism:
    def test_worker_count_does_not_change_report_bytes(
        self, live_suite, live_ctx, tmp_path
    ):
        pages = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_scenarios(
                live_suite, workers=workers, out_dir=out, context=live_ctx
            )
            pages.append(render_report(out))
        assert pages[0] == pages[1]
