"""The report half of the cross-process smoke: store + report identity
through the real CLI.

The merged run of ``tests/test_shard_smoke.py`` (three shard processes,
``python -m repro merge``) is rendered by ``python -m repro report``.
Asserted:

* the merged ``store/cells.rcs`` byte-matches the unsharded run's;
* the merged run's report HTML byte-matches the unsharded run's
  rendering (worker/shard topology must never reach the report bytes);
* rendering is idempotent (running ``repro report`` twice rewrites
  identical bytes).

The synthetic-constants golden fixture lives in
``tests/test_results_report.py``; this smoke covers the live pipeline.
"""

from __future__ import annotations

from tests.test_shard_smoke import _python, _three_process_run


def test_sharded_store_and_report_match_unsharded(tmp_path):
    from repro.results import render_report, store_path

    unsharded, run_dir, env = _three_process_run(tmp_path)
    assert (
        store_path(run_dir).read_bytes()
        == store_path(unsharded).read_bytes()
    )

    report = run_dir / "report.html"
    _python(["-m", "repro", "report", str(run_dir), "--out", str(report)], env)
    assert report.read_text() == render_report(unsharded)

    # repro report is idempotent: a second run rewrites identical bytes.
    first = report.read_bytes()
    _python(["-m", "repro", "report", str(run_dir), "--out", str(report)], env)
    assert report.read_bytes() == first
