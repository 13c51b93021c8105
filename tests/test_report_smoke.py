"""`make report-smoke`: store + report identity through the real CLI.

The deployment-shaped path for the per-cell result store: a bundled
scenario suite (shrunk to smoke size) runs unsharded in-process, then
is split 2 ways with each shard executed by a **separate Python
process**; `python -m repro merge` reassembles the run and `python -m
repro report` renders it — both via the real CLI.  Asserted:

* the merged ``store/cells.rcs`` byte-matches the unsharded run's;
* the merged run's report HTML byte-matches the unsharded run's
  (its golden rendering — worker/shard topology must never reach the
  report bytes);
* rendering is idempotent (running ``repro report`` twice rewrites
  identical bytes).

The synthetic-constants golden fixture lives in
``tests/test_results_report.py``; this smoke covers the live pipeline.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SUITE = "stuck_at_memory"
SHARDS = 2

_SHARD_DRIVER = """
import sys

from repro.scenarios import (
    ScenarioSuite, load_bundled, run_scenario_shard, smoke_context,
)
from tests.helpers import shrunk

name, shard, run_dir = sys.argv[1:4]
base = load_bundled(name)
suite = ScenarioSuite(
    name=f"{name}-smoke", specs=tuple(shrunk(s) for s in base.specs)
)
run_scenario_shard(suite, shard, run_dir, context=smoke_context())
"""


def _smoke_suite():
    from repro.scenarios import ScenarioSuite, load_bundled
    from tests.helpers import shrunk

    base = load_bundled(SUITE)
    return ScenarioSuite(
        name=f"{SUITE}-smoke", specs=tuple(shrunk(s) for s in base.specs)
    )


def _cli_env():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{src.parent}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else f"{src}{os.pathsep}{src.parent}"
    )
    return env


def _cli(args, env):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (
        f"repro {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


def test_sharded_store_and_report_match_unsharded(tmp_path):
    from repro.results import render_report, store_path
    from repro.scenarios import run_scenarios, smoke_context

    # The unsharded reference (training lands in the shared cache, so
    # the shard processes below just load it).
    unsharded = tmp_path / "unsharded"
    results = run_scenarios(
        _smoke_suite(), workers=1, out_dir=unsharded, context=smoke_context()
    )
    assert results
    assert store_path(unsharded).is_file()
    golden_html = render_report(unsharded)

    env = _cli_env()
    run_dir = tmp_path / "run"
    for index in range(1, SHARDS + 1):
        proc = subprocess.run(
            [
                sys.executable, "-c", _SHARD_DRIVER,
                SUITE, f"{index}/{SHARDS}", str(run_dir),
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, (
            f"shard {index}/{SHARDS} failed:\n{proc.stdout}\n{proc.stderr}"
        )

    _cli(["merge", str(run_dir)], env)
    assert (
        store_path(run_dir).read_bytes()
        == store_path(unsharded).read_bytes()
    )

    report = run_dir / "report.html"
    _cli(["report", str(run_dir), "--out", str(report)], env)
    assert report.read_text() == golden_html

    # repro report is idempotent: a second run rewrites identical bytes.
    first = report.read_bytes()
    _cli(["report", str(run_dir), "--out", str(report)], env)
    assert report.read_bytes() == first
