"""Every bundled scenario spec runs end-to-end (`make scenarios-smoke`).

Part of the fast (`-m "not slow"`) tier: all bundled specs — shrunk via
:func:`tests.helpers.shrunk` and driven with the tiny
:func:`repro.scenarios.smoke_context` artifacts — compile and execute
through **one** shared executor scheduling pass, so a schema change,
registry regression or compiler break in any bundled scenario fails the
inner loop rather than a CI-hours benchmark.
"""

import json

import numpy as np

from repro.scenarios import (
    bundled_spec_names,
    load_bundled,
    run_scenarios,
    scenario_file_stems,
    smoke_context,
)
from tests.helpers import shrunk


def test_every_bundled_spec_runs_through_one_pool(tmp_path):
    specs = []
    for name in bundled_spec_names():
        suite = load_bundled(name)
        assert suite.specs, f"bundled spec {name} expanded to nothing"
        specs.extend(shrunk(spec) for spec in suite.specs)

    names = [spec.name for spec in specs]
    assert len(set(names)) == len(names), "bundled scenario names collide"

    out = tmp_path / "out"
    results = run_scenarios(
        specs, workers=1, context=smoke_context(), out_dir=out
    )

    assert len(results) == len(specs)
    for result, stem in zip(results, scenario_file_stems(names)):
        accuracies = result.curve.accuracies
        assert np.isfinite(accuracies).all(), f"{result.name} produced NaNs"
        assert ((accuracies >= 0.0) & (accuracies <= 1.0)).all()
        assert (out / f"{stem}.json").exists()

    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == len(specs)
    assert {row["name"] for row in summary["scenarios"]} == set(names)
