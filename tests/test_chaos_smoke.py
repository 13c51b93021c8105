"""`make chaos-smoke`: a bundled suite survives aggressive chaos injection.

The acceptance test for the fault-tolerant execution layer
(docs/FAULT_TOLERANCE.md): a bundled scenario suite — shrunk to smoke
size and extended with an adaptive variant — runs under the
deterministic chaos harness (`REPRO_CHAOS`: seeded worker kills and
injected exceptions on every cell's *first* dispatch attempt) with the
``retry`` cell-error policy, completes without aborting, quarantines
nothing, and writes per-scenario JSON plus summary.json **byte-identical**
to the chaos-free run — at one and at two workers, exact and adaptive.
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.helpers import shrunk

SUITE = "stuck_at_memory"
# attempts=1 disturbs only first dispatch attempts, so every retry runs
# clean and recovery must reproduce the undisturbed bytes exactly.
CHAOS = "kill=0.25,raise=0.25,seed=7,attempts=1"


def _smoke_suite():
    from repro.scenarios import ScenarioSuite, load_bundled

    base = load_bundled(SUITE)
    specs = tuple(shrunk(spec) for spec in base.specs)
    adaptive = dataclasses.replace(
        specs[0],
        name=f"{specs[0].name}-adaptive",
        mode="adaptive",
        ci_halfwidth=0.2,
    )
    return ScenarioSuite(name=f"{SUITE}-chaos-smoke", specs=specs + (adaptive,))


@pytest.fixture(scope="module")
def ctx():
    """One shared context: the tiny bundle trains once, chaos-free, so
    the chaos runs below disturb only the campaign cells themselves."""
    from repro.scenarios import smoke_context

    return smoke_context()


@pytest.fixture(scope="module")
def reference(ctx, tmp_path_factory):
    """Byte-for-byte outputs of the undisturbed single-process run."""
    from repro.scenarios import run_scenarios

    out = tmp_path_factory.mktemp("chaos-free")
    results = run_scenarios(_smoke_suite(), workers=1, out_dir=out, context=ctx)
    assert results
    files = {path.name: path.read_bytes() for path in out.glob("*.json")}
    assert "summary.json" in files
    return files


def test_chaos_spec_disturbs_this_suite():
    """Guard against a vacuous smoke: the seeded spec must actually
    schedule both kill and raise actions somewhere on this suite's grid."""
    from repro.core.chaos import ChaosPolicy

    policy = ChaosPolicy.parse(CHAOS)
    decisions = []
    for task_index, spec in enumerate(_smoke_suite().specs):
        trials = (0,) if spec.mode == "adaptive" else range(spec.trials)
        for rate_index in range(len(spec.rates)):
            for trial in trials:
                decisions.append(policy.decide(task_index, rate_index, trial, 0))
    assert "kill" in decisions
    assert "raise" in decisions


@pytest.mark.parametrize("workers", [1, 2])
def test_chaos_run_is_byte_identical(ctx, reference, tmp_path, monkeypatch, workers):
    from repro.core.executor import SupervisionPolicy
    from repro.scenarios import run_scenarios

    monkeypatch.setenv("REPRO_CHAOS", CHAOS)
    out = tmp_path / "out"
    results = run_scenarios(
        _smoke_suite(), workers=workers, out_dir=out, context=ctx,
        supervision=SupervisionPolicy(on_cell_error="retry"),
    )
    # Completed without aborting, and recovery left nothing quarantined.
    assert [result.name for result in results] == [
        spec.name for spec in _smoke_suite().specs
    ]
    assert all(not result.failed for result in results)
    produced = {path.name: path.read_bytes() for path in out.glob("*.json")}
    assert produced == reference
