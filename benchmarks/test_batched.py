"""Adaptive early stopping vs the exact grid on a paper-figure spec.

Runs the bundled Fig. 1b scenario (unprotected AlexNet weight campaign)
twice under the smoke-sized context — once as the exact ``rates x
trials`` grid, once in adaptive mode with a CI-half-width tolerance —
and records wall clock, cells executed/skipped and the achieved
interval widths in ``benchmarks/results/BENCH_batched.json`` (append-only
per-SHA history, like BENCH_campaign.json).

Asserted, not just reported:

* adaptive executes at least 3x fewer cells than the exact grid while
  every family's final CI half-width meets the tolerance;
* the executed trials are bit-identical to the exact sweep's prefix
  (common random numbers survive the stopping layer);
* on a multi-core host (the ROADMAP multi-core gate) the sweep re-runs
  with two workers and must reproduce the stopping decisions exactly.
"""

import dataclasses
import json
import os
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, git_sha, write_tracked
from repro.scenarios import load_bundled
from repro.scenarios.compile import run_scenarios, smoke_context

TRIALS_CEILING = 32
TOLERANCE = 0.06
BATCH_K = 4
MIN_SAVINGS = 3.0


def _append_history(path, entry: dict) -> dict:
    """Merge ``entry`` into the per-SHA history (replacing same-SHA runs)."""
    history: list[dict] = []
    if path.exists():
        stored = json.loads(path.read_text())
        history = list(stored.get("history", []))
    history = [item for item in history if item.get("sha") != entry["sha"]]
    history.append(entry)
    return {"benchmark": "batched_adaptive", "history": history}


def test_bench_adaptive_vs_exact_grid(record_result):
    context = smoke_context()
    suite = load_bundled("fig1b_unprotected")
    [base] = suite.specs
    # The smoke context's test split holds 64 images; size the spec to it.
    exact_spec = dataclasses.replace(
        base,
        trials=TRIALS_CEILING,
        mode="exact",
        batch_k=BATCH_K,
        eval_images=64,
        batch_size=64,
    )
    adaptive_spec = dataclasses.replace(
        base,
        name=f"{base.name}-adaptive",
        trials=TRIALS_CEILING,
        mode="adaptive",
        ci_halfwidth=TOLERANCE,
        batch_k=BATCH_K,
        eval_images=64,
        batch_size=64,
    )

    start = time.perf_counter()
    [exact] = run_scenarios([exact_spec], context=context)
    exact_seconds = time.perf_counter() - start

    start = time.perf_counter()
    [adaptive] = run_scenarios([adaptive_spec], context=context)
    adaptive_seconds = time.perf_counter() - start

    result = adaptive.adaptive
    assert result is not None, "adaptive spec must produce an AdaptiveResult"

    # --- the acceptance criteria -------------------------------------- #
    assert result.cells_total == len(base.rates) * TRIALS_CEILING
    savings = result.cells_total / result.cells_executed
    assert savings >= MIN_SAVINGS, (
        f"adaptive executed {result.cells_executed}/{result.cells_total} "
        f"cells ({savings:.2f}x saving, need >= {MIN_SAVINGS}x)"
    )
    max_halfwidth = float(result.halfwidths.max())
    assert max_halfwidth <= TOLERANCE, (
        f"achieved CI half-widths {result.halfwidths} exceed {TOLERANCE}"
    )
    # Executed trials are the exact sweep's prefix, bit for bit.
    for index in range(result.fault_rates.size):
        executed = int(result.executed[index])
        np.testing.assert_array_equal(
            result.accuracies[index, :executed],
            exact.curve.accuracies[index, :executed],
        )

    # --- the ROADMAP multi-core gate ----------------------------------- #
    cpus = os.cpu_count() or 1
    parallel_checked = False
    if cpus >= 2:
        assert cpus >= 2  # explicit: this entry was produced multi-core
        [parallel] = run_scenarios([adaptive_spec], workers=2, context=context)
        assert parallel.adaptive.to_dict() == result.to_dict()
        parallel_checked = True

    entry = {
        "sha": git_sha(),
        "cpus": cpus,
        "spec": base.name,
        "rates": [float(r) for r in base.rates],
        "trials_ceiling": TRIALS_CEILING,
        "tolerance": TOLERANCE,
        "batch_k": BATCH_K,
        "exact_seconds": round(exact_seconds, 3),
        "adaptive_seconds": round(adaptive_seconds, 3),
        "speedup": round(exact_seconds / adaptive_seconds, 2),
        "cells_total": result.cells_total,
        "cells_executed": result.cells_executed,
        "cells_skipped": result.cells_skipped,
        "savings_ratio": round(savings, 2),
        "max_ci_halfwidth": round(max_halfwidth, 4),
        "executed_per_rate": [int(n) for n in result.executed],
        "two_worker_identity_checked": parallel_checked,
        "context": "smoke",
    }
    path = RESULTS_DIR / "BENCH_batched.json"
    payload = _append_history(path, entry)
    write_tracked(path, json.dumps(payload, indent=2) + "\n")

    lines = [
        "Batched adaptive stopping vs exact grid (bundled fig1b spec, smoke context)",
        f"  grid: {len(base.rates)} rates x {TRIALS_CEILING} trials ceiling, "
        f"tolerance {TOLERANCE}, batch_k {BATCH_K}",
        f"  exact    : {result.cells_total:4d} cells in {exact_seconds:6.2f}s",
        f"  adaptive : {result.cells_executed:4d} cells in {adaptive_seconds:6.2f}s "
        f"({savings:.1f}x fewer cells, {exact_seconds / adaptive_seconds:.1f}x wall clock)",
        f"  max CI half-width achieved: {max_halfwidth:.4f}",
        f"  executed per rate: {[int(n) for n in result.executed]}",
        f"  cpus={cpus} two_worker_identity_checked={parallel_checked}",
    ]
    record_result("BENCH_batched", "\n".join(lines))
