"""One conformance matrix: how a suite runs never changes an output byte.

The bit-identity contract in one place.  A bundled smoke suite, extended
with an adaptive variant and an ECC variant of its first spec, must
write every output with the same sha256 as the plain single-process
run: ``store/cells.rcs``, ``summary.json``, every scenario JSON and the
``report.html`` that :func:`repro.results.write_report` renders from
the run directory.  That holds across

* workers {1, 2};
* chaos {off, ``kill=0.25,raise=0.25,seed=7,attempts=1`` under
  ``on_cell_error=retry``};
* sharding {unsharded, three shards + ``merge_run``};

and, unsharded and chaos-free, for

* a serial run with numpy's BLAS pinned to one thread;
* ``REPRO_NO_SUFFIX=1`` at workers 1 and 2;
* shared memory off at workers 2, so the tensor plane travels inline;
* scipy blocked from import at workers 1 and 2: scipy is a dev extra,
  and the adaptive scenario's ``ci_halfwidths`` are where an
  install-dependent quantile would show;

and when a run is killed from its progress callback mid-grid and then
resumed from its checkpoint journal, at workers 1 and 2.  The reference
runs at the process's own BLAS thread count, and the workers-2 runs at
the pool's budget (``max(1, cpus // 2)`` threads per worker), so on
hosts with more than one CPU the BLAS thread count is an axis of every
pooled case too.

Left out of the comparison: a sharded run's ``shards/`` tree (manifests,
partials, per-shard checkpoints and segments), which records how the
run was split rather than what it computed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import pytest

from tests.conftest import journal_cells
from tests.helpers import shrunk

SUITE = "stuck_at_memory"
CHAOS = "kill=0.25,raise=0.25,seed=7,attempts=1"
SHARDS = 3
KILL_AT = 5
STORE = "store/cells.rcs"


def _suite():
    from repro.scenarios import FaultModelSpec, ScenarioSuite, load_bundled

    base = load_bundled(SUITE)
    specs = tuple(shrunk(spec) for spec in base.specs)
    adaptive = dataclasses.replace(
        specs[0],
        name=f"{specs[0].name}-adaptive",
        mode="adaptive",
        ci_halfwidth=0.2,
    )
    # ECC samples over the unprotected clone the first spec runs on, so
    # the shared clone, its one clean pass and its once-placed plane
    # buffers go through every axis.
    ecc = dataclasses.replace(
        specs[0],
        name=f"{specs[0].name}-ecc",
        variant="ecc",
        fault_model=FaultModelSpec(),
    )
    return ScenarioSuite(
        name=f"{SUITE}-conformance", specs=specs + (adaptive, ecc)
    )


def _output_digests(run_dir) -> "dict[str, str]":
    """sha256 of the store, every JSON and the rendered ``report.html``."""
    from repro.results import write_report

    paths = [
        run_dir / STORE,
        *sorted(run_dir.glob("*.json")),
        write_report(run_dir),
    ]
    return {
        path.relative_to(run_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
    }


@pytest.fixture(scope="module")
def ctx():
    """One shared context: the tiny bundle trains once, chaos-free."""
    from repro.scenarios import smoke_context

    return smoke_context()


@pytest.fixture(scope="module")
def reference(ctx, tmp_path_factory) -> "dict[str, str]":
    from repro.scenarios import run_scenarios

    out = tmp_path_factory.mktemp("reference")
    run_scenarios(_suite(), workers=1, out_dir=out, context=ctx)
    return _output_digests(out)


@pytest.mark.parametrize("shards", [1, SHARDS])
@pytest.mark.parametrize("chaos", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_store_digest_is_invariant(
    ctx, reference, tmp_path, monkeypatch, workers, chaos, shards
):
    from repro.core.executor import SupervisionPolicy
    from repro.scenarios import merge_run, run_scenario_shard, run_scenarios

    if chaos:
        monkeypatch.setenv("REPRO_CHAOS", CHAOS)
    retry = SupervisionPolicy(on_cell_error="retry")
    out = tmp_path / "out"
    if shards == 1:
        results = run_scenarios(
            _suite(), workers=workers, out_dir=out, context=ctx,
            supervision=retry,
        )
    else:
        for index in range(1, shards + 1):
            run_scenario_shard(
                _suite(), f"{index}/{shards}", out, workers=workers,
                context=ctx, supervision=retry,
            )
        results = merge_run(out)
    assert all(not result.failed for result in results)
    assert _output_digests(out) == reference


@pytest.mark.parametrize(
    ("workers", "axis"),
    [
        (1, "blas-threads-1"),
        (1, "no-suffix"),
        (2, "no-suffix"),
        (2, "no-shm"),
        (1, "no-scipy"),
        (2, "no-scipy"),
    ],
)
def test_store_digest_is_invariant_to_blas_and_suffix(
    ctx, reference, tmp_path, monkeypatch, workers, axis
):
    import repro.utils.shm as shm
    from repro.scenarios import run_scenarios
    from repro.utils.blas import set_blas_threads

    restore = None
    if axis == "blas-threads-1":
        restore = set_blas_threads(1)
        if restore is None:  # pragma: no cover - numpy without OpenBLAS
            pytest.skip("numpy's BLAS thread count is not controllable here")
    elif axis == "no-suffix":
        monkeypatch.setenv("REPRO_NO_SUFFIX", "1")
    elif axis == "no-shm":
        monkeypatch.setattr(shm, "_shared_memory", None)
    else:
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
    out = tmp_path / "out"
    try:
        run_scenarios(_suite(), workers=workers, out_dir=out, context=ctx)
    finally:
        if restore is not None:
            set_blas_threads(restore)
    assert _output_digests(out) == reference


@pytest.mark.parametrize("workers", [1, 2])
def test_killed_run_resumes_from_journal(ctx, reference, tmp_path, workers):
    from repro.scenarios import run_scenarios

    class _Kill(RuntimeError):
        pass

    def killer(cell):
        if cell.completed == KILL_AT and not cell.from_checkpoint:
            raise _Kill("simulated crash")

    out = tmp_path / "out"
    journal = tmp_path / "sweep.jsonl"
    with pytest.raises(_Kill):
        run_scenarios(
            _suite(), workers=workers, out_dir=out, context=ctx,
            checkpoint=journal, progress=killer,
        )
    # Every cell up to the one the killer saw is already journaled.
    assert len(journal_cells(journal)) >= KILL_AT
    run_scenarios(
        _suite(), workers=workers, out_dir=out, context=ctx,
        checkpoint=journal,
    )
    assert _output_digests(out) == reference
