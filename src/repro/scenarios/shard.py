"""Multi-host campaign sharding: segmented, appendable run directories.

A scenario suite's expanded (rate x trial) cell matrix is embarrassingly
parallel — per-cell seeds depend only on ``(seed, rate index, trial)``
(:func:`repro.core.executor.cell_seed_path`), never on which host,
worker or subset evaluates the cell.  This module promotes that contract
into a fleet-scale execution model:

:class:`ShardPlan.split` partitions the suite's cells into N
self-contained shards (round-robin over the serial enumeration order:
scenario-major, rate-major, trial-minor).  Adaptive scenarios contribute
one cell per fault rate — the executor cell *is* the whole trial family
(:class:`~repro.core.batched.AdaptiveCampaignTask`), so stopping
decisions can never straddle a shard boundary.

:func:`run_scenario_shard` executes one shard on any host into a
segmented run directory::

    run_dir/
      shards/<i>-of-<N>/manifest.json    # identity + full spec list
      shards/<i>-of-<N>/checkpoint.jsonl # resumable, bound to i/N
      shards/<i>-of-<N>/partial/*.json   # this shard's cells
      summary.json, <scenario>.json      # written by merge_run

A run directory is appendable: shards may be produced by different
hosts at different times, re-running a shard resumes its own checkpoint
(whose fingerprint binds the shard identity and suite hash, so an
``i/N`` checkpoint refuses to resume as ``j/N`` or ``i/M``), and a late
shard simply lands next to the existing ones.

:func:`merge_run` validates the manifests (same suite hash, same shard
count, all shards present), reassembles per-shard cells into each
scenario's canonical value grid and hands it to the same
:func:`~repro.scenarios.compile.assemble_scenario_result` an unsharded
:func:`~repro.scenarios.compile.run_scenarios` run uses, so it writes
the same per-scenario JSON + ``summary.json`` — byte-identical for any
N and any shard completion order.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.scenarios.compile import (
    ScenarioContext,
    ScenarioResult,
    assemble_scenario_result,
    compile_spec,
    quarantined_by_task,
    scenario_file_stems,
    task_clean_accuracy,
    write_json_atomic,
    write_results,
)
from repro.scenarios.spec import CampaignSpec, ScenarioSuite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import CellResult, SupervisionPolicy

__all__ = [
    "SHARD_FORMAT_VERSION",
    "RUN_LAYOUT",
    "ShardSpec",
    "ShardPlan",
    "suite_fingerprint",
    "run_scenario_shard",
    "merge_run",
]

# Bumped when the manifest/partial schema changes incompatibly; merge
# refuses shards written under a different format.
SHARD_FORMAT_VERSION = 1

SHARDS_DIRNAME = "shards"
MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "checkpoint.jsonl"
PARTIAL_DIRNAME = "partial"
SUMMARY_NAME = "summary.json"

# The segmented run-directory layout, path pattern -> meaning.  The
# "Sharded & segmented runs" table in docs/SCENARIOS.md mirrors these
# entries and tests/test_docs_consistency.py enforces the match both
# directions.
RUN_LAYOUT = {
    "shards/<i>-of-<N>/manifest.json": (
        "shard identity: format version, suite name + hash, shard "
        "arithmetic, per-scenario grids, and the full expanded spec list"
    ),
    "shards/<i>-of-<N>/checkpoint.jsonl": (
        "the shard's resumable executor checkpoint, an append-only "
        "journal; its fingerprint binds i/N and the suite hash"
    ),
    "shards/<i>-of-<N>/partial/<scenario>.json": (
        "one scenario's cells executed by this shard, plus its clean "
        "accuracy and any quarantined (failed) cells"
    ),
    "shards/<i>-of-<N>/partial/cells.jsonl": (
        "the shard's append-only per-cell store segment, one record "
        "per logical cell as it completes (see docs/RESULTS.md)"
    ),
    "summary.json": (
        "the merged run summary, byte-identical to an unsharded run's"
    ),
    "<scenario>.json": (
        "per-scenario merged results, the same files as an unsharded "
        "--out run"
    ),
    "store/cells.rcs": (
        "the canonical columnar per-cell store, reassembled by merge "
        "byte-identical to the unsharded run's (see docs/RESULTS.md)"
    ),
}

_SHARD_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")


def suite_fingerprint(name: str, specs: Sequence[CampaignSpec]) -> str:
    """A content hash of the expanded suite (name + every spec).

    Canonical-JSON sha256 over ``CampaignSpec.to_dict`` payloads: two
    hosts agree on the hash iff they expanded the same suite, which is
    exactly what merging requires.
    """
    payload = {"name": name, "specs": [spec.to_dict() for spec in specs]}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity: 1-based ``index`` out of ``count``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        index, count = int(self.index), int(self.count)
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 1 <= index <= count:
            raise ValueError(
                f"shard index must lie in 1..{count}, got {index}"
            )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "count", count)

    @classmethod
    def parse(cls, text: "str | ShardSpec") -> "ShardSpec":
        """Parse the CLI form ``"i/N"`` (1-based)."""
        if isinstance(text, ShardSpec):
            return text
        match = _SHARD_RE.match(str(text))
        if match is None:
            raise ValueError(
                f"shard must look like 'i/N' (1-based), got {text!r}"
            )
        return cls(int(match.group(1)), int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"

    @property
    def dirname(self) -> str:
        return f"{self.index}-of-{self.count}"


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a suite's cells into N shards.

    Cells are enumerated in the executor's serial order (scenario-major,
    rate-major, trial-minor) and dealt round-robin: global cell ``k``
    belongs to shard ``(k mod N) + 1``.  Round-robin keeps every shard's
    load within one cell of even regardless of how rates and trials are
    distributed across scenarios.  Adaptive scenarios occupy one cell
    per rate — the whole (rate, trial-family) unit — so their stopping
    decisions are invariant to the shard count.
    """

    suite_name: str
    suite_hash: str
    specs: "tuple[CampaignSpec, ...]"
    count: int

    @classmethod
    def split(
        cls,
        suite: "ScenarioSuite | Sequence[CampaignSpec]",
        count: int,
    ) -> "ShardPlan":
        """Partition ``suite`` into ``count`` self-contained shards."""
        if isinstance(suite, ScenarioSuite):
            name, specs = suite.name, tuple(suite.specs)
        else:
            name, specs = "scenarios", tuple(suite)
        if not specs:
            raise ValueError("cannot shard an empty scenario suite")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique within a run")
        count = int(count)
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        return cls(
            suite_name=name,
            suite_hash=suite_fingerprint(name, specs),
            specs=specs,
            count=count,
        )

    def cells_for(
        self, shard: "ShardSpec | str"
    ) -> "list[list[tuple[int, int]]]":
        """Per-scenario ``(rate_index, trial)`` cells owned by one shard."""
        shard = ShardSpec.parse(shard)
        if shard.count != self.count:
            raise ValueError(
                f"shard {shard} does not belong to a {self.count}-way plan"
            )
        assigned: "list[list[tuple[int, int]]]" = []
        cursor = 0
        for spec in self.specs:
            n_rates, n_trials = spec.grid_shape
            mine: "list[tuple[int, int]]" = []
            for rate_index in range(n_rates):
                for trial in range(n_trials):
                    if cursor % self.count == shard.index - 1:
                        mine.append((rate_index, trial))
                    cursor += 1
            assigned.append(mine)
        return assigned

    def manifest(self, shard: "ShardSpec | str") -> dict:
        """The shard's self-contained identity record."""
        shard = ShardSpec.parse(shard)
        cells = self.cells_for(shard)
        return {
            "format": SHARD_FORMAT_VERSION,
            "suite": self.suite_name,
            "suite_hash": self.suite_hash,
            "shard": {"index": shard.index, "count": shard.count},
            "grid": {
                spec.name: {
                    "rates": spec.grid_shape[0],
                    "trials": spec.grid_shape[1],
                    "cells": len(mine),
                }
                for spec, mine in zip(self.specs, cells)
            },
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_manifest(cls, manifest: "dict") -> "ShardPlan":
        """Rebuild the plan a manifest was written from (hash-verified)."""
        specs = tuple(
            CampaignSpec.from_dict(payload) for payload in manifest["specs"]
        )
        plan = cls(
            suite_name=str(manifest["suite"]),
            suite_hash=str(manifest["suite_hash"]),
            specs=specs,
            count=int(manifest["shard"]["count"]),
        )
        actual = suite_fingerprint(plan.suite_name, specs)
        if actual != plan.suite_hash:
            raise ValueError(
                f"manifest suite hash {plan.suite_hash[:12]}... does not "
                f"match its own spec list ({actual[:12]}...); the manifest "
                "was corrupted or edited"
            )
        return plan


def run_scenario_shard(
    scenarios: "ScenarioSuite | Sequence[CampaignSpec]",
    shard: "ShardSpec | str",
    run_dir: "str | Path",
    workers: "int | None" = None,
    progress: "Callable | None" = None,
    context: "ScenarioContext | None" = None,
    supervision: "SupervisionPolicy | None" = None,
) -> Path:
    """Execute one shard of a suite into a segmented run directory.

    Only the scenarios owning cells in this shard are compiled (a shard
    never trains models it will not evaluate).  The shard's checkpoint
    lives inside its own segment directory and its fingerprint carries
    the shard identity and suite hash, so re-running the same shard
    resumes while any cross-shard or cross-suite resume is refused.
    Returns the shard directory.

    ``supervision`` is the executor's
    :class:`~repro.core.executor.SupervisionPolicy`; with
    ``on_cell_error != "abort"`` a cell that exhausts its retry budget
    is recorded on the partial's ``failed`` list (and left out of
    ``cells``) instead of aborting the shard — ``merge_run`` surfaces
    those cells rather than failing its coverage check.

    Every completed cell is also appended to the shard's own store
    segment (``partial/cells.jsonl``, see ``docs/RESULTS.md``) as it
    finishes; ``merge_run`` reassembles the segments and cross-checks
    them against the canonical columnar store of the merged results.
    """
    from repro.core.executor import CampaignExecutor

    shard = ShardSpec.parse(shard)
    if isinstance(scenarios, ScenarioSuite) and workers is None:
        workers = scenarios.workers
    workers = 1 if workers is None else workers
    plan = ShardPlan.split(scenarios, shard.count)

    shard_dir = Path(run_dir) / SHARDS_DIRNAME / shard.dirname
    shard_dir.mkdir(parents=True, exist_ok=True)
    manifest = plan.manifest(shard)
    manifest_path = shard_dir / MANIFEST_NAME
    if manifest_path.exists():
        existing = _read_shard_json(manifest_path)
        if existing != manifest:
            raise ValueError(
                f"shard directory {shard_dir} belongs to a different "
                "suite or plan (manifest mismatch); delete it or use a "
                "fresh run directory"
            )
    else:
        write_json_atomic(manifest_path, manifest)

    cells = plan.cells_for(shard)
    stems = scenario_file_stems([spec.name for spec in plan.specs])
    context = context if context is not None else ScenarioContext()

    owners: "list[int]" = []  # spec index per compiled task
    tasks: "list[Any]" = []
    task_cells: "list[list[tuple[int, int]]]" = []
    for spec_index, (spec, mine) in enumerate(zip(plan.specs, cells)):
        if not mine:
            continue
        owners.append(spec_index)
        tasks.append(compile_spec(spec, context))
        task_cells.append(mine)

    partial_dir = shard_dir / PARTIAL_DIRNAME
    partial_dir.mkdir(exist_ok=True)
    if tasks:
        from repro.results.store import SHARD_SEGMENT_FILENAME, SegmentRecorder

        recorder = SegmentRecorder(
            partial_dir / SHARD_SEGMENT_FILENAME,
            [plan.specs[index] for index in owners],
        )

        def record(cell: "CellResult") -> None:
            recorder.cell(cell)
            if progress is not None:
                progress(cell)

        executor = CampaignExecutor(
            workers=workers,
            progress=record,
            checkpoint=shard_dir / CHECKPOINT_NAME,
            checkpoint_extra={
                "shard": {
                    "index": shard.index,
                    "count": shard.count,
                    "suite_hash": plan.suite_hash,
                }
            },
            supervision=supervision,
        )
        try:
            _, grids = executor.run_grids(tasks, cells=task_cells)
            # Quarantined cells are not journaled (a resume retries
            # them) and merge canonicalizes the segment, so their
            # records can follow the pass.
            for failure in executor.quarantined:
                recorder.failure(failure)
        finally:
            recorder.close()
        failed_by_task = quarantined_by_task(executor.quarantined)
        for task_index, (spec_index, task, mine, grid) in enumerate(
            zip(owners, tasks, task_cells, grids)
        ):
            failed = failed_by_task.get(task_index, [])
            failed_cells = {
                (cell["rate_index"], cell["trial"]) for cell in failed
            }
            payload = {
                "format": SHARD_FORMAT_VERSION,
                "name": plan.specs[spec_index].name,
                "clean_accuracy": task_clean_accuracy(task),
                "cells": {
                    # A float, or a list for an adaptive family vector.
                    f"{rate_index}/{trial}": grid[rate_index, trial].tolist()
                    for rate_index, trial in mine
                    if (rate_index, trial) not in failed_cells
                },
            }
            if failed:
                # Quarantined cells leave "cells" (their grid entries
                # are NaN) and land here; absent entirely on fault-free
                # shards so those partials keep their historical bytes.
                payload["failed"] = failed
            write_json_atomic(
                partial_dir / f"{stems[spec_index]}.json", payload
            )
    return shard_dir


# What merge_run reads from each shard file (dotted keys are nested).
_MANIFEST_KEYS = ("suite", "suite_hash", "shard.index", "shard.count", "specs")
_PARTIAL_KEYS = ("clean_accuracy", "cells")


def _read_shard_json(path: Path, keys: "Sequence[str]" = ()) -> Any:
    """A shard file's JSON.  Shard files come from other hosts, so one
    that is not JSON or lacks one of ``keys`` raises a ValueError naming
    the file and the key."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        raise ValueError(f"{path} is not valid JSON ({error})") from None
    for key in keys:
        node = payload
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(
                    f"{path} has no {key!r} entry; the shard file is "
                    "truncated or was edited"
                )
            node = node[part]
    return payload


def _load_manifests(run_dir: Path) -> "list[tuple[Path, dict]]":
    """Every ``(shard_dir, manifest)`` under ``run_dir/shards/``."""
    shards_root = run_dir / SHARDS_DIRNAME
    if not shards_root.is_dir():
        raise FileNotFoundError(
            f"{run_dir} has no '{SHARDS_DIRNAME}/' directory; run "
            "`repro scenarios <suite> --shard i/N --out <run_dir>` first"
        )
    manifests = []
    for entry in sorted(shards_root.iterdir()):
        manifest_path = entry / MANIFEST_NAME
        if entry.is_dir() and manifest_path.exists():
            manifests.append(
                (entry, _read_shard_json(manifest_path, _MANIFEST_KEYS))
            )
    if not manifests:
        raise ValueError(f"no shard manifests found under {shards_root}")
    return manifests


def merge_run(run_dir: "str | Path") -> "list[ScenarioResult]":
    """Reassemble a segmented run into canonical merged outputs.

    Validates that every shard manifest describes the same suite (equal
    suite hashes and shard counts, each hash matching its own spec
    list), that shards ``1..N`` are all present, and that each shard's
    partial files cover exactly its assigned cells — where quarantined
    cells on a partial's ``failed`` list count as covered and are
    surfaced on the merged results (``failed_cells``) instead of
    failing the check.  Then rebuilds each
    scenario's value grid, assembles its result through
    :func:`~repro.scenarios.compile.assemble_scenario_result` (as an
    unsharded run does) and writes
    per-scenario JSON, ``summary.json`` and the canonical per-cell
    columnar store (``store/cells.rcs``) into ``run_dir`` — all
    byte-identical to the unsharded run.  Returns the results in suite
    order.

    Before anything is written, the append-only ``partial/cells.jsonl``
    segments of the shards that own cells are reassembled and
    cross-checked against that store, so a lossy, missing or
    inconsistent shard segment cannot merge silently (see
    ``docs/RESULTS.md``).
    """
    import numpy as np

    from repro.core.batched import adaptive_cell_width

    run_dir = Path(run_dir)
    manifests = _load_manifests(run_dir)

    reference = manifests[0][1]
    for shard_dir, manifest in manifests:
        if manifest.get("format") != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"{shard_dir} was written under shard format "
                f"{manifest.get('format')!r}; this code reads format "
                f"{SHARD_FORMAT_VERSION}"
            )
        if manifest["suite_hash"] != reference["suite_hash"]:
            raise ValueError(
                f"shard {shard_dir.name} was produced from a different "
                f"suite (suite hash {manifest['suite_hash'][:12]}... vs "
                f"{reference['suite_hash'][:12]}...); a run directory "
                "holds exactly one suite"
            )
        if manifest["shard"]["count"] != reference["shard"]["count"]:
            raise ValueError(
                f"shard {shard_dir.name} belongs to a "
                f"{manifest['shard']['count']}-way plan, not the run's "
                f"{reference['shard']['count']}-way plan"
            )

    plan = ShardPlan.from_manifest(reference)
    present = {m["shard"]["index"]: d for d, m in manifests}
    missing = [i for i in range(1, plan.count + 1) if i not in present]
    if missing:
        raise ValueError(
            f"run {run_dir} is incomplete: missing shard(s) "
            f"{', '.join(f'{i}/{plan.count}' for i in missing)} — run "
            "them (on any host) and merge again"
        )

    stems = scenario_file_stems([spec.name for spec in plan.specs])
    grids: "list[np.ndarray]" = []
    for spec in plan.specs:
        n_rates, n_trials = spec.grid_shape
        if spec.mode == "adaptive":
            width = adaptive_cell_width(
                spec.trials, weighted=spec.importance is not None
            )
            shape: "tuple[int, ...]" = (n_rates, n_trials, width)
        else:
            shape = (n_rates, n_trials)
        grids.append(np.full(shape, np.nan, dtype=np.float64))
    clean: "dict[int, float]" = {}
    failed_by_spec: "dict[int, list[dict]]" = {}
    owners: "dict[int, Path]" = {}  # the shards that own at least one cell

    for index in range(1, plan.count + 1):
        shard_dir = present[index]
        cells = plan.cells_for(ShardSpec(index, plan.count))
        if any(cells):
            owners[index] = shard_dir
        for spec_index, (spec, mine) in enumerate(zip(plan.specs, cells)):
            if not mine:
                continue
            partial_path = (
                shard_dir / PARTIAL_DIRNAME / f"{stems[spec_index]}.json"
            )
            if not partial_path.exists():
                raise ValueError(
                    f"shard {index}/{plan.count} has no partial result "
                    f"for scenario {spec.name!r} ({partial_path}); the "
                    "shard run is incomplete — re-run it to resume from "
                    "its checkpoint"
                )
            payload = _read_shard_json(partial_path, _PARTIAL_KEYS)
            recorded = payload["cells"]
            shard_failed = list(payload.get("failed", []))
            failed_keys = {
                f"{cell['rate_index']}/{cell['trial']}"
                for cell in shard_failed
            }
            expected = {f"{r}/{t}" for r, t in mine}
            # Quarantined cells count toward coverage: a shard that gave
            # up on a cell still accounted for it, and the merged output
            # surfaces it as a failed outcome instead of this error.
            if set(recorded) | failed_keys != expected or (
                set(recorded) & failed_keys
            ):
                raise ValueError(
                    f"{partial_path} covers cells "
                    f"{sorted(set(recorded) | failed_keys)} but shard "
                    f"{index}/{plan.count} owns {sorted(expected)}; the "
                    "partial does not match the plan"
                )
            if shard_failed:
                failed_by_spec.setdefault(spec_index, []).extend(
                    dict(cell) for cell in shard_failed
                )
            value = float(payload["clean_accuracy"])
            if spec_index in clean and clean[spec_index] != value:
                raise ValueError(
                    f"shards disagree on the clean accuracy of "
                    f"{spec.name!r} ({clean[spec_index]!r} vs {value!r}); "
                    "were they produced by different code or data?"
                )
            clean[spec_index] = value
            for key, cell_value in recorded.items():
                rate_index, trial = (int(part) for part in key.split("/"))
                grids[spec_index][rate_index, trial] = cell_value

    for records in failed_by_spec.values():
        records.sort(key=lambda cell: (cell["rate_index"], cell["trial"]))
    results = [
        assemble_scenario_result(
            spec, spec.rates, grids[spec_index], clean[spec_index],
            failed=failed_by_spec.get(spec_index, ()),
        )
        for spec_index, spec in enumerate(plan.specs)
    ]
    _verify_segment_store(run_dir, plan.count, owners, results)
    write_results(results, run_dir, suite=plan.suite_name)
    return results


def _verify_segment_store(
    run_dir: Path,
    count: int,
    owners: "dict[int, Path]",
    results: "Sequence[ScenarioResult]",
) -> None:
    """Cross-check the shards' append-only segments against the store.

    Reassembling the per-shard ``partial/cells.jsonl`` segments must
    reproduce exactly the canonical store derived from the merged
    results — the lossless-reassembly contract of ``docs/RESULTS.md``.
    ``owners`` maps each shard that owns a cell to its directory; a
    shard that owns none writes no segment and is not read.
    """
    from repro.results.store import (
        SHARD_SEGMENT_FILENAME,
        read_segments,
        store_from_results,
    )

    segments = []
    for index, shard_dir in sorted(owners.items()):
        path = shard_dir / PARTIAL_DIRNAME / SHARD_SEGMENT_FILENAME
        if not path.exists():
            raise ValueError(
                f"shard {index}/{count} owns cells but has no per-cell "
                f"segment ({path}); re-run the shard to rebuild it from "
                "its checkpoint"
            )
        segments.append(path)
    reassembled = read_segments(segments).canonical()
    expected = store_from_results(results)
    if reassembled != expected:
        raise ValueError(
            f"the shards' per-cell store segments under {run_dir} do "
            "not reassemble to the merged results' store; a shard "
            "recorded different cells than its partial JSON claims "
            "(see docs/RESULTS.md)"
        )
