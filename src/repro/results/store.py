"""Append-only columnar per-cell result store.

Campaign output used to be aggregate JSON per scenario: once a sweep
finished, the per-cell record (which trial, which seed path, which
outcome) was gone, and every new metric meant re-running the
Monte-Carlo sweep.  This module keeps the cells.

One :class:`CellRecord` describes one *logical* campaign cell — a
``(scenario, rate_index, trial)`` coordinate with its accuracy, outcome
class, engine provenance (seed, batch_k, importance weight) and, for
quarantined cells, the failure fields of
:data:`~repro.core.executor.FAILED_CELL_FIELDS`.  The schema is fixed:
:data:`CELL_COLUMNS` is the single source of truth, mirrored by the
store-schema table in ``docs/RESULTS.md`` and enforced both directions
by ``tests/test_docs_consistency.py``.

Records flow through two representations:

* **Segments** (:class:`SegmentRecorder`, :func:`read_segment`) — an
  append-only JSON-lines file each shard of a sharded run writes
  incrementally while it executes, one line per record, flushed per
  cell.  A killed shard keeps every completed cell; a resumed shard
  trims a torn last line, appends its replayed cells again, and
  canonicalization collapses the duplicates (which must be
  bit-identical — re-recording is itself a determinism check).
* **The canonical store** (:class:`CellStore`, :data:`STORE_FILENAME`)
  — a self-contained binary *columnar* file: a JSON header (format
  version, row count, per-column dtype and dictionary) followed by one
  contiguous little-endian buffer per column, strings
  dictionary-encoded.  Canonical order is content-only (scenario name,
  rate index, trial), so the bytes are invariant to shard count,
  completion order and worker count — ``repro merge`` of an N-way
  sharded run reproduces the unsharded store byte for byte.

:func:`store_from_results` expands each assembled
:class:`~repro.scenarios.compile.ScenarioResult`'s value grid through
the same :func:`records_from_value` / :func:`records_from_failure` the
segment recorder uses; the property tests assert it equals the store
reassembled from the incrementally written segments, and that
aggregates recomputed from the cells match the scenario JSON exactly.
See ``docs/RESULTS.md``.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.utils.serialization import atomic_write, trim_torn_tail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import CellResult
    from repro.scenarios.compile import ScenarioResult
    from repro.scenarios.spec import CampaignSpec

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_DIRNAME",
    "STORE_FILENAME",
    "SHARD_SEGMENT_FILENAME",
    "CELL_COLUMNS",
    "OUTCOME_CLASSES",
    "CellRecord",
    "CellStore",
    "SegmentRecorder",
    "read_segment",
    "read_segments",
    "records_from_value",
    "records_from_failure",
    "store_from_results",
    "store_path",
    "write_store",
    "read_store",
]

# Bumped when the record schema or container layout changes
# incompatibly; readers refuse other formats.
STORE_FORMAT_VERSION = 1

# Layout inside a run directory: run/store/cells.rcs (canonical) plus,
# in a sharded run, the incrementally appended
# shards/<i>-of-<N>/partial/cells.jsonl (one segment per shard).
STORE_DIRNAME = "store"
STORE_FILENAME = "cells.rcs"
SHARD_SEGMENT_FILENAME = "cells.jsonl"

_MAGIC = b"RCSTORE1"

# Outcome class of one logical cell:
#   ok      - the cell executed and its accuracy is recorded
#   failed  - the cell was quarantined (supervised executor; the
#             reason/attempts/error fields carry the failure)
#   skipped - an adaptive family stopped before reaching this trial
OUTCOME_CLASSES = ("ok", "failed", "skipped")

# The fixed per-cell schema: column name -> (dtype, meaning).  Dtypes
# are "str" (dictionary-encoded int32 codes), "int" (int64) and
# "float" (float64, NaN-preserving).  The store-schema table in
# docs/RESULTS.md mirrors these rows and tests/test_docs_consistency.py
# enforces the match both directions.
CELL_COLUMNS = {
    "scenario": ("str", "owning scenario name (unique within a run)"),
    "campaign": ("str", "campaign kind: weight, quantized or activation"),
    "variant": ("str", "mitigation variant the cell ran under"),
    "fault_model": ("str", "fault-model name from the spec"),
    "mode": ("str", "execution mode: exact or adaptive"),
    "rate_index": ("int", "index into the scenario's fault-rate grid"),
    "fault_rate": ("float", "fault rate of the cell's rate family"),
    "trial": ("int", "trial index inside the rate family"),
    "seed": ("int", "spec seed; the cell RNG path is rate/<i>/trial/<t>"),
    "batch_k": ("int", "adaptive chunk width the spec requested"),
    "outcome": ("str", "outcome class: ok, failed or skipped"),
    "accuracy": ("float", "cell accuracy (NaN unless the outcome is ok)"),
    "weight": (
        "float",
        "importance weight of the trial (1.0 unweighted; NaN unless ok)",
    ),
    "reason": ("str", "failure reason of a failed cell ('' otherwise)"),
    "attempts": ("int", "dispatch attempts behind a failed cell (0 otherwise)"),
    "error": ("str", "rendering of a failed cell's last error ('' otherwise)"),
}

_KINDS = {"str", "int", "float"}


def _canonical_float(value: Any) -> float:
    """A float with one NaN representation, so equality is bytewise."""
    value = float(value)
    return float("nan") if math.isnan(value) else value


@dataclass(frozen=True)
class CellRecord:
    """One logical campaign cell, in :data:`CELL_COLUMNS` order.

    Equality treats NaN as equal to NaN (records are compared for
    byte-level determinism, not IEEE arithmetic), which :meth:`sort_key`
    and the bit-pattern float packing below make exact.
    """

    scenario: str
    campaign: str
    variant: str
    fault_model: str
    mode: str
    rate_index: int
    fault_rate: float
    trial: int
    seed: int
    batch_k: int
    outcome: str
    accuracy: float
    weight: float
    reason: str = ""
    attempts: int = 0
    error: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOME_CLASSES:
            raise ValueError(
                f"outcome must be one of {OUTCOME_CLASSES}, "
                f"got {self.outcome!r}"
            )
        for name, (kind, _) in CELL_COLUMNS.items():
            value = getattr(self, name)
            if kind == "str":
                object.__setattr__(self, name, str(value))
            elif kind == "int":
                object.__setattr__(self, name, int(value))
            else:
                object.__setattr__(self, name, _canonical_float(value))
        if self.rate_index < 0 or self.trial < 0 or self.attempts < 0:
            raise ValueError(
                "rate_index, trial and attempts must be non-negative"
            )

    def sort_key(self) -> "tuple[str, int, int]":
        """Canonical, content-only store order."""
        return (self.scenario, self.rate_index, self.trial)

    def _packed(self) -> tuple:
        return tuple(
            struct.pack("<d", getattr(self, name))
            if kind == "float"
            else getattr(self, name)
            for name, (kind, _) in CELL_COLUMNS.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellRecord):
            return NotImplemented
        return self._packed() == other._packed()

    def __hash__(self) -> int:
        return hash(self._packed())

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready mapping (one segment line)."""
        return {name: getattr(self, name) for name in CELL_COLUMNS}

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "CellRecord":
        unknown = set(mapping) - set(CELL_COLUMNS)
        if unknown:
            raise ValueError(
                f"unknown cell-record field(s) {sorted(unknown)}; the "
                f"schema is {sorted(CELL_COLUMNS)}"
            )
        missing = set(CELL_COLUMNS) - set(mapping)
        if missing:
            raise ValueError(
                f"cell record is missing field(s) {sorted(missing)}"
            )
        return cls(**{name: mapping[name] for name in CELL_COLUMNS})


assert {f.name for f in fields(CellRecord)} == set(CELL_COLUMNS), (
    "CellRecord fields and CELL_COLUMNS must stay in lockstep"
)


class CellStore:
    """An ordered collection of :class:`CellRecord` rows.

    The in-memory facade over both representations: build one from
    records (``CellStore(records)``), from segments
    (:func:`read_segments`) or from a canonical file (:meth:`read`);
    :meth:`canonical` sorts and deduplicates; :meth:`to_bytes` emits
    the deterministic columnar container.
    """

    def __init__(self, records: "Iterable[CellRecord]" = ()):
        self.records: "list[CellRecord]" = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellStore):
            return NotImplemented
        return self.records == other.records

    def append(self, record: CellRecord) -> None:
        self.records.append(record)

    def extend(self, records: "Iterable[CellRecord]") -> None:
        self.records.extend(records)

    # ------------------------------------------------------------------ #
    # canonicalization
    # ------------------------------------------------------------------ #

    def canonical(self) -> "CellStore":
        """Sort into content order and collapse duplicate coordinates.

        Duplicates appear when a resumed run re-records checkpointed
        cells, or when a quarantined cell is re-executed by a later
        resume.  The rules: an executed (``ok``/``skipped``) record
        beats a ``failed`` one for the same coordinate; duplicate
        executed records must be identical (anything else means the
        run was *not* deterministic and is an error worth raising);
        among ``failed`` duplicates the last appended wins (the most
        recent attempt).
        """
        chosen: "dict[tuple, CellRecord]" = {}
        for record in self.records:
            key = record.sort_key()
            existing = chosen.get(key)
            if existing is None:
                chosen[key] = record
                continue
            if existing.outcome != "failed" and record.outcome != "failed":
                if existing != record:
                    raise ValueError(
                        f"conflicting records for cell {key}: the run "
                        "re-recorded a cell with different content, "
                        "which breaks the determinism contract"
                    )
                continue
            if existing.outcome == "failed":
                # ok/skipped beats failed; a newer failed beats older.
                chosen[key] = record
        return CellStore(
            sorted(chosen.values(), key=CellRecord.sort_key)
        )

    def scenarios(self) -> "list[str]":
        """Distinct scenario names, in first-appearance order."""
        seen: "dict[str, None]" = {}
        for record in self.records:
            seen.setdefault(record.scenario, None)
        return list(seen)

    def select(self, **equals: Any) -> "CellStore":
        """Rows whose columns equal the given values (column=value)."""
        unknown = set(equals) - set(CELL_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column(s) {sorted(unknown)}")
        return CellStore(
            record
            for record in self.records
            if all(
                getattr(record, name) == value
                for name, value in equals.items()
            )
        )

    def outcome_counts(self) -> "dict[str, int]":
        counts = {outcome: 0 for outcome in OUTCOME_CLASSES}
        for record in self.records:
            counts[record.outcome] += 1
        return counts

    # ------------------------------------------------------------------ #
    # the columnar container
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """The canonical columnar container (deterministic bytes)."""
        columns: "list[dict[str, Any]]" = []
        payloads: "list[bytes]" = []
        for name, (kind, _) in CELL_COLUMNS.items():
            values = [getattr(record, name) for record in self.records]
            meta: "dict[str, Any]" = {"name": name, "kind": kind}
            if kind == "str":
                uniques = sorted(set(values))
                codes = {value: index for index, value in enumerate(uniques)}
                meta["values"] = uniques
                payloads.append(
                    b"".join(
                        struct.pack("<i", codes[value]) for value in values
                    )
                )
            elif kind == "int":
                payloads.append(
                    b"".join(struct.pack("<q", value) for value in values)
                )
            else:
                payloads.append(
                    b"".join(struct.pack("<d", value) for value in values)
                )
            columns.append(meta)
        header = json.dumps(
            {
                "format": STORE_FORMAT_VERSION,
                "count": len(self.records),
                "columns": columns,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return b"".join(
            [_MAGIC, struct.pack("<q", len(header)), header, *payloads]
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CellStore":
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError(
                "not a repro cell store (bad magic); expected a "
                f"{STORE_FILENAME} file"
            )
        offset = len(_MAGIC)
        (header_len,) = struct.unpack_from("<q", blob, offset)
        offset += 8
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
        offset += header_len
        if header.get("format") != STORE_FORMAT_VERSION:
            raise ValueError(
                f"cell store format {header.get('format')!r} is not "
                f"readable by this code (format {STORE_FORMAT_VERSION})"
            )
        if [c["name"] for c in header["columns"]] != list(CELL_COLUMNS):
            raise ValueError(
                "cell store columns do not match the CELL_COLUMNS schema"
            )
        count = int(header["count"])
        data: "dict[str, list[Any]]" = {}
        for meta in header["columns"]:
            name, kind = meta["name"], meta["kind"]
            if kind != CELL_COLUMNS[name][0]:
                raise ValueError(
                    f"column {name!r} has kind {kind!r}, expected "
                    f"{CELL_COLUMNS[name][0]!r}"
                )
            if kind == "str":
                uniques = list(meta["values"])
                codes = struct.unpack_from(f"<{count}i", blob, offset)
                offset += 4 * count
                data[name] = [uniques[code] for code in codes]
            elif kind == "int":
                data[name] = list(struct.unpack_from(f"<{count}q", blob, offset))
                offset += 8 * count
            else:
                data[name] = list(struct.unpack_from(f"<{count}d", blob, offset))
                offset += 8 * count
        if offset != len(blob):
            raise ValueError(
                f"cell store has {len(blob) - offset} trailing byte(s); "
                "the file is corrupt"
            )
        return cls(
            CellRecord(
                **{name: data[name][row] for name in CELL_COLUMNS}
            )
            for row in range(count)
        )

    def write(self, path: "str | Path") -> Path:
        """Atomically write the container (:func:`atomic_write`)."""
        path = Path(path)
        with atomic_write(path) as tmp:
            tmp.write_bytes(self.to_bytes())
        return path

    @classmethod
    def read(cls, path: "str | Path") -> "CellStore":
        return cls.from_bytes(Path(path).read_bytes())


def store_path(run_dir: "str | Path") -> Path:
    """The canonical store file of a run directory."""
    return Path(run_dir) / STORE_DIRNAME / STORE_FILENAME


def write_store(store: CellStore, run_dir: "str | Path") -> Path:
    """Canonicalize and write ``store`` into ``run_dir``; returns the path."""
    return store.canonical().write(store_path(run_dir))


def read_store(run_dir: "str | Path") -> CellStore:
    """Read a run directory's canonical store."""
    return CellStore.read(store_path(run_dir))


# --------------------------------------------------------------------- #
# record derivation (shared by the live recorder and result assembly)
# --------------------------------------------------------------------- #


def _spec_fields(spec: "CampaignSpec") -> dict[str, Any]:
    return {
        "scenario": spec.name,
        "campaign": spec.campaign,
        "variant": spec.variant,
        "fault_model": spec.fault_model.name,
        "mode": spec.mode,
        "seed": spec.seed,
        "batch_k": spec.batch_k,
    }


def records_from_value(
    spec: "CampaignSpec",
    rate_index: int,
    trial: int,
    value: "float | Sequence[float]",
) -> "list[CellRecord]":
    """Expand one executed executor cell into logical records.

    Exact-mode cells map one-to-one.  An adaptive cell is the whole
    trial *family* — its vector ``[estimate, executed, acc_0.., w_0..]``
    (see :func:`~repro.core.batched.adaptive_cell_width`) expands into
    one ``ok`` record per executed trial and one ``skipped`` record per
    early-stopped trial.
    """
    base = _spec_fields(spec)
    rate = float(spec.rates[rate_index])
    if spec.mode != "adaptive":
        return [
            CellRecord(
                rate_index=rate_index,
                fault_rate=rate,
                trial=trial,
                outcome="ok",
                accuracy=float(value),
                weight=1.0,
                **base,
            )
        ]
    vector = [float(v) for v in value]
    total = int(spec.trials)
    weighted = spec.importance is not None
    executed = int(vector[1])
    records = []
    for family_trial in range(total):
        if family_trial < executed:
            outcome = "ok"
            accuracy = vector[2 + family_trial]
            weight = vector[2 + total + family_trial] if weighted else 1.0
        else:
            outcome, accuracy, weight = "skipped", float("nan"), float("nan")
        records.append(
            CellRecord(
                rate_index=rate_index,
                fault_rate=rate,
                trial=family_trial,
                outcome=outcome,
                accuracy=accuracy,
                weight=weight,
                **base,
            )
        )
    return records


def records_from_failure(
    spec: "CampaignSpec", failure: Mapping[str, Any]
) -> "list[CellRecord]":
    """Quarantined-cell records from one failed-cell mapping.

    ``failure`` carries the per-cell slice of
    :data:`~repro.core.executor.FAILED_CELL_FIELDS`
    (``rate_index``/``trial``/``reason``/``attempts``/``error``).  For
    adaptive scenarios the executor cell is the whole trial family, so
    every trial of the family is recorded as ``failed`` with the same
    reason — the store needs no side-channel to explain a NaN row.
    """
    base = _spec_fields(spec)
    rate_index = int(failure["rate_index"])
    trials = (
        range(int(spec.trials))
        if spec.mode == "adaptive"
        else (int(failure["trial"]),)
    )
    return [
        CellRecord(
            rate_index=rate_index,
            fault_rate=float(spec.rates[rate_index]),
            trial=trial,
            outcome="failed",
            accuracy=float("nan"),
            weight=float("nan"),
            reason=str(failure.get("reason", "")),
            attempts=int(failure.get("attempts", 0)),
            error=str(failure.get("error", "")),
            **base,
        )
        for trial in trials
    ]


def store_from_results(results: "Sequence[ScenarioResult]") -> CellStore:
    """The canonical store as a pure function of assembled results.

    Every executor cell of each result's value grid expands through
    :func:`records_from_value`, or through :func:`records_from_failure`
    when the result lists it as quarantined — the same expansion the
    live :class:`SegmentRecorder` applies, so every logical cell becomes
    exactly one record.  Because merged results are bit-identical to
    unsharded ones, so is the store this returns.
    """
    store = CellStore()
    for result in results:
        failed = {
            (int(cell["rate_index"]), int(cell["trial"])): cell
            for cell in result.failed
        }
        n_rates, n_cells = result.values.shape[:2]
        for cell in itertools.product(range(n_rates), range(n_cells)):
            store.extend(
                records_from_failure(result.spec, failed[cell])
                if cell in failed
                else records_from_value(result.spec, *cell, result.values[cell])
            )
    return store.canonical()


# --------------------------------------------------------------------- #
# the live segment recorder (executor hook)
# --------------------------------------------------------------------- #


class SegmentRecorder:
    """Executor recorder streaming one JSONL line per logical cell.

    Plugged into :class:`~repro.core.executor.CampaignExecutor` via its
    ``recorder`` parameter: :meth:`cell` fires for every completed (or
    checkpoint-replayed) executor cell, :meth:`failure` for every
    quarantined one.  ``specs`` is parallel to the executor's task
    indices, so the recorder can expand adaptive family vectors and
    stamp spec provenance without side channels.  Lines are flushed per
    record — a killed run keeps every completed cell on disk.
    """

    def __init__(
        self, path: "str | Path", specs: "Sequence[CampaignSpec]"
    ):
        self.path = Path(path)
        self.specs = list(specs)
        self._handle = None

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                # Appended records must start on a line of their own.
                trim_torn_tail(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _write(self, records: "Iterable[CellRecord]") -> None:
        handle = self._open()
        for record in records:
            handle.write(
                json.dumps(record.to_dict(), sort_keys=True) + "\n"
            )
        handle.flush()

    def cell(self, result: "CellResult") -> None:
        if result.failed:
            return  # the failure() callback carries the full record
        spec = self.specs[result.campaign_index]
        value: "float | tuple[float, ...]" = (
            result.values if result.values is not None else result.accuracy
        )
        self._write(
            records_from_value(spec, result.rate_index, result.trial, value)
        )

    def failure(self, record: Mapping[str, Any]) -> None:
        spec = self.specs[int(record["task_index"])]
        self._write(records_from_failure(spec, record))

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.close()

    def __enter__(self) -> "SegmentRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_segment(path: "str | Path") -> CellStore:
    """All records of one append-only segment file, in append order."""
    store = CellStore()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                store.append(CellRecord.from_dict(json.loads(line)))
            except (ValueError, TypeError) as error:
                raise ValueError(
                    f"{path}:{line_number}: bad cell record ({error})"
                ) from error
    return store


def read_segments(paths: "Iterable[str | Path]") -> CellStore:
    """Concatenate several segments (e.g. one per shard), uncanonicalized."""
    store = CellStore()
    for path in paths:
        store.extend(read_segment(path))
    return store
