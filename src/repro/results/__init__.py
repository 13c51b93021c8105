"""Per-cell result store and static run diagnostics.

:mod:`repro.results.store` keeps every executor cell as one
fixed-schema record — appended incrementally while a shard executes
and reassembled losslessly by ``repro merge`` into a canonical columnar
file whose bytes are invariant to shard count, worker count and
completion order.  :mod:`repro.results.report` renders a run directory
(and optionally the per-SHA benchmark histories) into one
deterministic, self-contained HTML page.  See ``docs/RESULTS.md``.
"""

from repro.results.report import (
    REPORT_FILENAME,
    REPORT_SECTIONS,
    load_run,
    render_report,
    write_report,
)
from repro.results.store import (
    CELL_COLUMNS,
    OUTCOME_CLASSES,
    SHARD_SEGMENT_FILENAME,
    STORE_DIRNAME,
    STORE_FILENAME,
    STORE_FORMAT_VERSION,
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

__all__ = [
    "CELL_COLUMNS",
    "OUTCOME_CLASSES",
    "REPORT_FILENAME",
    "REPORT_SECTIONS",
    "SHARD_SEGMENT_FILENAME",
    "STORE_DIRNAME",
    "STORE_FILENAME",
    "STORE_FORMAT_VERSION",
    "CellRecord",
    "CellStore",
    "SegmentRecorder",
    "load_run",
    "read_segment",
    "read_segments",
    "read_store",
    "records_from_failure",
    "records_from_value",
    "render_report",
    "store_from_results",
    "store_path",
    "write_report",
    "write_store",
]
