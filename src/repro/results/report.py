"""``repro report``: static, self-contained run diagnostics.

:func:`render_report` turns one scenario run directory (the output of
``repro scenarios`` / ``repro merge``) into a single deterministic HTML
file — resilience-curve figures as inline SVG, per-scenario drill-down
tables, a quarantine summary sourced from the per-cell store, and
optional cross-run diffs against the per-SHA ``BENCH_*.json`` benchmark
histories.  No JavaScript, no external assets, no plotting
dependencies: the page is a pure function of the run directory's bytes,
so rendering the same run twice — or rendering an N-way sharded merge
vs the unsharded run — produces byte-identical HTML, which the golden
tests assert.

The section list is fixed: :data:`REPORT_SECTIONS` is the source of
truth, mirrored by the report-sections table in ``docs/RESULTS.md``
and enforced both directions by ``tests/test_docs_consistency.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from html import escape
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.reporting import (
    CATEGORICAL_COLORS,
    RawHTML,
    format_rate,
    html_table,
    svg_resilience_figure,
)
from repro.results.store import CellStore, read_store, store_path

__all__ = [
    "REPORT_FILENAME",
    "REPORT_SECTIONS",
    "load_run",
    "render_report",
    "write_report",
]

REPORT_FILENAME = "report.html"

# Section id -> what it shows.  Every render emits exactly these
# sections in this order; docs/RESULTS.md mirrors the table and the
# docs-consistency tests enforce the match both directions.
REPORT_SECTIONS = {
    "overview": "run identity, outcome tallies and the scenario matrix",
    "curves": "combined resilience-curve figure (mean accuracy vs fault rate)",
    "scenarios": "per-scenario drill-down: figure plus per-rate statistics",
    "quarantine": "quarantined cells with failure reason and attempts",
    "history": "cross-run diffs against the per-SHA BENCH_*.json histories",
}

# At most this many series share the combined figure; beyond it the
# figure is omitted (colors are assigned in fixed order, never cycled)
# and the per-scenario figures carry the curves instead.
MAX_COMBINED_SERIES = len(CATEGORICAL_COLORS)

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; color: #1a1a24;
       margin: 2rem auto; max-width: 64rem; padding: 0 1rem;
       background: #ffffff; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
h3 { font-size: 1rem; margin-top: 1.5rem; }
p.meta, caption { color: #6b6b76; text-align: left; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #e3e3e8; padding: 0.25rem 0.6rem; }
th { background: #f6f6f8; font-weight: 600; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
svg { max-width: 100%; height: auto; }
svg .grid { stroke: #e3e3e8; stroke-width: 1; }
svg .tick, svg .axis-label { font: 11px system-ui, sans-serif;
                             fill: #6b6b76; }
svg .fig-title { font: 600 13px system-ui, sans-serif; fill: #1a1a24; }
svg .clean-line { stroke: #6b6b76; stroke-width: 1;
                  stroke-dasharray: 4 3; }
ul.legend { list-style: none; padding: 0; margin: 0.25rem 0; }
ul.legend li { display: inline-block; margin-right: 1.25rem; }
ul.legend .swatch { display: inline-block; width: 0.75rem;
                    height: 0.75rem; border-radius: 2px;
                    margin-right: 0.4rem; vertical-align: -0.05rem; }
""".strip()


@dataclass(frozen=True)
class RunData:
    """One loaded run directory: summary, scenario payloads, store."""

    run_dir: Path
    summary: Mapping[str, Any]
    # Parallel to summary["scenarios"]: (summary row, scenario payload,
    # file stem) per scenario, in summary (= spec) order.
    scenarios: "tuple[tuple[Mapping, Mapping, str], ...]"
    store: "CellStore | None"


def load_run(run_dir: "str | Path") -> RunData:
    """Load ``summary.json``, every scenario payload and the cell store.

    The store is optional, for run directories written before every run
    kept one: the report falls back to the JSON payloads for quarantine
    data when ``store/cells.rcs`` is absent.
    """
    run_dir = Path(run_dir)
    summary_file = run_dir / "summary.json"
    if not summary_file.is_file():
        raise FileNotFoundError(
            f"{summary_file} not found; 'repro report' needs a finished "
            "scenario run directory (run 'repro merge' first for shards)"
        )
    summary = json.loads(summary_file.read_text())
    scenarios = []
    for row in summary.get("scenarios", ()):
        payload = json.loads((run_dir / row["file"]).read_text())
        scenarios.append((row, payload, Path(row["file"]).stem))
    store = None
    if store_path(run_dir).is_file():
        store = read_store(run_dir)
    return RunData(
        run_dir=run_dir,
        summary=summary,
        scenarios=tuple(scenarios),
        store=store,
    )


def _finite(values: "Sequence[float]") -> "list[float]":
    return [float(v) for v in values if not math.isnan(float(v))]


def _failed_cells(row: Mapping[str, Any]) -> "list[Mapping[str, Any]]":
    return list(row.get("failed_cells", ()))


def _scenario_color(index: int, total: int) -> str:
    # Color follows the scenario's fixed summary position; once the
    # combined figure folds (> MAX_COMBINED_SERIES), single-series
    # figures carry identity in their titles and share one color.
    if total <= MAX_COMBINED_SERIES:
        return CATEGORICAL_COLORS[index]
    return CATEGORICAL_COLORS[0]


def _series(payload: Mapping[str, Any], label: str, color: str) -> dict:
    rates = [float(r) for r in payload["fault_rates"]]
    grid = payload["accuracies"]
    low, high = [], []
    for rate_row in grid:
        finite = _finite(rate_row)
        low.append(min(finite) if finite else float("nan"))
        high.append(max(finite) if finite else float("nan"))
    band_ok = all(not math.isnan(v) for v in low + high)
    series = {
        "label": label,
        "rates": rates,
        "mean": [float(v) for v in payload["mean_accuracies"]],
        "color": color,
    }
    if band_ok:
        series["low"] = low
        series["high"] = high
    return series


def _section_overview(run: RunData) -> str:
    parts = ['<section id="overview"><h2>Overview</h2>']
    suite = run.summary.get("suite", "scenarios")
    count = int(run.summary.get("count", len(run.scenarios)))
    parts.append(
        f"<p>Suite <strong>{escape(str(suite))}</strong> · "
        f"{count} scenario{'s' if count != 1 else ''}.</p>"
    )
    if run.store is not None:
        counts = run.store.outcome_counts()
        parts.append(
            "<p class=\"meta\">Per-cell store: "
            + ", ".join(
                f"{counts[outcome]} {outcome}" for outcome in counts
            )
            + f" ({len(run.store)} records).</p>"
        )
    else:
        parts.append(
            '<p class="meta">No per-cell store in this run directory '
            "(see docs/RESULTS.md); quarantine data falls back to the "
            "scenario JSON.</p>"
        )
    if not run.scenarios:
        parts.append("<p>No scenarios were recorded.</p></section>")
        return "".join(parts)
    rows = []
    for row, payload, stem in run.scenarios:
        rows.append(
            [
                RawHTML(
                    f'<a href="#s-{escape(stem)}">{escape(row["name"])}</a>'
                ),
                str(row["model"]),
                str(row["campaign"]),
                str(row["variant"]),
                str(row["fault_model"].get("name", "")),
                float(row["clean_accuracy"]),
                float(row["auc"]),
                len(_failed_cells(row)),
            ]
        )
    parts.append(
        html_table(
            [
                "scenario", "model", "campaign", "variant", "fault model",
                "clean", "AUC", "quarantined",
            ],
            rows,
        )
    )
    parts.append("</section>")
    return "".join(parts)


def _section_curves(run: RunData) -> str:
    parts = ['<section id="curves"><h2>Resilience curves</h2>']
    if not run.scenarios:
        parts.append("<p>No scenarios to plot.</p></section>")
        return "".join(parts)
    total = len(run.scenarios)
    if total > MAX_COMBINED_SERIES:
        parts.append(
            f"<p>{total} scenarios exceed the {MAX_COMBINED_SERIES}-series "
            "limit of the combined figure; see the per-scenario figures "
            "below.</p></section>"
        )
        return "".join(parts)
    series = [
        _series(payload, row["name"], _scenario_color(index, total))
        for index, (row, payload, _) in enumerate(run.scenarios)
    ]
    # The combined figure shows mean lines only; min-max bands live in
    # the per-scenario figures where they cannot overlap each other.
    for entry in series:
        entry.pop("low", None)
        entry.pop("high", None)
    parts.append(svg_resilience_figure(series, title="mean accuracy vs fault rate"))
    if total >= 2:
        parts.append("<ul class=\"legend\">")
        for entry in series:
            parts.append(
                f'<li><span class="swatch" style="background:'
                f'{entry["color"]}"></span>{escape(str(entry["label"]))}</li>'
            )
        parts.append("</ul>")
    parts.append("</section>")
    return "".join(parts)


def _scenario_rate_table(row: Mapping, payload: Mapping) -> str:
    rates = [float(r) for r in payload["fault_rates"]]
    failed_by_rate: "dict[int, int]" = {}
    for cell in _failed_cells(row):
        index = int(cell["rate_index"])
        failed_by_rate[index] = failed_by_rate.get(index, 0) + 1
    adaptive = payload.get("adaptive")
    if adaptive is not None:
        table_rows = []
        trials = len(payload["accuracies"][0]) if rates else 0
        for index, rate in enumerate(rates):
            executed = int(adaptive["executed"][index])
            failed = failed_by_rate.get(index, 0)
            skipped = 0 if failed else max(0, trials - executed)
            table_rows.append(
                [
                    format_rate(rate),
                    float(adaptive["estimates"][index]),
                    float(adaptive["ci_halfwidths"][index]),
                    executed,
                    skipped,
                    failed,
                ]
            )
        return html_table(
            ["fault rate", "estimate", "halfwidth", "executed", "skipped", "failed"],
            table_rows,
        )
    table_rows = []
    for index, rate in enumerate(rates):
        finite = _finite(payload["accuracies"][index])
        table_rows.append(
            [
                format_rate(rate),
                float(payload["mean_accuracies"][index]),
                min(finite) if finite else float("nan"),
                max(finite) if finite else float("nan"),
                len(finite),
                failed_by_rate.get(index, 0),
            ]
        )
    return html_table(
        ["fault rate", "mean", "min", "max", "ok", "failed"], table_rows
    )


def _section_scenarios(run: RunData) -> str:
    parts = ['<section id="scenarios"><h2>Scenarios</h2>']
    if not run.scenarios:
        parts.append("<p>No scenarios were recorded.</p>")
    total = len(run.scenarios)
    for index, (row, payload, stem) in enumerate(run.scenarios):
        parts.append(f'<h3 id="s-{escape(stem)}">{escape(row["name"])}</h3>')
        spec = payload.get("spec", {})
        mode = spec.get("mode", "exact")
        parts.append(
            f'<p class="meta">model {escape(str(row["model"]))} · '
            f'{escape(str(row["campaign"]))} campaign · variant '
            f'{escape(str(row["variant"]))} · {escape(str(mode))} mode · '
            f'clean accuracy {float(row["clean_accuracy"]):.4f} · '
            f'AUC {float(row["auc"]):.4f}</p>'
        )
        if payload["fault_rates"]:
            parts.append(
                svg_resilience_figure(
                    [
                        _series(
                            payload, row["name"], _scenario_color(index, total)
                        )
                    ],
                    clean_accuracy=float(row["clean_accuracy"]),
                    width=560,
                    height=260,
                )
            )
        parts.append(_scenario_rate_table(row, payload))
    parts.append("</section>")
    return "".join(parts)


def _section_quarantine(run: RunData) -> str:
    parts = ['<section id="quarantine"><h2>Quarantine</h2>']
    rows: "list[list[object]]" = []
    if run.store is not None:
        for record in run.store.select(outcome="failed"):
            rows.append(
                [
                    record.scenario,
                    format_rate(record.fault_rate),
                    record.trial,
                    record.reason,
                    record.attempts,
                    record.error,
                ]
            )
    else:
        for row, payload, _stem in run.scenarios:
            for cell in _failed_cells(row):
                rows.append(
                    [
                        str(row["name"]),
                        format_rate(
                            float(
                                payload["fault_rates"][int(cell["rate_index"])]
                            )
                        ),
                        int(cell["trial"]),
                        str(cell["reason"]),
                        int(cell["attempts"]),
                        str(cell["error"]),
                    ]
                )
    if not rows:
        parts.append("<p>No quarantined cells.</p></section>")
        return "".join(parts)
    parts.append(
        html_table(
            ["scenario", "fault rate", "trial", "reason", "attempts", "error"],
            rows,
        )
    )
    parts.append("</section>")
    return "".join(parts)


def _numeric_keys(entry: Mapping[str, Any]) -> "list[str]":
    return sorted(
        key
        for key, value in entry.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def _section_history(bench_dir: "str | Path | None") -> str:
    parts = ['<section id="history"><h2>Benchmark history</h2>']
    if bench_dir is None:
        parts.append(
            "<p>No benchmark directory supplied (pass "
            "<code>--bench benchmarks/results</code> to diff against the "
            "per-SHA histories).</p></section>"
        )
        return "".join(parts)
    bench_dir = Path(bench_dir)
    files = sorted(bench_dir.glob("BENCH_*.json"))
    if not files:
        parts.append(
            f"<p>No BENCH_*.json histories under "
            f"{escape(str(bench_dir))}.</p></section>"
        )
        return "".join(parts)
    for path in files:
        payload = json.loads(path.read_text())
        name = payload.get("benchmark", path.stem)
        history = list(payload.get("history", ()))
        parts.append(f"<h3>{escape(str(name))}</h3>")
        if not history:
            parts.append("<p>Empty history.</p>")
            continue
        keys = _numeric_keys(history[-1])
        rows: "list[list[object]]" = []
        for entry in history[-8:]:
            sha = str(entry.get("sha", ""))[:10]
            rows.append(
                [sha]
                + [
                    float(entry[key]) if key in entry else float("nan")
                    for key in keys
                ]
            )
        if len(history) >= 2:
            prev, last = history[-2], history[-1]
            delta_cells: "list[object]" = ["Δ vs prev"]
            for key in keys:
                if key in prev and key in last and float(prev[key]) != 0:
                    change = float(last[key]) - float(prev[key])
                    pct = 100.0 * change / float(prev[key])
                    delta_cells.append(f"{change:+.4g} ({pct:+.1f}%)")
                else:
                    delta_cells.append("—")
            rows.append(delta_cells)
        parts.append(
            html_table(
                ["sha"] + keys,
                rows,
                caption=f"last {min(len(history), 8)} of "
                f"{len(history)} entries",
            )
        )
    parts.append("</section>")
    return "".join(parts)


def render_report(
    run_dir: "str | Path", bench_dir: "str | Path | None" = None
) -> str:
    """The full report page as a string (deterministic bytes)."""
    run = load_run(run_dir)
    suite = str(run.summary.get("suite", "scenarios"))
    sections = {
        "overview": _section_overview(run),
        "curves": _section_curves(run),
        "scenarios": _section_scenarios(run),
        "quarantine": _section_quarantine(run),
        "history": _section_history(bench_dir),
    }
    assert list(sections) == list(REPORT_SECTIONS), (
        "render_report sections and REPORT_SECTIONS must stay in lockstep"
    )
    body = "".join(sections[name] for name in REPORT_SECTIONS)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>repro report — {escape(suite)}</title>"
        f"<style>{_CSS}</style></head>\n"
        f"<body><h1>repro report — {escape(suite)}</h1>{body}</body></html>\n"
    )


def write_report(
    run_dir: "str | Path",
    out: "str | Path | None" = None,
    bench_dir: "str | Path | None" = None,
) -> Path:
    """Render and write the report; returns the output path.

    ``out`` defaults to ``<run_dir>/report.html``.  The write is plain
    (not atomic): the report is a derived artifact, regenerated at will
    from the run directory.
    """
    run_dir = Path(run_dir)
    target = Path(out) if out is not None else run_dir / REPORT_FILENAME
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_report(run_dir, bench_dir=bench_dir))
    return target
