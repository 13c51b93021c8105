"""Reporting primitives: plain-text tables for the benchmark harness
and dependency-free HTML/SVG figure generation for ``repro report``.

The text helpers print the paper's rows and series (no plotting
dependencies offline); the HTML helpers render the same data as
self-contained markup — deterministic bytes in, deterministic bytes
out, so report regressions are diffable (``docs/RESULTS.md``).
"""

from __future__ import annotations

import math
from html import escape as _escape
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.metrics import ResilienceCurve

__all__ = [
    "CATEGORICAL_COLORS",
    "format_table",
    "format_curve_table",
    "format_comparison_table",
    "format_box_table",
    "format_rate",
    "format_scenario_table",
    "html_table",
    "svg_resilience_figure",
    "RawHTML",
]

# Fixed-order categorical palette for report figures (colorblind-safe
# adjacent pairs on a white surface; series colors follow the entity and
# are never cycled — a figure never shows more than eight series).
CATEGORICAL_COLORS = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)


def format_rate(rate: float) -> str:
    """Render a fault rate like the paper: ``5.0e-07``."""
    if rate == 0:
        return "0"
    return f"{rate:.1e}"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with per-column width fitting."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) < 1e-3 or abs(cell) >= 1e5:
            return f"{cell:.3e}"
        return f"{cell:.4f}"
    return str(cell)


def format_curve_table(curve: ResilienceCurve, title: str = "") -> str:
    """Accuracy-vs-fault-rate table for one curve (mean over trials)."""
    rows = [
        [format_rate(row["fault_rate"]), row["mean"], row["min"], row["max"]]
        for row in curve.summary_rows()
    ]
    rows.insert(0, ["0", curve.clean_accuracy, curve.clean_accuracy, curve.clean_accuracy])
    return format_table(
        ["fault_rate", "mean_acc", "min_acc", "max_acc"],
        rows,
        title=title or (curve.label and f"curve: {curve.label}") or "",
    )


def format_comparison_table(
    curves: Sequence[ResilienceCurve], labels: "Sequence[str] | None" = None, title: str = ""
) -> str:
    """Side-by-side mean accuracies of several curves on a shared rate grid."""
    if not curves:
        raise ValueError("need at least one curve")
    base_rates = curves[0].fault_rates
    for curve in curves[1:]:
        if not np.array_equal(curve.fault_rates, base_rates):
            raise ValueError("curves must share the same fault-rate grid")
    names = list(labels) if labels is not None else [
        curve.label or f"curve{i}" for i, curve in enumerate(curves)
    ]
    headers = ["fault_rate"] + names
    rows: list[list[object]] = [
        ["0"] + [curve.clean_accuracy for curve in curves]
    ]
    means = [curve.mean_accuracies() for curve in curves]
    for index, rate in enumerate(base_rates):
        rows.append([format_rate(float(rate))] + [m[index] for m in means])
    rows.append(["AUC"] + [curve.auc() for curve in curves])
    return format_table(headers, rows, title=title)


def format_box_table(curve: ResilienceCurve, title: str = "") -> str:
    """Box-plot statistics per fault rate (paper Fig. 7b/7c style)."""
    rows = []
    for rate, box in zip(curve.fault_rates, curve.box_stats()):
        rows.append(
            [format_rate(float(rate)), box.minimum, box.q1, box.median, box.q3, box.maximum]
        )
    return format_table(
        ["fault_rate", "min", "q1", "median", "q3", "max"], rows, title=title
    )


def format_scenario_table(results: Sequence, title: str = "") -> str:
    """One row per scenario of a :func:`repro.scenarios.run_scenarios` run.

    ``results`` are :class:`~repro.scenarios.compile.ScenarioResult`
    objects; the table summarizes each expanded scenario (model,
    campaign kind, mitigation variant, fault model) with its clean
    accuracy, the mean accuracy at the sweep's low and high ends, and
    the AUC — the cross-scenario counterpart of
    :func:`format_comparison_table`, which requires a shared rate grid.
    """
    rows = []
    for result in results:
        spec = result.spec
        means = result.curve.mean_accuracies()
        fault = spec.fault_model.name
        if spec.fault_model.params:
            fault += "(" + ",".join(
                f"{key}={value}"
                for key, value in sorted(spec.fault_model.params.items())
            ) + ")"
        rows.append(
            [
                spec.name,
                spec.model,
                spec.campaign,
                spec.variant,
                fault,
                result.curve.clean_accuracy,
                float(means[0]),
                float(means[-1]),
                result.curve.auc(),
            ]
        )
    return format_table(
        [
            "scenario", "model", "campaign", "variant", "fault_model",
            "clean", "acc@low", "acc@high", "AUC",
        ],
        rows,
        title=title,
    )


class RawHTML(str):
    """A table cell that is already markup; :func:`html_table` keeps it."""


def html_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    caption: str = "",
) -> str:
    """Self-contained HTML table; numeric cells get ``class="num"``.

    Cell text is escaped (wrap pre-rendered markup in :class:`RawHTML`
    to pass it through); floats render through the same fixed-precision
    rules as :func:`format_table` so report bytes are deterministic.
    """
    parts = ["<table>"]
    if caption:
        parts.append(f"<caption>{_escape(caption)}</caption>")
    parts.append("<thead><tr>")
    for header in headers:
        parts.append(f"<th>{_escape(str(header))}</th>")
    parts.append("</tr></thead>")
    parts.append("<tbody>")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        parts.append("<tr>")
        for cell in row:
            if isinstance(cell, RawHTML):
                parts.append(f"<td>{cell}</td>")
                continue
            numeric = isinstance(cell, (int, float)) and not isinstance(cell, bool)
            text = _render(cell) if not isinstance(cell, str) else cell
            if isinstance(cell, float) and math.isnan(cell):
                text = "—"
            css = ' class="num"' if numeric else ""
            parts.append(f"<td{css}>{_escape(text)}</td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    return "".join(parts)


def _svg_x(rate: float, lo: float, hi: float, left: float, right: float) -> float:
    if hi == lo:
        return (left + right) / 2.0
    return left + (math.log10(rate) - lo) / (hi - lo) * (right - left)


def _svg_y(acc: float, top: float, bottom: float) -> float:
    return bottom - max(0.0, min(1.0, acc)) * (bottom - top)


def svg_resilience_figure(
    series: Sequence[Mapping[str, object]],
    clean_accuracy: "float | None" = None,
    title: str = "",
    width: int = 640,
    height: int = 300,
) -> str:
    """Inline SVG of resilience curves: mean accuracy vs fault rate.

    Each series mapping carries ``label``, ``rates`` (positive, strictly
    increasing), ``mean``, optional ``low``/``high`` (min–max band) and
    ``color``.  The x axis is log10 with one tick per decade, the y axis
    is accuracy in [0, 1].  Coordinates are formatted with fixed
    precision so the same inputs always produce the same bytes.
    """
    if not series:
        raise ValueError("need at least one series")
    left, right = 56.0, width - 16.0
    top, bottom = 28.0 if title else 16.0, height - 40.0
    rates: list[float] = []
    for entry in series:
        for rate in entry["rates"]:  # type: ignore[union-attr]
            if rate <= 0:
                raise ValueError("fault rates must be positive for a log axis")
            rates.append(float(rate))
    lo = math.floor(math.log10(min(rates)))
    hi = math.ceil(math.log10(max(rates)))
    if hi == lo:
        hi = lo + 1

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img">'
    ]
    if title:
        out.append(f'<text x="{left:.2f}" y="16" class="fig-title">{_escape(title)}</text>')
    # Recessive grid + axes.
    for quarter in range(5):
        y = _svg_y(quarter / 4.0, top, bottom)
        out.append(
            f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{right:.2f}" y2="{y:.2f}" class="grid"/>'
        )
        out.append(
            f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" class="tick" text-anchor="end">'
            f"{quarter / 4.0:.2f}</text>"
        )
    for decade in range(lo, hi + 1):
        x = _svg_x(10.0 ** decade, lo, hi, left, right)
        out.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bottom:.2f}" class="grid"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{bottom + 18:.2f}" class="tick" text-anchor="middle">'
            f"1e{decade}</text>"
        )
    out.append(
        f'<text x="{(left + right) / 2:.2f}" y="{height - 6:.2f}" class="axis-label" '
        f'text-anchor="middle">fault rate</text>'
    )
    out.append(
        f'<text x="14" y="{(top + bottom) / 2:.2f}" class="axis-label" '
        f'text-anchor="middle" transform="rotate(-90 14 {(top + bottom) / 2:.2f})">'
        f"accuracy</text>"
    )
    if clean_accuracy is not None and not math.isnan(clean_accuracy):
        y = _svg_y(float(clean_accuracy), top, bottom)
        out.append(
            f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{right:.2f}" y2="{y:.2f}" '
            f'class="clean-line"/>'
        )
        out.append(
            f'<text x="{right:.2f}" y="{y - 5:.2f}" class="tick" text-anchor="end">'
            f"clean {float(clean_accuracy):.4f}</text>"
        )
    for entry in series:
        label = str(entry["label"])
        color = str(entry.get("color", CATEGORICAL_COLORS[0]))
        xs = [float(rate) for rate in entry["rates"]]  # type: ignore[union-attr]
        mean = [float(value) for value in entry["mean"]]  # type: ignore[union-attr]
        low = entry.get("low")
        high = entry.get("high")
        if low is not None and high is not None:
            points = [
                f"{_svg_x(x, lo, hi, left, right):.2f},{_svg_y(float(value), top, bottom):.2f}"
                for x, value in zip(xs, high)  # type: ignore[arg-type]
            ] + [
                f"{_svg_x(x, lo, hi, left, right):.2f},{_svg_y(float(value), top, bottom):.2f}"
                for x, value in zip(reversed(xs), reversed(list(low)))  # type: ignore[arg-type]
            ]
            out.append(
                f'<polygon points="{" ".join(points)}" fill="{color}" '
                f'fill-opacity="0.14" stroke="none"/>'
            )
        line_points = " ".join(
            f"{_svg_x(x, lo, hi, left, right):.2f},{_svg_y(value, top, bottom):.2f}"
            for x, value in zip(xs, mean)
        )
        out.append(
            f'<polyline points="{line_points}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, value in zip(xs, mean):
            out.append(
                f'<circle cx="{_svg_x(x, lo, hi, left, right):.2f}" '
                f'cy="{_svg_y(value, top, bottom):.2f}" r="3" fill="{color}">'
                f"<title>{_escape(label)}: rate {format_rate(x)}, "
                f"mean accuracy {value:.4f}</title></circle>"
            )
    out.append("</svg>")
    return "".join(out)
