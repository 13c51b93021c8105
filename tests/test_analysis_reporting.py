"""Tests for text reporting helpers and the HTML/SVG figure builders."""

import numpy as np
import pytest

from repro.analysis.reporting import (
    CATEGORICAL_COLORS,
    RawHTML,
    format_box_table,
    format_comparison_table,
    format_curve_table,
    format_rate,
    format_scenario_table,
    format_table,
    html_table,
    svg_resilience_figure,
)
from repro.core.metrics import ResilienceCurve


def _curve(label=""):
    rates = np.asarray([1e-7, 1e-6])
    accs = np.asarray([[0.9, 0.8], [0.5, 0.4]])
    return ResilienceCurve(rates, accs, clean_accuracy=0.95, label=label)


class TestFormatRate:
    def test_zero(self):
        assert format_rate(0.0) == "0"

    def test_scientific(self):
        assert format_rate(5e-7) == "5.0e-07"


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.125]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.5000" in text and "30" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_small_floats_scientific(self):
        text = format_table(["x"], [[1e-7]])
        assert "1.000e-07" in text


class TestCurveTables:
    def test_curve_table_has_clean_row(self):
        text = format_curve_table(_curve("demo"))
        assert text.splitlines()[0] == "curve: demo"
        assert "0.9500" in text  # clean accuracy row
        assert "1.0e-07" in text

    def test_comparison_table(self):
        text = format_comparison_table(
            [_curve(), _curve()], labels=["unprotected", "clipped"]
        )
        assert "unprotected" in text and "clipped" in text
        assert "AUC" in text

    def test_comparison_rejects_mismatched_grids(self):
        other = ResilienceCurve(
            np.asarray([1e-5, 1e-4]), np.asarray([[0.5], [0.4]]), 0.9
        )
        with pytest.raises(ValueError):
            format_comparison_table([_curve(), other])

    def test_comparison_rejects_empty(self):
        with pytest.raises(ValueError):
            format_comparison_table([])

    def test_box_table(self):
        text = format_box_table(_curve(), title="boxes")
        assert "median" in text
        assert "boxes" in text


def _scenario_result(name="s", accs=None):
    from repro.scenarios import CampaignSpec, assemble_scenario_result

    spec = CampaignSpec(
        name=name, model="lenet5", rates=(1e-6, 1e-5), trials=2,
        eval_images=16, batch_size=16, seed=3,
    )
    grid = np.asarray(
        accs if accs is not None else [[0.9, 0.8], [0.5, 0.4]]
    )
    return assemble_scenario_result(spec, spec.rates, grid, 0.95)


class TestScenarioTable:
    def test_empty_results_render_headers_only(self):
        text = format_scenario_table([], title="empty run")
        lines = text.splitlines()
        assert lines[0] == "empty run"
        assert "scenario" in lines[1]
        assert len(lines) == 3  # title + header + rule, zero data rows

    def test_all_quarantined_family_renders_nan_row(self):
        # Every cell of the scenario failed: the grid is all-NaN and the
        # table must still render (NaN cells, not an exception).
        result = _scenario_result(
            "doomed", accs=[[np.nan, np.nan], [np.nan, np.nan]]
        )
        text = format_scenario_table([result])
        assert "doomed" in text
        assert "nan" in text

    def test_colliding_name_stems_stay_distinct_rows(self):
        # Names that sanitize to the same file stem are still distinct
        # scenarios; the table keys rows by name, never by stem.
        a = _scenario_result("collide/x=1")
        b = _scenario_result("collide-x-1")
        from repro.scenarios import scenario_file_stems

        stems = scenario_file_stems([a.name, b.name])
        assert len(set(stems)) == 2
        text = format_scenario_table([a, b])
        assert "collide/x=1" in text
        assert "collide-x-1" in text


class TestHtmlTable:
    def test_escapes_cells_and_marks_numeric(self):
        html = html_table(["col"], [["<b>&"], [0.5], [3]])
        assert "&lt;b&gt;&amp;" in html
        assert html.count('class="num"') == 2

    def test_raw_cells_pass_through(self):
        html = html_table(["col"], [[RawHTML("<a href='#x'>x</a>")]])
        assert "<a href='#x'>x</a>" in html

    def test_nan_renders_as_dash(self):
        assert "—" in html_table(["col"], [[float("nan")]])

    def test_caption_and_width_mismatch(self):
        assert "<caption>c</caption>" in html_table(["a"], [], caption="c")
        with pytest.raises(ValueError):
            html_table(["a"], [[1, 2]])


class TestSvgFigure:
    def _series(self, **kw):
        base = dict(
            label="s", rates=[1e-6, 1e-5], mean=[0.9, 0.5],
            color=CATEGORICAL_COLORS[0],
        )
        base.update(kw)
        return base

    def test_deterministic_bytes(self):
        args = ([self._series()],)
        assert svg_resilience_figure(*args) == svg_resilience_figure(*args)

    def test_band_and_clean_line(self):
        svg = svg_resilience_figure(
            [self._series(low=[0.8, 0.4], high=[1.0, 0.6])],
            clean_accuracy=0.95,
            title="t",
        )
        assert "<polygon" in svg
        assert 'class="clean-line"' in svg
        assert "clean 0.9500" in svg
        assert "t</text>" in svg

    def test_marker_tooltips_name_the_series(self):
        svg = svg_resilience_figure([self._series(label="a<b")])
        assert "<title>a&lt;b: rate 1.0e-06" in svg

    def test_rejects_empty_and_nonpositive_rates(self):
        with pytest.raises(ValueError, match="at least one series"):
            svg_resilience_figure([])
        with pytest.raises(ValueError, match="positive"):
            svg_resilience_figure([self._series(rates=[0.0, 1e-5])])

    def test_single_rate_point_renders(self):
        svg = svg_resilience_figure(
            [self._series(rates=[1e-6], mean=[0.9])]
        )
        assert "<circle" in svg

    def test_palette_has_eight_fixed_slots(self):
        assert len(CATEGORICAL_COLORS) == 8
        assert len(set(CATEGORICAL_COLORS)) == 8
