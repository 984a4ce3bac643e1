"""Unit tests for text-table reporting."""

from repro.experiments.reporting import format_series, format_table, improvement_percent


class TestFormatTable:
    def test_columns_aligned_and_ordered(self):
        rows = [
            {"method": "fair", "ence": 0.0123456, "height": 4},
            {"method": "median", "ence": 0.3, "height": 4},
        ]
        text = format_table(rows, precision=3)
        lines = text.splitlines()
        assert lines[0].startswith("method")
        assert "0.012" in text
        assert len(lines) == 2 + len(rows)

    def test_explicit_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_missing_values_render_empty(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = format_table(rows, columns=["a", "b"])
        assert text.count("\n") == 3

    def test_ragged_rows_keep_every_column_in_first_seen_order(self):
        rows = [{"mode": "idle", "best_ms": 1.5}, {"mode": "load", "p95_ms": 9.25, "best_ms": 2.0}]
        lines = format_table(rows, precision=2).splitlines()
        assert lines[0].split() == ["mode", "best_ms", "p95_ms"]
        assert lines[2].split() == ["idle", "1.50"]
        assert lines[3].split() == ["load", "2.00", "9.25"]

    def test_title_included(self):
        text = format_table([{"a": 1}], title="Figure 7")
        assert text.splitlines()[0] == "Figure 7"

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="Empty")


class TestFormatSeries:
    def test_series_layout(self):
        series = {
            "fair": {4: 0.01, 6: 0.02},
            "median": {4: 0.05, 6: 0.06},
        }
        text = format_series(series, x_label="height")
        header = text.splitlines()[0]
        assert header.split()[:3] == ["height", "fair", "median"]
        assert "0.0100" in text

    def test_missing_points_allowed(self):
        series = {"fair": {4: 0.01}, "median": {6: 0.06}}
        text = format_series(series, x_label="h")
        assert len(text.splitlines()) == 4  # header + separator + two x values


class TestImprovementPercent:
    def test_positive_improvement(self):
        assert improvement_percent(0.2, 0.1) == 50.0

    def test_regression_is_negative(self):
        assert improvement_percent(0.1, 0.2) == -100.0

    def test_zero_baseline(self):
        assert improvement_percent(0.0, 0.5) == 0.0
