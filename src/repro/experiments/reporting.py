"""Plain-text rendering of experiment results.

The paper's figures are line charts and bar charts; this repository reports
the same series as aligned text tables so results can be regenerated and
compared in any terminal / CI log without plotting dependencies.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence


def _format_value(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render ``rows`` (list of dicts) as an aligned text table.

    Without ``columns``, every key of any row is a column, in first-seen order;
    a row lacking a column renders an empty cell.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(dict.fromkeys(key for row in rows for key in row))
    rendered = [
        [_format_value(row.get(column, ""), precision) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    ]
    lines = ([title] if title else []) + [header, separator] + body
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Mapping[Any, float]],
    x_label: str = "x",
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render ``{series_name: {x: y}}`` as a table with one column per series.

    This is the layout used for the paper's line charts (x = tree height,
    one line per method).
    """
    xs = sorted({x for values in series.values() for x in values})
    rows: list[Dict[str, Any]] = []
    for x in xs:
        row: Dict[str, Any] = {x_label: x}
        for name, values in series.items():
            if x in values:
                row[name] = values[x]
        rows.append(row)
    columns = [x_label] + list(series.keys())
    return format_table(rows, columns=columns, precision=precision, title=title)


def improvement_percent(baseline: float, value: float) -> float:
    """Relative improvement of ``value`` over ``baseline`` in percent.

    Positive means ``value`` is lower (better, for error metrics) than the
    baseline.  Zero baseline yields 0 to keep tables printable.
    """
    if baseline == 0:
        return 0.0
    return (baseline - value) / abs(baseline) * 100.0
