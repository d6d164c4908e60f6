"""Plain-text table rendering.

The benchmarks regenerate the paper's tables and figures as text; this
module provides the one formatter they share so every figure prints in
a uniform, diff-friendly style.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, None]

#: Columns of the longest bar in :func:`render_bars`.
BAR_WIDTH = 40


def format_cell(value: Cell, precision: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (0 < abs(value) < 0.001):
            return f"{value:.3g}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[format_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def render_mapping_table(
    rows: Sequence[Mapping[str, Cell]],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render dict rows; the headers are the first row's keys."""
    rows = list(rows)
    if not rows:
        return title or "(empty table)"
    cols = list(rows[0].keys())
    return render_table(
        cols,
        [[row.get(c) for c in cols] for row in rows],
        title=title,
        precision=precision,
    )


def render_bars(
    values: Mapping[str, float],
    title: Optional[str],
    reference: Optional[float],
) -> str:
    """Render a horizontal ASCII bar chart, ``BAR_WIDTH`` columns wide.

    Bars scale to the largest value; ``reference`` (e.g. 1.0 for
    normalized metrics; None for none) draws a ``|`` marker at that
    value's position.
    """
    width = BAR_WIDTH
    values = dict(values)
    if not values:
        return title or "(no data)"
    vmax = max(values.values())
    if vmax <= 0:
        vmax = 1.0
    label_w = max(len(k) for k in values)
    lines: List[str] = []
    if title:
        lines.append(title)
    ref_pos = None
    if reference is not None and reference <= vmax:
        ref_pos = int(round(width * reference / vmax))
    for key, val in values.items():
        n = int(round(width * max(0.0, val) / vmax))
        bar = "#" * n + " " * (width - n)
        if ref_pos is not None and 0 <= ref_pos < len(bar):
            bar = bar[:ref_pos] + "|" + bar[ref_pos + 1:]
        lines.append(f"{key.ljust(label_w)}  {bar}  {format_cell(val)}")
    return "\n".join(lines)


def render_series(
    x_label: str,
    series: Mapping[str, Mapping[object, Cell]],
    title: Optional[str] = None,
) -> str:
    """Render {series name -> {x -> y}} with one column per series,
    values rounded to integers (the series are counts)."""
    xs: List[object] = []
    for vals in series.values():
        for x in vals:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series.keys())
    rows = [[x] + [series[s].get(x) for s in series] for x in xs]
    return render_table(headers, rows, title=title, precision=0)
